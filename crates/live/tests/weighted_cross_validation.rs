//! Differential harness for the heterogeneity layer.
//!
//! * **Unit-mode bit-identity** — a weighted engine constructed with the
//!   unit weight law and uniform speeds must replicate the classic
//!   engine's trajectory *bit for bit* on the same seed, for every
//!   (policy, topology) pair: same loads, same time bits, same counters
//!   and the same RNG state afterwards (i.e. the heterogeneous code path
//!   consumes exactly the same random draws).
//! * **Statistical cross-validation** — the online weighted engine's
//!   steady-state normalized-load distribution must agree (KS-style, with
//!   a loose deterministic tolerance) with the *offline* weighted RLS
//!   protocol (`rls-protocols::weighted`) at matched load `ρ = m/n`, tying
//!   the new online layer to the previously-validated offline one.

use rls_core::{Config, RebalancePolicy, RlsVariant};
use rls_graph::Topology;
use rls_live::{LiveEngine, LiveParams};
use rls_protocols::weighted::{WeightedGoal, WeightedRls};
use rls_rng::rng_from_seed;
use rls_sim::stats::dominance_report;
use rls_workloads::{ArrivalProcess, WeightDist};

const POLICIES: &[RebalancePolicy] = &[
    RebalancePolicy::Rls {
        variant: RlsVariant::Geq,
    },
    RebalancePolicy::Rls {
        variant: RlsVariant::Strict,
    },
    RebalancePolicy::GreedyD { d: 2 },
    RebalancePolicy::ThresholdFixed { threshold: 6 },
    RebalancePolicy::ThresholdAvg,
    RebalancePolicy::CrsPair,
];

const TOPOLOGIES: &[Topology] = &[
    Topology::Complete,
    Topology::Cycle,
    Topology::Star,
    Topology::Hypercube,
];

fn params(n: usize, m: u64) -> LiveParams {
    LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, n, m).unwrap()
}

/// Unit weights + uniform speeds: the weighted engine is the classic
/// engine, bit for bit, for every (policy, topology) pair.
#[test]
fn unit_mode_is_bit_identical_to_the_classic_engine() {
    let n = 16;
    let m = 128;
    for &policy in POLICIES {
        for &topology in TOPOLOGIES {
            let initial = Config::uniform(n, m / n as u64).unwrap();
            let mut classic =
                LiveEngine::with_policy(initial.clone(), params(n, m), policy, topology, 9)
                    .unwrap();
            // The unit law draws nothing at construction, so any seed here
            // must leave the constructor rng untouched semantically.
            let mut ctor_rng = rng_from_seed(0xDEAD);
            let before = ctor_rng.state();
            let mut weighted = LiveEngine::with_hetero(
                initial,
                params(n, m),
                policy,
                topology,
                9,
                WeightDist::Unit,
                vec![1; n],
                &mut ctor_rng,
            )
            .unwrap();
            assert_eq!(
                ctor_rng.state(),
                before,
                "unit construction must not consume randomness ({policy} on {topology})"
            );

            let mut rng_a = rng_from_seed(42);
            let mut rng_b = rng_from_seed(42);
            classic.run_until(12.0, &mut rng_a, &mut ());
            weighted.run_until(12.0, &mut rng_b, &mut ());

            let tag = format!("{policy} on {topology}");
            assert_eq!(
                classic.config().loads(),
                weighted.config().loads(),
                "loads diverged: {tag}"
            );
            assert_eq!(
                classic.time().to_bits(),
                weighted.time().to_bits(),
                "time diverged: {tag}"
            );
            assert_eq!(
                classic.counters(),
                weighted.counters(),
                "counters diverged: {tag}"
            );
            assert_eq!(
                rng_a.state(),
                rng_b.state(),
                "rng draw sequence diverged: {tag}"
            );
            // And the weighted view degenerates to the load view.
            assert_eq!(weighted.total_weight(), weighted.config().m());
            for b in 0..n {
                assert_eq!(weighted.bin_weight(b), weighted.config().load(b));
                assert_eq!(weighted.speed(b), 1);
            }
        }
    }
}

/// Two-sample Kolmogorov–Smirnov statistic `sup_x |F_a(x) − F_b(x)|`.
fn ks_distance(a: &[f64], b: &[f64]) -> f64 {
    let report = dominance_report(a, b);
    report.max_cdf_gap.max(report.max_violation)
}

/// The online weighted engine's steady-state normalized-load distribution
/// agrees with the offline weighted RLS protocol at matched `ρ = m/n`.
///
/// Loads are normalized per snapshot by the *current* mean bin weight
/// `W/n`, so the online population fluctuation (M/M/∞) cancels and both
/// samples measure the same shape: how far bins sit from the fair share
/// once weighted RLS has had time to act.  The tolerance is loose and the
/// seeds fixed, so the test is deterministic.
#[test]
fn online_steady_state_matches_offline_weighted_rls() {
    let n = 16;
    let m = 256u64;
    let dist = WeightDist::UniformInt { lo: 1, hi: 4 };

    // Online: independent engines, one steady-state snapshot each (a
    // single engine sampled over time is heavily autocorrelated — near a
    // stable state most rings decline to move).  Churn is kept slow
    // relative to the ring clocks (~64 repair rings per arrival or
    // departure) so each engine hovers near the stable states the offline
    // protocol terminates in, rather than perpetually mid-repair.
    let mut online: Vec<f64> = Vec::new();
    for trial in 0..24u64 {
        let slow_churn =
            LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 0.05 }, n, m).unwrap();
        let mut engine = LiveEngine::with_hetero(
            Config::uniform(n, m / n as u64).unwrap(),
            slow_churn,
            RebalancePolicy::rls(),
            Topology::Complete,
            trial,
            dist,
            vec![1; n],
            &mut rng_from_seed(5 + trial),
        )
        .unwrap();
        let mut rng = rng_from_seed(1000 + trial);
        engine.run_until(40.0, &mut rng, &mut ());
        let mean = engine.total_weight() as f64 / n as f64;
        if mean > 0.0 {
            online.extend((0..n).map(|b| engine.bin_weight(b) as f64 / mean));
        }
    }

    // Offline: the same weight law, fixed population m, run to a
    // Nash-stable state; several independent instances.
    let mut offline: Vec<f64> = Vec::new();
    for trial in 0..16u64 {
        let mut wrng = rng_from_seed(100 + trial);
        let weights: Vec<u64> = (0..m).map(|_| dist.sample(&mut wrng)).collect();
        let proto = WeightedRls::new(weights, 5_000_000);
        let mut state = proto.random_start(n, &mut wrng);
        let out = proto.run(&mut state, WeightedGoal::NashStable, &mut wrng);
        assert!(out.reached_goal, "offline trial {trial} must stabilize");
        let mean = proto.total_weight() as f64 / n as f64;
        offline.extend(state.bin_loads.iter().map(|&l| l as f64 / mean));
    }

    let d = ks_distance(&online, &offline);
    online.sort_by(f64::total_cmp);
    offline.sort_by(f64::total_cmp);
    eprintln!("KS distance: {d:.3}");
    let pct = |v: &[f64], q: f64| v[((v.len() - 1) as f64 * q) as usize];
    for (name, v) in [("online", &online), ("offline", &offline)] {
        eprintln!(
            "{name}: p05 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p95 {:.3} min {:.3} max {:.3}",
            pct(v, 0.05),
            pct(v, 0.25),
            pct(v, 0.5),
            pct(v, 0.75),
            pct(v, 0.95),
            v[0],
            v[v.len() - 1]
        );
    }
    assert!(
        d < 0.25,
        "online vs offline weighted steady state diverged: KS = {d:.3} \
         (online {} samples, offline {} samples)",
        online.len(),
        offline.len()
    );
    // Sanity: both distributions center on the fair share.
    let mean_of = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!((mean_of(&online) - 1.0).abs() < 0.05);
    assert!((mean_of(&offline) - 1.0).abs() < 0.05);
}
