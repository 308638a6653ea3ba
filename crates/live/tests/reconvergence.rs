//! Re-convergence after membership scale events: the paper's
//! self-stabilization claim, tested distributionally.
//!
//! After a bin joins or drains, the perturbed system must return to the
//! *same* steady state a fresh boot at the new bin count reaches — RLS is
//! memoryless about how the live set came to be.  The test collects
//! instantaneous-gap samples on a fixed time grid from (a) a system that
//! scaled mid-run and then re-converged, and (b) a system booted directly
//! at the post-scale shape, and compares the two empirical distributions
//! with a two-sample Kolmogorov–Smirnov statistic.
//!
//! **Tolerance.** With ~1600 autocorrelated samples per side and pinned
//! seeds, sampling noise keeps the KS distance well under 0.1; a system
//! that failed to re-converge (a stuck hot bin, a retired slot still
//! holding mass, an average computed over the wrong `n`) shifts the gap
//! distribution by at least one ball and pushes the distance past 0.5.
//! The asserted bound of 0.2 separates the two regimes with a wide margin
//! on both sides and is deterministic for the pinned seeds.

use rls_core::{Config, RebalancePolicy};
use rls_graph::Topology;
use rls_live::{LiveCommand, LiveEngine, LiveParams, Reconvergence, DEFAULT_RECONV_THRESHOLD};
use rls_rng::rng_from_seed;
use rls_sim::stats::dominance_report;
use rls_workloads::ArrivalProcess;

const RATE_PER_BIN: f64 = 2.0;
const PER_BIN: u64 = 10;
/// Settling time granted after the scale event before sampling starts
/// (generous: observed re-convergence times are well under one time unit).
const SETTLE: f64 = 10.0;
const GRID: f64 = 0.25;
const SAMPLES: usize = 1600;
const KS_BOUND: f64 = 0.2;

fn engine_at(n: usize, seed_salt: u64) -> LiveEngine {
    let m = n as u64 * PER_BIN;
    let params = LiveParams::balanced(
        ArrivalProcess::Poisson {
            rate_per_bin: RATE_PER_BIN,
        },
        n,
        m,
    )
    .unwrap();
    LiveEngine::with_policy(
        Config::uniform(n, PER_BIN).unwrap(),
        params,
        RebalancePolicy::rls(),
        Topology::Complete,
        seed_salt,
    )
    .unwrap()
}

/// Instantaneous gap over the live set: `max load − m/live`.
fn gap(engine: &LiveEngine) -> f64 {
    let t = engine.tracker();
    (t.max_load() as f64 - t.average()).max(0.0)
}

/// Sample the gap on a fixed time grid starting at the engine's clock.
fn sample_gaps(engine: &mut LiveEngine, rng: &mut rls_rng::DefaultRng) -> Vec<f64> {
    let start = engine.time();
    (1..=SAMPLES)
        .map(|k| {
            engine.run_until(start + k as f64 * GRID, rng, &mut ());
            gap(engine)
        })
        .collect()
}

/// Two-sample Kolmogorov–Smirnov statistic `sup |F_a − F_b|`.
fn ks_distance(a: &[f64], b: &[f64]) -> f64 {
    let report = dominance_report(a, b);
    report.max_cdf_gap.max(report.max_violation)
}

/// Drive `engine` through warmup, apply `cmd`, wait for re-convergence
/// plus the settle margin, and return the post-event gap samples.
fn perturb_and_sample(
    mut engine: LiveEngine,
    cmd: &LiveCommand,
    seed: u64,
) -> (Vec<f64>, Reconvergence) {
    let mut rng = rng_from_seed(seed);
    engine.run_until(20.0, &mut rng, &mut ());
    let mut reconv = Reconvergence::new(DEFAULT_RECONV_THRESHOLD);
    engine
        .apply_with(cmd, &mut rng, &mut reconv)
        .expect("scale event applies");
    let event_time = engine.time();
    engine.run_until(event_time + SETTLE, &mut rng, &mut reconv);
    let samples = sample_gaps(&mut engine, &mut rng);
    (samples, reconv)
}

#[test]
fn post_join_steady_state_matches_a_fresh_boot_at_the_new_n() {
    // 16 bins scale up to 17 mid-run (warm join); the fresh reference
    // boots directly at 17 bins with the matching equilibrium population.
    let (scaled, reconv) =
        perturb_and_sample(engine_at(16, 0xA), &LiveCommand::AddBin { warm: true }, 101);
    assert_eq!(reconv.summary().scale_events, 1);
    assert!(
        reconv.summary().all_reconverged(),
        "the join never re-converged: {:?}",
        reconv.summary()
    );

    let mut fresh = engine_at(17, 0xB);
    let mut rng = rng_from_seed(202);
    fresh.run_until(20.0 + SETTLE, &mut rng, &mut ());
    let reference = sample_gaps(&mut fresh, &mut rng);

    let d = ks_distance(&scaled, &reference);
    assert!(
        d < KS_BOUND,
        "post-join gap distribution diverged from a fresh 17-bin boot: KS = {d}"
    );
}

#[test]
fn post_drain_steady_state_matches_a_fresh_boot_at_the_new_n() {
    // 16 bins scale down to 15 mid-run (uniform victim, balls relocated);
    // the fresh reference boots directly at 15 bins.
    let (scaled, reconv) = perturb_and_sample(
        engine_at(16, 0xC),
        &LiveCommand::DrainBin { bin: None },
        303,
    );
    assert_eq!(reconv.summary().scale_events, 1);
    assert!(
        reconv.summary().all_reconverged(),
        "the drain never re-converged: {:?}",
        reconv.summary()
    );

    let mut fresh = engine_at(15, 0xD);
    let mut rng = rng_from_seed(404);
    fresh.run_until(20.0 + SETTLE, &mut rng, &mut ());
    let reference = sample_gaps(&mut fresh, &mut rng);

    let d = ks_distance(&scaled, &reference);
    assert!(
        d < KS_BOUND,
        "post-drain gap distribution diverged from a fresh 15-bin boot: KS = {d}"
    );
}

#[test]
fn ks_distance_separates_identical_from_shifted_distributions() {
    // Sanity on the statistic itself: identical samples → 0; a one-ball
    // shift (the failure mode the tests guard against) → large.
    let a: Vec<f64> = (0..100).map(|i| (i % 5) as f64).collect();
    assert_eq!(ks_distance(&a, &a), 0.0);
    let shifted: Vec<f64> = a.iter().map(|g| g + 1.0).collect();
    assert!(ks_distance(&a, &shifted) >= 0.2);
}
