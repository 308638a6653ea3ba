//! Cross-validation of the two simulation engines (tier-1, runs in CI).
//!
//! The superposition engine ([`Simulation`]) and the literal per-ball clock
//! engine ([`ClockEngine`]) implement *the same* continuous-time law, so
//! over many independent trials their stopping-time distributions must be
//! statistically indistinguishable.  This test runs a small `(n, m)` grid
//! and compares the empirical CDFs with a Kolmogorov–Smirnov-style
//! statistic built from `rls_sim::stats`: with 60 samples a side, the
//! two-sample KS critical value at significance 0.001 is
//! `1.95·√(2/60) ≈ 0.356`, so a distance bound of 0.35 both keeps real
//! regressions visible (a variant mix-up or a biased sampler shifts the
//! CDF by far more) and stays deterministic for the fixed seeds used.

use rls_core::{Config, RlsRule};
use rls_rng::dist::{Distribution, Exponential};
use rls_rng::{rng_from_seed, Rng64, RngExt};
use rls_sim::clock::ClockEngine;
use rls_sim::stats::{dominance_report, Summary};
use rls_sim::{RlsPolicy, Simulation, StopWhen};

/// Two-sample Kolmogorov–Smirnov distance `sup_x |F_a(x) − F_b(x)|`.
fn ks_distance(a: &[f64], b: &[f64]) -> f64 {
    let report = dominance_report(a, b);
    report.max_cdf_gap.max(report.max_violation)
}

fn stopping_times<F: FnMut(u64) -> f64>(trials: u64, mut run: F) -> Vec<f64> {
    (0..trials).map(&mut run).collect()
}

#[test]
fn clock_and_superposition_engines_agree_in_distribution() {
    let trials = 60u64;
    for (grid_idx, &(n, m)) in [(8usize, 64u64), (16, 128)].iter().enumerate() {
        let salt = grid_idx as u64 * 10_000;
        let clock_times = stopping_times(trials, |t| {
            let cfg = Config::all_in_one_bin(n, m).unwrap();
            let mut engine = ClockEngine::new(cfg, RlsRule::paper(), &mut rng_from_seed(salt + t));
            engine
                .run(
                    &mut rng_from_seed(salt + 1000 + t),
                    StopWhen::perfectly_balanced(),
                )
                .time
        });
        let super_times = stopping_times(trials, |t| {
            let cfg = Config::all_in_one_bin(n, m).unwrap();
            let mut sim = Simulation::new(cfg, RlsPolicy::new(RlsRule::paper())).unwrap();
            sim.run(
                &mut rng_from_seed(salt + 2000 + t),
                StopWhen::perfectly_balanced(),
            )
            .time
        });

        let ks = ks_distance(&clock_times, &super_times);
        assert!(
            ks < 0.35,
            "(n={n}, m={m}): KS distance {ks:.3} exceeds the 0.1% critical value — \
             the engines no longer simulate the same law"
        );

        // Means must also agree within Monte-Carlo noise (a location shift
        // could in principle hide under a just-passing KS distance).
        let c = Summary::from_samples(&clock_times);
        let s = Summary::from_samples(&super_times);
        let rel = (c.mean - s.mean).abs() / s.mean;
        assert!(
            rel < 0.25,
            "(n={n}, m={m}): means diverge by {:.1}% (clock {:.4} vs superposition {:.4})",
            rel * 100.0,
            c.mean,
            s.mean
        );
    }
}

/// The pre-Fenwick superposition engine, kept verbatim as a reference: a
/// `balls: Vec<u32>` slot map sampled uniformly (O(m) memory, `u32::MAX`
/// ball cap).  [`Simulation`] now samples "a bin with probability `load/m`"
/// from a Fenwick-indexed load vector instead; the two must simulate the
/// same law.
struct VecEngine {
    cfg: Config,
    balls: Vec<u32>,
    rule: RlsRule,
    time: f64,
    waiting_time: Exponential,
}

impl VecEngine {
    fn new(initial: Config, rule: RlsRule) -> Self {
        let mut balls = Vec::with_capacity(initial.m() as usize);
        for (bin, &load) in initial.loads().iter().enumerate() {
            for _ in 0..load {
                balls.push(bin as u32);
            }
        }
        let waiting_time = Exponential::new(initial.m() as f64).expect("m ≥ 1");
        Self {
            cfg: initial,
            balls,
            rule,
            time: 0.0,
            waiting_time,
        }
    }

    fn step<R: Rng64 + ?Sized>(&mut self, rng: &mut R) {
        self.time += self.waiting_time.sample(rng);
        let ball = rng.next_index(self.balls.len());
        let source = self.balls[ball] as usize;
        let dest = rng.next_index(self.cfg.n());
        if source != dest
            && self
                .rule
                .permits_loads(self.cfg.load(source), self.cfg.load(dest))
        {
            self.cfg
                .apply(rls_core::Move::new(source, dest))
                .expect("permitted move applies");
            self.balls[ball] = dest as u32;
        }
    }

    fn run_until_balanced<R: Rng64 + ?Sized>(&mut self, rng: &mut R) -> f64 {
        while !self.cfg.is_perfectly_balanced() {
            self.step(rng);
        }
        self.time
    }
}

/// The tentpole cross-check: Fenwick-sampled stopping times against the
/// old Vec-sampled law, via the same KS-style harness.  Exchangeability
/// makes the two samplers identical in distribution; a bias in the Fenwick
/// rank descent (an off-by-one, a prefix-sum error) would shift the CDF
/// far beyond the critical value.
#[test]
fn fenwick_and_vec_sampling_agree_in_distribution() {
    let trials = 60u64;
    for (grid_idx, &(n, m)) in [(8usize, 64u64), (16, 128)].iter().enumerate() {
        let salt = grid_idx as u64 * 20_000;
        let vec_times = stopping_times(trials, |t| {
            let cfg = Config::all_in_one_bin(n, m).unwrap();
            let mut engine = VecEngine::new(cfg, RlsRule::paper());
            engine.run_until_balanced(&mut rng_from_seed(salt + 4000 + t))
        });
        let fenwick_times = stopping_times(trials, |t| {
            let cfg = Config::all_in_one_bin(n, m).unwrap();
            let mut sim = Simulation::new(cfg, RlsPolicy::new(RlsRule::paper())).unwrap();
            sim.run(
                &mut rng_from_seed(salt + 5000 + t),
                StopWhen::perfectly_balanced(),
            )
            .time
        });

        let ks = ks_distance(&vec_times, &fenwick_times);
        assert!(
            ks < 0.35,
            "(n={n}, m={m}): KS distance {ks:.3} exceeds the 0.1% critical value — \
             Fenwick sampling no longer matches the uniform-ball law"
        );
        let v = Summary::from_samples(&vec_times);
        let f = Summary::from_samples(&fenwick_times);
        let rel = (v.mean - f.mean).abs() / v.mean;
        assert!(
            rel < 0.25,
            "(n={n}, m={m}): means diverge by {:.1}% (vec {:.4} vs fenwick {:.4})",
            rel * 100.0,
            v.mean,
            f.mean
        );
    }
}

/// The same statistic distinguishes genuinely different laws: the strict
/// variant from a one-over-one-under start has a different stopping-time
/// scale than the `≥` variant from the worst case — a sanity check that
/// the KS bound is not vacuously loose.
#[test]
fn ks_statistic_detects_a_real_distribution_shift() {
    let trials = 40u64;
    let fast = stopping_times(trials, |t| {
        let cfg = Config::all_in_one_bin(8, 64).unwrap();
        let mut sim = Simulation::new(cfg, RlsPolicy::new(RlsRule::paper())).unwrap();
        sim.run(&mut rng_from_seed(t), StopWhen::perfectly_balanced())
            .time
    });
    // Ten times the balls: a clearly different distribution.
    let slow = stopping_times(trials, |t| {
        let cfg = Config::all_in_one_bin(8, 640).unwrap();
        let mut sim = Simulation::new(cfg, RlsPolicy::new(RlsRule::paper())).unwrap();
        sim.run(&mut rng_from_seed(t), StopWhen::perfectly_balanced())
            .time
    });
    assert!(ks_distance(&fast, &slow) > 0.35);
}
