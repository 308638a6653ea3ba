//! End-to-end validation of the headline result (Theorem 1) at test scale:
//! the measured balancing time scales like `ln n + n²/m`, not worse, and
//! tracks the matching lower bounds.

use rls_analysis::bounds::TheoremOneBound;
use rls_analysis::{lower_bound_all_in_one_bin, lower_bound_one_over_one_under};
use rls_core::{Config, RlsRule};
use rls_rng::{StreamFactory, StreamId};
use rls_sim::stats::log_log_fit;
use rls_sim::{RlsPolicy, RunOutcome, Simulation, StopWhen};
use rls_workloads::Workload;

/// Run `trials` independent RLS trials from `initial` to perfect balance.
/// Trial `i` draws from its own stream of `seed`, salted by `salt`.
fn balance_trials(initial: &Config, trials: u64, seed: u64, salt: u64) -> Vec<RunOutcome> {
    let factory = StreamFactory::new(seed);
    (0..trials)
        .map(|i| {
            let mut rng = factory.rng(StreamId::trial(i).with_component(1).with_salt(salt));
            let mut sim =
                Simulation::new(initial.clone(), RlsPolicy::new(RlsRule::paper())).unwrap();
            sim.run(&mut rng, StopWhen::perfectly_balanced())
        })
        .collect()
}

fn mean_balancing_time(n: usize, m: u64, trials: u64, seed: u64, workload: Workload) -> f64 {
    let initial = workload
        .generate(n, m, &mut rls_rng::rng_from_seed(seed))
        .unwrap();
    let outcomes = balance_trials(&initial, trials, seed, n as u64 ^ m);
    outcomes.iter().map(|o| o.time).sum::<f64>() / trials as f64
}

/// Dense regime (`m = 16n`): the time should grow roughly logarithmically in
/// `n` — far slower than linearly.
#[test]
fn dense_regime_grows_logarithmically() {
    let ns = [16usize, 32, 64, 128];
    let times: Vec<f64> = ns
        .iter()
        .map(|&n| mean_balancing_time(n, 16 * n as u64, 16, 42, Workload::AllInOneBin))
        .collect();
    // Times must grow, but much slower than n: quadrupling n from 32 to 128
    // should clearly less than quadruple the time.  (Empirically the ratio
    // sits near 3.0 for this family — the `ln n + n/16` shape predicts 2.35
    // plus end-game constants — so the bound leaves Monte-Carlo margin
    // while still excluding linear growth's ratio of 4.)
    assert!(
        times[3] > times[0] * 0.5,
        "time should not collapse: {times:?}"
    );
    assert!(
        times[3] < times[1] * 3.6,
        "time grew too fast for a logarithmic law: {times:?}"
    );
    // And the measured/predicted ratio stays in a narrow band.
    for (&n, &t) in ns.iter().zip(times.iter()) {
        let shape = TheoremOneBound::new(n, 16 * n as u64).expected_shape();
        let ratio = t / shape;
        assert!(
            (0.05..5.0).contains(&ratio),
            "n={n}: ratio {ratio} outside the expected band"
        );
    }
}

/// Sparse regime (`m = n`): the `n²/m = n` term dominates, so the time grows
/// roughly linearly in `n` (log–log slope ≈ 1 against n, not 2).
#[test]
fn sparse_regime_grows_linearly() {
    let ns = [16usize, 32, 64, 128];
    let times: Vec<f64> = ns
        .iter()
        .map(|&n| mean_balancing_time(n, n as u64, 8, 43, Workload::AllInOneBin))
        .collect();
    let xs: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
    let fit = log_log_fit(&xs, &times);
    assert!(
        (0.5..1.6).contains(&fit.slope),
        "log-log slope {} should be ≈ 1 (n²/m = n regime): times {times:?}",
        fit.slope
    );
}

/// The lower-bound instances are respected: measured times are never
/// meaningfully below the analytic lower bounds.
#[test]
fn lower_bounds_hold() {
    let n = 32;
    let m = 8 * n as u64;
    let t_one_bin = mean_balancing_time(n, m, 10, 44, Workload::AllInOneBin);
    assert!(t_one_bin >= 0.8 * lower_bound_all_in_one_bin(n, m));

    let t_pair = mean_balancing_time(n, m, 20, 45, Workload::OneOverOneUnder);
    let bound = lower_bound_one_over_one_under(n, m);
    // The expected time equals the bound exactly for this instance; allow
    // generous Monte-Carlo slack on both sides.
    assert!(
        (0.4 * bound..2.5 * bound).contains(&t_pair),
        "one-over/one-under time {t_pair} should be ≈ {bound}"
    );
}

/// The w.h.p. form: over many trials from the worst-case start, the maximum
/// observed time stays within a logarithmic factor of the mean (no heavy
/// tail beyond what Theorem 1 allows).
#[test]
fn no_heavy_tail_beyond_the_whp_bound() {
    let n = 32;
    let m = 32 * 8;
    let initial = Workload::AllInOneBin
        .generate(n, m, &mut rls_rng::rng_from_seed(46))
        .unwrap();
    let outcomes = balance_trials(&initial, 40, 46, 0);
    let max_time = outcomes.iter().map(|o| o.time).fold(f64::MIN, f64::max);
    let whp = TheoremOneBound::new(n, m).whp_shape();
    assert!(
        max_time <= 3.0 * whp,
        "max time {max_time} exceeds 3x the w.h.p. shape {whp}"
    );
    assert!(outcomes.iter().all(|o| o.reached_goal));
}
