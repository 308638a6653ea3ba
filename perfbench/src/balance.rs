//! `balance`: the paper's process.  RLS with the paper's rule runs from
//! all `m = n²` balls in one bin to perfect balance, once per trial, over
//! a fixed trial seed list.  A request is one trial; its latency is the
//! trial's wall time.
//!
//! The list is the same in every run, whatever `--seed` says: balancing
//! times are heavy-tailed (7.3 to 12.2 time units over the calibration
//! trials), so with a dozen trials per run the latency quantiles would
//! otherwise move with the inputs more than with the code.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rls_core::{Config, RlsRule};
use rls_rng::rng_from_seed;
use rls_sim::{RlsPolicy, Simulation, StopWhen};

use crate::report::{derive, median, quantile, time_setup, EndToEnd, Record};

/// Bins: a 1024-leaf Fenwick tree (8 KiB) stays in L1.
const N: usize = 1024;
/// Balls: `m = n²`, where both terms of `O(ln n + n²/m)` matter.
pub const M: u64 = 1 << 20;
/// Steps per timed batch in the traced pass.
const STEP_BATCH: usize = 1024;
/// Simulated-time objective of a trial, in units of the paper's time
/// scale `ln n + n²/m` (= 7.93 here; the slowest of 103 calibration
/// trials took 12.2).
const SLO_SCALE: f64 = 2.0;
/// Seed of the fixed trial list: trial `i` runs on `derive(TRIALS, i)`.
const TRIALS: u64 = 0x0BA1_A4CE;
/// Simulated-time cap of a trial (far beyond any seed seen).
const MAX_TIME: f64 = 100.0;
/// Mean and standard deviation of one trial's simulated balancing time,
/// measured over 103 trial seeds.  The mean of `k` trials must lie
/// within `BAND_SIGMAS` standard errors of `TIME_MEAN`.
const TIME_MEAN: f64 = 8.42;
const TIME_SD: f64 = 0.92;
const BAND_SIGMAS: f64 = 6.0;

/// The paper's time scale `ln n + n²/m`.
fn paper_scale() -> f64 {
    (N as f64).ln() + (N * N) as f64 / M as f64
}

pub fn new_sim() -> Simulation<RlsPolicy> {
    let initial = Config::all_in_one_bin(N, M).expect("n ≥ 1 bins");
    Simulation::new(initial, RlsPolicy::new(RlsRule::paper())).expect("m ≥ 1 balls")
}

struct Trial {
    wall_ns: u64,
    activations: u64,
    migrations: u64,
    time: f64,
    balanced: bool,
}

/// A pass of back-to-back trials until `budget` of wall time is spent.
struct Pass {
    trials: Vec<Trial>,
    /// Median ns per `Simulation::step` over timed batches (traced only).
    step_ns: Vec<f64>,
    /// The load vector the last trial ended in.
    final_loads: Vec<u64>,
}

impl Pass {
    fn activations_per_s(&self) -> f64 {
        let wall_ns: u64 = self.trials.iter().map(|t| t.wall_ns).sum();
        self.trials.iter().map(|t| t.activations).sum::<u64>() as f64 * 1e9 / wall_ns as f64
    }
}

/// Run trials for `budget`.  Untraced trials call `Simulation::run`;
/// traced trials call `Simulation::step` in timed batches.
fn pass(budget: Duration, traced: bool, record: &mut Record) -> Pass {
    let start = Instant::now();
    let mut out = Pass {
        trials: Vec::new(),
        step_ns: Vec::new(),
        final_loads: Vec::new(),
    };
    while out.trials.is_empty() || start.elapsed() < budget {
        let mut rng = rng_from_seed(derive(TRIALS, out.trials.len() as u64));
        let mut sim = new_sim();
        let t0 = Instant::now();
        let balanced = if traced {
            let mut balanced = false;
            while !balanced && sim.time() < MAX_TIME {
                let b0 = Instant::now();
                let mut steps = 0;
                while steps < STEP_BATCH {
                    sim.step(&mut rng);
                    steps += 1;
                    if sim.tracker().is_perfectly_balanced() {
                        balanced = true;
                        break;
                    }
                }
                if steps == STEP_BATCH {
                    out.step_ns
                        .push(b0.elapsed().as_nanos() as f64 / STEP_BATCH as f64);
                }
            }
            balanced
        } else {
            let stop = StopWhen::perfectly_balanced().with_max_time(MAX_TIME);
            sim.run(&mut rng, stop).reached_goal
        };
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let trial = out.trials.len();
        record.check(sim.index().matches(sim.config()), || {
            format!("balance trial {trial}: Fenwick index diverged from the loads")
        });
        record.check(balanced && sim.config().is_perfectly_balanced(), || {
            format!("balance trial {trial}: not perfectly balanced by t = {MAX_TIME}")
        });
        out.trials.push(Trial {
            wall_ns,
            activations: sim.activations(),
            migrations: sim.migrations(),
            time: sim.time(),
            balanced,
        });
        out.final_loads = sim.config().loads().to_vec();
    }
    let k = out.trials.len() as f64;
    let mean = out.trials.iter().map(|t| t.time).sum::<f64>() / k;
    let half_width = BAND_SIGMAS * TIME_SD / k.sqrt();
    record.check((mean - TIME_MEAN).abs() <= half_width, || {
        format!(
            "balance: mean balancing time {mean:.3} over {k} trials outside {TIME_MEAN} ± {half_width:.3}"
        )
    });
    out
}

pub fn run(seconds: f64, record: &mut Record) -> EndToEnd {
    let setup_s = time_setup(1001, || {
        black_box(new_sim());
    });
    let pass = pass(Duration::from_secs_f64(seconds), false, record);
    let slo_time = SLO_SCALE * paper_scale();
    // Each trial is one window: it runs the whole phase mix, from every
    // activation migrating to almost none.
    let mut rates: Vec<f64> = pass
        .trials
        .iter()
        .map(|t| t.activations as f64 * 1e9 / t.wall_ns as f64)
        .collect();
    let mut walls: Vec<f64> = pass.trials.iter().map(|t| t.wall_ns as f64).collect();
    let activations_per_s = median(&mut rates);
    EndToEnd {
        setup_s,
        activations_per_s,
        // Every event of the closed process is an activation.
        events_per_s: activations_per_s,
        requests_per_s: 1e9 / median(&mut walls),
        latency_p50_ns: quantile(&mut walls, 0.50),
        latency_p99_ns: quantile(&mut walls, 0.99),
        latency_samples: walls.len() as u64,
        slo_met: pass
            .trials
            .iter()
            .filter(|t| t.balanced && t.time <= slo_time)
            .count() as u64,
        attempted: pass.trials.len() as u64,
        failed: pass.trials.iter().filter(|t| !t.balanced).count() as u64,
    }
}

/// What the traced pass leaves for the ladder.
pub struct Traced {
    pub overhead_share: f64,
    pub loads: Vec<u64>,
}

pub fn trace(seconds: f64, record: &mut Record) -> Traced {
    let reference = pass(Duration::from_secs_f64(seconds / 2.0), false, record);
    let mut traced = pass(Duration::from_secs_f64(seconds / 2.0), true, record);
    let steps: u64 = traced.trials.iter().map(|t| t.activations).sum();
    let moves: u64 = traced.trials.iter().map(|t| t.migrations).sum();
    let batches = traced.step_ns.len() as u64;
    record.attempted = traced.trials.len() as u64;
    record.failed = traced.trials.iter().filter(|t| !t.balanced).count() as u64;
    record.put("sim.step_ns", median(&mut traced.step_ns), "ns", batches);
    record.put(
        "sim.migration_share",
        moves as f64 / steps as f64,
        "share",
        steps,
    );
    Traced {
        overhead_share: 1.0 - traced.activations_per_s() / reference.activations_per_s(),
        loads: traced.final_loads,
    }
}
