//! `steady-1m`: the online engine at a size that misses cache.  2^20 bins
//! hold 16 balls each, Poisson arrivals run at the balanced service rate,
//! and every ring is decided by `greedy-2` on the complete graph.  A
//! request is one `LiveEngine::run_until` call advancing the engine by a
//! fixed slice of simulated time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rls_core::{Config, RebalancePolicy};
use rls_graph::Topology;
use rls_live::{LiveCounters, LiveEngine, LiveParams};
use rls_rng::{rng_from_seed, DefaultRng};
use rls_workloads::ArrivalProcess;

use crate::report::{derive, median, quantile, time_setup, EndToEnd, Record};

/// Bins: the Fenwick tree plus the load vector are 16 MiB, more than L2.
const N: usize = 1 << 20;
/// Balls per bin at the start (and the steady-state mean).
const PER_BIN: u64 = 16;
/// Initial population `m₀`.
const M0: u64 = N as u64 * PER_BIN;
/// Simulated time per request: about 18k events.
const SLICE: f64 = 1.0 / 1024.0;
/// Gap objective after a slice: `max load − m/n` at most this many balls.
/// Greedy-2 keeps the maximum within `log₂ ln n + O(1)` of the mean; over
/// 6 500 calibration slices it never exceeded the mean by more than 6, and
/// the half ball keeps the objective off the integer boundary as `m/n`
/// drifts.
const GAP_SLO: f64 = 6.5;
/// Steps per timed batch in the traced pass.
const STEP_BATCH: usize = 1024;
/// Wall time spent before measuring (page faults, caches, TLB).
const WARMUP: Duration = Duration::from_millis(500);

fn policy() -> RebalancePolicy {
    RebalancePolicy::GreedyD { d: 2 }
}

fn build(seed: u64) -> LiveEngine {
    let initial = Config::uniform(N, PER_BIN).expect("n ≥ 1 bins");
    let params = LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 1.0 }, N, M0)
        .expect("positive rates");
    LiveEngine::with_policy(
        initial,
        params,
        policy(),
        Topology::Complete,
        derive(seed, 1),
    )
    .expect("greedy-2 on the complete graph is valid")
}

fn delta(after: LiveCounters, before: LiveCounters) -> LiveCounters {
    LiveCounters {
        arrivals: after.arrivals - before.arrivals,
        departures: after.departures - before.departures,
        rings: after.rings - before.rings,
        migrations: after.migrations - before.migrations,
        joins: after.joins - before.joins,
        drains: after.drains - before.drains,
        events: after.events - before.events,
    }
}

/// The conservation gate: `m₀ + arrivals − departures = m`, and the
/// incremental index and tracker still describe the load vector.
fn check(engine: &LiveEngine, record: &mut Record) {
    let c = engine.counters();
    let m = engine.config().m();
    record.check(M0 + c.arrivals - c.departures == m, || {
        format!(
            "steady-1m: m₀ {M0} + arrivals {} − departures {} ≠ m {m}",
            c.arrivals, c.departures
        )
    });
    record.check(engine.index().matches(engine.config()), || {
        "steady-1m: Fenwick index diverged from the loads".to_string()
    });
    record.check(engine.tracker().matches(engine.config()), || {
        "steady-1m: load tracker diverged from the loads".to_string()
    });
}

/// Slices for `budget`; returns the counters spent and the wall seconds.
fn slices(
    engine: &mut LiveEngine,
    rng: &mut DefaultRng,
    budget: Duration,
    mut each: impl FnMut(&LiveEngine, u64),
) -> (LiveCounters, f64) {
    let before = engine.counters();
    let start = Instant::now();
    while start.elapsed() < budget {
        let t0 = Instant::now();
        let until = engine.time() + SLICE;
        engine.run_until(until, rng, &mut ());
        each(engine, t0.elapsed().as_nanos() as u64);
    }
    (
        delta(engine.counters(), before),
        start.elapsed().as_secs_f64(),
    )
}

/// Build the engine (timing the median of five builds) and warm it up.
fn prepare(seed: u64) -> (f64, LiveEngine, DefaultRng) {
    let setup_s = time_setup(5, || {
        black_box(build(seed));
    });
    let mut engine = build(seed);
    let mut rng = rng_from_seed(derive(seed, 2));
    slices(&mut engine, &mut rng, WARMUP, |_, _| {});
    (setup_s, engine, rng)
}

pub fn run(seed: u64, seconds: f64, record: &mut Record) -> EndToEnd {
    let (setup_s, mut engine, mut rng) = prepare(seed);
    let (mut walls, mut ring_rates, mut event_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut slo_met = 0u64;
    let mut last = engine.counters();
    slices(
        &mut engine,
        &mut rng,
        Duration::from_secs_f64(seconds),
        |engine, ns| {
            let now = engine.counters();
            let spent = delta(now, last);
            last = now;
            let secs = ns as f64 / 1e9;
            walls.push(ns as f64);
            ring_rates.push(spent.rings as f64 / secs);
            event_rates.push(spent.events as f64 / secs);
            let t = engine.tracker();
            if t.max_load() as f64 - t.average() <= GAP_SLO {
                slo_met += 1;
            }
        },
    );
    check(&engine, record);
    let requests = walls.len() as u64;
    EndToEnd {
        setup_s,
        activations_per_s: median(&mut ring_rates),
        events_per_s: median(&mut event_rates),
        requests_per_s: 1e9 / median(&mut walls),
        latency_p50_ns: quantile(&mut walls, 0.50),
        latency_p99_ns: quantile(&mut walls, 0.99),
        latency_samples: requests,
        slo_met,
        attempted: requests,
        failed: 0,
    }
}

/// What the traced pass leaves for the ladder.
pub struct Traced {
    pub overhead_share: f64,
    pub engine: LiveEngine,
}

pub fn trace(seed: u64, seconds: f64, record: &mut Record) -> Traced {
    let (_, mut engine, mut rng) = prepare(seed);
    let (reference, ref_wall) = slices(
        &mut engine,
        &mut rng,
        Duration::from_secs_f64(seconds / 2.0),
        |_, _| {},
    );
    // Traced: the same process one `LiveEngine::step` at a time, timed in
    // batches.
    let before = engine.counters();
    let mut step_ns = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds / 2.0 {
        let t0 = Instant::now();
        for _ in 0..STEP_BATCH {
            black_box(engine.step(&mut rng));
        }
        step_ns.push(t0.elapsed().as_nanos() as f64 / STEP_BATCH as f64);
    }
    let wall = start.elapsed().as_secs_f64();
    let traced = delta(engine.counters(), before);
    check(&engine, record);
    let batches = step_ns.len() as u64;
    record.attempted = batches;
    record.put("live.step_ns", median(&mut step_ns), "ns", batches);
    record.put(
        "live.ring_accept_share",
        traced.migrations as f64 / traced.rings as f64,
        "share",
        traced.rings,
    );
    let reference_rate = reference.events as f64 / ref_wall;
    Traced {
        overhead_share: 1.0 - (traced.events as f64 / wall) / reference_rate,
        engine,
    }
}
