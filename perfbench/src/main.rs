//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload balance|steady-1m|serve-closed|serve-open \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! One run measures one workload for `--seconds` seconds with inputs made
//! from `--seed`, checks that the outputs are correct, and prints a
//! hardware/build stamp, a human-readable table, and as its last line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.  With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ladder.  A failed check prints `"correct": false`
//! with no metrics and exits 1.  See `perfbench/README.md`.

mod balance;
mod ladder;
mod report;
mod serving;
mod steady;

use std::process::ExitCode;

use rls_core::{RebalancePolicy, RlsRule};

use crate::ladder::Subject;
use crate::report::{derive, Record};
use crate::serving::Mode;

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "peak_rss_mb",
    "activations_per_s",
    "events_per_s",
    "requests_per_s",
    "latency_p50_us",
    "slo_share",
];

/// Per-layer metrics, reported by every traced run.
const PER_LAYER: [&str; 38] = [
    "rng.next_below_ns",
    "rng.exp_sample_ns",
    "index.bin_at_ns",
    "index.descent_depth",
    "index.record_move_ns",
    "tracker.record_move_ns",
    "policy.decide_ns",
    "policy.probes_per_ring",
    "sim.step_ns",
    "sim.migration_share",
    "live.step_ns",
    "live.ring_accept_share",
    "live.apply_batch_ns_per_ring",
    "arrivals.place_ns",
    "http.parse_frame_ns",
    "http.append_response_ns",
    "serve_core.arrive_ns",
    "serve_core.depart_ns",
    "reply.to_json_ns",
    "obs.histogram_record_ns",
    "obs.counter_inc_ns",
    "stage.parse_p50_ns",
    "stage.parse_p99_ns",
    "stage.queue_p50_ns",
    "stage.queue_p99_ns",
    "stage.apply_p50_ns",
    "stage.apply_p99_ns",
    "stage.write_p50_ns",
    "stage.write_p99_ns",
    "scrape.probes_per_ring",
    "scrape.move_accept_share",
    "scrape.descent_depth_mean",
    "serve.unattributed_share",
    "loadgen.send_skew_p50_us",
    "loadgen.send_skew_p99_us",
    "loadgen.rtt_p50_us",
    "loadgen.rtt_p99_us",
    "trace.overhead_share",
];

/// Length of the short serving sessions that fill the serving rungs on
/// workloads that do not serve.
const FIXTURE_SECONDS: f64 = 1.0;

const USAGE: &str = "usage: perfbench --workload balance|steady-1m|serve-closed|serve-open \
                     --seed N --seconds S --trace 0|1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Balance,
    Steady,
    Serve(Mode),
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "balance" => Ok(Self::Balance),
            "steady-1m" => Ok(Self::Steady),
            "serve-closed" => Ok(Self::Serve(Mode::Closed)),
            "serve-open" => Ok(Self::Serve(Mode::Open)),
            other => Err(format!("unknown workload `{other}`")),
        }
    }
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut name,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            other => return Err(format!("unknown flag `{other}`")),
        };
        *slot = Some(value.clone());
    }
    let name = name.ok_or("missing --workload")?;
    let number = |v: Option<String>, flag: &str| -> Result<u64, String> {
        v.ok_or(format!("missing {flag}"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number(seconds, "--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: Workload::parse(&name)?,
        name,
        seed: number(seed, "--seed")?,
        seconds,
        trace: match trace.as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
    })
}

fn untraced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    record: &mut Record,
) -> Result<(), String> {
    let e2e = match workload {
        Workload::Balance => balance::run(seconds, record),
        Workload::Steady => steady::run(seed, seconds, record),
        Workload::Serve(mode) => serving::run(mode, seed, seconds, record)?,
    };
    record.put_end_to_end(&e2e);
    Ok(())
}

/// Serving rungs for workloads that do not serve: a short closed-loop
/// session for the stages and the request budget, a short open-loop one
/// for the generator's clock.
fn serving_fixture(seed: u64, record: &mut Record) -> Result<(), String> {
    let closed = serving::session(Mode::Closed, seed, FIXTURE_SECONDS, record)?;
    let budget = ladder::serve_rungs(&closed.core, serving::PIPELINE, record);
    ladder::session_rungs(&closed, &budget, closed.requests_per_s(), record);
    let mut open = serving::session(Mode::Open, seed, FIXTURE_SECONDS, record)?;
    ladder::loadgen_rungs(&mut open, record);
    for s in [&closed, &open] {
        let failed = s.phase.non_200 + s.phase.errors;
        record.check(failed == 0, || {
            format!("serving fixture: {failed} failed requests")
        });
    }
    Ok(())
}

fn traced(workload: Workload, seed: u64, seconds: f64, record: &mut Record) -> Result<(), String> {
    let overhead_share = match workload {
        Workload::Balance => {
            let t = balance::trace(seconds, record);
            let subject = Subject {
                loads: &t.loads,
                policy: RebalancePolicy::Rls {
                    variant: RlsRule::paper().variant(),
                },
                engine: None,
                exp_rate: balance::M as f64,
            };
            ladder::core_rungs(&subject, derive(seed, 20), record);
            let mut engine = serving::core(seed).engine().clone();
            ladder::engine_rungs(&mut engine, derive(seed, 21), true, record);
            serving_fixture(seed, record)?;
            t.overhead_share
        }
        Workload::Steady => {
            let mut t = steady::trace(seed, seconds, record);
            let subject = Subject {
                loads: t.engine.config().loads(),
                policy: t.engine.policy(),
                engine: Some(&t.engine),
                exp_rate: t.engine.total_rate(),
            };
            ladder::core_rungs(&subject, derive(seed, 20), record);
            ladder::engine_rungs(&mut t.engine, derive(seed, 21), false, record);
            ladder::sim_rungs(derive(seed, 22), record);
            serving_fixture(seed, record)?;
            t.overhead_share
        }
        Workload::Serve(mode) => {
            let reference = serving::session(mode, seed, seconds / 2.0, record)?;
            let mut traced = serving::session(mode, seed, seconds / 2.0, record)?;
            record.attempted = traced.phase.attempted;
            record.failed = traced.phase.non_200 + traced.phase.errors;
            let engine = traced.core.engine();
            let subject = Subject {
                loads: engine.config().loads(),
                policy: engine.policy(),
                engine: Some(engine),
                exp_rate: engine.total_rate(),
            };
            ladder::core_rungs(&subject, derive(seed, 20), record);
            ladder::engine_rungs(&mut engine.clone(), derive(seed, 21), true, record);
            ladder::sim_rungs(derive(seed, 22), record);
            let burst = if mode == Mode::Closed {
                serving::PIPELINE
            } else {
                1
            };
            let budget = ladder::serve_rungs(&traced.core, burst, record);
            ladder::session_rungs(&traced, &budget, reference.requests_per_s(), record);
            if mode == Mode::Open {
                ladder::loadgen_rungs(&mut traced, record);
            } else {
                let mut open = serving::session(Mode::Open, seed, FIXTURE_SECONDS, record)?;
                ladder::loadgen_rungs(&mut open, record);
            }
            1.0 - traced.requests_per_s() / reference.requests_per_s()
        }
    };
    record.put("trace.overhead_share", overhead_share, "share", 1);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench-record {}",
        report::stamp(&args.name, args.seed, args.seconds, args.trace)
    );
    let mut record = Record::default();
    let seconds = args.seconds as f64;
    let ran = if args.trace {
        traced(args.workload, args.seed, seconds, &mut record)
    } else {
        untraced(args.workload, args.seed, seconds, &mut record)
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {}: {e}", args.name);
        return ExitCode::FAILURE;
    }

    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in expected {
        let value = record.metrics.get(name).map(|m| m.value);
        record.check(value.is_some_and(f64::is_finite), || {
            format!("metric {name} is missing or not finite")
        });
    }
    for (name, m) in &record.metrics {
        println!(
            "{name:<30} {:>16.4} {:<6} (n = {})",
            m.value, m.unit, m.samples
        );
    }
    for (name, m) in &record.ungated {
        println!(
            "{name:<30} {:>16.4} {:<6} (n = {}, not gated)",
            m.value, m.unit, m.samples
        );
    }
    println!("{}", record.result_json());
    if record.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        for v in &record.violations {
            eprintln!("perfbench: check failed: {v}");
        }
        ExitCode::FAILURE
    }
}
