//! The `live` subcommand: drive the online dynamic engine (`rls-live`).
//!
//! ```text
//! rls-experiments live run    [--n N] [--m M] [--workload W] [--arrival A]
//!                             [--service MU] [--policy P] [--topology T]
//!                             [--time T] [--warmup T] [--seed S]
//!                             [--shards S] [--slice D] [--threads T]
//!                             [--record FILE] [--snapshot FILE] [--resume FILE]
//! rls-experiments live replay <log.json>
//! rls-experiments live status <snapshot-or-log.json>
//! ```
//!
//! `run` simulates an online instance at target load `ρ = m/n` (the
//! per-ball departure rate defaults to `μ = λ/m`, the M/M/∞ rate holding
//! the population at `m`; `--service` overrides it) and prints the
//! steady-state summary.  `--shards S` with `S ≥ 1` switches to the
//! deterministic sharded engine.  `--record` writes an event log that
//! `replay` re-executes bit-identically; `--snapshot`/`--resume`
//! checkpoint and continue a sequential run, with snapshots
//! content-addressed through `rls-campaign::hash`.

use rls_campaign::hash::sha256_hex;
use rls_core::{RebalancePolicy, RlsRule};
use rls_live::{
    replay as replay_log, EventLog, LogFooter, LogHeader, Recorder, Snapshot, SteadyState,
    SteadySummary,
};
use rls_rng::rng_from_seed;

use crate::instance::{str_of, Flags, InstanceArgs};

/// A parsed `live ...` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum LiveCommand {
    /// Simulate an online instance and print the steady-state summary.
    Run(Box<RunArgs>),
    /// Re-execute a recorded event log and verify it.
    Replay {
        /// Path to the log file.
        log: String,
    },
    /// Describe a snapshot or event-log file.
    Status {
        /// Path to the file.
        path: String,
    },
}

/// Arguments of `live run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// The instance flags `live run` shares with `serve run`.
    pub instance: InstanceArgs,
    /// Simulated-time horizon.
    pub time: f64,
    /// Warm-up discarded before measurement (defaults to `time/5`).
    pub warmup: Option<f64>,
    /// Shard count (`0` = sequential engine).
    pub shards: usize,
    /// Synchronization slice of the sharded engine.
    pub slice: f64,
    /// Worker threads for the sharded engine (`0` = default pool).
    pub threads: usize,
    /// Write an event log here.
    pub record: Option<String>,
    /// Write a snapshot here at the end of the run.
    pub snapshot: Option<String>,
    /// Resume from this snapshot instead of starting fresh.
    pub resume: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            instance: InstanceArgs::default(),
            time: 60.0,
            warmup: None,
            shards: 0,
            slice: 0.25,
            threads: 0,
            record: None,
            snapshot: None,
            resume: None,
        }
    }
}

/// Parse the arguments following the `live` keyword.
pub fn parse_live_args(raw: &[String]) -> Result<LiveCommand, String> {
    let verb = raw
        .first()
        .map(String::as_str)
        .ok_or("live needs a subcommand: run | replay | status")?;
    match verb {
        "replay" => {
            let log = expect_single_path(&raw[1..], "replay")?;
            Ok(LiveCommand::Replay { log })
        }
        "status" => {
            let path = expect_single_path(&raw[1..], "status")?;
            Ok(LiveCommand::Status { path })
        }
        "run" => parse_run_args(&raw[1..]).map(|args| LiveCommand::Run(Box::new(args))),
        other => Err(format!(
            "unknown live subcommand `{other}` (run | replay | status)"
        )),
    }
}

fn expect_single_path(raw: &[String], verb: &str) -> Result<String, String> {
    match raw {
        [path] if !path.starts_with("--") => Ok(path.clone()),
        [] => Err(format!("live {verb} needs a file path")),
        _ => Err(format!("live {verb} takes exactly one file path")),
    }
}

fn parse_run_args(raw: &[String]) -> Result<RunArgs, String> {
    let mut args = RunArgs::default();
    let mut instance_flag = None;
    let mut flags = Flags::new(raw);
    while let Some(flag) = flags.next() {
        if args.instance.parse_flag(flag, &mut flags)? {
            instance_flag = Some(flag);
            continue;
        }
        match flag {
            "--time" => args.time = flags.value(flag)?,
            "--warmup" => args.warmup = Some(flags.value(flag)?),
            "--shards" => args.shards = flags.value(flag)?,
            "--slice" => args.slice = flags.value(flag)?,
            "--threads" => args.threads = flags.value(flag)?,
            "--record" => args.record = Some(flags.value(flag)?),
            "--snapshot" => args.snapshot = Some(flags.value(flag)?),
            "--resume" => args.resume = Some(flags.value(flag)?),
            other => return Err(format!("unknown live run flag `{other}`")),
        }
    }
    if !(args.time.is_finite() && args.time > 0.0) {
        return Err("--time must be positive".to_string());
    }
    if let Some(warmup) = args.warmup {
        if !(warmup.is_finite() && warmup >= 0.0) {
            return Err("--warmup must be finite and non-negative".to_string());
        }
    }
    if !(args.slice.is_finite() && args.slice > 0.0) {
        return Err("--slice must be positive".to_string());
    }
    if args.shards > 0
        && (args.record.is_some() || args.snapshot.is_some() || args.resume.is_some())
    {
        return Err(
            "--record/--snapshot/--resume are sequential-engine features; drop --shards".into(),
        );
    }
    if let (Some(_), Some(flag)) = (&args.resume, instance_flag) {
        return Err(format!(
            "--resume restores the snapshot's instance and seed; drop {flag}"
        ));
    }
    Ok(args)
}

/// Execute a parsed live command, returning the text to print.
pub fn execute_live(command: &LiveCommand) -> Result<String, String> {
    match command {
        LiveCommand::Run(args) if args.shards > 0 => run_sharded(args),
        LiveCommand::Run(args) => run_sequential(args),
        LiveCommand::Replay { log } => replay_cmd(log),
        LiveCommand::Status { path } => status_cmd(path),
    }
}

fn warmup_of(args: &RunArgs) -> f64 {
    args.warmup.unwrap_or(args.time / 5.0)
}

fn run_sequential(args: &RunArgs) -> Result<String, String> {
    let warmup = warmup_of(args);

    let instance = &args.instance;
    // Parsing refused instance flags beside --resume: the snapshot is the
    // whole instance.
    let (mut engine, mut rng, resumed_from) = match &args.resume {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let snapshot = Snapshot::from_json(&text).map_err(|e| format!("`{path}`: {e}"))?;
            let (engine, rng) = snapshot.restore().map_err(str_of)?;
            let key = snapshot_key(&snapshot);
            (engine, rng, Some((key, snapshot.time)))
        }
        None => (
            instance
                .spec
                .live_engine(
                    instance.initial()?,
                    instance.graph_seed(),
                    &mut instance.weight_rng(),
                )
                .map_err(str_of)?,
            rng_from_seed(instance.seed),
            None,
        ),
    };
    // A resumed run's seed is the snapshot's RNG state, not `--seed`.
    let seed = resumed_from.is_none().then_some(instance.seed);
    // From here on the engine is the single source of truth for the
    // instance shape and dynamics (on --resume they come from the
    // snapshot, not the CLI flags).
    let params = engine.params();
    let n = engine.config().n();
    let initial_loads = engine.config().loads().to_vec();
    let start_time = engine.time();
    if args.time <= start_time {
        return Err(format!(
            "--time {} does not extend past the resumed snapshot's time {start_time}",
            args.time
        ));
    }

    // Recording clones every event; only pay for it when asked to.
    let recorder = args.record.as_ref().map(|_| Recorder::new());
    let mut observer = (recorder, SteadyState::new(start_time + warmup));
    engine.run_until(args.time, &mut rng, &mut observer);
    let (recorder, steady) = observer;
    let summary = steady.finish(engine.time());

    let mut out = String::new();
    if let Some((key, at)) = resumed_from {
        out.push_str(&format!("resumed from snapshot {key} (t = {at:.3})\n"));
    }
    render_summary(
        &mut out,
        &format!(
            "live run (sequential engine, policy {}, topology {})",
            engine.policy(),
            engine.topology()
        ),
        n,
        initial_loads.iter().sum::<u64>() as f64 / n as f64,
        &params.arrivals.to_string(),
        seed,
        engine.time(),
        &summary,
        engine.counters().events,
    );

    if let Some(path) = &args.record {
        let recorder = recorder.expect("recorder attached when --record is set");
        let log = EventLog {
            header: LogHeader {
                n,
                initial_loads,
                // The legacy rule field doubles as the RLS fallback for
                // old readers; the policy/topology fields are
                // authoritative.
                rule: match engine.policy() {
                    RebalancePolicy::Rls { variant } => RlsRule::new(variant),
                    _ => RlsRule::paper(),
                },
                policy: Some(engine.policy()),
                topology: Some(engine.topology()),
                graph_seed: Some(engine.graph_seed()),
                warmup: start_time + warmup,
                description: format!(
                    "{}arrival {}, service {:.6}, policy {}, topology {}{}",
                    seed.map_or(String::new(), |seed| format!("seed {seed}, ")),
                    params.arrivals,
                    params.service_rate,
                    engine.policy(),
                    engine.topology(),
                    match &args.resume {
                        Some(snap) => format!(", resumed from {snap}"),
                        None => format!(", workload {}", instance.spec.workload),
                    }
                ),
            },
            events: recorder.into_events(),
            footer: LogFooter {
                time: engine.time(),
                final_loads: engine.config().loads().to_vec(),
                summary,
            },
        };
        std::fs::write(path, log.to_json()).map_err(|e| format!("write `{path}`: {e}"))?;
        out.push_str(&format!("recorded {} events to {path}\n", log.events.len()));
    }
    if let Some(path) = &args.snapshot {
        let snapshot = Snapshot::capture(&engine, &rng);
        let key = snapshot_key(&snapshot);
        std::fs::write(
            path,
            serde_json::to_string_pretty(&snapshot).expect("encode"),
        )
        .map_err(|e| format!("write `{path}`: {e}"))?;
        out.push_str(&format!("snapshot {key} written to {path}\n"));
    }
    Ok(out)
}

fn run_sharded(args: &RunArgs) -> Result<String, String> {
    let (instance, spec) = (&args.instance, &args.instance.spec);
    let mut engine = spec
        .sharded_engine(
            instance.initial()?,
            instance.graph_seed(),
            args.shards,
            args.slice,
            instance.seed,
        )
        .map_err(str_of)?;
    let outcome = engine.run(args.time, warmup_of(args), args.threads);
    let mut out = String::new();
    render_summary(
        &mut out,
        &format!(
            "live run (sharded engine, {} shards, slice {}, policy {}, topology {})",
            args.shards, args.slice, spec.policy, spec.topology
        ),
        spec.n,
        spec.m as f64 / spec.n as f64,
        &spec.arrival.to_string(),
        Some(instance.seed),
        outcome.time,
        &outcome.summary,
        outcome.counters.events,
    );
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn render_summary(
    out: &mut String,
    title: &str,
    n: usize,
    rho: f64,
    arrival: &str,
    seed: Option<u64>,
    time: f64,
    summary: &SteadySummary,
    events: u64,
) {
    let seed = seed.map_or(String::new(), |seed| format!(", seed {seed}"));
    let mut table = crate::table::Table::new(
        format!("{title}: n = {n}, ρ = {rho:.2}, arrival {arrival}{seed}"),
        &["quantity", "value"],
    );
    let fmt = crate::table::fmt_f64;
    table.push_row(vec!["simulated time".into(), fmt(time)]);
    table.push_row(vec!["events".into(), events.to_string()]);
    table.push_row(vec!["measurement window".into(), fmt(summary.window)]);
    table.push_row(vec!["mean gap".into(), fmt(summary.mean_gap)]);
    table.push_row(vec!["p50 overload".into(), fmt(summary.p50_overload)]);
    table.push_row(vec!["p99 overload".into(), fmt(summary.p99_overload)]);
    table.push_row(vec![
        "max overload".into(),
        summary.max_overload.to_string(),
    ]);
    table.push_row(vec![
        "moves / arrival".into(),
        fmt(summary.moves_per_arrival),
    ]);
    table.push_row(vec![
        "arrivals / departures".into(),
        format!("{} / {}", summary.arrivals, summary.departures),
    ]);
    out.push_str(&table.render());
}

fn replay_cmd(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let log = EventLog::from_json(&text).map_err(str_of)?;
    let report = replay_log(&log).map_err(str_of)?;
    let mut out = format!(
        "replayed {} events over {} bins (final m = {})\n",
        report.events,
        log.header.n,
        report.final_loads.iter().sum::<u64>()
    );
    out.push_str(&format!(
        "final loads: {}\nobserver summary: {}\n",
        if report.loads_match {
            "bit-identical ✓"
        } else {
            "MISMATCH ✗"
        },
        if report.summary_matches {
            "bit-identical ✓"
        } else {
            "MISMATCH ✗"
        },
    ));
    if report.is_faithful() {
        out.push_str(&format!(
            "mean gap {:.6}, p99 overload {:.2}, moves/arrival {:.4}\n",
            report.summary.mean_gap, report.summary.p99_overload, report.summary.moves_per_arrival
        ));
        Ok(out)
    } else {
        Err(format!("{out}replay diverged from the recorded run"))
    }
}

fn status_cmd(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    // A snapshot of any version is recognizable by its RNG state; route it
    // through the versioned parser so a legacy v1 file gets the clear
    // rejection message instead of "neither a snapshot nor a log".
    let value = serde_json::parse_value(&text).ok();
    let snapshot_shaped = value
        .as_ref()
        .and_then(|v| v.as_object().map(|o| o.get("rng_state").is_some()))
        .unwrap_or(false);
    if snapshot_shaped {
        let value = value.expect("snapshot-shaped implies parsed");
        let snapshot = Snapshot::from_value(&value).map_err(|e| format!("`{path}`: {e}"))?;
        let m: u64 = snapshot.loads.iter().sum();
        return Ok(format!(
            "snapshot {} (format v{})\n  n = {}, m = {}, t = {:.3}, events = {}\n  policy {}, topology {}\n  arrivals {} / departures {} / rings {} / migrations {}\n",
            snapshot_key(&snapshot),
            snapshot.version,
            snapshot.loads.len(),
            m,
            snapshot.time,
            snapshot.counters.events,
            snapshot.policy,
            snapshot.topology,
            snapshot.counters.arrivals,
            snapshot.counters.departures,
            snapshot.counters.rings,
            snapshot.counters.migrations,
        ));
    }
    if let Ok(log) = EventLog::from_json(&text) {
        return Ok(format!(
            "event log ({}): {} events over {} bins, t = {:.3}\n  {}\n  recorded mean gap {:.6}\n",
            sha256_hex(text.as_bytes()),
            log.events.len(),
            log.header.n,
            log.footer.time,
            log.header.description,
            log.footer.summary.mean_gap,
        ));
    }
    Err(format!(
        "`{path}` is neither a live snapshot nor an event log"
    ))
}

/// Content address of a snapshot: SHA-256 of its canonical JSON (the same
/// addressing scheme as the campaign store).
fn snapshot_key(snapshot: &Snapshot) -> String {
    sha256_hex(serde_json::to_canonical_string(snapshot).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn small(n: usize, m: u64) -> InstanceArgs {
        InstanceArgs {
            spec: rls_live::Instance {
                n,
                m,
                ..Default::default()
            },
            ..InstanceArgs::default()
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rls-live-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parsing_covers_verbs_and_flags() {
        let cmd = parse_live_args(&strings(&[
            "run",
            "--n",
            "16",
            "--m",
            "128",
            "--arrival",
            "bursts:2:8",
            "--time",
            "10",
            "--seed",
            "5",
            "--shards",
            "4",
            "--slice",
            "0.5",
            "--threads",
            "2",
        ]))
        .unwrap();
        let LiveCommand::Run(args) = cmd else {
            panic!("expected run");
        };
        assert_eq!(args.instance.spec.n, 16);
        assert_eq!(args.instance.spec.m, 128);
        assert_eq!(args.shards, 4);
        assert_eq!(args.instance.spec.arrival.to_string(), "bursts:2:8");

        assert_eq!(
            parse_live_args(&strings(&["replay", "log.json"])).unwrap(),
            LiveCommand::Replay {
                log: "log.json".into()
            }
        );
        assert_eq!(
            parse_live_args(&strings(&["status", "snap.json"])).unwrap(),
            LiveCommand::Status {
                path: "snap.json".into()
            }
        );

        for bad in [
            &[][..],
            &["frobnicate"],
            &["replay"],
            &["status", "a", "b"],
            &["run", "--n"],
            &["run", "--n", "zero"],
            &["run", "--time", "-4"],
            &["run", "--arrival", "meteor:1"],
            &["run", "--wat"],
            &["run", "--shards", "2", "--record", "x.json"],
        ] {
            assert!(parse_live_args(&strings(bad)).is_err(), "{bad:?}");
        }

        // A resumed run takes its whole instance, seed included, from the
        // snapshot: any instance flag beside --resume is named and refused.
        for flag in [
            "--n",
            "--m",
            "--workload",
            "--arrival",
            "--service",
            "--policy",
            "--topology",
            "--seed",
        ] {
            let value = match flag {
                "--workload" => "all-in-one-bin",
                "--arrival" => "bursts:2:8",
                "--policy" => "greedy-2",
                "--topology" => "torus",
                _ => "3",
            };
            let err =
                parse_live_args(&strings(&["run", flag, value, "--resume", "s.json"])).unwrap_err();
            assert!(err.ends_with(&format!("drop {flag}")), "{err}");
        }
        assert!(parse_live_args(&strings(&["run", "--resume", "s.json", "--time", "9"])).is_ok());
    }

    #[test]
    fn run_record_replay_status_end_to_end() {
        let dir = temp_dir("e2e");
        let log = dir.join("run.json").to_string_lossy().to_string();
        let mut args = RunArgs {
            instance: small(8, 64),
            time: 8.0,
            record: Some(log.clone()),
            ..RunArgs::default()
        };
        args.instance.spec.arrival = "poisson:2".parse().unwrap();
        let out = execute_live(&LiveCommand::Run(Box::new(args))).unwrap();
        assert!(out.contains("mean gap"), "{out}");
        assert!(out.contains("recorded"), "{out}");

        let replayed = execute_live(&LiveCommand::Replay { log: log.clone() }).unwrap();
        assert!(replayed.contains("bit-identical ✓"), "{replayed}");

        let status = execute_live(&LiveCommand::Status { path: log }).unwrap();
        assert!(status.contains("event log"), "{status}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_resume_matches_straight_run() {
        let dir = temp_dir("snap");
        let snap = dir.join("snap.json").to_string_lossy().to_string();
        let log_a = dir.join("straight.json").to_string_lossy().to_string();
        let log_b = dir.join("resumed.json").to_string_lossy().to_string();

        // Straight run to t=10, recording the final state via a snapshot.
        let straight = RunArgs {
            instance: small(8, 64),
            time: 10.0,
            snapshot: Some(log_a.clone()),
            ..RunArgs::default()
        };
        execute_live(&LiveCommand::Run(Box::new(straight))).unwrap();

        // Split run: stop at t=4, snapshot, resume to t=10.
        let first = RunArgs {
            instance: small(8, 64),
            time: 4.0,
            snapshot: Some(snap.clone()),
            ..RunArgs::default()
        };
        execute_live(&LiveCommand::Run(Box::new(first))).unwrap();
        let second = RunArgs {
            instance: small(8, 64),
            time: 10.0,
            resume: Some(snap.clone()),
            snapshot: Some(log_b.clone()),
            ..RunArgs::default()
        };
        let out = execute_live(&LiveCommand::Run(Box::new(second))).unwrap();
        assert!(out.contains("resumed from snapshot"), "{out}");

        // The two final snapshots carry the same engine state (the content
        // key covers loads, clock, counters and RNG state — balls are
        // exchangeable, so the loads are the whole sampling state).
        let a: Snapshot = serde_json::from_str(&std::fs::read_to_string(&log_a).unwrap()).unwrap();
        let b: Snapshot = serde_json::from_str(&std::fs::read_to_string(&log_b).unwrap()).unwrap();
        assert_eq!(snapshot_key(&a), snapshot_key(&b));

        // `status` on a snapshot names its content key.
        let mid: Snapshot = serde_json::from_str(&std::fs::read_to_string(&snap).unwrap()).unwrap();
        let status = execute_live(&LiveCommand::Status { path: snap }).unwrap();
        assert!(status.contains(&snapshot_key(&mid)), "{status}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_run_executes() {
        let args = RunArgs {
            instance: small(16, 128),
            time: 6.0,
            shards: 4,
            threads: 2,
            ..RunArgs::default()
        };
        let out = execute_live(&LiveCommand::Run(Box::new(args))).unwrap();
        assert!(out.contains("sharded engine"), "{out}");
        assert!(out.contains("mean gap"), "{out}");
    }

    #[test]
    fn status_rejects_legacy_v1_snapshots_clearly() {
        let dir = temp_dir("v1");
        let path = dir.join("old-snap.json");
        // The pre-Fenwick format: a ball map and no version field.
        std::fs::write(
            &path,
            r#"{"time": 1.0, "seq": 3, "loads": [1, 2], "balls": [0, 1, 1],
                "params": {"arrivals": {"Poisson": {"rate_per_bin": 1.0}}, "service_rate": 0.5},
                "rule": {"variant": "Geq"},
                "counters": {"arrivals": 0, "departures": 0, "rings": 3, "migrations": 1, "events": 3},
                "rng_state": [1, 2, 3, 4]}"#,
        )
        .unwrap();
        let err = execute_live(&LiveCommand::Status {
            path: path.to_string_lossy().to_string(),
        })
        .unwrap_err();
        assert!(err.contains("legacy v1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_rejects_garbage() {
        let dir = temp_dir("garbage");
        let path = dir.join("junk.json");
        std::fs::write(&path, "{\"what\": 1}").unwrap();
        let err = execute_live(&LiveCommand::Status {
            path: path.to_string_lossy().to_string(),
        })
        .unwrap_err();
        assert!(err.contains("neither"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
