//! The `serve` subcommand: run the HTTP serving layer (`rls-serve`) and
//! replay recorded event logs through it.
//!
//! ```text
//! rls-experiments serve run    [--addr HOST:PORT] [--n N] [--m M] [--workload W]
//!                              [--arrival A] [--service MU] [--policy P]
//!                              [--topology T] [--seed S] [--warmup T]
//!                              [--rebalance R] [--for SECONDS]
//!                              [--weights DIST] [--speeds PROFILE]
//! rls-experiments serve replay <log.json> [--addr HOST:PORT]
//! ```
//!
//! `run` boots the balancer and serves until killed (or for `--for`
//! seconds).  `replay` feeds a recorded `rls-live` event log through the
//! HTTP path and verifies the final load vector against the offline
//! replay exactly.  Serving throughput and latency are measured by the
//! repository benchmark (`perfbench/`, workloads `serve-closed` and
//! `serve-open`).
//!
//! Self-booted servers always attach the `rls-obs` telemetry registry
//! (attaching never perturbs a trajectory), so `GET /v1/metrics` and
//! `GET /v1/debug/flight` work out of the box; `--metrics-json PATH`
//! additionally writes a JSON snapshot of every instrument to `PATH`
//! every `--metrics-interval` seconds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rls_campaign::{ArrivalSpec, WorkloadSpec};
use rls_core::RebalancePolicy;
use rls_graph::Topology;
use rls_live::{EventLog, LiveEngine, LiveParams};
use rls_obs::Registry;
use rls_rng::rng_from_seed;
use rls_serve::{
    core_from_log, replay_over_http, serve, HttpServer, ServeCore, ServePolicy, ServerConfig,
};
use rls_workloads::{SpeedProfile, WeightDist, Workload};

/// A parsed `serve ...` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeCommand {
    /// Boot the server and block.
    Run(Box<ServeArgs>),
    /// Feed an event log through the HTTP path and verify it.
    Replay {
        /// Path to the log file.
        log: String,
        /// External server to drive (`None` = boot one from the log).
        addr: Option<String>,
    },
}

/// Server-shape arguments of `serve run`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Bind address.
    pub addr: String,
    /// Number of bins.
    pub n: usize,
    /// Initial population.
    pub m: u64,
    /// Initial-configuration family.
    pub workload: WorkloadSpec,
    /// Arrival process (placement law for sampled arrivals; also the
    /// engine's time scale).
    pub arrival: ArrivalSpec,
    /// Per-ball departure rate override (`None` = hold the population).
    pub service: Option<f64>,
    /// Rebalance policy applied per ring.
    pub policy: RebalancePolicy,
    /// Topology ring destinations are sampled from.
    pub topology: Topology,
    /// Master seed.
    pub seed: u64,
    /// Warm-up (engine-time units) excluded from `/v1/stats`.
    pub warmup: f64,
    /// Mean auto-rebalance rings per arrival (`None` = the balanced
    /// default `m / λ`, the paper's ring-to-arrival ratio).
    pub rebalance: Option<f64>,
    /// Exit after this many wall-clock seconds (`None` = serve forever).
    pub for_seconds: Option<f64>,
    /// Ball-weight law (`unit` = the classic engine).
    pub weights: WeightDist,
    /// Bin-speed profile (`uniform` = the classic engine).
    pub speeds: SpeedProfile,
    /// Write a JSON snapshot of every metric to this path periodically.
    pub metrics_json: Option<String>,
    /// Seconds between `--metrics-json` snapshots.
    pub metrics_interval: f64,
}

impl Default for ServeArgs {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7171".to_string(),
            n: 64,
            m: 512,
            workload: WorkloadSpec(Workload::Balanced),
            arrival: ArrivalSpec(rls_workloads::ArrivalProcess::Poisson { rate_per_bin: 1.0 }),
            service: None,
            policy: RebalancePolicy::rls(),
            topology: Topology::Complete,
            seed: 0xC0FFEE,
            warmup: 0.0,
            rebalance: None,
            for_seconds: None,
            weights: WeightDist::Unit,
            speeds: SpeedProfile::Uniform,
            metrics_json: None,
            metrics_interval: 1.0,
        }
    }
}

/// Parse the arguments following the `serve` keyword.
pub fn parse_serve_args(raw: &[String]) -> Result<ServeCommand, String> {
    let verb = raw
        .first()
        .map(String::as_str)
        .ok_or("serve needs a subcommand: run | replay")?;
    match verb {
        "run" => parse_run(&raw[1..]).map(|a| ServeCommand::Run(Box::new(a))),
        "replay" => parse_replay(&raw[1..]),
        other => Err(format!("unknown serve subcommand `{other}` (run | replay)")),
    }
}

fn str_of(e: impl ToString) -> String {
    e.to_string()
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("bad {flag} value `{text}`"))
}

fn parse_run(raw: &[String]) -> Result<ServeArgs, String> {
    let mut args = ServeArgs::default();
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        let mut value = |what: &str| -> Result<String, String> {
            i += 1;
            raw.get(i).cloned().ok_or(format!("{flag} needs {what}"))
        };
        match flag {
            "--addr" => args.addr = value("an address")?,
            "--n" => args.n = parse_num(&value("a bin count")?, "--n")?,
            "--m" => args.m = parse_num(&value("a ball count")?, "--m")?,
            "--workload" => args.workload = value("a workload")?.parse().map_err(str_of)?,
            "--arrival" => args.arrival = value("an arrival process")?.parse().map_err(str_of)?,
            "--service" => args.service = Some(parse_num(&value("a rate")?, "--service")?),
            "--policy" => args.policy = value("a policy")?.parse()?,
            "--topology" => args.topology = value("a topology")?.parse()?,
            "--seed" => args.seed = parse_num(&value("a seed")?, "--seed")?,
            "--warmup" => args.warmup = parse_num(&value("a duration")?, "--warmup")?,
            "--rebalance" => args.rebalance = Some(parse_num(&value("a mean")?, "--rebalance")?),
            "--for" => args.for_seconds = Some(parse_num(&value("seconds")?, "--for")?),
            "--weights" => {
                args.weights = value("a weight distribution")?.parse().map_err(str_of)?
            }
            "--speeds" => args.speeds = value("a speed profile")?.parse().map_err(str_of)?,
            "--metrics-json" => args.metrics_json = Some(value("a path")?),
            "--metrics-interval" => {
                args.metrics_interval = parse_num(&value("seconds")?, "--metrics-interval")?
            }
            other => return Err(format!("unknown serve run flag `{other}`")),
        }
        i += 1;
    }
    validate_server(&args)?;
    Ok(args)
}

fn parse_replay(raw: &[String]) -> Result<ServeCommand, String> {
    let mut log = None;
    let mut addr = None;
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        let mut value = |what: &str| -> Result<String, String> {
            i += 1;
            raw.get(i).cloned().ok_or(format!("{flag} needs {what}"))
        };
        match flag {
            "--addr" => addr = Some(value("an address")?),
            path if !path.starts_with("--") && log.is_none() => log = Some(path.to_string()),
            other => return Err(format!("unknown serve replay argument `{other}`")),
        }
        i += 1;
    }
    Ok(ServeCommand::Replay {
        log: log.ok_or("serve replay needs a log file path")?,
        addr,
    })
}

fn validate_server(args: &ServeArgs) -> Result<(), String> {
    if args.n == 0 {
        return Err("--n must be at least 1".to_string());
    }
    if !(args.warmup.is_finite() && args.warmup >= 0.0) {
        return Err("--warmup must be finite and non-negative".to_string());
    }
    if let Some(rebalance) = args.rebalance {
        if !(rebalance.is_finite() && rebalance >= 0.0) {
            return Err("--rebalance must be finite and non-negative".to_string());
        }
    }
    if let Some(seconds) = args.for_seconds {
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err("--for must be finite and non-negative".to_string());
        }
    }
    if !(args.metrics_interval.is_finite() && args.metrics_interval > 0.0) {
        return Err("--metrics-interval must be positive".to_string());
    }
    Ok(())
}

/// Build the core and boot a server from CLI arguments.  The returned
/// registry is the one `/v1/metrics` renders; the CLI's snapshot writer
/// reads the same instruments.
fn boot(args: &ServeArgs) -> Result<(HttpServer, f64, Registry), String> {
    let params = match args.service {
        Some(rate) => {
            let params = LiveParams {
                arrivals: args.arrival.0,
                service_rate: rate,
            };
            params.validate().map_err(str_of)?;
            params
        }
        None => LiveParams::balanced(args.arrival.0, args.n, args.m).map_err(str_of)?,
    };
    let initial = args
        .workload
        .0
        .generate(args.n, args.m, &mut rng_from_seed(args.seed ^ 0x1717))
        .map_err(str_of)?;
    // The classic (unit-weight, uniform-speed) shape uses the plain
    // constructor so default runs stay bit-identical to earlier releases.
    let engine = if args.weights.is_unit() && args.speeds.is_uniform() {
        LiveEngine::with_policy(
            initial,
            params,
            args.policy,
            args.topology,
            args.seed ^ 0x6AF1,
        )
    } else {
        LiveEngine::with_hetero(
            initial,
            params,
            args.policy,
            args.topology,
            args.seed ^ 0x6AF1,
            args.weights,
            args.speeds.speeds(args.n),
            &mut rng_from_seed(args.seed ^ 0x4E16),
        )
    }
    .map_err(str_of)?;
    // Default rebalance intensity: the paper's regime has rings at rate m
    // against arrivals at rate λ, i.e. m/λ rings per arrival.
    let rings_per_arrival = args
        .rebalance
        .unwrap_or(args.m as f64 / args.arrival.0.total_rate(args.n));
    let mut core = ServeCore::new(
        engine,
        args.seed,
        args.warmup,
        ServePolicy { rings_per_arrival },
    );
    // Telemetry is always on for self-booted servers: attaching is free
    // on the trajectory (write-only atomic taps) and makes /v1/metrics
    // and /v1/debug/flight live.
    let registry = Registry::new();
    core.attach_metrics(&registry);
    let server = serve(
        core,
        &ServerConfig {
            addr: args.addr.clone(),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind {}: {e}", args.addr))?;
    Ok((server, rings_per_arrival, registry))
}

/// Spawn the `--metrics-json` writer: one JSON snapshot of every
/// instrument to `path`, every `interval`, plus a final one at stop.
fn spawn_metrics_writer(
    registry: Registry,
    path: String,
    interval: f64,
) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let tick = Duration::from_secs_f64(interval.max(0.01));
        loop {
            if let Err(e) = std::fs::write(&path, registry.snapshot_json()) {
                eprintln!("--metrics-json: cannot write {path}: {e}");
                return;
            }
            if flag.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(tick);
        }
    });
    (stop, handle)
}

/// Execute a parsed serve command, returning the text to print.
pub fn execute_serve(command: &ServeCommand) -> Result<String, String> {
    match command {
        ServeCommand::Run(args) => run_cmd(args),
        ServeCommand::Replay { log, addr } => replay_cmd(log, addr.as_deref()),
    }
}

fn run_cmd(args: &ServeArgs) -> Result<String, String> {
    let (server, rings, registry) = boot(args)?;
    let writer = args
        .metrics_json
        .clone()
        .map(|path| spawn_metrics_writer(registry, path, args.metrics_interval));
    let mut out = format!(
        "rls-serve listening on http://{}\n  n = {}, m = {}, arrival {}, seed {}, \
         policy {}, topology {}, weights {}, speeds {}, \
         auto-rebalance {rings:.2} rings/arrival\n  \
         POST /v1/arrive · POST /v1/depart[/{{bin}}] · POST /v1/ring · GET /v1/stats · \
         GET /v1/snapshot · POST /v1/restore · GET /healthz · GET /v1/metrics · \
         GET /v1/debug/flight\n",
        server.addr(),
        args.n,
        args.m,
        args.arrival,
        args.seed,
        args.policy,
        args.topology,
        args.weights,
        args.speeds,
    );
    match args.for_seconds {
        Some(seconds) => {
            // Announce the address before blocking so scripts can proceed.
            println!("{out}");
            std::thread::sleep(Duration::from_secs_f64(seconds));
            let core = server.shutdown();
            if let Some((stop, handle)) = writer {
                stop.store(true, Ordering::Release);
                let _ = handle.join();
            }
            let stats = core.stats();
            out = format!(
                "served for {seconds}s: {} events (m = {}, mean gap {:.3})\n",
                stats.counters.events, stats.m, stats.summary.mean_gap
            );
            Ok(out)
        }
        None => {
            println!("{out}");
            out.clear();
            // Serve until the process is killed.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }
}

fn replay_cmd(log_path: &str, addr: Option<&str>) -> Result<String, String> {
    let text =
        std::fs::read_to_string(log_path).map_err(|e| format!("cannot read `{log_path}`: {e}"))?;
    let log = EventLog::from_json(&text).map_err(str_of)?;

    let server = match addr {
        Some(_) => None,
        None => {
            let core = core_from_log(&log, 0)?;
            Some(serve(core, &ServerConfig::default()).map_err(str_of)?)
        }
    };
    let target = match (addr, &server) {
        (Some(addr), _) => addr
            .parse()
            .map_err(|e| format!("bad --addr `{addr}`: {e}"))?,
        (None, Some(server)) => server.addr(),
        (None, None) => unreachable!("self-booted replay has a server"),
    };

    let outcome = replay_over_http(target, &log)?;
    if let Some(server) = server {
        server.shutdown();
    }
    let verdict = |ok: bool| {
        if ok {
            "bit-identical ✓"
        } else {
            "MISMATCH ✗"
        }
    };
    let id = &outcome.identity;
    let out = format!(
        "replayed {} events as {} HTTP requests against {target}\n\
         server identity: seed {}, n = {}, m0 = {}, policy {}, topology {}, snapshot v{}\n\
         final loads: {}\nring decisions: {}\n",
        outcome.events,
        outcome.requests,
        id.seed,
        id.n,
        id.m0,
        id.policy,
        id.topology,
        id.snapshot_version,
        verdict(outcome.loads_match),
        verdict(outcome.moved_match),
    );
    if outcome.is_faithful() {
        Ok(out)
    } else {
        Err(format!(
            "{out}served replay diverged from the offline replay"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parsing_covers_verbs_and_flags() {
        let cmd = parse_serve_args(&strings(&[
            "run",
            "--n",
            "32",
            "--m",
            "256",
            "--arrival",
            "poisson:2",
            "--rebalance",
            "4",
            "--addr",
            "127.0.0.1:0",
            "--for",
            "0.5",
        ]))
        .unwrap();
        let ServeCommand::Run(args) = cmd else {
            panic!("expected run");
        };
        assert_eq!((args.n, args.m), (32, 256));
        assert_eq!(args.rebalance, Some(4.0));
        assert_eq!(args.for_seconds, Some(0.5));

        assert_eq!(
            parse_serve_args(&strings(&["replay", "log.json"])).unwrap(),
            ServeCommand::Replay {
                log: "log.json".into(),
                addr: None,
            }
        );

        let cmd = parse_serve_args(&strings(&[
            "run",
            "--policy",
            "greedy-2",
            "--topology",
            "torus",
            "--n",
            "16",
        ]))
        .unwrap();
        let ServeCommand::Run(args) = cmd else {
            panic!("expected run");
        };
        assert_eq!(args.policy, RebalancePolicy::GreedyD { d: 2 });
        assert_eq!(args.topology, Topology::Torus2D);

        let cmd = parse_serve_args(&strings(&[
            "run",
            "--weights",
            "pareto:1.5:64",
            "--speeds",
            "two-class:4:0.25",
        ]))
        .unwrap();
        let ServeCommand::Run(args) = cmd else {
            panic!("expected run");
        };
        assert_eq!(
            args.weights,
            WeightDist::Pareto {
                alpha: 1.5,
                cap: 64
            }
        );
        assert_eq!(
            args.speeds,
            SpeedProfile::TwoClass {
                speed: 4,
                fraction: 0.25
            }
        );

        // The load generator is gone: serving load is measured by the
        // repository benchmark, so `bench` is no longer a verb.
        let err = parse_serve_args(&strings(&["bench", "--connections", "8"])).unwrap_err();
        assert!(err.contains("unknown serve subcommand `bench`"), "{err}");

        for bad in [
            &[][..],
            &["frobnicate"],
            &["run", "--n", "0"],
            &["run", "--wat"],
            &["run", "--frontend", "event-loop"],
            &["run", "--workers", "2"],
            &["replay", "a.json", "--workers", "2"],
            &["run", "--for", "-1"],
            &["run", "--policy", "nope"],
            &["run", "--topology", "klein-bottle"],
            &["run", "--weights", "pareto:0"],
            &["run", "--speeds", "two-class"],
            &["run", "--metrics-interval", "0"],
            &["run", "--metrics-interval", "nan"],
            &["replay"],
            &["replay", "a.json", "b.json"],
        ] {
            assert!(parse_serve_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parsing_covers_metrics_flags() {
        let cmd = parse_serve_args(&strings(&[
            "run",
            "--metrics-json",
            "/tmp/snap.json",
            "--metrics-interval",
            "0.25",
        ]))
        .unwrap();
        let ServeCommand::Run(args) = cmd else {
            panic!("expected run");
        };
        assert_eq!(args.metrics_json.as_deref(), Some("/tmp/snap.json"));
        assert_eq!(args.metrics_interval, 0.25);

        let ServeCommand::Run(args) = parse_serve_args(&strings(&["run"])).unwrap() else {
            panic!("expected run");
        };
        assert!(args.metrics_json.is_none());
        assert_eq!(args.metrics_interval, 1.0);
    }

    #[test]
    fn run_for_a_moment_then_report() {
        let args = ServeArgs {
            addr: "127.0.0.1:0".to_string(),
            n: 8,
            m: 64,
            for_seconds: Some(0.05),
            ..ServeArgs::default()
        };
        let out = execute_serve(&ServeCommand::Run(Box::new(args))).unwrap();
        assert!(out.contains("served for"), "{out}");
    }

    #[test]
    fn run_writes_metrics_json_snapshots() {
        let dir = std::env::temp_dir().join(format!("rls-serve-metrics-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");

        let args = ServeArgs {
            addr: "127.0.0.1:0".to_string(),
            n: 8,
            m: 64,
            for_seconds: Some(0.05),
            metrics_json: Some(path.to_string_lossy().to_string()),
            metrics_interval: 0.02,
            ..ServeArgs::default()
        };
        let out = execute_serve(&ServeCommand::Run(Box::new(args))).unwrap();
        assert!(out.contains("served for"), "{out}");

        // The writer flushes a final snapshot at shutdown; it must be a
        // JSON object naming the engine metric families.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_start().starts_with('{'), "{text}");
        assert!(text.contains("rls_engine_events_total"), "{text}");
        assert!(text.contains("rls_serve_stage_ns"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_boots_a_weighted_server() {
        let args = ServeArgs {
            addr: "127.0.0.1:0".to_string(),
            n: 8,
            m: 64,
            weights: WeightDist::UniformInt { lo: 1, hi: 8 },
            speeds: SpeedProfile::TwoClass {
                speed: 4,
                fraction: 0.25,
            },
            for_seconds: Some(0.05),
            ..ServeArgs::default()
        };
        let out = execute_serve(&ServeCommand::Run(Box::new(args))).unwrap();
        assert!(out.contains("served for"), "{out}");
    }

    #[test]
    fn replay_round_trips_a_recorded_log() {
        use rls_core::RlsRule;
        use rls_live::{LogFooter, LogHeader, Recorder, SteadyState};

        // Record a small live run to a temp file, then serve-replay it.
        let dir = std::env::temp_dir().join(format!("rls-serve-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");

        let initial = rls_core::Config::uniform(8, 8).unwrap();
        let params = LiveParams::balanced(
            rls_workloads::ArrivalProcess::Poisson { rate_per_bin: 2.0 },
            8,
            64,
        )
        .unwrap();
        let mut engine = LiveEngine::new(initial.clone(), params, RlsRule::paper()).unwrap();
        let mut observer = (Recorder::new(), SteadyState::new(0.0));
        engine.run_until(4.0, &mut rng_from_seed(3), &mut observer);
        let (recorder, steady) = observer;
        let log = EventLog {
            header: LogHeader {
                n: 8,
                initial_loads: initial.loads().to_vec(),
                rule: RlsRule::paper(),
                policy: None,
                topology: None,
                graph_seed: None,
                warmup: 0.0,
                description: "cli replay test".to_string(),
            },
            events: recorder.into_events(),
            footer: LogFooter {
                time: engine.time(),
                final_loads: engine.config().loads().to_vec(),
                summary: steady.finish(engine.time()),
            },
        };
        std::fs::write(&path, log.to_json()).unwrap();

        let out = execute_serve(&ServeCommand::Replay {
            log: path.to_string_lossy().to_string(),
            addr: None,
        })
        .unwrap();
        assert!(out.contains("bit-identical ✓"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
