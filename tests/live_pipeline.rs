//! Acceptance tests for the `rls-live` subsystem, end to end through the
//! facade and the CLI: a recorded run replays bit-identically, the sharded
//! engine is thread-count deterministic, and the shipped dynamic campaign
//! spec executes (incrementally) through the campaign engine.

use rls::cli::{execute_campaign, execute_live, parse_live_args, CampaignCommand};
use rls::live::{replay, EventLog};

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

fn temp_base(tag: &str) -> std::path::PathBuf {
    let base = std::env::temp_dir().join(format!("rls-live-accept-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    base
}

/// The headline acceptance check: `live run --record` followed by
/// `live replay` reproduces the final load vector and observer summaries
/// bit-identically, through the real CLI entry points.
#[test]
fn cli_record_then_replay_is_bit_identical() {
    let base = temp_base("replay");
    let log_path = base.join("run.json").to_string_lossy().to_string();

    let run = parse_live_args(&strings(&[
        "run",
        "--n",
        "32",
        "--m",
        "256",
        "--arrival",
        "poisson:2",
        "--time",
        "15",
        "--seed",
        "99",
        "--record",
        &log_path,
    ]))
    .unwrap();
    let out = execute_live(&run).unwrap();
    assert!(out.contains("mean gap"), "{out}");

    // Through the CLI.
    let replayed = execute_live(&parse_live_args(&strings(&["replay", &log_path])).unwrap())
        .expect("replay succeeds");
    assert!(
        replayed.contains("final loads: bit-identical ✓"),
        "{replayed}"
    );
    assert!(
        replayed.contains("observer summary: bit-identical ✓"),
        "{replayed}"
    );

    // And through the library, for the stronger structural checks.
    let log = EventLog::from_json(&std::fs::read_to_string(&log_path).unwrap()).unwrap();
    assert!(!log.events.is_empty());
    let report = replay(&log).unwrap();
    assert!(report.is_faithful());
    assert_eq!(report.final_loads, log.footer.final_loads);
    assert_eq!(report.summary, log.footer.summary);

    // Tamper with one event: flip the decision of the last genuine
    // migration attempt (source ≠ dest, so the flip changes the loads).
    let mut tampered = log.clone();
    let flipped = tampered.events.iter_mut().rev().find_map(|event| {
        if let rls::live::LiveEventKind::Ring {
            source,
            dest,
            moved,
        } = &mut event.kind
        {
            if source != dest {
                *moved = !*moved;
                return Some(());
            }
        }
        None
    });
    assert!(flipped.is_some(), "a 15-time-unit run contains rings");
    let verdict = replay(&tampered);
    assert!(
        verdict.is_err() || !verdict.unwrap().is_faithful(),
        "tampered log must not replay cleanly"
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// The sharded engine's trajectory is a function of the seed and shard
/// configuration only — one worker thread and eight produce the same final
/// state (the meaningful notion of "matches the single-threaded engine" on
/// any host, including single-core CI).
#[test]
fn sharded_engine_is_thread_count_deterministic() {
    use rls::core::{Config, RlsRule};
    use rls::live::{LiveParams, ShardedEngine};
    use rls::workloads::ArrivalProcess;

    let run = |threads: usize| {
        let initial = Config::uniform(64, 8).unwrap();
        let params =
            LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 64, 512).unwrap();
        let mut engine =
            ShardedEngine::new(initial, params, RlsRule::paper(), 8, 0.25, 777).unwrap();
        engine.run(20.0, 4.0, threads)
    };
    let single = run(1);
    let eight = run(8);
    assert_eq!(single.final_loads, eight.final_loads);
    assert_eq!(single.counters, eight.counters);
    assert_eq!(single.summary, eight.summary);
    // The run actually processed a meaningful stream.
    assert!(single.counters.events > 10_000);
    assert_eq!(
        single.final_loads.iter().sum::<u64>(),
        512 + single.counters.arrivals - single.counters.departures
    );
}

/// The shipped dynamic spec runs end-to-end through `campaign run` and is
/// incremental: the second invocation executes zero cells.
#[test]
fn dynamic_spec_runs_and_caches() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/specs/dynamic_steady_state.toml"
    );
    let base = temp_base("dynspec");
    let store = base.join("store").to_string_lossy().to_string();

    let run = CampaignCommand::Run {
        spec: spec.to_string(),
        store: store.clone(),
        threads: 1,
    };
    let first = execute_campaign(&run).unwrap();
    assert!(first.contains("0 cached"), "{first}");
    assert!(first.contains("gap"), "dynamic cells report gaps: {first}");
    let second = execute_campaign(&run).unwrap();
    assert!(second.contains("0 executed"), "{second}");
    let _ = std::fs::remove_dir_all(&base);
}
