//! `LiveEngine::run_rings(k)` is `apply_batch` over `k` sampled rings,
//! without the command and result vectors: the same events reach the
//! observer, and the counters, telemetry, RNG state and snapshot agree
//! after the call, on unit, weighted and speed-aware engines.
//!
//! Also pinned here: arrival events carry their bins inline, so a
//! recorded log of a bursty run (epochs larger than the inline capacity,
//! which spill to the heap, and smaller ones, which do not) must keep the
//! bytes it had when the bins were a `Vec`, and must still replay.

use rls_core::{Config, RebalancePolicy, RlsRule};
use rls_graph::Topology;
use rls_live::{
    replay, EventLog, LiveCommand, LiveEngine, LiveEvent, LiveEventKind, LiveParams, LogFooter,
    LogHeader, Recorder, Snapshot, SteadyState,
};
use rls_obs::Registry;
use rls_rng::{rng_from_seed, DefaultRng};
use rls_workloads::{ArrivalProcess, WeightDist};

const N: usize = 16;
const PER_BIN: u64 = 4;

/// The three engine kinds a ring can run on.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Unit,
    Weighted,
    TwoClassSpeeds,
}

fn engine(kind: Kind) -> LiveEngine {
    let initial = Config::uniform(N, PER_BIN).unwrap();
    let params = LiveParams::balanced(
        ArrivalProcess::Poisson { rate_per_bin: 2.0 },
        N,
        N as u64 * PER_BIN,
    )
    .unwrap();
    let hetero = |dist, speeds| {
        LiveEngine::with_hetero(
            initial.clone(),
            params,
            RebalancePolicy::rls(),
            Topology::Complete,
            0x9E37,
            dist,
            speeds,
            &mut rng_from_seed(0x517C),
        )
        .unwrap()
    };
    match kind {
        Kind::Unit => LiveEngine::new(initial.clone(), params, RlsRule::paper()).unwrap(),
        Kind::Weighted => hetero(WeightDist::UniformInt { lo: 1, hi: 8 }, vec![1; N]),
        Kind::TwoClassSpeeds => hetero(
            WeightDist::Unit,
            (0..N).map(|b| if b % 4 == 0 { 4 } else { 1 }).collect(),
        ),
    }
}

const RING: LiveCommand = LiveCommand::Ring {
    source: None,
    dest: None,
};

/// Everything one side of the comparison ends with.
#[derive(Debug, PartialEq)]
struct Outcome {
    events: Vec<LiveEvent>,
    moved: u64,
    counters: rls_live::LiveCounters,
    telemetry: String,
    steady: rls_live::SteadySummary,
    rng: DefaultRng,
    snapshot: String,
}

/// Drive an engine of `kind` through a few served requests, each an
/// arrival followed by `k` sampled rings run by `rings`, then a departure.
fn drive(
    kind: Kind,
    k: u64,
    rings: impl Fn(&mut LiveEngine, &mut DefaultRng, &mut (Recorder, SteadyState)) -> u64,
) -> Outcome {
    let mut engine = engine(kind);
    let registry = Registry::new();
    engine.attach_metrics(&registry);
    let mut rng = rng_from_seed(0xA11CE ^ k);
    let mut observer = (Recorder::new(), SteadyState::new(0.0));
    let arrive = LiveCommand::Arrive {
        bin: None,
        weight: None,
    };
    let depart = LiveCommand::Depart {
        bin: None,
        weight: None,
    };
    let mut moved = 0;
    for _ in 0..3 {
        engine.apply_with(&arrive, &mut rng, &mut observer).unwrap();
        moved += rings(&mut engine, &mut rng, &mut observer);
        engine.apply_with(&depart, &mut rng, &mut observer).unwrap();
    }
    let time = engine.time();
    Outcome {
        events: observer.0.into_events(),
        moved,
        counters: engine.counters(),
        telemetry: registry.render_prometheus(),
        steady: observer.1.finish(time),
        snapshot: serde_json::to_string_pretty(&Snapshot::capture(&engine, &rng)).unwrap(),
        rng,
    }
}

#[test]
fn run_rings_equals_apply_batch_of_sampled_rings() {
    for kind in [Kind::Unit, Kind::Weighted, Kind::TwoClassSpeeds] {
        for k in [0u64, 1, 8, 10_000] {
            let run = drive(kind, k, |engine, rng, observer| {
                engine.run_rings(k, rng, observer).unwrap()
            });
            let batch = drive(kind, k, |engine, rng, observer| {
                let cmds = vec![RING; k as usize];
                let results = engine.apply_batch(&cmds, rng, observer);
                results
                    .into_iter()
                    .map(|r| match r.unwrap().kind {
                        LiveEventKind::Ring { moved, .. } => u64::from(moved),
                        other => panic!("a ring command yielded {other:?}"),
                    })
                    .sum()
            });
            assert_eq!(run.events.len() as u64, 3 * (k + 2), "{kind:?}, k = {k}");
            assert_eq!(run, batch, "{kind:?}, k = {k}");
        }
    }
}

#[test]
fn run_rings_in_an_empty_system_fails_untouched() {
    let initial = Config::from_loads(vec![0, 0, 0]).unwrap();
    let params = LiveParams {
        arrivals: ArrivalProcess::Poisson { rate_per_bin: 1.0 },
        service_rate: 0.0,
    };
    let mut engine = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
    let mut rng = rng_from_seed(3);
    let before = (engine.counters(), rng.clone());
    assert_eq!(engine.run_rings(0, &mut rng, &mut ()).unwrap(), 0);
    let err = engine.run_rings(5, &mut rng, &mut ()).unwrap_err();
    // The error `apply_batch` returns for each such ring.
    let batch = engine.apply_batch(&[RING], &mut rng, &mut ());
    assert_eq!(err.to_string(), batch[0].as_ref().unwrap_err().to_string());
    assert_eq!(
        (engine.counters(), rng),
        before,
        "nothing applied, nothing drawn"
    );
}

/// FNV-1a over bytes: a compact, order-sensitive digest.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Record a bursty run as `live run --record` does and return its log.
fn bursty_log(size: u64, seed: u64) -> EventLog {
    let (n, m) = (32usize, 256u64);
    let initial = Config::uniform(n, m / n as u64).unwrap();
    let params = LiveParams::balanced(
        ArrivalProcess::Bursts {
            rate_per_bin: 0.5,
            size,
        },
        n,
        m,
    )
    .unwrap();
    let mut engine = LiveEngine::new(initial.clone(), params, RlsRule::paper()).unwrap();
    let mut rng = rng_from_seed(seed);
    let mut observer = (Recorder::new(), SteadyState::new(1.0));
    engine.run_until(6.0, &mut rng, &mut observer);
    let (recorder, steady) = observer;
    EventLog {
        header: LogHeader {
            n,
            initial_loads: initial.loads().to_vec(),
            rule: RlsRule::paper(),
            policy: Some(engine.policy()),
            topology: Some(Topology::Complete),
            graph_seed: Some(engine.graph_seed()),
            warmup: 1.0,
            description: format!("bursts of {size}, seed {seed}"),
        },
        events: recorder.into_events(),
        footer: LogFooter {
            time: engine.time(),
            final_loads: engine.config().loads().to_vec(),
            summary: steady.finish(engine.time()),
        },
    }
}

#[test]
fn bursty_event_logs_keep_their_bytes_and_replay() {
    // Digests of the logs as recorded when arrival bins were a `Vec<u32>`.
    for (size, digest) in [(3u64, 0x6588_8af1_14b9_11f1u64), (8, 0xd160_d3d1_3ed0_25a2)] {
        let log = bursty_log(size, 0xB0057 + size);
        let widest = log
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                LiveEventKind::Arrival { bins } => Some(bins.len() as u64),
                _ => None,
            })
            .max();
        assert_eq!(widest, Some(size), "every epoch places {size} balls");
        let json = log.to_json();
        assert_eq!(fnv(json.as_bytes()), digest, "bursts of {size}");
        let parsed = EventLog::from_json(&json).unwrap();
        assert_eq!(parsed, log);
        assert_eq!(parsed.to_json(), json);
        assert!(replay(&parsed).unwrap().is_faithful(), "bursts of {size}");
    }
}
