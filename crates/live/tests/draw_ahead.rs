//! `LiveEngine::run_until` against the `step` loop it stands for.
//!
//! On a unit, churn-free engine on the complete graph `run_until` draws
//! the random part of the next events before applying them, and prefetches
//! their memory while it waits.  It must be bit-identical to calling
//! `step` while `time() < until`: the same configuration, time, counters,
//! RNG state afterwards, steady-state summary, event log and metrics
//! scrape.  Every policy and arrival law is checked on the draw-ahead
//! path, and each fallback (weighted balls, bin speeds, churn, a sparse
//! topology, more candidates than a drawn ring holds, a tree that fits
//! in cache) on the step path.

use rls_core::{Config, RebalancePolicy, RlsRule};
use rls_graph::Topology;
use rls_live::{
    EventLog, LiveCommand, LiveCounters, LiveEngine, LiveObserver, LiveParams, LogFooter,
    LogHeader, Recorder, SteadyState, SteadySummary,
};
use rls_obs::Registry;
use rls_rng::{rng_from_seed, DefaultRng, Rng64};
use rls_workloads::{ArrivalProcess, ChurnProcess, SpeedProfile, WeightDist};

/// The fewest bins on which the engine draws ahead: their tree has 2²⁰
/// leaf slots, and the last leaf node is partial.
const N: usize = (1 << 19) + 1;

/// One engine to run both ways.
#[derive(Clone)]
struct Case {
    policy: &'static str,
    arrivals: &'static str,
    topology: &'static str,
    n: usize,
    per_bin: u64,
    /// Weight law and speed profile (a weighted engine when either is
    /// not unit/uniform).
    hetero: Option<(&'static str, &'static str)>,
    churn: &'static str,
    /// Scale commands applied before the run (an elastic live set).
    scale: bool,
    /// Successive `until` values of the `run_until` calls.
    slices: Vec<f64>,
}

impl Case {
    fn new(policy: &'static str, arrivals: &'static str) -> Self {
        Self {
            policy,
            arrivals,
            topology: "complete",
            n: N,
            per_bin: 2,
            hetero: None,
            churn: "none",
            scale: false,
            // About 4 000 events: the total rate is about 4 per bin.
            slices: vec![5e-4, 1e-3, 2e-3],
        }
    }

    fn name(&self) -> String {
        format!(
            "{} {} on {} (n {}, {}/bin, hetero {:?}, churn {}, scaled {}, slices {:?})",
            self.policy,
            self.arrivals,
            self.topology,
            self.n,
            self.per_bin,
            self.hetero,
            self.churn,
            self.scale,
            self.slices
        )
    }

    fn build(&self, seed: u64) -> (LiveEngine, DefaultRng) {
        let initial = Config::uniform(self.n, self.per_bin).unwrap();
        let arrivals: ArrivalProcess = self.arrivals.parse().unwrap();
        let target = (self.n as u64 * self.per_bin).max(self.n as u64);
        let params = LiveParams::balanced(arrivals, self.n, target).unwrap();
        let policy: RebalancePolicy = self.policy.parse().unwrap();
        let topology = Topology::parse_spec(self.topology).unwrap();
        let mut rng = rng_from_seed(seed);
        let mut engine = match self.hetero {
            Some((weights, speeds)) => {
                let weights: WeightDist = weights.parse().unwrap();
                let speeds: SpeedProfile = speeds.parse().unwrap();
                LiveEngine::with_hetero(
                    initial,
                    params,
                    policy,
                    topology,
                    seed ^ 0x6AF1,
                    weights,
                    speeds.speeds(self.n),
                    &mut rng,
                )
                .unwrap()
            }
            None => {
                LiveEngine::with_policy(initial, params, policy, topology, seed ^ 0x6AF1).unwrap()
            }
        };
        engine
            .set_churn(self.churn.parse::<ChurnProcess>().unwrap())
            .unwrap();
        if self.scale {
            for cmd in [
                LiveCommand::AddBin { warm: true },
                LiveCommand::DrainBin { bin: Some(3) },
                LiveCommand::AddBin { warm: false },
            ] {
                engine.apply(&cmd, &mut rng).unwrap();
            }
        }
        (engine, rng)
    }
}

/// Everything a run leaves behind that the two drives must agree on.
struct Outcome {
    loads: Vec<u64>,
    time_bits: u64,
    counters: LiveCounters,
    processed: Vec<u64>,
    next_word: u64,
    summary: SteadySummary,
    log: EventLog,
    scrape: String,
}

impl Outcome {
    /// Assert `self` (the `step` loop's) equals `other` (`run_until`'s),
    /// naming the first field that differs; the loads and the log are
    /// too long to print whole.
    fn assert_same(&self, other: &Outcome, what: &str) {
        assert!(self.loads == other.loads, "{what}: loads differ");
        assert_eq!(self.time_bits, other.time_bits, "{what}: time");
        assert_eq!(self.counters, other.counters, "{what}: counters");
        assert_eq!(self.processed, other.processed, "{what}: events per call");
        assert_eq!(self.next_word, other.next_word, "{what}: RNG state");
        assert_eq!(self.summary, other.summary, "{what}: steady summary");
        let (a, b) = (&self.log.events, &other.log.events);
        if let Some(i) = (0..a.len().min(b.len())).find(|&i| a[i] != b[i]) {
            panic!("{what}: event {i} differs: {:?} vs {:?}", a[i], b[i]);
        }
        assert_eq!(a.len(), b.len(), "{what}: event count");
        assert!(self.log == other.log, "{what}: event logs differ");
        assert_eq!(self.scrape, other.scrape, "{what}: metrics scrape");
    }
}

/// `run_until` as the plain `step` loop it is defined to equal.
fn step_until<O: LiveObserver>(
    engine: &mut LiveEngine,
    until: f64,
    rng: &mut DefaultRng,
    observer: &mut O,
) -> u64 {
    observer.on_start(engine.tracker(), engine.time());
    let mut processed = 0;
    while engine.time() < until {
        let Some(event) = engine.step(rng) else {
            break;
        };
        observer.on_event(&event, engine.tracker());
        processed += 1;
    }
    processed
}

/// Run `engine` over the case's slices, by the `step` loop or by
/// `run_until`, with telemetry attached.
fn run(case: &Case, mut engine: LiveEngine, mut rng: DefaultRng, stepped: bool) -> Outcome {
    let registry = Registry::new();
    engine.attach_metrics(&registry);
    let initial = engine.config().clone();
    let mut observer = (Recorder::new(), SteadyState::new(0.25));
    let mut processed = Vec::new();
    for &until in &case.slices {
        processed.push(if stepped {
            step_until(&mut engine, until, &mut rng, &mut observer)
        } else {
            engine.run_until(until, &mut rng, &mut observer)
        });
    }
    let (recorder, steady) = observer;
    let summary = steady.finish(engine.time());
    let log = EventLog {
        header: LogHeader {
            n: initial.n(),
            initial_loads: initial.loads().to_vec(),
            rule: RlsRule::paper(),
            policy: Some(engine.policy()),
            topology: Some(engine.topology()),
            graph_seed: Some(engine.graph_seed()),
            warmup: 0.25,
            description: case.name(),
        },
        events: recorder.into_events(),
        footer: LogFooter {
            time: engine.time(),
            final_loads: engine.config().loads().to_vec(),
            summary: summary.clone(),
        },
    };
    Outcome {
        loads: engine.config().loads().to_vec(),
        time_bits: engine.time().to_bits(),
        counters: engine.counters(),
        processed,
        next_word: rng.next_u64(),
        summary,
        log,
        scrape: registry.render_prometheus(),
    }
}

/// Build the case from each seed once and run a copy of it both ways.
fn assert_identical(case: &Case, seeds: &[u64]) {
    for &seed in seeds {
        let (engine, rng) = case.build(seed);
        let stepped = run(case, engine.clone(), rng.clone(), true);
        let ahead = run(case, engine, rng, false);
        assert!(
            stepped.counters.events > 0 || case.slices.iter().all(|&t| t <= 0.0),
            "{}: the case runs no event",
            case.name()
        );
        stepped.assert_same(&ahead, &format!("{} (seed {seed})", case.name()));
    }
}

const POLICIES: &[&str] = &[
    "rls",
    "rls-strict",
    "greedy-1",
    "greedy-2",
    "greedy-3",
    "greedy-4",
    "threshold-4",
    "threshold-avg",
    "crs",
];

const ARRIVALS: &[&str] = &["poisson:1", "hotspot:2:0.25", "bursts:0.5:8"];

#[test]
fn every_policy_and_arrival_law_matches_the_step_loop() {
    for &policy in POLICIES {
        for &arrivals in ARRIVALS {
            assert_identical(&Case::new(policy, arrivals), &[1]);
        }
    }
}

#[test]
fn an_empty_start_matches_the_step_loop() {
    for &arrivals in ARRIVALS {
        for policy in ["rls", "greedy-2"] {
            assert_identical(
                &Case {
                    per_bin: 0,
                    ..Case::new(policy, arrivals)
                },
                &[1, 0xD1FF],
            );
        }
    }
}

#[test]
fn slices_shorter_than_one_event_match_the_step_loop() {
    // The total rate is about 4·N, one event per 5·10⁻⁷ time units, so
    // most of these slices end before the next event and some hold
    // exactly one.
    let mut slices: Vec<f64> = (1..200).map(|k| f64::from(k) * 1e-7).collect();
    // A slice that ends where it starts, and one in the past.
    slices.extend([2e-5, 1e-5]);
    for &arrivals in ARRIVALS {
        assert_identical(
            &Case {
                slices: slices.clone(),
                ..Case::new("greedy-2", arrivals)
            },
            &[1, 0xD1FF],
        );
    }
}

#[test]
fn slices_ending_on_an_event_time_match_the_step_loop() {
    // Each slice ends exactly at the time of an event, and is repeated
    // with no length at all: drawing stops at the event that reaches
    // `until`, not one past it.
    for &arrivals in ARRIVALS {
        let case = Case::new("greedy-2", arrivals);
        let (engine, rng) = case.build(3);
        let probe = Case {
            slices: vec![2e-4],
            ..case.clone()
        };
        let probe = run(&probe, engine, rng, true);
        let slices: Vec<f64> = (probe.log.events.iter().step_by(37))
            .flat_map(|event| [event.time, event.time])
            .collect();
        assert!(slices.len() >= 10);
        assert_identical(&Case { slices, ..case }, &[3]);
    }
}

#[test]
fn an_elastic_complete_graph_matches_the_step_loop() {
    // Scale commands leave a live set with a retired id, still with no
    // churn: candidates and arrivals are drawn over the live list.
    for policy in ["rls", "greedy-3"] {
        assert_identical(
            &Case {
                scale: true,
                ..Case::new(policy, "hotspot:2:0.25")
            },
            &[1, 0xD1FF],
        );
    }
}

#[test]
fn every_fallback_matches_the_step_loop() {
    let base = Case::new("greedy-2", "poisson:1");
    let cases = [
        Case {
            hetero: Some(("uniform:1:8", "uniform")),
            ..base.clone()
        },
        Case {
            hetero: Some(("unit", "two-class:4:0.25")),
            ..base.clone()
        },
        Case {
            churn: "steady:2000:2000",
            ..base.clone()
        },
        Case {
            churn: "flash:1000:2:warm",
            ..base.clone()
        },
        Case {
            topology: "cycle",
            ..base.clone()
        },
        Case {
            topology: "star",
            ..Case::new("rls", "bursts:0.5:8")
        },
        Case {
            policy: "greedy-5",
            ..base.clone()
        },
        // A tree that fits in cache: the step loop, at any slice length.
        Case {
            n: 64,
            per_bin: 4,
            slices: vec![0.5, 1.25, 3.0],
            ..base.clone()
        },
    ];
    for case in &cases {
        assert_identical(case, &[1, 0xD1FF]);
    }
}

/// The size the draw-ahead path is for: 2²⁰ bins at 16 balls per bin,
/// greedy-2, about 190 000 events.  Release builds only:
/// `cargo test --release -p rls-live --test draw_ahead -- --ignored`.
#[test]
#[ignore = "2^20 bins: run in release with --ignored"]
fn a_million_bins_match_the_step_loop() {
    let case = Case {
        n: 1 << 20,
        per_bin: 16,
        slices: vec![0.004, 0.01],
        ..Case::new("greedy-2", "poisson:1")
    };
    let (engine, rng) = case.build(7);
    let stepped = run(&case, engine.clone(), rng.clone(), true);
    let ahead = run(&case, engine, rng, false);
    assert!(stepped.counters.events > 150_000);
    stepped.assert_same(&ahead, &case.name());
}
