//! The observability invariant, pinned: attaching `rls-obs` telemetry to
//! an engine never changes its trajectory.  Every hook is a plain tally,
//! published to the registry once per public call — no RNG draw, no
//! branch on an observed value — so an instrumented engine and a bare one
//! given the same seed must produce bit-identical event streams, load
//! vectors and counters on every `(policy, topology)` pair, with and
//! without heterogeneity, under both scripted commands (proptest) and
//! free-running simulation.  And what is published is exact: after every
//! public call each series equals what the engine counted.

use proptest::prelude::*;
use rls_core::{Config, RebalancePolicy, RlsRule, RlsVariant};
use rls_graph::Topology;
use rls_live::{
    LiveCommand, LiveCounters, LiveEngine, LiveParams, Recorder, ShardedEngine, SteadyState,
};
use rls_obs::Registry;
use rls_rng::rng_from_seed;
use rls_workloads::{ArrivalProcess, WeightDist};

const POLICIES: &[RebalancePolicy] = &[
    RebalancePolicy::Rls {
        variant: RlsVariant::Geq,
    },
    RebalancePolicy::Rls {
        variant: RlsVariant::Strict,
    },
    RebalancePolicy::GreedyD { d: 2 },
    RebalancePolicy::ThresholdFixed { threshold: 6 },
    RebalancePolicy::ThresholdAvg,
    RebalancePolicy::CrsPair,
];

/// n = 16 keeps the torus valid (4×4) and the grid quick.
const TOPOLOGIES: &[Topology] = &[
    Topology::Complete,
    Topology::Cycle,
    Topology::Star,
    Topology::Torus2D,
    Topology::RandomRegular { degree: 4 },
];

const N: usize = 16;
const PER_BIN: u64 = 4;

fn engine(policy: RebalancePolicy, topology: Topology, hetero: bool, seed: u64) -> LiveEngine {
    let initial = Config::uniform(N, PER_BIN).unwrap();
    let params = LiveParams::balanced(
        ArrivalProcess::Poisson { rate_per_bin: 2.0 },
        N,
        N as u64 * PER_BIN,
    )
    .unwrap();
    if hetero {
        let speeds: Vec<u64> = (0..N).map(|b| if b % 4 == 0 { 4 } else { 1 }).collect();
        LiveEngine::with_hetero(
            initial,
            params,
            policy,
            topology,
            seed ^ 0x9E37,
            WeightDist::UniformInt { lo: 1, hi: 8 },
            speeds,
            &mut rng_from_seed(seed ^ 0x517C),
        )
        .unwrap()
    } else {
        LiveEngine::with_policy(initial, params, policy, topology, seed ^ 0x9E37).unwrap()
    }
}

/// Run one engine for `horizon`, recording its full event stream, and
/// return everything trajectory-shaped about it.
fn trajectory(
    mut eng: LiveEngine,
    horizon: f64,
    seed: u64,
) -> (Vec<rls_live::LiveEvent>, Vec<u64>, u64, u64) {
    let mut observer = (Recorder::new(), SteadyState::new(0.0));
    eng.run_until(horizon, &mut rng_from_seed(seed), &mut observer);
    let (recorder, _) = observer;
    (
        recorder.into_events(),
        eng.config().loads().to_vec(),
        eng.time().to_bits(),
        eng.counters().events,
    )
}

/// Free-running identity across the full `(policy, topology) × {unit,
/// hetero}` grid — the acceptance matrix of the observability issue.
#[test]
fn attached_observers_never_change_a_live_trajectory() {
    for &policy in POLICIES {
        for &topology in TOPOLOGIES {
            for hetero in [false, true] {
                let seed = 0x0B5EF;
                let bare = trajectory(engine(policy, topology, hetero, seed), 4.0, seed);

                let registry = Registry::new();
                let mut tapped = engine(policy, topology, hetero, seed);
                tapped.attach_metrics(&registry);
                let metrics = tapped.metrics().cloned().expect("attached above");
                let observed = trajectory(tapped, 4.0, seed);

                assert_eq!(
                    bare, observed,
                    "trajectory diverged under observation: \
                     {policy:?} on {topology:?}, hetero = {hetero}"
                );
                // The tap actually measured the run it rode along on.
                assert_eq!(metrics.events.get(), bare.3);
                assert!(metrics.descent_depth.snapshot().count() > 0);
            }
        }
    }
}

/// The sharded engine under the same contract: identical outcome (loads,
/// weights, time, counters, steady summary) with observers on and off,
/// across thread counts.
#[test]
fn attached_observers_never_change_a_sharded_trajectory() {
    let initial = Config::uniform(N, PER_BIN).unwrap();
    let params = LiveParams::balanced(
        ArrivalProcess::Poisson { rate_per_bin: 2.0 },
        N,
        N as u64 * PER_BIN,
    )
    .unwrap();
    for threads in [1usize, 4] {
        let mut bare =
            ShardedEngine::new(initial.clone(), params, RlsRule::paper(), 4, 0.25, 0xA11).unwrap();
        let bare_outcome = bare.run(6.0, 0.0, threads);

        let registry = Registry::new();
        let mut tapped =
            ShardedEngine::new(initial.clone(), params, RlsRule::paper(), 4, 0.25, 0xA11).unwrap();
        tapped.attach_metrics(&registry);
        let tapped_outcome = tapped.run(6.0, 0.0, threads);

        assert_eq!(
            bare_outcome, tapped_outcome,
            "sharded outcome diverged under observation ({threads} threads)"
        );
        let metrics = tapped.metrics().expect("attached above");
        assert_eq!(metrics.shard_events.get(), tapped_outcome.counters.events);
        assert!(metrics.slices.get() > 0);
    }
}

/// One scripted command: kind ∈ {arrive, depart, ring}, with a coordinate
/// that is either pinned (modulo `n`) or left to the engine to sample.
fn command_strategy() -> impl Strategy<Value = (u8, u16, bool)> {
    (0u8..3, 0u16..64, (0u8..2).prop_map(|b| b == 1))
}

type Instance = (usize, usize, bool, u64, Vec<(u8, u16, bool)>);

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (
        0..POLICIES.len(),
        0..TOPOLOGIES.len(),
        (0u8..2).prop_map(|b| b == 1),
        0u64..1 << 48,
        prop::collection::vec(command_strategy(), 1..=50),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under an arbitrary scripted interleaving of arrivals, departures
    /// and rings, the instrumented engine answers every command with the
    /// exact event (or the exact error) the bare one produces, and the
    /// final state matches field by field.
    #[test]
    fn scripted_commands_are_identical_under_observation(
        (policy_idx, topo_idx, hetero, seed, script) in instance_strategy()
    ) {
        let policy = POLICIES[policy_idx];
        let topology = TOPOLOGIES[topo_idx];

        let mut bare = engine(policy, topology, hetero, seed);
        let registry = Registry::new();
        let mut tapped = engine(policy, topology, hetero, seed);
        tapped.attach_metrics(&registry);

        let mut bare_rng = rng_from_seed(seed);
        let mut tapped_rng = rng_from_seed(seed);
        for &(kind, coord, pin) in &script {
            let bin = pin.then_some(coord as usize % N);
            let cmd = match kind {
                0 => LiveCommand::Arrive { bin, weight: None },
                1 => LiveCommand::Depart { bin, weight: None },
                _ => LiveCommand::Ring { source: None, dest: None },
            };
            let a = bare.apply(&cmd, &mut bare_rng);
            let b = tapped.apply(&cmd, &mut tapped_rng);
            prop_assert_eq!(a, b, "reply diverged on {:?}", cmd);
        }

        prop_assert_eq!(bare.config().loads(), tapped.config().loads());
        prop_assert_eq!(bare.time().to_bits(), tapped.time().to_bits());
        prop_assert_eq!(bare.counters(), tapped.counters());
    }
}

/// What an engine's registry must hold after any public call: the
/// counter deltas since the attach, plus the descents and probes the
/// calls made, counted from what they were asked to do.
struct Expected {
    /// The counters when metrics were attached.
    base: LiveCounters,
    /// Clock descents: one per departure or ring whose bin was sampled.
    descents: u64,
    /// Candidate draws: `choices` per ring whose destination was sampled.
    probes: u64,
    choices: u64,
}

impl Expected {
    fn attach(eng: &mut LiveEngine, registry: &Registry) -> Self {
        eng.attach_metrics(registry);
        Self {
            base: eng.counters(),
            descents: 0,
            probes: 0,
            choices: eng.policy().choices() as u64,
        }
    }

    /// Simulated events between two counter readings: every departure
    /// and ring samples its bin, every ring its candidates.
    fn simulated(&mut self, before: LiveCounters, after: LiveCounters) {
        let rings = after.rings - before.rings;
        self.descents += after.departures - before.departures + rings;
        self.probes += rings * self.choices;
    }

    /// One applied command, if it succeeded.
    fn commanded(&mut self, cmd: &LiveCommand, applied: bool) {
        match *cmd {
            _ if !applied => {}
            LiveCommand::Depart { bin: None, .. } => self.descents += 1,
            LiveCommand::Ring { source, dest } => {
                self.descents += u64::from(source.is_none());
                self.probes += if dest.is_none() { self.choices } else { 0 };
            }
            _ => {}
        }
    }

    /// Every `rls_engine_*` series equals what the engine counted.
    fn check(&self, eng: &LiveEngine, call: &str) {
        let m = eng.metrics().expect("attached");
        let (now, base) = (eng.counters(), self.base);
        let rings = now.rings - base.rings;
        let moved = now.migrations - base.migrations;
        let series = [
            ("events", m.events.get(), now.events - base.events),
            ("arrivals", m.arrivals.get(), now.arrivals - base.arrivals),
            (
                "departures",
                m.departures.get(),
                now.departures - base.departures,
            ),
            ("rings", m.rings.get(), rings),
            ("moves_accepted", m.moves_accepted.get(), moved),
            ("moves_rejected", m.moves_rejected.get(), rings - moved),
            ("probes", m.probes.get(), self.probes),
            (
                "descent_depth count",
                m.descent_depth.count(),
                self.descents,
            ),
        ];
        for (name, published, counted) in series {
            assert_eq!(published, counted, "{name} after {call}");
        }
        // No engine here grows its tree, so every descent reads the same
        // number of levels.
        let clock = eng.rate_index().unwrap_or(eng.index());
        if clock.total() > 0 {
            let levels = u64::from(clock.bin_at_depth(0).1);
            let depths = m.descent_depth.snapshot();
            assert_eq!(
                depths.sum(),
                self.descents * levels,
                "depth sum after {call}"
            );
            if self.descents > 0 {
                assert_eq!(depths.max(), levels, "depth max after {call}");
            }
        }
    }
}

/// Commands for the `apply*` entry points: sampled and pinned
/// coordinates of each kind, plus ones the engine rejects.
fn commands() -> Vec<LiveCommand> {
    vec![
        LiveCommand::Arrive {
            bin: None,
            weight: None,
        },
        LiveCommand::Arrive {
            bin: Some(3),
            weight: None,
        },
        LiveCommand::Depart {
            bin: None,
            weight: None,
        },
        LiveCommand::Depart {
            bin: Some(5),
            weight: None,
        },
        LiveCommand::Ring {
            source: None,
            dest: None,
        },
        LiveCommand::Ring {
            source: Some(2),
            dest: None,
        },
        LiveCommand::Ring {
            source: None,
            dest: Some(0),
        },
        LiveCommand::Ring {
            source: Some(1),
            dest: Some(1),
        },
        LiveCommand::Depart {
            bin: Some(N + 4),
            weight: None,
        },
        LiveCommand::Ring {
            source: Some(N),
            dest: None,
        },
    ]
}

/// After every public entry point (`step`, `run_until`, `apply`,
/// `apply_with`, `apply_batch`) the registry holds exactly what the engine
/// counted since metrics were attached: the engine counts in plain fields
/// and publishes once per call.
#[test]
fn every_entry_point_publishes_exactly_the_counted_deltas() {
    for &policy in POLICIES {
        for topology in [Topology::Complete, Topology::Cycle] {
            for hetero in [false, true] {
                let seed = 0x5EED;
                let mut eng = engine(policy, topology, hetero, seed);
                let mut rng = rng_from_seed(seed);
                // History before the attach is not published.
                eng.run_until(1.0, &mut rng, &mut ());
                let registry = Registry::new();
                let mut want = Expected::attach(&mut eng, &registry);
                want.check(&eng, "attach");

                for _ in 0..20 {
                    let before = eng.counters();
                    eng.step(&mut rng);
                    want.simulated(before, eng.counters());
                    want.check(&eng, "step");
                }
                let before = eng.counters();
                eng.run_until(eng.time() + 2.0, &mut rng, &mut SteadyState::new(0.0));
                want.simulated(before, eng.counters());
                want.check(&eng, "run_until");

                // Pinned coordinates are rejected where the topology has
                // no such edge: only what was applied is counted.
                for cmd in commands() {
                    let applied = eng.apply(&cmd, &mut rng).is_ok();
                    want.commanded(&cmd, applied);
                    want.check(&eng, "apply");
                }
                let mut observer = SteadyState::new(0.0);
                for cmd in commands() {
                    let applied = eng.apply_with(&cmd, &mut rng, &mut observer).is_ok();
                    want.commanded(&cmd, applied);
                    want.check(&eng, "apply_with");
                }
                let batch: Vec<LiveCommand> = commands().into_iter().cycle().take(25).collect();
                let results = eng.apply_batch(&batch, &mut rng, &mut observer);
                for (cmd, result) in batch.iter().zip(&results) {
                    want.commanded(cmd, result.is_ok());
                }
                want.check(&eng, "apply_batch");
            }
        }
    }
}

/// `run_until` on a tree of 2²⁰ leaf slots (2¹⁹ + 1 bins, unit, complete
/// graph, greedy-2) draws events ahead of applying them; it publishes
/// exactly what the step loop would.
#[test]
fn run_until_publishes_exactly_on_the_draw_ahead_path() {
    let n = (1 << 19) + 1;
    let initial = Config::uniform(n, 1).unwrap();
    let params =
        LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 1.0 }, n, n as u64).unwrap();
    let policy = RebalancePolicy::GreedyD { d: 2 };
    let build = || LiveEngine::with_policy(initial.clone(), params, policy, Topology::Complete, 3);
    let (mut ahead, mut steps) = (build().unwrap(), build().unwrap());
    let (reg_ahead, reg_steps) = (Registry::new(), Registry::new());
    let mut want = Expected::attach(&mut ahead, &reg_ahead);
    steps.attach_metrics(&reg_steps);
    let (mut rng_ahead, mut rng_steps) = (rng_from_seed(11), rng_from_seed(11));
    for until in [1e-3, 2e-3] {
        let before = ahead.counters();
        ahead.run_until(until, &mut rng_ahead, &mut ());
        want.simulated(before, ahead.counters());
        want.check(&ahead, "run_until (draw-ahead)");
        while steps.time() < until {
            steps.step(&mut rng_steps);
        }
        assert_eq!(
            reg_ahead.render_prometheus(),
            reg_steps.render_prometheus(),
            "draw-ahead and step loop publish the same series"
        );
    }
    assert!(ahead.counters().rings > 1000, "the run saw rings");
}
