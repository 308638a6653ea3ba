//! The superposition simulation engine.
//!
//! The process of Section 3 assigns each ball an independent `Exp(1)` clock.
//! By the superposition property of Poisson processes the time to the *next*
//! ring anywhere in the system is `Exp(m)` and the ringing ball is uniform
//! over the `m` balls.  Balls are exchangeable, so "a uniform ball" is the
//! same law as "a bin with probability `load/m`" — which a counted tree over the
//! load vector ([`LoadIndex`]) answers in `O(log n)` with `O(n)` memory.
//! The engine therefore never materializes per-ball state: `m` is a plain
//! `u64` with no `u32::MAX` cap, and a billion-ball instance costs the same
//! memory as a thousand-ball one.  This is an exact simulation of the
//! continuous-time law, not a discretization or an approximation: the
//! sampled bin has exactly the distribution of the activated ball's bin.
//!
//! The engine is generic over a [`Policy`] (which move rule to apply) and an
//! [`Adversary`] (the destructive-move injector used by
//! the Lemma 2 experiments).  Where the activated ball looks for a
//! destination is a [`DestSampler`]: the paper's uniform draw over all bins
//! ([`Simulation::new`]) or a uniform neighbour of the source bin in a
//! sparse topology ([`Simulation::with_sampler`]) — the graph-restricted
//! process of the paper's Section 7 outlook, with the same clocks, rule and
//! stopping conditions.  Progress quantities (discrepancy, overloaded
//! balls, Phase-2 potential) are maintained incrementally through
//! [`LoadTracker`], so checking a stopping condition after every event is
//! O(1) too.

use rls_core::{Config, LoadIndex, LoadTracker, RlsRule};
use rls_graph::DestSampler;
use rls_rng::dist::{Distribution, Exponential};
use rls_rng::{Rng64, RngExt};

use crate::adversary::{Adversary, NoAdversary};
use crate::events::Event;
use crate::observer::Observer;
use crate::stopping::StopWhen;

/// A decision rule for sequential-activation protocols: given the current
/// loads, should the activated ball migrate from `source` to `dest`?
pub trait Policy {
    /// Decide the migration.  `source != dest` is guaranteed by the engine.
    fn permits(&self, loads: &[u64], source: usize, dest: usize) -> bool;

    /// A short name for experiment tables.
    fn name(&self) -> &'static str {
        "policy"
    }
}

/// The RLS rule as an engine policy (either variant).
#[derive(Debug, Clone, Copy)]
pub struct RlsPolicy {
    rule: RlsRule,
}

impl RlsPolicy {
    /// Wrap an RLS rule.
    pub fn new(rule: RlsRule) -> Self {
        Self { rule }
    }

    /// The underlying rule.
    pub fn rule(&self) -> RlsRule {
        self.rule
    }
}

impl Policy for RlsPolicy {
    #[inline]
    fn permits(&self, loads: &[u64], source: usize, dest: usize) -> bool {
        self.rule.permits_loads(loads[source], loads[dest])
    }

    fn name(&self) -> &'static str {
        self.rule.variant().name()
    }
}

/// Outcome of a [`Simulation::run`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Simulation time when the run stopped.
    pub time: f64,
    /// Total number of ball activations processed.
    pub activations: u64,
    /// Number of activations that resulted in a migration.
    pub migrations: u64,
    /// Whether the run stopped because the goal condition was met (as
    /// opposed to exhausting an event or time budget).
    pub reached_goal: bool,
    /// Discrepancy at the stopping instant.
    pub final_discrepancy: f64,
}

/// Continuous-time simulation state for a sequential-activation protocol.
#[derive(Debug, Clone)]
pub struct Simulation<P: Policy> {
    /// The counted tree over the loads; its leaves are the configuration.
    index: LoadIndex,
    tracker: LoadTracker,
    policy: P,
    sampler: DestSampler,
    time: f64,
    activations: u64,
    migrations: u64,
    waiting_time: Exponential,
}

/// Errors from constructing a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The process needs at least one ball to have any events.
    NoBalls,
    /// The destination sampler and the configuration disagree on the
    /// number of bins (one bin per graph vertex is required).
    SamplerSize {
        /// Bins in the configuration.
        bins: usize,
        /// Bins the sampler draws from.
        sampler: usize,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::NoBalls => write!(f, "simulation requires at least one ball"),
            SimError::SamplerSize { bins, sampler } => write!(
                f,
                "configuration has {bins} bins but the destination sampler has {sampler} \
                 (one bin per graph vertex is required)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl<P: Policy> Simulation<P> {
    /// Create a simulation starting from `initial` under the given policy,
    /// on the complete graph (the paper's uniform destination draw).
    ///
    /// Any `m ≥ 1` up to `u64::MAX` is accepted: the engine holds `O(n)`
    /// state regardless of the ball count.
    pub fn new(initial: Config, policy: P) -> Result<Self, SimError> {
        let n = initial.n();
        Self::with_sampler(initial, policy, DestSampler::Complete { n })
    }

    /// Create a simulation whose activated balls draw their destination
    /// from `sampler` — uniform over all bins, or over the source bin's
    /// neighbours in a sparse topology.  The sampler must cover exactly
    /// the configuration's bins.
    pub fn with_sampler(
        initial: Config,
        policy: P,
        sampler: DestSampler,
    ) -> Result<Self, SimError> {
        let m = initial.m();
        if m == 0 {
            return Err(SimError::NoBalls);
        }
        if sampler.n() != initial.n() {
            return Err(SimError::SamplerSize {
                bins: initial.n(),
                sampler: sampler.n(),
            });
        }
        let tracker = LoadTracker::new(&initial);
        let waiting_time =
            Exponential::new(m as f64).expect("m ≥ 1 gives a valid exponential rate");
        Ok(Self {
            index: LoadIndex::new(initial),
            tracker,
            policy,
            sampler,
            time: 0.0,
            activations: 0,
            migrations: 0,
            waiting_time,
        })
    }

    /// Current configuration: the index's leaves.
    pub fn config(&self) -> &Config {
        self.index.config()
    }

    /// Incrementally maintained summary of the configuration.
    pub fn tracker(&self) -> &LoadTracker {
        &self.tracker
    }

    /// The counted-tree index over the loads (exchangeable-ball sampling).
    pub fn index(&self) -> &LoadIndex {
        &self.index
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of activations processed so far.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Number of migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The policy driving this simulation.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Advance by exactly one activation and return the event.
    pub fn step<R: Rng64 + ?Sized>(&mut self, rng: &mut R) -> Event {
        let dt = self.waiting_time.sample(rng);
        self.time += dt;
        self.activations += 1;

        // The activated ball is uniform over m balls; exchangeability makes
        // that identical in law to "bin i with probability load_i / m".
        let rank = rng.next_below(self.index.total());
        let source = self.index.bin_at(rank);
        // On the complete graph this is exactly `rng.next_index(n)`; an
        // isolated vertex has no candidate and the ring is a no-op.
        let dest = self.sampler.sample(source, rng).unwrap_or(source);

        let mut moved = false;
        if source != dest && self.policy.permits(self.index.loads(), source, dest) {
            let (lf, lt) = (self.index.load(source), self.index.load(dest));
            self.tracker.record_move(lf, lt);
            self.index.record_move(source, dest);
            self.migrations += 1;
            moved = true;
        }

        Event::activation(self.time, source, dest, moved, self.activations)
    }

    /// Apply an externally chosen (typically destructive) move, relocating
    /// one arbitrary ball from `from` to `to`.  Used by adversaries.
    ///
    /// Returns `false` (and changes nothing) if the source bin is empty or
    /// an index is out of range.
    pub fn force_move(&mut self, from: usize, to: usize) -> bool {
        let n = self.index.n();
        if from == to || from >= n || to >= n || self.index.load(from) == 0 {
            return false;
        }
        let (lf, lt) = (self.index.load(from), self.index.load(to));
        self.tracker.record_move(lf, lt);
        self.index.record_move(from, to);
        true
    }

    /// Run until the stopping condition triggers.  Convenience wrapper
    /// around [`run_with`](Self::run_with) with no adversary and no
    /// observer.
    pub fn run<R: Rng64 + ?Sized>(&mut self, rng: &mut R, stop: StopWhen) -> RunOutcome {
        self.run_with(rng, stop, &mut NoAdversary, &mut ())
    }

    /// Run until the stopping condition triggers, consulting the adversary
    /// after every event and reporting every event to the observer.
    pub fn run_with<R, A, O>(
        &mut self,
        rng: &mut R,
        stop: StopWhen,
        adversary: &mut A,
        observer: &mut O,
    ) -> RunOutcome
    where
        R: Rng64 + ?Sized,
        A: Adversary,
        O: Observer,
    {
        let mut reached_goal = stop.goal_met(&self.tracker, self.time, self.activations);
        while !reached_goal && !stop.budget_exhausted(self.time, self.activations) {
            let event = self.step(rng);
            adversary.after_event(&event, self, rng);
            observer.on_event(&event, &self.tracker, self.time);
            reached_goal = stop.goal_met(&self.tracker, self.time, self.activations);
        }
        RunOutcome {
            time: self.time,
            activations: self.activations,
            migrations: self.migrations,
            reached_goal,
            final_discrepancy: self.tracker.discrepancy(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_graph::{Graph, Topology};
    use rls_rng::rng_from_seed;

    fn rls() -> RlsPolicy {
        RlsPolicy::new(RlsRule::paper())
    }

    /// A simulation restricted to `topology` on `n` bins (graph drawn from
    /// a fixed seed), starting with all `m` balls in bin 0.
    fn on_graph(topology: Topology, n: usize, m: u64) -> Simulation<RlsPolicy> {
        let graph = topology.build(n, &mut rng_from_seed(3)).unwrap();
        let initial = Config::all_in_one_bin(n, m).unwrap();
        Simulation::with_sampler(initial, rls(), DestSampler::Sparse { graph }).unwrap()
    }

    #[test]
    fn construction_errors() {
        let empty = Config::from_loads(vec![0, 0]).unwrap();
        assert_eq!(
            Simulation::new(empty, rls()).unwrap_err(),
            SimError::NoBalls
        );
        assert!(SimError::NoBalls.to_string().contains("at least one ball"));
    }

    #[test]
    fn complete_graph_stream_is_pinned() {
        // Golden values of the paper process's random stream: any change
        // to how a complete-graph step draws from the RNG (waiting time,
        // source rank, destination) changes these numbers.
        let cfg = Config::all_in_one_bin(16, 160).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        let out = sim.run(&mut rng_from_seed(2024), StopWhen::perfectly_balanced());
        assert!(out.reached_goal);
        assert_eq!(
            out.time.to_bits(),
            0x4011_72a1_880d_6270,
            "time {}",
            out.time
        );
        assert_eq!(out.activations, 698);
        assert_eq!(out.migrations, 273);
    }

    #[test]
    fn index_matches_loads_at_construction() {
        let cfg = Config::from_loads(vec![2, 0, 3]).unwrap();
        let sim = Simulation::new(cfg, rls()).unwrap();
        assert!(sim.index().matches(sim.config()));
        assert_eq!(sim.index().total(), 5);
    }

    #[test]
    fn step_advances_time_and_counts() {
        let cfg = Config::all_in_one_bin(4, 8).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        let mut rng = rng_from_seed(1);
        let e = sim.step(&mut rng);
        assert!(e.time > 0.0);
        assert_eq!(e.activations, 1);
        assert_eq!(e.ball(), None, "exchangeable sampling has no identity");
        assert_eq!(sim.activations(), 1);
        assert!(sim.time() > 0.0);
    }

    #[test]
    fn events_keep_tracker_and_index_consistent_with_config() {
        let cfg = Config::all_in_one_bin(8, 40).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        let mut rng = rng_from_seed(2);
        for _ in 0..5000 {
            sim.step(&mut rng);
        }
        assert!(sim.tracker().matches(sim.config()));
        assert!(sim.index().matches(sim.config()));
        assert_eq!(sim.config().m(), 40, "moves conserve balls");
        assert_eq!(
            sim.config().loads().as_ptr(),
            sim.index().loads().as_ptr(),
            "the configuration is the index's leaves, not a copy"
        );
    }

    #[test]
    fn reaches_perfect_balance_on_small_instance() {
        let cfg = Config::all_in_one_bin(8, 64).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        let mut rng = rng_from_seed(3);
        let outcome = sim.run(&mut rng, StopWhen::perfectly_balanced());
        assert!(outcome.reached_goal);
        assert!(sim.config().is_perfectly_balanced());
        assert_eq!(sim.config().loads().iter().sum::<u64>(), 64);
        assert!(outcome.migrations >= 56, "needs at least 64 - 8 moves");
        assert!(outcome.final_discrepancy < 1.0);
    }

    #[test]
    fn event_budget_is_respected() {
        let cfg = Config::all_in_one_bin(64, 64 * 64).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        let mut rng = rng_from_seed(4);
        let outcome = sim.run(
            &mut rng,
            StopWhen::perfectly_balanced().with_max_activations(100),
        );
        assert!(!outcome.reached_goal);
        assert_eq!(outcome.activations, 100);
    }

    #[test]
    fn time_budget_is_respected() {
        let cfg = Config::all_in_one_bin(64, 4096).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        let mut rng = rng_from_seed(5);
        let outcome = sim.run(&mut rng, StopWhen::perfectly_balanced().with_max_time(0.01));
        assert!(!outcome.reached_goal);
        assert!(outcome.time >= 0.01);
    }

    #[test]
    fn waiting_times_have_rate_m() {
        // Mean inter-event time should be ≈ 1/m.
        let m = 500u64;
        let cfg = Config::all_in_one_bin(10, m).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        let mut rng = rng_from_seed(6);
        let events = 20_000;
        for _ in 0..events {
            sim.step(&mut rng);
        }
        let mean_gap = sim.time() / events as f64;
        let expected = 1.0 / m as f64;
        assert!(
            (mean_gap - expected).abs() < 0.1 * expected,
            "mean gap {mean_gap}, expected {expected}"
        );
    }

    #[test]
    fn activated_bin_is_load_proportional() {
        // With loads (30, 10) the source of an activation must be bin 0
        // about 75% of the time — the uniform-ball law.
        let cfg = Config::from_loads(vec![30, 10]).unwrap();
        // A policy that never moves keeps the loads fixed.
        struct Frozen;
        impl Policy for Frozen {
            fn permits(&self, _: &[u64], _: usize, _: usize) -> bool {
                false
            }
        }
        let mut sim = Simulation::new(cfg, Frozen).unwrap();
        let mut rng = rng_from_seed(11);
        let trials = 40_000;
        let mut from_heavy = 0u64;
        for _ in 0..trials {
            if sim.step(&mut rng).source == 0 {
                from_heavy += 1;
            }
        }
        let frac = from_heavy as f64 / trials as f64;
        assert!(
            (frac - 0.75).abs() < 0.01,
            "heavy-bin activation fraction {frac}, expected 0.75"
        );
    }

    #[test]
    fn force_move_rejects_invalid_and_applies_valid() {
        let cfg = Config::from_loads(vec![3, 0, 1]).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        assert!(!sim.force_move(1, 0), "empty source");
        assert!(!sim.force_move(0, 0), "self loop");
        assert!(!sim.force_move(0, 9), "out of range");
        assert!(sim.force_move(2, 0), "valid destructive move");
        assert_eq!(sim.config().loads(), &[4, 0, 0]);
        assert!(sim.tracker().matches(sim.config()));
        assert!(sim.index().matches(sim.config()));
    }

    #[test]
    fn already_balanced_start_stops_immediately() {
        let cfg = Config::uniform(6, 5).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        let mut rng = rng_from_seed(7);
        let outcome = sim.run(&mut rng, StopWhen::perfectly_balanced());
        assert!(outcome.reached_goal);
        assert_eq!(outcome.activations, 0);
        assert_eq!(outcome.time, 0.0);
    }

    // Graph-restricted destinations (`with_sampler` on a sparse graph).

    #[test]
    fn csr_complete_graph_reaches_balance() {
        // The complete graph as an explicit adjacency: neighbour sampling
        // excludes self-samples but the process still balances.
        let mut sim = on_graph(Topology::Complete, 8, 64);
        let out = sim.run(&mut rng_from_seed(2), StopWhen::perfectly_balanced());
        assert!(out.reached_goal);
        assert!(out.final_discrepancy < 1.0);
        assert!(out.migrations >= 56);
    }

    #[test]
    fn cycle_reaches_perfect_balance_but_more_slowly() {
        let (n, m) = (16, 16 * 8);
        let mut complete = Simulation::new(Config::all_in_one_bin(n, m).unwrap(), rls()).unwrap();
        let mut cycle = on_graph(Topology::Cycle, n, m);
        let out_complete = complete.run(&mut rng_from_seed(4), StopWhen::perfectly_balanced());
        let out_cycle = cycle.run(&mut rng_from_seed(5), StopWhen::perfectly_balanced());
        assert!(out_complete.reached_goal);
        assert!(out_cycle.reached_goal);
        assert!(
            out_cycle.time > out_complete.time,
            "cycle ({}) should be slower than complete ({})",
            out_cycle.time,
            out_complete.time
        );
    }

    #[test]
    fn star_balances_through_the_hub() {
        let mut sim = on_graph(Topology::Star, 9, 45);
        let out = sim.run(&mut rng_from_seed(7), StopWhen::perfectly_balanced());
        assert!(out.reached_goal);
        assert!(sim.config().is_perfectly_balanced());
    }

    #[test]
    fn graph_activation_budget_is_respected() {
        let mut sim = on_graph(Topology::Cycle, 32, 512);
        let out = sim.run(
            &mut rng_from_seed(9),
            StopWhen::perfectly_balanced().with_max_activations(100),
        );
        assert!(!out.reached_goal);
        assert_eq!(out.activations, 100);
    }

    #[test]
    fn mismatched_sampler_size_is_a_typed_error() {
        let graph = Topology::Cycle.build(8, &mut rng_from_seed(10)).unwrap();
        let initial = Config::all_in_one_bin(4, 16).unwrap();
        let err =
            Simulation::with_sampler(initial, rls(), DestSampler::Sparse { graph }).unwrap_err();
        assert_eq!(
            err,
            SimError::SamplerSize {
                bins: 4,
                sampler: 8
            }
        );
        assert!(
            err.to_string().contains("one bin per graph vertex"),
            "{err}"
        );
    }

    #[test]
    fn isolated_vertices_never_receive_balls() {
        // A path plus one isolated vertex: balls can never reach vertex 3,
        // so perfect balance is unreachable, but the process must not panic
        // and must respect its budget.
        let graph = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let initial = Config::all_in_one_bin(4, 12).unwrap();
        let mut sim =
            Simulation::with_sampler(initial, rls(), DestSampler::Sparse { graph }).unwrap();
        let out = sim.run(
            &mut rng_from_seed(12),
            StopWhen::perfectly_balanced().with_max_activations(50_000),
        );
        assert!(!out.reached_goal);
        assert_eq!(out.activations, 50_000);
        assert_eq!(sim.config().load(3), 0);
        assert!(out.final_discrepancy >= 1.0);

        // A ball sitting on the isolated vertex rings as a no-op.
        let initial = Config::from_loads(vec![0, 0, 0, 5]).unwrap();
        let graph = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let mut sim =
            Simulation::with_sampler(initial, rls(), DestSampler::Sparse { graph }).unwrap();
        let event = sim.step(&mut rng_from_seed(13));
        assert_eq!((event.source, event.dest, event.moved), (3, 3, false));
        assert_eq!(sim.config().loads(), &[0, 0, 0, 5]);
    }

    #[test]
    fn graph_migrations_run_along_edges() {
        struct EdgeCheck<'g> {
            graph: &'g Graph,
            migrations: u64,
        }
        impl Observer for EdgeCheck<'_> {
            fn on_event(&mut self, event: &Event, _: &LoadTracker, _: f64) {
                if event.moved {
                    assert!(
                        self.graph.has_edge(event.source, event.dest),
                        "migration {} -> {} is not an edge",
                        event.source,
                        event.dest
                    );
                    self.migrations += 1;
                }
            }
        }
        for topology in [Topology::Cycle, Topology::Torus2D] {
            let graph = topology.build(16, &mut rng_from_seed(3)).unwrap();
            let initial = Config::all_in_one_bin(16, 16 * 8).unwrap();
            let sampler = DestSampler::Sparse {
                graph: graph.clone(),
            };
            let mut sim = Simulation::with_sampler(initial, rls(), sampler).unwrap();
            let mut check = EdgeCheck {
                graph: &graph,
                migrations: 0,
            };
            let out = sim.run_with(
                &mut rng_from_seed(14),
                StopWhen::perfectly_balanced(),
                &mut NoAdversary,
                &mut check,
            );
            assert!(out.reached_goal, "{topology}");
            assert_eq!(check.migrations, out.migrations, "{topology}");
            assert!(sim.index().matches(sim.config()), "{topology}");
            assert!(sim.tracker().matches(sim.config()), "{topology}");
        }
    }

    #[test]
    fn strict_variant_also_balances() {
        let cfg = Config::all_in_one_bin(6, 36).unwrap();
        let policy = RlsPolicy::new(RlsRule::new(rls_core::RlsVariant::Strict));
        assert_eq!(policy.name(), "rls-strict");
        let mut sim = Simulation::new(cfg, policy).unwrap();
        let mut rng = rng_from_seed(8);
        let outcome = sim.run(&mut rng, StopWhen::perfectly_balanced());
        assert!(outcome.reached_goal);
        assert!(sim.config().is_perfectly_balanced());
    }
}
