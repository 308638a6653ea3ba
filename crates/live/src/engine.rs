//! The sequential live engine: one superposed event source.
//!
//! The live process is a continuous-time Markov chain over load vectors
//! with a *varying* ball count: three independent Poisson sources are
//! superposed —
//!
//! * **arrival epochs** at rate `λ_e` (the [`ArrivalProcess`] epoch rate),
//! * **departures** at rate `m·μ` (each ball has an `Exp(μ)` remaining
//!   lifetime; balls are exchangeable, so the departing ball is uniform),
//! * **RLS rings** at rate `m` (the paper's rate-1 per-ball clocks).
//!
//! Exactly as in `rls-sim`'s static engine, the superposition property
//! makes one event O(1): the time to the next event anywhere is
//! `Exp(λ_e + m·μ + m)`, and the event type is chosen proportionally to
//! the component rates.  The ball count `m` changes as arrivals and
//! departures occur, so the total rate is re-derived every step — the
//! engine simulates the exact law, not a discretization.
//!
//! Because balls are exchangeable, "a uniform ball" (the departing ball,
//! the ringing ball) is the same law as "a bin with probability `load/m`",
//! which a counted tree over the load vector ([`LoadIndex`]) answers in
//! `O(log n)`.  The engine therefore holds `O(n)` state with no per-ball
//! map and no `u32::MAX` ball cap: `m` is `u64` end to end.

// detlint: allow-file(D004) the live process is a continuous-time chain:
// event times and rate comparisons are f64 by construction.  Determinism
// still holds — IEEE 754 ops are exact functions of their operands, the
// evaluation order is fixed, and every draw comes from seeded streams —
// and the replay log stores each resolved outcome, so replays never
// re-derive a float decision.

use rls_core::{
    BinState, Config, Descent, HeteroRingContext, LoadIndex, LoadTracker, Membership,
    MembershipSnapshot, RebalancePolicy, RingContext, RingDecision, RlsRule,
};
use rls_graph::{ElasticDest, Topology};
use rls_rng::dist::{Distribution, Exponential, Poisson};
use rls_rng::{Rng64, RngExt};
use rls_workloads::{ArrivalProcess, ChurnEvent, ChurnProcess, WeightDist};
use serde::{Deserialize, Serialize};

use std::cell::Cell;
use std::sync::Arc;

use rls_obs::{Counter, Registry};

use crate::books::{self, Books};
use crate::command::LiveCommand;
use crate::event::{bin_u32, ArrivalBins, DrainRecord, JoinRecord, LiveEvent, LiveEventKind};
use crate::metrics::LiveMetrics;
use crate::observer::LiveObserver;
use crate::LiveError;

/// The dynamics of a live instance: the arrival stream plus the per-ball
/// departure rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LiveParams {
    /// Law of the arrival stream.
    pub arrivals: ArrivalProcess,
    /// Per-ball departure rate `μ` (`0` = balls never leave).
    pub service_rate: f64,
}

impl LiveParams {
    /// Parameters that hold the expected population at `m` balls in an
    /// `n`-bin system: with total arrival rate `λ = α·n` and per-ball
    /// departure rate `μ = λ/m`, the population is an M/M/∞ queue with
    /// stationary mean `λ/μ = m` — so the *target load* `ρ = m/n` is the
    /// steady-state density.
    pub fn balanced(arrivals: ArrivalProcess, n: usize, m: u64) -> Result<Self, LiveError> {
        arrivals.validate().map_err(LiveError::params)?;
        if m == 0 {
            return Err(LiveError::params("target population must be positive"));
        }
        Ok(Self {
            arrivals,
            service_rate: arrivals.total_rate(n) / m as f64,
        })
    }

    /// Validate the parameter combination.
    pub fn validate(&self) -> Result<(), LiveError> {
        self.arrivals.validate().map_err(LiveError::params)?;
        if !(self.service_rate.is_finite() && self.service_rate >= 0.0) {
            return Err(LiveError::params(
                "service rate must be finite and non-negative",
            ));
        }
        Ok(())
    }
}

/// Aggregate counters of a live run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveCounters {
    /// Balls that arrived.
    pub arrivals: u64,
    /// Balls that departed.
    pub departures: u64,
    /// RLS clock rings processed.
    pub rings: u64,
    /// Rings that migrated a ball.
    pub migrations: u64,
    /// Bins that joined the live set (scale-out).
    pub joins: u64,
    /// Bins that drained and retired (scale-in).
    pub drains: u64,
    /// Events processed (arrival epochs + departures + rings + scale
    /// events).
    pub events: u64,
}

/// Most load-index levels a clock descent can read: `⌈64 / 3⌉` for an
/// 8-ary tree over a `usize` capacity.
const MAX_DESCENT_LEVELS: usize = 22;

/// Attached telemetry: the registry's handles, the counters already
/// added to them, and the counts only telemetry reads, kept in plain
/// cells until the next publish (cells, so a ring decision or a clock
/// descent, which only read the engine, can count themselves).
#[derive(Debug, Clone)]
struct Telemetry {
    metrics: Arc<LiveMetrics>,
    /// The engine's counters as of the last publish.
    published: LiveCounters,
    /// Candidate destinations sampled by ring decisions since then.
    probes: Cell<u64>,
    /// Clock-rank descents since then, by the number of tree levels
    /// they read.
    descents: [Cell<u64>; MAX_DESCENT_LEVELS + 1],
    /// Whether publishing waits for
    /// [`release_telemetry`](LiveEngine::release_telemetry).
    held: bool,
}

/// Adds `n` to `counter`, skipping the atomic when there is nothing to
/// add.
fn add(counter: &Counter, n: u64) {
    if n > 0 {
        counter.add(n);
    }
}

/// The weight law and speeds of a weighted/speed-aware engine (see
/// [`LiveEngine::with_hetero`]); its per-bin trees and ball weights live
/// in the engine's [`Books`].  `None` on the engine is the classic unit
/// process.  Bin `i` runs at integer speed `s_i ≥ 1`: each ball it holds
/// departs at rate `μ·s_i` and rings at rate `s_i`, so the clocks run on
/// the rate mass `R = Σ s_i·ℓ_i` instead of the ball count `m`.
#[derive(Debug, Clone)]
struct Hetero {
    /// Law of arriving ball weights.
    dist: WeightDist,
    /// Per-bin integer speeds (all `≥ 1`).
    speeds: Vec<u64>,
    /// `Σ s_i` over the live bins, the denominator of the speed-scaled
    /// average.
    total_speed: u64,
}

/// The speed vector the books index by (empty on unit engines, whose
/// books never read it).
#[inline]
fn speeds(hetero: &Option<Hetero>) -> &[u64] {
    hetero.as_ref().map_or(&[], |h| &h.speeds)
}

/// The [`BinState`] of `bin` (weight + speed), for the policy layer.
#[inline]
fn bin_state(books: &Books, h: &Hetero, bin: usize) -> BinState {
    BinState {
        weight: books.weights()[bin],
        speed: h.speeds[bin],
    }
}

/// Events [`LiveEngine::run_until`] draws ahead of applying them (see
/// [`LiveEngine::run_ahead`]).  An event's leaf node is prefetched
/// `AHEAD / 2` events after it was drawn.
const AHEAD: usize = 16;

/// The smallest tree, in leaf slots, on which [`LiveEngine::run_until`]
/// draws ahead (a power of two: more than 2¹⁹ bins).  Below it the tree
/// and loads stay in L2, prefetching buys little, and the staged descents
/// and the queue cost time: an in-process sweep (greedy-2, 16 balls per
/// bin, `run_until` slices of about 18k events, 2-vCPU Xeon guest)
/// measured the step loop's time over draw-ahead's at 0.67× for 2¹⁰
/// bins, 0.72× for 2¹⁷, 0.89× for 2¹⁸, 0.88–1.08× (median 0.97×) for
/// 2¹⁹, 1.40× for 2²⁰ and 1.66× for 2²².
const AHEAD_MIN_CAPACITY: usize = 1 << 20;

/// The most ring candidates a drawn-ahead event holds: greedy-`d` with a
/// larger `d` runs the plain [`LiveEngine::step`] loop.
const AHEAD_CHOICES: usize = 4;

/// Which superposed source produced an event (see
/// [`LiveEngine::draw_band`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Band {
    Arrival,
    Departure,
    Ring,
    Churn,
}

/// The random part of one event, drawn before the event is applied.
#[derive(Debug)]
struct Drawn {
    /// The event's time.
    time: f64,
    what: Ahead,
    /// Where the prefetching descent of the clock rank stands (`None` for
    /// arrivals).  A hint only: the event's bin comes from a full descent
    /// when it is applied.
    descent: Option<Descent>,
}

/// The draws of one drawn-ahead event.
#[derive(Debug)]
enum Ahead {
    /// The placed bins, in draw order.
    Arrival(ArrivalBins),
    /// The departing ball's clock rank.
    Departure { rank: u64 },
    /// The ringing ball's clock rank and the candidates in draw order
    /// (the first `policy.choices()` are drawn).
    Ring {
        rank: u64,
        candidates: [usize; AHEAD_CHOICES],
    },
}

impl Drawn {
    /// The ball count after this event, from `m` before it (an overflow
    /// saturates here and panics when the arrival is applied, as in
    /// [`LiveEngine::step`]).
    fn population_after(&self, m: u64) -> u64 {
        match &self.what {
            Ahead::Arrival(bins) => m.saturating_add(bins.len() as u64),
            Ahead::Departure { .. } => m - 1,
            Ahead::Ring { .. } => m,
        }
    }

    /// Second prefetch stage: read the level-1 node (prefetched when the
    /// event was drawn) and prefetch the leaf node of the clock rank.
    fn prefetch_leaf(&mut self, index: &LoadIndex) {
        self.descent = self.descent.and_then(|d| index.descend(d, 0));
        if let Some(d) = self.descent {
            index.prefetch(d);
        }
    }
}

/// The sequential online engine.
///
/// Drive it in either of two modes:
///
/// * **simulation** — [`step`](Self::step)/[`run_until`](Self::run_until)
///   let the engine choose every event from the superposed process;
/// * **external drive** — [`apply`](Self::apply) applies one caller-chosen
///   [`LiveCommand`] (the serving layer's mode: real requests decide what
///   happens, the engine keeps the load vector, clock and counters exact).
///
/// ```
/// use rls_core::{Config, RlsRule};
/// use rls_live::{LiveCommand, LiveEngine, LiveParams};
/// use rls_rng::rng_from_seed;
/// use rls_workloads::ArrivalProcess;
///
/// let initial = Config::uniform(8, 4).unwrap();
/// let params = LiveParams::balanced(
///     ArrivalProcess::Poisson { rate_per_bin: 1.0 }, 8, 32).unwrap();
/// let mut engine = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
/// let mut rng = rng_from_seed(7);
///
/// // External drive: a request arrives, a ball departs bin 0, one
/// // rebalance ring fires.
/// let arrived = engine.apply(
///     &LiveCommand::Arrive { bin: None, weight: None }, &mut rng).unwrap();
/// assert_eq!(arrived.balls_added(), 1);
/// engine.apply(&LiveCommand::Depart { bin: Some(0), weight: None }, &mut rng).unwrap();
/// engine.apply(&LiveCommand::Ring { source: None, dest: None }, &mut rng).unwrap();
/// assert_eq!(engine.config().m(), 32);
/// assert_eq!(engine.counters().events, 3);
/// ```
#[derive(Debug, Clone)]
pub struct LiveEngine {
    tracker: LoadTracker,
    /// The per-bin books: the counted tree over the loads, whose leaves
    /// are the configuration (uniform-ball sampling in O(log n) with no
    /// per-ball state) and, on weighted engines, the weight and rate-mass
    /// trees and per-ball weights.
    books: Books,
    params: LiveParams,
    /// The decision rule applied per ring (enum-dispatched: part of the
    /// engine's snapshot identity).
    policy: RebalancePolicy,
    /// Where a ringing ball may sample its destination (elastic: patched
    /// or rebuilt on every membership change).
    dest: ElasticDest,
    /// Which bin ids are live, plus the epoch log of every scale event
    /// (snapshots persist the log; replaying it is exact).
    membership: Membership,
    /// The law of bin joins/drains superposed into the CTMC (its majorant
    /// rate joins the total; candidates are resolved by exact thinning).
    churn: ChurnProcess,
    /// The topology family `dest` was built from (persisted in snapshots
    /// so a restore rebuilds the identical adjacency).
    topology: Topology,
    /// Seed the adjacency was drawn from (random topologies).
    graph_seed: u64,
    time: f64,
    seq: u64,
    counters: LiveCounters,
    /// Weight law and speeds (`None`: unit process).
    hetero: Option<Hetero>,
    /// Telemetry taps ([`attach_metrics`](Self::attach_metrics)). Never
    /// part of snapshot identity, never consulted by the dynamics: events
    /// only bump plain counts, and each public call ends by adding what
    /// they gained to the registry ([`publish`](Self::publish)), which is
    /// what the observers-on-vs-off bit-identity tests pin down.
    /// Boxed, so an engine without metrics stays as small as before.
    telemetry: Option<Box<Telemetry>>,
}

impl LiveEngine {
    /// Create an engine over the initial configuration, running the
    /// paper's model: the given RLS rule on the complete graph.
    ///
    /// Any population up to `u64::MAX` is accepted: the engine holds
    /// `O(n)` state regardless of the ball count.
    pub fn new(initial: Config, params: LiveParams, rule: RlsRule) -> Result<Self, LiveError> {
        Self::with_policy(
            initial,
            params,
            RebalancePolicy::Rls {
                variant: rule.variant(),
            },
            Topology::Complete,
            0,
        )
    }

    /// Create an engine over an arbitrary `(policy, topology)` pair.
    ///
    /// The destination sampler is built once here: the complete graph
    /// keeps the O(1) uniform draw, sparse topologies materialize a CSR
    /// adjacency drawn from `graph_seed` (the same `(topology, n,
    /// graph_seed)` always yields the same graph, which is what makes
    /// snapshots of graph-restricted runs restorable bit-identically).
    pub fn with_policy(
        initial: Config,
        params: LiveParams,
        policy: RebalancePolicy,
        topology: Topology,
        graph_seed: u64,
    ) -> Result<Self, LiveError> {
        params.validate()?;
        policy.validate().map_err(LiveError::params)?;
        let dest = ElasticDest::build(topology, initial.n(), graph_seed)
            .map_err(|e| LiveError::params(format!("topology `{topology}`: {e}")))?;
        let membership = Membership::new(initial.n());
        let tracker = LoadTracker::new(&initial);
        Ok(Self {
            tracker,
            books: Books::unit(initial),
            params,
            policy,
            dest,
            membership,
            churn: ChurnProcess::None,
            topology,
            graph_seed,
            time: 0.0,
            seq: 0,
            counters: LiveCounters::default(),
            hetero: None,
            telemetry: None,
        })
    }

    /// Superpose a membership churn stream into the event source.  The
    /// majorant rate joins the CTMC total; candidate events are resolved
    /// by exact thinning, so a [`ChurnProcess::None`] engine (the default)
    /// is bit-identical to the pre-elastic law.
    pub fn set_churn(&mut self, churn: ChurnProcess) -> Result<(), LiveError> {
        churn.validate().map_err(LiveError::params)?;
        self.churn = churn;
        Ok(())
    }

    /// Create a *heterogeneous* engine: balls drawn from `dist`, bin `i`
    /// running at `speeds[i]` (integers `≥ 1`).  Weights for the initial
    /// configuration's balls are drawn from `dist` bin by bin (no draws
    /// for the unit distribution, which keeps unit boots bit-identical to
    /// [`with_policy`](Self::with_policy) boots on the same stream).
    #[allow(clippy::too_many_arguments)]
    pub fn with_hetero<R: Rng64 + ?Sized>(
        initial: Config,
        params: LiveParams,
        policy: RebalancePolicy,
        topology: Topology,
        graph_seed: u64,
        dist: WeightDist,
        speeds: Vec<u64>,
        rng: &mut R,
    ) -> Result<Self, LiveError> {
        let balls = books::draw_balls(initial.loads(), dist, rng)?;
        let mut engine = Self::with_policy(initial, params, policy, topology, graph_seed)?;
        engine.attach_hetero(dist, speeds, balls)?;
        Ok(engine)
    }

    /// Attach heterogeneity state to a freshly built engine, rebuilding
    /// the books from the current loads (also the snapshot-restore path).
    pub(crate) fn attach_hetero(
        &mut self,
        dist: WeightDist,
        speeds: Vec<u64>,
        balls: Option<Vec<Vec<u64>>>,
    ) -> Result<(), LiveError> {
        self.books.attach_hetero(dist, &speeds, balls)?;
        // Only live bins contribute to the speed-scaled average; on a
        // churn-free engine the live set is exactly `0..n`, so this is the
        // same sum in the same order as the pre-elastic engine computed.
        // (The books checked that the sum over all bins fits.)
        let total_speed = self
            .membership
            .live_ids()
            .iter()
            .map(|&b| speeds[b as usize])
            .sum();
        self.hetero = Some(Hetero {
            dist,
            speeds,
            total_speed,
        });
        Ok(())
    }

    /// Attach telemetry taps resolved from `registry` (the probe counter
    /// is labeled with this engine's policy spec string).
    ///
    /// Attaching observers never changes the trajectory: events bump
    /// plain counts (the [`LiveCounters`], plus probe and per-depth
    /// descent counts while metrics are attached), and each public call
    /// ([`step`](Self::step), [`run_until`](Self::run_until),
    /// [`apply`](Self::apply), [`apply_with`](Self::apply_with),
    /// [`apply_batch`](Self::apply_batch), [`run_rings`](Self::run_rings))
    /// ends by adding what they gained to the registry (unless a caller
    /// [holds](Self::hold_telemetry) it for a batch of calls) —
    /// write-only, consuming no randomness.  `tests/obs_identity.rs` checks bit-identity against an unobserved
    /// engine for every (policy, topology, hetero) scenario.  The
    /// registry counts from here on: events before the attach are not
    /// added.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.telemetry = Some(Box::new(Telemetry {
            metrics: LiveMetrics::register(registry, &self.policy.to_string()),
            published: self.counters,
            probes: Cell::new(0),
            descents: Default::default(),
            held: false,
        }));
    }

    /// Hold the telemetry the following calls gain instead of publishing
    /// it at the end of each: a caller that runs a batch of calls (the
    /// serving layer, one pipelined batch under one lock hold) then
    /// publishes once per batch with
    /// [`release_telemetry`](Self::release_telemetry).  The counts are the
    /// same; only when they reach the registry moves.  A no-op without
    /// metrics.
    pub fn hold_telemetry(&mut self) {
        if let Some(t) = &mut self.telemetry {
            t.held = true;
        }
    }

    /// Publish what was held since
    /// [`hold_telemetry`](Self::hold_telemetry), and publish at the end of
    /// every call again from here on.
    pub fn release_telemetry(&mut self) {
        if let Some(t) = &mut self.telemetry {
            t.held = false;
        }
        self.publish();
    }

    /// The attached telemetry handles, if any.
    pub fn metrics(&self) -> Option<&Arc<LiveMetrics>> {
        self.telemetry.as_ref().map(|t| &t.metrics)
    }

    /// Add the counts gained since the last publish to the attached
    /// registry (a no-op without one, or while it is
    /// [held](Self::hold_telemetry)).  Every public entry point that
    /// applies events ends here, so a scrape is exact between calls; the
    /// counters are added with [`Counter::add`], so cells shared with an
    /// earlier engine on the same registry keep accumulating.
    fn publish(&mut self) {
        let Some(t) = self.telemetry.as_deref_mut().filter(|t| !t.held) else {
            return;
        };
        let (now, was, m) = (self.counters, t.published, &t.metrics);
        add(&m.events, now.events - was.events);
        add(&m.arrivals, now.arrivals - was.arrivals);
        add(&m.departures, now.departures - was.departures);
        let (rings, moved) = (now.rings - was.rings, now.migrations - was.migrations);
        add(&m.rings, rings);
        add(&m.moves_accepted, moved);
        add(&m.moves_rejected, rings - moved);
        add(&m.probes, t.probes.take());
        for (depth, count) in t.descents.iter().enumerate() {
            m.descent_depth.record_n(depth as u64, count.take());
        }
        t.published = now;
    }

    /// Current configuration: the count tree's leaves.
    pub fn config(&self) -> &Config {
        self.index().config()
    }

    /// Incrementally maintained summary of the configuration.
    pub fn tracker(&self) -> &LoadTracker {
        &self.tracker
    }

    /// The counted-tree index over the loads (exchangeable-ball sampling).
    pub fn index(&self) -> &LoadIndex {
        self.books.counts()
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Aggregate counters so far.
    pub fn counters(&self) -> LiveCounters {
        self.counters
    }

    /// The dynamics parameters.
    pub fn params(&self) -> LiveParams {
        self.params
    }

    /// The rebalance policy in force.
    pub fn policy(&self) -> RebalancePolicy {
        self.policy
    }

    /// The topology family destinations are sampled from.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Seed the (sparse) adjacency was drawn from.
    pub fn graph_seed(&self) -> u64 {
        self.graph_seed
    }

    /// The elastic destination sampler (read-only; patched or rebuilt on
    /// every membership change).
    pub fn elastic_dest(&self) -> &ElasticDest {
        &self.dest
    }

    /// Which bin ids are live, plus the epoch log of scale events.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Current membership epoch (number of scale events since boot).
    pub fn epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// Number of currently live bins (`config().n()` until the first scale
    /// event; retired slots keep their id but leave the live set).
    pub fn live_count(&self) -> usize {
        self.membership.live_count()
    }

    /// The churn process superposed into the event source.
    pub fn churn(&self) -> ChurnProcess {
        self.churn
    }

    /// Whether this engine carries heterogeneity state (weighted balls
    /// and/or per-bin speeds).
    pub fn is_hetero(&self) -> bool {
        self.hetero.is_some()
    }

    /// The law of arriving ball weights ([`WeightDist::Unit`] on unit
    /// engines).
    pub fn weight_dist(&self) -> WeightDist {
        self.hetero.as_ref().map_or(WeightDist::Unit, |h| h.dist)
    }

    /// Per-bin speeds, when heterogeneous state is attached.
    pub fn speeds(&self) -> Option<&[u64]> {
        self.hetero.as_ref().map(|h| h.speeds.as_slice())
    }

    /// Speed of one bin (`1` on unit engines).
    pub fn speed(&self, bin: usize) -> u64 {
        self.hetero.as_ref().map_or(1, |h| h.speeds[bin])
    }

    /// Total ball weight of one bin (the load on unit engines).
    pub fn bin_weight(&self, bin: usize) -> u64 {
        self.books.weights()[bin]
    }

    /// Total ball weight `W = Σ W_i` (`m` on unit engines).
    pub fn total_weight(&self) -> u64 {
        self.books.total_weight()
    }

    /// Total speed `S = Σ s_i` (`n` on unit engines).
    pub fn total_speed(&self) -> u64 {
        self.hetero
            .as_ref()
            .map_or(self.index().n() as u64, |h| h.total_speed)
    }

    /// Normalized load `W_i / s_i` of one bin (the plain load on unit
    /// engines).
    pub fn normalized_load(&self, bin: usize) -> f64 {
        self.bin_weight(bin) as f64 / self.speed(bin) as f64
    }

    /// The per-ball weights of one bin, when the engine stores them
    /// (non-unit weight distributions only; order is not meaningful —
    /// balls within a bin are exchangeable).
    pub fn ball_weights(&self, bin: usize) -> Option<&[u64]> {
        self.books.ball_weights(bin)
    }

    /// The counted tree over per-bin total weight, when heterogeneous
    /// state is attached (exposed for property tests).
    pub fn weight_index(&self) -> Option<&LoadIndex> {
        self.books.weight_index()
    }

    /// The counted tree over per-bin rate mass `s_i·ℓ_i`, when
    /// heterogeneous state is attached (exposed for property tests).
    pub fn rate_index(&self) -> Option<&LoadIndex> {
        self.books.rate_index()
    }

    /// Draw an arrival weight under the engine's weight law: `None` when
    /// the engine would not consume randomness for it (unit engines and
    /// the unit distribution), `Some(w)` otherwise.  The serving layer
    /// resolves open arrival weights through this so its replies can echo
    /// the weight while the engine keeps owning the law.
    pub fn sample_arrival_weight<R: Rng64 + ?Sized>(&self, rng: &mut R) -> Option<u64> {
        match &self.hetero {
            Some(h) if !h.dist.is_unit() => Some(h.dist.sample(rng)),
            _ => None,
        }
    }

    /// Whether the engine stores per-ball weights (non-unit distribution).
    pub fn stores_ball_weights(&self) -> bool {
        self.hetero.as_ref().is_some_and(|h| !h.dist.is_unit())
    }

    /// Verify the heterogeneity bookkeeping against a from-scratch recount
    /// (test/debug helper, `O(n + m)`): the weight and rate-mass trees'
    /// totals and leaves and the per-ball vectors must all agree with the
    /// loads and the speeds.
    pub fn hetero_matches(&self) -> bool {
        self.hetero.is_none() || self.books.matches(speeds(&self.hetero))
    }

    /// The law of how many auto-rebalance rings to run after one
    /// arrival: `Poisson(mean)`, the same memoryless law as the paper's
    /// per-ball ring clocks.  The serving layer builds it once from its
    /// policy and samples it per arrival, so the serve and live
    /// ring-count laws cannot drift.
    ///
    /// A degenerate mean (non-positive, NaN, or infinite — e.g. a
    /// ring-to-arrival ratio computed against a subnormal arrival rate)
    /// has no law: `None`, which callers read as `0` rings rather than
    /// panicking their engine thread.
    pub fn auto_ring_law(mean: f64) -> Option<Poisson> {
        Poisson::new(mean).ok()
    }

    /// Rebuild an engine from raw parts (snapshot restore).  The load
    /// vector alone determines the sampling state — balls are exchangeable,
    /// so there is no per-ball map to restore — and the destination
    /// sampler is rebuilt by constructing the boot-time adjacency from
    /// `(topology, initial_n, graph_seed)` and replaying the membership
    /// epoch log through it record by record, which re-derives every
    /// elastic patch exactly.  (Building at the grown capacity instead
    /// would be wrong — and can even be infeasible, e.g. a random-regular
    /// family at an odd `n·d`.)
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        cfg: Config,
        params: LiveParams,
        policy: RebalancePolicy,
        topology: Topology,
        graph_seed: u64,
        membership: MembershipSnapshot,
        churn: ChurnProcess,
        time: f64,
        seq: u64,
        counters: LiveCounters,
    ) -> Result<Self, LiveError> {
        params.validate()?;
        policy.validate().map_err(LiveError::params)?;
        churn.validate().map_err(LiveError::params)?;
        // Check the id count against the load vector before building
        // anything sized by `initial_n`, which comes off the wire.
        let joins = membership.log.iter().filter(|rec| rec.joined).count();
        if membership.initial_n.checked_add(joins) != Some(cfg.n()) {
            return Err(LiveError::snapshot(format!(
                "membership log allocates {} + {joins} bin ids but the load vector has {}",
                membership.initial_n,
                cfg.n()
            )));
        }
        let mut dest = ElasticDest::build(topology, membership.initial_n, graph_seed)
            .map_err(|e| LiveError::params(format!("topology `{topology}`: {e}")))?;
        let membership = membership
            .replay_with(|rec, m| dest.apply(rec, m))
            .map_err(LiveError::snapshot)?;
        if let Some(bin) = (0..cfg.n()).find(|&b| !membership.is_live(b) && cfg.load(b) != 0) {
            return Err(LiveError::snapshot(format!(
                "retired bin {bin} carries load {} (drains relocate every ball)",
                cfg.load(bin)
            )));
        }
        // The tracker aggregates over *live* bins only: a retired slot sits
        // permanently at load zero and must not drag min/average/gap down.
        let tracker = if membership.is_elastic() {
            let live_loads: Vec<u64> = membership
                .live_ids()
                .iter()
                .map(|&b| cfg.load(b as usize))
                .collect();
            LoadTracker::new(
                &Config::from_loads(live_loads)
                    .map_err(|e| LiveError::snapshot(format!("live loads: {e}")))?,
            )
        } else {
            LoadTracker::new(&cfg)
        };
        Ok(Self {
            tracker,
            books: Books::unit(cfg),
            params,
            policy,
            dest,
            membership,
            churn,
            topology,
            graph_seed,
            time,
            seq,
            counters,
            hetero: None,
            telemetry: None,
        })
    }

    /// The bin owning clock rank `rank ∈ [0, clock_mass)` (see
    /// [`Books::clock_bin`]), tallying the descent depth while metrics
    /// are attached.
    fn clock_bin(&self, rank: u64) -> usize {
        let (bin, depth) = self.books.clock_bin(rank);
        if let Some(t) = &self.telemetry {
            let count = &t.descents[depth as usize];
            count.set(count.get() + 1);
        }
        bin
    }

    /// Total event rate at the current population: arrivals + departures +
    /// rings + the churn majorant (zero without churn; adding `0.0` to the
    /// non-negative sum leaves the bits unchanged, so churn-free totals are
    /// bit-identical to the pre-elastic law).
    pub fn total_rate(&self) -> f64 {
        let clock = self.books.clock_mass() as f64;
        self.params
            .arrivals
            .epoch_rate(self.membership.live_count())
            + clock * self.params.service_rate
            + clock
            + self.churn.max_rate()
    }

    /// Advance by exactly one event; returns `None` when the total event
    /// rate is zero (empty system with no arrivals and no churn), which is
    /// absorbing.
    ///
    /// Membership churn is superposed by its constant majorant rate and
    /// resolved by **exact thinning**: a candidate the time-varying
    /// intensity rejects (or one infeasible at the current live set) still
    /// advances the clock — the exponential race among the superposed
    /// sources spent that holding time — but emits no event, consumes no
    /// sequence number, and the loop redraws.  Without churn the loop body
    /// runs exactly once on the pre-elastic band layout, so churn-free
    /// trajectories are bit-identical to the pre-elastic engine.
    pub fn step<R: Rng64 + ?Sized>(&mut self, rng: &mut R) -> Option<LiveEvent> {
        let event = self.next_event(rng);
        self.publish();
        event
    }

    /// [`step`](Self::step) without publishing telemetry (the
    /// [`run_until`](Self::run_until) loop publishes once at its end).
    fn next_event<R: Rng64 + ?Sized>(&mut self, rng: &mut R) -> Option<LiveEvent> {
        let kind = loop {
            let (dt, band) = self.draw_band(self.index().total(), self.books.clock_mass(), rng)?;
            self.time += dt;
            match band {
                Band::Arrival => {
                    let mut bins = ArrivalBins::new();
                    for _ in 0..self.params.arrivals.epoch_size() {
                        let bin = self
                            .params
                            .arrivals
                            .place_among(self.membership.live_ids(), rng);
                        let weight = self.sample_arrival_weight(rng).unwrap_or(1);
                        self.arrive(bin, weight);
                        bins.push(bin_u32(bin));
                    }
                    break LiveEventKind::Arrival { bins };
                }
                Band::Departure => {
                    // The departing ball's clock is rate-proportional
                    // across bins (uniform over m balls on unit engines)
                    // and uniform within its bin.
                    let bin = self.clock_bin(rng.next_below(self.books.clock_mass()));
                    let (picked, _) = self.books.pick(bin, rng);
                    self.depart(bin, picked);
                    break LiveEventKind::Departure { bin: bin_u32(bin) };
                }
                Band::Ring => {
                    let source = self.clock_bin(rng.next_below(self.books.clock_mass()));
                    let (picked, ball) = self.books.pick(source, rng);
                    let (dest, membership) = (&self.dest, &self.membership);
                    let decision =
                        self.decide_ring(source, ball, || dest.sample(source, membership, rng));
                    break self.apply_ring(source, picked, decision);
                }
                Band::Churn => {
                    if let Some(event) = self.churn.decide(self.time, rng) {
                        if let Some(kind) = self.apply_churn(event, rng) {
                            break kind;
                        }
                    }
                }
            }
        };
        Some(self.record_event(kind))
    }

    /// Draw the holding time and the source of the next event of the
    /// superposed chain at ball count `m` and clock mass `clock_mass`:
    /// `Exp(total)`, then one uniform `pick` over the stacked rates.
    /// `None` when the total rate is zero.  This is the one statement of
    /// the event law; [`step`](Self::step) and
    /// [`run_ahead`](Self::run_ahead) both draw through it.
    fn draw_band<R: Rng64 + ?Sized>(
        &self,
        m: u64,
        clock_mass: u64,
        rng: &mut R,
    ) -> Option<(f64, Band)> {
        let epoch_rate = self
            .params
            .arrivals
            .epoch_rate(self.membership.live_count());
        // Departure and ring clocks run per ball at the bin's speed, so
        // their total rates scale with the rate mass R = Σ s_i·ℓ_i (= m on
        // unit engines).
        let depart_rate = clock_mass as f64 * self.params.service_rate;
        let ring_rate = clock_mass as f64;
        let total = epoch_rate + depart_rate + ring_rate + self.churn.max_rate();
        if total <= 0.0 {
            return None;
        }

        let dt = Exponential::new(total)
            .expect("positive total rate")
            .sample(rng);
        let pick = rng.next_f64() * total;
        // With no balls and no churn only arrivals have positive rate;
        // route there unconditionally (also absorbs the ~2⁻⁵³ rounding
        // case where `pick` lands exactly on `total` — under churn that
        // boundary case belongs to the churn band instead).
        let band = if (m == 0 && self.churn.is_none()) || pick < epoch_rate {
            Band::Arrival
        } else if pick < epoch_rate + depart_rate {
            Band::Departure
        } else if self.churn.is_none() || pick < epoch_rate + depart_rate + ring_rate {
            Band::Ring
        } else {
            Band::Churn
        };
        Some((dt, band))
    }

    /// Number an applied event and count it.
    fn record_event(&mut self, kind: LiveEventKind) -> LiveEvent {
        self.seq += 1;
        self.counters.events += 1;
        LiveEvent {
            seq: self.seq,
            time: self.time,
            kind,
        }
    }

    /// Apply one externally-chosen event (see [`LiveCommand`]).
    ///
    /// This is the serving-layer entry point: the caller fixes the event
    /// *kind* (and optionally its coordinates), while the engine samples
    /// any coordinate left open under the law the simulation would have
    /// used, advances the clock by the superposed process's holding time
    /// `Exp(total_rate)`, and keeps the load vector, tracker, load
    /// index and counters in sync — exactly like [`step`](Self::step).
    ///
    /// On error the engine is untouched and no randomness has been
    /// consumed, so a rejected command can simply be reported and the
    /// stream continued.
    pub fn apply<R: Rng64 + ?Sized>(
        &mut self,
        cmd: &LiveCommand,
        rng: &mut R,
    ) -> Result<LiveEvent, LiveError> {
        let event = self.apply_cached(cmd, rng, &mut None);
        self.publish();
        event
    }

    /// [`apply`](Self::apply) with a caller-held holding-time cache: when
    /// `holding` carries a law, the `Exp(total_rate)` construction is
    /// skipped and the cached law sampled instead — bit-identical, because
    /// the cache is only ever populated when the previous command provably
    /// left the total rate unchanged (see the cache-update rule at the
    /// draw site).  [`apply_batch`](Self::apply_batch) threads one cache
    /// across a whole batch; `apply` passes a fresh empty cache.
    fn apply_cached<R: Rng64 + ?Sized>(
        &mut self,
        cmd: &LiveCommand,
        rng: &mut R,
        holding: &mut Option<Exponential>,
    ) -> Result<LiveEvent, LiveError> {
        let (n, m) = (self.index().n(), self.index().total());

        // Validate every explicit coordinate (and the implicit "there is a
        // ball to pick" requirements) before touching state or the RNG.
        let membership = &self.membership;
        let check_bin = |what: &str, bin: usize| -> Result<(), LiveError> {
            if bin >= n {
                return Err(LiveError::command(format!(
                    "{what} bin {bin} outside 0..{n}"
                )));
            }
            if !membership.is_live(bin) {
                return Err(LiveError::command(format!(
                    "{what} bin {bin} is retired (not in the live set)"
                )));
            }
            Ok(())
        };
        match *cmd {
            LiveCommand::Arrive { bin, weight } => {
                if let Some(bin) = bin {
                    check_bin("arrival", bin)?;
                }
                match weight {
                    Some(0) => {
                        return Err(LiveError::command("arrival weight must be at least 1"));
                    }
                    Some(w) if w > 1 && !self.stores_ball_weights() => {
                        return Err(LiveError::command(format!(
                            "arrival weight {w} needs a weighted engine (this engine's \
                             weight distribution is `{}`)",
                            self.weight_dist()
                        )));
                    }
                    _ => {}
                }
            }
            LiveCommand::Depart { bin, weight } => {
                match bin {
                    Some(bin) => {
                        check_bin("departure", bin)?;
                        if self.index().load(bin) == 0 {
                            return Err(LiveError::command(format!(
                                "departure from empty bin {bin}"
                            )));
                        }
                    }
                    None => {
                        if m == 0 {
                            return Err(LiveError::command("departure from an empty system"));
                        }
                    }
                }
                match (weight, bin) {
                    (Some(0), _) => {
                        return Err(LiveError::command("departure weight must be at least 1"));
                    }
                    (Some(_), None) => {
                        return Err(LiveError::command(
                            "a pinned departure weight needs a pinned bin",
                        ));
                    }
                    (Some(w), Some(bin)) => match self.ball_weights(bin) {
                        Some(balls) if !balls.contains(&w) => {
                            return Err(LiveError::command(format!(
                                "bin {bin} holds no ball of weight {w}"
                            )));
                        }
                        None if w != 1 => {
                            return Err(LiveError::command(format!(
                                "departure weight {w} needs a weighted engine (all \
                                     balls here have weight 1)"
                            )));
                        }
                        _ => {}
                    },
                    (None, _) => {}
                }
            }
            LiveCommand::Ring { source, dest } => {
                match source {
                    Some(source) => {
                        check_bin("ring source", source)?;
                        if self.index().load(source) == 0 {
                            return Err(LiveError::command(format!(
                                "ring in empty bin {source} (no ball to activate)"
                            )));
                        }
                    }
                    None if m == 0 => {
                        return Err(LiveError::command("ring in an empty system"));
                    }
                    None => {}
                }
                if let Some(dest) = dest {
                    check_bin("ring destination", dest)?;
                    // On sparse topologies a pinned destination must be an
                    // actual neighbour (self-loop no-ops stay admissible,
                    // exactly like a sampled draw on the complete graph),
                    // and it needs a pinned source to check against.
                    match source {
                        Some(source) if !self.dest.permits_edge(source, dest, membership) => {
                            return Err(LiveError::command(format!(
                                "ring destination {dest} is not adjacent to source {source} \
                                 under topology `{}`",
                                self.topology
                            )));
                        }
                        None if !self.dest.is_complete() => {
                            return Err(LiveError::command(
                                "a pinned ring destination needs a pinned source on a sparse \
                                 topology (adjacency cannot be checked otherwise)",
                            ));
                        }
                        _ => {}
                    }
                }
            }
            LiveCommand::AddBin { .. } => {
                self.dest
                    .feasible(membership.live_count() + 1)
                    .map_err(LiveError::command)?;
            }
            LiveCommand::DrainBin { bin } => {
                if membership.live_count() <= 1 {
                    return Err(LiveError::command("cannot drain the last live bin"));
                }
                if let Some(bin) = bin {
                    check_bin("drain", bin)?;
                }
                self.dest
                    .feasible(membership.live_count() - 1)
                    .map_err(LiveError::command)?;
            }
        }

        // The holding time of the superposed chain at the current state
        // (positive: arrival rates are validated positive at construction).
        // `Exponential` is nothing but the validated rate, so reusing a
        // cached law is bit-identical to rebuilding it from the same rate.
        let law = match *holding {
            Some(law) => law,
            None => Exponential::new(self.total_rate()).expect("positive total rate"),
        };
        // Cache-update rule: a ring on a unit engine moves one ball
        // between live bins — `m`, the live count and the churn majorant
        // are all unchanged, so the *next* command's total rate is
        // bit-for-bit this one and the law carries over.  Everything else
        // (population or membership changes, and any command on a
        // heterogeneous engine, where a move shifts rate mass `s_i·ℓ_i`)
        // invalidates the cache.  Validation errors returned above leave
        // both the engine and the cache untouched.
        *holding = match *cmd {
            LiveCommand::Ring { .. } if self.hetero.is_none() => Some(law),
            _ => None,
        };
        let dt = law.sample(rng);
        self.time += dt;
        self.seq += 1;
        self.counters.events += 1;

        let kind = match *cmd {
            LiveCommand::Arrive { bin, weight } => {
                let bin = match bin {
                    Some(bin) => bin,
                    None => self
                        .params
                        .arrivals
                        .place_among(self.membership.live_ids(), rng),
                };
                let weight = match weight {
                    Some(w) => w,
                    None => self.sample_arrival_weight(rng).unwrap_or(1),
                };
                self.arrive(bin, weight);
                let mut bins = ArrivalBins::new();
                bins.push(bin_u32(bin));
                LiveEventKind::Arrival { bins }
            }
            LiveCommand::Depart { bin, weight } => {
                let bin = match bin {
                    Some(bin) => bin,
                    None => self.clock_bin(rng.next_below(self.books.clock_mass())),
                };
                let picked = match weight {
                    // A pinned weight names the ball deterministically (its
                    // presence was validated above): the first ball of that
                    // weight, no randomness consumed.
                    Some(w) => self
                        .ball_weights(bin)
                        .map(|balls| balls.iter().position(|&b| b == w).expect("validated above")),
                    None => self.books.pick(bin, rng).0,
                };
                self.depart(bin, picked);
                LiveEventKind::Departure { bin: bin_u32(bin) }
            }
            LiveCommand::Ring { source, dest } => {
                let source = match source {
                    Some(source) => source,
                    None => self.clock_bin(rng.next_below(self.books.clock_mass())),
                };
                let (picked, ball) = self.books.pick(source, rng);
                let decision = match dest {
                    // A pinned destination plays the role of the chosen
                    // candidate: the policy's pair rule decides, which is
                    // what makes recorded `(source, dest, moved)` rings
                    // replay identically under every policy.
                    Some(dest) => RingDecision {
                        dest: Some(dest),
                        moved: dest != source && self.permits_pair(source, dest, ball),
                    },
                    None => {
                        let (dest, membership) = (&self.dest, &self.membership);
                        self.decide_ring(source, ball, || dest.sample(source, membership, rng))
                    }
                };
                self.apply_ring(source, picked, decision)
            }
            LiveCommand::AddBin { warm } => LiveEventKind::BinsJoined {
                joins: vec![self.join_bin(warm, rng)],
            },
            LiveCommand::DrainBin { bin } => {
                let victim = match bin {
                    Some(bin) => bin,
                    None => self
                        .membership
                        .live_at(rng.next_index(self.membership.live_count())),
                };
                LiveEventKind::BinsDrained {
                    drains: vec![self.drain_one(victim, rng)],
                }
            }
        };

        Ok(LiveEvent {
            seq: self.seq,
            time: self.time,
            kind,
        })
    }

    /// [`apply`](Self::apply) with an observer tap: the event is reported
    /// to `observer` against the post-event tracker, exactly as
    /// [`run_until`](Self::run_until) reports simulated events.  The
    /// serving layer feeds its steady-state observers through this.
    pub fn apply_with<R, O>(
        &mut self,
        cmd: &LiveCommand,
        rng: &mut R,
        observer: &mut O,
    ) -> Result<LiveEvent, LiveError>
    where
        R: Rng64 + ?Sized,
        O: LiveObserver,
    {
        let event = self.apply(cmd, rng)?;
        observer.on_event(&event, &self.tracker);
        Ok(event)
    }

    /// Apply a batch of commands in order, amortizing the per-command
    /// fixed costs, and report each successful event to the observer —
    /// the serving layer's hot path for pipelined request bursts.
    ///
    /// The trajectory is **bit-identical** to calling
    /// [`apply_with`](Self::apply_with) once per command: batching happens
    /// at command granularity, never inside the RNG stream.  What *is*
    /// amortized is the holding-time law — consecutive rings on a unit
    /// engine provably leave the total rate unchanged, so the
    /// `Exp(total_rate)` construction (a `total_rate()` walk plus
    /// validation) runs once per run of rings instead of once per ring.
    /// Reordering or coalescing the index descents themselves would
    /// *not* be legal here: each ring's descent depends on every move the
    /// previous ring made, and the draw order is pinned by replay.  (The
    /// sharded engine may reuse slice-start loads, but only because its
    /// pricing semantics are *defined* against the slice boundary; the
    /// live engine's are defined against the current state.)
    ///
    /// Per-command errors are returned in place, exactly as `apply_with`
    /// would return them: a failed command consumes no randomness, leaves
    /// the engine untouched, and does not disturb the commands after it.
    pub fn apply_batch<R, O>(
        &mut self,
        cmds: &[LiveCommand],
        rng: &mut R,
        observer: &mut O,
    ) -> Vec<Result<LiveEvent, LiveError>>
    where
        R: Rng64 + ?Sized,
        O: LiveObserver,
    {
        let mut holding: Option<Exponential> = None;
        let mut out = Vec::with_capacity(cmds.len());
        for cmd in cmds {
            let res = self.apply_cached(cmd, rng, &mut holding);
            if let Ok(event) = &res {
                observer.on_event(event, &self.tracker);
            }
            out.push(res);
        }
        self.publish();
        out
    }

    /// Run `k` rings of sampled balls toward sampled destinations — `k`
    /// [`LiveCommand::Ring`]s with no pinned coordinate — reporting each
    /// to the observer, and return how many migrated a ball.
    ///
    /// The same rings as [`apply_batch`](Self::apply_batch) over `k`
    /// such commands, through the same step and holding-time cache, with
    /// the same events, counters, telemetry and RNG state after the call;
    /// it only builds no command and no result vector.  A sampled ring
    /// fails only in an empty system, which rings cannot change, so the
    /// first failure is returned and the engine is left as it was (`k = 0`
    /// is `Ok(0)` even then).  Telemetry is published once, at the end.
    pub fn run_rings<R, O>(
        &mut self,
        k: u64,
        rng: &mut R,
        observer: &mut O,
    ) -> Result<u64, LiveError>
    where
        R: Rng64 + ?Sized,
        O: LiveObserver,
    {
        const RING: LiveCommand = LiveCommand::Ring {
            source: None,
            dest: None,
        };
        let mut holding: Option<Exponential> = None;
        let mut moved = 0;
        let mut outcome = Ok(());
        for _ in 0..k {
            match self.apply_cached(&RING, rng, &mut holding) {
                Ok(event) => {
                    moved += u64::from(matches!(
                        event.kind,
                        LiveEventKind::Ring { moved: true, .. }
                    ));
                    observer.on_event(&event, &self.tracker);
                }
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        self.publish();
        outcome.map(|()| moved)
    }

    /// Run until simulated time reaches `until`, reporting every event to
    /// the observer.  Returns the number of events processed.
    ///
    /// The result is bit-identical to calling [`step`](Self::step) while
    /// `time() < until`: the same events, counters, telemetry and RNG
    /// state after the call.  On a tree too large for L2 whose events'
    /// random draws read no load, the events are drawn ahead of applying
    /// them and their memory is prefetched while they wait.
    pub fn run_until<R, O>(&mut self, until: f64, rng: &mut R, observer: &mut O) -> u64
    where
        R: Rng64 + ?Sized,
        O: LiveObserver,
    {
        observer.on_start(&self.tracker, self.time);
        let processed =
            if self.index().capacity() >= AHEAD_MIN_CAPACITY && self.draws_are_load_free() {
                self.run_ahead(until, rng, observer)
            } else {
                let mut processed = 0;
                while self.time < until {
                    let Some(event) = self.next_event(rng) else {
                        break;
                    };
                    observer.on_event(&event, &self.tracker);
                    processed += 1;
                }
                processed
            };
        self.publish();
        processed
    }

    /// Whether the random part of every event — the time, the band, the
    /// clock rank, the arrival bins and the ring candidates — is a
    /// function of the ball count alone, never of a load: unit books (a
    /// clock rank is a ball rank, a ball pick needs no draw), no churn
    /// (the live set is fixed) and the complete graph (a candidate is a
    /// uniform live bin, whatever the source).
    fn draws_are_load_free(&self) -> bool {
        self.hetero.is_none()
            && self.churn.is_none()
            && self.dest.is_complete()
            && self.policy.choices() <= AHEAD_CHOICES
    }

    /// [`run_until`](Self::run_until) on an engine whose draws are
    /// load-free: draw the random part of the next [`AHEAD`] events
    /// first, then apply them strictly in order.
    ///
    /// The draws of one event never read a load, only the ball count, and
    /// the ball count after an event follows from its band alone, so
    /// drawing event `k + 1` before applying event `k` consumes the same
    /// random words in the same order as the [`step`](Self::step) loop.
    /// Applying runs the same helpers (`clock_bin`, `decide_ring` over the
    /// drawn candidates, `apply_ring`, `arrive`, `depart`), so
    /// trajectories, events, counters and telemetry are bit-identical.
    /// Drawing stops at the first event that reaches `until`.
    ///
    /// What waiting buys is memory-level parallelism: at 2²⁰ bins each
    /// event's tree and leaf reads miss cache, and a queued event's lines
    /// are prefetched in two stages while earlier events apply — when it
    /// is drawn, the level-1 node on its rank's path and the leaves of its
    /// arrival bins and candidates; `AHEAD / 2` events later, the leaf
    /// node of its rank.
    fn run_ahead<R, O>(&mut self, until: f64, rng: &mut R, observer: &mut O) -> u64
    where
        R: Rng64 + ?Sized,
        O: LiveObserver,
    {
        let mut queue: [Option<Drawn>; AHEAD] = Default::default();
        let (mut head, mut len) = (0, 0);
        // The ball count and the time once every drawn event is applied.
        let (mut m, mut time) = (self.index().total(), self.time);
        let mut drawing = time < until;
        let mut processed = 0;
        loop {
            while drawing && len < AHEAD {
                let Some(drawn) = self.draw_ahead(m, time, rng) else {
                    drawing = false;
                    break;
                };
                m = drawn.population_after(m);
                time = drawn.time;
                drawing = time < until;
                queue[(head + len) % AHEAD] = Some(drawn);
                len += 1;
            }
            if let Some(later) = &mut queue[(head + AHEAD / 2) % AHEAD] {
                later.prefetch_leaf(self.index());
            }
            let Some(drawn) = queue[head].take() else {
                break;
            };
            head = (head + 1) % AHEAD;
            len -= 1;
            let event = self.apply_drawn(drawn);
            observer.on_event(&event, &self.tracker);
            processed += 1;
        }
        processed
    }

    /// Draw the random part of the next event at ball count `m` and time
    /// `time` (the engine's once every event drawn before it is applied),
    /// and prefetch the first lines it will touch.  `None` when the total
    /// rate is zero.
    fn draw_ahead<R: Rng64 + ?Sized>(&self, m: u64, time: f64, rng: &mut R) -> Option<Drawn> {
        let (dt, band) = self.draw_band(m, m, rng)?;
        let index = self.index();
        let mut descent = None;
        let what = match band {
            Band::Arrival => Ahead::Arrival(
                (0..self.params.arrivals.epoch_size())
                    .map(|_| {
                        let bin = self
                            .params
                            .arrivals
                            .place_among(self.membership.live_ids(), rng);
                        index.prefetch_bin(bin);
                        bin_u32(bin)
                    })
                    .collect(),
            ),
            Band::Departure | Band::Ring => {
                let rank = rng.next_below(m);
                descent = index.descent(rank).and_then(|d| index.descend(d, 1));
                if let Some(d) = descent {
                    index.prefetch(d);
                }
                if band == Band::Departure {
                    Ahead::Departure { rank }
                } else {
                    // On the complete graph a candidate does not depend
                    // on the source, which is not known yet.
                    let mut candidates = [0; AHEAD_CHOICES];
                    for c in &mut candidates[..self.policy.choices()] {
                        *c = self
                            .dest
                            .sample(0, &self.membership, rng)
                            .expect("the complete graph always offers a candidate");
                        index.prefetch_bin(*c);
                    }
                    Ahead::Ring { rank, candidates }
                }
            }
            Band::Churn => unreachable!("draw-ahead engines have no churn"),
        };
        Some(Drawn {
            time: time + dt,
            what,
            descent,
        })
    }

    /// Apply one drawn-ahead event, as [`step`](Self::step) applies the
    /// same draws.  Unit books pick no ball: the picked index is `None`
    /// and the weight `1`.
    fn apply_drawn(&mut self, drawn: Drawn) -> LiveEvent {
        self.time = drawn.time;
        let kind = match drawn.what {
            Ahead::Arrival(bins) => {
                for &bin in &bins {
                    self.arrive(bin as usize, 1);
                }
                LiveEventKind::Arrival { bins }
            }
            Ahead::Departure { rank } => {
                let bin = self.clock_bin(rank);
                self.depart(bin, None);
                LiveEventKind::Departure { bin: bin_u32(bin) }
            }
            Ahead::Ring { rank, candidates } => {
                let source = self.clock_bin(rank);
                let mut drawn = candidates.into_iter();
                let decision = self.decide_ring(source, 1, || drawn.next());
                self.apply_ring(source, None, decision)
            }
        };
        self.record_event(kind)
    }

    /// Apply an arrival of a ball of `weight` to `bin`, keeping the
    /// tracker and the books in sync.
    fn arrive(&mut self, bin: usize, weight: u64) {
        let old = self.index().load(bin);
        self.tracker.record_insert(old);
        self.books.insert(bin, weight, speeds(&self.hetero));
        self.counters.arrivals += 1;
    }

    /// Apply a departure from `bin` (`picked` names the ball when per-ball
    /// weights are stored).
    fn depart(&mut self, bin: usize, picked: Option<usize>) {
        let old = self.index().load(bin);
        self.tracker.record_remove(old);
        self.books.remove(bin, picked, speeds(&self.hetero));
        self.counters.departures += 1;
    }

    /// Does the policy's pair rule permit moving a ball of weight `ball`
    /// from `source` to `dest`?  Unit engines compare raw loads; weighted
    /// engines compare normalized loads through
    /// [`RebalancePolicy::permits_weighted`].
    fn permits_pair(&self, source: usize, dest: usize, ball: u64) -> bool {
        match &self.hetero {
            Some(h) => self.policy.permits_weighted(
                HeteroRingContext {
                    n: self.membership.live_count(),
                    total_weight: self.books.total_weight(),
                    total_speed: h.total_speed,
                },
                bin_state(&self.books, h, source),
                bin_state(&self.books, h, dest),
                ball,
            ),
            None => self.policy.permits_loads(
                RingContext {
                    n: self.membership.live_count(),
                    m: self.index().total(),
                },
                self.index().load(source),
                self.index().load(dest),
            ),
        }
    }

    /// Run the policy's decision for a ring of a ball of weight `ball` in
    /// `source`: draw the candidate set through `sample` (the topology
    /// layer, or candidates drawn ahead) and apply the pair rule.
    fn decide_ring(
        &self,
        source: usize,
        ball: u64,
        mut sample: impl FnMut() -> Option<usize>,
    ) -> RingDecision {
        // Count candidate draws for the per-policy probe counter; the
        // count never feeds back into the decision.
        let mut probes = 0u64;
        let counted = || {
            probes += 1;
            sample()
        };
        let decision = match &self.hetero {
            Some(h) => self.policy.decide_weighted(
                HeteroRingContext {
                    n: self.membership.live_count(),
                    total_weight: self.books.total_weight(),
                    total_speed: h.total_speed,
                },
                source,
                bin_state(&self.books, h, source),
                ball,
                counted,
                |b| bin_state(&self.books, h, b),
            ),
            None => {
                let index = self.index();
                let ctx = RingContext {
                    n: self.membership.live_count(),
                    m: index.total(),
                };
                self.policy
                    .decide(ctx, source, index.load(source), counted, |b| index.load(b))
            }
        };
        if let Some(t) = &self.telemetry {
            t.probes.set(t.probes.get() + probes);
        }
        decision
    }

    /// Apply a decided ring: bump the counters, migrate if the policy said
    /// so, and produce the event record.  A ring with no candidate at all
    /// (isolated vertex) is recorded as a self-loop no-op.  `picked` names
    /// the migrating ball when per-ball weights are stored.
    fn apply_ring(
        &mut self,
        source: usize,
        picked: Option<usize>,
        decision: RingDecision,
    ) -> LiveEventKind {
        self.counters.rings += 1;
        let dest = decision.dest.unwrap_or(source);
        if decision.moved {
            let (lf, lt) = (self.index().load(source), self.index().load(dest));
            self.tracker.record_move(lf, lt);
            self.books
                .move_ball(source, dest, picked, speeds(&self.hetero));
            self.counters.migrations += 1;
        }
        LiveEventKind::Ring {
            source: bin_u32(source),
            dest: bin_u32(dest),
            moved: decision.moved,
        }
    }

    /// Resolve an accepted churn candidate into a scale event, or `None`
    /// when the event is infeasible at the current live set (a torus that
    /// cannot absorb one more bin, a drain that would empty the system) —
    /// infeasible candidates are thinned exactly like rejected ones.
    ///
    /// Multi-bin events (flash crowds) apply their bins one at a time,
    /// each gated by [`ElasticDest::feasible`]; the event carries however
    /// many bins were actually admitted.
    fn apply_churn<R: Rng64 + ?Sized>(
        &mut self,
        event: ChurnEvent,
        rng: &mut R,
    ) -> Option<LiveEventKind> {
        match event {
            ChurnEvent::Join { count, warm } => {
                let mut joins = Vec::new();
                for _ in 0..count {
                    if self
                        .dest
                        .feasible(self.membership.live_count() + 1)
                        .is_err()
                    {
                        break;
                    }
                    joins.push(self.join_bin(warm, rng));
                }
                (!joins.is_empty()).then_some(LiveEventKind::BinsJoined { joins })
            }
            ChurnEvent::Drain { count } => {
                let mut drains = Vec::new();
                for _ in 0..count {
                    if self.membership.live_count() <= 1
                        || self
                            .dest
                            .feasible(self.membership.live_count() - 1)
                            .is_err()
                    {
                        break;
                    }
                    let victim = self
                        .membership
                        .live_at(rng.next_index(self.membership.live_count()));
                    drains.push(self.drain_one(victim, rng));
                }
                (!drains.is_empty()).then_some(LiveEventKind::BinsDrained { drains })
            }
        }
    }

    /// Admit one bin at the next fresh id, warm-starting it when asked:
    /// the newcomer steals `⌊m/live⌋` exchangeable balls (each uniform
    /// among the balls currently outside it — one load-index rank draw per
    /// steal, rejection-resampled if the rank lands on the newcomer
    /// itself), which lands it at the post-join average.  Every resolved
    /// draw is recorded in the [`JoinRecord`], so replay is RNG-free.
    ///
    /// Callers gate on [`ElasticDest::feasible`] first.
    fn join_bin<R: Rng64 + ?Sized>(&mut self, warm: bool, rng: &mut R) -> JoinRecord {
        let bin = self.membership.join();
        let books_bin = self.books.add_bin();
        debug_assert_eq!(bin, books_bin, "membership and books grow in lockstep");
        self.tracker.bin_joined(0);
        if let Some(h) = &mut self.hetero {
            // Joining bins run at the baseline speed with no balls; the
            // autoscaler model has no channel to request a faster machine.
            h.speeds.push(1);
            h.total_speed += 1;
        }
        let record = *self.membership.log().last().expect("join just logged");
        self.dest.apply(record, &self.membership);
        self.counters.joins += 1;
        let mut warm_from = Vec::new();
        if warm {
            let m = self.index().total();
            let share = m / self.membership.live_count() as u64;
            for _ in 0..share {
                let source = loop {
                    let b = self.index().bin_at(rng.next_below(m));
                    if b != bin {
                        break b;
                    }
                };
                self.force_move(source, bin, rng);
                warm_from.push(bin_u32(source));
            }
        }
        JoinRecord {
            bin: bin_u32(bin),
            warm_from,
        }
    }

    /// Drain and retire `victim`: every resident ball is relocated to a
    /// uniformly random *surviving* live bin (one draw per ball, rejection-
    /// resampled off the victim), then the slot retires at zero mass
    /// (never reused).  The [`DrainRecord`] carries each destination in
    /// draw order, so replay is RNG-free.
    ///
    /// Callers validate that `victim` is live, is not the last live bin,
    /// and that [`ElasticDest::feasible`] accepts the shrunken live set.
    fn drain_one<R: Rng64 + ?Sized>(&mut self, victim: usize, rng: &mut R) -> DrainRecord {
        let mut moved_to = Vec::with_capacity(self.index().load(victim) as usize);
        while self.index().load(victim) > 0 {
            let dest = loop {
                let d = self
                    .membership
                    .live_at(rng.next_index(self.membership.live_count()));
                if d != victim {
                    break d;
                }
            };
            self.force_move(victim, dest, rng);
            moved_to.push(bin_u32(dest));
        }
        self.membership.retire(victim);
        self.tracker.bin_retired();
        let leftover = self.books.retire_bin(victim);
        debug_assert_eq!(leftover, 0, "drained bin retires at zero mass");
        if let Some(h) = &mut self.hetero {
            h.total_speed -= h.speeds[victim];
        }
        let record = *self.membership.log().last().expect("retire just logged");
        self.dest.apply(record, &self.membership);
        self.counters.drains += 1;
        DrainRecord {
            bin: bin_u32(victim),
            moved_to,
        }
    }

    /// Move one exchangeable ball from `source` to `dest` outside the ring
    /// protocol (scale events: warm steals and drain relocations), keeping
    /// the tracker and the books in sync.  Not a
    /// migration for counting purposes — the ball was forced, not
    /// rebalanced.
    fn force_move<R: Rng64 + ?Sized>(&mut self, source: usize, dest: usize, rng: &mut R) {
        let (picked, _) = self.books.pick(source, rng);
        let (lf, lt) = (self.index().load(source), self.index().load(dest));
        self.tracker.record_move(lf, lt);
        self.books
            .move_ball(source, dest, picked, speeds(&self.hetero));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_rng::rng_from_seed;

    fn poisson(rate: f64) -> ArrivalProcess {
        ArrivalProcess::Poisson { rate_per_bin: rate }
    }

    fn engine(n: usize, m: u64) -> LiveEngine {
        let initial = Config::uniform(n, m / n as u64).unwrap();
        let params = LiveParams::balanced(poisson(2.0), n, m).unwrap();
        LiveEngine::new(initial, params, RlsRule::paper()).unwrap()
    }

    #[test]
    fn balanced_params_hold_the_target_population() {
        let p = LiveParams::balanced(poisson(2.0), 8, 64).unwrap();
        // λ = 16, μ = 16/64 = 0.25 → λ/μ = 64.
        assert!((p.service_rate - 0.25).abs() < 1e-12);
        assert!(LiveParams::balanced(poisson(2.0), 8, 0).is_err());
        assert!(LiveParams::balanced(poisson(0.0), 8, 64).is_err());
    }

    #[test]
    fn events_keep_state_consistent() {
        let mut eng = engine(8, 64);
        let mut rng = rng_from_seed(1);
        for _ in 0..20_000 {
            eng.step(&mut rng).unwrap();
            debug_assert!(eng.tracker().matches(eng.config()));
        }
        assert!(eng.tracker().matches(eng.config()));
        assert!(eng.index().matches(eng.config()));
        let c = eng.counters();
        assert_eq!(c.events, 20_000);
        assert_eq!(c.arrivals + c.departures + c.rings, 20_000);
        assert!(c.migrations <= c.rings);
        // A warm join grows the load vector in place: the configuration
        // is still the index's leaves, not a copy.
        eng.apply(&LiveCommand::AddBin { warm: true }, &mut rng)
            .unwrap();
        assert_eq!(eng.config().n(), 9);
        assert_eq!(eng.config().loads().as_ptr(), eng.index().loads().as_ptr());
        assert!(eng.index().matches(eng.config()));
    }

    #[test]
    fn population_stays_near_the_target() {
        // M/M/∞ with mean 64: after a long run the population should be in
        // a generous band around the target.
        let mut eng = engine(8, 64);
        let mut rng = rng_from_seed(2);
        eng.run_until(200.0, &mut rng, &mut ());
        let m = eng.config().m();
        assert!((20..=150).contains(&m), "population drifted to {m}");
    }

    #[test]
    fn empty_system_without_arrivals_is_absorbing() {
        let initial = Config::from_loads(vec![1, 0]).unwrap();
        let params = LiveParams {
            arrivals: poisson(1.0),
            service_rate: 0.0,
        };
        // μ = 0, λ > 0: never absorbs.
        let mut eng = LiveEngine::new(initial.clone(), params, RlsRule::paper()).unwrap();
        assert!(eng.step(&mut rng_from_seed(3)).is_some());

        // A zero-rate system yields no events. (Constructing one requires a
        // positive-rate arrival process per validation, so emulate by
        // draining: service only, m reaches 0.)
        let drain = LiveParams {
            arrivals: poisson(1e-12),
            service_rate: 1e12,
        };
        let mut eng = LiveEngine::new(initial, drain, RlsRule::paper()).unwrap();
        let mut rng = rng_from_seed(4);
        for _ in 0..100 {
            if eng.step(&mut rng).is_none() {
                break;
            }
        }
        // Population cannot go negative and the engine stays consistent.
        assert!(eng.tracker().matches(eng.config()));
        assert!(eng.index().matches(eng.config()));
    }

    #[test]
    fn bursts_inject_whole_batches() {
        let initial = Config::uniform(8, 8).unwrap();
        let params = LiveParams {
            arrivals: ArrivalProcess::Bursts {
                rate_per_bin: 4.0,
                size: 8,
            },
            service_rate: 0.5,
        };
        let mut eng = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
        let mut rng = rng_from_seed(5);
        let mut saw_burst = false;
        for _ in 0..2000 {
            if let Some(LiveEvent {
                kind: LiveEventKind::Arrival { bins },
                ..
            }) = eng.step(&mut rng)
            {
                assert_eq!(bins.len(), 8);
                saw_burst = true;
            }
        }
        assert!(saw_burst);
        assert!(eng.tracker().matches(eng.config()));
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let mut a = engine(8, 64);
        let mut b = engine(8, 64);
        a.run_until(20.0, &mut rng_from_seed(7), &mut ());
        b.run_until(20.0, &mut rng_from_seed(7), &mut ());
        assert_eq!(a.config(), b.config());
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.time(), b.time());
    }

    #[test]
    fn rebalancing_keeps_the_gap_small_under_churn() {
        // With rebalance rings at rate m and modest churn, the time-averaged
        // gap should stay far below what pure random placement would give.
        let mut eng = engine(16, 256);
        let mut rng = rng_from_seed(8);
        eng.run_until(50.0, &mut rng, &mut ());
        let disc = eng.config().discrepancy();
        assert!(disc < 12.0, "discrepancy {disc} too large under churn");
    }

    #[test]
    fn apply_executes_external_commands() {
        let mut eng = engine(8, 64);
        let mut rng = rng_from_seed(10);
        let m0 = eng.config().m();

        let event = eng
            .apply(
                &LiveCommand::Arrive {
                    bin: Some(3),
                    weight: None,
                },
                &mut rng,
            )
            .unwrap();
        assert_eq!(event.balls_added(), 1);
        assert!(matches!(event.kind, LiveEventKind::Arrival { ref bins } if bins == &[3]));
        assert_eq!(eng.config().m(), m0 + 1);

        let event = eng
            .apply(
                &LiveCommand::Depart {
                    bin: Some(3),
                    weight: None,
                },
                &mut rng,
            )
            .unwrap();
        assert!(matches!(event.kind, LiveEventKind::Departure { bin: 3 }));
        assert_eq!(eng.config().m(), m0);

        // Sampled coordinates stay in range and keep state consistent.
        for _ in 0..200 {
            eng.apply(
                &LiveCommand::Arrive {
                    bin: None,
                    weight: None,
                },
                &mut rng,
            )
            .unwrap();
            eng.apply(
                &LiveCommand::Depart {
                    bin: None,
                    weight: None,
                },
                &mut rng,
            )
            .unwrap();
            eng.apply(
                &LiveCommand::Ring {
                    source: None,
                    dest: None,
                },
                &mut rng,
            )
            .unwrap();
        }
        assert!(eng.tracker().matches(eng.config()));
        assert!(eng.index().matches(eng.config()));
        let c = eng.counters();
        assert_eq!(c.events, 602);
        assert_eq!(c.arrivals, 201);
        assert_eq!(c.departures, 201);
        assert_eq!(c.rings, 200);
    }

    #[test]
    fn apply_pinned_ring_respects_the_rls_rule() {
        let initial = Config::from_loads(vec![5, 1, 3]).unwrap();
        let params = LiveParams::balanced(poisson(1.0), 3, 9).unwrap();
        let mut eng = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
        let mut rng = rng_from_seed(12);

        // 5 → 1 is a protocol move: permitted.
        let event = eng
            .apply(
                &LiveCommand::Ring {
                    source: Some(0),
                    dest: Some(1),
                },
                &mut rng,
            )
            .unwrap();
        assert!(matches!(
            event.kind,
            LiveEventKind::Ring { moved: true, .. }
        ));
        assert_eq!(eng.config().loads(), &[4, 2, 3]);

        // 2 → 4 would be destructive: the rule refuses, nothing moves.
        let event = eng
            .apply(
                &LiveCommand::Ring {
                    source: Some(1),
                    dest: Some(0),
                },
                &mut rng,
            )
            .unwrap();
        assert!(matches!(
            event.kind,
            LiveEventKind::Ring { moved: false, .. }
        ));
        assert_eq!(eng.config().loads(), &[4, 2, 3]);
    }

    #[test]
    fn rejected_commands_leave_the_engine_untouched() {
        let initial = Config::from_loads(vec![2, 0]).unwrap();
        let params = LiveParams::balanced(poisson(1.0), 2, 2).unwrap();
        let mut eng = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
        let mut rng = rng_from_seed(13);
        let before_state = rng.state();

        for bad in [
            LiveCommand::Arrive {
                bin: Some(9),
                weight: None,
            },
            LiveCommand::Depart {
                bin: Some(1),
                weight: None,
            }, // empty bin
            LiveCommand::Depart {
                bin: Some(7),
                weight: None,
            },
            LiveCommand::Ring {
                source: Some(1), // empty bin: no ball to activate
                dest: None,
            },
            LiveCommand::Ring {
                source: Some(0),
                dest: Some(5),
            },
        ] {
            let err = eng.apply(&bad, &mut rng).unwrap_err();
            assert!(matches!(err, LiveError::Command(_)), "{bad:?}: {err}");
        }
        // No event was recorded, no time passed, no randomness consumed.
        assert_eq!(eng.counters().events, 0);
        assert_eq!(eng.time(), 0.0);
        assert_eq!(rng.state(), before_state);

        // An empty system rejects sampled departures and rings too.
        let drained = Config::from_loads(vec![0, 0]).unwrap();
        let mut empty = LiveEngine::new(drained, params, RlsRule::paper()).unwrap();
        assert!(empty
            .apply(
                &LiveCommand::Depart {
                    bin: None,
                    weight: None
                },
                &mut rng
            )
            .is_err());
        assert!(empty
            .apply(
                &LiveCommand::Ring {
                    source: None,
                    dest: None
                },
                &mut rng
            )
            .is_err());
    }

    #[test]
    fn auto_ring_draws_survive_degenerate_means() {
        let mut rng = rng_from_seed(20);
        for mean in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(LiveEngine::auto_ring_law(mean).is_none(), "mean {mean}");
        }
        // A real mean draws a real Poisson count.
        let law = LiveEngine::auto_ring_law(2.0).expect("a positive finite mean");
        let total: u64 = (0..200).map(|_| law.sample(&mut rng)).sum();
        assert!(
            (200..=700).contains(&total),
            "Poisson(2)·200 ≈ 400, got {total}"
        );
    }

    #[test]
    fn held_telemetry_publishes_the_same_counts_once() {
        let registry = Registry::new();
        let mut eng = engine(8, 64);
        eng.attach_metrics(&registry);
        let mut rng = rng_from_seed(21);
        let arrive = LiveCommand::Arrive {
            bin: None,
            weight: None,
        };
        eng.apply(&arrive, &mut rng).unwrap();
        let m = Arc::clone(eng.metrics().unwrap());
        let published = registry.render_prometheus();
        eng.hold_telemetry();
        eng.apply(&arrive, &mut rng).unwrap();
        eng.run_rings(5, &mut rng, &mut ()).unwrap();
        assert_eq!(
            registry.render_prometheus(),
            published,
            "held, not published"
        );
        eng.release_telemetry();
        let counters = eng.counters();
        assert_eq!(m.events.get(), counters.events);
        assert_eq!(m.arrivals.get(), counters.arrivals);
        assert_eq!(m.rings.get(), counters.rings);
        assert_eq!(m.descent_depth.snapshot().count(), counters.rings);
        // Released: the next call publishes at its end again.
        eng.run_rings(1, &mut rng, &mut ()).unwrap();
        assert_eq!(m.rings.get(), eng.counters().rings);
    }

    #[test]
    fn apply_with_taps_the_observer() {
        let mut eng = engine(8, 64);
        let mut rng = rng_from_seed(14);
        let mut steady = crate::SteadyState::new(0.0);
        steady.on_start(eng.tracker(), eng.time());
        for _ in 0..50 {
            eng.apply_with(
                &LiveCommand::Arrive {
                    bin: None,
                    weight: None,
                },
                &mut rng,
                &mut steady,
            )
            .unwrap();
        }
        let summary = steady.finish(eng.time());
        assert_eq!(summary.arrivals, 50);
        assert!(summary.window > 0.0);
    }

    #[test]
    fn apply_is_deterministic_per_seed() {
        let script = [
            LiveCommand::Arrive {
                bin: None,
                weight: None,
            },
            LiveCommand::Ring {
                source: None,
                dest: None,
            },
            LiveCommand::Depart {
                bin: None,
                weight: None,
            },
        ];
        let mut a = engine(8, 64);
        let mut b = engine(8, 64);
        let (mut ra, mut rb) = (rng_from_seed(15), rng_from_seed(15));
        for _ in 0..100 {
            for cmd in &script {
                a.apply(cmd, &mut ra).unwrap();
                b.apply(cmd, &mut rb).unwrap();
            }
        }
        assert_eq!(a.config(), b.config());
        assert_eq!(a.time().to_bits(), b.time().to_bits());
        assert_eq!(ra.state(), rb.state());
    }

    #[test]
    fn constructs_and_steps_past_the_old_u32_ball_cap() {
        // m = u32::MAX + 256 — impossible under the old Vec<u32> ball map,
        // O(n) memory with the load index.  Tier-1 smoke test pinning
        // the lifted cap.
        let n = 256usize;
        let per_bin = (u32::MAX as u64 + 256) / n as u64; // 16_777_216
        let initial = Config::uniform(n, per_bin).unwrap();
        let m = initial.m();
        assert!(m > u32::MAX as u64, "instance must exceed the old cap");
        let params = LiveParams::balanced(poisson(1.0), n, m).unwrap();
        let mut eng = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
        let mut rng = rng_from_seed(9);
        for _ in 0..500 {
            eng.step(&mut rng).unwrap();
        }
        assert_eq!(eng.counters().events, 500);
        assert!(eng.tracker().matches(eng.config()));
        assert!(eng.index().matches(eng.config()));
    }
}
