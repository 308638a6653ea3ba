//! The sharded live engine: bins partitioned across workers, events
//! processed in deterministic seeded batches.
//!
//! The sequential [`LiveEngine`](crate::LiveEngine) serializes every event
//! through one state; for multi-million-event streams the hardware has
//! cores to spare.  [`ShardedEngine`] partitions the bins into `S`
//! contiguous shards and advances time in fixed slices of length `Δ`:
//!
//! * within a slice, every shard independently simulates its *local*
//!   superposition (Poisson arrivals thinned to its bins — the one arrival
//!   law whose placement factors across the partition — plus departures
//!   and RLS rings of its balls) from an RNG stream derived from
//!   `(seed, batch, shard)`;
//! * a ring whose sampled destination lies in another shard decides
//!   against the destination's load *as published at the slice start*
//!   (bounded staleness — the decision a distributed node could actually
//!   make), and the migration is delivered at the slice barrier;
//! * the barrier applies cross-shard deliveries in deterministic
//!   `(shard, draw)` order and publishes the new global load vector.
//!
//! Each shard keeps the same per-bin books as the sequential engine
//! (a counted tree [`LoadIndex`] over its own bins, plus the weight and
//! rate-mass trees on weighted engines), so sampling a resident ball
//! (departures, RLS rings) is `O(log local_n)` with `O(local_n)` memory
//! and no per-ball state: like the sequential engines, the sharded engine
//! has no `u32::MAX` ball cap.
//!
//! Because every random stream is keyed by `(seed, batch, shard)` and the
//! merge order is fixed, the trajectory depends only on the seed and the
//! shard/slice configuration — **never on the worker thread count**: the
//! engine run on one thread and on sixteen produces bit-identical final
//! states.  As the slice shrinks the published loads converge to the live
//! loads and the law converges to the sequential engine's; the
//! cross-validation test checks the steady-state observables agree.

// detlint: allow-file(D004) same continuous-time clock arithmetic as
// engine.rs, evaluated in slice-deterministic order; thread-count
// invariance of the resulting trajectory is pinned by the sharded
// cross-validation tests.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rls_core::RlsRule;
use rls_core::{
    BinState, Config, HeteroRingContext, LoadIndex, Membership, RebalancePolicy, RingContext,
};
use rls_graph::{ElasticDest, Topology};
use rls_obs::Registry;
use rls_rng::dist::{Distribution, Exponential};
use rls_rng::{Rng64, RngExt, StreamFactory, StreamId};
use rls_sim::parallel::parallel_map;

use crate::books::{self, Books};
use crate::event::bin_u32;
use rls_workloads::{ArrivalProcess, ChurnEvent, ChurnProcess, WeightDist};

use crate::engine::{LiveCounters, LiveParams};
use crate::metrics::ShardedMetrics;
use crate::observer::{ReconvSummary, Reconvergence, SteadyState, SteadySummary};
use crate::LiveError;

/// Stream salt of the barrier churn RNG.  Distinct from the shard streams'
/// `0xDA7A`, so superposing a (possibly silent) churn process can never
/// perturb any shard's in-slice draws.
const CHURN_SALT: u64 = 0xE1A5;

/// One bin partition and its resident balls.
#[derive(Debug)]
struct Shard {
    /// Global bin indices owned by this shard.
    bins: Range<usize>,
    /// Books of the owned bins (indexed by `global − bins.start`):
    /// resident-ball sampling in O(log local_n) with no per-ball state
    /// (`books.counts().total()` is the shard's ball count).
    books: Books,
    /// Local offsets of the *live* owned bins, ascending — the arrival
    /// placement support.  Identity (`0..len`) until the first scale
    /// event, so churn-free placement draws are unchanged.
    live_local: Vec<u32>,
}

/// Engine-wide heterogeneity state shared by every shard.
#[derive(Debug)]
struct SharedHetero {
    /// Law of arriving ball weights.
    dist: WeightDist,
    /// Global per-bin speeds (read-only, shared across the pool).
    speeds: Vec<u64>,
    /// `Σ s_i`.
    total_speed: u64,
    /// Published (slice-start) global per-bin weights: what a remote
    /// shard's ring decision prices a foreign candidate at.
    published_weights: Vec<u64>,
}

/// What one shard produced in one slice.
struct SliceResult {
    /// `(destination bin, ball weight)` of balls migrating out of this
    /// shard, in draw order.
    outbox: Vec<(u32, u64)>,
    /// Event counters accumulated in the slice.
    delta: LiveCounters,
}

/// Final state of a sharded run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// Final global load vector.
    pub final_loads: Vec<u64>,
    /// Final global per-bin total weights (`None` on unit engines).
    pub final_weights: Option<Vec<u64>>,
    /// Final simulation time (a whole number of slices).
    pub time: f64,
    /// Aggregate counters.
    pub counters: LiveCounters,
    /// Steady-state summary (batch-boundary granularity).
    pub summary: SteadySummary,
    /// Final membership epoch (0 without churn).
    pub epoch: u64,
    /// Live bins at the end of the run.
    pub live_bins: usize,
    /// Time-to-re-converge digest over the scale events of the run
    /// (slice-boundary granularity; empty without churn).
    pub reconv: ReconvSummary,
}

/// The deterministic batch-parallel engine.
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Mutex<Shard>>,
    /// Published global loads (slice-start snapshot all shards read).
    published: Vec<u64>,
    params: LiveParams,
    /// The ring decision rule (enum-dispatched, shared by every shard).
    policy: RebalancePolicy,
    /// Destination sampler (read-only within a slice; the adjacency is
    /// shared across the worker pool and patched only at barriers).
    dest: ElasticDest,
    /// The live bin set.  Mutated only in single-threaded barrier code, so
    /// every shard reads one consistent membership per slice.
    membership: Membership,
    /// Scale-event process resolved at slice barriers (from a dedicated
    /// RNG stream, so it never perturbs the shard streams).
    churn: ChurnProcess,
    /// Weight/speed model; `None` is the classic unit engine.
    hetero: Option<SharedHetero>,
    seed: u64,
    slice: f64,
    time: f64,
    batch: u64,
    counters: LiveCounters,
    /// Telemetry taps ([`attach_metrics`](Self::attach_metrics)):
    /// write-only, never consulted by the dynamics — the trajectory stays
    /// a function of `(seed, shards, slice)` alone.
    metrics: Option<Arc<ShardedMetrics>>,
}

impl ShardedEngine {
    /// Partition `initial` into `shards` contiguous bin ranges, running
    /// the paper's model: the given RLS rule on the complete graph.
    ///
    /// `slice` is the synchronization period `Δ`: smaller tracks the
    /// sequential law more closely, larger amortizes the barrier.
    pub fn new(
        initial: Config,
        params: LiveParams,
        rule: RlsRule,
        shards: usize,
        slice: f64,
        seed: u64,
    ) -> Result<Self, LiveError> {
        Self::with_policy(
            initial,
            params,
            RebalancePolicy::Rls {
                variant: rule.variant(),
            },
            Topology::Complete,
            0,
            shards,
            slice,
            seed,
        )
    }

    /// Partition `initial` over an arbitrary `(policy, topology)` pair.
    ///
    /// Cross-shard ring decisions respect the topology's adjacency:
    /// candidates are sampled from the ringing bin's neighbourhood, and a
    /// candidate owned by another shard is priced at its load *as
    /// published at the slice start* (bounded staleness), exactly like the
    /// complete-graph engine has always done.  The average-threshold
    /// policy compares against the slice-start global population for the
    /// same reason.
    #[allow(clippy::too_many_arguments)]
    pub fn with_policy(
        initial: Config,
        params: LiveParams,
        policy: RebalancePolicy,
        topology: Topology,
        graph_seed: u64,
        shards: usize,
        slice: f64,
        seed: u64,
    ) -> Result<Self, LiveError> {
        params.validate()?;
        policy.validate().map_err(LiveError::params)?;
        let dest = ElasticDest::build(topology, initial.n(), graph_seed)
            .map_err(|e| LiveError::params(format!("topology `{topology}`: {e}")))?;
        // Only placement laws that factor across the bin partition can be
        // sharded: a hotspot targets one global bin, and a burst epoch
        // scatters its balls over *all* bins jointly — confining either to
        // one shard would simulate a different law than the sequential
        // engine.
        if !matches!(params.arrivals, ArrivalProcess::Poisson { .. }) {
            return Err(LiveError::params(format!(
                "`{}` arrivals are not supported by the sharded engine \
                 (placement is not shard-local); use the sequential engine",
                params.arrivals.name()
            )));
        }
        let n = initial.n();
        if shards == 0 || shards > n {
            return Err(LiveError::params(format!(
                "shard count must lie in 1..={n}"
            )));
        }
        if !(slice.is_finite() && slice > 0.0) {
            return Err(LiveError::params("slice length must be positive"));
        }

        let membership = Membership::new(n);
        Ok(Self {
            published: initial.loads().to_vec(),
            shards: partition(Books::unit(initial), shards, &membership),
            params,
            policy,
            dest,
            membership,
            churn: ChurnProcess::None,
            hetero: None,
            seed,
            slice,
            time: 0.0,
            batch: 0,
            counters: LiveCounters::default(),
            metrics: None,
        })
    }

    /// Attach telemetry taps resolved from `registry` (slice count,
    /// cross-shard deliveries, barrier-merge time, per-shard events).
    /// Write-only: attaching observers never changes the trajectory.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.metrics = Some(ShardedMetrics::register(registry));
    }

    /// The attached telemetry handles, if any.
    pub fn metrics(&self) -> Option<&Arc<ShardedMetrics>> {
        self.metrics.as_ref()
    }

    /// A weighted/speed-aware sharded engine (see
    /// [`LiveEngine::with_hetero`](crate::LiveEngine::with_hetero) for the
    /// model).  Initial per-ball weights are drawn from `dist` bin-major
    /// out of `rng` (no draws for the unit distribution), exactly like the
    /// sequential constructor.
    #[allow(clippy::too_many_arguments)]
    pub fn with_hetero<R: Rng64 + ?Sized>(
        initial: Config,
        params: LiveParams,
        policy: RebalancePolicy,
        topology: Topology,
        graph_seed: u64,
        shards: usize,
        slice: f64,
        seed: u64,
        dist: WeightDist,
        speeds: Vec<u64>,
        rng: &mut R,
    ) -> Result<Self, LiveError> {
        let balls = books::draw_balls(initial.loads(), dist, rng)?;
        let mut books = Books::unit(initial.clone());
        books.attach_hetero(dist, &speeds, balls)?;
        let mut engine = Self::with_policy(
            initial, params, policy, topology, graph_seed, shards, slice, seed,
        )?;
        engine.hetero = Some(SharedHetero {
            dist,
            total_speed: speeds.iter().sum(),
            speeds,
            published_weights: books.weights().to_vec(),
        });
        engine.shards = partition(books, shards, &engine.membership);
        Ok(engine)
    }

    /// Superpose a membership churn process, resolved at slice barriers.
    ///
    /// Not supported together with weights/speeds: a warm transfer or a
    /// drain relocation would need the per-ball weight books gathered
    /// globally, which the sharded barrier does not do (use the sequential
    /// engine for heterogeneous churn studies).
    pub fn set_churn(&mut self, churn: ChurnProcess) -> Result<(), LiveError> {
        churn.validate().map_err(LiveError::params)?;
        if self.hetero.is_some() && !churn.is_none() {
            return Err(LiveError::params(
                "membership churn is not supported on weighted/speed-aware sharded engines",
            ));
        }
        self.churn = churn;
        Ok(())
    }

    /// The live membership set.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The membership epoch (scale events applied so far).
    pub fn epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// Bins currently live.
    pub fn live_count(&self) -> usize {
        self.membership.live_count()
    }

    /// The churn process in force.
    pub fn churn(&self) -> ChurnProcess {
        self.churn
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Aggregate counters so far.
    pub fn counters(&self) -> LiveCounters {
        self.counters
    }

    /// The published (slice-start) global load vector.
    pub fn loads(&self) -> &[u64] {
        &self.published
    }

    /// The published (slice-start) global per-bin weights (`None` on unit
    /// engines).
    pub fn weights(&self) -> Option<&[u64]> {
        self.hetero.as_ref().map(|h| h.published_weights.as_slice())
    }

    /// The per-bin speed vector (`None` on unit engines).
    pub fn speeds(&self) -> Option<&[u64]> {
        self.hetero.as_ref().map(|h| h.speeds.as_slice())
    }

    /// Advance one slice on `threads` workers; returns the events processed.
    pub fn step_slice(&mut self, threads: usize) -> u64 {
        let factory = StreamFactory::new(self.seed);
        let batch = self.batch;
        let slice = self.slice;
        let params = self.params;
        let policy = self.policy;
        let dest = &self.dest;
        let membership = &self.membership;
        // The ring/arrival laws run over the *live* bin count (equal to
        // the capacity until the first scale event).
        let live_n = membership.live_count();
        let published = &self.published;
        // The slice-start global population: what a distributed node could
        // actually know (the average-threshold policy reads it).
        let published_m: u64 = published.iter().sum();
        let hetero = self.hetero.as_ref();
        // Slice-start global weight mass, the weighted analogue of
        // `published_m` (the average-threshold rule reads it).
        let published_weight_m: u64 = hetero
            .map(|h| h.published_weights.iter().sum())
            .unwrap_or(0);
        let shards = &self.shards;

        let results: Vec<SliceResult> = parallel_map(shards.len(), threads, |s| {
            let mut rng = factory.rng(StreamId {
                trial: batch,
                component: s as u64,
                salt: 0xDA7A,
            });
            let mut shard = shards[s].lock().expect("shard lock");
            run_slice(
                &mut shard,
                published,
                published_m,
                hetero,
                published_weight_m,
                live_n,
                params,
                policy,
                dest,
                membership,
                slice,
                &mut rng,
            )
        });

        // Deterministic merge: bucket deliveries by destination shard in
        // (source shard, draw) order — the order is a pure function of the
        // slice's random streams — then apply each shard's inbox on the
        // worker pool (each worker owns one destination shard, so the
        // application commutes across shards and the result is identical
        // for any thread count).
        // detlint: allow(D002) metrics-gated tap; reading only feeds a histogram
        let barrier_start = self.metrics.as_ref().map(|_| Instant::now());
        let mut events = 0;
        let mut deliveries = 0u64;
        let mut inboxes: Vec<Vec<(u32, u64)>> = vec![Vec::new(); self.shards.len()];
        for (s, result) in results.iter().enumerate() {
            for &(dest, weight) in &result.outbox {
                inboxes[self.owner_of(dest as usize)].push((dest, weight));
            }
            deliveries += result.outbox.len() as u64;
            events += result.delta.events;
            if let Some(m) = &self.metrics {
                m.shard_events.add(s, result.delta.events);
            }
        }
        {
            let shards = &self.shards;
            let inboxes = &inboxes;
            let hetero = self.hetero.as_ref();
            parallel_map(shards.len(), threads, |s| {
                let mut shard = shards[s].lock().expect("shard lock");
                let speeds = hetero.map_or(&[][..], |h| &h.speeds[shard.bins.clone()]);
                for &(dest, weight) in &inboxes[s] {
                    let offset = dest as usize - shard.bins.start;
                    shard.books.insert(offset, weight, speeds);
                }
            });
        }
        for result in &results {
            let d = &result.delta;
            self.counters.arrivals += d.arrivals;
            self.counters.departures += d.departures;
            self.counters.rings += d.rings;
            self.counters.migrations += d.migrations;
            self.counters.events += d.events;
        }

        // Publish the post-barrier loads (and weights).
        let published = &mut self.published;
        let mut published_weights = self.hetero.as_mut().map(|h| &mut h.published_weights);
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock");
            published[shard.bins.clone()].copy_from_slice(shard.books.loads());
            if let Some(w) = published_weights.as_deref_mut() {
                w[shard.bins.clone()].copy_from_slice(shard.books.weights());
            }
        }
        // Membership churn resolves on the published global state, single-
        // threaded, from its own RNG stream — the thread count can never
        // touch it.  Shards are repartitioned over the new capacity before
        // the next slice.
        if !self.churn.is_none() {
            self.resolve_barrier_churn();
        }
        self.time = (self.batch + 1) as f64 * self.slice;
        self.batch += 1;
        if let Some(m) = &self.metrics {
            m.slices.inc();
            m.outbox_deliveries.add(deliveries);
            if let Some(start) = barrier_start {
                let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                m.barrier_merge_ns.record(ns);
            }
        }
        events
    }

    /// Resolve the churn candidates of the slice that just closed:
    /// exponential candidate times under the constant majorant, each
    /// thinned by [`ChurnProcess::decide`] at its in-slice time, applied in
    /// draw order on the published global state.  Runs strictly
    /// single-threaded between barriers, from a stream whose salt differs
    /// from the shard streams' — thread-count invariance is structural.
    fn resolve_barrier_churn(&mut self) {
        let epoch_before = self.membership.epoch();
        let mut rng = StreamFactory::new(self.seed).rng(StreamId {
            trial: self.batch,
            component: 0,
            salt: CHURN_SALT,
        });
        let max_rate = self.churn.max_rate();
        let slice_start = self.batch as f64 * self.slice;
        let mut elapsed = 0.0f64;
        loop {
            elapsed += Exponential::new(max_rate)
                .expect("positive churn majorant")
                .sample(&mut rng);
            if elapsed >= self.slice {
                break;
            }
            let Some(event) = self.churn.decide(slice_start + elapsed, &mut rng) else {
                continue; // thinned candidate: clock advanced, no event
            };
            match event {
                ChurnEvent::Join { count, warm } => {
                    for _ in 0..count {
                        if self
                            .dest
                            .feasible(self.membership.live_count() + 1)
                            .is_err()
                        {
                            break;
                        }
                        self.apply_barrier_join(warm, &mut rng);
                    }
                }
                ChurnEvent::Drain { count } => {
                    for _ in 0..count {
                        if self.membership.live_count() <= 1
                            || self
                                .dest
                                .feasible(self.membership.live_count() - 1)
                                .is_err()
                        {
                            break;
                        }
                        self.apply_barrier_drain(&mut rng);
                    }
                }
            }
        }
        if self.membership.epoch() != epoch_before {
            self.repartition();
        }
    }

    /// Admit one bin on the published state (the newcomer takes the next
    /// id, growing the capacity).  A warm join steals `⌊m/live'⌋` balls,
    /// each uniform among the balls currently outside the newcomer — the
    /// same exchangeable-ball law as the sequential engine.
    fn apply_barrier_join<R: Rng64 + ?Sized>(&mut self, warm: bool, rng: &mut R) {
        let bin = self.membership.join();
        debug_assert_eq!(bin, self.published.len(), "ids are allocation order");
        self.published.push(0);
        let record = *self.membership.log().last().expect("join just logged");
        self.dest.apply(record, &self.membership);
        self.counters.joins += 1;
        if warm {
            let m: u64 = self.published.iter().sum();
            let share = m / self.membership.live_count() as u64;
            if share > 0 {
                let mut index = LoadIndex::from_loads(&self.published);
                for _ in 0..share {
                    // Rejection keeps each steal uniform over the balls
                    // outside the newcomer (which accumulates mass as the
                    // transfer proceeds).
                    let source = loop {
                        let b = index.bin_at(rng.next_below(m));
                        if b != bin {
                            break b;
                        }
                    };
                    self.published[source] -= 1;
                    index.decrement(source);
                    self.published[bin] += 1;
                    index.increment(bin);
                }
            }
        }
    }

    /// Retire one uniformly random live bin, relocating each of its balls
    /// to a uniform surviving live bin first (the drain law of the
    /// sequential engine).
    fn apply_barrier_drain<R: Rng64 + ?Sized>(&mut self, rng: &mut R) {
        let live = self.membership.live_count();
        let victim = self.membership.live_at(rng.next_index(live));
        while self.published[victim] > 0 {
            let dest = loop {
                let d = self.membership.live_at(rng.next_index(live));
                if d != victim {
                    break d;
                }
            };
            self.published[victim] -= 1;
            self.published[dest] += 1;
        }
        self.membership.retire(victim);
        let record = *self.membership.log().last().expect("retire just logged");
        self.dest.apply(record, &self.membership);
        self.counters.drains += 1;
    }

    /// Rebuild the shard partition over the current capacity, refreshing
    /// books and live lists from the published state.  Only reached on
    /// unit engines: churn is rejected on weighted ones.
    fn repartition(&mut self) {
        let cfg = Config::from_loads(self.published.clone()).expect("published loads are valid");
        self.shards = partition(Books::unit(cfg), self.shards.len(), &self.membership);
    }

    /// Run until simulated time reaches `until` (rounded up to whole
    /// slices), collecting steady-state statistics after `warmup`.
    pub fn run(&mut self, until: f64, warmup: f64, threads: usize) -> ShardedOutcome {
        let mut steady = SteadyState::new(warmup);
        let mut reconv = Reconvergence::new(crate::observer::DEFAULT_RECONV_THRESHOLD);
        let (gap, overload) = gap_and_overload(&self.published, &self.membership);
        steady.record(self.time, gap, overload);
        while self.time < until {
            let before = self.counters;
            let epoch_before = self.membership.epoch();
            self.step_slice(threads);
            let (gap, overload) = gap_and_overload(&self.published, &self.membership);
            steady.record(self.time, gap, overload);
            // Re-convergence at slice granularity: a slice with scale
            // events arms (or restarts) the episode, and the post-barrier
            // gap resolves it.
            if self.membership.epoch() != epoch_before {
                reconv.note_scale_event(self.time);
            }
            reconv.observe_gap(self.time, gap);
            let d = self.counters;
            steady.count(
                d.arrivals - before.arrivals,
                d.departures - before.departures,
                d.rings - before.rings,
                d.migrations - before.migrations,
            );
        }
        ShardedOutcome {
            final_loads: self.published.clone(),
            final_weights: self.hetero.as_ref().map(|h| h.published_weights.clone()),
            time: self.time,
            counters: self.counters,
            summary: steady.finish(self.time),
            epoch: self.membership.epoch(),
            live_bins: self.membership.live_count(),
            reconv: reconv.summary(),
        }
    }

    fn owner_of(&self, bin: usize) -> usize {
        // Mirror the contiguous partition arithmetic of `partition`.
        let n = self.published.len();
        let shards = self.shards.len();
        let per = n / shards;
        let extra = n % shards;
        let boundary = extra * (per + 1);
        if bin < boundary {
            bin / (per + 1)
        } else {
            extra + (bin - boundary) / per.max(1)
        }
    }
}

/// Split `books` (over every bin id) into `count` contiguous shards — the
/// arithmetic [`ShardedEngine::owner_of`] mirrors — each with the live
/// owned bins as its arrival support.
fn partition(books: Books, count: usize, membership: &Membership) -> Vec<Mutex<Shard>> {
    let n = books.loads().len();
    let per = n / count;
    let extra = n % count;
    let mut start = 0usize;
    let ranges: Vec<Range<usize>> = (0..count)
        .map(|s| {
            let len = per + usize::from(s < extra);
            start += len;
            start - len..start
        })
        .collect();
    books
        .split(&ranges)
        .into_iter()
        .zip(ranges)
        .map(|(books, bins)| {
            let live_local = bins
                .clone()
                .filter(|&b| membership.is_live(b))
                .map(|b| bin_u32(b - bins.start))
                .collect();
            Mutex::new(Shard {
                bins,
                books,
                live_local,
            })
        })
        .collect()
}

/// Instantaneous gap and overload of a global load vector, over the
/// *live* bins only (retired slots hold zero permanently and would
/// otherwise deflate the average).  `u64` summation is exactly order-
/// independent, and on a churn-free engine the live set is the dense
/// `[0, n)` — so this is bit-identical to summing the whole vector there.
fn gap_and_overload(loads: &[u64], membership: &Membership) -> (f64, u64) {
    let n = membership.live_count() as u64;
    let mut m = 0u64;
    let mut max = 0u64;
    for &id in membership.live_ids() {
        let load = loads[id as usize];
        m += load;
        max = max.max(load);
    }
    let avg = m as f64 / n as f64;
    let ceil_avg = m.div_ceil(n.max(1));
    ((max as f64 - avg).max(0.0), max.saturating_sub(ceil_avg))
}

/// Simulate one shard over one slice.
#[allow(clippy::too_many_arguments)]
fn run_slice<R: Rng64 + ?Sized>(
    shard: &mut Shard,
    published: &[u64],
    published_m: u64,
    hetero: Option<&SharedHetero>,
    published_weight_m: u64,
    live_n: usize,
    params: LiveParams,
    policy: RebalancePolicy,
    dest_sampler: &ElasticDest,
    membership: &Membership,
    slice: f64,
    rng: &mut R,
) -> SliceResult {
    // Arrival share is live-over-live: a shard whose bins were all
    // retired draws no arrivals.  On a churn-free engine `live_local` is
    // the identity list, so both counts (and the resulting f64 division)
    // are bit-identical to the pre-elastic `bins.len() / n`.
    let local_live = shard.live_local.len();
    let share = local_live as f64 / live_n as f64;
    let mut outbox = Vec::new();
    let mut delta = LiveCounters::default();
    let mut elapsed = 0.0f64;
    // The speeds of the shard's bins, indexed like its books.
    let speeds = hetero.map_or(&[][..], |h| &h.speeds[shard.bins.clone()]);

    loop {
        let resident = shard.books.counts().total();
        // The local clock mass R_s = Σ s_i·ℓ_i over the shard's bins
        // (= resident on unit engines): departures and rings run at the
        // bin's speed.
        let clock_mass = shard.books.clock_mass();
        let clock = clock_mass as f64;
        let epoch_rate = params.arrivals.epoch_rate(live_n) * share;
        let total = epoch_rate + clock * params.service_rate + clock;
        if total <= 0.0 {
            break;
        }
        elapsed += Exponential::new(total)
            .expect("positive total rate")
            .sample(rng);
        if elapsed >= slice {
            // Exponential memorylessness makes redrawing at the slice
            // boundary exact for the timing law.
            break;
        }
        delta.events += 1;
        let pick = rng.next_f64() * total;
        // With no resident balls only arrivals have positive rate; route
        // there unconditionally (also absorbs the ~2⁻⁵³ rounding case
        // where `pick` lands exactly on `total`).
        if resident == 0 || pick < epoch_rate {
            for _ in 0..params.arrivals.epoch_size() {
                // Uniform over the shard's *live* bins (identity mapping
                // until the first scale event).
                let offset = shard.live_local[rng.next_index(local_live)] as usize;
                let weight = match hetero {
                    Some(h) => h.dist.sample(rng),
                    None => 1,
                };
                shard.books.insert(offset, weight, speeds);
                delta.arrivals += 1;
            }
        } else if pick < epoch_rate + clock * params.service_rate {
            // Departing ball clock rate-proportional across bins (uniform
            // over residents on unit engines), uniform within its bin.
            let offset = shard.books.clock_bin(rng.next_below(clock_mass)).0;
            let (picked, _) = shard.books.pick(offset, rng);
            shard.books.remove(offset, picked, speeds);
            delta.departures += 1;
        } else {
            delta.rings += 1;
            let source_offset = shard.books.clock_bin(rng.next_below(clock_mass)).0;
            let source = shard.bins.start + source_offset;
            let (picked, ball) = shard.books.pick(source_offset, rng);
            // Candidates come from the topology's neighbourhood of the
            // ringing bin; a candidate owned by another shard is priced at
            // its slice-start published load/weight (bounded staleness —
            // the decision a distributed node could actually make).
            let decision = {
                let (bins, books) = (&shard.bins, &shard.books);
                match hetero {
                    Some(h) => policy.decide_weighted(
                        HeteroRingContext {
                            n: live_n,
                            total_weight: published_weight_m,
                            total_speed: h.total_speed,
                        },
                        source,
                        BinState {
                            weight: books.weights()[source_offset],
                            speed: h.speeds[source],
                        },
                        ball,
                        || dest_sampler.sample(source, membership, rng),
                        |bin| BinState {
                            weight: if bins.contains(&bin) {
                                books.weights()[bin - bins.start]
                            } else {
                                h.published_weights[bin]
                            },
                            speed: h.speeds[bin],
                        },
                    ),
                    None => policy.decide(
                        RingContext {
                            n: live_n,
                            m: published_m,
                        },
                        source,
                        books.loads()[source_offset],
                        || dest_sampler.sample(source, membership, rng),
                        |bin| {
                            if bins.contains(&bin) {
                                books.loads()[bin - bins.start]
                            } else {
                                published[bin]
                            }
                        },
                    ),
                }
            };
            if decision.moved {
                let dest = decision.dest.expect("a moving ring has a destination");
                delta.migrations += 1;
                if shard.bins.contains(&dest) {
                    let dest_offset = dest - shard.bins.start;
                    shard
                        .books
                        .move_ball(source_offset, dest_offset, picked, speeds);
                } else {
                    let weight = shard.books.remove(source_offset, picked, speeds);
                    outbox.push((bin_u32(dest), weight));
                }
            }
        }
    }

    SliceResult { outbox, delta }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LiveEngine;
    use rls_rng::rng_from_seed;

    fn params(n: usize, m: u64) -> LiveParams {
        LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, n, m).unwrap()
    }

    fn sharded(n: usize, m: u64, shards: usize, seed: u64) -> ShardedEngine {
        let initial = Config::uniform(n, m / n as u64).unwrap();
        ShardedEngine::new(initial, params(n, m), RlsRule::paper(), shards, 0.25, seed).unwrap()
    }

    #[test]
    fn construction_validates() {
        let initial = Config::uniform(8, 8).unwrap();
        let p = params(8, 64);
        assert!(ShardedEngine::new(initial.clone(), p, RlsRule::paper(), 0, 0.5, 1).is_err());
        assert!(ShardedEngine::new(initial.clone(), p, RlsRule::paper(), 9, 0.5, 1).is_err());
        assert!(ShardedEngine::new(initial.clone(), p, RlsRule::paper(), 2, 0.0, 1).is_err());
        // Placement laws that do not factor across the partition are
        // rejected, not silently re-interpreted shard-locally.
        let hotspot = LiveParams {
            arrivals: ArrivalProcess::Hotspot {
                rate_per_bin: 1.0,
                bias: 0.5,
            },
            service_rate: 0.1,
        };
        assert!(ShardedEngine::new(initial.clone(), hotspot, RlsRule::paper(), 2, 0.5, 1).is_err());
        let bursts = LiveParams {
            arrivals: ArrivalProcess::Bursts {
                rate_per_bin: 1.0,
                size: 8,
            },
            service_rate: 0.1,
        };
        assert!(ShardedEngine::new(initial, bursts, RlsRule::paper(), 2, 0.5, 1).is_err());
    }

    #[test]
    fn uneven_partitions_cover_every_bin() {
        // n = 10 over 4 shards → sizes 3,3,2,2; ownership arithmetic must
        // agree with the partition.
        let initial = Config::uniform(10, 4).unwrap();
        let engine =
            ShardedEngine::new(initial, params(10, 40), RlsRule::paper(), 4, 0.5, 7).unwrap();
        let mut seen = [false; 10];
        for (s, shard) in engine.shards.iter().enumerate() {
            let shard = shard.lock().unwrap();
            for bin in shard.bins.clone() {
                assert_eq!(engine.owner_of(bin), s, "bin {bin}");
                seen[bin] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn thread_count_does_not_change_the_trajectory() {
        let out_1 = sharded(16, 256, 4, 42).run(30.0, 5.0, 1);
        let out_8 = sharded(16, 256, 4, 42).run(30.0, 5.0, 8);
        assert_eq!(out_1.final_loads, out_8.final_loads);
        assert_eq!(out_1.counters, out_8.counters);
        assert_eq!(out_1.summary, out_8.summary);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = sharded(16, 256, 4, 1).run(10.0, 2.0, 2);
        let b = sharded(16, 256, 4, 2).run(10.0, 2.0, 2);
        assert_ne!(a.final_loads, b.final_loads);
    }

    #[test]
    fn conservation_holds_at_every_barrier() {
        let mut engine = sharded(16, 256, 4, 9);
        let mut balls: i64 = 256;
        for _ in 0..40 {
            let before = engine.counters();
            engine.step_slice(2);
            let d = engine.counters();
            balls += (d.arrivals - before.arrivals) as i64;
            balls -= (d.departures - before.departures) as i64;
            let total: u64 = engine.loads().iter().sum();
            assert_eq!(total as i64, balls, "ball conservation broke");
        }
    }

    #[test]
    fn sharded_matches_sequential_steady_state_statistically() {
        // Same law up to bounded staleness: the time-averaged gap of the
        // sharded engine must land close to the sequential engine's.  The
        // staleness bias shrinks with the slice, so cross-validate at a
        // fine slice (at Δ = 0.25 the inherent offset sits right at the
        // tolerance; at Δ = 0.05 it is ≈ 0.3, leaving real margin).
        let n = 16;
        let m = 256;
        let mut seq_engine = LiveEngine::new(
            Config::uniform(n, m / n as u64).unwrap(),
            params(n, m),
            RlsRule::paper(),
        )
        .unwrap();
        let mut steady = SteadyState::new(10.0);
        seq_engine.run_until(60.0, &mut rng_from_seed(3), &mut steady);
        let sequential = steady.finish(seq_engine.time());

        let initial = Config::uniform(n, m / n as u64).unwrap();
        let shard_summary = ShardedEngine::new(initial, params(n, m), RlsRule::paper(), 4, 0.05, 3)
            .unwrap()
            .run(60.0, 10.0, 4)
            .summary;

        let diff = (sequential.mean_gap - shard_summary.mean_gap).abs();
        assert!(
            diff < 1.5,
            "steady-state gap diverged: sequential {} vs sharded {}",
            sequential.mean_gap,
            shard_summary.mean_gap
        );
    }

    fn weighted(n: usize, m: u64, shards: usize, seed: u64) -> ShardedEngine {
        let initial = Config::uniform(n, m / n as u64).unwrap();
        let speeds: Vec<u64> = (0..n).map(|i| if i % 4 == 0 { 4 } else { 1 }).collect();
        ShardedEngine::with_hetero(
            initial,
            params(n, m),
            RebalancePolicy::Rls {
                variant: rls_core::RlsVariant::Geq,
            },
            Topology::Complete,
            0,
            shards,
            0.25,
            seed,
            WeightDist::UniformInt { lo: 1, hi: 9 },
            speeds,
            &mut rng_from_seed(seed ^ 0x5eed),
        )
        .unwrap()
    }

    #[test]
    fn weighted_construction_validates() {
        let initial = Config::uniform(8, 4).unwrap();
        let p = params(8, 32);
        let policy = RebalancePolicy::Rls {
            variant: rls_core::RlsVariant::Geq,
        };
        // Wrong-length and zero speeds are rejected.
        for speeds in [vec![1u64; 7], vec![0u64; 8]] {
            assert!(ShardedEngine::with_hetero(
                initial.clone(),
                p,
                policy,
                Topology::Complete,
                0,
                2,
                0.5,
                1,
                WeightDist::Unit,
                speeds,
                &mut rng_from_seed(1),
            )
            .is_err());
        }
    }

    #[test]
    fn weighted_thread_count_does_not_change_the_trajectory() {
        let out_1 = weighted(16, 256, 4, 42).run(20.0, 5.0, 1);
        let out_8 = weighted(16, 256, 4, 42).run(20.0, 5.0, 8);
        assert_eq!(out_1.final_loads, out_8.final_loads);
        assert_eq!(out_1.final_weights, out_8.final_weights);
        assert_eq!(out_1.counters, out_8.counters);
        assert_eq!(out_1.summary, out_8.summary);
    }

    #[test]
    fn weighted_books_stay_consistent_at_every_barrier() {
        // After every barrier: each shard's books recount exactly (tree
        // totals are their leaf sums, each bin's ball list carries `load`
        // balls summing to its weight, rate leaves are `s_i·ℓ_i`), and the
        // published loads and weights are the shards' leaves.
        let mut engine = weighted(16, 256, 4, 9);
        for _ in 0..40 {
            engine.step_slice(2);
            let speeds = engine.speeds().unwrap();
            let published_w = engine.weights().unwrap();
            for shard in &engine.shards {
                let shard = shard.lock().unwrap();
                let bins = shard.bins.clone();
                assert!(shard.books.ball_weights(0).is_some());
                assert!(shard.books.matches(&speeds[bins.clone()]));
                assert_eq!(shard.books.loads(), &engine.loads()[bins.clone()]);
                assert_eq!(shard.books.weights(), &published_w[bins]);
            }
        }
    }

    #[test]
    fn unit_hetero_shards_match_the_plain_engine_bit_for_bit() {
        // Unit weights + uniform speeds must consume the exact same RNG
        // stream as the pre-heterogeneity engine: same trajectory, and the
        // weight vector is just the load vector.
        let n = 16;
        let m = 256;
        let plain = sharded(n, m, 4, 42).run(20.0, 5.0, 2);
        let initial = Config::uniform(n, m / n as u64).unwrap();
        let unit = ShardedEngine::with_hetero(
            initial,
            params(n, m),
            RebalancePolicy::Rls {
                variant: rls_core::RlsVariant::Geq,
            },
            Topology::Complete,
            0,
            4,
            0.25,
            42,
            WeightDist::Unit,
            vec![1; n],
            &mut rng_from_seed(7),
        )
        .unwrap()
        .run(20.0, 5.0, 2);
        assert_eq!(plain.final_loads, unit.final_loads);
        assert_eq!(plain.counters, unit.counters);
        assert_eq!(plain.summary, unit.summary);
        assert_eq!(unit.final_weights.as_deref(), Some(&unit.final_loads[..]));
    }

    fn churned(n: usize, m: u64, shards: usize, seed: u64) -> ShardedEngine {
        let mut engine = sharded(n, m, shards, seed);
        engine
            .set_churn(ChurnProcess::Steady {
                join_rate: 0.4,
                drain_rate: 0.3,
                warm: true,
            })
            .unwrap();
        engine
    }

    #[test]
    fn churn_resolves_identically_for_every_thread_count() {
        // The tentpole invariant: membership scale events resolve at the
        // barrier from their own stream, so the trajectory — including the
        // epoch log and the re-convergence digest — is a pure function of
        // the seed, at any thread count.
        let out_1 = churned(16, 256, 4, 42).run(30.0, 5.0, 1);
        let out_8 = churned(16, 256, 4, 42).run(30.0, 5.0, 8);
        assert!(out_1.epoch > 0, "the churn process must actually fire");
        assert_eq!(out_1.final_loads, out_8.final_loads);
        assert_eq!(out_1.counters, out_8.counters);
        assert_eq!(out_1.summary, out_8.summary);
        assert_eq!(out_1.epoch, out_8.epoch);
        assert_eq!(out_1.live_bins, out_8.live_bins);
        assert_eq!(out_1.reconv, out_8.reconv);
    }

    #[test]
    fn zero_churn_engines_run_the_pre_elastic_trajectory() {
        // Installing no churn (the default) must leave the RNG schedule
        // untouched: the churn stream is salted apart from the shard
        // streams and only consulted when a process is set.
        let plain = sharded(16, 256, 4, 42).run(30.0, 5.0, 4);
        let mut none = sharded(16, 256, 4, 42);
        none.set_churn(ChurnProcess::None).unwrap();
        let none = none.run(30.0, 5.0, 4);
        assert_eq!(plain.final_loads, none.final_loads);
        assert_eq!(plain.counters, none.counters);
        assert_eq!(plain.summary, none.summary);
        assert_eq!(none.epoch, 0);
        assert_eq!(none.reconv.scale_events, 0);
    }

    #[test]
    fn conservation_and_membership_books_hold_across_scale_events() {
        let mut engine = churned(16, 256, 4, 9);
        let mut balls: i64 = 256;
        for _ in 0..120 {
            let before = engine.counters();
            engine.step_slice(2);
            let d = engine.counters();
            balls += (d.arrivals - before.arrivals) as i64;
            balls -= (d.departures - before.departures) as i64;
            let total: u64 = engine.loads().iter().sum();
            assert_eq!(total as i64, balls, "scale events must conserve balls");
            // Capacity only grows; retired slots stay at zero mass.
            let membership = engine.membership();
            assert_eq!(engine.loads().len(), membership.capacity());
            assert_eq!(membership.capacity(), 16 + engine.counters().joins as usize);
            for (bin, &load) in engine.loads().iter().enumerate() {
                if !membership.is_live(bin) {
                    assert_eq!(load, 0, "retired bin {bin} holds mass");
                }
            }
            // Shards repartition over the full capacity with correct
            // live lists.
            let covered: usize = engine
                .shards
                .iter()
                .map(|s| s.lock().unwrap().bins.len())
                .sum();
            assert_eq!(covered, membership.capacity());
            for shard in &engine.shards {
                let shard = shard.lock().unwrap();
                for &offset in &shard.live_local {
                    assert!(membership.is_live(shard.bins.start + offset as usize));
                }
                let live_here = shard
                    .bins
                    .clone()
                    .filter(|&b| membership.is_live(b))
                    .count();
                assert_eq!(shard.live_local.len(), live_here);
            }
        }
        assert!(engine.epoch() > 0, "the churn process must actually fire");
    }

    #[test]
    fn churn_is_rejected_on_weighted_sharded_engines() {
        let mut engine = weighted(16, 256, 4, 42);
        let err = engine
            .set_churn(ChurnProcess::Steady {
                join_rate: 0.5,
                drain_rate: 0.5,
                warm: false,
            })
            .unwrap_err();
        assert!(err.to_string().contains("not supported"), "{err}");
        // No churn is always acceptable.
        engine.set_churn(ChurnProcess::None).unwrap();
    }
}
