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
//! The engine runs the paper's process: unit balls on a fixed set of bins,
//! under any `(policy, topology)` pair.  Weighted balls, bin speeds and
//! membership churn are sequential-engine features; the sharded engine
//! has no constructor or setter for them, and
//! [`Instance::sharded_engine`](crate::Instance::sharded_engine) refuses
//! an instance that asks for them.
//!
//! Each shard keeps a counted tree [`LoadIndex`] over its own bins, so
//! sampling a resident ball (departures, RLS rings) is `O(log local_n)`
//! with `O(local_n)` memory and no per-ball state: like the sequential
//! engines, the sharded engine has no `u32::MAX` ball cap.
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

use rls_core::{Config, LoadIndex, RebalancePolicy, RingContext, RlsRule};
use rls_graph::{DestSampler, Topology};
use rls_obs::Registry;
use rls_rng::dist::{Distribution, Exponential};
use rls_rng::{Rng64, RngExt, StreamFactory, StreamId};
use rls_sim::parallel::{default_threads, parallel_map};
use rls_workloads::ArrivalProcess;

use crate::engine::{LiveCounters, LiveParams};
use crate::event::bin_u32;
use crate::metrics::ShardedMetrics;
use crate::observer::{SteadyState, SteadySummary};
use crate::LiveError;

/// One bin partition and its resident balls.
#[derive(Debug)]
struct Shard {
    /// Global bin indices owned by this shard.
    bins: Range<usize>,
    /// Counted tree over the owned bins' loads (indexed by
    /// `global − bins.start`): resident-ball sampling in O(log local_n)
    /// with no per-ball state.
    counts: LoadIndex,
}

/// What one shard produced in one slice.
struct SliceResult {
    /// Destination bins of balls migrating out of this shard, in draw
    /// order.
    outbox: Vec<u32>,
    /// Event counters accumulated in the slice.
    delta: LiveCounters,
}

/// Final state of a sharded run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// Final global load vector.
    pub final_loads: Vec<u64>,
    /// Final simulation time (a whole number of slices).
    pub time: f64,
    /// Aggregate counters.
    pub counters: LiveCounters,
    /// Steady-state summary (batch-boundary granularity).
    pub summary: SteadySummary,
}

/// The deterministic batch-parallel engine.
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Mutex<Shard>>,
    /// First bin of each shard, ascending: [`owner_of`](Self::owner_of)
    /// searches it.
    starts: Vec<usize>,
    /// Published global loads (slice-start snapshot all shards read).
    published: Vec<u64>,
    params: LiveParams,
    /// The ring decision rule (enum-dispatched, shared by every shard).
    policy: RebalancePolicy,
    /// Destination sampler (read-only; the adjacency is shared across the
    /// worker pool).
    dest: DestSampler,
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
        // Only placement laws that factor across the bin partition can be
        // sharded: a hotspot targets one global bin, and a burst epoch
        // scatters its balls over *all* bins jointly — confining either to
        // one shard would simulate a different law than the sequential
        // engine.
        if !matches!(params.arrivals, ArrivalProcess::Poisson { .. }) {
            return Err(LiveError::unsupported(
                "sharded",
                "arrival",
                params.arrivals.to_string(),
            ));
        }
        policy.validate().map_err(LiveError::params)?;
        let dest = DestSampler::build(topology, initial.n(), graph_seed)
            .map_err(|e| LiveError::params(format!("topology `{topology}`: {e}")))?;
        let n = initial.n();
        if shards == 0 || shards > n {
            return Err(LiveError::params(format!(
                "shard count must lie in 1..={n}"
            )));
        }
        if !(slice.is_finite() && slice > 0.0) {
            return Err(LiveError::params("slice length must be positive"));
        }

        // Contiguous ranges, the first `n % shards` one bin longer.
        let (per, extra) = (n / shards, n % shards);
        let mut starts = Vec::with_capacity(shards);
        let mut end = 0;
        let shards = (0..shards)
            .map(|s| {
                let bins = end..end + per + usize::from(s < extra);
                starts.push(bins.start);
                end = bins.end;
                let counts = LoadIndex::from_loads(&initial.loads()[bins.clone()]);
                Mutex::new(Shard { bins, counts })
            })
            .collect();
        Ok(Self {
            shards,
            starts,
            published: initial.loads().to_vec(),
            params,
            policy,
            dest,
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

    /// Advance one slice on `threads` workers (`0` = the default pool
    /// size); returns the events processed.
    pub fn step_slice(&mut self, threads: usize) -> u64 {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        let factory = StreamFactory::new(self.seed);
        let batch = self.batch;
        let slice = self.slice;
        let params = self.params;
        let policy = self.policy;
        let dest = &self.dest;
        let published = &self.published;
        // The slice-start global population: what a distributed node could
        // actually know (the average-threshold policy reads it).
        let published_m: u64 = published.iter().sum();
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
                params,
                policy,
                dest,
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
        let mut inboxes: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        for result in &results {
            for &dest in &result.outbox {
                inboxes[self.owner_of(dest as usize)].push(dest);
            }
            deliveries += result.outbox.len() as u64;
            events += result.delta.events;
        }
        {
            let shards = &self.shards;
            let inboxes = &inboxes;
            parallel_map(shards.len(), threads, |s| {
                let mut shard = shards[s].lock().expect("shard lock");
                for &dest in &inboxes[s] {
                    let offset = dest as usize - shard.bins.start;
                    shard.counts.increment(offset);
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

        // Publish the post-barrier loads.
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock");
            self.published[shard.bins.clone()].copy_from_slice(shard.counts.loads());
        }
        self.time = (self.batch + 1) as f64 * self.slice;
        self.batch += 1;
        if let Some(m) = &self.metrics {
            m.slices.inc();
            m.outbox_deliveries.add(deliveries);
            m.shard_events.add(events);
            if let Some(start) = barrier_start {
                let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                m.barrier_merge_ns.record(ns);
            }
        }
        events
    }

    /// Run until simulated time reaches `until` (rounded up to whole
    /// slices) on `threads` workers (`0` = the default pool size),
    /// collecting steady-state statistics after `warmup`.
    pub fn run(&mut self, until: f64, warmup: f64, threads: usize) -> ShardedOutcome {
        let mut steady = SteadyState::new(warmup);
        let (gap, overload) = gap_and_overload(&self.published);
        steady.record(self.time, gap, overload);
        while self.time < until {
            let before = self.counters;
            self.step_slice(threads);
            let (gap, overload) = gap_and_overload(&self.published);
            steady.record(self.time, gap, overload);
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
            time: self.time,
            counters: self.counters,
            summary: steady.finish(self.time),
        }
    }

    /// The shard owning `bin`.
    fn owner_of(&self, bin: usize) -> usize {
        self.starts.partition_point(|&start| start <= bin) - 1
    }
}

/// Instantaneous gap and overload of a global load vector.
fn gap_and_overload(loads: &[u64]) -> (f64, u64) {
    let n = loads.len() as u64;
    let m: u64 = loads.iter().sum();
    let max = loads.iter().copied().max().unwrap_or(0);
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
    params: LiveParams,
    policy: RebalancePolicy,
    dest_sampler: &DestSampler,
    slice: f64,
    rng: &mut R,
) -> SliceResult {
    let n = published.len();
    let local_n = shard.bins.len();
    let share = local_n as f64 / n as f64;
    let mut outbox = Vec::new();
    let mut delta = LiveCounters::default();
    let mut elapsed = 0.0f64;

    loop {
        // Every resident ball carries a departure and a ring clock.
        let resident = shard.counts.total();
        let clock = resident as f64;
        let epoch_rate = params.arrivals.epoch_rate(n) * share;
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
                shard.counts.increment(rng.next_index(local_n));
                delta.arrivals += 1;
            }
        } else if pick < epoch_rate + clock * params.service_rate {
            // A uniform resident ball departs.
            let offset = shard.counts.bin_at(rng.next_below(resident));
            shard.counts.decrement(offset);
            delta.departures += 1;
        } else {
            delta.rings += 1;
            let source_offset = shard.counts.bin_at(rng.next_below(resident));
            let source = shard.bins.start + source_offset;
            // Candidates come from the topology's neighbourhood of the
            // ringing bin; a candidate owned by another shard is priced at
            // its slice-start published load (bounded staleness — the
            // decision a distributed node could actually make).
            let (bins, counts) = (&shard.bins, &shard.counts);
            let decision = policy.decide(
                RingContext { n, m: published_m },
                source,
                counts.load(source_offset),
                || dest_sampler.sample(source, rng),
                |bin| {
                    if bins.contains(&bin) {
                        counts.load(bin - bins.start)
                    } else {
                        published[bin]
                    }
                },
            );
            if decision.moved {
                let dest = decision.dest.expect("a moving ring has a destination");
                delta.migrations += 1;
                if shard.bins.contains(&dest) {
                    let dest_offset = dest - shard.bins.start;
                    shard.counts.record_move(source_offset, dest_offset);
                } else {
                    shard.counts.decrement(source_offset);
                    outbox.push(bin_u32(dest));
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
        for threads in [8, 0] {
            let out = sharded(16, 256, 4, 42).run(30.0, 5.0, threads);
            assert_eq!(out_1.final_loads, out.final_loads, "{threads} threads");
            assert_eq!(out_1.counters, out.counters, "{threads} threads");
            assert_eq!(out_1.summary, out.summary, "{threads} threads");
        }
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
}
