//! The engine core behind the HTTP surface.
//!
//! [`ServeCore`] owns everything one serving instance needs: the
//! [`LiveEngine`], the seeded RNG that resolves sampled coordinates, a
//! [`SteadyState`] observer tapped on every applied event, and the
//! auto-rebalance policy.  Each HTTP endpoint is exactly one method here —
//! the server's connection threads call them in request order, and offline
//! callers (tests, benchmarks) call them directly to predict what the
//! server must answer for the same seed and command sequence.

use std::sync::Arc;

use rls_live::{
    LiveCommand, LiveEngine, LiveEventKind, LiveObserver, Reconvergence, Snapshot, SteadyState,
    DEFAULT_RECONV_THRESHOLD, SNAPSHOT_VERSION,
};
use rls_obs::Registry;
use rls_rng::dist::{Distribution, Poisson};
use rls_rng::{rng_from_seed, DefaultRng};

use crate::api::{
    AddBinReply, AddBinRequest, ArriveReply, ArriveRequest, BootIdentity, DepartReply,
    DepartRequest, DrainBinReply, DrainBinRequest, ElasticStats, HealthReply, HeteroStats,
    RestoreReply, RingReply, RingRequest, StatsReply,
};
use crate::metrics::ServeMetrics;
use crate::ServeError;

/// Upper bound on explicit `rings` in one request: a single request must
/// stay O(small), since it holds the engine's lock that every connection
/// needs.
pub const MAX_RINGS_PER_REQUEST: u64 = 10_000;

/// How the server rebalances on its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServePolicy {
    /// Mean number of RLS rings run after each arrival (Poisson-sampled,
    /// so the ring stream stays memoryless like the paper's clocks).  `0`
    /// disables auto-rebalancing; clients can still `POST /v1/ring`.
    pub rings_per_arrival: f64,
}

impl Default for ServePolicy {
    fn default() -> Self {
        Self {
            rings_per_arrival: 1.0,
        }
    }
}

/// The single-threaded serving core: engine + RNG + observer + policy.
///
/// ```
/// use rls_core::{Config, RlsRule};
/// use rls_live::{LiveEngine, LiveParams};
/// use rls_serve::{ArriveRequest, ServeCore, ServePolicy};
/// use rls_workloads::ArrivalProcess;
///
/// let initial = Config::uniform(8, 4).unwrap();
/// let params = LiveParams::balanced(
///     ArrivalProcess::Poisson { rate_per_bin: 1.0 }, 8, 32).unwrap();
/// let engine = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
/// let mut core = ServeCore::new(engine, 7, 0.0, ServePolicy::default());
///
/// let reply = core.arrive(&ArriveRequest::default()).unwrap();
/// assert!(reply.bin < 8);
/// assert_eq!(reply.m, 33);
/// assert_eq!(core.stats().counters.arrivals, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ServeCore {
    engine: LiveEngine,
    rng: DefaultRng,
    steady: SteadyState,
    /// Time-to-re-converge tracker fed alongside the steady-state observer
    /// (armed by `/v1/bins/*`, reported by `/v1/stats`).
    reconv: Reconvergence,
    policy: ServePolicy,
    /// The policy's ring-count law, built once ([`LiveEngine::auto_ring_law`];
    /// `None`: no auto-rebalance rings).
    ring_law: Option<Poisson>,
    /// Warm-up (engine-time units) excluded from the stats window; kept so
    /// a restore can re-arm the observer the same way.
    warmup: f64,
    /// Boot identity echoed by `/v1/stats` (rebuilt on restore).
    identity: BootIdentity,
    /// Telemetry tap (never consulted by any handler — attaching it can
    /// not change a trajectory or a reply body).
    metrics: Option<Arc<ServeMetrics>>,
}

impl ServeCore {
    /// A core over a fresh engine.  `warmup` engine-time units are
    /// excluded from the steady-state window (measured from the engine's
    /// current clock).
    pub fn new(engine: LiveEngine, seed: u64, warmup: f64, policy: ServePolicy) -> Self {
        let mut steady = SteadyState::new(engine.time() + warmup);
        steady.on_start(engine.tracker(), engine.time());
        let identity = identity_of(&engine, seed);
        Self {
            engine,
            rng: rng_from_seed(seed),
            steady,
            reconv: Reconvergence::new(DEFAULT_RECONV_THRESHOLD),
            policy,
            ring_law: LiveEngine::auto_ring_law(policy.rings_per_arrival),
            warmup,
            identity,
            metrics: None,
        }
    }

    /// Attach serving + engine telemetry to `registry`.  One registry
    /// collects the whole stack, so a single `GET /v1/metrics` scrape
    /// covers engine counters, policy probes and serve-stage timers.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.engine.attach_metrics(registry);
        self.metrics = Some(ServeMetrics::register(registry));
    }

    /// The attached telemetry, if any.
    pub fn metrics(&self) -> Option<&Arc<ServeMetrics>> {
        self.metrics.as_ref()
    }

    /// Hold the engine's telemetry over a batch of commands
    /// ([`LiveEngine::hold_telemetry`]), so the batch publishes once, at
    /// [`release_telemetry`](Self::release_telemetry).
    pub(crate) fn hold_telemetry(&mut self) {
        self.engine.hold_telemetry();
    }

    /// Publish the engine telemetry held since
    /// [`hold_telemetry`](Self::hold_telemetry).
    pub(crate) fn release_telemetry(&mut self) {
        self.engine.release_telemetry();
    }

    /// The engine (read-only; the core owns all mutation).
    pub fn engine(&self) -> &LiveEngine {
        &self.engine
    }

    /// The auto-rebalance policy in force.
    pub fn policy(&self) -> ServePolicy {
        self.policy
    }

    /// The boot identity `/v1/stats` echoes.
    pub fn identity(&self) -> &BootIdentity {
        &self.identity
    }

    fn check_bin(&self, what: &str, bin: Option<usize>) -> Result<(), ServeError> {
        if let Some(bin) = bin {
            let n = self.engine.config().n();
            if bin >= n {
                return Err(ServeError::bad_request(format!(
                    "{what} bin {bin} outside 0..{n}"
                )));
            }
        }
        Ok(())
    }

    /// `POST /v1/arrive` — place one ball, then run the auto-rebalance
    /// rings (or exactly `req.rings` of them).
    pub fn arrive(&mut self, req: &ArriveRequest) -> Result<ArriveReply, ServeError> {
        self.check_bin("arrival", req.bin)?;
        if req.weight == Some(0) {
            return Err(ServeError::bad_request("arrival weight must be at least 1"));
        }
        let rings = match req.rings {
            Some(rings) if rings > MAX_RINGS_PER_REQUEST => {
                return Err(ServeError::bad_request(format!(
                    "rings {rings} exceeds the per-request cap {MAX_RINGS_PER_REQUEST}"
                )));
            }
            Some(rings) => rings,
            // The engine owns the ring-count law (Poisson, like the
            // paper's clocks), so serve and live cannot drift apart.
            None => self.ring_law.map_or(0, |law| law.sample(&mut self.rng)),
        };

        // Resolve the ball's weight *here* so the reply can echo it: an
        // explicit weight is pinned as-is, otherwise the engine's weight
        // distribution is sampled (no draw — and no field in the reply —
        // on unit engines, keeping their byte streams unchanged).
        let weight = match req.weight {
            Some(w) => Some(w),
            None => self.engine.sample_arrival_weight(&mut self.rng),
        };
        let event = self
            .engine
            .apply_with(
                &LiveCommand::Arrive {
                    bin: req.bin,
                    weight,
                },
                &mut self.rng,
                &mut (&mut self.steady, &mut self.reconv),
            )
            .map_err(|e| ServeError::conflict(e.to_string()))?;
        let bin = match &event.kind {
            LiveEventKind::Arrival { bins } => bins[0] as usize,
            _ => unreachable!("arrive commands yield arrival events"),
        };

        // The rings run in one `run_rings` call: the same rings as one
        // `apply_with` per ring (the holding-time law `Exp(total_rate)` is
        // built once per run instead of once per ring, since rings on a
        // unit engine leave the total rate unchanged), with no command or
        // result vector.  The arrival stays a separate `apply_with` above
        // so a rejected arrival short-circuits before any ring runs.
        // m ≥ 1 right after an arrival, so rings cannot fail.
        let moved = self
            .engine
            .run_rings(
                rings,
                &mut self.rng,
                &mut (&mut self.steady, &mut self.reconv),
            )
            .map_err(|e| ServeError::internal(e.to_string()))?;

        Ok(ArriveReply {
            bin,
            weight,
            m: self.engine.config().m(),
            time: self.engine.time(),
            seq: self.engine.counters().events,
            rings,
            moved,
        })
    }

    /// `POST /v1/depart[/{bin}]` — remove one ball.
    pub fn depart(&mut self, req: &DepartRequest) -> Result<DepartReply, ServeError> {
        self.check_bin("departure", req.bin)?;
        let event = self
            .engine
            .apply_with(
                &LiveCommand::Depart {
                    bin: req.bin,
                    weight: None,
                },
                &mut self.rng,
                &mut (&mut self.steady, &mut self.reconv),
            )
            .map_err(|e| ServeError::conflict(e.to_string()))?;
        let bin = match event.kind {
            LiveEventKind::Departure { bin } => bin as usize,
            _ => unreachable!("depart commands yield departure events"),
        };
        Ok(DepartReply {
            bin,
            m: self.engine.config().m(),
            time: self.engine.time(),
            seq: self.engine.counters().events,
        })
    }

    /// `POST /v1/ring` — one explicit RLS ring.
    pub fn ring(&mut self, req: &RingRequest) -> Result<RingReply, ServeError> {
        self.check_bin("ring source", req.source)?;
        self.check_bin("ring destination", req.dest)?;
        let event = self
            .engine
            .apply_with(
                &LiveCommand::Ring {
                    source: req.source,
                    dest: req.dest,
                },
                &mut self.rng,
                &mut (&mut self.steady, &mut self.reconv),
            )
            .map_err(|e| ServeError::conflict(e.to_string()))?;
        let (source, dest, moved) = match event.kind {
            LiveEventKind::Ring {
                source,
                dest,
                moved,
            } => (source as usize, dest as usize, moved),
            _ => unreachable!("ring commands yield ring events"),
        };
        Ok(RingReply {
            source,
            dest,
            moved,
            m: self.engine.config().m(),
            time: self.engine.time(),
            seq: self.engine.counters().events,
        })
    }

    /// `POST /v1/bins/add` — admit one bin (empty, or warmed by the
    /// exchangeable-ball transfer) and advance the membership epoch.
    pub fn add_bin(&mut self, req: &AddBinRequest) -> Result<AddBinReply, ServeError> {
        let event = self
            .engine
            .apply_with(
                &LiveCommand::AddBin {
                    warm: req.warm.unwrap_or(false),
                },
                &mut self.rng,
                &mut (&mut self.steady, &mut self.reconv),
            )
            .map_err(|e| ServeError::conflict(e.to_string()))?;
        let (bin, warmed) = match &event.kind {
            LiveEventKind::BinsJoined { joins } => {
                (joins[0].bin as usize, joins[0].warm_from.len() as u64)
            }
            _ => unreachable!("add-bin commands yield join events"),
        };
        Ok(AddBinReply {
            bin,
            live_bins: self.engine.live_count(),
            epoch: self.engine.epoch(),
            warmed,
            m: self.engine.config().m(),
            time: self.engine.time(),
            seq: self.engine.counters().events,
        })
    }

    /// `POST /v1/bins/drain` — relocate every ball off a bin (pinned, or a
    /// uniformly random live one) and retire it from the live set.
    pub fn drain_bin(&mut self, req: &DrainBinRequest) -> Result<DrainBinReply, ServeError> {
        self.check_bin("drain", req.bin)?;
        let event = self
            .engine
            .apply_with(
                &LiveCommand::DrainBin { bin: req.bin },
                &mut self.rng,
                &mut (&mut self.steady, &mut self.reconv),
            )
            .map_err(|e| ServeError::conflict(e.to_string()))?;
        let (bin, relocated) = match &event.kind {
            LiveEventKind::BinsDrained { drains } => {
                (drains[0].bin as usize, drains[0].moved_to.len() as u64)
            }
            _ => unreachable!("drain-bin commands yield drain events"),
        };
        Ok(DrainBinReply {
            bin,
            live_bins: self.engine.live_count(),
            epoch: self.engine.epoch(),
            relocated,
            m: self.engine.config().m(),
            time: self.engine.time(),
            seq: self.engine.counters().events,
        })
    }

    /// `GET /v1/stats` — instantaneous state plus the steady-state digest
    /// of the window so far (the observer keeps accumulating afterwards).
    pub fn stats(&self) -> StatsReply {
        let tracker = self.engine.tracker();
        let gap = (tracker.max_load() as f64 - tracker.average()).max(0.0);
        let counters = self.engine.counters();
        let elastic = ElasticStats {
            epoch: self.engine.epoch(),
            live_bins: self.engine.live_count(),
            capacity: self.engine.config().n(),
            joins: counters.joins,
            drains: counters.drains,
            reconvergence: self.reconv.summary(),
        };
        StatsReply {
            n: tracker.n(),
            m: tracker.m(),
            time: self.engine.time(),
            gap,
            max_load: tracker.max_load(),
            summary: self.steady.clone().finish(self.engine.time()),
            counters,
            hetero: hetero_stats(&self.engine),
            elastic,
            identity: self.identity.clone(),
        }
    }

    /// `GET /healthz`.
    pub fn health(&self) -> HealthReply {
        HealthReply {
            status: "ok".to_string(),
            n: self.engine.config().n(),
            m: self.engine.config().m(),
            time: self.engine.time(),
            events: self.engine.counters().events,
        }
    }

    /// `GET /v1/snapshot` — the format-v2 checkpoint of engine + RNG as
    /// pretty JSON (byte-compatible with `rls-experiments live` snapshot
    /// files).
    pub fn snapshot_json(&self) -> String {
        render_snapshot(&self.capture_snapshot())
    }

    /// The checkpoint [`snapshot_json`](Self::snapshot_json) renders,
    /// taken apart from the rendering so the server can capture it under
    /// the engine's lock and render it after releasing the lock.
    pub(crate) fn capture_snapshot(&self) -> Snapshot {
        Snapshot::capture(&self.engine, &self.rng)
    }

    /// `POST /v1/restore` — replace engine and RNG with a snapshot and
    /// re-arm the stats window (warm-up measured from the restored clock).
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<RestoreReply, ServeError> {
        Ok(self.install(prepare_restore(snapshot)?))
    }

    /// The second half of [`restore`](Self::restore): swap a prepared
    /// engine and RNG in.  Building them reads only the snapshot, so the
    /// server does that before it takes the engine's lock.
    pub(crate) fn install(&mut self, restored: Restored) -> RestoreReply {
        // Publish what the outgoing engine counted and a batch still
        // holds; the restored engine publishes per call.
        self.engine.release_telemetry();
        self.engine = restored.engine;
        // The restored engine starts bare; re-tap it into the same
        // registry (instruments are shared, so totals keep accumulating).
        if let Some(m) = &self.metrics {
            self.engine.attach_metrics(m.registry());
        }
        self.rng = restored.rng;
        self.steady = SteadyState::new(self.engine.time() + self.warmup);
        self.steady
            .on_start(self.engine.tracker(), self.engine.time());
        // Re-convergence episodes do not survive a restore: the window (and
        // any outstanding scale event) belongs to the run that recorded it.
        self.reconv = Reconvergence::new(DEFAULT_RECONV_THRESHOLD);
        // Re-derive the identity from the restored engine; the boot seed
        // is kept for provenance (the RNG now comes from the snapshot).
        self.identity = identity_of(&self.engine, self.identity.seed);
        RestoreReply {
            n: self.engine.config().n(),
            m: self.engine.config().m(),
            time: self.engine.time(),
        }
    }
}

/// Pretty JSON of a snapshot, as `GET /v1/snapshot` serves it.
pub(crate) fn render_snapshot(snapshot: &Snapshot) -> String {
    serde_json::to_string_pretty(snapshot).expect("snapshots always encode")
}

/// An engine and RNG rebuilt from a snapshot, ready to
/// [`install`](ServeCore::install).
#[derive(Debug)]
pub(crate) struct Restored {
    engine: LiveEngine,
    rng: DefaultRng,
}

/// The first half of [`ServeCore::restore`]: rebuild the engine and RNG
/// from `snapshot` alone (`409` if the snapshot does not describe a
/// valid engine).
pub(crate) fn prepare_restore(snapshot: &Snapshot) -> Result<Restored, ServeError> {
    let (engine, rng) = snapshot
        .restore()
        .map_err(|e| ServeError::conflict(e.to_string()))?;
    Ok(Restored { engine, rng })
}

/// The boot identity of an engine driven from `seed`.
fn identity_of(engine: &LiveEngine, seed: u64) -> BootIdentity {
    BootIdentity {
        seed,
        n: engine.config().n(),
        m0: engine.config().m(),
        policy: engine.policy().to_string(),
        topology: engine.topology().to_string(),
        graph_seed: engine.graph_seed(),
        weights: engine.weight_dist().to_string(),
        speeds: speeds_digest(engine.speeds()),
        snapshot_version: SNAPSHOT_VERSION,
    }
}

/// A compact, deterministic digest of the speed vector for the boot
/// identity: `uniform` when every bin runs at speed 1, otherwise a
/// `mixed:…` summary (two like-for-like servers agree on it; the exact
/// vector lives in snapshots).
fn speeds_digest(speeds: Option<&[u64]>) -> String {
    match speeds {
        None => "uniform".to_string(),
        Some(s) if s.iter().all(|&v| v == 1) => "uniform".to_string(),
        Some(s) => {
            let min = s.iter().min().copied().unwrap_or(1);
            let max = s.iter().max().copied().unwrap_or(1);
            let sum: u64 = s.iter().sum();
            format!("mixed:min={min}:max={max}:sum={sum}")
        }
    }
}

/// The heterogeneity digest of `/v1/stats` (`None` on unit engines):
/// instantaneous normalized-load percentiles plus the certified optimality
/// interval from [`rls_analysis::makespan_bound`].
fn hetero_stats(engine: &LiveEngine) -> Option<HeteroStats> {
    if !engine.is_hetero() {
        return None;
    }
    // Percentiles and the optimality interval range over the *live* bins
    // only: a retired slot reports normalized load 0 and its machine is
    // gone, so capacity-wide iteration would deflate p50 after a drain and
    // hand the makespan bound speeds no assignment can use.
    let live = engine.membership();
    let n = live.live_count();
    let speeds: Vec<u64> = live.iter().map(|b| engine.speed(b)).collect();
    let mut norms: Vec<f64> = live.iter().map(|b| engine.normalized_load(b)).collect();
    norms.sort_by(|a, b| a.partial_cmp(b).expect("normalized loads are finite"));
    let at = |p: f64| norms[((n - 1) as f64 * p).round() as usize];

    let bound = if engine.stores_ball_weights() {
        let weights: Vec<u64> = live
            .iter()
            .flat_map(|b| engine.ball_weights(b).expect("weighted engine").iter())
            .copied()
            .collect();
        rls_analysis::makespan_bound(&weights, &speeds)
    } else {
        rls_analysis::makespan_bound_unit(engine.config().m(), &speeds)
    };
    let norm_max = norms[n - 1];
    Some(HeteroStats {
        total_weight: engine.total_weight(),
        total_speed: engine.total_speed(),
        norm_p50: at(0.50),
        norm_p99: at(0.99),
        norm_max,
        opt_lower: bound.lower,
        opt_upper: bound.upper,
        certified_gap: (norm_max - bound.lower).max(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_core::{Config, RlsRule};
    use rls_live::LiveParams;
    use rls_workloads::ArrivalProcess;

    fn core(seed: u64, policy: ServePolicy) -> ServeCore {
        let initial = Config::uniform(8, 8).unwrap();
        let params =
            LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 8, 64).unwrap();
        let engine = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
        ServeCore::new(engine, seed, 0.0, policy)
    }

    fn no_rings() -> ServePolicy {
        ServePolicy {
            rings_per_arrival: 0.0,
        }
    }

    #[test]
    fn arrive_depart_ring_mutate_the_engine() {
        let mut c = core(1, no_rings());
        let a = c
            .arrive(&ArriveRequest {
                bin: Some(3),
                rings: None,
                weight: None,
            })
            .unwrap();
        assert_eq!(a.bin, 3);
        assert_eq!(a.m, 65);
        assert_eq!(a.rings, 0);

        let d = c.depart(&DepartRequest { bin: Some(3) }).unwrap();
        assert_eq!(d.bin, 3);
        assert_eq!(d.m, 64);

        let r = c
            .ring(&RingRequest {
                source: None,
                dest: None,
            })
            .unwrap();
        assert!(r.source < 8 && r.dest < 8);
        assert_eq!(r.m, 64);
        assert_eq!(c.stats().counters.events, 3);
    }

    #[test]
    fn policy_rings_run_after_sampled_arrivals() {
        let mut c = core(
            2,
            ServePolicy {
                rings_per_arrival: 4.0,
            },
        );
        let mut rings = 0;
        for _ in 0..50 {
            rings += c.arrive(&ArriveRequest::default()).unwrap().rings;
        }
        // Poisson(4) over 50 arrivals: ~200 expected, wildly unlikely to
        // land below 100 or above 350.
        assert!((100..=350).contains(&rings), "rings {rings}");
        let stats = c.stats();
        assert_eq!(stats.counters.arrivals, 50);
        assert_eq!(stats.counters.rings, rings);
        // Explicit rings override the policy.
        let a = c
            .arrive(&ArriveRequest {
                bin: None,
                rings: Some(0),
                weight: None,
            })
            .unwrap();
        assert_eq!(a.rings, 0);
    }

    #[test]
    fn errors_use_http_statuses() {
        let mut c = core(3, no_rings());
        // Out-of-range bins are client errors.
        assert_eq!(
            c.arrive(&ArriveRequest {
                bin: Some(99),
                rings: None,
                weight: None,
            })
            .unwrap_err()
            .status,
            400
        );
        assert_eq!(
            c.ring(&RingRequest {
                source: Some(0),
                dest: Some(99)
            })
            .unwrap_err()
            .status,
            400
        );
        assert_eq!(
            c.arrive(&ArriveRequest {
                bin: None,
                rings: Some(MAX_RINGS_PER_REQUEST + 1),
                weight: None,
            })
            .unwrap_err()
            .status,
            400
        );
        // An in-range but empty bin is a state conflict.
        let mut drained = {
            let initial = Config::from_loads(vec![1, 0]).unwrap();
            let params = LiveParams {
                arrivals: ArrivalProcess::Poisson { rate_per_bin: 1.0 },
                service_rate: 0.0,
            };
            let engine = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
            ServeCore::new(engine, 4, 0.0, no_rings())
        };
        assert_eq!(
            drained
                .depart(&DepartRequest { bin: Some(1) })
                .unwrap_err()
                .status,
            409
        );
        // Errors leave no trace in the counters.
        assert_eq!(drained.stats().counters.events, 0);
    }

    #[test]
    fn snapshot_restore_round_trips_exactly() {
        let mut a = core(
            5,
            ServePolicy {
                rings_per_arrival: 2.0,
            },
        );
        for _ in 0..30 {
            a.arrive(&ArriveRequest::default()).unwrap();
        }
        let json = a.snapshot_json();

        // Restore into a fresh core (different seed — the snapshot's RNG
        // wins) and drive both identically: trajectories must agree.
        let mut b = core(
            999,
            ServePolicy {
                rings_per_arrival: 2.0,
            },
        );
        let snap = Snapshot::from_json(&json).unwrap();
        let restored = b.restore(&snap).unwrap();
        assert_eq!(restored.m, a.engine().config().m());

        for _ in 0..20 {
            let ra = a.arrive(&ArriveRequest::default()).unwrap();
            let rb = b.arrive(&ArriveRequest::default()).unwrap();
            assert_eq!(ra, rb);
        }
        assert_eq!(a.engine().config(), b.engine().config());
    }

    #[test]
    fn stats_echo_the_boot_identity() {
        let mut c = core(9, no_rings());
        let id = c.stats().identity;
        assert_eq!(id.seed, 9);
        assert_eq!((id.n, id.m0), (8, 64));
        assert_eq!(id.policy, "rls");
        assert_eq!(id.topology, "complete");
        assert_eq!(id.snapshot_version, rls_live::SNAPSHOT_VERSION);

        // A restore re-derives the identity from the restored engine but
        // keeps the boot seed for provenance.
        c.arrive(&ArriveRequest::default()).unwrap();
        let snap = rls_live::Snapshot::from_json(&c.snapshot_json()).unwrap();
        let mut other = core(1234, no_rings());
        other.restore(&snap).unwrap();
        let id = other.stats().identity;
        assert_eq!(id.seed, 1234, "boot seed is provenance, not RNG state");
        assert_eq!(id.m0, 65, "population at restore");
    }

    #[test]
    fn engine_series_keep_accumulating_in_the_same_cells_across_a_restore() {
        let registry = Registry::new();
        let mut c = core(5, ServePolicy::default());
        c.attach_metrics(&registry);
        let cells = Arc::clone(c.engine().metrics().expect("attached"));
        let drive = |c: &mut ServeCore| {
            for i in 0..40u64 {
                c.arrive(&ArriveRequest::default()).unwrap();
                if i % 3 == 0 {
                    c.depart(&DepartRequest { bin: None }).unwrap();
                }
            }
        };
        drive(&mut c);
        let first = c.engine().counters();
        let snap = rls_live::Snapshot::from_json(&c.snapshot_json()).unwrap();
        drive(&mut c);
        // The restored engine carries the snapshot's counters; only what
        // it does from here on is added on top of what was published.
        c.restore(&snap).unwrap();
        assert_eq!(c.engine().counters(), first);
        let restored = c.engine().metrics().expect("re-attached");
        assert!(
            Arc::ptr_eq(&cells.events, &restored.events),
            "the same cells"
        );
        let published = (cells.events.get(), cells.rings.get(), cells.probes.get());
        drive(&mut c);
        let now = c.engine().counters();
        assert_eq!(cells.events.get(), published.0 + now.events - first.events);
        assert_eq!(cells.rings.get(), published.1 + now.rings - first.rings);
        // RLS draws one candidate per ring.
        assert_eq!(cells.probes.get(), published.2 + now.rings - first.rings);
        let text = registry.render_prometheus();
        let events = format!("rls_engine_events_total {}", cells.events.get());
        assert!(text.contains(&events), "one series, not one per engine");
    }

    #[test]
    fn same_seed_same_commands_same_trajectory() {
        let mut a = core(7, ServePolicy::default());
        let mut b = core(7, ServePolicy::default());
        for i in 0..100u64 {
            let req = ArriveRequest {
                bin: (i % 3 == 0).then_some((i % 8) as usize),
                rings: None,
                weight: None,
            };
            assert_eq!(a.arrive(&req).unwrap(), b.arrive(&req).unwrap());
            if i % 4 == 0 {
                let d = DepartRequest { bin: None };
                assert_eq!(a.depart(&d).unwrap(), b.depart(&d).unwrap());
            }
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.snapshot_json(), b.snapshot_json());
    }
}
