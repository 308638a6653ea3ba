//! Snapshot / restore of live-engine state.
//!
//! A [`Snapshot`] captures everything a bit-identical resumption needs:
//! the load vector, the clock, the counters, the dynamics parameters and
//! the caller's RNG state.  Snapshots are plain serde values; the CLI
//! persists them as canonical JSON and content-addresses the bytes through
//! `rls-campaign::hash`, so two snapshots with the same key are the same
//! state.
//!
//! ## Format versions
//!
//! * **v1** (unversioned, PR 2): carried a `balls: Vec<u32>` ball→bin slot
//!   map because uniform-ball sampling permuted concrete slots.  The
//!   load-index-sampled engine derives its entire sampling state from the
//!   load vector, so the map is gone — and with it the `u32::MAX` ball
//!   cap.
//! * **v2** (PR 3): an explicit `version` field plus the load vector only;
//!   hard-wired to RLS on the complete graph (a `rule` field).
//! * **v3** (PR 5): the engine is generic over a rebalance `policy` and a
//!   `topology` (plus the `graph_seed` its adjacency was drawn from), and
//!   the snapshot records all three so a restore rebuilds the identical
//!   sampler.
//! * **v4** (PR 7): heterogeneity — an optional `hetero` section records
//!   the weight distribution, the per-bin speed vector and (for non-unit
//!   distributions) the per-ball weights, so a weighted/speed-aware engine
//!   restores bit-identically.  `hetero: null` is the classic unit engine.
//! * **v5** ([`SNAPSHOT_VERSION`], current): elastic membership — the
//!   snapshot carries the **membership epoch log** (boot-time `n` plus
//!   every bin join/retirement since) and the churn process, so a restore
//!   replays the log through the elastic adjacency and reconstructs the
//!   exact live set, mid-drain or mid-join.  v1–v4 snapshots are
//!   **rejected with a clear error** rather than silently reinterpreted
//!   (a v4 snapshot does not say which of its bins were live, and its
//!   counters predate the scale-event counts); re-record them by replaying
//!   the original seed on the current engine.

use rls_core::{Config, MembershipSnapshot, RebalancePolicy};
use rls_graph::Topology;
use rls_rng::Xoshiro256PlusPlus;
use rls_workloads::{ChurnProcess, WeightDist};
use serde::{Deserialize, Serialize};

use crate::engine::{LiveCounters, LiveEngine, LiveParams};
use crate::LiveError;

/// Current snapshot format version (see the module docs for the history).
pub const SNAPSHOT_VERSION: u32 = 5;

/// The heterogeneity section of a v4 [`Snapshot`]: everything needed to
/// rebuild the weight/speed bookkeeping on top of the load vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeteroSnapshot {
    /// Law of arriving ball weights.
    pub dist: WeightDist,
    /// Per-bin integer speeds (all `≥ 1`, one per bin).
    pub speeds: Vec<u64>,
    /// Per-ball weights bin by bin; `None` iff `dist` is unit (every ball
    /// weighs `1` and the per-bin totals are the loads).
    pub balls: Option<Vec<Vec<u64>>>,
}

/// A serializable checkpoint of a [`LiveEngine`] plus its RNG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Format version; must equal [`SNAPSHOT_VERSION`].
    pub version: u32,
    /// Simulation time at capture.
    // detlint: allow(D004) restored verbatim; the clock continues from it
    pub time: f64,
    /// Event sequence number at capture.
    pub seq: u64,
    /// The load vector (the complete sampling state: balls are
    /// exchangeable).
    pub loads: Vec<u64>,
    /// Dynamics parameters.
    pub params: LiveParams,
    /// Rebalance policy in force.
    pub policy: RebalancePolicy,
    /// Topology destinations are sampled from.
    pub topology: Topology,
    /// Seed the (sparse) adjacency was drawn from.
    pub graph_seed: u64,
    /// Aggregate counters at capture.
    pub counters: LiveCounters,
    /// Heterogeneity state (weights/speeds); `None` on unit engines.
    pub hetero: Option<HeteroSnapshot>,
    /// The membership epoch log: boot-time bin count plus every scale
    /// event since, in order.  Replaying it reconstructs the exact live
    /// set and every elastic adjacency patch.
    pub membership: MembershipSnapshot,
    /// The churn process superposed into the event source.
    pub churn: ChurnProcess,
    /// The caller's generator state (xoshiro256++).
    pub rng_state: [u64; 4],
}

impl Snapshot {
    /// Capture an engine together with the RNG that drives it.
    pub fn capture(engine: &LiveEngine, rng: &Xoshiro256PlusPlus) -> Self {
        Self {
            version: SNAPSHOT_VERSION,
            time: engine.time(),
            seq: engine.counters().events,
            loads: engine.config().loads().to_vec(),
            params: engine.params(),
            policy: engine.policy(),
            topology: engine.topology(),
            graph_seed: engine.graph_seed(),
            counters: engine.counters(),
            hetero: capture_hetero(engine),
            membership: engine.membership().snapshot(),
            churn: engine.churn(),
            rng_state: rng.state(),
        }
    }

    /// Parse a snapshot from JSON, rejecting unsupported format versions
    /// with a clear error (a v1 snapshot — recognizable by its per-ball
    /// map and missing `version` field — cannot be resumed bit-identically
    /// by the load-index-sampled engine).
    pub fn from_json(text: &str) -> Result<Self, LiveError> {
        let value = serde_json::parse_value(text)
            .map_err(|e| LiveError::snapshot(format!("parse snapshot: {e}")))?;
        Self::from_value(&value)
    }

    /// Version-checked deserialization from an already-parsed JSON value
    /// (the CLI probes the value to route snapshots vs event logs, so it
    /// hands the parse over instead of re-reading the text).
    pub fn from_value(value: &serde_json::Value) -> Result<Self, LiveError> {
        let object = value
            .as_object()
            .ok_or_else(|| LiveError::snapshot("snapshot must be a JSON object"))?;
        let version = match object.get("version") {
            // The unversioned format is v1.
            None => 1,
            Some(v) => v.as_u64().ok_or_else(|| {
                LiveError::snapshot(format!("snapshot version must be an integer, got {v}"))
            })?,
        };
        if (1..SNAPSHOT_VERSION as u64).contains(&version) {
            return Err(LiveError::snapshot(format!(
                "legacy v{version} snapshot: this build reads version {SNAPSHOT_VERSION} and \
                 cannot resume an older format bit-identically (see the format history in \
                 the snapshot module docs); re-record the run with this build"
            )));
        }
        if version != SNAPSHOT_VERSION as u64 {
            return Err(LiveError::snapshot(format!(
                "unsupported snapshot version {version} (this build reads version \
                 {SNAPSHOT_VERSION})"
            )));
        }
        serde_json::from_value(value)
            .map_err(|e| LiveError::snapshot(format!("parse snapshot: {e}")))
    }

    /// Rebuild the engine and RNG; validates internal consistency.
    pub fn restore(&self) -> Result<(LiveEngine, Xoshiro256PlusPlus), LiveError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(LiveError::snapshot(format!(
                "unsupported snapshot version {} (this build reads version {SNAPSHOT_VERSION})",
                self.version
            )));
        }
        let cfg = Config::from_loads(self.loads.clone())
            .map_err(|e| LiveError::snapshot(format!("bad load vector: {e}")))?;
        if self.rng_state.iter().all(|&w| w == 0) {
            return Err(LiveError::snapshot("all-zero RNG state"));
        }
        let mut engine = LiveEngine::from_parts(
            cfg,
            self.params,
            self.policy,
            self.topology,
            self.graph_seed,
            self.membership.clone(),
            self.churn,
            self.time,
            self.seq,
            self.counters,
        )
        .map_err(|e| LiveError::snapshot(e.to_string()))?;
        if let Some(h) = &self.hetero {
            engine
                .attach_hetero(h.dist, h.speeds.clone(), h.balls.clone())
                .map_err(|e| LiveError::snapshot(format!("bad hetero section: {e}")))?;
        }
        Ok((engine, Xoshiro256PlusPlus::from_state(self.rng_state)))
    }
}

/// The heterogeneity section of `engine`, if it has one.
fn capture_hetero(engine: &LiveEngine) -> Option<HeteroSnapshot> {
    if !engine.is_hetero() {
        return None;
    }
    let n = engine.config().n();
    let balls = engine.stores_ball_weights().then(|| {
        (0..n)
            .map(|b| engine.ball_weights(b).expect("weighted engine").to_vec())
            .collect()
    });
    Some(HeteroSnapshot {
        dist: engine.weight_dist(),
        speeds: engine.speeds().expect("hetero engine has speeds").to_vec(),
        balls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_core::RlsRule;
    use rls_rng::rng_from_seed;
    use rls_workloads::ArrivalProcess;

    fn engine() -> LiveEngine {
        let initial = Config::uniform(8, 8).unwrap();
        let params =
            LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 8, 64).unwrap();
        LiveEngine::new(initial, params, RlsRule::paper()).unwrap()
    }

    #[test]
    fn resume_is_bit_identical_to_uninterrupted_run() {
        // Run A: straight through.
        let mut straight = engine();
        let mut rng_a = rng_from_seed(11);
        straight.run_until(30.0, &mut rng_a, &mut ());

        // Run B: pause at t=12, snapshot through JSON, resume.
        let mut paused = engine();
        let mut rng_b = rng_from_seed(11);
        paused.run_until(12.0, &mut rng_b, &mut ());
        let json = serde_json::to_string(&Snapshot::capture(&paused, &rng_b)).unwrap();
        let snap = Snapshot::from_json(&json).unwrap();
        let (mut resumed, mut rng_c) = snap.restore().unwrap();
        resumed.run_until(30.0, &mut rng_c, &mut ());

        assert_eq!(straight.config(), resumed.config());
        assert_eq!(straight.counters(), resumed.counters());
        assert_eq!(straight.time().to_bits(), resumed.time().to_bits());
        assert_eq!(rng_a.state(), rng_c.state());
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let eng = engine();
        let rng = rng_from_seed(1);
        let good = Snapshot::capture(&eng, &rng);
        assert_eq!(good.version, SNAPSHOT_VERSION);

        let mut zero_rng = good.clone();
        zero_rng.rng_state = [0; 4];
        assert!(zero_rng.restore().is_err());

        let mut empty = good.clone();
        empty.loads.clear();
        assert!(empty.restore().is_err());

        let mut wrong_version = good.clone();
        wrong_version.version = SNAPSHOT_VERSION + 1;
        let err = wrong_version.restore().unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn oversized_membership_is_rejected_before_allocating() {
        // A one-bin snapshot claiming 2⁴⁰ boot-time bins: a typed error,
        // not a panic or an O(2⁴⁰) allocation for the membership and
        // adjacency.
        let params =
            LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 1.0 }, 1, 4).unwrap();
        let one = LiveEngine::new(Config::uniform(1, 4).unwrap(), params, RlsRule::paper());
        let mut snap = Snapshot::capture(&one.unwrap(), &rng_from_seed(2));
        snap.membership.initial_n = 1 << 40;
        match snap.restore() {
            Err(LiveError::Snapshot(msg)) => assert!(msg.contains("bin ids"), "{msg}"),
            other => panic!("expected a snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn policy_and_topology_round_trip_through_snapshots() {
        // A greedy-2 engine on a torus: pause, snapshot through JSON,
        // resume — the restored sampler must be the identical adjacency.
        let params =
            LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 16, 128).unwrap();
        let build = || {
            LiveEngine::with_policy(
                Config::uniform(16, 8).unwrap(),
                params,
                RebalancePolicy::GreedyD { d: 2 },
                Topology::Torus2D,
                0xABCD,
            )
            .unwrap()
        };
        let mut straight = build();
        let mut rng_a = rng_from_seed(31);
        straight.run_until(30.0, &mut rng_a, &mut ());

        let mut paused = build();
        let mut rng_b = rng_from_seed(31);
        paused.run_until(12.0, &mut rng_b, &mut ());
        let json = serde_json::to_string(&Snapshot::capture(&paused, &rng_b)).unwrap();
        let snap = Snapshot::from_json(&json).unwrap();
        assert_eq!(snap.policy, RebalancePolicy::GreedyD { d: 2 });
        assert_eq!(snap.topology, Topology::Torus2D);
        assert_eq!(snap.graph_seed, 0xABCD);
        let (mut resumed, mut rng_c) = snap.restore().unwrap();
        resumed.run_until(30.0, &mut rng_c, &mut ());

        assert_eq!(straight.config(), resumed.config());
        assert_eq!(straight.counters(), resumed.counters());
        assert_eq!(rng_a.state(), rng_c.state());
    }

    #[test]
    fn weighted_engines_round_trip_through_snapshots() {
        use rls_workloads::WeightDist;

        let params =
            LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 8, 64).unwrap();
        let speeds = vec![4, 1, 1, 1, 2, 1, 1, 1];
        let build = |rng: &mut rls_rng::DefaultRng| {
            LiveEngine::with_hetero(
                Config::uniform(8, 8).unwrap(),
                params,
                RebalancePolicy::Rls {
                    variant: rls_core::RlsVariant::Geq,
                },
                Topology::Complete,
                0,
                WeightDist::UniformInt { lo: 1, hi: 9 },
                speeds.clone(),
                rng,
            )
            .unwrap()
        };

        let mut rng_a = rng_from_seed(21);
        let mut straight = build(&mut rng_a);
        straight.run_until(30.0, &mut rng_a, &mut ());

        let mut rng_b = rng_from_seed(21);
        let mut paused = build(&mut rng_b);
        paused.run_until(12.0, &mut rng_b, &mut ());
        let json = serde_json::to_string(&Snapshot::capture(&paused, &rng_b)).unwrap();
        let snap = Snapshot::from_json(&json).unwrap();
        let h = snap.hetero.as_ref().expect("weighted snapshot has hetero");
        assert_eq!(h.speeds, speeds);
        assert!(h.balls.is_some());
        let (mut resumed, mut rng_c) = snap.restore().unwrap();
        assert!(resumed.hetero_matches());
        resumed.run_until(30.0, &mut rng_c, &mut ());

        assert_eq!(straight.config(), resumed.config());
        assert_eq!(straight.counters(), resumed.counters());
        assert_eq!(straight.time().to_bits(), resumed.time().to_bits());
        assert_eq!(rng_a.state(), rng_c.state());
        for b in 0..8 {
            assert_eq!(straight.bin_weight(b), resumed.bin_weight(b));
            assert_eq!(straight.ball_weights(b), resumed.ball_weights(b));
        }
    }

    #[test]
    fn elastic_engines_round_trip_through_snapshots_mid_churn() {
        // An engine with live membership churn: bins join warm and drain
        // mid-run.  Pausing between scale events (the membership log is
        // non-trivial at capture), snapshotting through JSON and resuming
        // must replay the epoch log exactly — same live set, same elastic
        // adjacency, same trajectory, bit for bit.
        let params =
            LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 16, 128).unwrap();
        let build = || {
            let mut engine = LiveEngine::with_policy(
                Config::uniform(16, 8).unwrap(),
                params,
                RebalancePolicy::rls(),
                Topology::Complete,
                0x5EED,
            )
            .unwrap();
            engine
                .set_churn(ChurnProcess::Steady {
                    join_rate: 0.6,
                    drain_rate: 0.5,
                    warm: true,
                })
                .unwrap();
            engine
        };
        let mut straight = build();
        let mut rng_a = rng_from_seed(23);
        straight.run_until(30.0, &mut rng_a, &mut ());
        assert!(straight.epoch() > 0, "the churn process must actually fire");

        let mut paused = build();
        let mut rng_b = rng_from_seed(23);
        paused.run_until(12.0, &mut rng_b, &mut ());
        assert!(
            paused.epoch() > 0,
            "the pause must land after at least one scale event"
        );
        let json = serde_json::to_string(&Snapshot::capture(&paused, &rng_b)).unwrap();
        let snap = Snapshot::from_json(&json).unwrap();
        assert_eq!(snap.membership.log.len() as u64, paused.epoch());
        assert_eq!(
            snap.churn,
            ChurnProcess::Steady {
                join_rate: 0.6,
                drain_rate: 0.5,
                warm: true,
            }
        );
        let (mut resumed, mut rng_c) = snap.restore().unwrap();
        assert_eq!(resumed.epoch(), paused.epoch());
        assert_eq!(resumed.live_count(), paused.live_count());
        assert_eq!(
            resumed.membership().live_ids(),
            paused.membership().live_ids()
        );
        resumed.run_until(30.0, &mut rng_c, &mut ());

        assert_eq!(straight.config(), resumed.config());
        assert_eq!(straight.counters(), resumed.counters());
        assert_eq!(straight.epoch(), resumed.epoch());
        assert_eq!(
            straight.membership().live_ids(),
            resumed.membership().live_ids()
        );
        assert_eq!(straight.time().to_bits(), resumed.time().to_bits());
        assert_eq!(rng_a.state(), rng_c.state());
    }

    #[test]
    fn corrupt_hetero_sections_are_rejected() {
        use rls_workloads::WeightDist;

        let eng = engine();
        let rng = rng_from_seed(5);
        let good = Snapshot::capture(&eng, &rng);
        assert!(good.hetero.is_none(), "unit engines snapshot no hetero");

        // Wrong speeds length.
        let mut bad = good.clone();
        bad.hetero = Some(HeteroSnapshot {
            dist: WeightDist::Unit,
            speeds: vec![1; 3],
            balls: None,
        });
        assert!(bad.restore().is_err());

        // Ball counts disagreeing with the loads.
        let mut bad = good.clone();
        bad.hetero = Some(HeteroSnapshot {
            dist: WeightDist::UniformInt { lo: 1, hi: 4 },
            speeds: vec![1; 8],
            balls: Some(vec![vec![2]; 8]),
        });
        assert!(bad.restore().is_err());
    }

    #[test]
    fn legacy_v3_snapshots_are_rejected_with_a_migration_error() {
        // A faithful v3 shape: policy/topology but no hetero section.
        let v3 = r#"{
            "version": 3, "time": 3.5, "seq": 10,
            "loads": [2, 1],
            "params": {"arrivals": {"Poisson": {"rate_per_bin": 1.0}}, "service_rate": 0.5},
            "policy": {"Rls": {"variant": "Geq"}},
            "topology": "Complete",
            "graph_seed": 0,
            "counters": {"arrivals": 0, "departures": 0, "rings": 10, "migrations": 2, "events": 10},
            "rng_state": [1, 2, 3, 4]
        }"#;
        let err = Snapshot::from_json(v3).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("legacy v3"), "{msg}");
        assert!(msg.contains("re-record"), "{msg}");
    }

    #[test]
    fn legacy_v2_snapshots_are_rejected_with_a_migration_error() {
        // A faithful v2 shape: version field, `rule` instead of
        // policy/topology.
        let v2 = r#"{
            "version": 2, "time": 3.5, "seq": 10,
            "loads": [2, 1],
            "params": {"arrivals": {"Poisson": {"rate_per_bin": 1.0}}, "service_rate": 0.5},
            "rule": {"variant": "Geq"},
            "counters": {"arrivals": 0, "departures": 0, "rings": 10, "migrations": 2, "events": 10},
            "rng_state": [1, 2, 3, 4]
        }"#;
        let err = Snapshot::from_json(v2).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("legacy v2"), "{msg}");
        assert!(msg.contains("re-record"), "{msg}");
    }

    #[test]
    fn legacy_v1_snapshots_are_rejected_with_a_clear_error() {
        // A faithful v1 shape: ball map, no version field.
        let v1 = r#"{
            "time": 3.5, "seq": 10,
            "loads": [2, 1], "balls": [0, 0, 1],
            "params": {"arrivals": {"Poisson": {"rate_per_bin": 1.0}}, "service_rate": 0.5},
            "rule": {"variant": "Geq"},
            "counters": {"arrivals": 0, "departures": 0, "rings": 10, "migrations": 2, "events": 10},
            "rng_state": [1, 2, 3, 4]
        }"#;
        let err = Snapshot::from_json(v1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("legacy v1"), "{msg}");
        assert!(msg.contains("re-record"), "{msg}");
    }

    #[test]
    fn future_versions_are_rejected() {
        let eng = engine();
        let rng = rng_from_seed(2);
        let mut snap = Snapshot::capture(&eng, &rng);
        snap.version = 99;
        let json = serde_json::to_string(&snap).unwrap();
        let err = Snapshot::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn non_object_json_is_rejected() {
        assert!(Snapshot::from_json("[1, 2, 3]").is_err());
        assert!(Snapshot::from_json("not json at all").is_err());
    }
}
