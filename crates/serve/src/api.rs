//! Request and reply bodies of the HTTP API.
//!
//! Every endpoint exchanges small JSON objects; the types here are the
//! single source of truth shared by the server's router, the trace-replay
//! driver and the end-to-end tests.  `docs/SERVE.md` documents
//! the same surface with curl examples.

use rls_live::{LiveCounters, ReconvSummary, SteadySummary};
use serde::{Deserialize, Serialize};

/// Body of `POST /v1/arrive` (may be omitted entirely).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArriveRequest {
    /// Destination bin; omit to let the configured arrival process place
    /// the ball.
    pub bin: Option<usize>,
    /// Exact number of RLS rebalance rings to run after the arrival; omit
    /// to draw from the server's auto-rebalance policy.  Trace replay pins
    /// this to `0`.
    pub rings: Option<u64>,
    /// Weight of the arriving ball (`≥ 1`); omit to draw it from the
    /// server's weight distribution (`1` on unit servers).  Weights other
    /// than `1` need a server booted with `--weights`.
    pub weight: Option<u64>,
}

/// Reply of `POST /v1/arrive`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArriveReply {
    /// The bin the ball was assigned to.
    pub bin: usize,
    /// Weight the ball arrived with: the pinned request weight, or the
    /// drawn one on weighted servers.  `null` on unit servers (every ball
    /// weighs `1`).
    pub weight: Option<u64>,
    /// Population after the arrival (and its rebalance rings).
    pub m: u64,
    /// Engine clock after the event.
    pub time: f64,
    /// Events processed so far (sequence number of the last one).
    pub seq: u64,
    /// Rebalance rings run for this request.
    pub rings: u64,
    /// How many of those rings migrated a ball.
    pub moved: u64,
}

/// Body of `POST /v1/depart` (may be omitted; `POST /v1/depart/{bin}`
/// fills `bin` from the path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepartRequest {
    /// Bin the departing ball leaves; omit to remove a uniformly random
    /// ball (a load-proportional bin).
    pub bin: Option<usize>,
}

/// Reply of `POST /v1/depart`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepartReply {
    /// The bin the ball departed from.
    pub bin: usize,
    /// Population after the departure.
    pub m: u64,
    /// Engine clock after the event.
    pub time: f64,
    /// Events processed so far.
    pub seq: u64,
}

/// Body of `POST /v1/ring` (may be omitted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingRequest {
    /// Bin of the ringing ball; omit to activate a uniformly random ball.
    pub source: Option<usize>,
    /// Sampled destination bin; omit to draw it uniformly.
    pub dest: Option<usize>,
}

/// Reply of `POST /v1/ring`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RingReply {
    /// Bin of the activated ball.
    pub source: usize,
    /// Destination the ball sampled.
    pub dest: usize,
    /// Whether the RLS rule let the ball migrate.
    pub moved: bool,
    /// Population (unchanged by rings).
    pub m: u64,
    /// Engine clock after the event.
    pub time: f64,
    /// Events processed so far.
    pub seq: u64,
}

/// Body of `POST /v1/bins/add` (may be omitted entirely).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddBinRequest {
    /// `true` seeds the newcomer with `⌊m/n'⌋` balls stolen uniformly from
    /// the rest of the system (the exchangeable-ball law); omit or `false`
    /// to admit it empty.
    pub warm: Option<bool>,
}

/// Reply of `POST /v1/bins/add`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddBinReply {
    /// Id of the new bin (monotone — retired ids are never reused).
    pub bin: usize,
    /// Live bins after the join.
    pub live_bins: usize,
    /// Membership epoch after the join.
    pub epoch: u64,
    /// Balls moved into the newcomer by the warm transfer (`0` when cold).
    pub warmed: u64,
    /// Population (unchanged — joins conserve balls).
    pub m: u64,
    /// Engine clock after the event.
    pub time: f64,
    /// Events processed so far.
    pub seq: u64,
}

/// Body of `POST /v1/bins/drain` (may be omitted entirely).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainBinRequest {
    /// Bin to drain and retire; omit to retire a uniformly random live bin.
    pub bin: Option<usize>,
}

/// Reply of `POST /v1/bins/drain`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrainBinReply {
    /// Id of the retired bin.
    pub bin: usize,
    /// Live bins after the drain.
    pub live_bins: usize,
    /// Membership epoch after the drain.
    pub epoch: u64,
    /// Balls relocated off the victim before retirement.
    pub relocated: u64,
    /// Population (unchanged — drains conserve balls).
    pub m: u64,
    /// Engine clock after the event.
    pub time: f64,
    /// Events processed so far.
    pub seq: u64,
}

/// Elastic-membership digest inside [`StatsReply`].  Present on every
/// server: a never-scaled instance reports epoch `0` with all bins live.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticStats {
    /// Membership epoch (scale events applied since boot).
    pub epoch: u64,
    /// Bins currently live (serving load).
    pub live_bins: usize,
    /// Total bin ids ever allocated (live + retired).
    pub capacity: usize,
    /// Bins joined since boot (or the last restore).
    pub joins: u64,
    /// Bins drained since boot (or the last restore).
    pub drains: u64,
    /// Time-to-re-converge digest over the scale events seen so far.
    pub reconvergence: ReconvSummary,
}

/// The engine's boot identity, echoed by `GET /v1/stats` and the replay
/// driver so operators can verify two servers (or a server and an offline
/// core) are running like-for-like instances before comparing digests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BootIdentity {
    /// Seed of the engine-thread RNG at boot (a restore replaces the RNG
    /// with the snapshot's, so compare snapshots — not this — afterwards).
    pub seed: u64,
    /// Number of bins.
    pub n: usize,
    /// Population at boot (or at the last restore).
    pub m0: u64,
    /// Rebalance policy, in spec-string form (`rls`, `greedy-2`, …).
    pub policy: String,
    /// Topology, in spec-string form (`complete`, `torus`,
    /// `random-regular:8`, …).
    pub topology: String,
    /// Seed the (sparse) adjacency was drawn from.
    pub graph_seed: u64,
    /// Weight distribution, in spec-string form (`unit`, `uniform:1:8`,
    /// `pareto:1.5:64`).
    pub weights: String,
    /// Bin-speed digest: `uniform` when every bin runs at speed 1,
    /// otherwise a compact `mixed:…` summary of the speed vector.
    pub speeds: String,
    /// Snapshot format version this server reads and writes.
    pub snapshot_version: u32,
}

/// Reply of `GET /v1/stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Number of bins.
    pub n: usize,
    /// Current population.
    pub m: u64,
    /// Engine clock.
    pub time: f64,
    /// Instantaneous gap `max load − m/n`.
    pub gap: f64,
    /// Current maximum bin load.
    pub max_load: u64,
    /// Steady-state digest over the measurement window so far (time-
    /// averaged gap, time-weighted p50/p99/max overload, moves per
    /// arrival).
    pub summary: SteadySummary,
    /// Aggregate event counters since boot (or the last restore).
    pub counters: LiveCounters,
    /// Heterogeneity digest; `null` on unit servers.
    pub hetero: Option<HeteroStats>,
    /// Elastic-membership digest (epoch, live set, re-convergence times).
    pub elastic: ElasticStats,
    /// The engine's boot identity (seed, shape, policy, topology).
    pub identity: BootIdentity,
}

/// Heterogeneity digest inside [`StatsReply`], present only on servers
/// booted with `--weights`/`--speeds`.
///
/// Normalized load is `W_i / s_i` (total ball weight over bin speed) — the
/// quantity the weighted RLS rule balances.  The `opt_*` fields are a
/// *certified* interval around the best achievable maximum normalized load
/// for the current ball population (`rls_analysis::makespan_bound`): no
/// assignment can beat `opt_lower`, and `opt_upper` is achieved by a
/// concrete greedy assignment.  `certified_gap` is therefore a proof, not
/// an estimate: the current placement is at most that far above optimal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeteroStats {
    /// Total ball weight `Σ W_i`.
    pub total_weight: u64,
    /// Total bin speed `Σ s_i`.
    pub total_speed: u64,
    /// Median instantaneous normalized load.
    pub norm_p50: f64,
    /// 99th-percentile instantaneous normalized load.
    pub norm_p99: f64,
    /// Maximum instantaneous normalized load (the current makespan).
    pub norm_max: f64,
    /// Certified lower bound on the optimal makespan.
    pub opt_lower: f64,
    /// Certified upper bound on the optimal makespan (greedy witness).
    pub opt_upper: f64,
    /// `norm_max − opt_lower`, clamped at `0`: the certified distance to
    /// optimal.
    pub certified_gap: f64,
}

/// Reply of `POST /v1/restore`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RestoreReply {
    /// Number of bins after the restore.
    pub n: usize,
    /// Population after the restore.
    pub m: u64,
    /// Engine clock after the restore.
    pub time: f64,
}

/// Reply of `GET /healthz`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReply {
    /// Always `"ok"` when the engine thread answers.
    pub status: String,
    /// Number of bins.
    pub n: usize,
    /// Current population.
    pub m: u64,
    /// Engine clock.
    pub time: f64,
    /// Events processed since boot.
    pub events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optional_fields_may_be_omitted() {
        let req: ArriveRequest = serde_json::from_str("{}").unwrap();
        assert_eq!(req, ArriveRequest::default());
        let req: ArriveRequest = serde_json::from_str(r#"{"bin": 3}"#).unwrap();
        assert_eq!(req.bin, Some(3));
        assert_eq!(req.rings, None);
        let req: RingRequest = serde_json::from_str(r#"{"source": 1, "dest": 0}"#).unwrap();
        assert_eq!(req.source, Some(1));
        assert_eq!(req.dest, Some(0));
    }

    #[test]
    fn replies_round_trip() {
        let reply = ArriveReply {
            bin: 4,
            weight: Some(3),
            m: 65,
            time: 1.25,
            seq: 17,
            rings: 2,
            moved: 1,
        };
        let json = serde_json::to_string(&reply).unwrap();
        let back: ArriveReply = serde_json::from_str(&json).unwrap();
        assert_eq!(reply, back);
    }
}
