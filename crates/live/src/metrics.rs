//! Engine-side telemetry bundles.
//!
//! [`LiveMetrics`] and [`ShardedMetrics`] are pre-resolved handles into an
//! [`rls_obs::Registry`]: the engine looks up each instrument once at
//! attach time.  The live engine's events only bump plain counts; each
//! public call ends by adding what they gained to these handles, so a
//! scrape is exact between calls and may trail a call still running.
//! Attaching metrics is strictly write-only — the zero-perturbation invariant (see
//! `docs/OBSERVABILITY.md` and the bit-identity tests in
//! `tests/obs_identity.rs`) is that an engine with metrics attached
//! consumes the exact same random stream and produces the exact same
//! trajectory as one without.

use std::sync::Arc;

use rls_obs::{Counter, Histogram, Registry};

/// Telemetry handles for one [`LiveEngine`](crate::LiveEngine).
///
/// Probe counts are labeled by the engine's policy spec string so a
/// cross-policy comparison run exposes one probe series per policy.
#[derive(Debug)]
pub struct LiveMetrics {
    /// Events applied (steps + external commands).
    pub events: Arc<Counter>,
    /// Balls arrived.
    pub arrivals: Arc<Counter>,
    /// Balls departed.
    pub departures: Arc<Counter>,
    /// Ring clocks fired.
    pub rings: Arc<Counter>,
    /// Rings whose decision moved the ball.
    pub moves_accepted: Arc<Counter>,
    /// Rings whose decision kept the ball in place.
    pub moves_rejected: Arc<Counter>,
    /// Candidate destinations sampled by the policy (labeled by policy).
    pub probes: Arc<Counter>,
    /// Load-index tree levels read per clock descent (one cache line each).
    pub descent_depth: Arc<Histogram>,
}

impl LiveMetrics {
    /// Resolves the engine metric family handles in `registry`, labeling
    /// the probe counter with `policy` (the policy's spec string, e.g.
    /// `"rls"` or `"greedy-2"`).
    pub fn register(registry: &Registry, policy: &str) -> Arc<Self> {
        Arc::new(Self {
            events: registry.counter(
                "rls_engine_events_total",
                "Events applied by the live engine (simulated steps and external commands)",
            ),
            arrivals: registry.counter("rls_engine_arrivals_total", "Balls arrived"),
            departures: registry.counter("rls_engine_departures_total", "Balls departed"),
            rings: registry.counter("rls_engine_rings_total", "Ring clocks fired"),
            moves_accepted: registry.counter(
                "rls_engine_moves_accepted_total",
                "Rings whose policy decision moved the ball",
            ),
            moves_rejected: registry.counter(
                "rls_engine_moves_rejected_total",
                "Rings whose policy decision kept the ball in place",
            ),
            probes: registry.counter_with(
                "rls_engine_probes_total",
                "Candidate destinations sampled by the rebalance policy",
                &[("policy", policy)],
            ),
            descent_depth: registry.histogram(
                "rls_engine_descent_depth",
                "Load-index tree levels read per clock-rank descent",
            ),
        })
    }
}

/// Telemetry handles for one [`ShardedEngine`](crate::ShardedEngine).
#[derive(Debug)]
pub struct ShardedMetrics {
    /// Deterministic slices executed.
    pub slices: Arc<Counter>,
    /// Cross-shard deliveries merged at slice barriers.
    pub outbox_deliveries: Arc<Counter>,
    /// Nanoseconds spent in the single-threaded barrier merge per slice.
    pub barrier_merge_ns: Arc<Histogram>,
    /// Events processed across shard workers (summed by the barrier's
    /// sequential merge, so a plain counter).
    pub shard_events: Arc<Counter>,
}

impl ShardedMetrics {
    /// Resolves the sharded-engine metric family handles in `registry`.
    pub fn register(registry: &Registry) -> Arc<Self> {
        Arc::new(Self {
            slices: registry.counter(
                "rls_sharded_slices_total",
                "Deterministic slices executed by the sharded engine",
            ),
            outbox_deliveries: registry.counter(
                "rls_sharded_outbox_deliveries_total",
                "Cross-shard deliveries merged at slice barriers",
            ),
            barrier_merge_ns: registry.histogram(
                "rls_sharded_barrier_merge_ns",
                "Nanoseconds spent in the single-threaded barrier merge per slice",
            ),
            shard_events: registry.counter(
                "rls_sharded_shard_events_total",
                "Events processed across shard workers",
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registering_twice_shares_the_same_cells() {
        let registry = Registry::new();
        let a = LiveMetrics::register(&registry, "rls");
        let b = LiveMetrics::register(&registry, "rls");
        a.events.add(3);
        assert_eq!(b.events.get(), 3);
    }

    #[test]
    fn probe_series_split_by_policy() {
        let registry = Registry::new();
        let a = LiveMetrics::register(&registry, "rls");
        let b = LiveMetrics::register(&registry, "greedy-2");
        a.probes.inc();
        b.probes.add(2);
        assert_eq!(a.probes.get(), 1);
        assert_eq!(b.probes.get(), 2);
        let text = registry.render_prometheus();
        assert!(text.contains("rls_engine_probes_total{policy=\"rls\"} 1"));
        assert!(text.contains("rls_engine_probes_total{policy=\"greedy-2\"} 2"));
    }

    #[test]
    fn sharded_metrics_register() {
        let registry = Registry::new();
        let m = ShardedMetrics::register(&registry);
        m.slices.inc();
        m.shard_events.add(5);
        m.barrier_merge_ns.record(100);
        let text = registry.render_prometheus();
        assert!(text.contains("rls_sharded_slices_total 1"));
        assert!(text.contains("rls_sharded_shard_events_total 5"));
        assert!(text.contains("rls_sharded_barrier_merge_ns_count 1"));
    }
}
