//! # rls-live — online dynamic load balancing over request streams
//!
//! The paper analyses a *static* instance: `m` balls placed once, RLS run
//! until balanced.  This crate runs the same process as an *online
//! service*: balls arrive and depart over continuous time, superposed with
//! the paper's rate-1 rebalance clocks, so the load vector is a living
//! object with steady-state observables instead of a stopping time.
//!
//! * [`Instance`] — one online instance (size, workload, arrival law,
//!   policy, topology, weights, speeds, churn) and the one place an engine
//!   is built from it or refuses it with [`LiveError::Unsupported`].
//! * [`LiveEngine`] — the sequential engine: one O(1)-per-event superposed
//!   source merging arrivals ([`rls_workloads::ArrivalProcess`]),
//!   per-ball exponential departures and RLS rings.
//! * [`LiveCommand`] — externally-driven events for the serving layer:
//!   [`LiveEngine::apply`] executes one caller-chosen arrival, departure
//!   or ring (sampling any coordinate left open) instead of letting the
//!   simulation pick the event type.
//! * [`ShardedEngine`] — bins partitioned across workers, events processed
//!   in deterministic seeded batches; the trajectory is a function of the
//!   seed and shard/slice configuration only, never the thread count.
//! * [`SteadyState`] / [`SteadySummary`] — time-averaged gap, time-weighted
//!   overload quantiles (p50/p99/max) and rebalance-moves-per-arrival over
//!   a measurement window.
//! * [`Snapshot`] — checkpoint/restore of engine + RNG state for exact
//!   resumption (content-addressed by the CLI via `rls-campaign::hash`).
//! * [`replay()`](replay()) — re-execute a recorded [`EventLog`] without randomness and
//!   verify the final load vector and observer summaries bit-identically.
//!
//! ## Example
//!
//! ```
//! use rls_core::{Config, RlsRule};
//! use rls_live::{LiveEngine, LiveParams, SteadyState};
//! use rls_rng::rng_from_seed;
//! use rls_workloads::ArrivalProcess;
//!
//! let initial = Config::uniform(16, 4).unwrap();
//! // Hold the population at m = 64: arrivals at rate 2/bin, μ = λ/m.
//! let params = LiveParams::balanced(
//!     ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 16, 64).unwrap();
//! let mut engine = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
//! let mut steady = SteadyState::new(5.0); // 5 time units of warm-up
//! engine.run_until(20.0, &mut rng_from_seed(7), &mut steady);
//! let summary = steady.finish(engine.time());
//! assert!(summary.mean_gap < 10.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;

mod books;
pub mod command;
pub mod engine;
pub mod event;
pub mod instance;
pub mod metrics;
pub mod observer;
pub mod replay;
pub mod sharded;
pub mod snapshot;

pub use command::LiveCommand;
pub use engine::{LiveCounters, LiveEngine, LiveParams};
pub use event::{LiveEvent, LiveEventKind};
pub use instance::Instance;
pub use metrics::{LiveMetrics, ShardedMetrics};
pub use observer::{
    LiveObserver, ReconvSummary, Reconvergence, SteadyState, SteadySummary,
    DEFAULT_RECONV_THRESHOLD,
};
pub use replay::{replay, EventLog, LogFooter, LogHeader, Recorder, ReplayReport};
pub use sharded::{ShardedEngine, ShardedOutcome};
pub use snapshot::{HeteroSnapshot, Snapshot, SNAPSHOT_VERSION};

/// Errors from the live engine, snapshots, event logs or commands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveError {
    /// The dynamics parameters are unusable.
    Params(String),
    /// A snapshot is internally inconsistent.
    Snapshot(String),
    /// An event log is malformed or cannot be applied.
    Log(String),
    /// An externally-driven [`LiveCommand`] cannot be applied to the
    /// current state (out-of-range bin, departure from an empty bin, …).
    Command(String),
    /// An engine does not run an instance with this axis value.  Boxed so
    /// the error does not grow: served commands return a
    /// `Result<_, LiveError>` each.
    Unsupported(Box<Unsupported>),
}

/// What [`LiveError::Unsupported`] names: the `engine` that refused, the
/// instance `axis` it has no support for, and that axis's `value` in its
/// text form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported {
    /// The engine that refused (`"sharded"`).
    pub engine: &'static str,
    /// The instance axis (`"weights"`, `"speeds"`, `"churn"`, `"arrival"`).
    pub axis: &'static str,
    /// The axis's value, e.g. `bursts:2:8`.
    pub value: String,
}

impl LiveError {
    pub(crate) fn params(message: impl Into<String>) -> Self {
        LiveError::Params(message.into())
    }

    pub(crate) fn snapshot(message: impl Into<String>) -> Self {
        LiveError::Snapshot(message.into())
    }

    pub(crate) fn log(message: impl Into<String>) -> Self {
        LiveError::Log(message.into())
    }

    pub(crate) fn command(message: impl Into<String>) -> Self {
        LiveError::Command(message.into())
    }

    pub(crate) fn unsupported(engine: &'static str, axis: &'static str, value: String) -> Self {
        LiveError::Unsupported(Box::new(Unsupported {
            engine,
            axis,
            value,
        }))
    }
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Params(m) => write!(f, "live engine parameters: {m}"),
            LiveError::Snapshot(m) => write!(f, "live snapshot: {m}"),
            LiveError::Log(m) => write!(f, "live event log: {m}"),
            LiveError::Command(m) => write!(f, "live command: {m}"),
            LiveError::Unsupported(u) => write!(
                f,
                "{} `{}` is not supported by the {} engine",
                u.axis, u.value, u.engine
            ),
        }
    }
}

impl std::error::Error for LiveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert!(LiveError::params("bad rate")
            .to_string()
            .contains("bad rate"));
        assert!(LiveError::snapshot("x").to_string().contains("snapshot"));
        assert!(LiveError::log("y").to_string().contains("event log"));
        assert_eq!(
            LiveError::unsupported("sharded", "arrival", "bursts:2:8".into()).to_string(),
            "arrival `bursts:2:8` is not supported by the sharded engine"
        );
    }

    #[test]
    fn the_unsupported_variant_does_not_grow_the_error() {
        // `apply_batch` returns one `Result<LiveEvent, LiveError>` per
        // served command; with its payload boxed, the new variant leaves the
        // error at the size it had with four `String` variants.
        assert_eq!(std::mem::size_of::<LiveError>(), 32);
    }
}
