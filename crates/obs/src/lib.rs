//! # rls-obs — zero-perturbation telemetry for the RLS stack
//!
//! Every runtime crate in this workspace (live engine, sharded engine,
//! HTTP serving layer, campaign driver) threads its counters and timers
//! through this crate.  The design constraint is hard: **enabling
//! telemetry never changes a trajectory**.  Nothing here draws from an
//! engine RNG, branches on an observed value, or feeds anything back into
//! the system under measurement — instruments are write-only taps on
//! atomic cells, and the bit-identity tests in `crates/live/tests/`
//! enforce that an instrumented run and a bare run produce identical
//! load vectors, counters, clocks and RNG states.
//!
//! ## Pieces
//!
//! * [`Counter`] / [`Gauge`] — relaxed `AtomicU64` cells.
//! * [`Histogram`] — a fixed-bucket log-linear histogram over `u64`
//!   values (nanoseconds, depths, byte counts).  Lock-free recording,
//!   mergeable snapshots, bounded relative quantile error
//!   ([`Histogram::MAX_RELATIVE_ERROR`]).
//! * [`Registry`] — the named catalog: registers metrics once, hands out
//!   shared handles, and renders the whole catalog as Prometheus text
//!   exposition ([`Registry::render_prometheus`]) or a JSON snapshot
//!   ([`Registry::snapshot_json`]).
//! * [`FlightRecorder`] — a fixed-size seqlock ring of recent annotated
//!   events (the serving layer's black box: command kind, coordinates,
//!   stage latencies), dumpable at any time without stopping writers.
//!
//! The crate is `std`-only and dependency-free so every layer — including
//! `rls-core`-adjacent hot paths — can afford the tap.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod flight;
mod metrics;
mod registry;

pub use flight::{FlightEvent, FlightRecorder};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricKind, Registry};
