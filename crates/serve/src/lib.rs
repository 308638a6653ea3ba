//! # rls-serve — a std-only HTTP serving layer over the live engine
//!
//! `rls-live` simulates an online instance: arrivals, departures and RLS
//! rebalance rings superposed in continuous time.  This crate puts that
//! engine behind an actual network endpoint, turning the reproduction into
//! a usable load balancer: clients `POST /v1/arrive` to have a ball
//! assigned to a bin, `POST /v1/depart` when one leaves, and read the
//! steady-state observables (`GET /v1/stats`), all over plain HTTP/1.1 on
//! a `std::net::TcpListener` — no async runtime, no dependencies (the
//! workspace is offline/vendored).
//!
//! ## Pieces
//!
//! * [`ServeCore`] — the single-threaded heart: a
//!   [`LiveEngine`](rls_live::LiveEngine) plus its RNG, a
//!   [`SteadyState`](rls_live::SteadyState) observer tap and the
//!   auto-rebalance policy.  Everything the server does over HTTP is a
//!   method here, so tests and benchmarks can cross-check the HTTP path
//!   against an offline core driven with the same seed.
//! * [`serve`]/[`HttpServer`] — an accept thread and one blocking thread
//!   per connection: the thread that reads a request parses it straight
//!   off the connection buffer, executes it on the core under a mutex and
//!   writes the reply, so a request never crosses a thread.  Fixed bounds
//!   cap what clients can make it hold (connections, header and idle
//!   time, body size, replies per write; see `docs/SERVE.md`).  It is
//!   bit-identical to an offline [`ServeCore`] on the same seed.
//! * [`HttpClient`] — a minimal blocking keep-alive
//!   client used by the trace-replay driver, the end-to-end tests and the
//!   repository benchmark's serving workloads (`perfbench/`).
//! * [`replay`] — [`replay_over_http`], which feeds a recorded `rls-live`
//!   event log through the HTTP path (`rls-experiments serve replay`) and
//!   checks the resulting load vector against the offline replay
//!   bit-for-bit.
//!
//! ## Determinism
//!
//! A connection's commands apply in arrival order against a seeded RNG,
//! so a given command sequence produces one trajectory: driving the
//! HTTP API from one connection is reproducible end to end, and
//! `GET /v1/snapshot` / `POST /v1/restore` round-trip the exact state
//! (format-v2 snapshots, including the RNG).  See `docs/SERVE.md` for the
//! full API reference.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;

pub mod api;
pub mod client;
pub mod core;
mod frontend;
pub mod http;
pub mod metrics;
pub mod replay;
pub mod server;

pub use api::{
    AddBinReply, AddBinRequest, ArriveReply, ArriveRequest, BootIdentity, DepartReply,
    DepartRequest, DrainBinReply, DrainBinRequest, ElasticStats, HealthReply, HeteroStats,
    RestoreReply, RingReply, RingRequest, StatsReply,
};
pub use client::HttpClient;
pub use core::{ServeCore, ServePolicy, RECONV_GAP_THRESHOLD};
pub use metrics::{endpoint_index, ServeMetrics, CATALOG, ENDPOINTS};
pub use replay::{core_from_log, replay_over_http, ReplayOutcome};
pub use server::{serve, Frontend, HttpServer, ServerConfig};

/// An error with an HTTP status: everything a handler can reject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// HTTP status code the handler maps to (400, 404, 405, 408, 409,
    /// 413, 500, 503).
    pub status: u16,
    /// Human-readable description, returned as `{"error": ...}`.
    pub message: String,
}

impl ServeError {
    /// 400 — the request itself is malformed (bad JSON, bad bin id).
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    /// 404 — no such route.
    pub fn not_found(path: &str) -> Self {
        Self {
            status: 404,
            message: format!("no route for `{path}`"),
        }
    }

    /// 405 — the route exists but not for this method.
    pub fn method_not_allowed(method: &str, path: &str) -> Self {
        Self {
            status: 405,
            message: format!("`{path}` does not accept {method}"),
        }
    }

    /// 409 — the request is well-formed but conflicts with the current
    /// state (departure from an empty bin, restore of an unreadable
    /// snapshot).
    pub fn conflict(message: impl Into<String>) -> Self {
        Self {
            status: 409,
            message: message.into(),
        }
    }

    /// 408 — the client took too long to send a request head.
    pub fn timeout(message: impl Into<String>) -> Self {
        Self {
            status: 408,
            message: message.into(),
        }
    }

    /// 503 — the server is at its connection cap.
    pub fn unavailable(message: impl Into<String>) -> Self {
        Self {
            status: 503,
            message: message.into(),
        }
    }

    /// 500 — the server itself failed.
    pub fn internal(message: impl Into<String>) -> Self {
        Self {
            status: 500,
            message: message.into(),
        }
    }

    /// The standard reason phrase for [`status`](Self::status).
    pub fn reason(&self) -> &'static str {
        http::reason_phrase(self.status)
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.status, self.reason(), self.message)
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_carry_status_and_reason() {
        let e = ServeError::bad_request("bin 9 outside 0..8");
        assert_eq!(e.status, 400);
        assert!(e.to_string().contains("Bad Request"));
        assert_eq!(ServeError::not_found("/nope").status, 404);
        assert_eq!(
            ServeError::method_not_allowed("PUT", "/v1/stats").status,
            405
        );
        assert_eq!(ServeError::conflict("empty bin").status, 409);
        assert_eq!(ServeError::internal("boom").status, 500);
        assert_eq!(ServeError::timeout("slow head").status, 408);
        assert_eq!(
            ServeError::unavailable("full").to_string(),
            "503 Service Unavailable: full"
        );
    }
}
