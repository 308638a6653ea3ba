//! The trace-replay driver.
//!
//! [`replay_over_http`] drives a recorded `rls-live` [`EventLog`] through
//! the HTTP path event by event (pinning every sampled coordinate, with
//! auto-rebalance suppressed) and checks the final load vector against the
//! offline, RNG-free [`replay`](rls_live::replay()) of the same log — the
//! serving layer adds nothing and loses nothing.

use std::net::SocketAddr;

use rls_core::Config;
use rls_live::{replay, EventLog, LiveEngine, LiveEventKind, LiveParams, Snapshot};
use rls_workloads::ArrivalProcess;

use crate::api::RingReply;
use crate::client::HttpClient;
use crate::core::{ServeCore, ServePolicy};

/// Outcome of feeding an event log through the HTTP path.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Events in the log.
    pub events: u64,
    /// HTTP requests issued (bursts expand to one request per ball).
    pub requests: u64,
    /// Whether the served load vector equals the offline replay's exactly.
    pub loads_match: bool,
    /// Whether every served ring reproduced the recorded `moved` flag.
    pub moved_match: bool,
    /// The load vector the server ended with.
    pub final_loads: Vec<u64>,
    /// The load vector offline replay ends with.
    pub expected_loads: Vec<u64>,
    /// The served engine's boot identity (from `GET /v1/stats`), echoed so
    /// replay reports state which policy/topology the comparison ran
    /// under.
    pub identity: crate::api::BootIdentity,
}

impl ReplayOutcome {
    /// Whether the HTTP path reproduced the offline replay exactly.
    pub fn is_faithful(&self) -> bool {
        self.loads_match && self.moved_match
    }
}

/// A [`ServeCore`] that starts from a log's initial state, ready to have
/// the log fed through it ([`replay_over_http`]).  Auto-rebalance is off:
/// the log carries every ring explicitly.
pub fn core_from_log(log: &EventLog, seed: u64) -> Result<ServeCore, String> {
    let initial =
        Config::from_loads(log.header.initial_loads.clone()).map_err(|e| e.to_string())?;
    // The dynamics parameters never fire during replay (every coordinate
    // is pinned); any valid set will do.
    let params = LiveParams {
        arrivals: ArrivalProcess::Poisson { rate_per_bin: 1.0 },
        service_rate: 0.0,
    };
    let engine = LiveEngine::with_policy(
        initial,
        params,
        log.header.effective_policy(),
        log.header.effective_topology(),
        log.header.graph_seed.unwrap_or(0),
    )
    .map_err(|e| e.to_string())?;
    Ok(ServeCore::new(
        engine,
        seed,
        0.0,
        ServePolicy {
            rings_per_arrival: 0.0,
        },
    ))
}

/// Feed `log` through the HTTP path at `addr` (a server booted from
/// [`core_from_log`]) and cross-check against the offline replay.
pub fn replay_over_http(addr: SocketAddr, log: &EventLog) -> Result<ReplayOutcome, String> {
    let offline = replay(log).map_err(|e| format!("offline replay: {e}"))?;

    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut requests = 0u64;
    let mut moved_match = true;
    for event in &log.events {
        match &event.kind {
            LiveEventKind::Arrival { bins } => {
                for &bin in bins {
                    let body = format!("{{\"bin\": {bin}, \"rings\": 0}}");
                    client.request_ok("POST", "/v1/arrive", body.as_bytes())?;
                    requests += 1;
                }
            }
            LiveEventKind::Departure { bin } => {
                client.request_ok("POST", &format!("/v1/depart/{bin}"), b"")?;
                requests += 1;
            }
            LiveEventKind::Ring {
                source,
                dest,
                moved,
            } => {
                let body = format!("{{\"source\": {source}, \"dest\": {dest}}}");
                let text = client.request_ok("POST", "/v1/ring", body.as_bytes())?;
                let reply: RingReply =
                    serde_json::from_str(&text).map_err(|e| format!("ring reply: {e}"))?;
                if reply.moved != *moved {
                    moved_match = false;
                }
                requests += 1;
            }
            // Scale events re-issue the admin command; the server resolves
            // its own relocation draws, so only cold joins and already-empty
            // drains replay load-exactly over HTTP (the offline `replay`
            // path is the bit-exact one — it applies the recorded draws).
            LiveEventKind::BinsJoined { joins } => {
                for _ in joins {
                    client.request_ok("POST", "/v1/bins/add", b"{\"warm\": false}")?;
                    requests += 1;
                }
            }
            LiveEventKind::BinsDrained { drains } => {
                for drain in drains {
                    let body = format!("{{\"bin\": {}}}", drain.bin);
                    client.request_ok("POST", "/v1/bins/drain", body.as_bytes())?;
                    requests += 1;
                }
            }
        }
    }

    let text = client.request_ok("GET", "/v1/snapshot", b"")?;
    let snapshot = Snapshot::from_json(&text).map_err(|e| format!("served snapshot: {e}"))?;
    let text = client.request_ok("GET", "/v1/stats", b"")?;
    let stats: crate::api::StatsReply =
        serde_json::from_str(&text).map_err(|e| format!("served stats: {e}"))?;
    let loads_match = snapshot.loads == offline.final_loads;
    Ok(ReplayOutcome {
        events: log.events.len() as u64,
        requests,
        loads_match,
        moved_match,
        final_loads: snapshot.loads,
        expected_loads: offline.final_loads,
        identity: stats.identity,
    })
}
