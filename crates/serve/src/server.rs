//! The HTTP server: configuration, routing and the running-server handle.
//!
//! The frontend in `frontend.rs` gives each connection a blocking thread
//! that parses frames straight off its buffer, routes them here (`route`),
//! executes engine commands (`execute`) on the [`ServeCore`] under a
//! mutex and encodes their typed `Reply`s once the mutex is released,
//! so a request never crosses a thread.  One connection's commands
//! apply in byte-stream order, which is what makes a single-connection
//! drive of the HTTP API deterministic and lets tests cross-check the
//! server against an offline [`ServeCore`] on the same seed.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use rls_live::Snapshot;

use crate::api::{
    AddBinReply, AddBinRequest, ArriveReply, ArriveRequest, DepartReply, DepartRequest,
    DrainBinReply, DrainBinRequest, HealthReply, RestoreReply, RingReply, RingRequest, StatsReply,
};
use crate::core::{prepare_restore, render_snapshot, Restored, ServeCore};
use crate::frontend::Limits;
use crate::metrics::{flight_kind, FLIGHT_NONE};
use crate::ServeError;

/// The connection-handling frontend.  There is one: a blocking thread per
/// connection, executing on the core under a mutex.  The enum, its
/// `PartialEq` and its variant's name are kept only because the
/// repository benchmark (`perfbench/src/serving.rs` and
/// `perfbench/src/ladder.rs`) names them; they can go together with
/// [`ServerConfig::workers`] in the next change to the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Frontend {
    /// The one frontend (named for the single-threaded loop it replaced).
    #[default]
    EventLoop,
}

/// How a server is wired.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port `0` for an ephemeral port.
    pub addr: String,
    /// Ignored: each connection has its own thread.  Kept, like
    /// [`Frontend`], only because the repository benchmark sets it.
    pub workers: usize,
    /// The connection-handling frontend (there is only one).
    pub frontend: Frontend,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            frontend: Frontend::EventLoop,
        }
    }
}

/// A command decoded from one HTTP request.  A restore arrives with its
/// engine already rebuilt from the posted snapshot, so executing it is
/// only the swap.
#[derive(Debug)]
pub(crate) enum EngineCmd {
    Arrive(ArriveRequest),
    Depart(DepartRequest),
    Ring(RingRequest),
    AddBin(AddBinRequest),
    DrainBin(DrainBinRequest),
    Stats,
    Snapshot,
    Restore(Box<Restored>),
    Health,
}

/// An engine command's answer, typed: the frontend encodes it only after
/// releasing the engine's lock.
#[derive(Debug)]
pub(crate) enum Reply {
    Arrive(ArriveReply),
    Depart(DepartReply),
    Ring(RingReply),
    AddBin(AddBinReply),
    DrainBin(DrainBinReply),
    Stats(Box<StatsReply>),
    /// The captured checkpoint; the only reply whose size grows with the
    /// instance.
    Snapshot(Box<Snapshot>),
    Restore(RestoreReply),
    Health(HealthReply),
}

impl Reply {
    /// The JSON body sent for this reply.
    pub(crate) fn to_json(&self) -> String {
        match self {
            Reply::Arrive(r) => to_json(r),
            Reply::Depart(r) => to_json(r),
            Reply::Ring(r) => to_json(r),
            Reply::AddBin(r) => to_json(r),
            Reply::DrainBin(r) => to_json(r),
            Reply::Stats(r) => to_json(r),
            Reply::Snapshot(s) => render_snapshot(s),
            Reply::Restore(r) => to_json(r),
            Reply::Health(r) => to_json(r),
        }
    }
}

/// What a routed request asks for.
#[derive(Debug)]
pub(crate) enum Routed {
    /// An engine command, executed on the core.
    Engine(EngineCmd),
    /// Render the metric catalog (`GET /v1/metrics`).
    Metrics,
    /// Dump the flight recorder (`GET /v1/debug/flight`).
    Flight,
}

/// A running server; dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the accept thread, which closes
/// every connection.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<ServeCore>>,
}

impl HttpServer {
    /// The address the server actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving, join the accept thread (which joins every
    /// connection thread) and hand back the final core (its engine holds
    /// the final load vector and counters).
    pub fn shutdown(mut self) -> ServeCore {
        self.stop();
        self.thread
            .take()
            .expect("accept thread joined exactly once")
            .join()
            .expect("the engine does not panic")
    }
}

impl HttpServer {
    /// Raise the stop flag, then connect once so the accept thread,
    /// parked in a blocking `accept`, wakes up to see it.
    fn stop(&self) {
        // Release store / Acquire load pair on the stop flag: the accept
        // thread observes it once `accept` returns.
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        // Best-effort stop for servers that were never shut down
        // explicitly; the accept thread closes every connection and exits.
        if self.thread.is_some() {
            self.stop();
        }
    }
}

/// Boot a server over `core`.  Returns once the listener is bound and
/// the accept thread is running.
pub fn serve(core: ServeCore, config: &ServerConfig) -> io::Result<HttpServer> {
    serve_within(core, config, Limits::default())
}

/// [`serve`] with explicit bounds (this crate's tests shrink them).
pub(crate) fn serve_within(
    core: ServeCore,
    config: &ServerConfig,
    limits: Limits,
) -> io::Result<HttpServer> {
    let (addr, stop, thread) = crate::frontend::spawn(core, &config.addr, limits)?;
    Ok(HttpServer {
        addr,
        stop,
        thread: Some(thread),
    })
}

/// Flight-recorder annotation of a command: kind code plus up to two
/// coordinates ([`FLIGHT_NONE`] for absent/sampled ones).
pub(crate) fn flight_coords(cmd: &EngineCmd) -> (u64, u64, u64) {
    let coord = |v: Option<usize>| v.map_or(FLIGHT_NONE, |b| b as u64);
    match cmd {
        EngineCmd::Arrive(req) => (
            flight_kind::ARRIVE,
            coord(req.bin),
            req.weight.unwrap_or(FLIGHT_NONE),
        ),
        EngineCmd::Depart(req) => (flight_kind::DEPART, coord(req.bin), FLIGHT_NONE),
        EngineCmd::Ring(req) => (flight_kind::RING, coord(req.source), coord(req.dest)),
        EngineCmd::Stats => (flight_kind::STATS, FLIGHT_NONE, FLIGHT_NONE),
        EngineCmd::Snapshot => (flight_kind::SNAPSHOT, FLIGHT_NONE, FLIGHT_NONE),
        EngineCmd::Restore(_) => (flight_kind::RESTORE, FLIGHT_NONE, FLIGHT_NONE),
        EngineCmd::Health => (flight_kind::HEALTH, FLIGHT_NONE, FLIGHT_NONE),
        EngineCmd::AddBin(req) => (
            flight_kind::BIN_ADD,
            req.warm.unwrap_or(false) as u64,
            FLIGHT_NONE,
        ),
        EngineCmd::DrainBin(req) => (flight_kind::BIN_DRAIN, coord(req.bin), FLIGHT_NONE),
    }
}

pub(crate) fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("API replies always encode")
}

/// Run one command on the core.  Nothing here encodes: the reply stays
/// typed until the caller has released the core.
pub(crate) fn execute(core: &mut ServeCore, cmd: EngineCmd) -> Result<Reply, ServeError> {
    Ok(match cmd {
        EngineCmd::Arrive(req) => Reply::Arrive(core.arrive(&req)?),
        EngineCmd::Depart(req) => Reply::Depart(core.depart(&req)?),
        EngineCmd::Ring(req) => Reply::Ring(core.ring(&req)?),
        EngineCmd::Stats => Reply::Stats(Box::new(core.stats())),
        EngineCmd::Snapshot => Reply::Snapshot(Box::new(core.capture_snapshot())),
        EngineCmd::Restore(restored) => Reply::Restore(core.install(*restored)),
        EngineCmd::Health => Reply::Health(core.health()),
        EngineCmd::AddBin(req) => Reply::AddBin(core.add_bin(&req)?),
        EngineCmd::DrainBin(req) => Reply::DrainBin(core.drain_bin(&req)?),
    })
}

#[derive(serde::Serialize)]
pub(crate) struct ErrorBody {
    pub(crate) error: String,
}

/// Decode a request into an engine command or a telemetry answer (no
/// state access here — pure routing; a posted snapshot is rebuilt into
/// its engine here, `409` if it describes no valid engine).
pub(crate) fn route(method: &str, path: &str, body: &[u8]) -> Result<Routed, ServeError> {
    let parse_body = |what: &str| -> Result<serde_json::Value, ServeError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ServeError::bad_request(format!("{what} body is not UTF-8")))?;
        serde_json::parse_value(text)
            .map_err(|e| ServeError::bad_request(format!("{what} body: {e}")))
    };
    // An absent or empty body means "all defaults" for the POST verbs
    // whose fields are all optional.
    macro_rules! body_or_default {
        ($ty:ty, $what:expr) => {
            if body.is_empty() {
                <$ty>::default()
            } else {
                serde_json::from_value(&parse_body($what)?)
                    .map_err(|e| ServeError::bad_request(format!("{} body: {e}", $what)))?
            }
        };
    }

    let engine = |cmd: EngineCmd| Ok(Routed::Engine(cmd));
    match (method, path) {
        ("POST", "/v1/arrive") => {
            engine(EngineCmd::Arrive(body_or_default!(ArriveRequest, "arrive")))
        }
        ("POST", "/v1/depart") => {
            engine(EngineCmd::Depart(body_or_default!(DepartRequest, "depart")))
        }
        ("POST", p) if p.starts_with("/v1/depart/") => {
            let bin = p["/v1/depart/".len()..]
                .parse::<usize>()
                .map_err(|_| ServeError::bad_request(format!("bad bin in path `{p}`")))?;
            engine(EngineCmd::Depart(DepartRequest { bin: Some(bin) }))
        }
        ("POST", "/v1/ring") => engine(EngineCmd::Ring(body_or_default!(RingRequest, "ring"))),
        ("POST", "/v1/bins/add") => engine(EngineCmd::AddBin(body_or_default!(
            AddBinRequest,
            "bin-add"
        ))),
        ("POST", "/v1/bins/drain") => engine(EngineCmd::DrainBin(body_or_default!(
            DrainBinRequest,
            "bin-drain"
        ))),
        ("GET", "/v1/stats") => engine(EngineCmd::Stats),
        ("GET", "/v1/snapshot") => engine(EngineCmd::Snapshot),
        ("POST", "/v1/restore") => {
            let text = std::str::from_utf8(body)
                .map_err(|_| ServeError::bad_request("snapshot body is not UTF-8"))?;
            let snapshot =
                Snapshot::from_json(text).map_err(|e| ServeError::bad_request(e.to_string()))?;
            engine(EngineCmd::Restore(Box::new(prepare_restore(&snapshot)?)))
        }
        ("GET", "/healthz") => engine(EngineCmd::Health),
        ("GET", "/v1/metrics") => Ok(Routed::Metrics),
        ("GET", "/v1/debug/flight") => Ok(Routed::Flight),
        (
            _,
            "/v1/arrive" | "/v1/depart" | "/v1/ring" | "/v1/restore" | "/v1/stats" | "/v1/snapshot"
            | "/healthz" | "/v1/metrics" | "/v1/debug/flight" | "/v1/bins/add" | "/v1/bins/drain",
        ) => Err(ServeError::method_not_allowed(method, path)),
        // The path-param depart route also exists for exactly one method.
        (_, p) if p.starts_with("/v1/depart/") => Err(ServeError::method_not_allowed(method, path)),
        _ => Err(ServeError::not_found(path)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_covers_the_api() {
        assert!(matches!(
            route("POST", "/v1/arrive", b"").unwrap(),
            Routed::Engine(EngineCmd::Arrive(r)) if r == ArriveRequest::default()
        ));
        assert!(matches!(
            route("POST", "/v1/arrive", br#"{"bin": 2, "rings": 0}"#).unwrap(),
            Routed::Engine(EngineCmd::Arrive(ArriveRequest {
                bin: Some(2),
                rings: Some(0),
                weight: None
            }))
        ));
        assert!(matches!(
            route("POST", "/v1/depart/7", b"").unwrap(),
            Routed::Engine(EngineCmd::Depart(DepartRequest { bin: Some(7) }))
        ));
        assert!(matches!(
            route("POST", "/v1/ring", br#"{"source": 1}"#).unwrap(),
            Routed::Engine(EngineCmd::Ring(RingRequest {
                source: Some(1),
                dest: None
            }))
        ));
        assert!(matches!(
            route("GET", "/v1/stats", b"").unwrap(),
            Routed::Engine(EngineCmd::Stats)
        ));
        assert!(matches!(
            route("GET", "/v1/snapshot", b"").unwrap(),
            Routed::Engine(EngineCmd::Snapshot)
        ));
        assert!(matches!(
            route("GET", "/healthz", b"").unwrap(),
            Routed::Engine(EngineCmd::Health)
        ));
        assert!(matches!(
            route("POST", "/v1/bins/add", br#"{"warm": true}"#).unwrap(),
            Routed::Engine(EngineCmd::AddBin(AddBinRequest { warm: Some(true) }))
        ));
        assert!(matches!(
            route("POST", "/v1/bins/drain", br#"{"bin": 3}"#).unwrap(),
            Routed::Engine(EngineCmd::DrainBin(DrainBinRequest { bin: Some(3) }))
        ));
        assert!(matches!(
            route("POST", "/v1/bins/drain", b"").unwrap(),
            Routed::Engine(EngineCmd::DrainBin(DrainBinRequest { bin: None }))
        ));
        // Telemetry endpoints are answered without an engine command.
        assert!(matches!(
            route("GET", "/v1/metrics", b"").unwrap(),
            Routed::Metrics
        ));
        assert!(matches!(
            route("GET", "/v1/debug/flight", b"").unwrap(),
            Routed::Flight
        ));
    }

    #[test]
    fn routing_rejects_what_it_should() {
        assert_eq!(route("GET", "/v1/arrive", b"").unwrap_err().status, 405);
        assert_eq!(route("POST", "/v1/stats", b"").unwrap_err().status, 405);
        assert_eq!(route("POST", "/v1/metrics", b"").unwrap_err().status, 405);
        assert_eq!(route("GET", "/v1/bins/add", b"").unwrap_err().status, 405);
        assert_eq!(route("GET", "/v1/bins/drain", b"").unwrap_err().status, 405);
        assert_eq!(
            route("DELETE", "/v1/debug/flight", b"").unwrap_err().status,
            405
        );
        // The path-param depart route is 405 for the wrong method too,
        // not a phantom 404.
        assert_eq!(route("GET", "/v1/depart/3", b"").unwrap_err().status, 405);
        assert_eq!(route("GET", "/nope", b"").unwrap_err().status, 404);
        assert_eq!(
            route("POST", "/v1/arrive", b"not json").unwrap_err().status,
            400
        );
        assert_eq!(route("POST", "/v1/depart/x", b"").unwrap_err().status, 400);
        assert_eq!(route("POST", "/v1/restore", b"{}").unwrap_err().status, 400);
    }
}
