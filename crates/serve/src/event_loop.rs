//! The event-loop frontend: one thread, nonblocking sockets, zero-copy
//! parsing, inline execution.
//!
//! ```text
//!   TcpListener (nonblocking)
//!        │ accept burst
//!   ┌────▼─────────────────────────────────────────┐
//!   │ sweep:  for each connection state machine    │
//!   │   read ──► parse frames (zero-copy) ──► route│
//!   │   ──► execute on the core (inline) ──► buffer│
//!   │   ──► write-back (partial writes resume)     │
//!   └──────────────────────────────────────────────┘
//!          one thread owns the ServeCore directly
//! ```
//!
//! Where the worker pool pays one thread hand-off per command (worker →
//! engine channel → worker), the event loop *is* the engine thread: every
//! command parsed during a sweep executes inline, so a pipelined burst
//! from any number of connections coalesces into one batch of engine
//! calls with zero channel hops and exactly one buffered write-back per
//! connection per sweep.
//!
//! **Determinism.**  Commands execute in sweep order: connections are
//! visited in accept order and each connection's frames in arrival order.
//! For a single-connection drive this is byte-stream order — the same
//! guarantee the worker pool's channel gives — so the bit-equality suite
//! holds verbatim.  (Across concurrently-pipelining connections the
//! interleaving depends on arrival timing in both frontends; neither
//! promises more.)  The engine itself is only ever touched through
//! [`execute`], the same function the worker pool's engine thread calls,
//! so batching happens at command granularity, never inside the RNG
//! stream.
//!
//! **Edge parity.**  Frames come from [`http::parse_frame`], the same
//! parser [`MessageReader`](crate::http::MessageReader) wraps, so the
//! 405/413/400 and pipelined-`Connection: close` semantics are shared by
//! construction; the conformance suite in `tests/` runs both frontends
//! over the identical request corpus to keep it that way.

use std::io::{self, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::core::ServeCore;
use crate::http;
use crate::metrics::{endpoint_index, ServeMetrics};
use crate::server::{
    elapsed_ns, execute, flight_coords, route, to_json, ErrorBody, HttpServer, Routed,
    ServerConfig, MAX_BATCH,
};
use crate::ServeError;

/// Read chunk size (matches the worker pool's `MessageReader`).
const READ_CHUNK: usize = 8 * 1024;

/// Consecutive empty sweeps before the loop stops spinning and starts
/// sleeping between polls.
const SPIN_SWEEPS: u32 = 64;

/// Sleep between polls once idle: long enough to stop burning a core on
/// an idle server, short enough that shutdown and a cold first request
/// stay sub-millisecond.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// Cap on per-connection read backoff, in sweeps (see [`Conn::skip`]).
/// Must stay well under [`SPIN_SWEEPS`]: every skip expires before the
/// loop can conclude it is idle and start sleeping, so backed-off bytes
/// are always read from a spinning — never a sleeping — loop.
const MAX_READ_SKIP: u8 = 8;

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed inbound bytes (a frame may span many reads).
    buf: Vec<u8>,
    /// Serialized responses not yet fully written back.
    out: Vec<u8>,
    /// Write offset into `out`: a partial write resumes here next sweep.
    out_pos: usize,
    /// Sweeps to skip reading this connection.  A closed-loop client is
    /// silent from write-back until it has drained the whole burst, so
    /// re-reading it every sweep just burns an `EAGAIN` syscall per
    /// connection per sweep; consecutive dry reads back the connection
    /// off exponentially (2, 4, 8, 8, … sweeps, capped at
    /// [`MAX_READ_SKIP`]) and any successful read snaps it back to every
    /// sweep.
    skip: u8,
    /// Consecutive dry reads (drives the exponential backoff).
    dry_reads: u8,
    /// A `Connection: close` request (or a framing error) was answered:
    /// stop reading, flush `out`, then drop.  Pipelined requests behind
    /// the close are discarded, exactly like the worker pool returning
    /// after its final write.
    close_after: bool,
    /// The peer half-closed; answer whatever is already complete, then
    /// drop (a partial trailing frame is unanswerable either way).
    eof: bool,
    /// Finished — reaped at the end of the sweep.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::with_capacity(READ_CHUNK),
            out: Vec::with_capacity(1024),
            out_pos: 0,
            skip: 0,
            dry_reads: 0,
            close_after: false,
            eof: false,
            dead: false,
        }
    }

    /// Everything buffered for this connection has been written back.
    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }
}

/// Boot the event-loop frontend: bind, go nonblocking, and spawn the one
/// loop thread (it owns the core, so it doubles as the engine thread the
/// shutdown path joins for the final core).
pub(crate) fn serve(core: ServeCore, config: &ServerConfig) -> io::Result<HttpServer> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let loop_stop = Arc::clone(&stop);
    let engine = std::thread::Builder::new()
        .name("rls-serve-event-loop".to_string())
        .spawn(move || event_loop(core, listener, loop_stop))?;
    Ok(HttpServer::from_parts(addr, stop, Vec::new(), engine))
}

/// The readiness loop: accept burst, pump every connection, reap the
/// dead, back off when idle.  Returns the core at shutdown.
fn event_loop(mut core: ServeCore, listener: TcpListener, stop: Arc<AtomicBool>) -> ServeCore {
    let metrics = core.metrics().cloned();
    let mut conns: Vec<Conn> = Vec::new();
    let mut idle_sweeps = 0u32;
    let mut accept_skip = 0u32;
    // Acquire pairs with the shutdown path's Release store, same flag
    // discipline as the worker pool.
    while !stop.load(Ordering::Acquire) {
        let mut progressed = false;

        // Accept burst: drain the backlog without blocking.  Like the
        // per-connection read backoff, a dry accept backs off for a few
        // sweeps (the backlog queues arrivals meanwhile) so a busy loop
        // is not paying one `EAGAIN` accept per sweep.
        if accept_skip > 0 {
            accept_skip -= 1;
        } else {
            let mut accepted = false;
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        conns.push(Conn::new(stream));
                        accepted = true;
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            if !accepted {
                accept_skip = MAX_READ_SKIP as u32;
            }
        }

        // Pump every connection in accept order (stable order is what
        // makes a single-connection drive deterministic).
        for conn in &mut conns {
            progressed |= pump(conn, &mut core, metrics.as_deref());
        }
        conns.retain(|c| !c.dead);

        // Spin briefly on an empty sweep (a pipelined burst's next frames
        // are usually already in flight), then sleep-poll.
        if progressed {
            idle_sweeps = 0;
        } else {
            idle_sweeps = idle_sweeps.saturating_add(1);
            if idle_sweeps > SPIN_SWEEPS {
                std::thread::sleep(IDLE_SLEEP);
            } else {
                std::thread::yield_now();
            }
        }
    }
    core
}

/// One connection, one sweep: read what's there, answer every complete
/// frame, flush what's pending.  Returns whether anything happened.
fn pump(conn: &mut Conn, core: &mut ServeCore, metrics: Option<&ServeMetrics>) -> bool {
    let mut progressed = false;
    if !conn.close_after && !conn.eof {
        if conn.skip > 0 {
            conn.skip -= 1;
        } else if read_burst(conn) {
            conn.dry_reads = 0;
            progressed = true;
        } else if !conn.dead {
            conn.dry_reads = conn.dry_reads.saturating_add(1);
            conn.skip = (1u8 << conn.dry_reads.min(3)).min(MAX_READ_SKIP);
        }
    }
    let answered = if !conn.close_after && !conn.buf.is_empty() {
        answer_buffered(conn, core, metrics)
    } else {
        false
    };
    progressed |= answered;
    progressed |= flush(conn, metrics);
    // Drop once drained: after an answered close, or after EOF once no
    // complete frame remains (`!answered` — a trailing partial frame is
    // dropped, the worker pool's mid-message-EOF behavior).
    if conn.flushed() && (conn.close_after || (conn.eof && !answered)) {
        conn.dead = true;
    }
    progressed
}

/// Nonblocking read until the socket runs dry (or EOF / error).
fn read_burst(conn: &mut Conn) -> bool {
    let mut progressed = false;
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                progressed = true;
                break;
            }
            Ok(k) => {
                conn.buf.extend_from_slice(&chunk[..k]);
                progressed = true;
                if k < chunk.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    progressed
}

/// Parse, route and execute every complete buffered frame (up to
/// [`MAX_BATCH`], the worker pool's burst cap), appending responses to
/// the connection's write buffer.  Zero-copy: frames borrow `conn.buf`,
/// which is drained once after the burst.
fn answer_buffered(conn: &mut Conn, core: &mut ServeCore, metrics: Option<&ServeMetrics>) -> bool {
    let mut consumed = 0usize;
    let mut answered = 0usize;
    while answered < MAX_BATCH && !conn.close_after {
        let (frame, used) = match http::parse_frame(&conn.buf[consumed..]) {
            Ok(Some(hit)) => hit,
            Ok(None) => break,
            Err(e) => {
                // Same framing-error contract as the worker pool: size
                // caps answer 413, everything else 400, then close.  The
                // rest of the buffer is poisoned — discard it.
                let status = if http::is_too_large(&e) { 413 } else { 400 };
                let body = format!("{{\"error\": {:?}}}", e.to_string());
                http::append_response(&mut conn.out, status, body.as_bytes(), false);
                conn.close_after = true;
                consumed = conn.buf.len();
                answered += 1;
                break;
            }
        };
        let keep_alive = !frame.close;
        if frame.close {
            conn.close_after = true;
        }
        answer_frame(&frame, keep_alive, &mut conn.out, core, metrics);
        consumed += used;
        answered += 1;
    }
    if consumed > 0 {
        conn.buf.drain(..consumed);
    }
    answered > 0
}

/// Route one frame and execute it inline, appending the response.
/// Mirrors the worker pool's routing/metrics/flight behavior exactly —
/// minus the channel: there is no queue here, so no `stage=queue`
/// sample is recorded.
fn answer_frame(
    frame: &http::Frame<'_>,
    keep_alive: bool,
    out: &mut Vec<u8>,
    core: &mut ServeCore,
    metrics: Option<&ServeMetrics>,
) {
    let parse_start = metrics.map(|_| Instant::now());
    let mut parts = frame.start_line.split_ascii_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        let e = ServeError::bad_request("bad request line");
        if let Some(m) = metrics {
            m.record_request(endpoint_index(""), e.status);
        }
        append_error(out, &e, keep_alive);
        return;
    };
    let endpoint = endpoint_index(path);
    if let Some(m) = metrics {
        m.request_bytes
            .add(0, (frame.start_line.len() + frame.body.len()) as u64);
    }
    let routed = route(method, path, frame.body);
    if let (Some(m), Some(start)) = (metrics, parse_start) {
        m.stage_parse_ns.record(elapsed_ns(start));
    }
    match routed {
        Ok(Routed::Engine(cmd)) => {
            let apply_start = Instant::now();
            let reply = match panic::catch_unwind(AssertUnwindSafe(|| execute(core, &cmd))) {
                Ok(reply) => reply,
                Err(cause) => {
                    // Same post-mortem story as the worker pool's engine
                    // thread: log the fatal command, dump the recorder.
                    if let Some(m) = metrics {
                        let (kind, a, b) = flight_coords(&cmd);
                        m.flight.record(kind, a, b, 0, elapsed_ns(apply_start));
                        eprintln!("event loop panicked mid-command; flight recorder dump:");
                        eprintln!("{}", m.flight_json());
                    }
                    panic::resume_unwind(cause);
                }
            };
            if let Some(m) = metrics {
                let apply_ns = elapsed_ns(apply_start);
                m.stage_apply_ns.record(apply_ns);
                let (kind, a, b) = flight_coords(&cmd);
                m.flight.record(kind, a, b, 0, apply_ns);
            }
            let status = match &reply {
                Ok(_) => 200,
                Err(e) => e.status,
            };
            if let Some(m) = metrics {
                m.record_request(endpoint, status);
            }
            match reply {
                Ok(body) => http::append_response(out, 200, body.as_bytes(), keep_alive),
                Err(e) => append_error(out, &e, keep_alive),
            }
        }
        Ok(Routed::Metrics) => match metrics {
            Some(m) => {
                m.record_request(endpoint, 200);
                http::append_response_typed(
                    out,
                    200,
                    "text/plain; version=0.0.4",
                    m.render_prometheus().as_bytes(),
                    keep_alive,
                );
            }
            None => append_error(out, &ServeError::not_found(path), keep_alive),
        },
        Ok(Routed::Flight) => match metrics {
            Some(m) => {
                m.record_request(endpoint, 200);
                http::append_response_typed(
                    out,
                    200,
                    "application/json",
                    m.flight_json().as_bytes(),
                    keep_alive,
                );
            }
            None => append_error(out, &ServeError::not_found(path), keep_alive),
        },
        Err(e) => {
            if let Some(m) = metrics {
                m.record_request(endpoint, e.status);
            }
            append_error(out, &e, keep_alive);
        }
    }
}

/// Serialize one error reply (the worker pool's `ErrorBody` JSON shape).
fn append_error(out: &mut Vec<u8>, e: &ServeError, keep_alive: bool) {
    let body = to_json(&ErrorBody {
        error: e.message.clone(),
    });
    http::append_response(out, e.status, body.as_bytes(), keep_alive);
}

/// Write as much pending output as the socket accepts; partial writes
/// park at `out_pos` and resume next sweep.
fn flush(conn: &mut Conn, metrics: Option<&ServeMetrics>) -> bool {
    if conn.flushed() {
        return false;
    }
    let write_start = metrics.map(|_| Instant::now());
    let mut written = 0usize;
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(k) => {
                conn.out_pos += k;
                written += k;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if written > 0 {
        if let (Some(m), Some(start)) = (metrics, write_start) {
            m.stage_write_ns.record(elapsed_ns(start));
            m.response_bytes.add(0, written as u64);
        }
    }
    if conn.flushed() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    written > 0
}
