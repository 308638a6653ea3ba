//! The frontend: an accept thread, one blocking thread per connection,
//! and the core behind a mutex.
//!
//! ```text
//!   TcpListener (blocking accept; 503 past the connection cap)
//!        │ one thread per connection
//!   ┌────▼─────────────────────────────────────────────┐
//!   │ read (blocking; deadline = header or idle bound) │
//!   │   ──► parse frames (zero-copy) ──► route         │
//!   │   ──► lock the core, execute the batch, unlock   │
//!   │   ──► write the batch's replies                  │
//!   └──────────────────────────────────────────────────┘
//! ```
//!
//! A request never crosses a thread: the thread that read it executes it
//! on the core and writes its reply.  The core sits behind a `Mutex`
//! taken once per batch of pipelined frames, and only for a batch that
//! holds an engine command — `GET /v1/metrics` and `GET /v1/debug/flight`
//! read atomics and never wait for the engine.  Nothing polls: an idle
//! connection costs a thread parked in `read`, an idle server a thread
//! parked in `accept`.
//!
//! **Determinism.**  One connection's commands apply in byte-stream
//! order, so a single-connection drive of the HTTP API is reproducible
//! and bit-equal to an offline [`ServeCore`] on the same seed.  Across
//! concurrent connections the interleaving is the lock order, which
//! depends on timing.  The engine is only ever touched through
//! [`execute`], so batching happens at command granularity, never inside
//! the RNG stream.
//!
//! **Bounds.**  Fixed constants cap the connections
//! ([`MAX_CONNECTIONS`]), how long a request head may dribble in
//! ([`HEADER_TIMEOUT`]), how long a connection may sit silent
//! ([`IDLE_TIMEOUT`]), the body size ([`http::MAX_BODY_BYTES`]) and the
//! replies one batch may gather before they are written
//! ([`MAX_UNFLUSHED_BYTES`]).  A connection is not read while its replies
//! are being written, so one connection holds at most one head of
//! [`http::MAX_HEAD_BYTES`] plus one capped body of input, and
//! [`MAX_UNFLUSHED_BYTES`] plus one reply of output.

use std::io::{self, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::core::ServeCore;
use crate::http;
use crate::metrics::{endpoint_index, ServeMetrics};
use crate::server::{elapsed_ns, execute, flight_coords, route, to_json, ErrorBody, Routed};
use crate::ServeError;

/// Read chunk size.
const READ_CHUNK: usize = 8 * 1024;

/// Most pipelined frames executed under one hold of the core's lock.
const MAX_BATCH: usize = 64;

/// Open connections; one more is answered `503` and closed.
const MAX_CONNECTIONS: usize = 256;

/// How long a request head may stay incomplete before the connection is
/// answered `408` and closed (the slowloris bound).
const HEADER_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a connection may wait for its client — a read with no bytes,
/// or a write the client does not drain — before it is closed.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Reply bytes past which a batch stops and is written before the next
/// frame is executed.
const MAX_UNFLUSHED_BYTES: usize = 1 << 20;

/// Pause after a failed `accept` (out of descriptors, say), so the
/// accept thread retries instead of spinning.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// The bounds one server enforces: the constants above, or (in this
/// crate's tests) smaller ones that make a bound cheap to reach.
#[derive(Debug, Clone)]
pub(crate) struct Limits {
    pub(crate) max_connections: usize,
    pub(crate) header_timeout: Duration,
    pub(crate) idle_timeout: Duration,
    /// Largest request body; a larger declared `Content-Length` is
    /// answered `413` from the head and the connection closed.
    pub(crate) max_body_bytes: usize,
    pub(crate) max_unflushed_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_connections: MAX_CONNECTIONS,
            header_timeout: HEADER_TIMEOUT,
            idle_timeout: IDLE_TIMEOUT,
            max_body_bytes: http::MAX_BODY_BYTES,
            max_unflushed_bytes: MAX_UNFLUSHED_BYTES,
        }
    }
}

/// Bind and spawn the accept thread; joining it (after the stop flag is
/// raised) joins every connection thread and hands the core back.
pub(crate) fn spawn(
    core: ServeCore,
    addr: &str,
    limits: Limits,
) -> io::Result<(SocketAddr, Arc<AtomicBool>, JoinHandle<ServeCore>)> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("rls-serve-accept".to_string())
        .spawn(move || accept_loop(core, &listener, &limits, &accept_stop))?;
    Ok((addr, stop, thread))
}

/// The open connections' sockets, by connection id: their count is the
/// admission test, and shutting them down wakes their threads at exit.
type Open = Mutex<Vec<(usize, TcpStream)>>;

fn open_sockets(open: &Open) -> MutexGuard<'_, Vec<(usize, TcpStream)>> {
    // Nothing panics while holding this lock; a poisoned list is intact.
    open.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Removes a connection from [`Open`] when its thread ends, however it
/// ends, so the slot frees and the socket's last handle closes.
struct Registration<'a> {
    open: &'a Open,
    id: usize,
}

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        open_sockets(self.open).retain(|(id, _)| *id != self.id);
    }
}

/// Accept until the stop flag is raised, one thread per admitted
/// connection.  Returns the core once every connection thread is joined.
fn accept_loop(
    core: ServeCore,
    listener: &TcpListener,
    limits: &Limits,
    stop: &AtomicBool,
) -> ServeCore {
    let metrics = core.metrics().cloned();
    let core = Arc::new(Mutex::new(core));
    let open: Arc<Open> = Arc::default();
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0usize;
    // Acquire pairs with the shutdown path's Release store; the shutdown
    // path connects once, so a blocked `accept` returns to see the flag.
    while !stop.load(Ordering::Acquire) {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                std::thread::sleep(ACCEPT_RETRY);
                continue;
            }
        };
        if stop.load(Ordering::Acquire) {
            break;
        }
        threads.retain(|t| !t.is_finished());
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        let id = next_id;
        next_id += 1;
        {
            let mut sockets = open_sockets(&open);
            if sockets.len() >= limits.max_connections {
                drop(sockets);
                refuse(stream, limits.max_connections, metrics.as_deref());
                continue;
            }
            sockets.push((id, handle));
        }
        let spawned = {
            let (core, open, metrics, limits) = (
                Arc::clone(&core),
                Arc::clone(&open),
                metrics.clone(),
                limits.clone(),
            );
            std::thread::Builder::new()
                .name("rls-serve-conn".to_string())
                .spawn(move || {
                    let _registration = Registration { open: &open, id };
                    serve_connection(stream, &core, metrics.as_deref(), &limits, id);
                })
        };
        match spawned {
            Ok(thread) => threads.push(thread),
            // The thread never ran: free the slot (the socket closes with
            // its last handle).
            Err(_) => open_sockets(&open).retain(|(open_id, _)| *open_id != id),
        }
    }
    // Wake every connection blocked in a read or a write, then wait.
    for (_, socket) in open_sockets(&open).iter() {
        let _ = socket.shutdown(Shutdown::Both);
    }
    for thread in threads {
        let _ = thread.join();
    }
    let Ok(core) = Arc::try_unwrap(core) else {
        unreachable!("every connection thread has been joined");
    };
    core.into_inner().expect("the engine does not panic")
}

/// Answer a connection past the cap with `503` and drop it.  The socket
/// is fresh, so the short reply fits its send buffer in one write.
fn refuse(mut stream: TcpStream, cap: usize, metrics: Option<&ServeMetrics>) {
    let e = ServeError::unavailable(format!("connection cap of {cap} reached"));
    if let Some(m) = metrics {
        m.record_request(endpoint_index(""), e.status);
    }
    let mut out = Vec::with_capacity(128);
    append_error(&mut out, &e, false);
    let _ = stream.write(&out);
}

/// One connection's thread: read, answer every complete frame, repeat,
/// until the client closes, a deadline passes or a reply asks to close.
/// `stripe` spreads this connection's byte counts over the sharded
/// counters.
fn serve_connection(
    stream: TcpStream,
    core: &Mutex<ServeCore>,
    metrics: Option<&ServeMetrics>,
    limits: &Limits,
    stripe: usize,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_write_timeout(Some(limits.idle_timeout)).is_err() {
        return;
    }
    // Never buffer more than one largest legal frame, so a full buffer
    // always holds a complete frame or a framing error.
    let cap = http::MAX_HEAD_BYTES + 4 + limits.max_body_bytes;
    let mut conn = Conn {
        stream,
        out: Vec::with_capacity(1024),
        metrics,
        stripe,
    };
    let mut buf: Vec<u8> = Vec::with_capacity(READ_CHUNK);
    let mut chunk = [0u8; READ_CHUNK];
    // Since when the buffer has held an incomplete request head.
    let mut head_since: Option<Instant> = None;
    let mut read_timeout = None;
    loop {
        // The header deadline runs while a partial head is buffered; the
        // idle deadline otherwise.
        let wait = head_since.map_or(limits.idle_timeout, |since| {
            limits.header_timeout.saturating_sub(since.elapsed())
        });
        if wait.is_zero() {
            let e = ServeError::timeout(format!(
                "request head not completed within {:?}",
                limits.header_timeout
            ));
            if let Some(m) = metrics {
                m.record_request(endpoint_index(""), e.status);
            }
            append_error(&mut conn.out, &e, false);
            conn.write_out();
            return;
        }
        if read_timeout != Some(wait) {
            if conn.stream.set_read_timeout(Some(wait)).is_err() {
                return;
            }
            read_timeout = Some(wait);
        }
        let room = (cap - buf.len()).min(READ_CHUNK);
        let read = match conn.stream.read(&mut chunk[..room]) {
            // EOF: every complete frame is answered already, and a
            // trailing partial frame can never complete.
            Ok(0) => return,
            Ok(read) => read,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // A missed header deadline is answered at the top of the loop;
            // a missed idle deadline (or any other error) closes.
            Err(e) if head_since.is_some() && is_timeout(&e) => continue,
            Err(_) => return,
        };
        let read_at = Instant::now();
        buf.extend_from_slice(&chunk[..read]);
        let consumed = match conn.answer_buffered(&buf, core, limits, read_at) {
            Some(consumed) => consumed,
            None => return,
        };
        buf.drain(..consumed);
        release_excess(&mut buf);
        head_since = if buf.is_empty() || http::head_complete(&buf) {
            None
        } else {
            Some(head_since.unwrap_or(read_at))
        };
    }
}

/// A read or write timeout (Unix reports `WouldBlock`, Windows
/// `TimedOut`).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A connection's socket, the replies it owes, and its telemetry.
struct Conn<'s> {
    stream: TcpStream,
    /// Replies of the batch being answered.
    out: Vec<u8>,
    metrics: Option<&'s ServeMetrics>,
    stripe: usize,
}

impl Conn<'_> {
    /// Answer every complete frame at the front of `buf`, in batches of
    /// at most [`MAX_BATCH`] frames or `max_unflushed_bytes` of replies,
    /// each executed under one hold of the core's lock and written
    /// before the next begins.  Returns how many bytes were consumed, or
    /// `None` once the connection is to be dropped (a close was
    /// answered, a framing error, a failed write).  Zero-copy: frames
    /// borrow `buf`.
    fn answer_buffered(
        &mut self,
        buf: &[u8],
        core: &Mutex<ServeCore>,
        limits: &Limits,
        read_at: Instant,
    ) -> Option<usize> {
        let mut consumed = 0usize;
        loop {
            let mut guard = None;
            let mut answered = 0usize;
            let mut keep_alive = true;
            let mut more = false;
            while keep_alive {
                if answered == MAX_BATCH || self.out.len() >= limits.max_unflushed_bytes {
                    more = true;
                    break;
                }
                match http::parse_frame_within(&buf[consumed..], limits.max_body_bytes) {
                    Ok(Some((frame, used))) => {
                        keep_alive = self.answer_frame(&frame, read_at, core, &mut guard);
                        consumed += used;
                        answered += 1;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // Size caps answer 413, everything else 400, then
                        // close: the rest of the buffer is poisoned.
                        let status = if http::is_too_large(&e) { 413 } else { 400 };
                        if let Some(m) = self.metrics {
                            m.record_request(endpoint_index(""), status);
                        }
                        let body = format!("{{\"error\": {:?}}}", e.to_string());
                        http::append_response(&mut self.out, status, body.as_bytes(), false);
                        keep_alive = false;
                    }
                }
            }
            drop(guard);
            if !self.write_out() || !keep_alive {
                return None;
            }
            if !more {
                return Some(consumed);
            }
        }
    }

    /// Route one frame and execute it, appending the response; an engine
    /// command takes the core's lock into `guard` unless the batch holds
    /// it already.  `read_at` is when the frame's bytes were read: the
    /// queue stage runs from there to the start of execution, lock wait
    /// included.  Returns whether the connection stays open.
    fn answer_frame<'c>(
        &mut self,
        frame: &http::Frame<'_>,
        read_at: Instant,
        core: &'c Mutex<ServeCore>,
        guard: &mut Option<MutexGuard<'c, ServeCore>>,
    ) -> bool {
        let metrics = self.metrics;
        let mut keep_alive = !frame.close;
        let parse_start = metrics.map(|_| Instant::now());
        let mut parts = frame.start_line.split_ascii_whitespace();
        let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
            let e = ServeError::bad_request("bad request line");
            if let Some(m) = metrics {
                m.record_request(endpoint_index(""), e.status);
            }
            append_error(&mut self.out, &e, keep_alive);
            return keep_alive;
        };
        let endpoint = endpoint_index(path);
        if let Some(m) = metrics {
            m.request_bytes.add(
                self.stripe,
                (frame.start_line.len() + frame.body.len()) as u64,
            );
        }
        let routed = route(method, path, frame.body);
        if let (Some(m), Some(start)) = (metrics, parse_start) {
            m.stage_parse_ns.record(elapsed_ns(start));
        }
        let (status, content_type, body) = match routed {
            Ok(Routed::Engine(cmd)) => {
                if guard.is_none() {
                    *guard = core.lock().ok();
                }
                match guard.as_deref_mut() {
                    Some(core) => execute_timed(core, &cmd, read_at, metrics),
                    None => {
                        // An earlier command panicked on the core: its state
                        // is unknown, so nothing more is served from it.
                        keep_alive = false;
                        error_reply(&ServeError::internal("the engine has stopped"))
                    }
                }
            }
            Ok(Routed::Metrics) => match metrics {
                Some(m) => (200, "text/plain; version=0.0.4", m.render_prometheus()),
                None => error_reply(&ServeError::not_found(path)),
            },
            Ok(Routed::Flight) => match metrics {
                Some(m) => (200, "application/json", m.flight_json()),
                None => error_reply(&ServeError::not_found(path)),
            },
            Err(e) => error_reply(&e),
        };
        if let Some(m) = metrics {
            m.record_request(endpoint, status);
        }
        http::append_response_typed(
            &mut self.out,
            status,
            content_type,
            body.as_bytes(),
            keep_alive,
        );
        keep_alive
    }

    /// Write the batch's replies.  Returns `false` if the client is gone
    /// (or did not drain them within the idle deadline).
    fn write_out(&mut self) -> bool {
        if self.out.is_empty() {
            return true;
        }
        let write_start = self.metrics.map(|_| Instant::now());
        let written = self.stream.write_all(&self.out).is_ok();
        if let (true, Some(m), Some(start)) = (written, self.metrics, write_start) {
            m.stage_write_ns.record(elapsed_ns(start));
            m.response_bytes.add(self.stripe, self.out.len() as u64);
        }
        self.out.clear();
        release_excess(&mut self.out);
        written
    }
}

/// Execute one engine command on the locked core, recording its queue
/// and apply stages and a flight event.
fn execute_timed(
    core: &mut ServeCore,
    cmd: &crate::server::EngineCmd,
    read_at: Instant,
    metrics: Option<&ServeMetrics>,
) -> (u16, &'static str, String) {
    let apply_start = Instant::now();
    let queue_ns = u64::try_from(apply_start.saturating_duration_since(read_at).as_nanos())
        .unwrap_or(u64::MAX);
    let reply = match panic::catch_unwind(AssertUnwindSafe(|| execute(core, cmd))) {
        Ok(reply) => reply,
        Err(cause) => {
            // Log the fatal command and dump the recorder, so the
            // post-mortem names the exact command sequence.
            if let Some(m) = metrics {
                let (kind, a, b) = flight_coords(cmd);
                m.flight
                    .record(kind, a, b, queue_ns, elapsed_ns(apply_start));
                eprintln!("the engine panicked mid-command; flight recorder dump:");
                eprintln!("{}", m.flight_json());
            }
            panic::resume_unwind(cause);
        }
    };
    if let Some(m) = metrics {
        let apply_ns = elapsed_ns(apply_start);
        m.stage_queue_ns.record(queue_ns);
        m.stage_apply_ns.record(apply_ns);
        let (kind, a, b) = flight_coords(cmd);
        m.flight.record(kind, a, b, queue_ns, apply_ns);
    }
    match reply {
        Ok(body) => (200, "application/json", body),
        Err(e) => error_reply(&e),
    }
}

/// Give back a buffer's capacity once a large body or reply has passed
/// through it, so a connection that once restored a snapshot does not
/// keep its size for life.
fn release_excess(buf: &mut Vec<u8>) {
    if buf.capacity() > 16 * READ_CHUNK && buf.len() <= READ_CHUNK {
        buf.shrink_to(READ_CHUNK);
    }
}

/// An error's status, content type and `{"error": ...}` JSON body.
fn error_reply(e: &ServeError) -> (u16, &'static str, String) {
    let body = to_json(&ErrorBody {
        error: e.message.clone(),
    });
    (e.status, "application/json", body)
}

/// Serialize one error reply.
fn append_error(out: &mut Vec<u8>, e: &ServeError, keep_alive: bool) {
    let (status, content_type, body) = error_reply(e);
    http::append_response_typed(out, status, content_type, body.as_bytes(), keep_alive);
}

#[cfg(test)]
mod tests;
