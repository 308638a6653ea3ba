//! The frontend: an accept thread, one blocking thread per connection,
//! and the core behind a mutex.
//!
//! ```text
//!   TcpListener (blocking accept; 503 past the connection cap)
//!        │ one thread per connection
//!   ┌────▼───────────────────────────────────────────────────────┐
//!   │ read (blocking; deadline = header or idle bound)           │
//!   │   ──► frame ──► route       up to 64 frames, no lock       │
//!   │   ──► lock ──► execute ──► unlock                          │
//!   │                 the batch's engine commands, typed replies │
//!   │   ──► encode into the connection buffer, in frame order    │
//!   │   ──► publish the batch's telemetry ──► write   no lock    │
//!   └────────────────────────────────────────────────────────────┘
//! ```
//!
//! A request never crosses a thread: the thread that read it executes it
//! on the core and writes its reply.  The core sits behind a `Mutex`
//! held once per batch of pipelined frames, for the engine commands
//! only: framing, routing (a posted snapshot is rebuilt into its engine
//! there), JSON encoding and the socket write all happen without it.  A
//! batch without an engine command never takes the lock — `GET
//! /v1/metrics` and `GET /v1/debug/flight` read atomics and never wait
//! for the engine.  Nothing polls: an idle connection costs a thread
//! parked in `read`, an idle server a thread parked in `accept`.
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
//! [`MAX_UNFLUSHED_BYTES`] plus one reply of output.  Between phases a
//! batch holds at most [`MAX_BATCH`] typed replies, of which only a
//! snapshot grows with the instance, and a snapshot ends its batch; a
//! restore's rebuilt engine grows with its body, which the input bound
//! already caps.

use std::io::{self, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::core::ServeCore;
use crate::http;
use crate::metrics::{endpoint_index, ServeMetrics, Tally};
use crate::server::{
    execute, flight_coords, route, to_json, Body, EngineCmd, ErrorBody, Reply, Routed,
};
use crate::ServeError;

/// Read chunk size.
const READ_CHUNK: usize = 8 * 1024;

/// Most pipelined frames in one batch (framed together, their engine
/// commands executed under one hold of the core's lock).
const MAX_BATCH: usize = 64;

/// Open connections; one more is answered `503` and closed.
const MAX_CONNECTIONS: usize = 256;

/// How long a request head may stay incomplete before the connection is
/// answered `408` and closed (the slowloris bound).
const HEADER_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a connection may wait for its client — a read with no bytes,
/// or a write the client does not drain — before it is closed.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Encoded reply bytes past which a batch's responses are written before
/// the next reply is encoded.
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
        scratch: String::with_capacity(256),
        metrics,
        tally: Tally::with_capacity(MAX_BATCH),
        stripe,
    };
    let mut batch = Batch::default();
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
        let consumed = match conn.answer_buffered(&buf, &mut batch, core, limits, read_at) {
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
    /// Encoded replies not yet written.
    out: Vec<u8>,
    /// The reply body being encoded, reused from reply to reply.
    scratch: String,
    metrics: Option<&'s ServeMetrics>,
    /// Telemetry gathered since the last publish (kept only with
    /// `metrics`); published once per batch, before its replies are
    /// written.
    tally: Tally,
    /// This connection's stripe of the sharded byte counters.
    stripe: usize,
}

/// One batch of pipelined frames between its three phases, kept per
/// connection so its vectors are reused.
#[derive(Default)]
struct Batch {
    /// Every framed request, in frame order.
    slots: Vec<Slot>,
    /// The engine commands among them, in frame order, until they run.
    cmds: Vec<EngineCmd>,
    /// Their typed replies, in the same order, until they are encoded.
    replies: Vec<Result<Reply, ServeError>>,
}

/// One framed request of a batch.
struct Slot {
    /// Its endpoint's index in the request counters.
    endpoint: usize,
    keep_alive: bool,
    answer: Answer,
}

/// What a framed request is answered with.
enum Answer {
    /// The batch's next engine reply.
    Engine,
    /// The metric catalog (`GET /v1/metrics`).
    Metrics,
    /// The flight recorder (`GET /v1/debug/flight`).
    Flight,
    /// An error found while routing.
    Error(ServeError),
    /// A framing error's status and body; the connection then closes.
    Framing(u16, String),
}

impl Conn<'_> {
    /// Answer every complete frame at the front of `buf`, in batches of
    /// at most [`MAX_BATCH`] frames, each in three phases: frame and
    /// route without the lock, execute the engine commands under one
    /// hold of the core's lock, then encode and write without it.  A
    /// batch is written before the next is framed.  Returns how many
    /// bytes were consumed, or `None` once the connection is to be
    /// dropped (a close was answered, a framing error, a failed write).
    /// Zero-copy: frames borrow `buf`.
    ///
    /// With metrics on, the clock is read once per stage boundary: each
    /// stage starts where the one before it ended, the first frame's
    /// parse stage at `read_at`.
    fn answer_buffered(
        &mut self,
        buf: &[u8],
        batch: &mut Batch,
        core: &Mutex<ServeCore>,
        limits: &Limits,
        read_at: Instant,
    ) -> Option<usize> {
        let mut consumed = 0usize;
        // The clock at the last stage boundary.
        let mut mark = read_at;
        loop {
            let (used, more) = self.frame_batch(&buf[consumed..], batch, limits, &mut mark);
            consumed += used;
            if batch.slots.is_empty() {
                return Some(consumed);
            }
            if !batch.cmds.is_empty() {
                let telemetry = self.metrics.map(|m| (m, &mut self.tally));
                execute_batch(batch, core, read_at, &mut mark, telemetry);
            }
            if !self.encode_and_write(batch, limits, &mut mark) {
                return None;
            }
            if !more {
                return Some(consumed);
            }
        }
    }

    /// Phase 1, without the lock: frame and route up to [`MAX_BATCH`]
    /// frames from the front of `buf`.  The batch ends early after a
    /// frame that closes the connection, a framing error, or a
    /// `GET /v1/snapshot` (the one reply whose size grows with the
    /// instance).  Returns the bytes consumed and whether complete
    /// frames may follow.  Each framed request's parse stage runs from
    /// `mark` (the previous stage boundary) to the end of its routing.
    fn frame_batch(
        &mut self,
        buf: &[u8],
        batch: &mut Batch,
        limits: &Limits,
        mark: &mut Instant,
    ) -> (usize, bool) {
        let mut consumed = 0usize;
        while batch.slots.len() < MAX_BATCH {
            match http::parse_frame_within(&buf[consumed..], limits.max_body_bytes) {
                Ok(Some((frame, used))) => {
                    consumed += used;
                    let ends = self.route_frame(&frame, batch);
                    if self.metrics.is_some() {
                        self.tally.parse_ns.push(lap(mark));
                    }
                    if ends {
                        return (consumed, true);
                    }
                }
                Ok(None) => return (consumed, false),
                Err(e) => {
                    // Size caps answer 413, everything else 400, then
                    // close: the rest of the buffer is poisoned.
                    let status = if http::is_too_large(&e) { 413 } else { 400 };
                    let body = format!("{{\"error\": {:?}}}", e.to_string());
                    batch.slots.push(Slot {
                        endpoint: endpoint_index(""),
                        keep_alive: false,
                        answer: Answer::Framing(status, body),
                    });
                    return (consumed, false);
                }
            }
        }
        (consumed, true)
    }

    /// Route one frame into the batch; an engine command joins the
    /// batch's commands.  Returns whether the batch ends with it.
    fn route_frame(&mut self, frame: &http::Frame<'_>, batch: &mut Batch) -> bool {
        let keep_alive = !frame.close;
        let mut parts = frame.start_line.split_ascii_whitespace();
        let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
            batch.slots.push(Slot {
                endpoint: endpoint_index(""),
                keep_alive,
                answer: Answer::Error(ServeError::bad_request("bad request line")),
            });
            return !keep_alive;
        };
        let endpoint = endpoint_index(path);
        if self.metrics.is_some() {
            self.tally.request_bytes += (frame.start_line.len() + frame.body.len()) as u64;
        }
        let routed = route(method, path, frame.body);
        let mut ends = !keep_alive;
        let answer = match routed {
            Ok(Routed::Engine(cmd)) => {
                ends |= matches!(cmd, EngineCmd::Snapshot);
                batch.cmds.push(cmd);
                Answer::Engine
            }
            Ok(Routed::Metrics) => Answer::Metrics,
            Ok(Routed::Flight) => Answer::Flight,
            Err(e) => Answer::Error(e),
        };
        batch.slots.push(Slot {
            endpoint,
            keep_alive,
            answer,
        });
        ends
    }

    /// Phase 3, without the lock: encode each reply and append the
    /// responses in frame order, writing whenever `max_unflushed_bytes`
    /// have gathered and once more at the end.  A typed reply is encoded
    /// into the connection's scratch buffer and copied into the output,
    /// so no reply allocates.  The write stage runs from `mark` (the end
    /// of the batch's last command, or of its framing) to the batch's
    /// last byte written.  Returns whether the connection stays open.
    fn encode_and_write(&mut self, batch: &mut Batch, limits: &Limits, mark: &mut Instant) -> bool {
        let metrics = self.metrics;
        let mut replies = batch.replies.drain(..);
        let mut keep_alive = true;
        for slot in batch.slots.drain(..) {
            keep_alive = slot.keep_alive;
            let (status, content_type, body) = match slot.answer {
                Answer::Engine => match replies.next() {
                    Some(Ok(reply)) => (200, JSON, reply.encode(&mut self.scratch)),
                    Some(Err(e)) => error_reply(&e),
                    None => {
                        // An earlier command panicked on the core: its
                        // state is unknown, so nothing more is served
                        // from it.
                        keep_alive = false;
                        error_reply(&ServeError::internal("the engine has stopped"))
                    }
                },
                Answer::Metrics => match metrics {
                    Some(m) => {
                        // The scrape counts every request answered
                        // before it, as if each had published alone.
                        m.publish(&mut self.tally, self.stripe);
                        let text = m.render_prometheus();
                        (200, "text/plain; version=0.0.4", Body::Owned(text))
                    }
                    None => error_reply(&ServeError::not_found("/v1/metrics")),
                },
                Answer::Flight => match metrics {
                    Some(m) => (200, JSON, Body::Owned(m.flight_json())),
                    None => error_reply(&ServeError::not_found("/v1/debug/flight")),
                },
                Answer::Error(e) => error_reply(&e),
                Answer::Framing(status, body) => (status, JSON, Body::Owned(body)),
            };
            if metrics.is_some() {
                self.tally.count_request(slot.endpoint, status);
            }
            let body = match &body {
                Body::Scratch => self.scratch.as_bytes(),
                Body::Owned(text) => text.as_bytes(),
            };
            http::append_response_typed(&mut self.out, status, content_type, body, keep_alive);
            if !keep_alive {
                break;
            }
            if self.out.len() >= limits.max_unflushed_bytes && !self.write_out() {
                return false;
            }
        }
        if !self.write_out() {
            return false;
        }
        if let Some(m) = metrics {
            m.stage_write_ns.record(lap(mark));
        }
        keep_alive
    }

    /// Write the replies gathered so far, publishing the telemetry
    /// gathered so far first: a client that has read its reply finds its
    /// request counted.  Returns `false` if the client is gone (or did
    /// not drain them within the idle deadline).
    fn write_out(&mut self) -> bool {
        if let Some(m) = self.metrics {
            m.publish(&mut self.tally, self.stripe);
        }
        if self.out.is_empty() {
            return true;
        }
        let written = self.stream.write_all(&self.out).is_ok();
        if let (true, Some(m)) = (written, self.metrics) {
            m.response_bytes.add(self.stripe, self.out.len() as u64);
        }
        self.out.clear();
        release_excess(&mut self.out);
        written
    }
}

/// Phase 2: execute the batch's engine commands in frame order under one
/// hold of the core's lock, keeping their typed replies.  A poisoned lock
/// (an earlier command panicked) leaves the replies short, and the first
/// command without one is answered that the engine has stopped.
///
/// With metrics on, the clock is read once when the lock is taken and
/// once after each command: a command's apply stage starts where the one
/// before it ended, and its queue stage runs from `read_at` to there.
/// Both go to `tally`, to be published once the lock is released; only
/// the flight recorder is written per command under the lock, so its
/// events keep the execution order.  The engine's own series are held
/// over the batch and published once, before the lock is released.
/// `mark` ends at the last command's end (the publish is charged to the
/// write stage).
fn execute_batch(
    batch: &mut Batch,
    core: &Mutex<ServeCore>,
    read_at: Instant,
    mark: &mut Instant,
    mut telemetry: Option<(&ServeMetrics, &mut Tally)>,
) {
    let Ok(mut core) = core.lock() else {
        batch.cmds.clear();
        return;
    };
    if telemetry.is_some() {
        *mark = Instant::now();
    }
    core.hold_telemetry();
    for cmd in batch.cmds.drain(..) {
        let telemetry = telemetry.as_mut().map(|(m, tally)| (*m, &mut **tally));
        let reply = execute_timed(&mut core, cmd, read_at, mark, telemetry);
        batch.replies.push(reply);
    }
    core.release_telemetry();
}

/// Execute one engine command on the locked core, recording a flight
/// event and keeping its queue and apply stages in `tally`; its apply
/// stage starts at `mark`, which moves to its end.
fn execute_timed(
    core: &mut ServeCore,
    cmd: EngineCmd,
    read_at: Instant,
    mark: &mut Instant,
    telemetry: Option<(&ServeMetrics, &mut Tally)>,
) -> Result<Reply, ServeError> {
    let (kind, a, b) = flight_coords(&cmd);
    let queue_ns = span_ns(read_at, *mark);
    let reply = match panic::catch_unwind(AssertUnwindSafe(|| execute(core, cmd))) {
        Ok(reply) => reply,
        Err(cause) => {
            // Log the fatal command and dump the recorder, so the
            // post-mortem names the exact command sequence.
            if let Some((m, _)) = telemetry {
                m.flight.record(kind, a, b, queue_ns, lap(mark));
                eprintln!("the engine panicked mid-command; flight recorder dump:");
                eprintln!("{}", m.flight_json());
            }
            panic::resume_unwind(cause);
        }
    };
    if let Some((m, tally)) = telemetry {
        let apply_ns = lap(mark);
        tally.queue_ns.push(queue_ns);
        tally.apply_ns.push(apply_ns);
        m.flight.record(kind, a, b, queue_ns, apply_ns);
    }
    reply
}

/// Nanoseconds from `from` to `to` (`0` if `to` is earlier).
fn span_ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Read the clock once: the nanoseconds since `mark`, which moves to now
/// (the next stage starts where this one ends).
fn lap(mark: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = span_ns(*mark, now);
    *mark = now;
    ns
}

/// Give back a buffer's capacity once a large body or reply has passed
/// through it, so a connection that once restored a snapshot does not
/// keep its size for life.
fn release_excess(buf: &mut Vec<u8>) {
    if buf.capacity() > 16 * READ_CHUNK && buf.len() <= READ_CHUNK {
        buf.shrink_to(READ_CHUNK);
    }
}

/// The content type of every JSON body.
const JSON: &str = "application/json";

/// An error's `{"error": ...}` JSON body.
fn error_body(e: &ServeError) -> String {
    to_json(&ErrorBody {
        error: e.message.clone(),
    })
}

/// An error's status, content type and body.
fn error_reply(e: &ServeError) -> (u16, &'static str, Body) {
    (e.status, JSON, Body::Owned(error_body(e)))
}

/// Serialize one error reply.
fn append_error(out: &mut Vec<u8>, e: &ServeError, keep_alive: bool) {
    http::append_response_typed(out, e.status, JSON, error_body(e).as_bytes(), keep_alive);
}

#[cfg(test)]
mod tests;
