//! Minimal HTTP/1.1 message framing over `std::net::TcpStream`.
//!
//! Just enough of RFC 7230 for this crate's API: start line, headers,
//! `Content-Length`-framed bodies and keep-alive.  No chunked encoding, no
//! TLS, no HTTP/2 — both peers are this workspace's own server and client,
//! plus anything curl-shaped.
//!
//! Parsing is buffer-first: [`parse_frame`] splits one complete message
//! off the front of a connection buffer without copying, so partial reads
//! never lose data and pipelined messages are handled for free.  The
//! server's connection threads parse their buffers directly;
//! [`MessageReader`] wraps the same parser for a blocking socket (the
//! client's side).

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Hard cap on the head (start line + headers) of a message.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on a message body, in [`parse_frame`] and in the server.
/// Snapshots are the biggest legitimate payload: `GET /v1/snapshot` of a
/// unit engine takes about 7 bytes per bin and a weighted one about 11
/// more per ball, so this admits about 9 million bins, or 5.8 million
/// weighted balls (measured in `docs/SERVE.md`).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Accumulates bytes from one connection and yields complete messages.
#[derive(Debug, Default)]
pub struct MessageReader {
    buf: Vec<u8>,
}

/// What a single read attempt produced.
enum Fill {
    /// More bytes arrived.
    Data,
    /// The peer closed the connection.
    Eof,
    /// The read timed out (the socket has a read timeout configured).
    TimedOut,
}

impl MessageReader {
    /// A reader with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read one complete message and hand the zero-copy [`Frame`] to
    /// `read` before the buffer is drained, so callers (like
    /// [`HttpClient::recv_status`](crate::HttpClient::recv_status)) copy
    /// only the fields they need.
    ///
    /// Returns `Ok(None)` on a clean close (EOF at a message boundary).
    /// When a read times out, `keep_waiting` decides whether to keep
    /// listening: `false` ends the read — cleanly if no partial message
    /// is buffered, with `TimedOut` otherwise.
    pub fn next_frame_with<T>(
        &mut self,
        stream: &mut TcpStream,
        keep_waiting: &mut dyn FnMut() -> bool,
        read: impl FnOnce(&Frame<'_>) -> T,
    ) -> io::Result<Option<T>> {
        loop {
            if let Some((frame, used)) = parse_frame(&self.buf)? {
                let value = read(&frame);
                self.buf.drain(..used);
                return Ok(Some(value));
            }
            match self.fill(stream)? {
                Fill::Data => {}
                Fill::Eof if self.buf.is_empty() => return Ok(None),
                Fill::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-message",
                    ));
                }
                Fill::TimedOut => {
                    if keep_waiting() {
                        continue;
                    }
                    if self.buf.is_empty() {
                        return Ok(None);
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "timed out mid-message",
                    ));
                }
            }
        }
    }

    fn fill(&mut self, stream: &mut TcpStream) -> io::Result<Fill> {
        let mut chunk = [0u8; 8 * 1024];
        match stream.read(&mut chunk) {
            Ok(0) => Ok(Fill::Eof),
            Ok(k) => {
                self.buf.extend_from_slice(&chunk[..k]);
                Ok(Fill::Data)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(Fill::TimedOut)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(Fill::TimedOut),
            Err(e) => Err(e),
        }
    }
}

/// A zero-copy view of one HTTP/1.1 message parsed straight out of a
/// connection buffer: every field borrows the buffer, so a pipelined
/// burst parses without a single per-frame allocation.  The server routes
/// requests directly off these borrows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The start line, e.g. `POST /v1/arrive HTTP/1.1`.
    pub start_line: &'a str,
    /// Whether the peer asked to close the connection after this message.
    pub close: bool,
    /// The body (empty when there was no `Content-Length`).
    pub body: &'a [u8],
}

/// Parse one complete message from the front of `buf` without copying.
///
/// Returns the frame plus the number of bytes it occupies; the caller
/// drains them once the frame is answered.  `Ok(None)` means the buffer
/// holds no complete message yet (keep reading).  Framing errors — the
/// head/body size caps, a non-UTF-8 head, a bad `Content-Length` — are
/// `InvalidData`; the server maps the size caps to 413
/// ([`is_too_large`]) and the rest to 400.
pub fn parse_frame(buf: &[u8]) -> io::Result<Option<(Frame<'_>, usize)>> {
    parse_frame_within(buf, MAX_BODY_BYTES)
}

/// [`parse_frame`] with a body cap of `max_body` bytes instead of
/// [`MAX_BODY_BYTES`]: a larger `Content-Length` is rejected from the
/// head alone, before any body bytes are buffered.
pub(crate) fn parse_frame_within(
    buf: &[u8],
    max_body: usize,
) -> io::Result<Option<(Frame<'_>, usize)>> {
    // A complete head (terminated by CRLFCRLF)?
    let head_end = match find_head_end(buf) {
        Some(end) => end,
        None if buf.len() > MAX_HEAD_BYTES => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "message head exceeds the size cap",
            ));
        }
        None => return Ok(None),
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let start_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty head"))?;
    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > max_body {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "body exceeds the size cap",
        ));
    }

    // The whole body, too?
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    let body = &buf[body_start..body_start + content_length];
    Ok(Some((
        Frame {
            start_line,
            close,
            body,
        },
        body_start + content_length,
    )))
}

/// Offset of the `\r\n\r\n` head terminator, if present.  Only the first
/// [`MAX_HEAD_BYTES`] (plus the terminator) are searched: a terminator
/// past them is over the cap either way, and a large buffer without one
/// is not rescanned end to end.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf[..buf.len().min(MAX_HEAD_BYTES + 4)]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
}

/// Whether `buf` starts with a complete message head (the server's
/// header deadline runs only while it does not).
pub(crate) fn head_complete(buf: &[u8]) -> bool {
    find_head_end(buf).is_some()
}

/// Whether a framing error is the head/body size cap (the server answers
/// those with 413 instead of the generic 400).
pub fn is_too_large(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::InvalidData && e.to_string().contains("size cap")
}

/// The reason phrase for the status codes this crate emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Append one serialized response to `out` (the server batches the
/// responses of a pipelined burst into a single write).
pub fn append_response(out: &mut Vec<u8>, status: u16, body: &[u8], keep_alive: bool) {
    append_response_typed(out, status, "application/json", body, keep_alive);
}

/// [`append_response`] with an explicit `Content-Type` (the metrics
/// endpoint serves Prometheus text, everything else JSON).  Built with
/// plain byte appends — no formatting machinery, no per-response
/// allocation: this runs once per request on the serving hot path.
pub fn append_response_typed(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) {
    out.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(out, status as u64);
    out.push(b' ');
    out.extend_from_slice(reason_phrase(status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    push_decimal(out, body.len() as u64);
    // Keep-alive is the HTTP/1.1 default — only announce the exception.
    // Header bytes are priced by the loopback write syscall on every
    // single response, so the hot path sends none it doesn't need.
    if !keep_alive {
        out.extend_from_slice(b"\r\nConnection: close");
    }
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
}

/// Append `v` in decimal without going through the formatting machinery.
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Append one serialized request to `out` (the client batches a
/// pipelined burst into a single write).
pub fn append_request(out: &mut Vec<u8>, method: &str, path: &str, body: &[u8]) {
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: rls-serve\r\nContent-Length: ");
    push_decimal(out, body.len() as u64);
    // Keep-alive is the HTTP/1.1 default; the header would only add
    // bytes to every request the server then has to read and parse.
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
}

/// Serialize a request into `out` (cleared first) and write it.
pub fn write_request(
    stream: &mut TcpStream,
    out: &mut Vec<u8>,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<()> {
    out.clear();
    append_request(out, method, path, body);
    stream.write_all(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// One parsed message, copied out of its frame.
    #[derive(Debug)]
    struct Message {
        start_line: String,
        close: bool,
        body: Vec<u8>,
    }

    /// Feed raw bytes through a real socket pair and parse them.
    fn parse_bytes(chunks: &[&[u8]]) -> io::Result<Vec<Message>> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let chunks: Vec<Vec<u8>> = chunks.iter().map(|c| c.to_vec()).collect();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            for c in &chunks {
                // The reader may reject and hang up mid-write (e.g. the
                // oversized-head test): a send error is fine here.
                if s.write_all(c).is_err() {
                    break;
                }
            }
            // Drop closes the write side.
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = MessageReader::new();
        let mut messages = Vec::new();
        let outcome = loop {
            let read = |frame: &Frame<'_>| Message {
                start_line: frame.start_line.to_string(),
                close: frame.close,
                body: frame.body.to_vec(),
            };
            match reader.next_frame_with(&mut stream, &mut || true, read) {
                Ok(Some(m)) => messages.push(m),
                Ok(None) => break Ok(messages),
                Err(e) => break Err(e),
            }
        };
        drop(stream);
        writer.join().unwrap();
        outcome
    }

    #[test]
    fn parses_requests_with_and_without_bodies() {
        let messages = parse_bytes(&[
            b"GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n",
            b"POST /v1/arrive HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"bin\":3}",
        ])
        .unwrap();
        assert_eq!(messages.len(), 2);
        assert_eq!(messages[0].start_line, "GET /v1/stats HTTP/1.1");
        assert!(messages[0].body.is_empty());
        assert_eq!(messages[1].body, b"{\"bin\":3}");
        assert!(!messages[1].close);
    }

    #[test]
    fn split_and_pipelined_messages_both_work() {
        // One request split across 3 writes, then two pipelined in one.
        let messages = parse_bytes(&[
            b"POST /v1/arrive HTT",
            b"P/1.1\r\nContent-Len",
            b"gth: 2\r\n\r\n{}",
            b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n",
        ])
        .unwrap();
        assert_eq!(messages.len(), 3);
        assert_eq!(messages[0].body, b"{}");
        assert_eq!(messages[1].start_line, "GET /healthz HTTP/1.1");
        assert!(messages[2].close);
    }

    #[test]
    fn mid_message_eof_is_an_error() {
        let err = parse_bytes(&[b"POST /v1/arrive HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}"])
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_heads_are_rejected() {
        let big = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES + 1)
        );
        let err = parse_bytes(&[big.as_bytes()]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn parse_frame_is_incremental_and_zero_copy() {
        let full = b"POST /v1/arrive HTTP/1.1\r\nContent-Length: 9\r\nConnection: close\r\n\r\n{\"bin\":3}extra";
        // Every strict prefix short of the full message parses to "not
        // yet" — no false frames from split reads.
        let complete = full.len() - 5; // "extra" is pipelined surplus
        for cut in 0..complete {
            assert!(parse_frame(&full[..cut]).unwrap().is_none(), "cut {cut}");
        }
        let (frame, used) = parse_frame(full).unwrap().unwrap();
        assert_eq!(used, complete);
        assert_eq!(frame.start_line, "POST /v1/arrive HTTP/1.1");
        assert!(frame.close);
        assert_eq!(frame.body, b"{\"bin\":3}");
        // The borrows point into the original buffer: zero copies.
        assert_eq!(frame.body.as_ptr(), full[used - 9..].as_ptr());
    }

    #[test]
    fn parse_frame_enforces_the_same_size_caps() {
        let big_head = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES + 1)
        );
        let err = parse_frame(big_head.as_bytes()).unwrap_err();
        assert!(is_too_large(&err));
        // An oversized Content-Length is rejected from the head alone,
        // before any body bytes arrive.
        let big_body = format!(
            "POST /v1/restore HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse_frame(big_body.as_bytes()).unwrap_err();
        assert!(is_too_large(&err));
        let bad_len = b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        let err = parse_frame(bad_len).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!is_too_large(&err));
    }

    #[test]
    fn reason_phrases_cover_the_emitted_statuses() {
        for status in [200, 400, 404, 405, 408, 409, 413, 500, 503] {
            assert!(!reason_phrase(status).is_empty());
        }
    }
}
