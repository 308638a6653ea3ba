//! A minimal blocking HTTP/1.1 client (keep-alive, JSON bodies).
//!
//! Exists so the trace-replay driver, the end-to-end tests and the
//! repository benchmark's serving workloads (`perfbench/`) talk to the
//! server over *real sockets* without pulling in a client library.  One [`HttpClient`] is one keep-alive connection;
//! requests are strictly sequential, which is also what makes a
//! single-client drive of the server deterministic.

use std::io::{self, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::http::{self, MessageReader};

/// One keep-alive connection to an `rls-serve` server.
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    reader: MessageReader,
    out: Vec<u8>,
}

impl HttpClient {
    /// Connect, with TCP_NODELAY and a 10 s read timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self {
            stream,
            reader: MessageReader::new(),
            out: Vec::with_capacity(512),
        })
    }

    /// Send one request and wait for the response; returns the status code
    /// and the body.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.send(method, path, body)?;
        self.recv()
    }

    /// Send a request without waiting — pair with [`recv`](Self::recv).
    /// Several sends may be in flight at once (HTTP/1.1 pipelining);
    /// responses come back in order.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
        http::write_request(&mut self.stream, &mut self.out, method, path, body)?;
        self.out.clear();
        Ok(())
    }

    /// Buffer a request without writing it — pair with
    /// [`flush`](Self::flush).  A pipelined burst queued this way goes out
    /// in one syscall, which keeps a load driver cheap enough to
    /// saturate the server even when both share a core.
    pub fn queue(&mut self, method: &str, path: &str, body: &[u8]) {
        http::append_request(&mut self.out, method, path, body);
    }

    /// Write every queued request in one syscall.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let outcome = self.stream.write_all(&self.out);
        self.out.clear();
        outcome
    }

    /// Receive the next in-order response; returns the status code and the
    /// body.
    pub fn recv(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let (status, body) =
            self.recv_frame(|frame| (parse_status(frame.start_line), frame.body.to_vec()))?;
        Ok((status?, body))
    }

    /// Receive the next in-order response, reading only the status code —
    /// no body copy, no allocation.  A load driver discards response
    /// bodies, so paying to copy them would just bill client overhead to
    /// the server under test.
    pub fn recv_status(&mut self) -> io::Result<u16> {
        self.recv_frame(|frame| parse_status(frame.start_line))?
    }

    /// Read the next response frame and extract what the caller needs
    /// while the bytes are still borrowed from the connection buffer.
    fn recv_frame<T>(&mut self, read: impl FnOnce(&http::Frame<'_>) -> T) -> io::Result<T> {
        // `next_frame_with` reports an idle timeout the same way as a
        // clean close (`Ok(None)`); track which one actually happened so a
        // slow server is not misdiagnosed as a disconnect.
        let mut timed_out = false;
        self.reader
            .next_frame_with(
                &mut self.stream,
                &mut || {
                    timed_out = true;
                    false
                },
                read,
            )?
            .ok_or_else(|| {
                if timed_out {
                    io::Error::new(
                        io::ErrorKind::TimedOut,
                        "timed out waiting for the response",
                    )
                } else {
                    io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
                }
            })
    }

    /// [`request`](Self::request) expecting a 200 with a JSON body;
    /// non-200 statuses become errors carrying the server's message.
    pub fn request_ok(&mut self, method: &str, path: &str, body: &[u8]) -> Result<String, String> {
        let (status, body) = self
            .request(method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        let text = String::from_utf8_lossy(&body).into_owned();
        if status == 200 {
            Ok(text)
        } else {
            Err(format!("{method} {path}: HTTP {status}: {text}"))
        }
    }
}

/// Status code out of a response start line ("HTTP/1.1 200 OK" -> 200).
fn parse_status(start_line: &str) -> io::Result<u16> {
    start_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad response status line"))
}
