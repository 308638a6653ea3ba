//! The frontend's resource bounds, each reached through a crate-private
//! [`Limits`] smaller than the shipped constants: the header deadline
//! (slowloris), the connection cap, the body cap under a memory budget,
//! the idle deadline and the cap on replies gathered before a write.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rls_core::{Config, RlsRule};
use rls_live::{LiveEngine, LiveParams};
use rls_workloads::ArrivalProcess;

use super::Limits;
use crate::server::serve_within;
use crate::{HttpClient, HttpServer, ServeCore, ServePolicy, ServerConfig};

fn make_core(seed: u64) -> ServeCore {
    let initial = Config::uniform(16, 4).unwrap();
    let params =
        LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 16, 64).unwrap();
    let engine = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
    ServeCore::new(
        engine,
        seed,
        0.0,
        ServePolicy {
            rings_per_arrival: 0.0,
        },
    )
}

fn boot_with(seed: u64, limits: Limits) -> HttpServer {
    serve_within(make_core(seed), &ServerConfig::default(), limits)
        .expect("ephemeral-port server boots")
}

/// A raw socket with a read timeout, for tests that speak wire bytes.
fn raw_socket(server: &HttpServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

#[test]
fn slowloris_head_is_answered_408_and_closed() {
    let header_timeout = Duration::from_millis(200);
    let server = boot_with(
        18,
        Limits {
            header_timeout,
            ..Limits::default()
        },
    );
    let mut stream = raw_socket(&server);
    let started = Instant::now();
    // Dribble a head one byte every 20 ms, never finishing it: each byte
    // is progress on the socket, but the head is still incomplete when
    // the deadline passes.
    for &byte in b"GET /healthz HTTP/1.1\r\nX-Slow: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".iter() {
        if stream.write_all(&[byte]).is_err() {
            break; // the server already hung up
        }
        std::thread::sleep(Duration::from_millis(20));
        if started.elapsed() > 4 * header_timeout {
            break;
        }
    }
    let mut raw = Vec::new();
    // A reset after the 408 is fine: the reply arrived first.
    let _ = stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 408 Request Timeout"), "{text}");
    assert!(text.contains("Connection: close"), "{text}");

    // A prompt client on the same server is unaffected.
    let mut client = HttpClient::connect(server.addr()).unwrap();
    client.request_ok("GET", "/healthz", b"").unwrap();
    server.shutdown();
}

#[test]
fn connection_flood_past_the_cap_gets_503_while_established_clients_are_served() {
    let cap = 4;
    let server = boot_with(
        19,
        Limits {
            max_connections: cap,
            ..Limits::default()
        },
    );
    // Fill the cap; answering a request proves each one was accepted.
    let mut established: Vec<HttpClient> = (0..cap)
        .map(|_| {
            let mut client = HttpClient::connect(server.addr()).unwrap();
            client.request_ok("GET", "/healthz", b"").unwrap();
            client
        })
        .collect();
    // Every further connection is told why and closed.
    for _ in 0..3 * cap {
        let mut stream = raw_socket(&server);
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{text}"
        );
        assert!(text.contains("Connection: close"), "{text}");
    }
    // The established clients never noticed.
    for client in &mut established {
        let body = client.request_ok("POST", "/v1/arrive", b"").unwrap();
        assert!(body.contains("\"bin\""), "{body}");
    }
    // A freed slot admits a new client again.
    drop(established.pop());
    let admitted = (0..200).any(|_| {
        std::thread::sleep(Duration::from_millis(5));
        HttpClient::connect(server.addr())
            .ok()
            .is_some_and(|mut c| c.request_ok("GET", "/healthz", b"").is_ok())
    });
    assert!(admitted, "a closed connection must free its slot");
    let core = server.shutdown();
    assert_eq!(core.engine().counters().arrivals, cap as u64);
}

/// The process's peak resident set (`VmHWM`) in KiB, where `/proc` has it.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn large_bodies_past_the_cap_get_413_within_a_memory_budget() {
    const CONNECTIONS: usize = 8;
    const MAX_BODY: usize = 64 * 1024;
    // Each client first sends a valid request whose body is whitespace
    // padding up to just under the cap, then declares a body 64× the cap
    // and streams it.  The server holds at most one head plus one capped
    // body per connection, so the budget is
    // CONNECTIONS × (16 KiB + MAX_BODY + replies) ≈ 0.7 MiB; the streamed
    // bodies total 32 MiB and must never be buffered.
    const BUDGET_KIB: u64 = 8 * 1024;
    let server = boot_with(
        20,
        Limits {
            max_body_bytes: MAX_BODY,
            ..Limits::default()
        },
    );
    let addr = server.addr();
    let near_cap = {
        let mut body = br#"{"bin": 1}"#.to_vec();
        body.resize(MAX_BODY - 16, b' ');
        body
    };
    let chunk = vec![b'x'; 1 << 20];
    let before = peak_rss_kib();
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            let (near_cap, chunk) = (&near_cap, &chunk);
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for _ in 0..4 {
                    let (status, body) = client.request("POST", "/v1/arrive", near_cap).unwrap();
                    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
                }
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                let head = format!(
                    "POST /v1/restore HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    64 * MAX_BODY
                );
                stream.write_all(head.as_bytes()).unwrap();
                for _ in 0..4 {
                    // The server hangs up after the head; later writes fail.
                    if stream.write_all(chunk).is_err() {
                        break;
                    }
                }
                let mut raw = Vec::new();
                let _ = stream.read_to_end(&mut raw);
                let text = String::from_utf8_lossy(&raw);
                assert!(text.starts_with("HTTP/1.1 413 Payload Too Large"), "{text}");
            });
        }
    });
    if let (Some(before), Some(after)) = (before, peak_rss_kib()) {
        assert!(
            after.saturating_sub(before) < BUDGET_KIB,
            "peak RSS grew by {} KiB, over the {BUDGET_KIB} KiB budget",
            after - before
        );
    }
    let core = server.shutdown();
    assert_eq!(core.engine().counters().arrivals, 4 * CONNECTIONS as u64);
}

#[test]
fn idle_connection_is_closed_after_the_idle_deadline() {
    let idle_timeout = Duration::from_millis(150);
    let server = boot_with(
        22,
        Limits {
            idle_timeout,
            ..Limits::default()
        },
    );
    let mut stream = raw_socket(&server);
    stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let started = Instant::now();
    // The reply, then silence until the server hangs up.
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 1, "{text}");
    assert!(started.elapsed() >= idle_timeout, "closed too early");
    server.shutdown();
}

#[test]
fn a_deep_pipeline_is_answered_in_order_past_the_unflushed_cap() {
    let server = boot_with(
        23,
        Limits {
            max_unflushed_bytes: 1024,
            ..Limits::default()
        },
    );
    let mut stream = raw_socket(&server);
    // 300 pipelined arrivals then a half-close: the server writes a batch
    // whenever 1 KiB of replies has gathered, reads nothing while it
    // writes, and the half-close must not drop the frames still buffered.
    let mut burst = Vec::new();
    for bin in 0..300 {
        let body = format!("{{\"bin\": {}, \"rings\": 0}}", bin % 16);
        burst.extend_from_slice(
            format!(
                "POST /v1/arrive HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
    stream.write_all(&burst).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    let bins: Vec<usize> = text
        .match_indices("\"bin\":")
        .map(|(at, key)| {
            let digits: String = text[at + key.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().unwrap()
        })
        .collect();
    let expected: Vec<usize> = (0..300).map(|bin| bin % 16).collect();
    assert_eq!(bins, expected);
    let core = server.shutdown();
    assert_eq!(core.engine().counters().arrivals, 300);
}
