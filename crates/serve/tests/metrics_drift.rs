//! Metrics drift gate: a telemetry-enabled server driven over real
//! sockets must expose every cataloged metric family on `/v1/metrics`,
//! and every exposed sample must be a finite number.
//!
//! This is the check CI runs to catch telemetry rot: renaming a family
//! without updating [`rls_serve::CATALOG`], dropping an instrumentation
//! hook, or rendering garbage (NaN stage timers, empty histograms where
//! traffic should have landed) all fail here rather than silently
//! shipping a dead dashboard.

use std::io::{self, Read, Write as _};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use rls_core::{Config, RlsRule};
use rls_live::{LiveEngine, LiveParams};
use rls_obs::Registry;
use rls_serve::http::{self, MessageReader};
use rls_serve::{serve, HttpClient, ServeCore, ServePolicy, ServerConfig, CATALOG};
use rls_workloads::ArrivalProcess;

fn boot_with_metrics() -> (rls_serve::HttpServer, Registry) {
    let initial = Config::uniform(16, 4).unwrap();
    let params =
        LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 16, 64).unwrap();
    let engine = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
    let mut core = ServeCore::new(
        engine,
        0x0B5,
        0.0,
        ServePolicy {
            rings_per_arrival: 1.0,
        },
    );
    let registry = Registry::new();
    core.attach_metrics(&registry);
    let server = serve(core, &ServerConfig::default()).expect("ephemeral-port server boots");
    (server, registry)
}

/// Drive a short but representative request mix: arrivals (with the
/// auto-rebalance rings they trigger), departures, pinned rings, stats
/// reads, a health check and one deliberate error.
fn drive_traffic(client: &mut HttpClient) {
    for i in 0..40u64 {
        client.request_ok("POST", "/v1/arrive", b"").unwrap();
        if i % 3 == 0 {
            client.request_ok("POST", "/v1/depart", b"").unwrap();
        }
        if i % 5 == 0 {
            client
                .request_ok("POST", "/v1/ring", br#"{"source": 1, "dest": 2}"#)
                .unwrap();
        }
    }
    client.request_ok("GET", "/v1/stats", b"").unwrap();
    client.request_ok("GET", "/healthz", b"").unwrap();
    let (status, _) = client.request("POST", "/v1/arrive", b"not json").unwrap();
    assert_eq!(status, 400);
}

#[test]
fn every_cataloged_metric_is_exposed_and_finite() {
    let (server, _registry) = boot_with_metrics();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    drive_traffic(&mut client);

    let text = client.request_ok("GET", "/v1/metrics", b"").unwrap();

    // Every cataloged family must have at least one sample line (the
    // family name followed by a label set, a histogram suffix, or the
    // value directly).
    for family in CATALOG {
        let found = text.lines().any(|line| {
            !line.starts_with('#')
                && line.starts_with(family)
                && line[family.len()..].starts_with(['{', '_', ' '])
        });
        assert!(found, "family `{family}` has no samples:\n{text}");
    }

    // Every sample value must parse as a finite number — a NaN or a
    // rendering bug here corrupts any scraper downstream.
    let mut samples = 0usize;
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let value = line
            .rsplit(' ')
            .next()
            .unwrap_or_else(|| panic!("malformed sample line: {line}"));
        let parsed: f64 = value
            .parse()
            .unwrap_or_else(|e| panic!("unparseable value in `{line}`: {e}"));
        assert!(parsed.is_finite(), "non-finite sample: {line}");
        samples += 1;
    }
    assert!(samples > CATALOG.len(), "suspiciously few samples:\n{text}");

    // Traffic actually landed in the counters (the families are not just
    // registered-but-dead).
    let count_of = |needle: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(needle))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no sample for {needle}:\n{text}"))
    };
    assert!(count_of("rls_engine_arrivals_total") >= 40.0);
    assert!(count_of("rls_engine_departures_total") >= 13.0);
    assert!(count_of("rls_serve_request_bytes_total") > 0.0);
    // All four stages are live: parse, queue (read to execution), apply
    // and write.
    for stage in ["parse", "queue", "apply", "write"] {
        let series = format!("rls_serve_stage_ns_count{{stage=\"{stage}\"}}");
        assert!(count_of(&series) > 0.0, "no samples in {series}");
    }
    assert!(count_of("rls_serve_errors_total{endpoint=\"arrive\"}") >= 1.0);

    server.shutdown();
}

/// The value of the first sample line starting with `needle`.
fn sample(text: &str, needle: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(needle))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no sample for {needle}:\n{text}"))
}

/// A socket that counts the bytes read through it.
struct Counted<'a> {
    stream: &'a TcpStream,
    bytes: u64,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let read = Read::read(&mut self.stream, buf)?;
        self.bytes += read as u64;
        Ok(read)
    }
}

/// The request bytes the server counts for one request: its start line
/// and body.
fn request_bytes(method: &str, path: &str, body: &[u8]) -> u64 {
    (format!("{method} {path} HTTP/1.1").len() + body.len()) as u64
}

/// Connections publish their telemetry once per pipelined batch, before
/// the batch's replies are written: once every reply has been read, each
/// request is counted, each stage histogram holds one sample per request,
/// and the request bytes are exact.  A client that closes and reads the
/// server's close has seen its last reply's bytes counted, so the
/// response bytes equal what the clients received at the socket.
#[test]
fn pipelined_bursts_from_two_connections_are_counted_exactly() {
    const BURSTS: usize = 50;
    const DEPTH: usize = 16;
    let (server, _registry) = boot_with_metrics();
    let addr = server.addr();
    let path = |i: usize| {
        if i.is_multiple_of(2) {
            "/v1/arrive"
        } else {
            "/v1/depart"
        }
    };
    let received: u64 = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .unwrap();
                    let mut socket = Counted {
                        stream: &stream,
                        bytes: 0,
                    };
                    let mut reader = MessageReader::new();
                    let mut start_line = || {
                        reader
                            .next_frame_with(&mut socket, &mut || false, |frame| {
                                frame.start_line.to_string()
                            })
                            .unwrap()
                    };
                    let mut burst = Vec::new();
                    for _ in 0..BURSTS {
                        burst.clear();
                        for i in 0..DEPTH {
                            http::append_request(&mut burst, "POST", path(i), b"");
                        }
                        (&stream).write_all(&burst).unwrap();
                        for _ in 0..DEPTH {
                            assert_eq!(start_line().as_deref(), Some("HTTP/1.1 200 OK"));
                        }
                    }
                    // The server closes once it reads ours, after its last
                    // write has been counted.
                    stream.shutdown(Shutdown::Write).unwrap();
                    assert_eq!(start_line(), None);
                    socket.bytes
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).sum()
    });
    let sent = (2 * BURSTS * DEPTH) as u64;

    let mut client = HttpClient::connect(addr).unwrap();
    let text = client.request_ok("GET", "/v1/metrics", b"").unwrap();
    let requests = |endpoint: &str| {
        sample(
            &text,
            &format!("rls_serve_requests_total{{endpoint=\"{endpoint}\"}}"),
        )
    };
    assert_eq!(requests("arrive"), sent / 2);
    assert_eq!(requests("depart"), sent / 2);
    let stage = |stage: &str| {
        sample(
            &text,
            &format!("rls_serve_stage_ns_count{{stage=\"{stage}\"}}"),
        )
    };
    // The scrape's own frame is parsed before it renders.
    assert_eq!(stage("parse"), sent + 1);
    assert_eq!(stage("queue"), sent);
    assert_eq!(stage("apply"), sent);
    assert_eq!(sample(&text, "rls_engine_arrivals_total"), sent / 2);
    assert_eq!(sample(&text, "rls_engine_departures_total"), sent / 2);
    // The scrape's own request is counted before it renders; its reply
    // is counted only once written.
    let bursts =
        (sent / 2) * (request_bytes("POST", path(0), b"") + request_bytes("POST", path(1), b""));
    assert_eq!(
        sample(&text, "rls_serve_request_bytes_total"),
        bursts + request_bytes("GET", "/v1/metrics", b"")
    );
    assert_eq!(sample(&text, "rls_serve_response_bytes_total"), received);
    server.shutdown();
}

#[test]
fn flight_recorder_exposes_recent_commands() {
    let (server, _registry) = boot_with_metrics();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    drive_traffic(&mut client);

    let text = client.request_ok("GET", "/v1/debug/flight", b"").unwrap();
    let value = serde_json::parse_value(&text).expect("flight dump is valid JSON");
    let obj = value.as_object().expect("flight dump is an object");
    let events = obj
        .get("events")
        .and_then(|v| v.as_array())
        .expect("events array");
    assert!(!events.is_empty(), "no flight events after traffic: {text}");
    // Sequence numbers are strictly increasing (the ring is coherent).
    let seqs: Vec<u64> = events
        .iter()
        .map(|e| {
            e.as_object()
                .and_then(|o| o.get("seq"))
                .and_then(|v| v.as_u64())
                .expect("seq field")
        })
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");

    server.shutdown();
}

#[test]
fn metrics_endpoints_404_without_telemetry() {
    // A server booted without `attach_metrics` serves the API but has no
    // telemetry to expose — the endpoints must answer 404, not hang or
    // fabricate an empty registry.
    let initial = Config::uniform(8, 4).unwrap();
    let params =
        LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 8, 32).unwrap();
    let engine = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
    let core = ServeCore::new(
        engine,
        1,
        0.0,
        ServePolicy {
            rings_per_arrival: 0.0,
        },
    );
    let server = serve(core, &ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (status, _) = client.request("GET", "/v1/metrics", b"").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("GET", "/v1/debug/flight", b"").unwrap();
    assert_eq!(status, 404);
    // The rest of the API is unaffected.
    client.request_ok("POST", "/v1/arrive", b"").unwrap();
    server.shutdown();
}
