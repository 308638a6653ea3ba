//! Frontend conformance: every edge of the HTTP surface, asserted against
//! BOTH frontends with the same inputs.
//!
//! The worker pool and the event loop share one parser
//! (`http::parse_frame`) and one router, so these semantics *should* be
//! identical by construction — this suite is the behavioral backstop that
//! keeps them identical as either frontend evolves.  Every test loops over
//! `[Frontend::WorkerPool, Frontend::EventLoop]` and tags its assertions
//! with the frontend under test.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rls_core::{Config, RlsRule};
use rls_live::{LiveEngine, LiveParams};
use rls_obs::Registry;
use rls_serve::{serve, Frontend, HttpClient, HttpServer, ServeCore, ServePolicy, ServerConfig};
use rls_workloads::ArrivalProcess;

const FRONTENDS: [Frontend; 2] = [Frontend::WorkerPool, Frontend::EventLoop];

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

fn boot(seed: u64, frontend: Frontend) -> HttpServer {
    serve(
        make_core(seed),
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            frontend,
        },
    )
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
fn status_semantics_match_on_both_frontends() {
    for frontend in FRONTENDS {
        let server = boot(7, frontend);
        let mut client = HttpClient::connect(server.addr()).unwrap();

        // The happy paths answer 200 with the expected JSON shape.
        let body = client.request_ok("GET", "/healthz", b"").unwrap();
        assert!(body.contains("\"ok\""), "{frontend}: {body}");
        let body = client.request_ok("POST", "/v1/arrive", b"").unwrap();
        assert!(body.contains("\"bin\""), "{frontend}: {body}");
        // Path-param depart routes on both frontends.
        let body = client.request_ok("POST", "/v1/depart/0", b"").unwrap();
        assert!(body.contains("\"bin\":0"), "{frontend}: {body}");

        // The error statuses: wrong method, unknown route, bad JSON, bad
        // bin, bad path parameter.
        let (status, _) = client.request("PUT", "/v1/stats", b"").unwrap();
        assert_eq!(status, 405, "{frontend}");
        let (status, _) = client.request("GET", "/nope", b"").unwrap();
        assert_eq!(status, 404, "{frontend}");
        let (status, body) = client.request("POST", "/v1/arrive", b"not json").unwrap();
        assert_eq!(status, 400, "{frontend}");
        assert!(
            String::from_utf8_lossy(&body).contains("error"),
            "{frontend}"
        );
        let (status, _) = client
            .request("POST", "/v1/arrive", br#"{"bin": 99}"#)
            .unwrap();
        assert_eq!(status, 400, "{frontend}");
        let (status, _) = client.request("POST", "/v1/depart/x", b"").unwrap();
        assert_eq!(status, 400, "{frontend}");
        // The connection survived every error above.
        let body = client.request_ok("GET", "/healthz", b"").unwrap();
        assert!(body.contains("\"ok\""), "{frontend}: {body}");

        server.shutdown();
    }
}

#[test]
fn oversized_declared_body_gets_a_413_and_close() {
    for frontend in FRONTENDS {
        let server = boot(8, frontend);
        let mut stream = raw_socket(&server);
        // Claim a body far over the 64 MB cap: rejected from the head
        // alone (no body bytes ever sent), 413 not 400, then hang up.
        stream
            .write_all(b"POST /v1/restore HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
            .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap(); // EOF = server closed
        let text = String::from_utf8_lossy(&raw);
        assert!(
            text.starts_with("HTTP/1.1 413 Payload Too Large"),
            "{frontend}: {text}"
        );
        assert!(text.contains("Connection: close"), "{frontend}: {text}");
        server.shutdown();
    }
}

#[test]
fn oversized_head_gets_a_413_and_close() {
    for frontend in FRONTENDS {
        let server = boot(9, frontend);
        let mut stream = raw_socket(&server);
        let big = format!(
            "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(17 * 1024)
        );
        // The peer may hang up while we are still writing padding; any
        // remaining bytes are moot once the 413 is on the wire.
        let _ = stream.write_all(big.as_bytes());
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(
            text.starts_with("HTTP/1.1 413 Payload Too Large"),
            "{frontend}: {text}"
        );
        server.shutdown();
    }
}

#[test]
fn bad_content_length_gets_a_400_and_close() {
    for frontend in FRONTENDS {
        let server = boot(10, frontend);
        let mut stream = raw_socket(&server);
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
            .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(
            text.starts_with("HTTP/1.1 400 Bad Request"),
            "{frontend}: {text}"
        );
        assert!(text.contains("Connection: close"), "{frontend}: {text}");
        server.shutdown();
    }
}

#[test]
fn bad_request_line_gets_a_400_and_keeps_the_connection() {
    for frontend in FRONTENDS {
        let server = boot(11, frontend);
        let mut stream = raw_socket(&server);
        // A syntactically framed message whose start line has no path:
        // routing (not framing) rejects it, so the connection survives.
        stream.write_all(b"BROKEN\r\n\r\n").unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(
            text.starts_with("HTTP/1.1 400 Bad Request"),
            "{frontend}: {text}"
        );
        assert!(text.contains("bad request line"), "{frontend}: {text}");
        assert!(text.contains("HTTP/1.1 200 OK"), "{frontend}: {text}");
        server.shutdown();
    }
}

#[test]
fn pipelined_close_labels_connection_per_message() {
    for frontend in FRONTENDS {
        let server = boot(12, frontend);
        let mut stream = raw_socket(&server);
        // Two pipelined requests; only the second asks to close.  The
        // first response must stay keep-alive (implicit — the HTTP/1.1
        // default, sent headerless), the second must announce `close`,
        // and the server must then hang up.
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
                  GET /v1/stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        let responses: Vec<&str> = text.split("HTTP/1.1 200 OK").collect();
        assert_eq!(responses.len(), 3, "{frontend}: expected two 200s: {text}");
        assert!(
            !responses[1].contains("Connection: close"),
            "{frontend}: first response mislabeled: {}",
            responses[1]
        );
        assert!(
            responses[2].contains("Connection: close"),
            "{frontend}: second response mislabeled: {}",
            responses[2]
        );
        server.shutdown();
    }
}

#[test]
fn requests_pipelined_behind_a_close_are_discarded() {
    for frontend in FRONTENDS {
        let server = boot(13, frontend);
        let mut stream = raw_socket(&server);
        // A third request rides behind the close: a conforming server
        // answers up to the close and never executes what follows.
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\n\r\n\
                  GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n\
                  POST /v1/arrive HTTP/1.1\r\n\r\n",
            )
            .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert_eq!(
            text.matches("HTTP/1.1 200 OK").count(),
            2,
            "{frontend}: {text}"
        );
        // The discarded arrival never reached the engine.
        let core = server.shutdown();
        assert_eq!(core.engine().counters().arrivals, 0, "{frontend}");
    }
}

#[test]
fn frames_split_across_writes_are_reassembled() {
    for frontend in FRONTENDS {
        let server = boot(14, frontend);
        let mut stream = raw_socket(&server);
        // One request dribbled out in four writes with pauses between
        // them; the server must buffer partial frames across reads.
        for chunk in [
            &b"POST /v1/arrive HTT"[..],
            b"P/1.1\r\nContent-Len",
            b"gth: 10\r\nConnection: close\r\n\r\n{\"bi",
            b"n\": 3}",
        ] {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{frontend}: {text}");
        assert!(text.contains("\"bin\":3"), "{frontend}: {text}");
        server.shutdown();
    }
}

#[test]
fn half_close_answers_buffered_frames_and_drops_partials() {
    for frontend in FRONTENDS {
        let server = boot(15, frontend);
        let mut stream = raw_socket(&server);
        // One complete frame plus the torso of a second, then half-close.
        // The complete frame is answered; the partial can never complete,
        // so the server drops it and hangs up.
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\n\r\n\
                  POST /v1/arrive HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"b",
            )
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert_eq!(
            text.matches("HTTP/1.1 200 OK").count(),
            1,
            "{frontend}: {text}"
        );
        let core = server.shutdown();
        assert_eq!(core.engine().counters().arrivals, 0, "{frontend}");
    }
}

#[test]
fn telemetry_endpoints_404_without_a_registry_and_serve_with_one() {
    for frontend in FRONTENDS {
        // Without an attached registry the telemetry routes do not exist.
        let server = boot(16, frontend);
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (status, _) = client.request("GET", "/v1/metrics", b"").unwrap();
        assert_eq!(status, 404, "{frontend}");
        let (status, _) = client.request("GET", "/v1/debug/flight", b"").unwrap();
        assert_eq!(status, 404, "{frontend}");
        server.shutdown();

        // With one, both answer locally with their own content types.
        let registry = Registry::new();
        let mut core = make_core(16);
        core.attach_metrics(&registry);
        let server = serve(
            core,
            &ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                frontend,
            },
        )
        .unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        client.request_ok("POST", "/v1/arrive", b"").unwrap();
        let metrics = client.request_ok("GET", "/v1/metrics", b"").unwrap();
        assert!(
            metrics.contains("serve_requests_total"),
            "{frontend}: {metrics}"
        );
        let flight = client.request_ok("GET", "/v1/debug/flight", b"").unwrap();
        assert!(flight.contains("\"events\""), "{frontend}: {flight}");
        server.shutdown();
    }
}
