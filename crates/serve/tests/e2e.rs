//! End-to-end tests: a real server on an ephemeral port, driven over real
//! sockets, cross-checked against an offline [`ServeCore`] with the same
//! seed — the HTTP layer must add nothing and lose nothing.

use rls_core::{Config, RlsRule};
use rls_live::{LiveEngine, LiveParams, Recorder, Snapshot, SteadyState};
use rls_rng::rng_from_seed;
use rls_serve::{
    core_from_log, replay_over_http, serve, ArriveReply, ArriveRequest, DepartReply, DepartRequest,
    Frontend, HealthReply, HttpClient, RingReply, ServeCore, ServePolicy, ServerConfig, StatsReply,
};
use rls_workloads::ArrivalProcess;

fn make_core(seed: u64, rings_per_arrival: f64) -> ServeCore {
    let initial = Config::uniform(16, 4).unwrap();
    let params =
        LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 16, 64).unwrap();
    let engine = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
    ServeCore::new(engine, seed, 0.0, ServePolicy { rings_per_arrival })
}

fn boot(core: ServeCore, workers: usize) -> rls_serve::HttpServer {
    boot_frontend(core, workers, Frontend::WorkerPool)
}

fn boot_frontend(core: ServeCore, workers: usize, frontend: Frontend) -> rls_serve::HttpServer {
    serve(
        core,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            frontend,
        },
    )
    .expect("ephemeral-port server boots")
}

#[test]
fn drives_the_full_api_over_real_sockets() {
    let server = boot(make_core(42, 0.0), 2);
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // healthz answers from the engine thread.
    let health: HealthReply =
        serde_json::from_str(&client.request_ok("GET", "/healthz", b"").unwrap()).unwrap();
    assert_eq!(health.status, "ok");
    assert_eq!((health.n, health.m), (16, 64));

    // Arrivals: sampled and pinned.
    let a: ArriveReply =
        serde_json::from_str(&client.request_ok("POST", "/v1/arrive", b"").unwrap()).unwrap();
    assert!(a.bin < 16);
    assert_eq!(a.m, 65);
    let a: ArriveReply = serde_json::from_str(
        &client
            .request_ok("POST", "/v1/arrive", br#"{"bin": 3, "rings": 2}"#)
            .unwrap(),
    )
    .unwrap();
    assert_eq!((a.bin, a.m, a.rings), (3, 66, 2));

    // Departures: by path and sampled.
    let d: DepartReply =
        serde_json::from_str(&client.request_ok("POST", "/v1/depart/3", b"").unwrap()).unwrap();
    assert_eq!((d.bin, d.m), (3, 65));
    let d: DepartReply =
        serde_json::from_str(&client.request_ok("POST", "/v1/depart", b"").unwrap()).unwrap();
    assert_eq!(d.m, 64);

    // An explicit ring.
    let r: RingReply = serde_json::from_str(
        &client
            .request_ok("POST", "/v1/ring", br#"{"source": 3, "dest": 5}"#)
            .unwrap(),
    )
    .unwrap();
    assert_eq!((r.source, r.dest), (3, 5));

    // Stats reflect everything applied so far.
    let stats: StatsReply =
        serde_json::from_str(&client.request_ok("GET", "/v1/stats", b"").unwrap()).unwrap();
    assert_eq!((stats.n, stats.m), (16, 64));
    assert_eq!(stats.counters.arrivals, 2);
    assert_eq!(stats.counters.departures, 2);
    assert_eq!(stats.counters.rings, 3);
    assert!(stats.summary.window > 0.0);

    // Error statuses over the wire.
    let (status, _) = client
        .request("POST", "/v1/arrive", br#"{"bin": 99}"#)
        .unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.request("GET", "/nope", b"").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("PUT", "/v1/stats", b"").unwrap();
    assert_eq!(status, 405);
    let (status, body) = client.request("POST", "/v1/arrive", b"not json").unwrap();
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("error"));

    let core = server.shutdown();
    assert_eq!(core.engine().config().m(), 64);
}

#[test]
fn http_stats_match_an_offline_core_with_the_same_seed() {
    // The server's engine thread and an offline core, both seeded 77,
    // receive the identical command sequence; every reply and the final
    // stats digest must agree exactly (same floats, same counters).
    let seed = 77;
    let server = boot(make_core(seed, 1.5), 3);
    let mut offline = make_core(seed, 1.5);
    let mut client = HttpClient::connect(server.addr()).unwrap();

    for i in 0..120u64 {
        let req = ArriveRequest {
            bin: (i % 5 == 0).then_some((i % 16) as usize),
            rings: (i % 7 == 0).then_some(i % 3),
            weight: None,
        };
        let body = serde_json::to_string(&req).unwrap();
        let over_http: ArriveReply = serde_json::from_str(
            &client
                .request_ok("POST", "/v1/arrive", body.as_bytes())
                .unwrap(),
        )
        .unwrap();
        assert_eq!(over_http, offline.arrive(&req).unwrap(), "arrival {i}");

        if i % 3 == 0 {
            let req = DepartRequest { bin: None };
            let over_http: DepartReply =
                serde_json::from_str(&client.request_ok("POST", "/v1/depart", b"").unwrap())
                    .unwrap();
            assert_eq!(over_http, offline.depart(&req).unwrap(), "departure {i}");
        }
    }

    let over_http: StatsReply =
        serde_json::from_str(&client.request_ok("GET", "/v1/stats", b"").unwrap()).unwrap();
    let expected = offline.stats();
    assert_eq!(over_http, expected);
    assert_eq!(
        over_http.summary.mean_gap.to_bits(),
        expected.summary.mean_gap.to_bits(),
        "stats must agree to the bit"
    );
    server.shutdown();
}

#[test]
fn snapshot_restore_round_trips_over_the_wire() {
    let server = boot(make_core(5, 1.0), 2);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for _ in 0..40 {
        client.request_ok("POST", "/v1/arrive", b"").unwrap();
    }
    let snapshot_json = client.request_ok("GET", "/v1/snapshot", b"").unwrap();
    let snapshot = Snapshot::from_json(&snapshot_json).unwrap();

    // Restore onto a second server with a different seed and history; it
    // must continue exactly like the first one.
    let other = boot(make_core(1234, 1.0), 2);
    let mut other_client = HttpClient::connect(other.addr()).unwrap();
    for _ in 0..7 {
        other_client.request_ok("POST", "/v1/arrive", b"").unwrap();
    }
    let restored: rls_serve::RestoreReply = serde_json::from_str(
        &other_client
            .request_ok("POST", "/v1/restore", snapshot_json.as_bytes())
            .unwrap(),
    )
    .unwrap();
    assert_eq!(restored.m, snapshot.loads.iter().sum::<u64>());

    for i in 0..25 {
        let a = client.request_ok("POST", "/v1/arrive", b"").unwrap();
        let b = other_client.request_ok("POST", "/v1/arrive", b"").unwrap();
        assert_eq!(a, b, "diverged at post-restore arrival {i}");
    }

    // Restoring garbage is rejected without killing the connection.
    let (status, _) = other_client.request("POST", "/v1/restore", b"{}").unwrap();
    assert_eq!(status, 400);
    other_client.request_ok("GET", "/healthz", b"").unwrap();

    server.shutdown();
    other.shutdown();
}

#[test]
fn trace_replay_through_http_matches_offline_replay() {
    // Record a genuine live run (arrivals, departures, rings), then push
    // it through the HTTP path and require the exact offline load vector.
    let initial = Config::uniform(12, 6).unwrap();
    let params =
        LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 12, 72).unwrap();
    let mut engine = LiveEngine::new(initial.clone(), params, RlsRule::paper()).unwrap();
    let mut observer = (Recorder::new(), SteadyState::new(0.0));
    engine.run_until(6.0, &mut rng_from_seed(9), &mut observer);
    let (recorder, steady) = observer;
    let log = rls_live::EventLog {
        header: rls_live::LogHeader {
            n: initial.n(),
            initial_loads: initial.loads().to_vec(),
            rule: RlsRule::paper(),
            policy: None,
            topology: None,
            graph_seed: None,
            warmup: 0.0,
            description: "e2e trace".to_string(),
        },
        events: recorder.into_events(),
        footer: rls_live::LogFooter {
            time: engine.time(),
            final_loads: engine.config().loads().to_vec(),
            summary: steady.finish(engine.time()),
        },
    };
    assert!(log.events.len() > 100, "trace too small to be interesting");

    let server = boot(core_from_log(&log, 0).unwrap(), 2);
    let outcome = replay_over_http(server.addr(), &log).unwrap();
    assert!(outcome.loads_match, "served loads diverge: {outcome:?}");
    assert!(outcome.moved_match, "ring decisions diverge");
    assert!(outcome.is_faithful());
    assert_eq!(outcome.final_loads, log.footer.final_loads);
    server.shutdown();
}

#[test]
fn concurrent_clients_are_all_served() {
    let server = boot(make_core(11, 1.0), 4);
    let addr = server.addr();
    let per_client = 50u64;
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for _ in 0..per_client {
                    client.request_ok("POST", "/v1/arrive", b"").unwrap();
                }
            });
        }
    });
    let mut client = HttpClient::connect(addr).unwrap();
    let stats: StatsReply =
        serde_json::from_str(&client.request_ok("GET", "/v1/stats", b"").unwrap()).unwrap();
    assert_eq!(stats.counters.arrivals, 4 * per_client);
    assert_eq!(stats.m, 64 + 4 * per_client);
    let core = server.shutdown();
    assert_eq!(core.engine().counters().arrivals, 4 * per_client);
}

#[test]
fn pipelined_burst_labels_connection_per_message() {
    use std::io::{Read, Write};

    let server = boot(make_core(21, 0.0), 2);
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();

    // Two pipelined requests; only the second asks to close.  The first
    // response must stay keep-alive — implicit, the HTTP/1.1 default (a
    // `close` label would make a conforming peer discard the second
    // response) — the second must announce `close`, and the server must
    // then hang up.
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /v1/stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap(); // EOF = server closed
    let text = String::from_utf8_lossy(&raw);
    let responses: Vec<&str> = text.split("HTTP/1.1 200 OK").collect();
    assert_eq!(responses.len(), 3, "expected two 200s: {text}");
    assert!(
        !responses[1].contains("Connection: close"),
        "first response mislabeled: {}",
        responses[1]
    );
    assert!(
        responses[2].contains("Connection: close"),
        "second response mislabeled: {}",
        responses[2]
    );
    server.shutdown();
}

#[test]
fn oversized_payloads_get_a_413() {
    use std::io::{Read, Write};

    let server = boot(make_core(22, 0.0), 2);
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    // Claim a body far over the 64 MB cap; the server must reject the
    // framing with 413 (not a generic 400) and close.
    stream
        .write_all(b"POST /v1/restore HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 413 Payload Too Large"), "{text}");
    server.shutdown();
}

/// A greedy-2 core on a 4×4 torus (the acceptance scenario of the
/// policy/topology refactor).
fn policy_core(seed: u64, rings_per_arrival: f64) -> ServeCore {
    use rls_core::RebalancePolicy;
    use rls_graph::Topology;

    let initial = Config::uniform(16, 4).unwrap();
    let params =
        LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 16, 64).unwrap();
    let engine = LiveEngine::with_policy(
        initial,
        params,
        RebalancePolicy::GreedyD { d: 2 },
        Topology::Torus2D,
        0xBEEF,
    )
    .unwrap();
    ServeCore::new(engine, seed, 0.0, ServePolicy { rings_per_arrival })
}

#[test]
fn greedy_on_torus_serves_end_to_end_bit_equal_to_offline() {
    // `serve run --policy greedy-2 --topology torus`, end to end: the
    // HTTP server and an offline core with the same seed must agree on
    // every reply and the final stats digest — including the echoed boot
    // identity.
    let seed = 0xE22;
    let server = boot(policy_core(seed, 2.0), 3);
    let mut offline = policy_core(seed, 2.0);
    let mut client = HttpClient::connect(server.addr()).unwrap();

    for i in 0..150u64 {
        let req = ArriveRequest {
            bin: (i % 4 == 0).then_some((i % 16) as usize),
            rings: None,
            weight: None,
        };
        let body = serde_json::to_string(&req).unwrap();
        let over_http: ArriveReply = serde_json::from_str(
            &client
                .request_ok("POST", "/v1/arrive", body.as_bytes())
                .unwrap(),
        )
        .unwrap();
        assert_eq!(over_http, offline.arrive(&req).unwrap(), "arrival {i}");
        if i % 3 == 0 {
            let over_http: DepartReply =
                serde_json::from_str(&client.request_ok("POST", "/v1/depart", b"").unwrap())
                    .unwrap();
            assert_eq!(
                over_http,
                offline.depart(&DepartRequest { bin: None }).unwrap(),
                "departure {i}"
            );
        }
    }

    let over_http: StatsReply =
        serde_json::from_str(&client.request_ok("GET", "/v1/stats", b"").unwrap()).unwrap();
    let expected = offline.stats();
    assert_eq!(over_http, expected);
    assert_eq!(over_http.identity.policy, "greedy-2");
    assert_eq!(over_http.identity.topology, "torus");
    assert_eq!(over_http.identity.seed, seed);
    assert_eq!(over_http.identity.snapshot_version, 5);

    // Pinned rings respect the torus adjacency over the wire: bins 0 and
    // 5 are diagonal neighbours-of-neighbours, not adjacent.
    let (status, body) = client
        .request("POST", "/v1/ring", br#"{"source": 0, "dest": 5}"#)
        .unwrap();
    assert_eq!(status, 409, "{}", String::from_utf8_lossy(&body));
    // 0 and 1 share a torus edge.
    let r: RingReply = serde_json::from_str(
        &client
            .request_ok("POST", "/v1/ring", br#"{"source": 0, "dest": 1}"#)
            .unwrap(),
    )
    .unwrap();
    assert_eq!((r.source, r.dest), (0, 1));

    server.shutdown();
}

#[test]
fn snapshot_v5_round_trips_across_policy_servers() {
    // A snapshot taken from a greedy-2/torus server restores onto a
    // second server (booted with a different seed and policy history) and
    // both continue bit-identically: the snapshot carries policy,
    // topology and graph seed.
    let server = boot(policy_core(5, 1.0), 2);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for _ in 0..60 {
        client.request_ok("POST", "/v1/arrive", b"").unwrap();
    }
    let snapshot_json = client.request_ok("GET", "/v1/snapshot", b"").unwrap();
    let snapshot = Snapshot::from_json(&snapshot_json).unwrap();
    assert_eq!(snapshot.version, 5);
    assert_eq!(snapshot.topology.to_string(), "torus");

    let other = boot(policy_core(999, 1.0), 2);
    let mut other_client = HttpClient::connect(other.addr()).unwrap();
    other_client
        .request_ok("POST", "/v1/restore", snapshot_json.as_bytes())
        .unwrap();

    for i in 0..30 {
        let a = client.request_ok("POST", "/v1/arrive", b"").unwrap();
        let b = other_client.request_ok("POST", "/v1/arrive", b"").unwrap();
        assert_eq!(a, b, "diverged at post-restore arrival {i}");
    }
    // The restored server's identity reflects the snapshot's engine.
    let stats: StatsReply =
        serde_json::from_str(&other_client.request_ok("GET", "/v1/stats", b"").unwrap()).unwrap();
    assert_eq!(stats.identity.policy, "greedy-2");
    assert_eq!(stats.identity.topology, "torus");

    // A v2-shaped snapshot is rejected with the migration error.
    let v2 = br#"{"version": 2, "time": 0.0, "seq": 0, "loads": [1, 1],
        "params": {"arrivals": {"Poisson": {"rate_per_bin": 1.0}}, "service_rate": 0.0},
        "rule": {"variant": "Geq"},
        "counters": {"arrivals": 0, "departures": 0, "rings": 0, "migrations": 0, "events": 0},
        "rng_state": [1, 2, 3, 4]}"#;
    let (status, body) = other_client.request("POST", "/v1/restore", v2).unwrap();
    assert_eq!(status, 400);
    assert!(
        String::from_utf8_lossy(&body).contains("legacy v2"),
        "{}",
        String::from_utf8_lossy(&body)
    );

    server.shutdown();
    other.shutdown();
}

/// An RLS core with uniform-int ball weights and a 2-speed-class profile
/// (the `serve run --weights uniform:1:8 --speeds …` scenario).
fn weighted_core(seed: u64, rings_per_arrival: f64) -> ServeCore {
    use rls_core::RebalancePolicy;
    use rls_graph::Topology;
    use rls_workloads::WeightDist;

    let initial = Config::uniform(16, 4).unwrap();
    let params =
        LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 16, 64).unwrap();
    let speeds: Vec<u64> = (0..16).map(|b| if b % 4 == 0 { 4 } else { 1 }).collect();
    let engine = LiveEngine::with_hetero(
        initial,
        params,
        RebalancePolicy::rls(),
        Topology::Complete,
        0xFEED,
        WeightDist::UniformInt { lo: 1, hi: 8 },
        speeds,
        &mut rng_from_seed(seed ^ 0x4E16),
    )
    .unwrap();
    ServeCore::new(engine, seed, 0.0, ServePolicy { rings_per_arrival })
}

#[test]
fn weighted_arrivals_over_http_are_bit_equal_to_an_offline_core() {
    // Sampled and pinned weights through the HTTP layer against an
    // offline core with the same seed: every echoed weight, every load
    // move and the final stats digest (including the certified optimality
    // gap) must agree to the bit.
    let seed = 0xE23;
    let server = boot(weighted_core(seed, 1.5), 3);
    let mut offline = weighted_core(seed, 1.5);
    let mut client = HttpClient::connect(server.addr()).unwrap();

    for i in 0..120u64 {
        let req = ArriveRequest {
            bin: (i % 4 == 0).then_some((i % 16) as usize),
            rings: (i % 7 == 0).then_some(i % 3),
            weight: (i % 5 == 0).then_some(1 + i % 8),
        };
        let body = serde_json::to_string(&req).unwrap();
        let over_http: ArriveReply = serde_json::from_str(
            &client
                .request_ok("POST", "/v1/arrive", body.as_bytes())
                .unwrap(),
        )
        .unwrap();
        let expected = offline.arrive(&req).unwrap();
        assert_eq!(over_http, expected, "arrival {i}");
        // Weighted servers echo a weight on every arrival — the pinned
        // one verbatim, a drawn one otherwise.
        match req.weight {
            Some(w) => assert_eq!(over_http.weight, Some(w), "arrival {i}"),
            None => assert!(over_http.weight.is_some(), "arrival {i}"),
        }
        if i % 3 == 0 {
            let over_http: DepartReply =
                serde_json::from_str(&client.request_ok("POST", "/v1/depart", b"").unwrap())
                    .unwrap();
            assert_eq!(
                over_http,
                offline.depart(&DepartRequest { bin: None }).unwrap(),
                "departure {i}"
            );
        }
    }

    let over_http: StatsReply =
        serde_json::from_str(&client.request_ok("GET", "/v1/stats", b"").unwrap()).unwrap();
    let expected = offline.stats();
    assert_eq!(over_http, expected);
    let hetero = over_http.hetero.as_ref().expect("weighted server");
    let expected_hetero = expected.hetero.as_ref().unwrap();
    assert_eq!(
        hetero.certified_gap.to_bits(),
        expected_hetero.certified_gap.to_bits(),
        "certified gap must agree to the bit"
    );
    assert!(hetero.opt_lower <= hetero.norm_max);
    assert!(hetero.norm_p50 <= hetero.norm_p99);
    assert!(hetero.norm_p99 <= hetero.norm_max);
    assert_eq!(over_http.identity.weights, "uniform:1:8");
    assert!(
        over_http.identity.speeds.starts_with("mixed"),
        "speed digest: {}",
        over_http.identity.speeds
    );

    server.shutdown();
}

#[test]
fn snapshot_v5_preserves_weights_and_speeds_across_servers() {
    // A snapshot of a weighted server carries the heterogeneity section;
    // restoring it onto a second server reproduces the weighted
    // trajectory bit-for-bit and the restored server reports the same
    // heterogeneity digest.
    let server = boot(weighted_core(5, 1.0), 2);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for _ in 0..60 {
        client.request_ok("POST", "/v1/arrive", b"").unwrap();
    }
    let snapshot_json = client.request_ok("GET", "/v1/snapshot", b"").unwrap();
    let snapshot = Snapshot::from_json(&snapshot_json).unwrap();
    assert_eq!(snapshot.version, 5);
    let hetero = snapshot.hetero.as_ref().expect("weighted snapshot");
    assert_eq!(hetero.speeds.len(), 16);
    assert!(
        hetero.balls.is_some(),
        "uniform:1:8 stores per-ball weights"
    );

    // The restore target was booted with a different seed *and* a
    // different heterogeneity shape — the snapshot overrides all of it.
    let other = boot(weighted_core(999, 1.0), 2);
    let mut other_client = HttpClient::connect(other.addr()).unwrap();
    for _ in 0..9 {
        other_client.request_ok("POST", "/v1/arrive", b"").unwrap();
    }
    other_client
        .request_ok("POST", "/v1/restore", snapshot_json.as_bytes())
        .unwrap();

    for i in 0..30 {
        let a = client.request_ok("POST", "/v1/arrive", b"").unwrap();
        let b = other_client.request_ok("POST", "/v1/arrive", b"").unwrap();
        assert_eq!(a, b, "diverged at post-restore arrival {i}");
    }
    let stats_a: StatsReply =
        serde_json::from_str(&client.request_ok("GET", "/v1/stats", b"").unwrap()).unwrap();
    let stats_b: StatsReply =
        serde_json::from_str(&other_client.request_ok("GET", "/v1/stats", b"").unwrap()).unwrap();
    assert_eq!(stats_a.hetero, stats_b.hetero, "hetero digests diverged");
    assert!(stats_b.hetero.is_some());
    assert_eq!(stats_a.m, stats_b.m);
    assert_eq!(stats_b.identity.weights, "uniform:1:8");
    assert_eq!(stats_b.identity.speeds, stats_a.identity.speeds);

    // A v3-shaped snapshot (pre-heterogeneity) is rejected over the wire
    // with the migration error, and the server stays healthy.
    let v3 = br#"{
        "version": 3, "time": 3.5, "seq": 10,
        "loads": [2, 1],
        "params": {"arrivals": {"Poisson": {"rate_per_bin": 1.0}}, "service_rate": 0.5},
        "policy": {"Rls": {"variant": "Geq"}},
        "topology": "Complete",
        "graph_seed": 0,
        "counters": {"arrivals": 0, "departures": 0, "rings": 10, "migrations": 2, "events": 10},
        "rng_state": [1, 2, 3, 4]
    }"#;
    let (status, body) = other_client.request("POST", "/v1/restore", v3).unwrap();
    assert_eq!(status, 400);
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("legacy v3"), "{text}");
    assert!(text.contains("re-record"), "{text}");
    other_client.request_ok("GET", "/healthz", b"").unwrap();

    server.shutdown();
    other.shutdown();
}

#[test]
fn elastic_admin_endpoints_scale_the_live_set() {
    use rls_serve::{AddBinReply, DrainBinReply};

    let server = boot(make_core(314, 1.0), 2);
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // Boot state: never scaled, epoch 0, all 16 bins live.
    let stats: StatsReply =
        serde_json::from_str(&client.request_ok("GET", "/v1/stats", b"").unwrap()).unwrap();
    assert_eq!(stats.elastic.epoch, 0);
    assert_eq!(stats.elastic.live_bins, 16);
    assert_eq!(stats.elastic.capacity, 16);
    assert_eq!(stats.elastic.reconvergence.scale_events, 0);

    // A warm join: the newcomer takes id 16 and ⌊m/17⌋ stolen balls.
    let add: AddBinReply = serde_json::from_str(
        &client
            .request_ok("POST", "/v1/bins/add", br#"{"warm": true}"#)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(add.bin, 16);
    assert_eq!(add.live_bins, 17);
    assert_eq!(add.epoch, 1);
    assert_eq!(add.warmed, 64 / 17);
    assert_eq!(add.m, 64, "joins conserve balls");

    // Drain the newcomer again (pinned victim).
    let drain: DrainBinReply = serde_json::from_str(
        &client
            .request_ok("POST", "/v1/bins/drain", br#"{"bin": 16}"#)
            .unwrap(),
    )
    .unwrap();
    assert_eq!(drain.bin, 16);
    assert_eq!(drain.live_bins, 16);
    assert_eq!(drain.epoch, 2);
    assert_eq!(drain.relocated, add.warmed);
    assert_eq!(drain.m, 64, "drains conserve balls");

    // A retired id is gone for good: draining or addressing it conflicts.
    let (status, _) = client
        .request("POST", "/v1/bins/drain", br#"{"bin": 16}"#)
        .unwrap();
    assert_eq!(status, 409, "retired bins cannot be drained again");
    let (status, _) = client
        .request("POST", "/v1/arrive", br#"{"bin": 16}"#)
        .unwrap();
    assert_eq!(status, 409, "retired bins accept no arrivals");

    // Stats carry the epoch log summary and the re-convergence digest.
    let stats: StatsReply =
        serde_json::from_str(&client.request_ok("GET", "/v1/stats", b"").unwrap()).unwrap();
    assert_eq!(stats.elastic.epoch, 2);
    assert_eq!(stats.elastic.live_bins, 16);
    assert_eq!(stats.elastic.capacity, 17, "retired ids stay allocated");
    assert_eq!((stats.elastic.joins, stats.elastic.drains), (1, 1));
    assert_eq!(stats.elastic.reconvergence.scale_events, 2);

    // Run arrivals + rings until the disturbance settles; the observer
    // resolves the outstanding episodes as the gap closes.
    for _ in 0..200 {
        client.request_ok("POST", "/v1/arrive", b"").unwrap();
        client.request_ok("POST", "/v1/depart", b"").unwrap();
    }
    let stats: StatsReply =
        serde_json::from_str(&client.request_ok("GET", "/v1/stats", b"").unwrap()).unwrap();
    assert!(
        stats.elastic.reconvergence.reconverged >= 1,
        "at least one scale event re-converged: {:?}",
        stats.elastic.reconvergence
    );

    // The snapshot taken mid-elastic-life round-trips through restore.
    let snapshot_json = client.request_ok("GET", "/v1/snapshot", b"").unwrap();
    let snapshot = Snapshot::from_json(&snapshot_json).unwrap();
    assert_eq!(snapshot.version, 5);
    assert_eq!(snapshot.membership.log.len(), 2);
    let (status, _) = client
        .request("POST", "/v1/restore", snapshot_json.as_bytes())
        .unwrap();
    assert_eq!(status, 200);
    let stats: StatsReply =
        serde_json::from_str(&client.request_ok("GET", "/v1/stats", b"").unwrap()).unwrap();
    assert_eq!(stats.elastic.epoch, 2, "epoch survives the round trip");
    assert_eq!(stats.elastic.live_bins, 16);

    server.shutdown();
}

#[test]
fn elastic_drain_round_trips_bit_exactly_across_servers() {
    // Scale events mid-run, snapshot, restore into a second server, then
    // drive both with the same commands: bit-identical replies throughout.
    let server_a = boot(make_core(2718, 1.0), 2);
    let mut a = HttpClient::connect(server_a.addr()).unwrap();
    for _ in 0..40 {
        a.request_ok("POST", "/v1/arrive", b"").unwrap();
    }
    a.request_ok("POST", "/v1/bins/add", br#"{"warm": true}"#)
        .unwrap();
    for _ in 0..20 {
        a.request_ok("POST", "/v1/arrive", b"").unwrap();
    }
    a.request_ok("POST", "/v1/bins/drain", b"").unwrap();
    let snapshot_json = a.request_ok("GET", "/v1/snapshot", b"").unwrap();

    let server_b = boot(make_core(999, 1.0), 2);
    let mut b = HttpClient::connect(server_b.addr()).unwrap();
    let (status, _) = b
        .request("POST", "/v1/restore", snapshot_json.as_bytes())
        .unwrap();
    assert_eq!(status, 200);

    for i in 0..60u64 {
        let (ra, rb) = if i % 9 == 0 {
            (
                a.request_ok("POST", "/v1/bins/add", b"").unwrap(),
                b.request_ok("POST", "/v1/bins/add", b"").unwrap(),
            )
        } else {
            (
                a.request_ok("POST", "/v1/arrive", b"").unwrap(),
                b.request_ok("POST", "/v1/arrive", b"").unwrap(),
            )
        };
        assert_eq!(ra, rb, "command {i} diverged after restore");
    }
    assert_eq!(
        a.request_ok("GET", "/v1/snapshot", b"").unwrap(),
        b.request_ok("GET", "/v1/snapshot", b"").unwrap(),
        "snapshots diverged after identical post-restore drives"
    );
    server_a.shutdown();
    server_b.shutdown();
}

#[test]
fn weighted_percentiles_range_over_the_live_set_after_drains() {
    // Regression for a dense-bin-id assumption: the heterogeneity digest
    // used to iterate `0..n` over the *capacity*, so every retired slot
    // contributed a phantom normalized load of 0 (deflating p50 to zero
    // once half the ids were retired) and its orphaned speed entered the
    // makespan bound.  Percentiles and the optimality interval must range
    // over live bins only.
    use rls_serve::DrainBinRequest;

    let mut core = weighted_core(0xD15E, 0.0);
    for _ in 0..80 {
        core.arrive(&ArriveRequest::default()).unwrap();
    }
    // Retire 10 of the 16 bins: more than half the ids are now holes.
    for bin in 6..16usize {
        let reply = core.drain_bin(&DrainBinRequest { bin: Some(bin) }).unwrap();
        assert_eq!(reply.bin, bin);
    }
    let stats = core.stats();
    assert_eq!(stats.elastic.live_bins, 6);
    assert_eq!(stats.elastic.capacity, 16);
    assert_eq!(stats.elastic.drains, 10);

    // All balls sit on the 6 live bins, so every live normalized load is
    // positive — a capacity-wide percentile would report p50 = 0 here.
    let hetero = stats.hetero.as_ref().expect("weighted server");
    assert!(
        hetero.norm_p50 > 0.0,
        "p50 collapsed to a retired slot: {hetero:?}"
    );
    assert!(hetero.norm_p50 <= hetero.norm_p99);
    assert!(hetero.norm_p99 <= hetero.norm_max);
    // The certified interval is over the live machines: a bound computed
    // with the 10 retired speed entries would undercut the true optimum.
    assert!(hetero.opt_lower <= hetero.norm_max);
    assert!(hetero.opt_lower <= hetero.opt_upper);
    let live_speed: u64 = (0..6u64).map(|b| if b % 4 == 0 { 4 } else { 1 }).sum();
    assert!(
        hetero.opt_lower >= hetero.total_weight as f64 / live_speed as f64 / 2.0,
        "bound too weak to have come from the live speeds: {hetero:?}"
    );
}

/// Both frontends and an offline core, all seeded alike, fed the same
/// pipelined command trace: every reply must agree byte for byte, and the
/// final stats digest and load vector to the bit.  This is the acceptance
/// test for the event-loop frontend: batching happens at command
/// granularity, never inside the RNG stream, so how requests reach the
/// engine can never show up in the trajectory.
#[test]
fn both_frontends_are_bit_equal_to_an_offline_core() {
    let seed = 314;
    let wp = boot_frontend(make_core(seed, 1.5), 2, Frontend::WorkerPool);
    let el = boot_frontend(make_core(seed, 1.5), 2, Frontend::EventLoop);
    let mut offline = make_core(seed, 1.5);
    let mut wp_client = HttpClient::connect(wp.addr()).unwrap();
    let mut el_client = HttpClient::connect(el.addr()).unwrap();

    // 15 bursts of 6 pipelined requests: both servers coalesce each burst
    // into one engine batch, the offline core applies them one by one.
    let request = |i: u64| -> (&'static str, &'static str, String) {
        match i % 6 {
            0 => ("POST", "/v1/arrive", String::new()),
            1 => (
                "POST",
                "/v1/arrive",
                format!(r#"{{"bin": {}, "rings": {}}}"#, i % 16, i % 3),
            ),
            2 => ("POST", "/v1/depart", String::new()),
            3 => ("POST", "/v1/ring", String::new()),
            4 => ("GET", "/v1/stats", String::new()),
            _ => ("POST", "/v1/depart/5", String::new()),
        }
    };
    for burst in 0..15u64 {
        for i in burst * 6..(burst + 1) * 6 {
            let (method, path, body) = request(i);
            wp_client.send(method, path, body.as_bytes()).unwrap();
            el_client.send(method, path, body.as_bytes()).unwrap();
        }
        for i in burst * 6..(burst + 1) * 6 {
            let (wp_status, wp_body) = wp_client.recv().unwrap();
            let (el_status, el_body) = el_client.recv().unwrap();
            assert_eq!(wp_status, el_status, "request {i}");
            assert_eq!(
                String::from_utf8_lossy(&wp_body),
                String::from_utf8_lossy(&el_body),
                "request {i}: frontends disagree"
            );
            // The offline core answers the same request from plain Rust;
            // rejected commands (e.g. a 409 departure from an empty bin)
            // must round-trip identically too.
            let (method, path, body) = request(i);
            let offline_reply = match (method, path) {
                ("POST", "/v1/arrive") => {
                    let req: ArriveRequest = if body.is_empty() {
                        ArriveRequest::default()
                    } else {
                        serde_json::from_str(&body).unwrap()
                    };
                    offline
                        .arrive(&req)
                        .map(|r| serde_json::to_string(&r).unwrap())
                }
                ("POST", "/v1/depart") => offline
                    .depart(&DepartRequest::default())
                    .map(|r| serde_json::to_string(&r).unwrap()),
                ("POST", "/v1/depart/5") => offline
                    .depart(&DepartRequest { bin: Some(5) })
                    .map(|r| serde_json::to_string(&r).unwrap()),
                ("POST", "/v1/ring") => offline
                    .ring(&Default::default())
                    .map(|r| serde_json::to_string(&r).unwrap()),
                _ => Ok(serde_json::to_string(&offline.stats()).unwrap()),
            };
            let (offline_status, offline_body) = match offline_reply {
                Ok(body) => (200, body),
                Err(e) => (
                    e.status,
                    format!(
                        r#"{{"error":{}}}"#,
                        serde_json::to_string(&e.message).unwrap()
                    ),
                ),
            };
            assert_eq!(wp_status, offline_status, "request {i}");
            assert_eq!(
                String::from_utf8_lossy(&wp_body),
                offline_body,
                "request {i}: HTTP path diverged from offline"
            );
        }
    }

    // Final digest: identical bits across all three.
    let wp_stats: StatsReply =
        serde_json::from_str(&wp_client.request_ok("GET", "/v1/stats", b"").unwrap()).unwrap();
    let el_stats: StatsReply =
        serde_json::from_str(&el_client.request_ok("GET", "/v1/stats", b"").unwrap()).unwrap();
    let expected = offline.stats();
    assert_eq!(wp_stats, expected);
    assert_eq!(el_stats, expected);
    for (got, want) in [
        (wp_stats.summary.mean_gap, expected.summary.mean_gap),
        (el_stats.summary.mean_gap, expected.summary.mean_gap),
        (wp_stats.time, expected.time),
        (el_stats.time, expected.time),
    ] {
        assert_eq!(got.to_bits(), want.to_bits(), "stats must agree to the bit");
    }
    assert_eq!(wp_stats.identity, expected.identity);
    assert_eq!(el_stats.identity, expected.identity);

    // And the final load vectors inside the recovered cores.
    let wp_core = wp.shutdown();
    let el_core = el.shutdown();
    assert_eq!(
        wp_core.engine().config().loads(),
        offline.engine().config().loads()
    );
    assert_eq!(
        el_core.engine().config().loads(),
        offline.engine().config().loads()
    );
}
