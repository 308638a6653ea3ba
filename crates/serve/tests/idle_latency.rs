//! Prompt answers after a pause: a connection that has been silent is
//! read as soon as its next request arrives, not on some later poll.  A
//! wall-clock bound, so it runs in its own test binary, away from the
//! conformance suite's heavy cases.

use std::time::{Duration, Instant};

use rls_core::{Config, RlsRule};
use rls_live::{LiveEngine, LiveParams};
use rls_serve::{serve, HttpClient, ServeCore, ServePolicy, ServerConfig};
use rls_workloads::ArrivalProcess;

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

#[test]
fn first_requests_after_a_pause_are_answered_promptly() {
    let server = serve(make_core(21), &ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    client.request_ok("GET", "/healthz", b"").unwrap();
    // Go quiet, then send requests 10 ms apart, so the server idles
    // between every one.  A polling loop that backed an idle connection
    // off for several sleeps answered these in about 5 ms (median); a
    // blocking read answers in about 0.5 ms.
    std::thread::sleep(Duration::from_millis(150));
    let mut round_trips: Vec<Duration> = (0..20)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(10));
            let sent = Instant::now();
            client.request_ok("POST", "/v1/arrive", b"").unwrap();
            sent.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_micros(1500),
        "median round trip {median:?} after a pause: {round_trips:?}"
    );
    server.shutdown();
}
