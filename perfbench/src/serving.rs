//! `serve-closed` and `serve-open`: the HTTP service as `serve run` boots
//! it (`rls_serve::serve` with `Frontend::default()`), driven over real
//! loopback sockets by a generator owned by this benchmark.
//!
//! * closed loop — 2 connections, each keeping 16 pipelined requests in
//!   flight; latency is timed from the send.
//! * open loop — 8 000 req/s on a Poisson schedule, one request in flight
//!   per connection; latency is timed from the scheduled send, so a stall
//!   is charged to every request it delays.
//!
//! Both send a 50/50 mix of `POST /v1/arrive` and `POST /v1/depart`
//! against n = 64 bins holding m₀ = 65 536 balls, with 8 auto-rings per
//! arrival.  With m₀ that large the random walk of arrivals minus
//! departures cannot empty the system within a run, so a `409` is a bug,
//! not luck.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rls_core::{Config, RebalancePolicy};
use rls_graph::Topology;
use rls_live::{LiveEngine, LiveParams};
use rls_obs::Registry;
use rls_rng::dist::{Distribution, Exponential};
use rls_rng::{rng_from_seed, RngExt};
use rls_serve::{
    serve, Frontend, HttpClient, HttpServer, ServeCore, ServePolicy, ServerConfig, StatsReply,
};
use rls_workloads::ArrivalProcess;

use crate::report::{derive, median, time_setup, EndToEnd, Latencies, Record};

const N: usize = 64;
const M0: u64 = 65_536;
const RINGS_PER_ARRIVAL: f64 = 8.0;
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
pub const PIPELINE: usize = 16;
const OPEN_RPS: f64 = 8_000.0;
/// Latency objective of one request.
const SLO_NS: u64 = 1_000_000;
const WARMUP: Duration = Duration::from_millis(300);
/// Rates and latency quantiles are taken per window of the measured phase
/// and reported as the median over windows.
const WINDOW: Duration = Duration::from_millis(100);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Closed,
    Open,
}

/// The serving core `serve run` would build for this shape, with
/// telemetry attached (self-booted servers always attach it).
pub fn core(seed: u64) -> ServeCore {
    let params = LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 1.0 }, N, M0)
        .expect("positive rates");
    let initial = Config::uniform(N, M0 / N as u64).expect("n ≥ 1 bins");
    let engine = LiveEngine::with_policy(
        initial,
        params,
        RebalancePolicy::rls(),
        Topology::Complete,
        seed ^ 0x6AF1,
    )
    .expect("rls on the complete graph is valid");
    let mut core = ServeCore::new(
        engine,
        seed,
        0.0,
        ServePolicy {
            rings_per_arrival: RINGS_PER_ARRIVAL,
        },
    );
    core.attach_metrics(&Registry::new());
    core
}

/// Boot a server and open every load connection once (`GET /healthz`), so
/// set-up ends when the service can answer.
fn boot(seed: u64) -> Result<HttpServer, String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        frontend: Frontend::default(),
    };
    let server = serve(core(seed), &config).map_err(|e| format!("boot: {e}"))?;
    for _ in 0..CONNECTIONS {
        let mut client = HttpClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        client.request_ok("GET", "/healthz", b"")?;
    }
    Ok(server)
}

fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    HttpClient::connect(addr)
        .map_err(|e| format!("connect: {e}"))?
        .request_ok("GET", path, b"")
}

fn stats(addr: SocketAddr) -> Result<StatsReply, String> {
    serde_json::from_str(&get(addr, "/v1/stats")?).map_err(|e| format!("/v1/stats: {e}"))
}

/// What one generator phase saw, merged over its connections.
#[derive(Debug, Default)]
pub struct Phase {
    /// Successful responses per window of completion time.
    pub window_ok: Vec<u64>,
    /// `(window, p50, p99)` in ns of every (connection, window) that saw a
    /// response: closed loop from send, open loop from the scheduled send.
    pub window_latency: Vec<(usize, f64, f64)>,
    /// The connection's window still being filled.
    current: Latencies,
    current_window: usize,
    /// Open only: how late each request left against its schedule.
    pub skew: Latencies,
    /// Open only: from the actual send to the response.
    pub rtt: Latencies,
    pub attempted: u64,
    pub answered: u64,
    pub ok: u64,
    pub non_200: u64,
    pub errors: u64,
    pub arrivals_ok: u64,
    pub departures_ok: u64,
    pub slo_met: u64,
    /// Whole windows in the phase (responses landing after the deadline
    /// fall into later, partial windows, which medians skip).
    pub full_windows: usize,
}

impl Phase {
    fn merge(&mut self, other: &Phase) {
        if self.window_ok.len() < other.window_ok.len() {
            self.window_ok.resize(other.window_ok.len(), 0);
        }
        for (w, o) in self.window_ok.iter_mut().zip(&other.window_ok) {
            *w += o;
        }
        self.window_latency.extend_from_slice(&other.window_latency);
        self.skew.merge(&other.skew);
        self.rtt.merge(&other.rtt);
        self.attempted += other.attempted;
        self.answered += other.answered;
        self.ok += other.ok;
        self.non_200 += other.non_200;
        self.errors += other.errors;
        self.arrivals_ok += other.arrivals_ok;
        self.departures_ok += other.departures_ok;
        self.slo_met += other.slo_met;
    }

    /// Seal the window being filled into its quantiles.
    fn close_window(&mut self) {
        if let (Some(p50), Some(p99)) = (self.current.quantile(0.50), self.current.quantile(0.99)) {
            self.window_latency.push((self.current_window, p50, p99));
        }
        self.current = Latencies::default();
    }

    fn answered(&mut self, status: u16, depart: bool, latency_ns: u64, since_start: Duration) {
        let window = (since_start.as_nanos() / WINDOW.as_nanos()) as usize;
        if window != self.current_window {
            self.close_window();
            self.current_window = window;
        }
        if self.window_ok.len() <= window {
            self.window_ok.resize(window + 1, 0);
        }
        self.current.record(latency_ns);
        self.answered += 1;
        if status != 200 {
            self.non_200 += 1;
            return;
        }
        self.window_ok[window] += 1;
        self.ok += 1;
        if depart {
            self.departures_ok += 1;
        } else {
            self.arrivals_ok += 1;
        }
        if latency_ns <= SLO_NS {
            self.slo_met += 1;
        }
    }

    /// Median over whole windows of the successful responses per second.
    pub fn requests_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = (0..self.full_windows)
            .map(|w| self.window_ok.get(w).copied().unwrap_or(0) as f64 / WINDOW.as_secs_f64())
            .collect();
        median(&mut rates)
    }

    /// Median p50 latency (ns) over the whole windows of every connection.
    pub fn latency_p50_ns(&self) -> f64 {
        self.window_median(|&(_, p50, _)| p50)
    }

    /// Median p99 latency (ns) over the whole windows of every connection.
    pub fn latency_p99_ns(&self) -> f64 {
        self.window_median(|&(_, _, p99)| p99)
    }

    fn window_median(&self, pick: impl Fn(&(usize, f64, f64)) -> f64) -> f64 {
        let mut per_window: Vec<f64> = self
            .window_latency
            .iter()
            .filter(|&&(w, _, _)| w < self.full_windows)
            .map(pick)
            .collect();
        median(&mut per_window)
    }
}

fn path(depart: bool) -> &'static str {
    if depart {
        "/v1/depart"
    } else {
        "/v1/arrive"
    }
}

/// Closed loop on one connection: bursts of `PIPELINE` requests.
fn closed_connection(
    addr: SocketAddr,
    mut client: HttpClient,
    seed: u64,
    start: Instant,
    deadline: Instant,
) -> Result<Phase, String> {
    let mut rng = rng_from_seed(seed);
    let mut phase = Phase::default();
    let mut kinds = [false; PIPELINE];
    while Instant::now() < deadline {
        for kind in &mut kinds {
            *kind = rng.next_bool();
            client.queue("POST", path(*kind), b"");
        }
        phase.attempted += PIPELINE as u64;
        let sent = Instant::now();
        if client.flush().is_err() {
            phase.errors += PIPELINE as u64;
            client = HttpClient::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
            continue;
        }
        for (i, &depart) in kinds.iter().enumerate() {
            match client.recv_status() {
                Ok(status) => {
                    let done = Instant::now();
                    let latency = done.duration_since(sent).as_nanos() as u64;
                    phase.answered(status, depart, latency, done.duration_since(start));
                }
                Err(_) => {
                    phase.errors += (PIPELINE - i) as u64;
                    client = HttpClient::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
                    break;
                }
            }
        }
    }
    phase.close_window();
    Ok(phase)
}

/// Ask the kernel for 1 ns timer slack on this thread, so a sleep ends
/// when asked instead of up to the default 50 µs later.  Best effort.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// Open loop on one connection: Poisson sends at `rate` req/s.
fn open_connection(
    addr: SocketAddr,
    mut client: HttpClient,
    seed: u64,
    start: Instant,
    deadline: Instant,
    rate: f64,
) -> Result<Phase, String> {
    tighten_timer_slack();
    let mut rng = rng_from_seed(seed);
    let gap = Exponential::new(rate).expect("positive rate");
    let mut phase = Phase::default();
    let mut at = gap.sample(&mut rng);
    loop {
        let scheduled = start + Duration::from_secs_f64(at);
        if scheduled >= deadline {
            break;
        }
        at += gap.sample(&mut rng);
        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let depart = rng.next_bool();
        phase.attempted += 1;
        let sent = Instant::now();
        phase
            .skew
            .record(sent.duration_since(scheduled).as_nanos() as u64);
        client.queue("POST", path(depart), b"");
        let status = client.flush().and_then(|()| client.recv_status());
        match status {
            Ok(status) => {
                let done = Instant::now();
                phase
                    .rtt
                    .record(done.duration_since(sent).as_nanos() as u64);
                let latency = done.duration_since(scheduled).as_nanos() as u64;
                phase.answered(status, depart, latency, done.duration_since(start));
            }
            Err(_) => {
                phase.errors += 1;
                client = HttpClient::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
            }
        }
    }
    phase.close_window();
    Ok(phase)
}

/// One generator phase over `CONNECTIONS` threads.
fn drive(addr: SocketAddr, mode: Mode, seed: u64, duration: Duration) -> Result<Phase, String> {
    // Every connection is accepted and answers once before the clock
    // starts, so connection set-up is not charged to the first requests.
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        client.request_ok("GET", "/healthz", b"")?;
        clients.push(client);
    }
    let start = Instant::now();
    let deadline = start + duration;
    let per_connection = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, client)| {
                let seed = derive(seed, i as u64);
                scope.spawn(move || match mode {
                    Mode::Closed => closed_connection(addr, client, seed, start, deadline),
                    Mode::Open => open_connection(
                        addr,
                        client,
                        seed,
                        start,
                        deadline,
                        OPEN_RPS / CONNECTIONS as f64,
                    ),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator threads do not panic"))
            .collect::<Vec<_>>()
    });
    let mut phase = Phase {
        full_windows: (duration.as_nanos() / WINDOW.as_nanos()) as usize,
        ..Phase::default()
    };
    for p in per_connection {
        phase.merge(&p?);
    }
    Ok(phase)
}

/// One served run: boot, warm up, measure, scrape, shut down.
pub struct Session {
    pub setup_s: f64,
    pub phase: Phase,
    pub before: StatsReply,
    pub after: StatsReply,
    /// `GET /v1/metrics` before and after the measured phase.
    pub scrape_before: Prometheus,
    pub scrape_after: Prometheus,
    /// The core the server hands back at shutdown.
    pub core: ServeCore,
}

impl Session {
    pub fn requests_per_s(&self) -> f64 {
        self.phase.requests_per_s()
    }
}

pub fn session(
    mode: Mode,
    seed: u64,
    seconds: f64,
    record: &mut Record,
) -> Result<Session, String> {
    // Set-up is the median of several boots; all but the last are shut
    // down again.
    let mut booted = Vec::new();
    let setup_s = time_setup(21, || booted.push(boot(seed)));
    let server = booted.pop().expect("at least one boot")?;
    for other in booted {
        other?.shutdown();
    }
    let addr = server.addr();
    let warm = drive(addr, mode, derive(seed, 10), WARMUP)?;
    let before = stats(addr)?;
    let scrape_before = Prometheus::parse(&get(addr, "/v1/metrics")?);
    let phase = drive(
        addr,
        mode,
        derive(seed, 11),
        Duration::from_secs_f64(seconds),
    )?;
    let after = stats(addr)?;
    let scrape_after = Prometheus::parse(&get(addr, "/v1/metrics")?);
    let core = server.shutdown();

    // Conservation through the HTTP path: every accepted arrival added a
    // ball and every accepted departure removed one.
    let expected =
        M0 + warm.arrivals_ok + phase.arrivals_ok - warm.departures_ok - phase.departures_ok;
    record.check(after.m == expected, || {
        format!(
            "serve: /v1/stats m = {} but m₀ + arrivals − departures = {expected}",
            after.m
        )
    });
    record.check(warm.non_200 + warm.errors == 0, || {
        format!(
            "serve warm-up: {} non-200, {} transport errors",
            warm.non_200, warm.errors
        )
    });
    Ok(Session {
        setup_s,
        phase,
        before,
        after,
        scrape_before,
        scrape_after,
        core,
    })
}

pub fn run(mode: Mode, seed: u64, seconds: f64, record: &mut Record) -> Result<EndToEnd, String> {
    let mut s = session(mode, seed, seconds, record)?;
    let (a, b) = (s.after.counters, s.before.counters);
    let requests_per_s = s.requests_per_s();
    // The server counts engine work over the whole phase; scale the
    // windowed request rate by the work per successful request.
    if mode == Mode::Open {
        // The generator's own clock, beside latency from the schedule.
        let us = |l: &mut Latencies, q: f64| l.quantile(q).unwrap_or(0.0) / 1e3;
        let p = &mut s.phase;
        println!(
            "generator: send skew p50 {:.1} us, p99 {:.1} us; rtt p50 {:.1} us, p99 {:.1} us",
            us(&mut p.skew, 0.50),
            us(&mut p.skew, 0.99),
            us(&mut p.rtt, 0.50),
            us(&mut p.rtt, 0.99)
        );
    }
    let ok = s.phase.ok.max(1) as f64;
    let per_request = |work: u64| work as f64 / ok;
    let phase = &mut s.phase;
    Ok(EndToEnd {
        setup_s: s.setup_s,
        activations_per_s: requests_per_s * per_request(a.rings - b.rings),
        events_per_s: requests_per_s * per_request(a.events - b.events),
        requests_per_s,
        latency_p50_ns: phase.latency_p50_ns(),
        latency_p99_ns: phase.latency_p99_ns(),
        latency_samples: phase.answered,
        slo_met: phase.slo_met,
        attempted: phase.attempted,
        failed: phase.non_200 + phase.errors,
    })
}

/// A parsed Prometheus text scrape: series (with labels) → value.
#[derive(Debug, Default)]
pub struct Prometheus(BTreeMap<String, f64>);

impl Prometheus {
    pub fn parse(text: &str) -> Self {
        Self(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// Sum over every series of family `name`, whatever its labels.
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .range(name.to_string()..)
            .take_while(|(series, _)| series.starts_with(name))
            .filter(|(series, _)| matches!(series.as_bytes().get(name.len()), None | Some(b'{')))
            .map(|(_, v)| v)
            .sum()
    }

    /// Per-bucket counts `(le, count)` of histogram `name` with the label
    /// block `labels` (e.g. `stage="parse"`; empty for none).
    fn buckets(&self, name: &str, labels: &str) -> BTreeMap<u64, f64> {
        let prefix = if labels.is_empty() {
            format!("{name}_bucket{{le=\"")
        } else {
            format!("{name}_bucket{{{labels},le=\"")
        };
        let mut out = BTreeMap::new();
        let mut below = 0.0;
        for (series, &cum) in self.0.range(prefix.clone()..) {
            let Some(rest) = series.strip_prefix(&prefix) else {
                break;
            };
            if let Ok(le) = rest.trim_end_matches("\"}").parse::<u64>() {
                out.insert(le, cum);
            }
        }
        // The map orders `le` as text; re-derive per-bucket counts by value.
        for cum in out.values_mut() {
            let c = *cum;
            *cum = c - below;
            below = c;
        }
        out
    }
}

/// Quantile of a histogram over the window between two scrapes (the upper
/// bound of the bucket holding the nearest rank); `None` if nothing was
/// recorded in between.
pub fn window_quantile(
    before: &Prometheus,
    after: &Prometheus,
    name: &str,
    labels: &str,
    q: f64,
) -> Option<f64> {
    let old = before.buckets(name, labels);
    let window: Vec<(u64, f64)> = after
        .buckets(name, labels)
        .into_iter()
        .map(|(le, count)| (le, count - old.get(&le).copied().unwrap_or(0.0)))
        .collect();
    let total: f64 = window.iter().map(|(_, c)| c).sum();
    if total <= 0.0 {
        return None;
    }
    let rank = (q * total).ceil().max(1.0);
    let mut seen = 0.0;
    window.iter().find_map(|&(le, c)| {
        seen += c;
        (seen >= rank).then_some(le as f64)
    })
}
