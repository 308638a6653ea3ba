//! The built-in load generator and trace-replay driver.
//!
//! Two generator modes, the standard pair for serving benchmarks:
//!
//! * **closed loop** — each connection fires its next request the moment
//!   the previous response lands; measures the server's saturation
//!   throughput.
//! * **open loop** — requests are scheduled by an
//!   [`ArrivalProcess`] (the same laws the
//!   live engine simulates: Poisson, bursts, hotspot) rescaled to a target
//!   request rate; latency is measured from the *scheduled* send time, so
//!   queueing delay when the server falls behind is charged to the server
//!   (no coordinated omission).
//!
//! [`replay_over_http`] drives a recorded `rls-live` [`EventLog`] through
//! the HTTP path event by event (pinning every sampled coordinate, with
//! auto-rebalance suppressed) and checks the final load vector against the
//! offline, RNG-free [`replay`](rls_live::replay()) of the same log — the
//! serving layer adds nothing and loses nothing.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rls_core::Config;
use rls_live::{replay, EventLog, LiveEngine, LiveEventKind, LiveParams, Snapshot};
use rls_obs::{Histogram, HistogramSnapshot};
use rls_rng::{rng_from_seed, Rng64, RngExt};
use rls_workloads::ArrivalProcess;

use crate::api::RingReply;
use crate::client::HttpClient;
use crate::core::{ServeCore, ServePolicy};

/// How the generator paces requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriveMode {
    /// Back-to-back requests per connection (saturation throughput).
    Closed,
    /// Arrival-process-scheduled requests at a target aggregate rate.
    Open {
        /// Target requests per second across all connections.
        target_rps: f64,
    },
}

/// Load-generator options (see `rls-experiments serve bench`).
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Concurrent keep-alive connections (one thread each).
    pub connections: usize,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Optional cap on total requests (whichever of cap/duration first).
    pub max_requests: Option<u64>,
    /// Pacing mode.
    pub mode: DriveMode,
    /// Closed-loop pipeline depth: how many requests each connection keeps
    /// in flight (HTTP/1.1 pipelining; the server answers a burst with one
    /// engine batch and one write).  `1` = strict request-response.
    pub pipeline: usize,
    /// Epoch law for the open-loop schedule (shape only; the rate is set
    /// by `target_rps`).  Bursts send their whole batch back-to-back.
    pub arrival: ArrivalProcess,
    /// Fraction of requests that are departures instead of arrivals.
    pub depart_fraction: f64,
    /// Seed for the generator's own randomness (schedules, request mix).
    pub seed: u64,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            connections: 4,
            duration: Duration::from_secs(2),
            max_requests: None,
            mode: DriveMode::Closed,
            pipeline: 1,
            arrival: ArrivalProcess::Poisson { rate_per_bin: 1.0 },
            depart_fraction: 0.0,
            seed: 0xC0FFEE,
        }
    }
}

/// What a generator run measured.
///
/// Percentiles are read from per-connection `rls-obs` log-linear
/// histograms merged into one — O(1) memory per connection regardless of
/// request count, with ≤ 6.25 % relative bucket error (the max is exact).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Requests that received an HTTP response.
    pub requests: u64,
    /// Responses with a non-200 status (e.g. 409 departures from an empty
    /// system when `depart_fraction > 0`).
    pub non_200: u64,
    /// Transport-level failures (the connection is re-established).
    pub errors: u64,
    /// Wall-clock time actually spent.
    pub elapsed: Duration,
    /// Completed requests per second.
    pub rps: f64,
    /// Latency percentiles, in microseconds (closed loop: response time;
    /// open loop: from the scheduled send instant).
    pub p50_us: f64,
    /// 90th percentile latency (µs).
    pub p90_us: f64,
    /// 99th percentile latency (µs).
    pub p99_us: f64,
    /// Worst observed latency (µs).
    pub max_us: f64,
    /// Open loop only: scheduled-vs-actual send skew — how late each
    /// request actually left relative to its schedule, the generator-side
    /// half of the coordinated-omission guard.  Zero in closed loop.
    pub skew_p50_us: f64,
    /// 99th percentile send skew (µs).
    pub skew_p99_us: f64,
    /// Worst observed send skew (µs).
    pub skew_max_us: f64,
}

/// Drive a server with `opts` and measure.
pub fn drive(addr: SocketAddr, opts: &BenchOptions) -> Result<BenchReport, String> {
    if opts.connections == 0 {
        return Err("need at least one connection".to_string());
    }
    if !(0.0..=1.0).contains(&opts.depart_fraction) {
        return Err("depart fraction must lie in [0, 1]".to_string());
    }
    if let DriveMode::Open { target_rps } = opts.mode {
        if !(target_rps.is_finite() && target_rps > 0.0) {
            return Err("open-loop target rate must be positive".to_string());
        }
        opts.arrival.validate().map_err(|e| e.to_string())?;
    }

    let issued = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + opts.duration;

    let worker_results: Vec<Result<WorkerStats, String>> = std::thread::scope(|scope| {
        let issued = &issued;
        let handles: Vec<_> = (0..opts.connections)
            .map(|i| {
                let opts = opts.clone();
                scope.spawn(move || run_connection(addr, &opts, i, issued, start, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator threads do not panic"))
            .collect()
    });

    let elapsed = start.elapsed();
    // Merge the per-connection histograms (merge is associative and
    // commutative, so the join order doesn't matter).
    let mut latency = HistogramSnapshot::empty();
    let mut skew = HistogramSnapshot::empty();
    let (mut requests, mut non_200, mut errors) = (0u64, 0u64, 0u64);
    for result in worker_results {
        let stats = result?;
        requests += stats.requests;
        non_200 += stats.non_200;
        errors += stats.errors;
        latency.merge(&stats.latency.snapshot());
        skew.merge(&stats.skew.snapshot());
    }
    let us = |ns: u64| ns as f64 / 1_000.0;
    Ok(BenchReport {
        requests,
        non_200,
        errors,
        elapsed,
        rps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: us(latency.value_at_quantile(0.50)),
        p90_us: us(latency.value_at_quantile(0.90)),
        p99_us: us(latency.value_at_quantile(0.99)),
        max_us: us(latency.max()),
        skew_p50_us: us(skew.value_at_quantile(0.50)),
        skew_p99_us: us(skew.value_at_quantile(0.99)),
        skew_max_us: us(skew.max()),
    })
}

struct WorkerStats {
    requests: u64,
    non_200: u64,
    errors: u64,
    /// Response latency (closed: from send; open: from schedule).
    latency: Histogram,
    /// Open loop: how late the request actually left vs its schedule.
    skew: Histogram,
}

fn run_connection(
    addr: SocketAddr,
    opts: &BenchOptions,
    index: usize,
    issued: &AtomicU64,
    start: Instant,
    deadline: Instant,
) -> Result<WorkerStats, String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut rng =
        rng_from_seed(opts.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1)));
    let mut stats = WorkerStats {
        requests: 0,
        non_200: 0,
        errors: 0,
        latency: Histogram::new(),
        skew: Histogram::new(),
    };

    // Take one global ticket per request so `max_requests` caps the total
    // across all connections.
    // ORDERING: relaxed — ticket numbers need only fetch_add atomicity
    // to be unique; no payload is published through the counter.
    let take_ticket = || match opts.max_requests {
        Some(cap) => issued.fetch_add(1, Ordering::Relaxed) < cap,
        None => {
            // ORDERING: relaxed — same ticket counter, kept for stats.
            issued.fetch_add(1, Ordering::Relaxed);
            true
        }
    };
    let fire = |client: &mut HttpClient,
                stats: &mut WorkerStats,
                rng: &mut dyn Rng64,
                measured_from: Instant|
     -> Result<(), String> {
        let depart = opts.depart_fraction > 0.0 && rng.next_bernoulli(opts.depart_fraction);
        let (method, path): (&str, &str) = if depart {
            ("POST", "/v1/depart")
        } else {
            ("POST", "/v1/arrive")
        };
        match client.request(method, path, b"") {
            Ok((status, _)) => {
                stats.requests += 1;
                if status != 200 {
                    stats.non_200 += 1;
                }
                stats
                    .latency
                    .record(measured_from.elapsed().as_nanos() as u64);
                Ok(())
            }
            Err(e) => {
                stats.errors += 1;
                *client = HttpClient::connect(addr)
                    .map_err(|e2| format!("reconnect after `{e}`: {e2}"))?;
                Ok(())
            }
        }
    };

    match opts.mode {
        DriveMode::Closed => {
            // Pipelined bursts: queue up to `pipeline` requests, flush
            // them in one write, then drain the responses (status-only —
            // no body copies).  One syscall each way per burst keeps the
            // generator cheap enough to saturate the server even when
            // both share a core; the oldest send instant still prices
            // each response.
            let depth = opts.pipeline.max(1);
            let mut sent_at: Vec<Instant> = Vec::with_capacity(depth);
            loop {
                sent_at.clear();
                while sent_at.len() < depth && Instant::now() < deadline && take_ticket() {
                    let depart =
                        opts.depart_fraction > 0.0 && rng.next_bernoulli(opts.depart_fraction);
                    let path = if depart { "/v1/depart" } else { "/v1/arrive" };
                    client.queue("POST", path, b"");
                    sent_at.push(Instant::now());
                }
                if sent_at.is_empty() {
                    break;
                }
                if client.flush().is_err() {
                    // The whole queued burst is lost with the connection.
                    stats.errors += sent_at.len() as u64;
                    client = HttpClient::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
                    continue;
                }
                for (done, at) in sent_at.iter().enumerate() {
                    match client.recv_status() {
                        Ok(status) => {
                            stats.requests += 1;
                            if status != 200 {
                                stats.non_200 += 1;
                            }
                            stats.latency.record(at.elapsed().as_nanos() as u64);
                        }
                        Err(_) => {
                            // Every response still owed on this
                            // connection is lost.
                            stats.errors += (sent_at.len() - done) as u64;
                            client =
                                HttpClient::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
                            break;
                        }
                    }
                }
            }
        }
        DriveMode::Open { target_rps } => {
            // Rescale the arrival process's simulated epochs so this
            // connection carries its share of the aggregate target rate.
            let per_conn_rps = target_rps / opts.connections as f64;
            let epoch_rate = opts.arrival.epoch_rate(1);
            let epoch_size = opts.arrival.epoch_size();
            // Wall seconds per simulated time unit: epochs occur at
            // `epoch_rate` per sim unit and must land at
            // `per_conn_rps / epoch_size` per wall second.
            let wall_per_sim = epoch_rate * epoch_size as f64 / per_conn_rps;
            let schedule = opts
                .arrival
                .schedule(1, rng_from_seed(opts.seed ^ index as u64));
            'epochs: for epoch in schedule {
                let scheduled = start + Duration::from_secs_f64(epoch.at * wall_per_sim);
                if scheduled >= deadline {
                    break;
                }
                if let Some(gap) = scheduled.checked_duration_since(Instant::now()) {
                    std::thread::sleep(gap);
                }
                for _ in 0..epoch.size {
                    let now = Instant::now();
                    if now >= deadline || !take_ticket() {
                        break 'epochs;
                    }
                    // How late this request actually leaves vs its
                    // schedule: the generator-side skew (burst members
                    // after the first inherit their predecessors' delay).
                    stats
                        .skew
                        .record(now.saturating_duration_since(scheduled).as_nanos() as u64);
                    // Latency from the scheduled instant: if the server (or
                    // this connection) is behind, the queueing shows up.
                    fire(&mut client, &mut stats, &mut rng, scheduled)?;
                }
            }
        }
    }
    Ok(stats)
}

/// Outcome of feeding an event log through the HTTP path.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Events in the log.
    pub events: u64,
    /// HTTP requests issued (bursts expand to one request per ball).
    pub requests: u64,
    /// Whether the served load vector equals the offline replay's exactly.
    pub loads_match: bool,
    /// Whether every served ring reproduced the recorded `moved` flag.
    pub moved_match: bool,
    /// The load vector the server ended with.
    pub final_loads: Vec<u64>,
    /// The load vector offline replay ends with.
    pub expected_loads: Vec<u64>,
    /// The served engine's boot identity (from `GET /v1/stats`), echoed so
    /// replay reports state which policy/topology the comparison ran
    /// under.
    pub identity: crate::api::BootIdentity,
}

impl ReplayOutcome {
    /// Whether the HTTP path reproduced the offline replay exactly.
    pub fn is_faithful(&self) -> bool {
        self.loads_match && self.moved_match
    }
}

/// A [`ServeCore`] that starts from a log's initial state, ready to have
/// the log fed through it ([`replay_over_http`]).  Auto-rebalance is off:
/// the log carries every ring explicitly.
pub fn core_from_log(log: &EventLog, seed: u64) -> Result<ServeCore, String> {
    let initial =
        Config::from_loads(log.header.initial_loads.clone()).map_err(|e| e.to_string())?;
    // The dynamics parameters never fire during replay (every coordinate
    // is pinned); any valid set will do.
    let params = LiveParams {
        arrivals: ArrivalProcess::Poisson { rate_per_bin: 1.0 },
        service_rate: 0.0,
    };
    let engine = LiveEngine::with_policy(
        initial,
        params,
        log.header.effective_policy(),
        log.header.effective_topology(),
        log.header.graph_seed.unwrap_or(0),
    )
    .map_err(|e| e.to_string())?;
    Ok(ServeCore::new(
        engine,
        seed,
        0.0,
        ServePolicy {
            rings_per_arrival: 0.0,
        },
    ))
}

/// Feed `log` through the HTTP path at `addr` (a server booted from
/// [`core_from_log`]) and cross-check against the offline replay.
pub fn replay_over_http(addr: SocketAddr, log: &EventLog) -> Result<ReplayOutcome, String> {
    let offline = replay(log).map_err(|e| format!("offline replay: {e}"))?;

    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut requests = 0u64;
    let mut moved_match = true;
    for event in &log.events {
        match &event.kind {
            LiveEventKind::Arrival { bins } => {
                for &bin in bins {
                    let body = format!("{{\"bin\": {bin}, \"rings\": 0}}");
                    client.request_ok("POST", "/v1/arrive", body.as_bytes())?;
                    requests += 1;
                }
            }
            LiveEventKind::Departure { bin } => {
                client.request_ok("POST", &format!("/v1/depart/{bin}"), b"")?;
                requests += 1;
            }
            LiveEventKind::Ring {
                source,
                dest,
                moved,
            } => {
                let body = format!("{{\"source\": {source}, \"dest\": {dest}}}");
                let text = client.request_ok("POST", "/v1/ring", body.as_bytes())?;
                let reply: RingReply =
                    serde_json::from_str(&text).map_err(|e| format!("ring reply: {e}"))?;
                if reply.moved != *moved {
                    moved_match = false;
                }
                requests += 1;
            }
            // Scale events re-issue the admin command; the server resolves
            // its own relocation draws, so only cold joins and already-empty
            // drains replay load-exactly over HTTP (the offline `replay`
            // path is the bit-exact one — it applies the recorded draws).
            LiveEventKind::BinsJoined { joins } => {
                for _ in joins {
                    client.request_ok("POST", "/v1/bins/add", b"{\"warm\": false}")?;
                    requests += 1;
                }
            }
            LiveEventKind::BinsDrained { drains } => {
                for drain in drains {
                    let body = format!("{{\"bin\": {}}}", drain.bin);
                    client.request_ok("POST", "/v1/bins/drain", body.as_bytes())?;
                    requests += 1;
                }
            }
        }
    }

    let text = client.request_ok("GET", "/v1/snapshot", b"")?;
    let snapshot = Snapshot::from_json(&text).map_err(|e| format!("served snapshot: {e}"))?;
    let text = client.request_ok("GET", "/v1/stats", b"")?;
    let stats: crate::api::StatsReply =
        serde_json::from_str(&text).map_err(|e| format!("served stats: {e}"))?;
    let loads_match = snapshot.loads == offline.final_loads;
    Ok(ReplayOutcome {
        events: log.events.len() as u64,
        requests,
        loads_match,
        moved_match,
        final_loads: snapshot.loads,
        expected_loads: offline.final_loads,
        identity: stats.identity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_are_validated() {
        let server_less: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let bad = BenchOptions {
            connections: 0,
            ..BenchOptions::default()
        };
        assert!(drive(server_less, &bad).is_err());
        let bad = BenchOptions {
            depart_fraction: 1.5,
            ..BenchOptions::default()
        };
        assert!(drive(server_less, &bad).is_err());
        let bad = BenchOptions {
            mode: DriveMode::Open { target_rps: 0.0 },
            ..BenchOptions::default()
        };
        assert!(drive(server_less, &bad).is_err());
    }
}
