//! Serving-layer telemetry: per-stage timers, per-endpoint counters, and
//! the flight recorder behind `GET /v1/debug/flight`.
//!
//! [`ServeMetrics`] is attached to a [`ServeCore`](crate::ServeCore) via
//! [`ServeCore::attach_metrics`](crate::ServeCore::attach_metrics); the
//! same registry also receives the engine's own instruments, so one
//! `GET /v1/metrics` scrape exposes the whole stack.  Every hook is a
//! write-only atomic tap — serving with metrics attached produces the
//! same replies, byte for byte, as serving without.

use std::sync::Arc;

use rls_obs::{Counter, FlightRecorder, Histogram, Registry, ShardedCounter};

/// Endpoint labels, in classification order ([`endpoint_index`]).
pub const ENDPOINTS: [&str; 12] = [
    "arrive",
    "depart",
    "ring",
    "stats",
    "snapshot",
    "restore",
    "healthz",
    "metrics",
    "flight",
    "bins-add",
    "bins-drain",
    "other",
];

/// Metric families the serving stack is expected to expose once attached.
/// The CI `metrics-drift` check scrapes `/v1/metrics` and fails if any of
/// these is missing (or any rendered value is non-finite); extend this
/// list together with `docs/OBSERVABILITY.md` when adding families.
pub const CATALOG: [&str; 13] = [
    "rls_engine_events_total",
    "rls_engine_arrivals_total",
    "rls_engine_departures_total",
    "rls_engine_rings_total",
    "rls_engine_moves_accepted_total",
    "rls_engine_moves_rejected_total",
    "rls_engine_probes_total",
    "rls_engine_descent_depth",
    "rls_serve_requests_total",
    "rls_serve_errors_total",
    "rls_serve_request_bytes_total",
    "rls_serve_response_bytes_total",
    "rls_serve_stage_ns",
];

/// Flight-recorder command-kind codes (the `kind` field of
/// [`rls_obs::FlightEvent`] as the serve layer encodes it).
pub mod flight_kind {
    /// `POST /v1/arrive`.
    pub const ARRIVE: u64 = 1;
    /// `POST /v1/depart`.
    pub const DEPART: u64 = 2;
    /// `POST /v1/ring`.
    pub const RING: u64 = 3;
    /// `GET /v1/stats`.
    pub const STATS: u64 = 4;
    /// `GET /v1/snapshot`.
    pub const SNAPSHOT: u64 = 5;
    /// `POST /v1/restore`.
    pub const RESTORE: u64 = 6;
    /// `GET /healthz`.
    pub const HEALTH: u64 = 7;
    /// `POST /v1/bins/add`.
    pub const BIN_ADD: u64 = 8;
    /// `POST /v1/bins/drain`.
    pub const BIN_DRAIN: u64 = 9;

    /// Human-readable name of a kind code (for the flight dump).
    pub fn name(kind: u64) -> &'static str {
        match kind {
            ARRIVE => "arrive",
            DEPART => "depart",
            RING => "ring",
            STATS => "stats",
            SNAPSHOT => "snapshot",
            RESTORE => "restore",
            HEALTH => "health",
            BIN_ADD => "bin-add",
            BIN_DRAIN => "bin-drain",
            _ => "unknown",
        }
    }
}

/// Sentinel for "no coordinate" in flight-event payload slots (e.g. an
/// arrival with no pinned bin).
pub const FLIGHT_NONE: u64 = u64::MAX;

/// Recent-event window kept by the flight recorder.
const FLIGHT_CAPACITY: usize = 1024;

/// One connection's telemetry since it last published, in plain fields:
/// the stage samples of its frames and commands, its request and error
/// counts by endpoint, and its request bytes.  The frontend fills it
/// while it frames, executes and encodes a batch, and
/// [`ServeMetrics::publish`] adds it to the shared instruments in one go,
/// before the batch's replies are written.
#[derive(Debug)]
pub(crate) struct Tally {
    /// Parse-stage samples, one per framed request.
    pub(crate) parse_ns: Vec<u64>,
    /// Queue-stage samples, one per engine command.
    pub(crate) queue_ns: Vec<u64>,
    /// Apply-stage samples, one per engine command.
    pub(crate) apply_ns: Vec<u64>,
    /// Requests by endpoint index ([`endpoint_index`]).
    requests: [u64; ENDPOINTS.len()],
    /// Non-2xx responses by endpoint index.
    errors: [u64; ENDPOINTS.len()],
    /// Request payload bytes (start line + body).
    pub(crate) request_bytes: u64,
}

impl Tally {
    /// An empty tally whose sample buffers hold `samples` each before
    /// they grow (a batch's frame cap keeps them from growing).
    pub(crate) fn with_capacity(samples: usize) -> Self {
        Self {
            parse_ns: Vec::with_capacity(samples),
            queue_ns: Vec::with_capacity(samples),
            apply_ns: Vec::with_capacity(samples),
            requests: [0; ENDPOINTS.len()],
            errors: [0; ENDPOINTS.len()],
            request_bytes: 0,
        }
    }

    /// Counts one handled request, as
    /// [`ServeMetrics::record_request`] would.
    pub(crate) fn count_request(&mut self, index: usize, status: u16) {
        let index = index.min(ENDPOINTS.len() - 1);
        self.requests[index] += 1;
        if !(200..300).contains(&status) {
            self.errors[index] += 1;
        }
    }
}

/// One request/error counter pair for an endpoint label.
#[derive(Debug)]
struct EndpointCounters {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
}

/// Telemetry handles for one serving instance.
#[derive(Debug)]
pub struct ServeMetrics {
    registry: Registry,
    /// Request parse + route time.
    pub stage_parse_ns: Arc<Histogram>,
    /// Time from reading a request's bytes to the start of its execution.
    pub stage_queue_ns: Arc<Histogram>,
    /// Time applying one command to the core.
    pub stage_apply_ns: Arc<Histogram>,
    /// Time writing a (batched) response burst to the socket.
    pub stage_write_ns: Arc<Histogram>,
    /// Request payload bytes (start line + body; striped by connection).
    pub request_bytes: Arc<ShardedCounter>,
    /// Response bytes written (striped by connection).
    pub response_bytes: Arc<ShardedCounter>,
    /// Per-endpoint request/error counters (indexed like [`ENDPOINTS`]).
    endpoints: Vec<EndpointCounters>,
    /// The black box: recent engine commands with stage latencies.
    pub flight: FlightRecorder,
}

impl ServeMetrics {
    /// Resolves the serving metric families in `registry` and builds the
    /// flight recorder.
    pub fn register(registry: &Registry) -> Arc<Self> {
        let stage = |stage: &str| {
            registry.histogram_with(
                "rls_serve_stage_ns",
                "Per-stage request latency in nanoseconds (parse, queue, apply, write)",
                &[("stage", stage)],
            )
        };
        let endpoints = ENDPOINTS
            .iter()
            .map(|&endpoint| EndpointCounters {
                requests: registry.counter_with(
                    "rls_serve_requests_total",
                    "HTTP requests handled, by endpoint",
                    &[("endpoint", endpoint)],
                ),
                errors: registry.counter_with(
                    "rls_serve_errors_total",
                    "HTTP responses with a non-2xx status, by endpoint",
                    &[("endpoint", endpoint)],
                ),
            })
            .collect();
        Arc::new(Self {
            registry: registry.clone(),
            stage_parse_ns: stage("parse"),
            stage_queue_ns: stage("queue"),
            stage_apply_ns: stage("apply"),
            stage_write_ns: stage("write"),
            request_bytes: registry.sharded_counter(
                "rls_serve_request_bytes_total",
                "Request payload bytes received (start line + body)",
            ),
            response_bytes: registry.sharded_counter(
                "rls_serve_response_bytes_total",
                "Response bytes written to sockets",
            ),
            endpoints,
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
        })
    }

    /// The registry this instance renders from (shared with the engine's
    /// instruments).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Counts one handled request on endpoint `index`
    /// ([`endpoint_index`]) with the final HTTP `status`.
    pub fn record_request(&self, index: usize, status: u16) {
        let e = &self.endpoints[index.min(ENDPOINTS.len() - 1)];
        e.requests.inc();
        if !(200..300).contains(&status) {
            e.errors.inc();
        }
    }

    /// Adds a connection's [`Tally`] to the shared instruments and
    /// empties it: one batch record per stage histogram, one add per
    /// endpoint counter that moved, and the request bytes on the
    /// connection's `stripe`.
    pub(crate) fn publish(&self, tally: &mut Tally, stripe: usize) {
        for (histogram, samples) in [
            (&self.stage_parse_ns, &mut tally.parse_ns),
            (&self.stage_queue_ns, &mut tally.queue_ns),
            (&self.stage_apply_ns, &mut tally.apply_ns),
        ] {
            histogram.record_all(samples);
            samples.clear();
        }
        for (e, (requests, errors)) in self
            .endpoints
            .iter()
            .zip(tally.requests.iter_mut().zip(&mut tally.errors))
        {
            if *requests > 0 {
                e.requests.add(std::mem::take(requests));
            }
            if *errors > 0 {
                e.errors.add(std::mem::take(errors));
            }
        }
        if tally.request_bytes > 0 {
            self.request_bytes
                .add(stripe, std::mem::take(&mut tally.request_bytes));
        }
    }

    /// The Prometheus text exposition served at `GET /v1/metrics`.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// The JSON snapshot written by `--metrics-json`.
    pub fn snapshot_json(&self) -> String {
        self.registry.snapshot_json()
    }

    /// The flight-recorder dump served at `GET /v1/debug/flight`: recent
    /// engine commands, oldest first, with stage latencies in
    /// nanoseconds.
    pub fn flight_json(&self) -> String {
        use std::fmt::Write as _;
        let events = self.flight.dump();
        let mut out = format!(
            "{{\"capacity\":{},\"recorded\":{},\"events\":[",
            self.flight.capacity(),
            self.flight.recorded()
        );
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"cmd\":\"{}\",\"a\":{},\"b\":{},\"queue_ns\":{},\"apply_ns\":{}}}",
                e.seq,
                flight_kind::name(e.kind),
                // FLIGHT_NONE coordinates render as null.
                if e.a == FLIGHT_NONE {
                    "null".to_string()
                } else {
                    e.a.to_string()
                },
                if e.b == FLIGHT_NONE {
                    "null".to_string()
                } else {
                    e.b.to_string()
                },
                e.queue_ns,
                e.apply_ns,
            );
        }
        out.push_str("]}");
        out
    }
}

/// Classify a request path into an [`ENDPOINTS`] index.
pub fn endpoint_index(path: &str) -> usize {
    match path {
        "/v1/arrive" => 0,
        "/v1/depart" => 1,
        "/v1/ring" => 2,
        "/v1/stats" => 3,
        "/v1/snapshot" => 4,
        "/v1/restore" => 5,
        "/healthz" => 6,
        "/v1/metrics" => 7,
        "/v1/debug/flight" => 8,
        "/v1/bins/add" => 9,
        "/v1/bins/drain" => 10,
        p if p.starts_with("/v1/depart/") => 1,
        _ => 11,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_classification_covers_the_api() {
        assert_eq!(ENDPOINTS[endpoint_index("/v1/arrive")], "arrive");
        assert_eq!(ENDPOINTS[endpoint_index("/v1/depart/7")], "depart");
        assert_eq!(ENDPOINTS[endpoint_index("/v1/metrics")], "metrics");
        assert_eq!(ENDPOINTS[endpoint_index("/v1/debug/flight")], "flight");
        assert_eq!(ENDPOINTS[endpoint_index("/nope")], "other");
    }

    #[test]
    fn request_accounting_splits_by_endpoint_and_status() {
        let registry = Registry::new();
        let m = ServeMetrics::register(&registry);
        m.record_request(endpoint_index("/v1/arrive"), 200);
        m.record_request(endpoint_index("/v1/arrive"), 409);
        m.record_request(endpoint_index("/nope"), 404);
        let text = m.render_prometheus();
        assert!(text.contains("rls_serve_requests_total{endpoint=\"arrive\"} 2"));
        assert!(text.contains("rls_serve_errors_total{endpoint=\"arrive\"} 1"));
        assert!(text.contains("rls_serve_requests_total{endpoint=\"other\"} 1"));
        assert!(text.contains("rls_serve_errors_total{endpoint=\"other\"} 1"));
    }

    #[test]
    fn a_published_tally_equals_recording_each_request() {
        let (tallied, direct) = (Registry::new(), Registry::new());
        let (t, d) = (
            ServeMetrics::register(&tallied),
            ServeMetrics::register(&direct),
        );
        let mut tally = Tally::with_capacity(4);
        for (i, (path, status)) in [("/v1/arrive", 200), ("/v1/depart", 409), ("/nope", 404)]
            .into_iter()
            .cycle()
            .take(10)
            .enumerate()
        {
            let ns = 100 * i as u64 + 7;
            tally.count_request(endpoint_index(path), status);
            d.record_request(endpoint_index(path), status);
            tally.parse_ns.push(ns);
            d.stage_parse_ns.record(ns);
            tally.queue_ns.push(2 * ns);
            d.stage_queue_ns.record(2 * ns);
            tally.apply_ns.push(3 * ns);
            d.stage_apply_ns.record(3 * ns);
            tally.request_bytes += ns;
            d.request_bytes.add(5, ns);
        }
        t.publish(&mut tally, 5);
        assert_eq!(t.render_prometheus(), d.render_prometheus());
        // Published means emptied: publishing again adds nothing.
        t.publish(&mut tally, 5);
        assert_eq!(t.render_prometheus(), d.render_prometheus());
    }

    #[test]
    fn flight_dump_is_wellformed_json() {
        let registry = Registry::new();
        let m = ServeMetrics::register(&registry);
        m.flight
            .record(flight_kind::ARRIVE, 3, FLIGHT_NONE, 100, 200);
        m.flight.record(flight_kind::RING, 1, 2, 50, 75);
        let json = m.flight_json();
        assert!(json.contains("\"cmd\":\"arrive\""));
        assert!(json.contains("\"a\":3"));
        assert!(json.contains("\"b\":null"));
        assert!(json.contains("\"cmd\":\"ring\""));
        let parsed = serde_json::parse_value(&json).expect("flight dump parses");
        drop(parsed);
    }

    #[test]
    fn catalog_names_all_register() {
        // Attaching engine + serve metrics to one registry must cover the
        // full drift-check catalog.
        let registry = Registry::new();
        let _serve = ServeMetrics::register(&registry);
        let _engine = rls_live::LiveMetrics::register(&registry, "rls");
        let names = registry.names();
        for required in CATALOG {
            assert!(names.iter().any(|n| n == required), "missing {required}");
        }
    }
}
