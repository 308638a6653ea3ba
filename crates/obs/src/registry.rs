//! The metric catalog: named families of counters, gauges and
//! histograms, rendered as Prometheus text exposition or a JSON
//! snapshot.
//!
//! Registration is idempotent — asking for the same `(name, labels)`
//! series twice hands back the same shared instrument — so independent
//! layers (engine, serve, campaign) can all say
//! `registry.counter("rls_engine_events_total", …)` without coordinating.
//! The registry lock is only held during registration and rendering,
//! never on the record path: instruments are `Arc`s the caller keeps.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram};

/// What a metric family is, for the Prometheus `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Free-moving gauge.
    Gauge,
    /// Log-linear histogram.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Keyed by the rendered label block (`""` or `{k="v",…}`), which
    /// sorts deterministically in the exposition.
    series: BTreeMap<String, Instrument>,
}

/// A registry of named metric families.
///
/// Cloning is cheap (shared interior); all handles observe the same
/// catalog.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Family>>>,
}

/// Renders a label set as `{k="v",…}` (or `""` when empty), escaping
/// backslashes, quotes and newlines per the Prometheus text format.
fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Inserts `extra` as an additional label into an existing rendered
/// label block (used to splice `le` into histogram series).
fn with_extra_label(block: &str, key: &str, value: &str) -> String {
    if block.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        // block ends with '}' — splice before it.
        format!("{},{key}=\"{value}\"}}", &block[..block.len() - 1])
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert<T, F, G>(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: F,
        extract: G,
    ) -> Arc<T>
    where
        F: FnOnce() -> Instrument,
        G: Fn(&Instrument) -> Option<Arc<T>>,
    {
        let mut inner = self.inner.lock().expect("registry poisoned");
        let family = inner.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name} re-registered with a different kind"
        );
        let key = label_block(labels);
        let inst = family.series.entry(key).or_insert_with(make);
        extract(inst).unwrap_or_else(|| {
            panic!("metric {name} re-registered with a different instrument type")
        })
    }

    /// Registers (or retrieves) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a labeled counter series.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or_insert(
            name,
            help,
            MetricKind::Counter,
            labels,
            || Instrument::Counter(Arc::new(Counter::new())),
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or retrieves) a labeled gauge series.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            help,
            MetricKind::Gauge,
            labels,
            || Instrument::Gauge(Arc::new(Gauge::new())),
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or retrieves) a labeled histogram series.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            help,
            MetricKind::Histogram,
            labels,
            || Instrument::Histogram(Arc::new(Histogram::new())),
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// All registered family names, sorted (the metrics-drift check
    /// compares this against the documented catalog).
    pub fn names(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Renders the whole catalog in the Prometheus text exposition
    /// format (version 0.0.4): `# HELP` / `# TYPE` headers, one line per
    /// series, histograms as cumulative `_bucket{le=…}` plus `_sum` and
    /// `_count`.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut out = String::new();
        for (name, family) in inner.iter() {
            let _ = writeln!(out, "# HELP {name} {}", family.help.replace('\n', " "));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, inst) in family.series.iter() {
                match inst {
                    Instrument::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {}", c.get());
                    }
                    Instrument::Gauge(g) => {
                        let _ = writeln!(out, "{name}{labels} {}", g.get());
                    }
                    Instrument::Histogram(h) => {
                        let snap = h.snapshot();
                        for (ub, cum) in snap.cumulative_buckets() {
                            let series = with_extra_label(labels, "le", &ub.to_string());
                            let _ = writeln!(out, "{name}_bucket{series} {cum}");
                        }
                        let inf = with_extra_label(labels, "le", "+Inf");
                        let _ = writeln!(out, "{name}_bucket{inf} {}", snap.count());
                        let _ = writeln!(out, "{name}_sum{labels} {}", snap.sum());
                        let _ = writeln!(out, "{name}_count{labels} {}", snap.count());
                    }
                }
            }
        }
        out
    }

    /// Renders the catalog as a single JSON object: counters and gauges
    /// as numbers, histograms as `{count, sum, max, mean, p50, p90, p99}`
    /// objects, keyed by `name` or `name{labels}`.
    pub fn snapshot_json(&self) -> String {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut out = String::from("{");
        let mut first = true;
        for (name, family) in inner.iter() {
            for (labels, inst) in family.series.iter() {
                if !first {
                    out.push(',');
                }
                first = false;
                let key = format!("{name}{labels}").replace('"', "'");
                let _ = write!(out, "\"{key}\":");
                match inst {
                    Instrument::Counter(c) => {
                        let _ = write!(out, "{}", c.get());
                    }
                    Instrument::Gauge(g) => {
                        let _ = write!(out, "{}", g.get());
                    }
                    Instrument::Histogram(h) => {
                        let s = h.snapshot();
                        let _ = write!(
                            out,
                            "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                            s.count(),
                            s.sum(),
                            s.max(),
                            s.mean(),
                            s.value_at_quantile(0.50),
                            s.value_at_quantile(0.90),
                            s.value_at_quantile(0.99),
                        );
                    }
                }
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter("rls_test_total", "a test counter");
        let b = r.counter("rls_test_total", "a test counter");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7, "same series must share one cell");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn labeled_series_are_distinct() {
        let r = Registry::new();
        let x = r.counter_with("rls_probe_total", "probes", &[("policy", "rls")]);
        let y = r.counter_with("rls_probe_total", "probes", &[("policy", "greedy-2")]);
        x.inc();
        y.add(2);
        assert_eq!(x.get(), 1);
        assert_eq!(y.get(), 2);
        assert_eq!(r.names(), vec!["rls_probe_total".to_string()]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("rls_conflict", "first");
        r.gauge("rls_conflict", "second");
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter("rls_events_total", "events applied").add(5);
        r.gauge_with("rls_load", "bin load", &[("bin", "0")]).set(9);
        let h = r.histogram("rls_latency_ns", "latency");
        h.record(1);
        h.record(100);
        h.record(100);
        let text = r.render_prometheus();

        assert!(text.contains("# HELP rls_events_total events applied"));
        assert!(text.contains("# TYPE rls_events_total counter"));
        assert!(text.contains("rls_events_total 5"));
        assert!(text.contains("# TYPE rls_load gauge"));
        assert!(text.contains("rls_load{bin=\"0\"} 9"));
        assert!(text.contains("# TYPE rls_latency_ns histogram"));
        assert!(text.contains("rls_latency_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("rls_latency_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("rls_latency_ns_sum 201"));
        assert!(text.contains("rls_latency_ns_count 3"));

        // Every non-comment line is `name{labels}? value` with a finite
        // numeric value — the shape the drift check depends on.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            let parsed: f64 = value.parse().expect("numeric value");
            assert!(parsed.is_finite(), "non-finite value in line: {line}");
        }
    }

    #[test]
    fn histogram_le_labels_merge_with_series_labels() {
        let r = Registry::new();
        let h = r.histogram_with("rls_stage_ns", "stage time", &[("stage", "parse")]);
        h.record(7);
        let text = r.render_prometheus();
        assert!(text.contains("rls_stage_ns_bucket{stage=\"parse\",le=\"7\"} 1"));
        assert!(text.contains("rls_stage_ns_sum{stage=\"parse\"} 7"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("rls_esc_total", "escape test", &[("path", "a\"b\\c")])
            .inc();
        let text = r.render_prometheus();
        assert!(text.contains("rls_esc_total{path=\"a\\\"b\\\\c\"} 1"));
    }

    #[test]
    fn json_snapshot_is_wellformed() {
        let r = Registry::new();
        r.counter("rls_a_total", "a").add(2);
        let h = r.histogram("rls_b_ns", "b");
        h.record(10);
        let json = r.snapshot_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rls_a_total\":2"));
        assert!(json.contains("\"rls_b_ns\":{\"count\":1,\"sum\":10,\"max\":10"));
        // No trailing comma before the closing brace.
        assert!(!json.contains(",}"));
    }
}
