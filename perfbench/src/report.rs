//! Shared measurement helpers: order statistics, batch timers for the
//! per-layer rungs, the hardware/build stamp and the result record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Nearest-rank quantile of a sample (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median of a sample (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Splitmix64 finalizer: derives independent sub-seeds from the workload
/// seed, so one `--seed` fixes every input of a run.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Time a rung: batches of `batch` calls of `call(i)` (`i` indexes the
/// replayed inputs) for about `budget`, at least five batches.  Returns the
/// median nanoseconds per call.  Batching keeps the clock read out of the
/// price of a 20–100 ns call.
pub fn time_rung(budget: Duration, batch: usize, mut call: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || start.elapsed() < budget {
        let t0 = Instant::now();
        for i in 0..batch {
            call(i);
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&mut per_call)
}

/// Median seconds of `times` repetitions of a set-up step.
pub fn time_setup(times: usize, mut setup: impl FnMut()) -> f64 {
    let mut secs: Vec<f64> = (0..times)
        .map(|_| {
            let t0 = Instant::now();
            setup();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut secs)
}

/// Resolution of [`Latencies`]: 64 ns buckets.
const FINE_SHIFT: u32 = 6;
/// Fine buckets cover `[0, 2^20 ns)` ≈ 1 ms; slower samples are kept
/// exactly in an overflow list.
const FINE_BUCKETS: usize = 1 << (20 - FINE_SHIFT);

/// A latency sample in fixed memory: 64 ns buckets up to 1 ms, exact
/// values above.  Memory does not grow with the request count, so a faster
/// server cannot show up as a larger peak RSS.
#[derive(Debug, Clone)]
pub struct Latencies {
    fine: Vec<u32>,
    overflow: Vec<u64>,
    count: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Self {
            fine: vec![0; FINE_BUCKETS],
            overflow: Vec::new(),
            count: 0,
        }
    }
}

impl Latencies {
    pub fn record(&mut self, ns: u64) {
        match self.fine.get_mut((ns >> FINE_SHIFT) as usize) {
            Some(bucket) => *bucket += 1,
            None => self.overflow.push(ns),
        }
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn merge(&mut self, other: &Latencies) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        self.overflow.extend_from_slice(&other.overflow);
        self.count += other.count;
    }

    /// Nearest-rank quantile in nanoseconds (bucket midpoints below 1 ms,
    /// exact above); `None` for an empty sample.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.fine.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some(((i as u64) << FINE_SHIFT) as f64 + (1u64 << (FINE_SHIFT - 1)) as f64);
            }
        }
        self.overflow.sort_unstable();
        Some(self.overflow[(rank - seen - 1) as usize] as f64)
    }
}

/// The end-to-end figures every workload reports (the generalized
/// meanings per workload are documented in `perfbench/README.md`).
/// Rates and latency quantiles are medians over the windows of a run
/// (trials, slices or fixed wall-time windows), so a burst of host noise
/// in one window does not move them.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub activations_per_s: f64,
    pub events_per_s: f64,
    pub requests_per_s: f64,
    pub latency_p50_ns: f64,
    pub latency_p99_ns: f64,
    /// Requests whose latency was sampled.
    pub latency_samples: u64,
    /// Requests answered correctly within the workload's objective.
    pub slo_met: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// One named measurement with its unit and sample count.
#[derive(Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// Everything one run prints: metrics, counts, and the correctness gate.
#[derive(Debug, Default)]
pub struct Record {
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Printed in the table but kept out of the result line: measured, but
    /// not steady enough on a shared host to gate a change on.
    pub ungated: BTreeMap<&'static str, Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks (any entry fails the run).
    pub violations: Vec<String>,
}

impl Record {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Fill in the end-to-end metrics of a finished workload.
    pub fn put_end_to_end(&mut self, e: &EndToEnd) {
        let samples = e.latency_samples;
        self.put("setup_s", e.setup_s, "s", 1);
        self.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
        self.put("activations_per_s", e.activations_per_s, "1/s", samples);
        self.put("events_per_s", e.events_per_s, "1/s", samples);
        self.put("requests_per_s", e.requests_per_s, "1/s", samples);
        self.put("latency_p50_us", e.latency_p50_ns / 1e3, "us", samples);
        self.ungated.insert(
            "latency_p99_us",
            Metric {
                value: e.latency_p99_ns / 1e3,
                unit: "us",
                samples,
            },
        );
        self.put(
            "slo_share",
            e.slo_met as f64 / e.attempted.max(1) as f64,
            "share",
            e.attempted,
        );
        self.attempted = e.attempted;
        self.failed = e.failed;
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let correct = self.violations.is_empty();
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        if correct {
            for (i, (name, m)) in self.metrics.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    out,
                    "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(m.value),
                    m.unit
                );
            }
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number (non-finite values are a bug upstream; they are
/// clamped so the line stays parseable and the gate reports them).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hardware and build stamp printed with every record.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut caches = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        let kind = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        caches.push(format!("\"L{}{kind}\": \"{}\"", level.trim(), size.trim()));
    }
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
         \"nproc\": {nproc}, \"cpu\": \"{}\", \"caches\": {{{}}}, \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        u8::from(trace),
        model.replace('"', "'"),
        caches.join(", "),
        env!("PERFBENCH_RUSTC"),
        git_commit()
    )
}

/// The commit of the checkout, read from `.git` without running git (the
/// benchmark may run from an exported tree, which has none).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
