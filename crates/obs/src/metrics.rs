//! Atomic instruments: counters, gauges and the log-linear histogram.
//!
//! Everything here is a write-only tap: recording is a handful of relaxed
//! atomic operations, never a lock, never an allocation, and never a
//! branch whose outcome leaks back into the caller.  That is what lets
//! the runtime crates leave instruments attached on hot paths while the
//! bit-identity tests demand unchanged trajectories.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
///
/// All operations use relaxed ordering: metrics are statistical, not a
/// synchronization primitive.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (wrapping; counters are u64 and overflow is a
    /// theoretical concern only).
    #[inline]
    pub fn add(&self, n: u64) {
        // ORDERING: relaxed — statistical counter; exactness needs only
        // fetch_add atomicity, nothing is published through it.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ORDERING: relaxed — a telemetry read; may lag concurrent adds.
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depth, live bins).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        // ORDERING: relaxed — gauges guard no other data; last write wins.
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // ORDERING: relaxed — see `set`; atomicity alone keeps the sum.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero (a racy saturation: concurrent
    /// mixed add/sub may transiently read stale values, which is
    /// acceptable for telemetry).
    #[inline]
    pub fn sub(&self, n: u64) {
        // ORDERING: relaxed — the CAS loop needs only atomicity; the
        // saturation itself is documented as racy telemetry above.
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            // ORDERING: relaxed — atomicity only, as above.
            match self
                .value
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ORDERING: relaxed — a telemetry read; may lag concurrent writes.
        self.value.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution bits for the log-linear layout: each power-of-two
/// range is split into `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 4;
/// Sub-buckets per power-of-two range.
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Values below `2^(SUB_BITS + 1)` get exact (width-1) buckets; above
/// that, buckets widen geometrically.
const FIRST_LOG_RANGE: u32 = SUB_BITS + 1;
/// Total bucket count covering the full `u64` range:
/// `2 * SUB_BUCKETS` exact buckets for values `< 2^(SUB_BITS+1)`, then
/// `SUB_BUCKETS` per remaining power-of-two range.
const NUM_BUCKETS: usize = (2 * SUB_BUCKETS + (64 - FIRST_LOG_RANGE as u64) * SUB_BUCKETS) as usize;

/// Values [`Histogram::record_all`] sorts into bucket runs at a time (a
/// stack buffer of indices, so a batch record allocates nothing).
const RECORD_CHUNK: usize = 64;

/// A lock-free log-linear histogram over `u64` values.
///
/// Layout (HdrHistogram-style): values below `2^(SUB_BITS+1) = 32` land
/// in exact width-1 buckets; each higher power-of-two range `[2^k, 2^(k+1))`
/// is split into 16 linear sub-buckets, so any reported quantile is within
/// [`Histogram::MAX_RELATIVE_ERROR`] of the true value.  Recording is two
/// relaxed `fetch_add`s plus a `fetch_max`; snapshots are consistent
/// enough for telemetry (buckets are read without a barrier, so a
/// snapshot taken mid-record can be off by in-flight samples).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Worst-case relative error of any reported quantile: half a
    /// sub-bucket width, `1 / 2^SUB_BITS = 6.25%`.
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / SUB_BUCKETS as f64;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, || AtomicU64::new(0));
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for `value`.
    #[inline]
    fn bucket_index(value: u64) -> usize {
        // bit_len = position of the highest set bit + 1 (0 for value 0).
        let bit_len = 64 - value.leading_zeros();
        if bit_len <= FIRST_LOG_RANGE {
            // Exact region: one bucket per integer value.
            value as usize
        } else {
            // Range [2^(bit_len-1), 2^bit_len), split into SUB_BUCKETS
            // linear sub-buckets of width 2^(bit_len-1-SUB_BITS).
            let log = bit_len - 1; // floor(log2(value)) >= FIRST_LOG_RANGE
            let sub = (value >> (log - SUB_BITS)) & (SUB_BUCKETS - 1);
            let base = 2 * SUB_BUCKETS + (log - FIRST_LOG_RANGE) as u64 * SUB_BUCKETS;
            (base + sub) as usize
        }
    }

    /// Inclusive upper bound of bucket `index` (the largest value that
    /// maps to it).
    fn bucket_upper_bound(index: usize) -> u64 {
        let i = index as u64;
        if i < 2 * SUB_BUCKETS {
            i
        } else {
            let rel = i - 2 * SUB_BUCKETS;
            let log = FIRST_LOG_RANGE + (rel / SUB_BUCKETS) as u32;
            let sub = rel % SUB_BUCKETS;
            let width = 1u64 << (log - SUB_BITS);
            // Start of the range plus (sub+1) sub-bucket widths, minus 1
            // — subtracted first so the top bucket (which ends exactly at
            // u64::MAX) doesn't overflow.
            ((1u64 << log) - 1) + (sub + 1) * width
        }
    }

    /// Records one observation. Lock-free; safe from any thread.
    #[inline]
    pub fn record(&self, value: u64) {
        // The four fields are deliberately not a consistent tuple while
        // writers run; snapshot() re-derives count from buckets, and
        // HistogramModel checks exactness at quiesce.
        // ORDERING: relaxed — atomicity is all the tuple story needs.
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        // ORDERING: relaxed — fetch_max atomicity keeps the running max.
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records `n` observations of `value` at once: the same buckets,
    /// count, sum and max as `n` calls of [`record`](Self::record), for
    /// the price of one.  `n == 0` records nothing.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        // ORDERING: relaxed — as in `record`.
        self.buckets[Self::bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
        // ORDERING: relaxed — fetch_max atomicity keeps the running max.
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records every value of `values`: the same buckets, count, sum and
    /// max as one [`record`](Self::record) per value, with one
    /// `fetch_add` per distinct bucket (per 64 values) and
    /// the count, sum and max once.  A writer that gathers its samples
    /// in a plain buffer touches the shared cache lines once per flush
    /// instead of four times per sample.  An empty slice records nothing.
    pub fn record_all(&self, values: &[u64]) {
        if values.is_empty() {
            return;
        }
        let (mut sum, mut max) = (0u64, 0u64);
        let mut indices = [0usize; RECORD_CHUNK];
        for chunk in values.chunks(RECORD_CHUNK) {
            let indices = &mut indices[..chunk.len()];
            for (index, &value) in indices.iter_mut().zip(chunk) {
                *index = Self::bucket_index(value);
                sum = sum.wrapping_add(value);
                max = max.max(value);
            }
            // Equal buckets become runs: one add per run.
            indices.sort_unstable();
            let mut run = 0;
            for end in 1..=indices.len() {
                if end == indices.len() || indices[end] != indices[run] {
                    // ORDERING: relaxed — as in `record`.
                    self.buckets[indices[run]].fetch_add((end - run) as u64, Ordering::Relaxed);
                    run = end;
                }
            }
        }
        // ORDERING: relaxed — as in `record`.
        self.count.fetch_add(values.len() as u64, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        // ORDERING: relaxed — fetch_max atomicity keeps the running max.
        self.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        // ORDERING: relaxed — telemetry read; may trail in-flight records.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wraps on overflow past `u64::MAX`).
    pub fn sum(&self) -> u64 {
        // ORDERING: relaxed — telemetry read; may trail in-flight records.
        self.sum.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time snapshot suitable for merging and quantile
    /// queries.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ORDERING: relaxed — each bucket is read atomically; the scan
        // as a whole is a racing estimate made coherent below.
        let read = |b: &AtomicU64| b.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self.buckets.iter().map(read).collect();
        // Derive count/sum from buckets where possible so the snapshot is
        // internally consistent even if records race the scan: count is
        // the bucket total; sum/max are the (possibly slightly ahead)
        // atomics, clamped to plausible values by the merge consumers.
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            // ORDERING: relaxed — see the scan above; consumers treat sum
            // and max as possibly slightly ahead of the bucket total.
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (identity element for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observed value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of observed values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges `other` into `self` (bucket-wise addition; max of maxes).
    /// Associative and commutative, with [`empty`](Self::empty) as
    /// identity, so per-thread snapshots combine in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the `ceil(q * count)`-th observation. Returns 0 for an
    /// empty snapshot. Monotone in `q` and within
    /// [`Histogram::MAX_RELATIVE_ERROR`] of the exact order statistic.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The true max is exact; never report past it.
                return Histogram::bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Iterates `(upper_bound_inclusive, cumulative_count)` over
    /// non-empty buckets — the shape Prometheus `le` buckets need.
    pub fn cumulative_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut cum = 0u64;
        self.buckets.iter().enumerate().filter_map(move |(i, &c)| {
            if c == 0 {
                None
            } else {
                cum += c;
                Some((Histogram::bucket_upper_bound(i), cum))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);

        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
        g.sub(100);
        assert_eq!(g.get(), 0, "gauge saturates at zero");
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        // Every probed value must map to a bucket whose upper bound is
        // >= the value, and the *previous* bucket's bound must be < it.
        let probes: Vec<u64> = (0..200)
            .chain((1..60).map(|k| (1u64 << k.min(63)) - 1))
            .chain((1..60).map(|k| 1u64 << k.min(63)))
            .chain((1..60).map(|k| (1u64 << k.min(63)) + 1))
            .chain([u64::MAX, u64::MAX - 1, 123_456_789, 999_999_999_999])
            .collect();
        for v in probes {
            let i = Histogram::bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for value {v}");
            let ub = Histogram::bucket_upper_bound(i);
            assert!(ub >= v, "upper bound {ub} < value {v} (bucket {i})");
            if i > 0 {
                let prev_ub = Histogram::bucket_upper_bound(i - 1);
                assert!(
                    prev_ub < v,
                    "prev bound {prev_ub} >= value {v} (bucket {i})"
                );
            }
        }
    }

    #[test]
    fn bucket_bounds_are_strictly_increasing() {
        let mut prev = None;
        for i in 0..NUM_BUCKETS {
            let ub = Histogram::bucket_upper_bound(i);
            if let Some(p) = prev {
                assert!(ub > p, "bounds not increasing at bucket {i}: {p} !< {ub}");
            }
            prev = Some(ub);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for v in 0..32u64 {
            // Quantile that lands exactly on the (v+1)-th observation.
            let q = (v + 1) as f64 / 32.0;
            assert_eq!(s.value_at_quantile(q), v, "small value {v} not exact");
        }
    }

    /// Brute-force reference: sort the raw values and index the order
    /// statistic directly.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let target = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[target - 1]
    }

    #[test]
    fn quantiles_match_brute_force_within_error_bound() {
        // Deterministic pseudo-random values spanning several decades.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut values = Vec::new();
        let h = Histogram::new();
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 10_000_000; // up to 10ms in nanos
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        let s = h.snapshot();
        assert_eq!(s.count(), 5000);
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&values, q);
            let approx = s.value_at_quantile(q);
            assert!(approx >= exact, "q={q}: approx {approx} < exact {exact}");
            let err = (approx - exact) as f64 / (exact.max(1)) as f64;
            assert!(
                err <= Histogram::MAX_RELATIVE_ERROR + 1e-9,
                "q={q}: err {err} exceeds bound (approx {approx}, exact {exact})"
            );
        }
        assert_eq!(s.max(), *values.last().unwrap());
        assert_eq!(s.sum(), values.iter().sum::<u64>());
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let h = Histogram::new();
        let mut x = 0x243f6a8885a308d3u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(x >> 40);
        }
        let s = h.snapshot();
        let mut prev = 0u64;
        for i in 0..=1000 {
            let q = i as f64 / 1000.0;
            let v = s.value_at_quantile(q);
            assert!(v >= prev, "quantile not monotone at q={q}: {v} < {prev}");
            prev = v;
        }
        assert_eq!(s.value_at_quantile(1.0), s.max());
    }

    #[test]
    fn merge_is_associative_and_commutative_with_identity() {
        let mk = |seed: u64, n: u64| {
            let h = Histogram::new();
            let mut x = seed;
            for _ in 0..n {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                h.record(x >> 32);
            }
            h.snapshot()
        };
        let a = mk(1, 300);
        let b = mk(2, 500);
        let c = mk(3, 700);

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge not associative");

        // a ⊕ b == b ⊕ a
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge not commutative");

        // identity
        let mut ae = a.clone();
        ae.merge(&HistogramSnapshot::empty());
        assert_eq!(ae, a, "empty not an identity");

        assert_eq!(ab_c.count(), 1500);
    }

    #[test]
    fn record_n_equals_n_single_records() {
        let mut x = 0x5851f42d4c957f2du64;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Values across the exact and the log-linear ranges, repeat
            // counts from 0 up.
            let value = (x >> 33) >> (x % 31);
            let n = (x >> 7) % 40;
            let (batched, single) = (Histogram::new(), Histogram::new());
            batched.record(3);
            single.record(3);
            batched.record_n(value, n);
            for _ in 0..n {
                single.record(value);
            }
            let (b, s) = (batched.snapshot(), single.snapshot());
            assert_eq!(b, s, "value {value}, n {n}");
            assert_eq!((b.count(), b.sum(), b.max()), (s.count(), s.sum(), s.max()));
        }
        let h = Histogram::new();
        h.record_n(u64::MAX, 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::empty(), "n = 0 is a no-op");
    }

    #[test]
    fn record_all_equals_one_record_per_value() {
        let mut x = 0x2545f4914f6cdd1du64;
        // Lengths around the chunk size; values clustered (shared
        // buckets) and spread over the exact and log-linear ranges.
        for len in [1usize, 2, 16, 63, 64, 65, 200] {
            let values: Vec<u64> = (0..len)
                .map(|i| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if i % 3 == 0 {
                        x % 40
                    } else {
                        (x >> 33) >> (x % 31)
                    }
                })
                .collect();
            let (batched, single) = (Histogram::new(), Histogram::new());
            batched.record(7);
            single.record(7);
            batched.record_all(&values);
            for &v in &values {
                single.record(v);
            }
            let (b, s) = (batched.snapshot(), single.snapshot());
            assert_eq!(b, s, "len {len}");
            assert_eq!((b.count(), b.sum(), b.max()), (s.count(), s.sum(), s.max()));
        }
        let h = Histogram::new();
        h.record_all(&[]);
        assert_eq!(h.snapshot(), HistogramSnapshot::empty(), "empty is a no-op");
    }

    #[test]
    fn merged_quantiles_equal_combined_recording() {
        // Recording the union into one histogram must equal merging the
        // two snapshots: quantiles read from a merge of per-thread
        // histograms are those of the combined recording.
        let h1 = Histogram::new();
        let h2 = Histogram::new();
        let hu = Histogram::new();
        let mut x = 77u64;
        for i in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x >> 35;
            if i % 2 == 0 {
                h1.record(v);
            } else {
                h2.record(v);
            }
            hu.record(v);
        }
        let mut merged = h1.snapshot();
        merged.merge(&h2.snapshot());
        assert_eq!(merged, hu.snapshot());
    }
}
