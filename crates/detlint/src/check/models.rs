// detlint: allow-file(D006) models reference the checker's MemOrder
// vocabulary; every ordering below is itself the subject under test.
//! Model programs for the workspace's lock-free observability
//! primitives: the `FlightRecorder` seqlock, the `ShardedCounter`, and
//! the `Histogram` record/snapshot pair from `crates/obs`.
//!
//! Each model mirrors its real counterpart operation-for-operation (one
//! modeled atomic per real atomic, same orderings; a retry loop is a
//! blocked thread, see [`Program::blocked`]) at a deliberately
//! tiny size so the checker can enumerate every interleaving *and*
//! every stale-read choice.  The orderings are parameters, which is how
//! the mutation tests prove the checker has teeth: weaken one `Release`
//! to `Relaxed` and the torn read the real code is protected against
//! must surface as a counterexample.

use super::{Env, MemOrder, Program};

/// Orderings of the seqlock protocol in `crates/obs/src/flight.rs`.
#[derive(Debug, Clone, Copy)]
pub struct SeqlockOrderings {
    /// Writer moves the version to odd before touching the payload (the
    /// success ordering of the claim's compare-exchange).
    pub claim: MemOrder,
    /// Writer's payload word stores.
    pub payload_store: MemOrder,
    /// Writer bumps the version back to even.
    pub publish: MemOrder,
    /// Reader's two version loads.
    pub version_load: MemOrder,
    /// Reader's payload word loads.
    pub payload_load: MemOrder,
}

impl SeqlockOrderings {
    /// The orderings `FlightRecorder` ships with.
    pub fn shipped() -> Self {
        Self {
            claim: MemOrder::AcqRel,
            payload_store: MemOrder::Release,
            publish: MemOrder::Release,
            version_load: MemOrder::Acquire,
            payload_load: MemOrder::Acquire,
        }
    }
}

/// How a writer claims its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqlockClaim {
    /// What `FlightRecorder` ships: compare-exchange the version from
    /// `2·lap` (the previous lap's publish) to `2·lap + 1`, waiting while
    /// the previous lap's writer still holds the slot.
    FromLap,
    /// A plain `fetch_add(1)`: sound for one writer, but two writers a lap
    /// apart can both claim the slot and leave its version even while
    /// they write.  Kept as the mutation the two-writer model catches.
    Increment,
}

/// Number of payload words in the seqlock model (the real slot has 6;
/// two words already expose every tearing mode).
pub const SEQLOCK_WORDS: usize = 2;

const VERSION: usize = 0;
const PAYLOAD0: usize = 1;
const CURSOR: usize = 1 + SEQLOCK_WORDS;

/// Writer threads recording `generations` events into a one-slot ring
/// (every record is a lap onto the same slot) racing one reader
/// performing `passes` `dump`-style reads.
///
/// Each writer takes sequence numbers from the shared cursor (a relaxed
/// `fetch_add`, as `record` does) until they run out.  The record with
/// sequence number `s` is lap `s`: it writes `s + 1` into every payload
/// word and publishes version `2(s + 1)`.  An admitted read (`v1 == v2`,
/// even, non-zero) must decode payload words all equal to `v1 / 2` —
/// anything else is a torn read.
#[derive(Debug)]
pub struct SeqlockModel {
    ord: SeqlockOrderings,
    claim: SeqlockClaim,
    generations: u64,
    passes: usize,
    /// Per writer: the record in hand (its sequence number), sub-step
    /// within it, and whether the cursor ran out.
    w_seq: Vec<u64>,
    w_sub: Vec<usize>,
    w_done: Vec<bool>,
    /// Reader state: pass index, sub-step, captured v1 and payload.
    r_pass: usize,
    r_sub: usize,
    r_v1: u64,
    r_payload: [u64; SEQLOCK_WORDS],
    /// First torn read observed, if any.
    torn: Option<String>,
    /// Admitted (consistent) reads, for sanity assertions.
    admitted: usize,
}

impl SeqlockModel {
    /// One writer publishing `generations` records, one reader doing
    /// `passes` dump passes.
    pub fn new(ord: SeqlockOrderings, generations: u64, passes: usize) -> Self {
        Self::with_writers(ord, 1, generations, passes)
    }

    /// `writers` writer threads sharing `generations` records, one reader
    /// doing `passes` dump passes.
    pub fn with_writers(
        ord: SeqlockOrderings,
        writers: usize,
        generations: u64,
        passes: usize,
    ) -> Self {
        Self {
            ord,
            claim: SeqlockClaim::FromLap,
            generations,
            passes,
            w_seq: vec![0; writers],
            w_sub: vec![0; writers],
            w_done: vec![false; writers],
            r_pass: 0,
            r_sub: 0,
            r_v1: 0,
            r_payload: [0; SEQLOCK_WORDS],
            torn: None,
            admitted: 0,
        }
    }

    /// The same model with another claim step.
    pub fn with_claim(mut self, claim: SeqlockClaim) -> Self {
        self.claim = claim;
        self
    }

    /// Number of reads that passed the version check.
    pub fn admitted(&self) -> usize {
        self.admitted
    }

    fn writers(&self) -> usize {
        self.w_seq.len()
    }

    fn write_step(&mut self, w: usize, env: &mut Env<'_>) {
        // Writer: take a sequence number, claim, payload words, publish.
        let seq = self.w_seq[w];
        match self.w_sub[w] {
            0 => {
                let next = env.fetch_add(w, CURSOR, 1, MemOrder::Relaxed);
                if next >= self.generations {
                    self.w_done[w] = true;
                } else {
                    self.w_seq[w] = next;
                    self.w_sub[w] = 1;
                }
            }
            1 => {
                let claimed = match self.claim {
                    SeqlockClaim::FromLap => env
                        .compare_exchange(
                            w,
                            VERSION,
                            2 * seq,
                            2 * seq + 1,
                            self.ord.claim,
                            MemOrder::Relaxed,
                        )
                        .is_ok(),
                    SeqlockClaim::Increment => {
                        env.fetch_add(w, VERSION, 1, self.ord.claim);
                        true
                    }
                };
                if claimed {
                    self.w_sub[w] = 2;
                }
            }
            s if s <= 1 + SEQLOCK_WORDS => {
                env.store(w, PAYLOAD0 + (s - 2), seq + 1, self.ord.payload_store);
                self.w_sub[w] = s + 1;
            }
            _ => {
                env.fetch_add(w, VERSION, 1, self.ord.publish);
                self.w_sub[w] = 0;
            }
        }
    }

    fn read_step(&mut self, tid: usize, env: &mut Env<'_>) {
        // Reader: v1, payload words, v2 + admission check.
        match self.r_sub {
            0 => {
                self.r_v1 = env.load(tid, VERSION, self.ord.version_load);
                if self.r_v1 == 0 || self.r_v1 % 2 == 1 {
                    // Empty or mid-write: the real dump skips the slot.
                    self.r_pass += 1;
                } else {
                    self.r_sub = 1;
                }
            }
            s if s <= SEQLOCK_WORDS => {
                self.r_payload[s - 1] = env.load(tid, PAYLOAD0 + (s - 1), self.ord.payload_load);
                self.r_sub = s + 1;
            }
            _ => {
                let v2 = env.load(tid, VERSION, self.ord.version_load);
                if v2 == self.r_v1 {
                    self.admitted += 1;
                    let expect = self.r_v1 / 2;
                    if self.r_payload.iter().any(|&w| w != expect) {
                        self.torn.get_or_insert_with(|| {
                            format!(
                                "torn read admitted: version {} but payload {:?} (expected all {})",
                                self.r_v1, self.r_payload, expect
                            )
                        });
                    }
                }
                self.r_sub = 0;
                self.r_pass += 1;
            }
        }
    }
}

impl Program for SeqlockModel {
    fn locs(&self) -> usize {
        2 + SEQLOCK_WORDS
    }
    fn threads(&self) -> usize {
        self.writers() + 1
    }
    fn done(&self, tid: usize) -> bool {
        if tid < self.writers() {
            self.w_done[tid]
        } else {
            self.r_pass >= self.passes
        }
    }

    fn blocked(&self, tid: usize, env: &Env<'_>) -> bool {
        // A `FromLap` claim retries (yielding) until the previous lap's
        // writer has published `2·seq`.
        tid < self.writers()
            && self.claim == SeqlockClaim::FromLap
            && self.w_sub[tid] == 1
            && env.latest(VERSION) != 2 * self.w_seq[tid]
    }

    fn step(&mut self, tid: usize, env: &mut Env<'_>) {
        if tid < self.writers() {
            self.write_step(tid, env);
        } else {
            self.read_step(tid, env);
        }
    }

    fn check(&self, env: &Env<'_>) -> Result<(), String> {
        if let Some(t) = &self.torn {
            return Err(t.clone());
        }
        // Ground truth after termination: version counted every bump.
        let v = env.latest(VERSION);
        if v != 2 * self.generations {
            return Err(format!(
                "version lost updates: {} != {}",
                v,
                2 * self.generations
            ));
        }
        Ok(())
    }
}

/// Two writer threads incrementing distinct stripes of a
/// `ShardedCounter` (relaxed RMWs, exactly like `ShardedCounter::add`)
/// racing a reader that sums the stripes twice (`get` back to back).
///
/// Verified: per-reader sums are monotone (coherence), never exceed the
/// total, and the final stripe total is exact — no increment is ever
/// lost, which is the linearizable-as-a-monotone-counter guarantee the
/// merge paths rely on.
#[derive(Debug, Default)]
pub struct ShardedCounterModel {
    w_pc: [usize; 2],
    r_pc: usize,
    partial: u64,
    sums: Vec<u64>,
}

/// Increments per writer thread.
const ADDS_PER_WRITER: usize = 2;

impl Program for ShardedCounterModel {
    fn locs(&self) -> usize {
        2 // one stripe per writer
    }
    fn threads(&self) -> usize {
        3
    }
    fn done(&self, tid: usize) -> bool {
        match tid {
            0 | 1 => self.w_pc[tid] >= ADDS_PER_WRITER,
            _ => self.r_pc >= 4, // two passes x two stripe loads
        }
    }
    fn step(&mut self, tid: usize, env: &mut Env<'_>) {
        if tid < 2 {
            // ORDERING in the real code is Relaxed: only the RMW
            // atomicity matters for a statistical counter.
            env.fetch_add(tid, tid, 1, MemOrder::Relaxed);
            self.w_pc[tid] += 1;
        } else {
            let stripe = self.r_pc % 2;
            let v = env.load(2, stripe, MemOrder::Relaxed);
            self.partial += v;
            if stripe == 1 {
                self.sums.push(self.partial);
                self.partial = 0;
            }
            self.r_pc += 1;
        }
    }
    fn check(&self, env: &Env<'_>) -> Result<(), String> {
        let total = (2 * ADDS_PER_WRITER) as u64;
        if env.latest(0) + env.latest(1) != total {
            return Err(format!(
                "lost increments: {} + {} != {total}",
                env.latest(0),
                env.latest(1)
            ));
        }
        let mut prev = 0u64;
        for &s in &self.sums {
            if s > total {
                return Err(format!("sum {s} exceeds total {total}"));
            }
            if s < prev {
                return Err(format!("reader sums not monotone: {s} after {prev}"));
            }
            prev = s;
        }
        Ok(())
    }
}

/// Two threads recording into one histogram (bucket, count and sum
/// `fetch_add`s plus a `fetch_max`, all relaxed) racing one snapshotter
/// that reads the buckets and derives the count from them — exactly what
/// `Histogram::snapshot` does.  Each writer runs either
/// `Histogram::record` of one value or `Histogram::record_all` of a batch
/// (one `fetch_add` per distinct bucket, then count, sum and max once).
///
/// Verified: each snapshot's derived count never exceeds the records
/// started, snapshots are bucket-wise monotone, and the final state is
/// exact (count, sum, max, and per-bucket totals all agree with the
/// recorded values) — which is why merging per-thread snapshots equals
/// recording the union, and why a batch record equals its single records.
#[derive(Debug)]
pub struct HistogramModel {
    /// Each writer's values; a writer with several records them as one
    /// batch.
    writes: [Vec<u64>; 2],
    /// Each writer's atomic operations, in program order.
    ops: [Vec<HistogramOp>; 2],
    w_pc: [usize; 2],
    r_pc: usize,
    partial: u64,
    counts: Vec<u64>,
}

/// One atomic operation of a histogram writer.
#[derive(Debug, Clone, Copy)]
enum HistogramOp {
    Add(usize, u64),
    Max(u64),
}

const H_BUCKET0: usize = 0;
const H_BUCKET1: usize = 1;
const H_COUNT: usize = 2;
const H_SUM: usize = 3;
const H_MAX: usize = 4;

impl HistogramModel {
    /// Each writer records one value; the two land in distinct buckets
    /// (`values[i]` in bucket `i`).
    pub fn new(values: [u64; 2]) -> Self {
        Self::with_writes([vec![values[0]], vec![values[1]]])
    }

    /// Writer 0 records the batch `[a, b, a]` with `record_all` (bucket 0
    /// gets two, bucket 1 one, in one add each); writer 1 records `b`
    /// alone.
    pub fn batched(values: [u64; 2]) -> Self {
        let [a, b] = values;
        Self::with_writes([vec![a, b, a], vec![b]])
    }

    /// Writer `w` records `writes[w]` (one value: `record`; more: one
    /// `record_all`).  Values equal to writer 0's first land in bucket 0,
    /// every other value in bucket 1.
    fn with_writes(writes: [Vec<u64>; 2]) -> Self {
        let bucket_of = |v: u64| usize::from(v != writes[0][0]);
        let ops = writes.clone().map(|values| {
            let mut per_bucket = [0u64; 2];
            for &v in &values {
                per_bucket[bucket_of(v)] += 1;
            }
            let mut ops: Vec<HistogramOp> = (0..2)
                .filter(|&b| per_bucket[b] > 0)
                .map(|b| HistogramOp::Add(H_BUCKET0 + b, per_bucket[b]))
                .collect();
            ops.push(HistogramOp::Add(H_COUNT, values.len() as u64));
            ops.push(HistogramOp::Add(H_SUM, values.iter().sum()));
            ops.push(HistogramOp::Max(values.iter().copied().max().unwrap_or(0)));
            ops
        });
        Self {
            writes,
            ops,
            w_pc: [0; 2],
            r_pc: 0,
            partial: 0,
            counts: Vec::new(),
        }
    }
}

impl Program for HistogramModel {
    fn locs(&self) -> usize {
        5
    }
    fn threads(&self) -> usize {
        3
    }
    fn done(&self, tid: usize) -> bool {
        match tid {
            0 | 1 => self.w_pc[tid] >= self.ops[tid].len(),
            _ => self.r_pc >= 4, // two passes x two bucket loads
        }
    }
    fn step(&mut self, tid: usize, env: &mut Env<'_>) {
        if tid < 2 {
            // ORDERING in the real code is Relaxed throughout `record`
            // and `record_all`.
            match self.ops[tid][self.w_pc[tid]] {
                HistogramOp::Add(loc, v) => env.fetch_add(tid, loc, v, MemOrder::Relaxed),
                HistogramOp::Max(v) => env.fetch_max(tid, H_MAX, v, MemOrder::Relaxed),
            };
            self.w_pc[tid] += 1;
        } else {
            let bucket = self.r_pc % 2;
            let v = env.load(2, H_BUCKET0 + bucket, MemOrder::Relaxed);
            self.partial += v;
            if bucket == 1 {
                self.counts.push(self.partial);
                self.partial = 0;
            }
            self.r_pc += 1;
        }
    }
    fn check(&self, env: &Env<'_>) -> Result<(), String> {
        // Final ground truth: nothing lost, nothing double-counted.
        let all: Vec<u64> = self.writes.iter().flatten().copied().collect();
        let first = self.writes[0][0];
        let in_bucket0 = all.iter().filter(|&&v| v == first).count() as u64;
        let total = all.len() as u64;
        if env.latest(H_BUCKET0) != in_bucket0 || env.latest(H_BUCKET1) != total - in_bucket0 {
            return Err("bucket increments lost".into());
        }
        if env.latest(H_COUNT) != total {
            return Err(format!("count {} != {total}", env.latest(H_COUNT)));
        }
        let sum: u64 = all.iter().sum();
        if env.latest(H_SUM) != sum {
            return Err(format!("sum {} != {sum}", env.latest(H_SUM)));
        }
        let max = all.iter().copied().max().unwrap_or(0);
        if env.latest(H_MAX) != max {
            return Err(format!("max {} != {max}", env.latest(H_MAX)));
        }
        // Snapshot coherence: derived counts within bounds and monotone.
        let mut prev = 0u64;
        for &c in &self.counts {
            if c > total {
                return Err(format!("snapshot derived count {c} > records started"));
            }
            if c < prev {
                return Err(format!("snapshot counts not monotone: {c} after {prev}"));
            }
            prev = c;
        }
        Ok(())
    }
}
