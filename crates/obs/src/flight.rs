//! The flight recorder: a fixed-size seqlock ring of recent annotated
//! events — the serving layer's black box.
//!
//! Writers (`record`) claim a slot with one `fetch_add` on a global
//! cursor and publish the payload under a per-slot seqlock (odd version
//! while writing, even when stable).  Readers (`dump`) never block
//! writers: a slot whose version is odd or changes mid-read is simply a
//! torn slot and is skipped.  Two writers a full ring lap apart can reach
//! one slot at once (the older one preempted mid-write).  So the writer of
//! lap `k` (sequence number / capacity) claims a slot only from version
//! `2k`, which the writer of lap `k − 1` publishes: it waits for that
//! writer instead of writing beside it, and a slot's records stay in
//! sequence order.  Everything is acquire/release atomics in
//! safe Rust; a record is ~8 uncontended atomic stores, cheap enough to
//! leave on for every engine command.
//!
//! # Ordering protocol
//!
//! The payload stores are `Release` and the payload loads `Acquire` —
//! not `Relaxed`, as a first reading of the classic seqlock might
//! suggest.  With relaxed payload accesses a reader can observe a
//! *newer* payload word between two version loads that both return the
//! old even value (nothing orders the payload reads against the second
//! version check), admitting a mixed-generation record.  Release on
//! each payload store publishes the writer's claim (the odd version
//! bump that program-order precedes it) together with the word, and the
//! acquire payload load joins that knowledge, forcing the reader's
//! second version read to see at least the claim — version mismatch,
//! slot skipped.  The interleaving model checker in `rls-detlint`
//! (`SeqlockModel`, mirroring this protocol op for op) verifies this
//! exhaustively at small sizes and produces the torn-read
//! counterexample whenever any of these orderings is weakened back to
//! `Relaxed`; the multi-thread stress test in `tests/flight_stress.rs`
//! hammers the real ring.  See `docs/DETERMINISM.md`.

use std::sync::atomic::{AtomicU64, Ordering};

/// One recorded event, decoded from a ring slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number of the event (monotone across the run).
    pub seq: u64,
    /// Command kind code (the producer defines the enumeration; the
    /// serve layer uses its `EngineCmd` discriminants).
    pub kind: u64,
    /// First coordinate (bin / source, producer-defined).
    pub a: u64,
    /// Second coordinate (picked flag / dest, producer-defined).
    pub b: u64,
    /// Nanoseconds the command waited in the queue before the engine
    /// picked it up.
    pub queue_ns: u64,
    /// Nanoseconds the engine spent applying the command.
    pub apply_ns: u64,
}

#[derive(Debug)]
struct Slot {
    /// Seqlock version: odd while a writer owns the slot, even when the
    /// payload is stable. Starts at 0 (empty, even).
    version: AtomicU64,
    payload: [AtomicU64; 6],
}

impl Slot {
    fn new() -> Self {
        Self {
            version: AtomicU64::new(0),
            payload: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A fixed-capacity ring buffer of [`FlightEvent`]s; readers never block
/// writers.
///
/// Capacity is rounded up to a power of two. Old events are overwritten
/// once the ring wraps; `dump` returns the surviving window in sequence
/// order.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Slot>,
    mask: u64,
    cursor: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder holding the most recent ~`capacity` events
    /// (rounded up to a power of two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, Slot::new);
        Self {
            slots,
            mask: (cap as u64) - 1,
            cursor: AtomicU64::new(0),
        }
    }

    /// Ring capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        // ORDERING: relaxed — a statistical count; monotonicity comes
        // from fetch_add atomicity, no payload is guarded by it.
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records an event.  Safe from any thread; a writer waits only for
    /// the writer one ring lap earlier on the same slot, which a single
    /// writer never meets.
    pub fn record(&self, kind: u64, a: u64, b: u64, queue_ns: u64, apply_ns: u64) {
        // ORDERING: relaxed — the cursor only allocates sequence
        // numbers; fetch_add atomicity alone makes them unique.
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        // Claim: move the version from `2·lap` (published by the previous
        // lap's writer, or the initial 0) to `2·lap + 1` so readers skip
        // the slot mid-write.  A plain increment is not enough with
        // several writers: two overlapping claims would leave the version
        // even while both write, and a reader would admit a mixed record
        // (the model checker's `increment_claim_tears_with_two_writers`
        // finds that interleaving; `two_writers_a_lap_apart_never_tear`
        // passes this claim).
        // For admission the claim's ordering is immaterial (the Release
        // payload stores below publish it; the model checker's
        // `relaxed_claim_alone_is_still_sound` test pins this); Acquire
        // orders this writer's stores after the previous lap's publish,
        // Release is kept for symmetry with the publish bump.
        let lap = seq >> self.mask.count_ones();
        let free = 2 * lap;
        loop {
            // ORDERING: relaxed on failure — a failed exchange publishes
            // and acquires nothing; the writer yields and retries.
            let (success, failure) = (Ordering::AcqRel, Ordering::Relaxed);
            if slot
                .version
                .compare_exchange(free, free + 1, success, failure)
                .is_ok()
            {
                break;
            }
            std::thread::yield_now();
        }
        // Release on every payload word: publishes the odd claim along
        // with the word, so a reader that acquires any in-flight word is
        // forced to see the claim at its second version check (see the
        // module-level ordering protocol).
        slot.payload[0].store(seq, Ordering::Release);
        slot.payload[1].store(kind, Ordering::Release);
        slot.payload[2].store(a, Ordering::Release);
        slot.payload[3].store(b, Ordering::Release);
        slot.payload[4].store(queue_ns, Ordering::Release);
        slot.payload[5].store(apply_ns, Ordering::Release);
        // Publish: bump back to even; Release makes the payload visible
        // to readers that acquire this even version.
        slot.version.fetch_add(1, Ordering::Release);
    }

    /// Snapshots the ring: every stable slot, decoded and sorted by
    /// sequence number. Slots mid-write (or torn by a concurrent wrap)
    /// are skipped rather than waited on — a dump never stalls the
    /// engine.
    pub fn dump(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 || v1 % 2 == 1 {
                continue; // never written, or a writer is mid-flight
            }
            // Acquire on the payload words: joining the Release payload
            // stores is what forces the v2 check below to observe the
            // claim of any writer whose words we partially read.
            let payload: [u64; 6] =
                std::array::from_fn(|i| slot.payload[i].load(Ordering::Acquire));
            let v2 = slot.version.load(Ordering::Acquire);
            if v1 != v2 {
                continue; // torn read: a writer replaced the slot
            }
            out.push(FlightEvent {
                seq: payload[0],
                kind: payload[1],
                a: payload[2],
                b: payload[3],
                queue_ns: payload[4],
                apply_ns: payload[5],
            });
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(FlightRecorder::new(0).capacity(), 8);
        assert_eq!(FlightRecorder::new(100).capacity(), 128);
        assert_eq!(FlightRecorder::new(1024).capacity(), 1024);
    }

    #[test]
    fn dump_returns_events_in_order() {
        let r = FlightRecorder::new(16);
        for i in 0..10u64 {
            r.record(1, i, 0, i * 10, i * 100);
        }
        let events = r.dump();
        assert_eq!(events.len(), 10);
        for (i, e) in events.iter().enumerate() {
            let i = i as u64;
            assert_eq!(e.seq, i);
            assert_eq!(e.a, i);
            assert_eq!(e.queue_ns, i * 10);
            assert_eq!(e.apply_ns, i * 100);
        }
    }

    #[test]
    fn ring_wraps_and_keeps_the_most_recent_window() {
        let r = FlightRecorder::new(8);
        for i in 0..100u64 {
            r.record(2, i, 0, 0, 0);
        }
        let events = r.dump();
        assert_eq!(events.len(), 8);
        assert_eq!(r.recorded(), 100);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (92..100).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_writers_never_corrupt_a_dump() {
        let r = std::sync::Arc::new(FlightRecorder::new(64));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        // Self-checking payload: a == b == queue == apply.
                        let v = t * 1_000_000 + i;
                        r.record(t, v, v, v, v);
                    }
                })
            })
            .collect();
        // Dump concurrently while writers run.
        for _ in 0..50 {
            for e in r.dump() {
                assert_eq!(e.a, e.b, "torn slot leaked into dump");
                assert_eq!(e.a, e.queue_ns);
                assert_eq!(e.a, e.apply_ns);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        let final_dump = r.dump();
        assert_eq!(final_dump.len(), 64);
        assert_eq!(r.recorded(), 20_000);
        for e in final_dump {
            assert_eq!(e.a, e.b);
        }
    }
}
