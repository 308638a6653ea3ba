//! Model-checker acceptance tests: the shipped `FlightRecorder` seqlock
//! protocol passes exhaustively, with one writer and with two writers a
//! ring lap apart; deliberately weakened orderings and the plain
//! increment claim are caught as torn reads (the mutation tests that
//! prove the checker has teeth); and the sharded metric primitives are
//! exact at small sizes.

// detlint: allow-file(D006) `MemOrder::Relaxed` here is model-checker
// input — the ordering under test — not a real atomic access.

use rls_detlint::check::models::{
    HistogramModel, SeqlockClaim, SeqlockModel, SeqlockOrderings, ShardedCounterModel,
};
use rls_detlint::check::{Checker, MemOrder};

#[test]
fn shipped_seqlock_has_no_torn_reads() {
    // One writer wrapping a slot twice, one reader doing two dump
    // passes: every interleaving and every admissible stale read.
    let n = Checker::default()
        .check(|| SeqlockModel::new(SeqlockOrderings::shipped(), 2, 2))
        .unwrap_or_else(|v| panic!("shipped seqlock produced a counterexample: {v}"));
    // Exhaustiveness sanity: this is a real state space, not a handful
    // of schedules.
    assert!(n > 1_000, "suspiciously small exploration: {n} executions");
}

#[test]
fn weakened_payload_store_is_caught() {
    let mut ord = SeqlockOrderings::shipped();
    ord.payload_store = MemOrder::Relaxed;
    let v = Checker::default()
        .check(|| SeqlockModel::new(ord, 2, 1))
        .expect_err("payload Release→Relaxed must yield a torn read");
    assert!(v.message.contains("torn read"), "got: {}", v.message);
}

#[test]
fn weakened_publish_is_caught() {
    let mut ord = SeqlockOrderings::shipped();
    ord.publish = MemOrder::Relaxed;
    let v = Checker::default()
        .check(|| SeqlockModel::new(ord, 2, 1))
        .expect_err("publish Release→Relaxed must yield a torn read");
    assert!(v.message.contains("torn read"), "got: {}", v.message);
}

#[test]
fn weakened_payload_load_is_caught() {
    let mut ord = SeqlockOrderings::shipped();
    ord.payload_load = MemOrder::Relaxed;
    let v = Checker::default()
        .check(|| SeqlockModel::new(ord, 2, 1))
        .expect_err("payload load Acquire→Relaxed must yield a torn read");
    assert!(v.message.contains("torn read"), "got: {}", v.message);
}

#[test]
fn weakened_version_load_is_caught() {
    let mut ord = SeqlockOrderings::shipped();
    ord.version_load = MemOrder::Relaxed;
    let v = Checker::default()
        .check(|| SeqlockModel::new(ord, 2, 1))
        .expect_err("version load Acquire→Relaxed must yield a torn read");
    assert!(v.message.contains("torn read"), "got: {}", v.message);
}

#[test]
fn relaxed_claim_alone_is_still_sound() {
    // The claim's ordering is irrelevant to admission: the writer's
    // program order puts it in the view its Release payload stores
    // publish.
    // Documented here so nobody "fixes" it to SeqCst.
    let mut ord = SeqlockOrderings::shipped();
    ord.claim = MemOrder::Relaxed;
    Checker::default()
        .check(|| SeqlockModel::new(ord, 2, 1))
        .expect("claim ordering does not participate in reader admission");
}

#[test]
fn two_writers_a_lap_apart_never_tear() {
    // Two writers on a one-slot ring: the second record's writer claims
    // only once the first has published, in every interleaving.
    let n = Checker::default()
        .check(|| SeqlockModel::with_writers(SeqlockOrderings::shipped(), 2, 2, 1))
        .unwrap_or_else(|v| panic!("two-writer seqlock produced a counterexample: {v}"));
    assert!(n > 1_000, "suspiciously small exploration: {n} executions");
}

#[test]
fn increment_claim_tears_with_two_writers() {
    // The claim `FlightRecorder` used to ship: a plain `fetch_add(1)`.
    // Two overlapping claims leave the version even while both write.
    let v = Checker::default()
        .check(|| {
            SeqlockModel::with_writers(SeqlockOrderings::shipped(), 2, 2, 1)
                .with_claim(SeqlockClaim::Increment)
        })
        .expect_err("two increment claims on one slot must yield a torn read");
    assert!(v.message.contains("torn read"), "got: {}", v.message);
}

#[test]
fn increment_claim_is_sound_for_one_writer() {
    // Why the one-writer model never saw the race above.
    Checker::default()
        .check(|| {
            SeqlockModel::new(SeqlockOrderings::shipped(), 2, 2).with_claim(SeqlockClaim::Increment)
        })
        .expect("one writer never overlaps its own claims");
}

#[test]
fn counterexample_traces_replay_deterministically() {
    let mut ord = SeqlockOrderings::shipped();
    ord.publish = MemOrder::Relaxed;
    let a = Checker::default()
        .check(|| SeqlockModel::new(ord, 2, 1))
        .expect_err("mutant");
    let b = Checker::default()
        .check(|| SeqlockModel::new(ord, 2, 1))
        .expect_err("mutant");
    assert_eq!(a.trace, b.trace, "DFS must be deterministic");
    assert_eq!(a.executions, b.executions);
}

#[test]
fn sharded_counter_is_exact_and_monotone() {
    let n = Checker::default()
        .check(ShardedCounterModel::default)
        .unwrap_or_else(|v| panic!("sharded counter violated: {v}"));
    assert!(n > 100, "suspiciously small exploration: {n}");
}

#[test]
fn histogram_record_snapshot_is_coherent() {
    let n = Checker::default()
        .check(|| HistogramModel::new([3, 5]))
        .unwrap_or_else(|v| panic!("histogram violated: {v}"));
    assert!(n > 100, "suspiciously small exploration: {n}");
}

#[test]
fn histogram_batch_record_is_exact_and_coherent() {
    // A `record_all` batch racing a single `record` and a snapshotter.
    let n = Checker::default()
        .check(|| HistogramModel::batched([3, 5]))
        .unwrap_or_else(|v| panic!("histogram batch record violated: {v}"));
    assert!(n > 100, "suspiciously small exploration: {n}");
}
