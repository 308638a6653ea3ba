//! Booting an engine allocates its counted tree and little else.
//!
//! This binary installs a counting global allocator.  Beyond the
//! caller's `Config` (which becomes the tree's leaves), a unit
//! `LiveEngine::with_policy` on the complete graph may allocate the
//! tree's interior words, the load tracker's histogram table and 64 KiB
//! of slack: a churn-free membership keeps no per-bin array, and the
//! tracker is built from runs of equal loads.  After one `AddBin` the
//! membership holds its arrays, answers like the eager boot-time model,
//! and the engine runs on.
//!
//! Counts are kept per thread, so the ignored 2²³-bin case may run beside
//! the 2²⁰-bin one (`--include-ignored`) without either seeing the other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rls_core::{Config, RebalancePolicy};
use rls_graph::Topology;
use rls_live::{LiveCommand, LiveEngine, LiveParams};
use rls_rng::rng_from_seed;
use rls_workloads::ArrivalProcess;

/// The system allocator, counting the bytes each thread requests.
struct Counting;

thread_local! {
    /// Bytes requested by allocations and reallocations on this thread.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Counts `size` requested bytes on the calling thread.
fn tally(size: usize) {
    // A const-initialized `Cell` has no destructor, so the slot is there
    // for the whole life of the thread and reading it never allocates.
    BYTES.with(|bytes| bytes.set(bytes.get() + size));
}

// Every method forwards to `System` with the caller's arguments
// unchanged; the only addition is `tally`, which neither allocates nor
// touches the memory handed out.
// SAFETY: so `Counting` upholds exactly the contract `System` does.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `alloc` contract is passed on unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: `layout` is the caller's, non-zero-sized as required.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `alloc_zeroed` contract is passed on unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: `layout` is the caller's, non-zero-sized as required.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller's `realloc` contract is passed on unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: `ptr` came from `System` (through us) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller's `dealloc` contract is passed on unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (through us) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `run`'s result and the bytes it requested on this thread.
fn counted<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.with(Cell::get);
    let out = run();
    (out, BYTES.with(Cell::get) - before)
}

/// Bytes of the counted tree's interior over `capacity` leaf slots: one
/// `u64` per 8-slot block on each level above the leaves, padded to
/// whole 8-word nodes, up to a single root node.
fn interior_bytes(capacity: usize) -> usize {
    let (mut nodes, mut words) = (capacity.div_ceil(8), 0);
    while nodes > 1 {
        nodes = nodes.div_ceil(8);
        words += nodes * 8;
    }
    words * 8
}

/// The tracker's histogram table for one distinct load: its minimum of
/// eight `(load, bins)` slots.
const TRACKER_TABLE: usize = 8 * 16;

/// Slack for the small fixed-size parts of an engine.
const SLACK: usize = 64 << 10;

fn boot_then_scale(n: usize) {
    let initial = Config::uniform(n, 16).unwrap();
    let params = LiveParams::balanced(
        ArrivalProcess::Poisson { rate_per_bin: 1.0 },
        n,
        16 * n as u64,
    )
    .unwrap();
    let (engine, bytes) = counted(|| {
        LiveEngine::with_policy(
            initial,
            params,
            RebalancePolicy::rls(),
            Topology::Complete,
            3,
        )
    });
    let mut engine = engine.unwrap();
    let budget = interior_bytes(n.next_power_of_two()) + TRACKER_TABLE + SLACK;
    assert!(
        bytes <= budget,
        "booting {n} bins requested {bytes} bytes beyond the loads; budget {budget}"
    );

    let mut rng = rng_from_seed(5);
    engine
        .apply(&LiveCommand::AddBin { warm: false }, &mut rng)
        .unwrap();
    // The eager model after one join: ids `0..=n` live, in id order.
    let membership = engine.membership();
    assert_eq!(membership.epoch(), 1);
    assert_eq!(membership.capacity(), n + 1);
    assert_eq!(membership.live_count(), n + 1);
    assert!(membership.iter().eq(0..=n));
    assert!((0..=n).all(|k| membership.live_at(k) == k && membership.is_live(k)));
    assert!(!membership.is_live(n + 1));

    for _ in 0..10_000 {
        engine.step(&mut rng).unwrap();
    }
    assert!(engine.index().matches(engine.config()));
    assert!(engine
        .tracker()
        .matches_live(engine.config(), engine.membership()));
}

/// The one counting test at the default size (the ignored case below is
/// the release-only 2²³-bin run).
#[test]
fn a_unit_engine_boots_with_its_tree_and_no_per_bin_membership() {
    boot_then_scale(1 << 20);
}

#[test]
#[ignore = "2^23 bins: about 0.3 GiB; run in release with --ignored"]
fn a_unit_engine_boots_lean_at_2_pow_23_bins() {
    boot_then_scale(1 << 23);
}
