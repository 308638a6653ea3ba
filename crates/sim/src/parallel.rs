//! A small parallel-map utility for embarrassingly parallel Monte-Carlo
//! trials.
//!
//! The trials of an experiment are independent (each gets its own RNG stream
//! derived from the master seed), so the only parallel structure needed is a
//! fork-join map over trial indices.  We build it on `std::thread::scope`
//! plus an atomic work counter: workers repeatedly claim the next index,
//! compute, and collect `(index, result)` pairs that are merged in order at
//! join time.  Dynamic claiming (rather than static chunking) keeps all
//! cores busy even though balancing times vary wildly between trials —
//! exactly the load-imbalance phenomenon the paper studies, showing up in
//! our own harness.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f(i)` for every `i in 0..count` on `threads` worker threads and
/// collect the results in index order.
///
/// `threads == 0` or `threads == 1`, or a trivially small `count`, falls
/// back to a sequential loop (no thread setup cost).
///
/// Panics in the closure propagate: the scope joins all workers and
/// re-raises, so a failing trial cannot be silently dropped.
pub fn parallel_map<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    if threads <= 1 || count == 1 {
        return (0..count).map(f).collect();
    }
    let threads = threads.min(count);
    let next = AtomicUsize::new(0);
    let f = &f;

    let mut pairs: Vec<(usize, T)> = Vec::with_capacity(count);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        // ORDERING: relaxed — a work-stealing index; each
                        // task is claimed exactly once by atomicity alone.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            return local;
                        }
                        local.push((i, f(i)));
                    }
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => pairs.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    into_index_order(count, pairs)
}

/// Reassemble worker-local `(index, value)` pairs into index order.
fn into_index_order<T>(count: usize, mut pairs: Vec<(usize, T)>) -> Vec<T> {
    debug_assert_eq!(pairs.len(), count, "every index computed exactly once");
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

/// Number of worker threads to use by default: the available parallelism,
/// capped so laptop-scale runs stay responsive.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        let v: Vec<u32> = parallel_map(0, 4, |_| unreachable!());
        assert!(v.is_empty());
    }

    #[test]
    fn sequential_fallback_matches() {
        let seq: Vec<usize> = parallel_map(10, 1, |i| i * i);
        assert_eq!(seq, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_results_are_in_order() {
        let v: Vec<usize> = parallel_map(200, 4, |i| i * 3);
        assert_eq!(v, (0..200).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let v: Vec<usize> = parallel_map(3, 64, |i| i);
        assert_eq!(v, vec![0, 1, 2]);
    }

    #[test]
    fn uneven_work_is_completed() {
        // Simulate wildly varying per-item cost; all results must be present.
        let v: Vec<u64> = parallel_map(64, 8, |i| {
            let mut acc = 0u64;
            for k in 0..(i as u64 % 7) * 10_000 {
                acc = acc.wrapping_add(k);
            }
            acc.wrapping_add(i as u64)
        });
        assert_eq!(v.len(), 64);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(16, 4, |i| {
                if i == 7 {
                    panic!("trial failed");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert!(default_threads() <= 16);
    }
}
