//! # rls-rng — deterministic random-number substrate
//!
//! Every experiment in this repository must be reproducible from a single
//! 64-bit seed: the paper's claims are statements about distributions of
//! stopping times, and debugging a stochastic-dominance violation is only
//! possible when a trajectory can be replayed bit-for-bit.  This crate
//! therefore provides a small, dependency-free PRNG stack:
//!
//! * [`SplitMix64`] — a tiny generator used to expand seeds and to seed the
//!   main generator (as recommended by the xoshiro authors).
//! * [`Xoshiro256PlusPlus`] — the workhorse generator, with `jump`/
//!   `long_jump` so that independent *streams* can be handed to parallel
//!   Monte-Carlo workers without overlap.
//! * [`StreamFactory`] — derives per-trial, per-component streams from a
//!   master seed.
//! * [`RngExt`] — uniform integers (Lemire rejection, no modulo bias) and
//!   floats on top of any [`Rng64`].
//! * [`dist`] — exact samplers: `Exp(λ)` (the per-ball activation clocks),
//!   Poisson and Zipf (workload generators).
//!
//! Every code path draws from this crate only, so the random stream is
//! fully under our control.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dist;
mod splitmix;
mod stream;
mod xoshiro;

pub use splitmix::SplitMix64;
pub use stream::{StreamFactory, StreamId};
pub use xoshiro::Xoshiro256PlusPlus;

/// Minimal core trait for 64-bit generators.
///
/// All samplers in [`dist`] and all extension helpers in [`RngExt`] are
/// written against this trait so that any generator (including test doubles
/// that replay a fixed sequence) can drive the simulation.
pub trait Rng64 {
    /// Produce the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: Rng64 + ?Sized> Rng64 for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Convenience methods layered on top of [`Rng64`].
pub trait RngExt: Rng64 {
    /// A uniform `f64` in the half-open interval `[0, 1)`.
    ///
    /// Uses the high 53 bits so the result is an exact multiple of 2⁻⁵³,
    /// the standard construction for double-precision uniforms.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // 53 random bits / 2^53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in the open interval `(0, 1)`.
    ///
    /// Useful for inverse-CDF sampling where `ln(0)` must be avoided.
    #[inline]
    fn next_f64_open(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// A uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (no modulo bias).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below: bound must be positive");
        // Lemire, "Fast Random Integer Generation in an Interval" (2019).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform `usize` index in `[0, len)`.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    #[inline]
    fn next_index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[inline]
    fn next_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "next_range_inclusive: empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(span + 1)
    }

    /// A fair coin flip.
    #[inline]
    fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn next_bernoulli(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Sample an index proportionally to the non-negative weights.
    ///
    /// Returns `None` when all weights are zero (or the slice is empty).
    fn next_weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|&w| w > 0.0)
    }
}

impl<R: Rng64 + ?Sized> RngExt for R {}

/// The default generator used across the workspace.
///
/// A type alias so call sites do not hard-code the algorithm choice.
pub type DefaultRng = Xoshiro256PlusPlus;

/// Construct the default generator from a 64-bit seed.
///
/// The seed is expanded through [`SplitMix64`] so that low-entropy seeds
/// (0, 1, 2, …) still yield well-mixed initial states.
pub fn rng_from_seed(seed: u64) -> DefaultRng {
    Xoshiro256PlusPlus::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = rng_from_seed(1);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = rng_from_seed(2);
        for bound in [1u64, 2, 3, 7, 10, 1000, u64::MAX / 2] {
            for _ in 0..1000 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut rng = rng_from_seed(3);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            seen[rng.next_below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        let mut rng = rng_from_seed(4);
        rng.next_below(0);
    }

    #[test]
    fn range_inclusive_endpoints_reachable() {
        let mut rng = rng_from_seed(5);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            match rng.next_range_inclusive(10, 13) {
                10 => lo_seen = true,
                13 => hi_seen = true,
                11 | 12 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = rng_from_seed(6);
        for _ in 0..100 {
            assert!(rng.next_bernoulli(1.0));
            assert!(!rng.next_bernoulli(0.0));
        }
    }

    #[test]
    fn bernoulli_mean_close_to_p() {
        let mut rng = rng_from_seed(7);
        let p = 0.3;
        let trials = 100_000;
        let hits = (0..trials).filter(|_| rng.next_bernoulli(p)).count();
        let mean = hits as f64 / trials as f64;
        assert!((mean - p).abs() < 0.01, "mean {mean} too far from {p}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = rng_from_seed(8);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_index_prefers_heavy_weight() {
        let mut rng = rng_from_seed(9);
        let weights = [0.0, 1.0, 9.0];
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[rng.next_weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[2] > 5 * counts[1]);
    }

    #[test]
    fn weighted_index_all_zero_is_none() {
        let mut rng = rng_from_seed(10);
        assert_eq!(rng.next_weighted_index(&[0.0, 0.0]), None);
        assert_eq!(rng.next_weighted_index(&[]), None);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = rng_from_seed(42);
        let mut b = rng_from_seed(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(2);
        let equal = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(equal < 5);
    }
}
