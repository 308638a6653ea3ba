//! The matching lower bounds of Section 4.
//!
//! *All balls in one bin:* at least `m − ∅` balls must activate, so the
//! expected time is at least `Σ_{k=∅+1}^{m} 1/k = H_m − H_∅ = Ω(ln n)`.
//!
//! *One over, one under:* with one bin at `∅ + 1`, one at `∅ − 1` and every
//! other bin at `∅`, the process finishes exactly when one of the `∅ + 1`
//! balls in the overloaded bin activates *and* samples the underloaded bin —
//! an exponential with rate `(∅ + 1)/n`, so the expected time is
//! `n/(∅ + 1) = Ω(n²/m)`.

use crate::harmonic::harmonic_difference;

/// Expected-time lower bound from the all-balls-in-one-bin instance:
/// `H_m − H_∅` where `∅ = ⌈m/n⌉` (any ball beyond the eventual maximum
/// must activate at least once).
pub fn lower_bound_all_in_one_bin(n: usize, m: u64) -> f64 {
    assert!(n >= 1, "need at least one bin");
    let avg_ceil = m.div_ceil(n as u64);
    harmonic_difference(avg_ceil.min(m), m)
}

/// Expected-time lower bound from the one-over/one-under instance:
/// `n / (∅ + 1)` with `∅ = m/n` (requires `n | m`, which the experiment
/// harness arranges).
pub fn lower_bound_one_over_one_under(n: usize, m: u64) -> f64 {
    assert!(n >= 2, "the instance needs at least two bins");
    assert!(
        m.is_multiple_of(n as u64) && m > 0,
        "the instance needs n | m and m ≥ n"
    );
    let avg = m / n as u64;
    n as f64 / (avg as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_in_one_bin_bound_grows_logarithmically() {
        // For m = c·n the bound is ≈ ln(m/∅) = ln n up to constants.
        let b_small = lower_bound_all_in_one_bin(64, 64 * 8);
        let b_large = lower_bound_all_in_one_bin(4096, 4096 * 8);
        assert!(b_large > b_small);
        // ratio of logs
        let expected_ratio = (4096f64).ln() / (64f64).ln();
        let measured_ratio = b_large / b_small;
        assert!((measured_ratio - expected_ratio).abs() < 0.3);
    }

    #[test]
    fn all_in_one_bin_bound_is_zero_when_single_bin() {
        // n = 1: the system is already "balanced"; H_m − H_m = 0.
        assert_eq!(lower_bound_all_in_one_bin(1, 100), 0.0);
    }

    #[test]
    fn one_over_one_under_bound_matches_formula() {
        assert!((lower_bound_one_over_one_under(10, 100) - 10.0 / 11.0).abs() < 1e-12);
        assert!((lower_bound_one_over_one_under(100, 100) - 50.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "n | m")]
    fn one_over_one_under_requires_divisibility() {
        let _ = lower_bound_one_over_one_under(10, 101);
    }
}
