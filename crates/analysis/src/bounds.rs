//! Upper-bound formulas of Theorem 1 and the per-phase lemmas.
//!
//! These are the *shapes* the measurements are compared against.  The
//! hidden constants in the paper are not optimized; the experiment tables
//! report the measured/predicted ratio, which should be roughly constant
//! across the sweep if the shape is right.

use serde::{Deserialize, Serialize};

/// The two terms of the Theorem-1 bound for a system of `n` bins and `m`
/// balls, plus their combinations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TheoremOneBound {
    /// Number of bins.
    pub n: usize,
    /// Number of balls.
    pub m: u64,
    /// The `ln n` term.
    pub log_term: f64,
    /// The `n²/m` term.
    pub ratio_term: f64,
}

impl TheoremOneBound {
    /// Evaluate the bound's terms for a system size.
    pub fn new(n: usize, m: u64) -> Self {
        assert!(n >= 1 && m >= 1, "Theorem 1 is about systems with n, m ≥ 1");
        let nf = n as f64;
        Self {
            n,
            m,
            log_term: nf.ln().max(1.0),
            ratio_term: nf * nf / m as f64,
        }
    }

    /// The expected-time shape `ln n + n²/m`.
    pub fn expected_shape(&self) -> f64 {
        self.log_term + self.ratio_term
    }

    /// The with-high-probability shape `ln n + ln n · n²/m`.
    pub fn whp_shape(&self) -> f64 {
        self.log_term + self.log_term * self.ratio_term
    }
}

/// Lemma 8: for `m ≤ n`, expected balancing time is `O(n)`; the proof's
/// explicit constant is `Σ_{r=2}^m n/(r(r−1)) < 2n`, and this returns the
/// exact partial sum.
pub fn sparse_case_expected_bound(n: usize, m: u64) -> f64 {
    assert!(m as usize <= n, "Lemma 8 applies to m ≤ n");
    let nf = n as f64;
    (2..=m).map(|r| nf / (r as f64 * (r as f64 - 1.0))).sum()
}

/// Lemma 9: the extra expected time for the `r = m mod n` surplus balls is
/// at most `Σ_{i=1}^{r} 1/(n − i)`.
pub fn divisibility_overhead_bound(n: usize, m: u64) -> f64 {
    let r = m % n as u64;
    (1..=r).map(|i| 1.0 / (n as f64 - i as f64)).sum()
}

/// Phase 1 (Lemmas 10–13): reaching an `O(ln n)`-balanced configuration
/// takes `O(ln n)` time; the proof's explicit driver is
/// `E[T'] ≤ 2 ln n` for emptying the worst-case bin.
pub fn phase1_time_bound(n: usize) -> f64 {
    2.0 * (n as f64).ln().max(1.0)
}

/// Phase 2 (Lemma 14): from an `O(ln n)`-balanced configuration to a
/// 1-balanced one in expected `O(n/∅)` time.  The explicit constants in the
/// proof are `O(ln²n/∅)` for reducing the overloaded balls to `n`
/// (Lemma 15) plus `3n/∅`-ish for the potential argument (Lemma 16); this
/// returns the sum of those explicit pieces.
pub fn phase2_time_bound(n: usize, m: u64) -> f64 {
    let avg = (m as f64 / n as f64).max(1.0);
    let ln_n = (n as f64).ln().max(1.0);
    ln_n * ln_n / avg + 3.0 * n as f64 / avg
}

/// Phase 3 (Lemma 17): from 1-balanced to perfectly balanced in expected
/// time at most `Σ_{A=1}^{n} n/(∅·A²) ≤ (π²/6)·n/∅`.
pub fn phase3_time_bound(n: usize, m: u64) -> f64 {
    let avg = (m as f64 / n as f64).max(1.0);
    let zeta2 = std::f64::consts::PI * std::f64::consts::PI / 6.0;
    zeta2 * n as f64 / avg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_one_terms() {
        let b = TheoremOneBound::new(100, 10_000);
        assert!((b.log_term - 100f64.ln()).abs() < 1e-12);
        assert!((b.ratio_term - 1.0).abs() < 1e-12);
        assert!((b.expected_shape() - (100f64.ln() + 1.0)).abs() < 1e-12);
        assert!((b.whp_shape() - (100f64.ln() + 100f64.ln())).abs() < 1e-12);
    }

    #[test]
    fn ratio_term_dominates_for_sparse_systems() {
        let b = TheoremOneBound::new(1000, 1000); // n²/m = 1000 ≫ ln n
        assert!(b.expected_shape() > 1000.0);
    }

    #[test]
    fn log_term_floor_for_tiny_n() {
        // ln 2 < 1 would make ratios degenerate; the floor keeps it ≥ 1.
        let b = TheoremOneBound::new(2, 4);
        assert_eq!(b.log_term, 1.0);
    }

    #[test]
    #[should_panic(expected = "n, m ≥ 1")]
    fn theorem_one_rejects_empty() {
        let _ = TheoremOneBound::new(3, 0);
    }

    #[test]
    fn sparse_case_bound_is_below_2n() {
        for n in [10usize, 100, 1000] {
            let b = sparse_case_expected_bound(n, n as u64);
            assert!(b < 2.0 * n as f64);
            assert!(b > 0.5 * n as f64, "bound {b} too small for n={n}");
        }
        assert_eq!(sparse_case_expected_bound(10, 1), 0.0);
        assert_eq!(sparse_case_expected_bound(10, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "m ≤ n")]
    fn sparse_case_requires_m_le_n() {
        let _ = sparse_case_expected_bound(4, 5);
    }

    #[test]
    fn divisibility_overhead_is_logarithmic() {
        assert_eq!(divisibility_overhead_bound(8, 64), 0.0);
        let b = divisibility_overhead_bound(100, 100 * 7 + 50);
        assert!(b > 0.0);
        assert!(b < 2.0 * (100f64).ln());
    }

    #[test]
    fn phase_bounds_scale_as_expected() {
        // Phase 1 grows with ln n and is independent of m.
        assert!(phase1_time_bound(1000) > phase1_time_bound(10));
        assert_eq!(phase1_time_bound(100), 2.0 * 100f64.ln());
        // Phases 2 and 3 scale like n/∅ = n²/m.
        let dense = phase3_time_bound(100, 100 * 100);
        let sparse = phase3_time_bound(100, 100);
        assert!(sparse > dense * 50.0);
        assert!(phase2_time_bound(100, 100 * 100) > 0.0);
        // Doubling m halves the phase-3 bound.
        let half = phase3_time_bound(64, 640);
        let full = phase3_time_bound(64, 1280);
        assert!((half / full - 2.0).abs() < 1e-9);
    }
}
