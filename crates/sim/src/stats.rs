//! Statistics for Monte-Carlo experiments.
//!
//! The experiments report means, confidence intervals and high quantiles of
//! stopping times (the w.h.p. statements of Theorem 1 are about the
//! `1 − 1/n` quantile), fit log–log slopes to verify scaling exponents
//! (E1, E11), and test the stochastic-dominance claim of Lemma 2 by
//! comparing empirical CDFs (E5).  Everything here is plain, allocation-
//! light numerics with no external dependencies.

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance (0 for fewer than two samples).
    pub variance: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Half-width of the 95% confidence interval for the mean (normal
    /// approximation).
    pub ci95_half_width: f64,
}

impl Summary {
    /// Compute the summary of a sample; panics on an empty slice.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize an empty sample");
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let variance = if count > 1 {
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let std_dev = variance.sqrt();
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
        Self {
            count,
            mean,
            variance,
            std_dev,
            min: sorted[0],
            max: sorted[count - 1],
            median: quantile_sorted(&sorted, 0.5),
            p95: quantile_sorted(&sorted, 0.95),
            ci95_half_width: 1.96 * std_dev / (count as f64).sqrt(),
        }
    }
}

/// Empirical quantile of an already-sorted sample (linear interpolation).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Empirical quantile of an unsorted sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
    quantile_sorted(&sorted, q)
}

/// Result of an ordinary-least-squares straight-line fit `y ≈ a + b·x`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Intercept `a`.
    pub intercept: f64,
    /// Slope `b`.
    pub slope: f64,
    /// Coefficient of determination `R²`.
    pub r_squared: f64,
}

/// Least-squares fit of `y` against `x`.
///
/// # Panics
/// Panics if the slices have different lengths or fewer than two points.
pub fn linear_fit(x: &[f64], y: &[f64]) -> LinearFit {
    assert_eq!(x.len(), y.len(), "x and y must have equal length");
    assert!(x.len() >= 2, "need at least two points to fit a line");
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y.iter()) {
        let dx = xi - mean_x;
        let dy = yi - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    let intercept = mean_y - slope * mean_x;
    let r_squared = if sxx > 0.0 && syy > 0.0 {
        (sxy * sxy) / (sxx * syy)
    } else {
        1.0
    };
    LinearFit {
        intercept,
        slope,
        r_squared,
    }
}

/// Fit `y ≈ c · x^b` by regressing `ln y` on `ln x`; returns the exponent
/// `b` and `R²`.  Used to verify scaling claims such as "the balancing time
/// grows like `ln n`, not `ln² n`" (E11).
pub fn log_log_fit(x: &[f64], y: &[f64]) -> LinearFit {
    let lx: Vec<f64> = x.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = y.iter().map(|v| v.ln()).collect();
    linear_fit(&lx, &ly)
}

/// Empirical CDF evaluated at `x`: the fraction of samples ≤ `x`.
pub fn empirical_cdf(samples: &[f64], x: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&v| v <= x).count() as f64 / samples.len() as f64
}

/// Outcome of the one-sided dominance comparison of two samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DominanceReport {
    /// `max_x (F_b(x) − F_a(x))`: how much the CDF of `b` exceeds the CDF of
    /// `a` anywhere.  If `a` stochastically dominates `b` this is ≥ 0 by a
    /// lot; if `b` dominates `a` it is ≤ sampling noise.
    pub max_cdf_gap: f64,
    /// `max_x (F_a(x) − F_b(x))`, the violation in the claimed direction.
    pub max_violation: f64,
    /// Difference of means `mean(a) − mean(b)`.
    pub mean_gap: f64,
}

/// Compare two samples for the claim "`a` stochastically dominates `b`"
/// (i.e. `P(a ≥ x) ≥ P(b ≥ x)` for all `x`, equivalently `F_a(x) ≤ F_b(x)`).
///
/// `max_violation` close to zero (within sampling noise) is consistent with
/// the claim; a large value refutes it.  Used by the DML experiment: the
/// balancing time (and discrepancy trajectory) *with* adversarial
/// destructive moves should dominate the one without.
pub fn dominance_report(a: &[f64], b: &[f64]) -> DominanceReport {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "dominance test needs non-empty samples"
    );
    let mut points: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
    points.sort_by(|x, y| x.partial_cmp(y).unwrap_or(core::cmp::Ordering::Equal));
    points.dedup();
    let mut max_gap = f64::NEG_INFINITY;
    let mut max_violation = f64::NEG_INFINITY;
    for &x in &points {
        let fa = empirical_cdf(a, x);
        let fb = empirical_cdf(b, x);
        max_gap = max_gap.max(fb - fa);
        max_violation = max_violation.max(fa - fb);
    }
    let mean_a = a.iter().sum::<f64>() / a.len() as f64;
    let mean_b = b.iter().sum::<f64>() / b.len() as f64;
    DominanceReport {
        max_cdf_gap: max_gap,
        max_violation,
        mean_gap: mean_a - mean_b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.variance - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!(s.ci95_half_width > 0.0);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p95, 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_empty_panics() {
        let _ = Summary::from_samples(&[]);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&v, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn quantile_rejects_bad_q() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let x: Vec<f64> = (1..=10).map(|v| v as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 + 2.0 * v).collect();
        let fit = linear_fit(&x, &y);
        assert!((fit.slope - 2.0).abs() < 1e-9);
        assert!((fit.intercept - 3.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log_log_fit_recovers_power_law() {
        let x: Vec<f64> = (1..=20).map(|v| v as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 5.0 * v.powf(1.5)).collect();
        let fit = log_log_fit(&x, &y);
        assert!((fit.slope - 1.5).abs() < 1e-9);
        assert!((fit.intercept - 5.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn linear_fit_length_mismatch_panics() {
        let _ = linear_fit(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn empirical_cdf_basics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(empirical_cdf(&v, 0.0), 0.0);
        assert_eq!(empirical_cdf(&v, 2.0), 0.5);
        assert_eq!(empirical_cdf(&v, 10.0), 1.0);
        assert_eq!(empirical_cdf(&[], 1.0), 0.0);
    }

    #[test]
    fn dominance_detects_clear_shift() {
        // b shifted right by 10: b dominates a.
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| i as f64 + 10.0).collect();
        // Claim "b dominates a": dominance_report(b, a).
        let report = dominance_report(&b, &a);
        assert!(report.max_violation <= 0.0 + 1e-12);
        assert!(report.max_cdf_gap > 0.05);
        assert!(report.mean_gap > 9.0);
        // The reversed claim is clearly violated.
        let reversed = dominance_report(&a, &b);
        assert!(reversed.max_violation > 0.05);
    }

    #[test]
    fn dominance_of_identical_samples_is_clean() {
        let a = [1.0, 2.0, 3.0];
        let report = dominance_report(&a, &a);
        assert_eq!(report.max_violation, 0.0);
        assert_eq!(report.max_cdf_gap, 0.0);
        assert_eq!(report.mean_gap, 0.0);
    }
}
