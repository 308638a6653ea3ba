//! Exact samplers for the distributions appearing in the paper's analysis.
//!
//! * [`Exponential`] — per-ball activation clocks and the superposition
//!   waiting time (rate `m`).
//! * [`Poisson`] — Poissonized workload generators.
//! * [`Zipf`] — skewed workload generators.
//!
//! All samplers draw from any [`Rng64`] via inverse-CDF or rejection-free
//! constructions, so a trial's entire trajectory is reproducible from its
//! stream.

use crate::{Rng64, RngExt};

/// Error constructing a distribution from invalid parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistError(&'static str);

impl core::fmt::Display for DistError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.0)
    }
}

impl std::error::Error for DistError {}

/// A random distribution that can be sampled from any [`Rng64`].
pub trait Distribution {
    /// The sampled type.
    type Output;

    /// Draw one sample.
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> Self::Output;
}

/// The exponential distribution `Exp(λ)` (mean `1/λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// `Exp(rate)`; the rate must be positive and finite.
    pub fn new(rate: f64) -> Result<Self, DistError> {
        if rate.is_finite() && rate > 0.0 {
            Ok(Self { rate })
        } else {
            Err(DistError("exponential rate must be positive and finite"))
        }
    }

    /// The rate `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Distribution for Exponential {
    type Output = f64;

    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF on the open interval so ln never sees 0.
        -rng.next_f64_open().ln() / self.rate
    }
}

/// The Poisson distribution `Poi(λ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// `Poi(lambda)`; the mean must be positive and finite.
    pub fn new(lambda: f64) -> Result<Self, DistError> {
        if lambda.is_finite() && lambda > 0.0 {
            Ok(Self { lambda })
        } else {
            Err(DistError("poisson mean must be positive and finite"))
        }
    }
}

impl Distribution for Poisson {
    type Output = u64;

    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> u64 {
        // Count exponential inter-arrival times inside a unit interval; for
        // large λ, split the interval so the running product cannot
        // underflow (Knuth's method on at most 500-mean chunks).
        let mut remaining = self.lambda;
        let mut count = 0u64;
        while remaining > 0.0 {
            let chunk = remaining.min(500.0);
            remaining -= chunk;
            let threshold = (-chunk).exp();
            let mut product = rng.next_f64_open();
            while product > threshold {
                count += 1;
                product *= rng.next_f64_open();
            }
        }
        count
    }
}

/// The Zipf distribution on `{1, …, n}` with `P(k) ∝ k^{−s}`.
///
/// Sampling is inverse-CDF over precomputed cumulative weights: `O(n)`
/// construction, `O(log n)` per sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// `Zipf(n, s)` with `n ≥ 1` support points and exponent `s ≥ 0`
    /// (`s = 0` is the uniform distribution).
    pub fn new(n: u64, s: f64) -> Result<Self, DistError> {
        if n == 0 {
            return Err(DistError("zipf needs at least one support point"));
        }
        if !(s.is_finite() && s >= 0.0) {
            return Err(DistError("zipf exponent must be non-negative and finite"));
        }
        let mut cumulative = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for k in 1..=n {
            total += (k as f64).powf(-s);
            cumulative.push(total);
        }
        Ok(Self { cumulative })
    }

    /// Number of support points.
    pub fn n(&self) -> u64 {
        self.cumulative.len() as u64
    }
}

impl Distribution for Zipf {
    type Output = u64;

    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> u64 {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let target = rng.next_f64() * total;
        // First index whose cumulative weight exceeds the target.
        let idx = self.cumulative.partition_point(|&c| c <= target);
        (idx.min(self.cumulative.len() - 1) + 1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Poisson::new(0.0).is_err());
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(5, -1.0).is_err());
        let msg = DistError("x").to_string();
        assert!(msg.contains("invalid distribution parameter"));
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = rng_from_seed(11);
        let d = Exponential::new(4.0).unwrap();
        let trials = 200_000;
        let mean: f64 = (0..trials).map(|_| d.sample(&mut rng)).sum::<f64>() / trials as f64;
        assert!((mean - 0.25).abs() < 0.005, "mean {mean}");
        assert_eq!(d.rate(), 4.0);
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut rng = rng_from_seed(14);
        for lambda in [0.5, 7.0, 1200.0] {
            let d = Poisson::new(lambda).unwrap();
            let trials = 20_000;
            let mean = (0..trials).map(|_| d.sample(&mut rng)).sum::<u64>() as f64 / trials as f64;
            assert!(
                (mean - lambda).abs() < 0.05 * lambda.max(1.0),
                "Poi({lambda}) mean {mean}"
            );
        }
    }

    #[test]
    fn zipf_support_and_skew() {
        let mut rng = rng_from_seed(15);
        let d = Zipf::new(8, 1.5).unwrap();
        assert_eq!(d.n(), 8);
        let mut counts = [0u64; 8];
        for _ in 0..50_000 {
            let k = d.sample(&mut rng);
            assert!((1..=8).contains(&k));
            counts[(k - 1) as usize] += 1;
        }
        // Heavier head than tail, and every point reachable.
        assert!(counts[0] > counts[7] * 4);
        assert!(counts.iter().all(|&c| c > 0));
        // s = 0 is uniform: the head should NOT dominate.
        let uniform = Zipf::new(8, 0.0).unwrap();
        let mut head = 0u64;
        for _ in 0..40_000 {
            head += (uniform.sample(&mut rng) == 1) as u64;
        }
        let frac = head as f64 / 40_000.0;
        assert!((frac - 0.125).abs() < 0.01, "uniform head fraction {frac}");
    }
}
