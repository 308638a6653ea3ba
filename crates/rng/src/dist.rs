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
///
/// Sampling is Knuth's method on chunks of mean at most 500, so the
/// running product cannot underflow.  The chunks' `exp(−chunk)`
/// thresholds are computed once, at construction: the full chunks (all
/// sharing one threshold), then at most one shorter tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
    /// Chunks of mean exactly [`POISSON_CHUNK`], drawn first.
    full_chunks: u64,
    /// Their threshold `exp(−500)`.
    full_threshold: f64,
    /// The last chunk's threshold `exp(−chunk)`, when a chunk below
    /// [`POISSON_CHUNK`] remains after the full ones.
    tail_threshold: Option<f64>,
}

/// The largest mean one chunk of [`Poisson`] sampling covers.
const POISSON_CHUNK: f64 = 500.0;

impl Poisson {
    /// `Poi(lambda)`; the mean must be positive and finite.
    pub fn new(lambda: f64) -> Result<Self, DistError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(DistError("poisson mean must be positive and finite"));
        }
        // Split λ exactly as a chunk-by-chunk loop would (the same
        // subtractions, so the same tail), keeping the thresholds.
        let mut remaining = lambda;
        let (mut full_chunks, mut full_threshold) = (0u64, 0.0);
        let mut tail_threshold = None;
        while remaining > 0.0 {
            let chunk = remaining.min(POISSON_CHUNK);
            remaining -= chunk;
            if chunk == POISSON_CHUNK {
                full_chunks += 1;
                full_threshold = (-chunk).exp();
            } else {
                tail_threshold = Some((-chunk).exp());
            }
        }
        Ok(Self {
            lambda,
            full_chunks,
            full_threshold,
            tail_threshold,
        })
    }
}

/// Knuth's count of unit-rate exponential arrivals: uniforms multiply
/// until the product falls to `threshold = exp(−mean)`.
#[inline]
fn knuth_count<R: Rng64 + ?Sized>(threshold: f64, rng: &mut R) -> u64 {
    let mut count = 0u64;
    let mut product = rng.next_f64_open();
    while product > threshold {
        count += 1;
        product *= rng.next_f64_open();
    }
    count
}

impl Distribution for Poisson {
    type Output = u64;

    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut count = 0u64;
        for _ in 0..self.full_chunks {
            count += knuth_count(self.full_threshold, rng);
        }
        if let Some(threshold) = self.tail_threshold {
            count += knuth_count(threshold, rng);
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

    /// The chunk-by-chunk sampler `Poisson::sample` replaced, which
    /// called `exp` on every draw.
    fn chunked_reference<R: Rng64 + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
        let mut remaining = lambda;
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

    #[test]
    fn poisson_draws_match_the_chunk_by_chunk_sampler() {
        for lambda in [1e-9, 0.5, 8.0, 499.9, 500.0, 1234.5] {
            let d = Poisson::new(lambda).unwrap();
            let (mut a, mut b) = (rng_from_seed(21), rng_from_seed(21));
            let draws = if lambda > 100.0 { 500 } else { 5_000 };
            for i in 0..draws {
                assert_eq!(
                    d.sample(&mut a),
                    chunked_reference(lambda, &mut b),
                    "Poi({lambda}) draw {i}"
                );
            }
            assert_eq!(a.next_u64(), b.next_u64(), "Poi({lambda}) stream");
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
