//! Workload generator implementations.

use rls_core::{Config, ConfigError};
use rls_rng::dist::{Distribution, Zipf};
use rls_rng::{Rng64, RngExt};
use serde::{Deserialize, Serialize};

/// Errors from workload generation.
#[derive(Debug, Clone, PartialEq)]
pub enum GeneratorError {
    /// The underlying configuration could not be built.
    Config(ConfigError),
    /// The workload's parameters are incompatible with the requested sizes
    /// (e.g. the one-over/one-under instance needs `n ≥ 2` and `m ≥ n`).
    Incompatible(&'static str),
}

impl From<ConfigError> for GeneratorError {
    fn from(e: ConfigError) -> Self {
        GeneratorError::Config(e)
    }
}

impl core::fmt::Display for GeneratorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GeneratorError::Config(e) => write!(f, "configuration error: {e}"),
            GeneratorError::Incompatible(what) => write!(f, "incompatible workload: {what}"),
        }
    }
}

impl std::error::Error for GeneratorError {}

/// A family of initial configurations, parameterized by `(n, m)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// All `m` balls in bin 0.
    AllInOneBin,
    /// Each ball placed in a uniformly random bin.
    UniformRandom,
    /// Greedy power-of-two-choices: each ball samples two bins and joins the
    /// currently lighter one (ties broken toward the first).
    TwoChoices,
    /// Perfectly balanced: `⌊m/n⌋` or `⌈m/n⌉` everywhere.
    Balanced,
    /// The `Ω(n²/m)` lower-bound instance: one bin at `∅+1`, one at `∅−1`,
    /// the rest exactly at `∅` (requires `n ≥ 2` and `n | m` with `∅ ≥ 1`).
    OneOverOneUnder,
    /// A 1-balanced start with `pairs` bins at `∅ + 1` and `pairs` bins at
    /// `∅ − 1` (the Phase-3 / Lemma-17 shape; requires `n | m`, `∅ ≥ 1` and
    /// `2 · pairs ≤ n`).
    OverUnderPairs {
        /// Number of over/under bin pairs.
        pairs: usize,
    },
    /// Each ball placed in a Zipf-distributed bin (bin 1 hottest).
    Zipf {
        /// Zipf exponent (`0` = uniform, larger = more skew).
        exponent: f64,
    },
    /// Half the bins at `∅ + offset`, half at `∅ − offset` (the Lemma 13
    /// shape).  Requires an even `n`, `n | m` and `offset ≤ ∅`.
    BlockImbalance {
        /// The per-bin offset `x`.
        offset: u64,
    },
}

impl Workload {
    /// A short identifier used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::AllInOneBin => "all-in-one-bin",
            Workload::UniformRandom => "uniform-random",
            Workload::TwoChoices => "two-choices",
            Workload::Balanced => "balanced",
            Workload::OneOverOneUnder => "one-over-one-under",
            Workload::OverUnderPairs { .. } => "over-under-pairs",
            Workload::Zipf { .. } => "zipf",
            Workload::BlockImbalance { .. } => "block-imbalance",
        }
    }

    /// Generate a configuration with `n` bins and `m` balls.
    pub fn generate<R: Rng64 + ?Sized>(
        &self,
        n: usize,
        m: u64,
        rng: &mut R,
    ) -> Result<Config, GeneratorError> {
        if n == 0 {
            return Err(GeneratorError::Config(ConfigError::NoBins));
        }
        match *self {
            Workload::AllInOneBin => Ok(Config::all_in_one_bin(n, m)?),
            Workload::UniformRandom => {
                let mut loads = vec![0u64; n];
                for _ in 0..m {
                    loads[rng.next_index(n)] += 1;
                }
                Ok(Config::from_loads(loads)?)
            }
            Workload::TwoChoices => {
                let mut loads = vec![0u64; n];
                for _ in 0..m {
                    let a = rng.next_index(n);
                    let b = rng.next_index(n);
                    let pick = if loads[b] < loads[a] { b } else { a };
                    loads[pick] += 1;
                }
                Ok(Config::from_loads(loads)?)
            }
            Workload::Balanced => {
                let base = m / n as u64;
                let extra = (m % n as u64) as usize;
                let mut loads = vec![base; n];
                for load in loads.iter_mut().take(extra) {
                    *load += 1;
                }
                Ok(Config::from_loads(loads)?)
            }
            Workload::OneOverOneUnder => {
                if n < 2 {
                    return Err(GeneratorError::Incompatible(
                        "one-over-one-under needs at least two bins",
                    ));
                }
                if !m.is_multiple_of(n as u64) || m / n as u64 == 0 {
                    return Err(GeneratorError::Incompatible(
                        "one-over-one-under needs n | m and m ≥ n",
                    ));
                }
                let avg = m / n as u64;
                let mut loads = vec![avg; n];
                loads[0] = avg + 1;
                loads[1] = avg - 1;
                Ok(Config::from_loads(loads)?)
            }
            Workload::OverUnderPairs { pairs } => {
                if !m.is_multiple_of(n as u64) || m / n as u64 == 0 {
                    return Err(GeneratorError::Incompatible(
                        "over-under-pairs needs n | m and m ≥ n",
                    ));
                }
                if pairs == 0 || 2 * pairs > n {
                    return Err(GeneratorError::Incompatible(
                        "over-under-pairs needs 1 ≤ pairs ≤ n/2",
                    ));
                }
                let avg = m / n as u64;
                let mut loads = vec![avg; n];
                for i in 0..pairs {
                    loads[i] = avg + 1;
                    loads[n - 1 - i] = avg - 1;
                }
                Ok(Config::from_loads(loads)?)
            }
            Workload::Zipf { exponent } => {
                let zipf = Zipf::new(n as u64, exponent)
                    .map_err(|_| GeneratorError::Incompatible("invalid Zipf exponent"))?;
                let mut loads = vec![0u64; n];
                for _ in 0..m {
                    let bin = (zipf.sample(rng) - 1) as usize;
                    loads[bin] += 1;
                }
                Ok(Config::from_loads(loads)?)
            }
            Workload::BlockImbalance { offset } => {
                if !n.is_multiple_of(2) {
                    return Err(GeneratorError::Incompatible(
                        "block imbalance needs an even n",
                    ));
                }
                if !m.is_multiple_of(n as u64) {
                    return Err(GeneratorError::Incompatible("block imbalance needs n | m"));
                }
                let avg = m / n as u64;
                if offset > avg {
                    return Err(GeneratorError::Incompatible(
                        "block imbalance offset exceeds the average load",
                    ));
                }
                let mut loads = vec![0u64; n];
                for (i, load) in loads.iter_mut().enumerate() {
                    *load = if i < n / 2 {
                        avg + offset
                    } else {
                        avg - offset
                    };
                }
                Ok(Config::from_loads(loads)?)
            }
        }
    }
}

impl core::fmt::Display for Workload {
    /// The spec-string form; [`FromStr`](core::str::FromStr) inverts it.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Workload::Zipf { exponent } => write!(f, "zipf:{exponent}"),
            Workload::BlockImbalance { offset } => write!(f, "block-imbalance:{offset}"),
            Workload::OverUnderPairs { pairs } => write!(f, "over-under-pairs:{pairs}"),
            plain => f.write_str(plain.name()),
        }
    }
}

impl core::str::FromStr for Workload {
    type Err = String;

    /// Parse the spec-string forms: the plain names, `zipf:<exponent>`,
    /// `block-imbalance:<offset>` and `over-under-pairs:<pairs>`.
    fn from_str(s: &str) -> Result<Self, String> {
        let (head, param) = match s.split_once(':') {
            Some((head, param)) => (head.trim(), Some(param.trim())),
            None => (s.trim(), None),
        };
        // A name that takes no parameter must come without one.
        let plain = |workload| match param {
            None => Ok(workload),
            Some(_) => Err(format!(
                "workload `{head}` takes no parameter (got `{}`)",
                s.trim()
            )),
        };
        let param = |need: &str| param.ok_or_else(|| format!("`{head}` needs {need}"));
        let bad = |what: &str| format!("bad {what} in `{s}`");
        Ok(match head {
            "all-in-one-bin" => plain(Workload::AllInOneBin)?,
            "uniform-random" => plain(Workload::UniformRandom)?,
            "two-choices" => plain(Workload::TwoChoices)?,
            "balanced" => plain(Workload::Balanced)?,
            "one-over-one-under" => plain(Workload::OneOverOneUnder)?,
            "zipf" => Workload::Zipf {
                exponent: param("an exponent, e.g. `zipf:1.5`")?
                    .parse()
                    .map_err(|_| bad("zipf exponent"))?,
            },
            "block-imbalance" => Workload::BlockImbalance {
                offset: param("an offset, e.g. `block-imbalance:4`")?
                    .parse()
                    .map_err(|_| bad("offset"))?,
            },
            "over-under-pairs" => Workload::OverUnderPairs {
                pairs: param("a count, e.g. `over-under-pairs:4`")?
                    .parse()
                    .map_err(|_| bad("pair count"))?,
            },
            other => return Err(format!("unknown workload `{other}`")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_rng::rng_from_seed;

    #[test]
    fn spec_strings_round_trip() {
        for s in [
            "all-in-one-bin",
            "uniform-random",
            "two-choices",
            "balanced",
            "one-over-one-under",
            "zipf:1.5",
            "block-imbalance:4",
            "over-under-pairs:3",
        ] {
            assert_eq!(s.parse::<Workload>().unwrap().to_string(), s);
        }
        for bad in [
            "zipf",
            "zipf:steep",
            "zipf:1.5:2",
            "block-imbalance",
            "moebius",
        ] {
            assert!(bad.parse::<Workload>().is_err(), "{bad}");
        }
        // A parameter on a name that takes none is an error naming the
        // spelling, not silently dropped.
        for bad in [
            "balanced:3",
            "two-choices:4",
            "all-in-one-bin:",
            "uniform-random:x",
        ] {
            let err = bad.parse::<Workload>().unwrap_err();
            assert!(err.contains("takes no parameter"), "{bad}: {err}");
            assert!(err.contains(bad), "{bad}: {err}");
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Workload::AllInOneBin.name(), "all-in-one-bin");
        assert_eq!(Workload::Zipf { exponent: 1.0 }.name(), "zipf");
        assert_eq!(
            Workload::BlockImbalance { offset: 1 }.name(),
            "block-imbalance"
        );
    }

    #[test]
    fn all_in_one_bin_shape() {
        let cfg = Workload::AllInOneBin
            .generate(8, 40, &mut rng_from_seed(1))
            .unwrap();
        assert_eq!(cfg.load(0), 40);
        assert_eq!(cfg.max_load(), 40);
        assert_eq!(cfg.loads()[1..].iter().sum::<u64>(), 0);
    }

    #[test]
    fn uniform_random_conserves_and_spreads() {
        let cfg = Workload::UniformRandom
            .generate(32, 32_000, &mut rng_from_seed(2))
            .unwrap();
        assert_eq!(cfg.m(), 32_000);
        // With 1000 balls per bin on average, discrepancy should be modest.
        assert!(cfg.discrepancy() < 200.0);
        assert!(cfg.discrepancy() > 0.0);
    }

    #[test]
    fn two_choices_is_much_tighter_than_uniform() {
        let mut rng = rng_from_seed(3);
        let uni = Workload::UniformRandom
            .generate(64, 64 * 64, &mut rng)
            .unwrap();
        let two = Workload::TwoChoices
            .generate(64, 64 * 64, &mut rng)
            .unwrap();
        assert!(two.discrepancy() <= uni.discrepancy());
        assert!(
            two.discrepancy() < 6.0,
            "two-choices disc {}",
            two.discrepancy()
        );
    }

    #[test]
    fn balanced_is_perfect() {
        for (n, m) in [(8usize, 64u64), (7, 61), (5, 3)] {
            let cfg = Workload::Balanced
                .generate(n, m, &mut rng_from_seed(4))
                .unwrap();
            assert!(cfg.is_perfectly_balanced(), "n={n} m={m}");
            assert_eq!(cfg.m(), m);
        }
    }

    #[test]
    fn one_over_one_under_shape_and_errors() {
        let cfg = Workload::OneOverOneUnder
            .generate(8, 64, &mut rng_from_seed(5))
            .unwrap();
        assert_eq!(cfg.discrepancy(), 1.0);
        assert_eq!(cfg.overloaded_balls(), 1);
        assert_eq!(cfg.holes(), 1);
        assert!(Workload::OneOverOneUnder
            .generate(1, 10, &mut rng_from_seed(5))
            .is_err());
        assert!(Workload::OneOverOneUnder
            .generate(8, 63, &mut rng_from_seed(5))
            .is_err());
        assert!(Workload::OneOverOneUnder
            .generate(8, 0, &mut rng_from_seed(5))
            .is_err());
    }

    #[test]
    fn over_under_pairs_shape_and_errors() {
        let cfg = Workload::OverUnderPairs { pairs: 2 }
            .generate(8, 64, &mut rng_from_seed(5))
            .unwrap();
        assert_eq!(cfg.discrepancy(), 1.0);
        assert_eq!(cfg.overloaded_balls(), 2);
        assert_eq!(cfg.holes(), 2);
        assert_eq!(cfg.loads(), &[9, 9, 8, 8, 8, 8, 7, 7]);
        assert!(Workload::OverUnderPairs { pairs: 0 }
            .generate(8, 64, &mut rng_from_seed(5))
            .is_err());
        assert!(Workload::OverUnderPairs { pairs: 5 }
            .generate(8, 64, &mut rng_from_seed(5))
            .is_err());
        assert!(Workload::OverUnderPairs { pairs: 2 }
            .generate(8, 63, &mut rng_from_seed(5))
            .is_err());
    }

    #[test]
    fn zipf_is_skewed_toward_bin_zero() {
        let cfg = Workload::Zipf { exponent: 1.5 }
            .generate(64, 10_000, &mut rng_from_seed(6))
            .unwrap();
        assert_eq!(cfg.m(), 10_000);
        assert!(cfg.load(0) > cfg.load(32));
        assert!(cfg.load(0) as f64 > cfg.average());
        assert!(Workload::Zipf { exponent: f64::NAN }
            .generate(4, 4, &mut rng_from_seed(6))
            .is_err());
    }

    #[test]
    fn block_imbalance_shape_and_errors() {
        let cfg = Workload::BlockImbalance { offset: 3 }
            .generate(8, 64, &mut rng_from_seed(7))
            .unwrap();
        assert_eq!(cfg.discrepancy(), 3.0);
        assert_eq!(cfg.load(0), 11);
        assert_eq!(cfg.load(7), 5);
        assert!(Workload::BlockImbalance { offset: 3 }
            .generate(7, 63, &mut rng_from_seed(7))
            .is_err());
        assert!(Workload::BlockImbalance { offset: 3 }
            .generate(8, 60, &mut rng_from_seed(7))
            .is_err());
        assert!(Workload::BlockImbalance { offset: 30 }
            .generate(8, 64, &mut rng_from_seed(7))
            .is_err());
    }

    #[test]
    fn zero_bins_is_rejected_for_all() {
        let mut rng = rng_from_seed(8);
        for w in [
            Workload::AllInOneBin,
            Workload::UniformRandom,
            Workload::Balanced,
        ] {
            assert!(w.generate(0, 10, &mut rng).is_err());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Workload::UniformRandom
            .generate(16, 400, &mut rng_from_seed(9))
            .unwrap();
        let b = Workload::UniformRandom
            .generate(16, 400, &mut rng_from_seed(9))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn error_display() {
        let e = Workload::OneOverOneUnder
            .generate(1, 1, &mut rng_from_seed(10))
            .unwrap_err();
        assert!(e.to_string().contains("incompatible"));
        let e2 = GeneratorError::Config(ConfigError::NoBins);
        assert!(e2.to_string().contains("configuration error"));
    }
}
