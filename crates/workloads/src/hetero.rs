//! Heterogeneity models: ball-weight distributions and bin-speed profiles.
//!
//! The paper analyses unit balls on identical bins; `rls-protocols` models
//! the weighted/speed generalizations offline.  The *online* stack
//! (`rls-live`, `rls-serve`, campaign `dynamic` cells) names its
//! heterogeneity through the two types here:
//!
//! * [`WeightDist`] — the law of an arriving ball's weight.  [`WeightDist::Unit`]
//!   consumes **zero** RNG draws, so a unit-weight run of the weighted
//!   engine replays the exact random stream of the unweighted engine —
//!   the invariant the cross-validation suite in `rls-live` pins.
//! * [`SpeedProfile`] — the deterministic assignment of processing speeds
//!   to bins.  Speeds are integers `≥ 1` so all normalized-load
//!   comparisons (`weight / speed`) stay exact under `u128`
//!   cross-multiplication.
//!
//! Both are plain serializable values with spec-string forms (`unit`,
//! `uniform:1:8`, `pareto:1.5:64`; `uniform`, `two-class:4:0.25`) so
//! campaign grids and the CLI can name them, mirroring [`ArrivalProcess`].
//!
//! [`ArrivalProcess`]: crate::ArrivalProcess

use rls_rng::{Rng64, RngExt};
use serde::{Deserialize, Serialize};

/// The law of an arriving ball's weight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WeightDist {
    /// Every ball has weight `1` — the paper's model.  Sampling consumes
    /// no randomness, so unit runs stay bit-identical to the unweighted
    /// engine.
    Unit,
    /// Integer weights uniform on `[lo, hi]` (inclusive, `1 ≤ lo ≤ hi`).
    UniformInt {
        /// Smallest weight.
        lo: u64,
        /// Largest weight.
        hi: u64,
    },
    /// A truncated Pareto tail: `⌊X⌋` for `X ~ Pareto(alpha)` with scale
    /// `1`, capped at `cap` — mixed-size requests with a heavy tail.
    Pareto {
        /// Tail exponent (`> 0`; smaller is heavier).
        alpha: f64,
        /// Upper truncation (`≥ 1`).
        cap: u64,
    },
}

impl WeightDist {
    /// A short identifier used in tables and spec strings.
    pub fn name(&self) -> &'static str {
        match self {
            WeightDist::Unit => "unit",
            WeightDist::UniformInt { .. } => "uniform",
            WeightDist::Pareto { .. } => "pareto",
        }
    }

    /// Whether this is the unit distribution (the engines skip all
    /// per-ball weight bookkeeping — and its RNG draws — in that case).
    #[inline]
    pub fn is_unit(&self) -> bool {
        matches!(self, WeightDist::Unit)
    }

    /// Sample one ball weight.  [`WeightDist::Unit`] returns `1` without
    /// touching `rng`; every other variant consumes exactly one draw.
    #[inline]
    pub fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            WeightDist::Unit => 1,
            WeightDist::UniformInt { lo, hi } => lo + rng.next_below(hi - lo + 1),
            WeightDist::Pareto { alpha, cap } => {
                // Inverse transform: X = (1 − U)^(−1/α) ≥ 1, truncated.
                let u = rng.next_f64();
                let x = (1.0 - u).powf(-1.0 / alpha);
                if x >= cap as f64 {
                    cap
                } else {
                    (x as u64).max(1)
                }
            }
        }
    }

    /// Whether the parameters are usable.
    pub fn validate(&self) -> Result<(), &'static str> {
        match *self {
            WeightDist::Unit => Ok(()),
            WeightDist::UniformInt { lo, hi } => {
                if lo == 0 {
                    Err("uniform weight lower bound must be at least one")
                } else if lo > hi {
                    Err("uniform weight bounds must satisfy lo <= hi")
                } else {
                    Ok(())
                }
            }
            WeightDist::Pareto { alpha, cap } => {
                if !(alpha.is_finite() && alpha > 0.0) {
                    Err("pareto exponent must be finite and positive")
                } else if cap == 0 {
                    Err("pareto cap must be at least one")
                } else {
                    Ok(())
                }
            }
        }
    }
}

impl core::fmt::Display for WeightDist {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WeightDist::Unit => write!(f, "unit"),
            WeightDist::UniformInt { lo, hi } => write!(f, "uniform:{lo}:{hi}"),
            WeightDist::Pareto { alpha, cap } => write!(f, "pareto:{alpha}:{cap}"),
        }
    }
}

impl core::str::FromStr for WeightDist {
    type Err = String;

    /// Parse the spec-string forms: `unit`, `uniform:<lo>:<hi>`,
    /// `pareto:<alpha>:<cap>`.
    fn from_str(s: &str) -> Result<Self, String> {
        let s = s.trim();
        let dist = if s == "unit" {
            WeightDist::Unit
        } else if s.starts_with("unit:") {
            return Err(format!(
                "weight distribution `unit` takes no parameter (got `{s}`)"
            ));
        } else if let Some(rest) = s.strip_prefix("uniform:") {
            let (lo, hi) = rest
                .split_once(':')
                .ok_or_else(|| format!("`{s}` needs the form uniform:<lo>:<hi>"))?;
            WeightDist::UniformInt {
                lo: lo
                    .parse()
                    .map_err(|_| format!("bad weight bound in `{s}`"))?,
                hi: hi
                    .parse()
                    .map_err(|_| format!("bad weight bound in `{s}`"))?,
            }
        } else if let Some(rest) = s.strip_prefix("pareto:") {
            let (alpha, cap) = rest
                .split_once(':')
                .ok_or_else(|| format!("`{s}` needs the form pareto:<alpha>:<cap>"))?;
            WeightDist::Pareto {
                alpha: alpha
                    .parse()
                    .map_err(|_| format!("bad pareto exponent in `{s}`"))?,
                cap: cap
                    .parse()
                    .map_err(|_| format!("bad pareto cap in `{s}`"))?,
            }
        } else {
            return Err(format!(
                "unknown weight distribution `{s}` (unit | uniform:<lo>:<hi> | \
                 pareto:<alpha>:<cap>)"
            ));
        };
        dist.validate().map_err(|e| e.to_string())?;
        Ok(dist)
    }
}

/// The deterministic assignment of processing speeds to bins.
///
/// Profiles are functions of `n` alone (no RNG): two servers booted with
/// the same spec string agree on every bin's speed, which keeps speed
/// vectors out of wire formats everywhere except snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpeedProfile {
    /// Every bin has speed `1` — the paper's identical-bins model.
    Uniform,
    /// A two-class fleet: the first `⌈fraction · n⌉` bins run at `speed`,
    /// the rest at `1` — the smallest model of capacity skew.
    TwoClass {
        /// Speed of the fast class (`≥ 1`).
        speed: u64,
        /// Fraction of bins in the fast class (clamped to `[0, 1]`).
        fraction: f64,
    },
}

impl SpeedProfile {
    /// A short identifier used in tables and spec strings.
    pub fn name(&self) -> &'static str {
        match self {
            SpeedProfile::Uniform => "uniform",
            SpeedProfile::TwoClass { .. } => "two-class",
        }
    }

    /// Whether every bin runs at speed `1` under this profile.
    #[inline]
    pub fn is_uniform(&self) -> bool {
        match *self {
            SpeedProfile::Uniform => true,
            SpeedProfile::TwoClass {
                speed, fraction, ..
            } => speed == 1 || fraction <= 0.0,
        }
    }

    /// The speed vector for an `n`-bin system.
    pub fn speeds(&self, n: usize) -> Vec<u64> {
        match *self {
            SpeedProfile::Uniform => vec![1; n],
            SpeedProfile::TwoClass { speed, fraction } => {
                let fast = ((fraction.clamp(0.0, 1.0) * n as f64).ceil() as usize).min(n);
                let mut v = vec![1u64; n];
                v[..fast].fill(speed);
                v
            }
        }
    }

    /// Whether the parameters are usable.
    pub fn validate(&self) -> Result<(), &'static str> {
        match *self {
            SpeedProfile::Uniform => Ok(()),
            SpeedProfile::TwoClass { speed, fraction } => {
                if speed == 0 {
                    Err("fast-class speed must be at least one")
                } else if !(0.0..=1.0).contains(&fraction) {
                    Err("fast-class fraction must lie in [0, 1]")
                } else {
                    Ok(())
                }
            }
        }
    }
}

impl core::fmt::Display for SpeedProfile {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpeedProfile::Uniform => write!(f, "uniform"),
            SpeedProfile::TwoClass { speed, fraction } => {
                write!(f, "two-class:{speed}:{fraction}")
            }
        }
    }
}

impl core::str::FromStr for SpeedProfile {
    type Err = String;

    /// Parse the spec-string forms: `uniform`, `two-class:<speed>:<fraction>`.
    fn from_str(s: &str) -> Result<Self, String> {
        let s = s.trim();
        let profile = if s == "uniform" {
            SpeedProfile::Uniform
        } else if s.starts_with("uniform:") {
            return Err(format!(
                "speed profile `uniform` takes no parameter (got `{s}`)"
            ));
        } else if let Some(rest) = s.strip_prefix("two-class:") {
            let (speed, fraction) = rest
                .split_once(':')
                .ok_or_else(|| format!("`{s}` needs the form two-class:<speed>:<fraction>"))?;
            SpeedProfile::TwoClass {
                speed: speed
                    .parse()
                    .map_err(|_| format!("bad class speed in `{s}`"))?,
                fraction: fraction
                    .parse()
                    .map_err(|_| format!("bad class fraction in `{s}`"))?,
            }
        } else {
            return Err(format!(
                "unknown speed profile `{s}` (uniform | two-class:<speed>:<fraction>)"
            ));
        };
        profile.validate().map_err(|e| e.to_string())?;
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_rng::rng_from_seed;

    #[test]
    fn unit_sampling_consumes_no_randomness() {
        let mut rng = rng_from_seed(1);
        let before = rng.state();
        for _ in 0..100 {
            assert_eq!(WeightDist::Unit.sample(&mut rng), 1);
        }
        assert_eq!(rng.state(), before);
    }

    #[test]
    fn uniform_weights_cover_the_range() {
        let dist = WeightDist::UniformInt { lo: 2, hi: 5 };
        let mut rng = rng_from_seed(2);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let w = dist.sample(&mut rng);
            assert!((2..=5).contains(&w));
            seen[w as usize] = true;
        }
        assert!(seen[2..=5].iter().all(|&s| s));
    }

    #[test]
    fn pareto_weights_are_heavy_tailed_and_capped() {
        let dist = WeightDist::Pareto {
            alpha: 1.1,
            cap: 64,
        };
        let mut rng = rng_from_seed(3);
        let samples: Vec<u64> = (0..20_000).map(|_| dist.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&w| (1..=64).contains(&w)));
        // A heavy tail at α = 1.1: the cap is actually hit...
        assert!(samples.contains(&64));
        // ...while most of the mass stays small (P[X > 8] = 8^-1.1 ≈ 0.10).
        let big = samples.iter().filter(|&&w| w > 8).count();
        let frac = big as f64 / samples.len() as f64;
        assert!((0.05..0.2).contains(&frac), "tail fraction {frac}");
    }

    #[test]
    fn speed_profiles_assign_deterministically() {
        assert_eq!(SpeedProfile::Uniform.speeds(4), vec![1, 1, 1, 1]);
        let two = SpeedProfile::TwoClass {
            speed: 4,
            fraction: 0.25,
        };
        assert_eq!(two.speeds(8), vec![4, 4, 1, 1, 1, 1, 1, 1]);
        assert_eq!(two.speeds(1), vec![4]);
        assert!(!two.is_uniform());
        assert!(SpeedProfile::TwoClass {
            speed: 1,
            fraction: 0.5
        }
        .is_uniform());
        assert!(SpeedProfile::TwoClass {
            speed: 9,
            fraction: 0.0
        }
        .is_uniform());
    }

    #[test]
    fn spec_strings_round_trip() {
        for s in ["unit", "uniform:1:8", "pareto:1.5:64"] {
            let d: WeightDist = s.parse().unwrap();
            assert_eq!(d.to_string(), s, "{s}");
        }
        for s in ["uniform", "two-class:4:0.25"] {
            let p: SpeedProfile = s.parse().unwrap();
            assert_eq!(p.to_string(), s, "{s}");
        }
        for bad in [
            "",
            "uniform:0:4",
            "uniform:5:2",
            "uniform:1",
            "pareto:0:8",
            "pareto:1.5:0",
            "uniform:1:8:9",
            "pareto:1.5:64:2",
            "nope",
        ] {
            assert!(bad.parse::<WeightDist>().is_err(), "{bad}");
        }
        for bad in [
            "",
            "two-class:0:0.5",
            "two-class:4:1.5",
            "two-class:4",
            "two-class:4:0.25:1",
            "x",
        ] {
            assert!(bad.parse::<SpeedProfile>().is_err(), "{bad}");
        }
        // A parameter on a name that takes none is an error naming the
        // spelling, not silently dropped.
        for bad in ["unit:3", "unit:"] {
            let err = bad.parse::<WeightDist>().unwrap_err();
            assert!(err.contains("takes no parameter"), "{bad}: {err}");
            assert!(err.contains(bad), "{bad}: {err}");
        }
        for bad in ["uniform:2", "uniform:"] {
            let err = bad.parse::<SpeedProfile>().unwrap_err();
            assert!(err.contains("takes no parameter"), "{bad}: {err}");
            assert!(err.contains(bad), "{bad}: {err}");
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(WeightDist::Unit.validate().is_ok());
        assert!(WeightDist::UniformInt { lo: 0, hi: 3 }.validate().is_err());
        assert!(WeightDist::Pareto {
            alpha: f64::NAN,
            cap: 8
        }
        .validate()
        .is_err());
        assert!(SpeedProfile::TwoClass {
            speed: 0,
            fraction: 0.5
        }
        .validate()
        .is_err());
    }

    #[test]
    fn serde_round_trip() {
        for d in [
            WeightDist::Unit,
            WeightDist::UniformInt { lo: 1, hi: 8 },
            WeightDist::Pareto {
                alpha: 1.5,
                cap: 64,
            },
        ] {
            let json = serde_json::to_string(&d).unwrap();
            let back: WeightDist = serde_json::from_str(&json).unwrap();
            assert_eq!(d, back);
        }
        for p in [
            SpeedProfile::Uniform,
            SpeedProfile::TwoClass {
                speed: 4,
                fraction: 0.25,
            },
        ] {
            let json = serde_json::to_string(&p).unwrap();
            let back: SpeedProfile = serde_json::from_str(&json).unwrap();
            assert_eq!(p, back);
        }
    }
}
