//! Membership churn processes: the law of bins joining and draining.
//!
//! The elastic engines superpose a [`ChurnProcess`] with the arrival,
//! departure and ring streams of the CTMC.  Like [`ArrivalProcess`]
//! (whose burst/hotspot shapes these profiles mirror), the variants are
//! plain serializable values with spec strings so campaign grids can name
//! them: `"none"`, `"steady:0.1:0.1"`, `"flash:0.05:4"`,
//! `"diurnal:200:0.2:0.2"`, each optionally suffixed `:warm`.
//!
//! Time-varying intensities (the diurnal profile) are realized by **exact
//! thinning**: candidate events fire at the constant majorant rate
//! [`max_rate`](ChurnProcess::max_rate) and are accepted with probability
//! `λ(t) / max_rate` — one bounded draw per candidate, so the stream is a
//! deterministic function of the RNG stream.
//!
//! [`ArrivalProcess`]: crate::ArrivalProcess

use rls_rng::{Rng64, RngExt};
use serde::{Deserialize, Serialize};

/// One resolved churn event: what the thinned candidate turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// `count` bins join; `warm` joins steal a fair share of balls from
    /// the incumbents (the exchangeable-ball law picks the victims).
    Join {
        /// Bins joining at this event.
        count: u64,
        /// Whether the joins are warm-started.
        warm: bool,
    },
    /// `count` bins drain and retire (their balls rebalance first).
    Drain {
        /// Bins draining at this event.
        count: u64,
    },
}

/// The law of a membership churn stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChurnProcess {
    /// No churn: the pre-elastic static-membership law.
    None,
    /// Memoryless single-bin churn: joins at rate `join_rate`, drains at
    /// rate `drain_rate` (absolute rates, not per-bin — autoscaler actions
    /// do not scale with fleet size).
    Steady {
        /// Bin joins per unit time.
        join_rate: f64,
        /// Bin drains per unit time.
        drain_rate: f64,
        /// Whether joining bins warm-start.
        warm: bool,
    },
    /// Flash-crowd scaling: events at rate `rate`, each a burst of `size`
    /// joins or `size` drains (fair coin) — the membership analogue of the
    /// bursty arrival process.
    Flash {
        /// Scale events per unit time.
        rate: f64,
        /// Bins per scale event.
        size: u64,
        /// Whether joining bins warm-start.
        warm: bool,
    },
    /// Diurnal scaling: a square wave of period `period` — joins (at
    /// `join_rate`) during the first half-period, drains (at
    /// `drain_rate`) during the second — realized by exact thinning.
    Diurnal {
        /// Length of one scale-up + scale-down cycle.
        period: f64,
        /// Bin joins per unit time while scaling up.
        join_rate: f64,
        /// Bin drains per unit time while scaling down.
        drain_rate: f64,
        /// Whether joining bins warm-start.
        warm: bool,
    },
}

impl ChurnProcess {
    /// A short identifier used in tables and spec strings.
    pub fn name(&self) -> &'static str {
        match self {
            ChurnProcess::None => "none",
            ChurnProcess::Steady { .. } => "steady",
            ChurnProcess::Flash { .. } => "flash",
            ChurnProcess::Diurnal { .. } => "diurnal",
        }
    }

    /// Whether this process ever produces an event.
    pub fn is_none(&self) -> bool {
        matches!(self, ChurnProcess::None)
    }

    /// The constant majorant rate of candidate churn events the engine
    /// superposes into its CTMC total.  Zero for [`None`](Self::None).
    pub fn max_rate(&self) -> f64 {
        match *self {
            ChurnProcess::None => 0.0,
            ChurnProcess::Steady {
                join_rate,
                drain_rate,
                ..
            } => join_rate + drain_rate,
            ChurnProcess::Flash { rate, .. } => rate,
            ChurnProcess::Diurnal {
                join_rate,
                drain_rate,
                ..
            } => join_rate.max(drain_rate),
        }
    }

    /// Resolve a candidate churn event that fired at simulated time `t`.
    ///
    /// Returns `None` when the thinning rejects the candidate (the
    /// time-varying intensity is below the majorant at `t`) — the engine
    /// advances the clock and emits nothing.  Consumes exactly one draw
    /// per candidate regardless of outcome.
    pub fn decide<R: Rng64 + ?Sized>(&self, t: f64, rng: &mut R) -> Option<ChurnEvent> {
        match *self {
            ChurnProcess::None => None,
            ChurnProcess::Steady {
                join_rate,
                drain_rate,
                warm,
            } => {
                let pick = rng.next_f64() * (join_rate + drain_rate);
                if pick < join_rate {
                    Some(ChurnEvent::Join { count: 1, warm })
                } else {
                    Some(ChurnEvent::Drain { count: 1 })
                }
            }
            ChurnProcess::Flash { size, warm, .. } => {
                if rng.next_bool() {
                    Some(ChurnEvent::Join { count: size, warm })
                } else {
                    Some(ChurnEvent::Drain { count: size })
                }
            }
            ChurnProcess::Diurnal {
                period,
                join_rate,
                drain_rate,
                warm,
            } => {
                let phase = (t / period).fract();
                let pick = rng.next_f64() * join_rate.max(drain_rate);
                if phase < 0.5 {
                    (pick < join_rate).then_some(ChurnEvent::Join { count: 1, warm })
                } else {
                    (pick < drain_rate).then_some(ChurnEvent::Drain { count: 1 })
                }
            }
        }
    }

    /// Whether the parameters are usable.
    pub fn validate(&self) -> Result<(), &'static str> {
        let finite_nonneg = |r: f64| -> Result<(), &'static str> {
            (r.is_finite() && r >= 0.0)
                .then_some(())
                .ok_or("churn rates must be finite and non-negative")
        };
        match *self {
            ChurnProcess::None => Ok(()),
            ChurnProcess::Steady {
                join_rate,
                drain_rate,
                ..
            } => {
                finite_nonneg(join_rate)?;
                finite_nonneg(drain_rate)?;
                (join_rate + drain_rate > 0.0)
                    .then_some(())
                    .ok_or("steady churn needs a positive total rate")
            }
            ChurnProcess::Flash { rate, size, .. } => {
                finite_nonneg(rate)?;
                if rate == 0.0 {
                    return Err("flash churn needs a positive rate");
                }
                (size >= 1)
                    .then_some(())
                    .ok_or("flash size must be at least one")
            }
            ChurnProcess::Diurnal {
                period,
                join_rate,
                drain_rate,
                ..
            } => {
                finite_nonneg(join_rate)?;
                finite_nonneg(drain_rate)?;
                if !(period.is_finite() && period > 0.0) {
                    return Err("diurnal period must be finite and positive");
                }
                (join_rate.max(drain_rate) > 0.0)
                    .then_some(())
                    .ok_or("diurnal churn needs a positive peak rate")
            }
        }
    }
}

impl core::fmt::Display for ChurnProcess {
    /// The spec-string form; [`FromStr`](core::str::FromStr) inverts it.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let warm_suffix = |warm: bool| if warm { ":warm" } else { "" };
        match *self {
            ChurnProcess::None => write!(f, "none"),
            ChurnProcess::Steady {
                join_rate,
                drain_rate,
                warm,
            } => write!(f, "steady:{join_rate}:{drain_rate}{}", warm_suffix(warm)),
            ChurnProcess::Flash { rate, size, warm } => {
                write!(f, "flash:{rate}:{size}{}", warm_suffix(warm))
            }
            ChurnProcess::Diurnal {
                period,
                join_rate,
                drain_rate,
                warm,
            } => write!(
                f,
                "diurnal:{period}:{join_rate}:{drain_rate}{}",
                warm_suffix(warm)
            ),
        }
    }
}

impl core::str::FromStr for ChurnProcess {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut parts: Vec<&str> = s.trim().split(':').map(str::trim).collect();
        let warm = parts.last() == Some(&"warm");
        if warm {
            parts.pop();
        }
        let bad = |what: &str| format!("bad {what} in churn spec `{s}`");
        let num = |v: &str, what: &str| -> Result<f64, String> {
            v.parse::<f64>().map_err(|_| bad(what))
        };
        let process = match parts.as_slice() {
            ["none"] => {
                if warm {
                    return Err("`none` churn takes no `warm` flag".into());
                }
                ChurnProcess::None
            }
            ["none", ..] => {
                return Err(format!(
                    "churn `none` takes no parameter (got `{}`)",
                    s.trim()
                ))
            }
            ["steady", j, d] => ChurnProcess::Steady {
                join_rate: num(j, "join rate")?,
                drain_rate: num(d, "drain rate")?,
                warm,
            },
            ["flash", r, size] => ChurnProcess::Flash {
                rate: num(r, "rate")?,
                size: size.parse().map_err(|_| bad("size"))?,
                warm,
            },
            ["diurnal", p, j, d] => ChurnProcess::Diurnal {
                period: num(p, "period")?,
                join_rate: num(j, "join rate")?,
                drain_rate: num(d, "drain rate")?,
                warm,
            },
            _ => return Err(format!("unknown churn spec `{s}`")),
        };
        process.validate().map_err(|e| e.to_string())?;
        Ok(process)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_rng::rng_from_seed;

    #[test]
    fn spec_strings_round_trip() {
        for s in [
            "none",
            "steady:0.1:0.2",
            "steady:0.1:0.2:warm",
            "flash:0.05:4",
            "flash:0.05:4:warm",
            "diurnal:200:0.2:0.3",
            "diurnal:200:0.2:0.3:warm",
        ] {
            let c: ChurnProcess = s.parse().unwrap();
            assert!(c.validate().is_ok(), "{s}");
            let back: ChurnProcess = c.to_string().parse().unwrap();
            assert_eq!(back, c, "{s}");
        }
        for bad in [
            "",
            "nope",
            "steady:0.1",
            "steady:x:y",
            "steady:0:0",
            "flash:0:4",
            "flash:0.1:0",
            "diurnal:0:1:1",
            "none:warm",
            "steady:0.1:0.2:0.3",
            "flash:0.05:4:2",
            "diurnal:200:0.2:0.3:1",
            "diurnal:200:0.2:0.3:warm:warm",
        ] {
            assert!(bad.parse::<ChurnProcess>().is_err(), "{bad}");
        }
        // A parameter on a name that takes none is an error naming the
        // spelling, not silently dropped.
        for bad in ["none:3", "none:"] {
            let err = bad.parse::<ChurnProcess>().unwrap_err();
            assert!(err.contains("takes no parameter"), "{bad}: {err}");
            assert!(err.contains(bad), "{bad}: {err}");
        }
    }

    #[test]
    fn majorant_rates() {
        assert_eq!(ChurnProcess::None.max_rate(), 0.0);
        let steady: ChurnProcess = "steady:0.1:0.3".parse().unwrap();
        assert!((steady.max_rate() - 0.4).abs() < 1e-12);
        let flash: ChurnProcess = "flash:0.05:8".parse().unwrap();
        assert!((flash.max_rate() - 0.05).abs() < 1e-12);
        let diurnal: ChurnProcess = "diurnal:100:0.2:0.5".parse().unwrap();
        assert!((diurnal.max_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn steady_splits_by_rate_share() {
        let c: ChurnProcess = "steady:0.3:0.1".parse().unwrap();
        let mut rng = rng_from_seed(1);
        let joins = (0..10_000)
            .filter(|_| matches!(c.decide(0.0, &mut rng), Some(ChurnEvent::Join { .. })))
            .count();
        // Join share 0.75.
        assert!((joins as f64 / 10_000.0 - 0.75).abs() < 0.02, "{joins}");
    }

    #[test]
    fn flash_bursts_carry_the_size() {
        let c: ChurnProcess = "flash:1:4:warm".parse().unwrap();
        let mut rng = rng_from_seed(2);
        for _ in 0..100 {
            match c.decide(0.0, &mut rng).unwrap() {
                ChurnEvent::Join { count, warm } => {
                    assert_eq!(count, 4);
                    assert!(warm);
                }
                ChurnEvent::Drain { count } => assert_eq!(count, 4),
            }
        }
    }

    #[test]
    fn diurnal_thinning_follows_the_square_wave() {
        let c: ChurnProcess = "diurnal:100:0.4:0.2".parse().unwrap();
        let mut rng = rng_from_seed(3);
        // First half-period: only joins (some candidates thinned when the
        // drain rate is the majorant — here join IS the majorant, so all
        // accepted).
        for _ in 0..200 {
            match c.decide(10.0, &mut rng) {
                Some(ChurnEvent::Join { .. }) | None => {}
                other => panic!("scale-up phase produced {other:?}"),
            }
        }
        // Second half-period: only drains; majorant 0.4 vs rate 0.2 means
        // about half the candidates thin away.
        let mut drains = 0;
        let mut thinned = 0;
        for _ in 0..2000 {
            match c.decide(60.0, &mut rng) {
                Some(ChurnEvent::Drain { .. }) => drains += 1,
                None => thinned += 1,
                other => panic!("scale-down phase produced {other:?}"),
            }
        }
        let share = drains as f64 / (drains + thinned) as f64;
        assert!((share - 0.5).abs() < 0.05, "accept share {share}");
    }

    #[test]
    fn serde_round_trip() {
        for c in [
            ChurnProcess::None,
            "steady:0.1:0.2:warm".parse().unwrap(),
            "flash:0.05:4".parse().unwrap(),
            "diurnal:200:0.2:0.3".parse().unwrap(),
        ] {
            let json = serde_json::to_string(&c).unwrap();
            let back: ChurnProcess = serde_json::from_str(&json).unwrap();
            assert_eq!(c, back);
        }
    }
}
