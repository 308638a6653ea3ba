//! Arrival processes for dynamic (online) instances.
//!
//! The paper analyses a *static* instance — `m` balls placed once — but the
//! live engine (`rls-live`) superposes the RLS clocks with a stream of ball
//! arrivals and departures.  An [`ArrivalProcess`] describes the *law* of
//! that stream: how arrival epochs are spaced in continuous time, how many
//! balls each epoch injects, and where they land.  Like [`Workload`], the
//! variants are plain values with a spec-string form (`Display` +
//! `FromStr`: `"poisson:2"`, `"bursts:2:16"`, `"hotspot:2:0.5"`) that
//! campaign grids and the CLI's `--arrival` flag both read.
//!
//! Rates are *per bin*: a process with `rate_per_bin = α` injects `α · n`
//! balls per unit of simulated time into an `n`-bin system, so the same
//! spec string keeps the offered load density constant across a grid's `n`
//! axis.
//!
//! [`Workload`]: crate::Workload

use rls_core::Membership;
use rls_rng::{Rng64, RngExt};
use serde::{Deserialize, Serialize};

/// The law of a dynamic arrival stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Poisson arrivals of single balls, each placed in a uniformly random
    /// bin — the memoryless baseline.
    Poisson {
        /// Arrivals per bin per unit time.
        rate_per_bin: f64,
    },
    /// Adversarial bursts: arrival *epochs* are Poisson with rate
    /// `α · n / size`, and every epoch injects `size` balls at once (uniform
    /// placement), preserving the mean rate `α · n` while maximizing
    /// instantaneous imbalance.
    Bursts {
        /// Mean arrivals per bin per unit time.
        rate_per_bin: f64,
        /// Balls injected per burst epoch.
        size: u64,
    },
    /// A skewed stream: each arriving ball lands in bin 0 with probability
    /// `bias`, otherwise uniformly — the adversarial hotspot that a static
    /// workload cannot express.
    Hotspot {
        /// Arrivals per bin per unit time.
        rate_per_bin: f64,
        /// Probability an arrival targets bin 0 (clamped to `[0, 1]`).
        bias: f64,
    },
}

impl ArrivalProcess {
    /// A short identifier used in tables and spec strings.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursts { .. } => "bursts",
            ArrivalProcess::Hotspot { .. } => "hotspot",
        }
    }

    /// Mean arrivals per bin per unit time.
    pub fn rate_per_bin(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_bin }
            | ArrivalProcess::Bursts { rate_per_bin, .. }
            | ArrivalProcess::Hotspot { rate_per_bin, .. } => rate_per_bin,
        }
    }

    /// Total mean arrival rate into an `n`-bin system.
    pub fn total_rate(&self, n: usize) -> f64 {
        self.rate_per_bin() * n as f64
    }

    /// Rate of arrival *epochs* in an `n`-bin system (for bursts, epochs
    /// are rarer than balls by the burst size).
    pub fn epoch_rate(&self, n: usize) -> f64 {
        match *self {
            ArrivalProcess::Bursts { size, .. } => self.total_rate(n) / size.max(1) as f64,
            _ => self.total_rate(n),
        }
    }

    /// Number of balls injected at one epoch.
    pub fn epoch_size(&self) -> u64 {
        match *self {
            ArrivalProcess::Bursts { size, .. } => size.max(1),
            _ => 1,
        }
    }

    /// Sample the destination bin of one arriving ball.
    pub fn place<R: Rng64 + ?Sized>(&self, n: usize, rng: &mut R) -> usize {
        self.place_at(n, |k| k, rng)
    }

    /// Sample the destination among an explicit id list.  The hotspot's
    /// privileged bin is `ids[0]`.
    ///
    /// For a dense list `ids == [0, n)` this consumes the exact same
    /// draws as [`place`](Self::place) and returns the same bin.
    ///
    /// # Panics
    /// Panics if `ids` is empty.
    pub fn place_among<R: Rng64 + ?Sized>(&self, ids: &[u32], rng: &mut R) -> usize {
        self.place_at(ids.len(), |k| ids[k] as usize, rng)
    }

    /// Sample the destination among the live bins — the elastic engines'
    /// placement path, where the live bin set is no longer `0..n`.  The
    /// hotspot's privileged bin is the one at live position 0 (the
    /// boot-time bin 0 until it retires).
    ///
    /// Before the first scale event the live set is `0..n` and this
    /// consumes the exact same draws as [`place`](Self::place), reading
    /// no id array, so churn-free trajectories are unchanged.
    pub fn place_live<R: Rng64 + ?Sized>(&self, membership: &Membership, rng: &mut R) -> usize {
        self.place_at(membership.live_count(), |k| membership.live_at(k), rng)
    }

    /// The placement law over `count` positions, `at` mapping a position
    /// to its bin.
    #[inline]
    fn place_at<R: Rng64 + ?Sized>(
        &self,
        count: usize,
        at: impl Fn(usize) -> usize,
        rng: &mut R,
    ) -> usize {
        match *self {
            ArrivalProcess::Hotspot { bias, .. } if rng.next_bernoulli(bias) => at(0),
            _ => at(rng.next_index(count)),
        }
    }

    /// Whether the parameters are usable (finite positive rate, valid burst
    /// size / bias).
    pub fn validate(&self) -> Result<(), &'static str> {
        let rate = self.rate_per_bin();
        if !(rate.is_finite() && rate > 0.0) {
            return Err("arrival rate must be finite and positive");
        }
        match *self {
            ArrivalProcess::Bursts { size: 0, .. } => Err("burst size must be at least one"),
            ArrivalProcess::Hotspot { bias, .. } if !(0.0..=1.0).contains(&bias) => {
                Err("hotspot bias must lie in [0, 1]")
            }
            _ => Ok(()),
        }
    }
}

impl core::fmt::Display for ArrivalProcess {
    /// The spec-string form; [`FromStr`](core::str::FromStr) inverts it.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            ArrivalProcess::Poisson { rate_per_bin } => write!(f, "poisson:{rate_per_bin}"),
            ArrivalProcess::Bursts { rate_per_bin, size } => {
                write!(f, "bursts:{rate_per_bin}:{size}")
            }
            ArrivalProcess::Hotspot { rate_per_bin, bias } => {
                write!(f, "hotspot:{rate_per_bin}:{bias}")
            }
        }
    }
}

impl core::str::FromStr for ArrivalProcess {
    type Err = String;

    /// Parse the spec-string forms `poisson:<rate>`, `bursts:<rate>:<size>`
    /// and `hotspot:<rate>:<bias>`; the result is
    /// [`validate`](ArrivalProcess::validate)d.
    fn from_str(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':').map(str::trim);
        let head = parts.next().unwrap_or("");
        let mut param = |need: &str| parts.next().ok_or_else(|| format!("`{head}` needs {need}"));
        let bad = |what: &str| format!("bad {what} in `{s}`");
        let need_rate = format!("a rate, e.g. `{head}:2.0`");
        let rate = |p: &str| p.parse().map_err(|_| bad("arrival rate"));
        let process = match head {
            "poisson" => ArrivalProcess::Poisson {
                rate_per_bin: rate(param(&need_rate)?)?,
            },
            "bursts" => ArrivalProcess::Bursts {
                rate_per_bin: rate(param(&need_rate)?)?,
                size: param("a size, e.g. `bursts:2:16`")?
                    .parse()
                    .map_err(|_| bad("burst size"))?,
            },
            "hotspot" => ArrivalProcess::Hotspot {
                rate_per_bin: rate(param(&need_rate)?)?,
                bias: param("a bias, e.g. `hotspot:2:0.25`")?
                    .parse()
                    .map_err(|_| bad("hotspot bias"))?,
            },
            other => return Err(format!("unknown arrival process `{other}`")),
        };
        if parts.next().is_some() {
            return Err(format!("too many parameters in arrival process `{s}`"));
        }
        process
            .validate()
            .map_err(|e| format!("arrival process `{s}`: {e}"))?;
        Ok(process)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_rng::rng_from_seed;

    #[test]
    fn spec_strings_round_trip() {
        for s in ["poisson:2", "bursts:1.5:16", "hotspot:2:0.25"] {
            assert_eq!(s.parse::<ArrivalProcess>().unwrap().to_string(), s);
        }
        for bad in [
            "poisson",
            "poisson:zero",
            "poisson:-1",
            "bursts:2",
            "bursts:2:0",
            "hotspot:2",
            "hotspot:2:1.5",
            "poisson:2:3",
            "bursts:1.5:16:2",
            "hotspot:2:0.25:1",
            "poisson:",
            "meteor:1",
        ] {
            assert!(bad.parse::<ArrivalProcess>().is_err(), "{bad}");
        }
    }

    #[test]
    fn rates_and_epochs() {
        let p = ArrivalProcess::Poisson { rate_per_bin: 2.0 };
        assert_eq!(p.total_rate(8), 16.0);
        assert_eq!(p.epoch_rate(8), 16.0);
        assert_eq!(p.epoch_size(), 1);

        let b = ArrivalProcess::Bursts {
            rate_per_bin: 2.0,
            size: 4,
        };
        assert_eq!(b.total_rate(8), 16.0);
        assert_eq!(b.epoch_rate(8), 4.0);
        assert_eq!(b.epoch_size(), 4);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            ArrivalProcess::Poisson { rate_per_bin: 1.0 }.name(),
            "poisson"
        );
        assert_eq!(
            ArrivalProcess::Bursts {
                rate_per_bin: 1.0,
                size: 2
            }
            .name(),
            "bursts"
        );
        assert_eq!(
            ArrivalProcess::Hotspot {
                rate_per_bin: 1.0,
                bias: 0.5
            }
            .name(),
            "hotspot"
        );
    }

    #[test]
    fn hotspot_biases_toward_bin_zero() {
        let hot = ArrivalProcess::Hotspot {
            rate_per_bin: 1.0,
            bias: 0.8,
        };
        let mut rng = rng_from_seed(1);
        let n = 16;
        let hits = (0..10_000).filter(|_| hot.place(n, &mut rng) == 0).count();
        // 0.8 direct + 0.2/16 uniform ≈ 0.8125.
        assert!((hits as f64 / 10_000.0 - 0.8125).abs() < 0.02);
    }

    #[test]
    fn uniform_placement_covers_all_bins() {
        let p = ArrivalProcess::Poisson { rate_per_bin: 1.0 };
        let mut rng = rng_from_seed(2);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[p.place(8, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn place_among_a_dense_list_is_bit_identical_to_place() {
        let ids: Vec<u32> = (0..16).collect();
        for proc in [
            ArrivalProcess::Poisson { rate_per_bin: 1.0 },
            ArrivalProcess::Hotspot {
                rate_per_bin: 1.0,
                bias: 0.6,
            },
        ] {
            let mut a = rng_from_seed(77);
            let mut b = rng_from_seed(77);
            for _ in 0..2000 {
                assert_eq!(proc.place(16, &mut a), proc.place_among(&ids, &mut b));
            }
        }
    }

    #[test]
    fn place_among_respects_a_sparse_live_set() {
        let ids = [3u32, 9, 4];
        let hot = ArrivalProcess::Hotspot {
            rate_per_bin: 1.0,
            bias: 0.7,
        };
        let mut rng = rng_from_seed(5);
        let mut hits = [0usize; 16];
        for _ in 0..3000 {
            hits[hot.place_among(&ids, &mut rng)] += 1;
        }
        assert_eq!(hits.iter().sum::<usize>(), 3000);
        assert!(
            hits[3] > hits[9] && hits[3] > hits[4],
            "ids[0] is the hotspot"
        );
        for (bin, &h) in hits.iter().enumerate() {
            if ![3usize, 9, 4].contains(&bin) {
                assert_eq!(h, 0, "bin {bin} is not live");
            }
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(ArrivalProcess::Poisson { rate_per_bin: 1.0 }
            .validate()
            .is_ok());
        assert!(ArrivalProcess::Poisson { rate_per_bin: 0.0 }
            .validate()
            .is_err());
        assert!(ArrivalProcess::Poisson {
            rate_per_bin: f64::NAN
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Bursts {
            rate_per_bin: 1.0,
            size: 0
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Hotspot {
            rate_per_bin: 1.0,
            bias: 1.5
        }
        .validate()
        .is_err());
    }

    #[test]
    fn serde_round_trip() {
        for p in [
            ArrivalProcess::Poisson { rate_per_bin: 2.5 },
            ArrivalProcess::Bursts {
                rate_per_bin: 1.0,
                size: 16,
            },
            ArrivalProcess::Hotspot {
                rate_per_bin: 0.5,
                bias: 0.25,
            },
        ] {
            let json = serde_json::to_string(&p).unwrap();
            let back: ArrivalProcess = serde_json::from_str(&json).unwrap();
            assert_eq!(p, back);
        }
    }
}
