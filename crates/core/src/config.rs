//! Load configurations: the state of the balls-into-bins system.
//!
//! A configuration is the vector `ℓ = (ℓ_1, …, ℓ_n)` of bin loads with
//! `Σ ℓ_i = m` (Section 3 of the paper).  The struct also exposes the
//! derived quantities the analysis is phrased in: the average load `∅ = m/n`,
//! the discrepancy `disc(ℓ) = max_i |ℓ_i − ∅|`, the balance predicates, the
//! number of overloaded balls `Σ max(0, ℓ_i − ∅)` and the bin counts above /
//! at / below the average used by the Phase-2 potential.

// detlint: allow-file(D004) every float here (average, discrepancy,
// x-balance) is a read-only diagnostic derived on demand from the integer
// load vector; nothing float-valued is ever written back into the
// configuration, so the trajectory cannot be perturbed.

use serde::{Deserialize, Serialize};

use crate::{ConfigError, Move, MoveClass, MoveError};

/// Counts of bins relative to the average load, used by Lemmas 15–17.
///
/// With integer average `∅`, `above` is `h`, `at` is `r` and `below` is `k`
/// in the paper's notation.  With a fractional average no bin can be exactly
/// at the average, so `at` is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinCounts {
    /// Bins with load strictly above the average (`h`).
    pub above: usize,
    /// Bins with load exactly equal to the (integer) average (`r`).
    pub at: usize,
    /// Bins with load strictly below the average (`k`).
    pub below: usize,
}

/// A balls-into-bins load configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Config {
    // Crate-visible so a `LoadIndex`, whose leaves are a `Config`, can
    // update them in place on its hot path.
    pub(crate) loads: Vec<u64>,
    pub(crate) total: u64,
}

impl Config {
    /// Build a configuration from explicit bin loads.
    ///
    /// Fails if there are no bins or the total overflows `u64`.
    pub fn from_loads(loads: Vec<u64>) -> Result<Self, ConfigError> {
        if loads.is_empty() {
            return Err(ConfigError::NoBins);
        }
        let mut total: u64 = 0;
        for &l in &loads {
            total = total.checked_add(l).ok_or(ConfigError::TotalOverflow)?;
        }
        Ok(Self { loads, total })
    }

    /// `n` bins each holding exactly `per_bin` balls.
    pub fn uniform(n: usize, per_bin: u64) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::NoBins);
        }
        (per_bin as u128 * n as u128 <= u64::MAX as u128)
            .then(|| Self {
                loads: vec![per_bin; n],
                total: per_bin * n as u64,
            })
            .ok_or(ConfigError::TotalOverflow)
    }

    /// All `m` balls stacked in bin 0 of an `n`-bin system — the worst-case
    /// start used throughout the paper's Phase-1 analysis.
    pub fn all_in_one_bin(n: usize, m: u64) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::NoBins);
        }
        let mut loads = vec![0u64; n];
        loads[0] = m;
        Ok(Self { loads, total: m })
    }

    /// Number of bins `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.loads.len()
    }

    /// Number of balls `m`.
    #[inline]
    pub fn m(&self) -> u64 {
        self.total
    }

    /// Load of bin `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn load(&self, i: usize) -> u64 {
        self.loads[i]
    }

    /// The full load vector.
    #[inline]
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// The average load `∅ = m/n` as a float.
    #[inline]
    pub fn average(&self) -> f64 {
        self.total as f64 / self.loads.len() as f64
    }

    /// `⌊m/n⌋`.
    #[inline]
    pub fn floor_average(&self) -> u64 {
        self.total / self.loads.len() as u64
    }

    /// `⌈m/n⌉`.
    #[inline]
    pub fn ceil_average(&self) -> u64 {
        self.total.div_ceil(self.loads.len() as u64)
    }

    /// Whether `n` divides `m` (the simplifying assumption of Section 6).
    #[inline]
    pub fn divides_evenly(&self) -> bool {
        self.total.is_multiple_of(self.loads.len() as u64)
    }

    /// Maximum bin load.
    pub fn max_load(&self) -> u64 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Minimum bin load.
    pub fn min_load(&self) -> u64 {
        self.loads.iter().copied().min().unwrap_or(0)
    }

    /// The discrepancy `disc(ℓ) = max_i |ℓ_i − ∅|`.
    pub fn discrepancy(&self) -> f64 {
        let avg = self.average();
        let above = self.max_load() as f64 - avg;
        let below = avg - self.min_load() as f64;
        above.max(below).max(0.0)
    }

    /// Whether the configuration is `x`-balanced, i.e. `disc(ℓ) ≤ x`.
    pub fn is_x_balanced(&self, x: f64) -> bool {
        self.discrepancy() <= x
    }

    /// Whether the configuration is perfectly balanced, i.e. `disc(ℓ) < 1`.
    ///
    /// Equivalently every load lies in `{⌊∅⌋, ⌈∅⌉}`, and when `n | m` every
    /// load equals `m/n` exactly.
    pub fn is_perfectly_balanced(&self) -> bool {
        self.discrepancy() < 1.0
    }

    /// Number of *overloaded balls* `Σ_i max(0, ℓ_i − ⌈∅⌉)` …
    ///
    /// The paper defines this with the exact average `∅` under the
    /// assumption `n | m`; to stay meaningful for arbitrary `m` we count the
    /// balls exceeding `⌈∅⌉` plus, for bins at `⌈∅⌉`…  — no: we follow the
    /// paper exactly when `n | m` and generalize by measuring against the
    /// *ceiling* average otherwise, which is the quantity that must reach
    /// zero for perfect balance.
    pub fn overloaded_balls(&self) -> u64 {
        let target = self.ceil_average();
        self.loads.iter().map(|&l| l.saturating_sub(target)).sum()
    }

    /// Number of *holes* `Σ_i max(0, ⌊∅⌋ − ℓ_i)` (equals
    /// [`overloaded_balls`](Self::overloaded_balls) when `n | m`, as the
    /// paper observes).
    pub fn holes(&self) -> u64 {
        let target = self.floor_average();
        self.loads.iter().map(|&l| target.saturating_sub(l)).sum()
    }

    /// Bin counts above / at / below the average (the `h`, `r`, `k` of
    /// Lemma 16).  Comparison is against the exact average `m/n`.
    pub fn bin_counts(&self) -> BinCounts {
        let n = self.loads.len() as u64;
        let (mut above, mut at, mut below) = (0usize, 0usize, 0usize);
        for &l in &self.loads {
            // Compare l with m/n exactly: l*n vs m (u128 to avoid overflow).
            let lhs = l as u128 * n as u128;
            let rhs = self.total as u128;
            match lhs.cmp(&rhs) {
                core::cmp::Ordering::Greater => above += 1,
                core::cmp::Ordering::Equal => at += 1,
                core::cmp::Ordering::Less => below += 1,
            }
        }
        BinCounts { above, at, below }
    }

    /// Classify a move relative to this configuration (Figure 1).
    pub fn classify(&self, mv: Move) -> Result<MoveClass, MoveError> {
        let n = self.loads.len();
        if mv.from >= n || mv.to >= n {
            return Err(MoveError::BinOutOfRange { mv, n });
        }
        Ok(MoveClass::classify(
            self.loads[mv.from],
            self.loads[mv.to],
            mv.is_self_loop(),
        ))
    }

    /// Apply a move unconditionally (no legality check beyond a non-empty
    /// source).  The RLS rule and the adversary both funnel through here.
    pub fn apply(&mut self, mv: Move) -> Result<(), MoveError> {
        let n = self.loads.len();
        if mv.from >= n || mv.to >= n {
            return Err(MoveError::BinOutOfRange { mv, n });
        }
        if self.loads[mv.from] == 0 {
            return Err(MoveError::EmptySource { mv });
        }
        if mv.from != mv.to {
            self.loads[mv.from] -= 1;
            self.loads[mv.to] += 1;
        }
        Ok(())
    }

    /// Add one ball to bin `bin` (a *dynamic arrival*).
    ///
    /// Unlike [`apply`](Self::apply) this changes `m`, so every
    /// average-relative quantity (discrepancy, overloaded balls, holes, bin
    /// counts) shifts; callers maintaining a [`LoadTracker`](crate::LoadTracker)
    /// must record the arrival through
    /// [`record_insert`](crate::LoadTracker::record_insert).
    pub fn add_ball(&mut self, bin: usize) -> Result<(), ConfigError> {
        let n = self.loads.len();
        if bin >= n {
            return Err(ConfigError::BinOutOfRange { bin, n });
        }
        self.total = self
            .total
            .checked_add(1)
            .ok_or(ConfigError::TotalOverflow)?;
        self.loads[bin] += 1;
        Ok(())
    }

    /// Remove one ball from bin `bin` (a *dynamic departure*).
    ///
    /// Fails if the bin is empty; the companion of
    /// [`add_ball`](Self::add_ball).
    pub fn remove_ball(&mut self, bin: usize) -> Result<(), ConfigError> {
        let n = self.loads.len();
        if bin >= n {
            return Err(ConfigError::BinOutOfRange { bin, n });
        }
        if self.loads[bin] == 0 {
            return Err(ConfigError::EmptyBin { bin });
        }
        self.loads[bin] -= 1;
        self.total -= 1;
        Ok(())
    }

    /// Append a fresh, empty bin at the end of the load vector (an elastic
    /// *bin join*): `n` grows by one, `m` is unchanged, the new bin's id is
    /// returned.
    ///
    /// Elastic engines keep retired bins in the vector at load zero, so
    /// every average-relative quantity on `Config` counts *allocated* bins;
    /// live-set statistics come from the engine's
    /// [`LoadTracker`](crate::LoadTracker), which tracks members only.
    pub fn push_bin(&mut self) -> usize {
        self.loads.push(0);
        self.loads.len() - 1
    }

    /// Histogram of loads: for each load value, how many bins carry it.
    pub fn histogram(&self) -> std::collections::BTreeMap<u64, usize> {
        let mut hist = std::collections::BTreeMap::new();
        for &l in &self.loads {
            *hist.entry(l).or_insert(0) += 1;
        }
        hist
    }

    /// Total number of ball–bin assignments differing from a perfectly
    /// balanced target; a convenient progress measure for examples/benches
    /// (not used by the paper's analysis).
    pub fn imbalance_l1(&self) -> u64 {
        let floor = self.floor_average();
        let ceil = self.ceil_average();
        self.loads
            .iter()
            .map(|&l| {
                if l > ceil {
                    l - ceil
                } else {
                    floor.saturating_sub(l)
                }
            })
            .sum()
    }
}

impl core::fmt::Display for Config {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Config(n={}, m={}, disc={:.2})",
            self.n(),
            self.m(),
            self.discrepancy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_loads_rejects_empty() {
        assert_eq!(Config::from_loads(vec![]), Err(ConfigError::NoBins));
    }

    #[test]
    fn from_loads_rejects_overflow() {
        assert_eq!(
            Config::from_loads(vec![u64::MAX, 1]),
            Err(ConfigError::TotalOverflow)
        );
    }

    #[test]
    fn uniform_and_all_in_one() {
        let u = Config::uniform(4, 3).unwrap();
        assert_eq!(u.loads(), &[3, 3, 3, 3]);
        assert_eq!(u.m(), 12);
        assert!(u.is_perfectly_balanced());

        let w = Config::all_in_one_bin(4, 12).unwrap();
        assert_eq!(w.loads(), &[12, 0, 0, 0]);
        assert_eq!(w.m(), 12);
        assert_eq!(w.discrepancy(), 9.0);
    }

    #[test]
    fn uniform_zero_bins_rejected() {
        assert!(Config::uniform(0, 5).is_err());
        assert!(Config::all_in_one_bin(0, 5).is_err());
    }

    #[test]
    fn averages_and_divisibility() {
        let c = Config::from_loads(vec![2, 3, 2]).unwrap(); // m=7, n=3
        assert!((c.average() - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.floor_average(), 2);
        assert_eq!(c.ceil_average(), 3);
        assert!(!c.divides_evenly());
        let d = Config::uniform(3, 5).unwrap();
        assert!(d.divides_evenly());
    }

    #[test]
    fn discrepancy_matches_definition() {
        let c = Config::from_loads(vec![5, 1, 3, 3]).unwrap(); // avg 3
        assert_eq!(c.discrepancy(), 2.0);
        let below_heavy = Config::from_loads(vec![4, 0, 4, 4]).unwrap(); // avg 3
        assert_eq!(below_heavy.discrepancy(), 3.0);
    }

    #[test]
    fn perfect_balance_integer_average() {
        let c = Config::from_loads(vec![3, 3, 3]).unwrap();
        assert!(c.is_perfectly_balanced());
        let d = Config::from_loads(vec![4, 2, 3]).unwrap();
        assert!(!d.is_perfectly_balanced());
    }

    #[test]
    fn perfect_balance_fractional_average() {
        // m=7, n=3, avg 2.33: loads {2,2,3} are perfectly balanced.
        let c = Config::from_loads(vec![2, 2, 3]).unwrap();
        assert!(c.is_perfectly_balanced());
        // {1,3,3} has disc = 1.33.
        let d = Config::from_loads(vec![1, 3, 3]).unwrap();
        assert!(!d.is_perfectly_balanced());
    }

    #[test]
    fn x_balanced_is_inclusive() {
        let c = Config::from_loads(vec![5, 1, 3, 3]).unwrap();
        assert!(c.is_x_balanced(2.0));
        assert!(!c.is_x_balanced(1.9));
    }

    #[test]
    fn overloaded_balls_and_holes_match_when_divisible() {
        let c = Config::from_loads(vec![6, 2, 4, 4, 4, 4]).unwrap(); // avg 4
        assert_eq!(c.overloaded_balls(), 2);
        assert_eq!(c.holes(), 2);
        // Staircase with integer average: overloaded balls equal the holes.
        let stair = Config::from_loads(vec![6, 5, 4, 4, 4, 4, 3, 2]).unwrap();
        assert_eq!(stair.average(), 4.0);
        assert_eq!(stair.overloaded_balls(), 3);
        assert_eq!(stair.holes(), 3);
    }

    #[test]
    fn bin_counts_integer_average() {
        let c = Config::from_loads(vec![6, 2, 4, 4]).unwrap(); // avg 4
        let counts = c.bin_counts();
        assert_eq!(
            counts,
            BinCounts {
                above: 1,
                at: 2,
                below: 1
            }
        );
    }

    #[test]
    fn bin_counts_fractional_average() {
        let c = Config::from_loads(vec![3, 2, 2]).unwrap(); // avg 7/3
        let counts = c.bin_counts();
        assert_eq!(counts.at, 0);
        assert_eq!(counts.above, 1);
        assert_eq!(counts.below, 2);
    }

    #[test]
    fn apply_moves_and_conservation() {
        let mut c = Config::from_loads(vec![4, 1, 1]).unwrap();
        c.apply(Move::new(0, 1)).unwrap();
        assert_eq!(c.loads(), &[3, 2, 1]);
        assert_eq!(c.m(), 6);
        // Self-loop changes nothing.
        c.apply(Move::new(2, 2)).unwrap();
        assert_eq!(c.loads(), &[3, 2, 1]);
    }

    #[test]
    fn apply_rejects_bad_moves() {
        let mut c = Config::from_loads(vec![1, 0]).unwrap();
        assert!(matches!(
            c.apply(Move::new(1, 0)),
            Err(MoveError::EmptySource { .. })
        ));
        assert!(matches!(
            c.apply(Move::new(0, 5)),
            Err(MoveError::BinOutOfRange { .. })
        ));
        assert!(matches!(
            c.classify(Move::new(9, 0)),
            Err(MoveError::BinOutOfRange { .. })
        ));
    }

    #[test]
    fn classify_delegates_to_move_class() {
        let c = Config::from_loads(vec![5, 3, 4]).unwrap();
        assert_eq!(c.classify(Move::new(0, 1)).unwrap(), MoveClass::Improving);
        assert_eq!(c.classify(Move::new(0, 2)).unwrap(), MoveClass::Neutral);
        assert_eq!(c.classify(Move::new(1, 0)).unwrap(), MoveClass::Destructive);
        assert_eq!(c.classify(Move::new(1, 1)).unwrap(), MoveClass::SelfLoop);
    }

    #[test]
    fn histogram_counts_bins_per_load() {
        let c = Config::from_loads(vec![1, 4, 2, 4]).unwrap();
        let h = c.histogram();
        assert_eq!(h.get(&4), Some(&2));
        assert_eq!(h.get(&1), Some(&1));
        assert_eq!(h.get(&3), None);
    }

    #[test]
    fn imbalance_l1_zero_iff_balanced() {
        let balanced = Config::from_loads(vec![2, 2, 3]).unwrap();
        assert_eq!(balanced.imbalance_l1(), 0);
        let skewed = Config::from_loads(vec![7, 0, 0]).unwrap();
        assert!(skewed.imbalance_l1() > 0);
    }

    #[test]
    fn add_ball_grows_the_population() {
        let mut c = Config::from_loads(vec![2, 0, 1]).unwrap();
        c.add_ball(1).unwrap();
        assert_eq!(c.loads(), &[2, 1, 1]);
        assert_eq!(c.m(), 4);
        assert!((c.average() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            c.add_ball(9),
            Err(ConfigError::BinOutOfRange { bin: 9, n: 3 })
        );
    }

    #[test]
    fn remove_ball_shrinks_the_population() {
        let mut c = Config::from_loads(vec![2, 0, 1]).unwrap();
        c.remove_ball(2).unwrap();
        assert_eq!(c.loads(), &[2, 0, 0]);
        assert_eq!(c.m(), 2);
        assert_eq!(c.remove_ball(2), Err(ConfigError::EmptyBin { bin: 2 }));
        assert_eq!(
            c.remove_ball(7),
            Err(ConfigError::BinOutOfRange { bin: 7, n: 3 })
        );
        // Draining the whole configuration is legal: m = 0 is a valid
        // (trivially balanced) dynamic state.
        c.remove_ball(0).unwrap();
        c.remove_ball(0).unwrap();
        assert_eq!(c.m(), 0);
        assert!(c.is_perfectly_balanced());
    }

    #[test]
    fn add_ball_rejects_overflow() {
        let mut c = Config::from_loads(vec![u64::MAX]).unwrap();
        assert_eq!(c.add_ball(0), Err(ConfigError::TotalOverflow));
        assert_eq!(c.m(), u64::MAX);
    }

    #[test]
    fn add_remove_round_trip_is_identity() {
        let mut c = Config::from_loads(vec![5, 1, 3]).unwrap();
        let before = c.clone();
        c.add_ball(1).unwrap();
        c.remove_ball(1).unwrap();
        assert_eq!(c, before);
    }

    #[test]
    fn display_mentions_sizes() {
        let c = Config::uniform(3, 2).unwrap();
        let s = c.to_string();
        assert!(s.contains("n=3") && s.contains("m=6"));
    }

    #[test]
    fn serde_round_trip() {
        let c = Config::from_loads(vec![3, 1, 2]).unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let back: Config = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
