//! The Phase-2 potential function of Lemma 16.
//!
//! With `A` the number of overloaded balls, `h` the number of bins with load
//! above the average, `r` the number of bins exactly at the average and `k`
//! the number below it, the paper tracks the potential `Φ = 3A − k − h`.
//! The claim driving Lemma 16 is that while `A > min(h, k)` the expected
//! time to decrease `Φ` by at least 1 is at most `3/∅`, and once
//! `A = min(h, k)` the configuration is already 1-balanced.
//!
//! This module computes the potential and packages the snapshot quantities
//! the experiment harness records along a trajectory.

// detlint: allow-file(D004) the phase-2 potential itself (3A − k − h) is
// integer arithmetic throughout; the only float is the discrepancy
// diagnostic copied into the snapshot for reporting.

use serde::{Deserialize, Serialize};

use crate::Config;

/// All quantities entering the Lemma-16 argument, captured at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase2Snapshot {
    /// Number of overloaded balls `A`.
    pub overloaded_balls: u64,
    /// Bins with load above the average (`h`).
    pub bins_above: usize,
    /// Bins with load exactly at the (integer) average (`r`).
    pub bins_at: usize,
    /// Bins with load below the average (`k`).
    pub bins_below: usize,
    /// The potential `3A − k − h`.
    pub potential: i64,
    /// Current discrepancy.
    pub discrepancy: f64,
}

impl Phase2Snapshot {
    /// Capture the snapshot for a configuration.
    pub fn capture(cfg: &Config) -> Self {
        let counts = cfg.bin_counts();
        let a = cfg.overloaded_balls();
        Self {
            overloaded_balls: a,
            bins_above: counts.above,
            bins_at: counts.at,
            bins_below: counts.below,
            potential: phase2_potential(a, counts.above, counts.below),
            discrepancy: cfg.discrepancy(),
        }
    }
}

/// The potential `Φ = 3A − k − h` of Lemma 16.
pub fn phase2_potential(overloaded_balls: u64, bins_above: usize, bins_below: usize) -> i64 {
    3 * overloaded_balls as i64 - bins_below as i64 - bins_above as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Move, RlsRule};

    #[test]
    fn potential_formula() {
        assert_eq!(phase2_potential(5, 2, 3), 15 - 3 - 2);
        assert_eq!(phase2_potential(0, 0, 0), 0);
    }

    #[test]
    fn snapshot_of_balanced_configuration() {
        let cfg = Config::uniform(6, 4).unwrap();
        let s = Phase2Snapshot::capture(&cfg);
        assert_eq!(s.overloaded_balls, 0);
        assert_eq!(s.bins_above, 0);
        assert_eq!(s.bins_below, 0);
        assert_eq!(s.bins_at, 6);
        assert_eq!(s.potential, 0);
        assert_eq!(s.discrepancy, 0.0);
    }

    #[test]
    fn snapshot_of_skewed_configuration() {
        // avg 4; loads: 7 (A contributes 3), 1 (hole 3), rest at 4.
        let cfg = Config::from_loads(vec![7, 1, 4, 4, 4, 4]).unwrap();
        let s = Phase2Snapshot::capture(&cfg);
        assert_eq!(s.overloaded_balls, 3);
        assert_eq!(s.bins_above, 1);
        assert_eq!(s.bins_below, 1);
        assert_eq!(s.bins_at, 4);
        assert_eq!(s.potential, 9 - 1 - 1);
        assert_eq!(s.discrepancy, 3.0);
    }

    #[test]
    fn a_equals_min_hk_implies_one_balanced() {
        // Loads within {∅-1, ∅, ∅+1}: A = h and k ≥ ... per the paper,
        // A = min(h,k) forces max ≤ ∅+1 and min ≥ ∅-1.
        let cfg = Config::from_loads(vec![5, 3, 4, 4, 4, 4]).unwrap(); // avg 4
        let s = Phase2Snapshot::capture(&cfg);
        assert_eq!(s.overloaded_balls, 1);
        assert_eq!(s.bins_above.min(s.bins_below), 1);
        assert!(s.discrepancy <= 1.0);
    }

    #[test]
    fn potential_is_bounded_by_three_n_and_nonnegative_in_practice() {
        // For any configuration: A ≥ max(h, k) ⇒ 3A − k − h ≥ A ≥ 0, and
        // A ≤ n · disc so the potential is at most 3n·disc.  Check the
        // non-negativity claim on a sweep of configurations.
        let configs = [
            vec![9, 0, 0],
            vec![4, 4, 4, 0],
            vec![6, 5, 4, 3, 2],
            vec![1, 1, 1, 1, 8],
            vec![2, 2, 2, 2, 2],
        ];
        for loads in configs {
            let cfg = Config::from_loads(loads.clone()).unwrap();
            let s = Phase2Snapshot::capture(&cfg);
            assert!(
                s.potential >= 0,
                "potential negative for {loads:?}: {}",
                s.potential
            );
            assert!(s.overloaded_balls >= s.bins_above as u64);
        }
    }

    #[test]
    fn potential_never_increases_under_rls_moves() {
        // The Lemma 16 proof notes Φ never increases over time; verify over
        // every legal move of a concrete configuration.
        let cfg = Config::from_loads(vec![7, 6, 4, 4, 2, 1]).unwrap(); // avg 4
        let rule = RlsRule::paper();
        let before = Phase2Snapshot::capture(&cfg).potential;
        for from in 0..cfg.n() {
            for to in 0..cfg.n() {
                let mv = Move::new(from, to);
                if from == to || !rule.permits(&cfg, mv) {
                    continue;
                }
                let mut next = cfg.clone();
                next.apply(mv).unwrap();
                let after = Phase2Snapshot::capture(&next).potential;
                assert!(
                    after <= before,
                    "move {mv} raised potential {before} -> {after}"
                );
            }
        }
    }
}
