//! RLS with heterogeneous bin speeds — future-work direction 1 of Section 7.
//!
//! Bin `i` has an integer speed `s_i ≥ 1`, and the load experienced by a
//! ball in bin `i` is `ℓ_i / s_i` (number of balls divided by speed — the
//! "related machines" model).  The natural RLS generalization: on activation
//! the ball samples a uniformly random bin `i'` and moves iff doing so does
//! not worsen its experienced load, i.e. iff `(ℓ_{i'} + 1)/s_{i'} ≤ ℓ_i/s_i`.
//! All comparisons are done in exact integer arithmetic
//! (`(ℓ_{i'}+1)·s_i ≤ ℓ_i·s_{i'}`), so no floating-point tie-breaking can
//! skew the dynamics.
//!
//! The balanced target is proportional allocation (`ℓ_i ≈ m·s_i/S` with
//! `S = Σ s_i`); the process stops at a Nash-stable state or at a target
//! *speed-weighted* discrepancy `max_i |ℓ_i/s_i − m/S|`.

use rls_core::{BinState, HeteroRingContext, RebalancePolicy, RlsVariant};
use rls_rng::dist::{Distribution, Exponential};
use rls_rng::{Rng64, RngExt};
use serde::{Deserialize, Serialize};

use crate::outcome::{CostModel, ProtocolOutcome};

/// Stopping rule for the heterogeneous-speed process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpeedGoal {
    /// No ball can strictly improve its experienced load by moving.
    NashStable,
    /// The speed-weighted discrepancy is at most the given value.
    Discrepancy(f64),
}

/// RLS on bins with speeds.
#[derive(Debug, Clone)]
pub struct SpeedRls {
    speeds: Vec<u64>,
    total_speed: u64,
    max_activations: u64,
}

/// State of a run.
#[derive(Debug, Clone)]
pub struct SpeedState {
    /// Bin of each ball.
    pub positions: Vec<u32>,
    /// Ball counts per bin.
    pub loads: Vec<u64>,
}

impl SpeedRls {
    /// Process over bins with the given speeds (all ≥ 1).
    pub fn new(speeds: Vec<u64>, max_activations: u64) -> Self {
        assert!(!speeds.is_empty(), "need at least one bin");
        assert!(speeds.iter().all(|&s| s >= 1), "speeds must be ≥ 1");
        Self {
            total_speed: speeds.iter().sum(),
            speeds,
            max_activations,
        }
    }

    /// Uniform speeds (recovers plain RLS).
    pub fn uniform(n: usize, max_activations: u64) -> Self {
        Self::new(vec![1; n], max_activations)
    }

    /// The bin speeds.
    pub fn speeds(&self) -> &[u64] {
        &self.speeds
    }

    /// Total speed `S`.
    pub fn total_speed(&self) -> u64 {
        self.total_speed
    }

    /// The RLS pair rule (`variant`) for one ball leaving bin `source` for
    /// bin `dest`, on loads normalized by speed.
    fn permits(&self, variant: RlsVariant, state: &SpeedState, source: usize, dest: usize) -> bool {
        let ctx = HeteroRingContext {
            n: self.speeds.len(),
            total_weight: state.positions.len() as u64,
            total_speed: self.total_speed,
        };
        let bin = |i: usize| BinState {
            weight: state.loads[i],
            speed: self.speeds[i],
        };
        RebalancePolicy::Rls { variant }.permits_weighted(ctx, bin(source), bin(dest), 1)
    }

    /// All `m` balls in bin 0.
    pub fn all_in_one_bin(&self, m: u64) -> SpeedState {
        let mut loads = vec![0u64; self.speeds.len()];
        loads[0] = m;
        SpeedState {
            positions: vec![0; m as usize],
            loads,
        }
    }

    /// Experienced load of bin `i` in a state.
    pub fn experienced(&self, state: &SpeedState, bin: usize) -> f64 {
        state.loads[bin] as f64 / self.speeds[bin] as f64
    }

    /// Speed-weighted discrepancy `max_i |ℓ_i/s_i − m/S|`.
    pub fn discrepancy(&self, state: &SpeedState) -> f64 {
        let m: u64 = state.loads.iter().sum();
        let target = m as f64 / self.total_speed() as f64;
        (0..self.speeds.len())
            .map(|i| (self.experienced(state, i) - target).abs())
            .fold(0.0, f64::max)
    }

    /// Would a ball moving from `source` to `dest` keep or improve its
    /// experienced load?  Exact integer comparison.
    pub fn move_allowed(&self, state: &SpeedState, source: usize, dest: usize) -> bool {
        if source == dest || state.loads[source] == 0 {
            return false;
        }
        // (ℓ_dest + 1)/s_dest ≤ ℓ_source/s_source
        self.permits(RlsVariant::Geq, state, source, dest)
    }

    /// Is the state Nash-stable?
    pub fn is_nash_stable(&self, state: &SpeedState) -> bool {
        // A ball in bin i can strictly improve by moving to j iff
        // (ℓ_j + 1)/s_j < ℓ_i/s_i.  Check all non-empty source bins against
        // the bin minimizing (ℓ_j + 1)/s_j.
        let n = self.speeds.len();
        let best = (0..n)
            .min_by(|&a, &b| {
                let la = (state.loads[a] + 1) as f64 / self.speeds[a] as f64;
                let lb = (state.loads[b] + 1) as f64 / self.speeds[b] as f64;
                la.partial_cmp(&lb).unwrap_or(core::cmp::Ordering::Equal)
            })
            .expect("at least one bin");
        (0..n).all(|i| {
            if state.loads[i] == 0 || i == best {
                return true;
            }
            // Strict improvement check in exact arithmetic:
            // (ℓ_best + 1)·s_i < ℓ_i·s_best ?
            !self.permits(RlsVariant::Strict, state, i, best)
        })
    }

    fn goal_met(&self, goal: SpeedGoal, state: &SpeedState) -> bool {
        match goal {
            SpeedGoal::NashStable => self.is_nash_stable(state),
            SpeedGoal::Discrepancy(x) => self.discrepancy(state) <= x,
        }
    }

    /// Run the continuous-time process.
    pub fn run<R: Rng64 + ?Sized>(
        &self,
        state: &mut SpeedState,
        goal: SpeedGoal,
        rng: &mut R,
    ) -> ProtocolOutcome {
        let n = self.speeds.len();
        let m = state.positions.len();
        assert!(m > 0, "need at least one ball");
        let waiting = Exponential::new(m as f64).expect("m ≥ 1");
        let mut time = 0.0;
        let mut activations = 0u64;
        let mut migrations = 0u64;
        let mut reached = self.goal_met(goal, state);
        while !reached && activations < self.max_activations {
            time += waiting.sample(rng);
            activations += 1;
            let ball = rng.next_index(m);
            let source = state.positions[ball] as usize;
            let dest = rng.next_index(n);
            if self.move_allowed(state, source, dest) {
                state.loads[source] -= 1;
                state.loads[dest] += 1;
                state.positions[ball] = dest as u32;
                migrations += 1;
                reached = self.goal_met(goal, state);
            }
        }
        ProtocolOutcome {
            cost_model: CostModel::ContinuousTime,
            cost: time,
            activations,
            migrations,
            reached_goal: reached,
            final_discrepancy: self.discrepancy(state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_rng::rng_from_seed;

    #[test]
    #[should_panic(expected = "speeds must be ≥ 1")]
    fn zero_speed_rejected() {
        let _ = SpeedRls::new(vec![1, 0], 10);
    }

    #[test]
    fn uniform_speeds_recover_plain_rls_balance() {
        let proto = SpeedRls::uniform(8, 1_000_000);
        let mut state = proto.all_in_one_bin(64);
        let out = proto.run(
            &mut state,
            SpeedGoal::Discrepancy(0.999),
            &mut rng_from_seed(1),
        );
        assert!(out.reached_goal);
        assert!(state.loads.iter().all(|&l| l == 8));
    }

    #[test]
    fn faster_bins_end_up_with_proportionally_more_balls() {
        // Speeds 1 and 3 on two bins: the fast bin should hold ≈ 3/4 of the
        // balls at stability.
        let proto = SpeedRls::new(vec![1, 3], 2_000_000);
        let mut state = proto.all_in_one_bin(400);
        let out = proto.run(&mut state, SpeedGoal::NashStable, &mut rng_from_seed(2));
        assert!(out.reached_goal);
        let fast_share = state.loads[1] as f64 / 400.0;
        assert!(
            (fast_share - 0.75).abs() < 0.05,
            "fast bin share {fast_share}, expected ≈ 0.75"
        );
    }

    #[test]
    fn nash_stability_bounds_experienced_load_gap() {
        let speeds = vec![1u64, 2, 4, 1, 2, 4, 1, 2];
        let proto = SpeedRls::new(speeds.clone(), 4_000_000);
        let mut state = proto.all_in_one_bin(640);
        let out = proto.run(&mut state, SpeedGoal::NashStable, &mut rng_from_seed(3));
        assert!(out.reached_goal);
        // At Nash stability, no ball can improve: for every non-empty bin i
        // and every bin j, (ℓ_j + 1)/s_j ≥ ℓ_i/s_i.  In particular the
        // experienced loads differ by at most max_j 1/s_j ≤ 1.
        let max_exp = (0..8)
            .map(|i| proto.experienced(&state, i))
            .fold(0.0, f64::max);
        let min_exp_plus = (0..8)
            .map(|j| (state.loads[j] + 1) as f64 / speeds[j] as f64)
            .fold(f64::INFINITY, f64::min);
        assert!(max_exp <= min_exp_plus + 1e-9);
        // Ball count conserved.
        assert_eq!(state.loads.iter().sum::<u64>(), 640);
    }

    #[test]
    fn move_allowed_uses_exact_comparison() {
        let proto = SpeedRls::new(vec![2, 3], 10);
        // loads (4, 5): experienced 2.0 vs 5/3; moving 0 → 1 gives dest
        // (5+1)/3 = 2.0 ≤ 2.0 → allowed (non-worsening).
        let state = SpeedState {
            positions: vec![],
            loads: vec![4, 5],
        };
        assert!(proto.move_allowed(&state, 0, 1));
        // loads (3, 5): 1.5 vs 5/3; moving 0 → 1 gives 2.0 > 1.5 → refused.
        let state = SpeedState {
            positions: vec![],
            loads: vec![3, 5],
        };
        assert!(!proto.move_allowed(&state, 0, 1));
        // Empty source and self loops are refused.
        let state = SpeedState {
            positions: vec![],
            loads: vec![0, 5],
        };
        assert!(!proto.move_allowed(&state, 0, 1));
        assert!(!proto.move_allowed(&state, 1, 1));
    }

    #[test]
    fn budget_exhaustion_reported() {
        let proto = SpeedRls::new(vec![1, 5], 3);
        let mut state = proto.all_in_one_bin(100);
        let out = proto.run(&mut state, SpeedGoal::NashStable, &mut rng_from_seed(4));
        assert!(!out.reached_goal);
        assert_eq!(out.activations, 3);
    }
}
