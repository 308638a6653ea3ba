//! RLS with weighted balls — future-work direction 2 of Section 7.
//!
//! Each ball `j` carries an integer weight `w_j ≥ 1`; the load of a bin is
//! the sum of the weights of its balls and the load a ball experiences is
//! its bin's load.  The natural RLS generalization: on activation the ball
//! samples a uniformly random bin and migrates iff doing so does not worsen
//! its experienced load, i.e. iff `L_{i'} + w_j ≤ L_i`.
//!
//! Perfect balance is generally unattainable with weights (the paper's open
//! question is about the balancing *time* to the best achievable state);
//! the natural stopping points are (a) a *Nash-stable* state in which no
//! ball can improve by any move, and (b) `x`-balance for
//! `x ≥ w_max`.  Both are supported.

use rls_core::{BinState, HeteroRingContext, RebalancePolicy, RlsVariant};
use rls_rng::dist::{Distribution, Exponential};
use rls_rng::{Rng64, RngExt};
use serde::{Deserialize, Serialize};

use crate::outcome::{CostModel, ProtocolOutcome};

/// Stopping rule for the weighted process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WeightedGoal {
    /// Stop when no single ball can strictly improve by moving anywhere
    /// (a pure Nash equilibrium of the associated load-balancing game).
    NashStable,
    /// Stop when the weighted discrepancy `max_i |L_i − W/n|` is at most the
    /// given value.
    Discrepancy(f64),
}

/// The weighted RLS process.
#[derive(Debug, Clone)]
pub struct WeightedRls {
    weights: Vec<u64>,
    total_weight: u64,
    max_activations: u64,
}

/// State of a weighted run (exposed for the examples and benches).
#[derive(Debug, Clone)]
pub struct WeightedState {
    /// Bin of each ball.
    pub positions: Vec<u32>,
    /// Total weight in each bin.
    pub bin_loads: Vec<u64>,
}

impl WeightedRls {
    /// A process over balls with the given weights (all ≥ 1) and an
    /// activation budget.
    pub fn new(weights: Vec<u64>, max_activations: u64) -> Self {
        assert!(!weights.is_empty(), "need at least one ball");
        assert!(weights.iter().all(|&w| w >= 1), "weights must be ≥ 1");
        Self {
            total_weight: weights.iter().sum(),
            weights,
            max_activations,
        }
    }

    /// Unit weights (recovers plain RLS).
    pub fn unit(m: usize, max_activations: u64) -> Self {
        Self::new(vec![1; m], max_activations)
    }

    /// The ball weights.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Total weight `W`.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// The RLS pair rule (`variant`) for a ball of weight `w` leaving a bin
    /// of load `source` for one of load `dest`, on `n` unit-speed bins.
    fn permits(&self, variant: RlsVariant, n: usize, source: u64, dest: u64, w: u64) -> bool {
        let ctx = HeteroRingContext {
            n,
            total_weight: self.total_weight,
            total_speed: n as u64,
        };
        RebalancePolicy::Rls { variant }.permits_weighted(
            ctx,
            BinState::unit(source),
            BinState::unit(dest),
            w,
        )
    }

    /// Place every ball in bin 0 of an `n`-bin system (worst-case start).
    pub fn all_in_one_bin(&self, n: usize) -> WeightedState {
        assert!(n >= 1);
        let mut bin_loads = vec![0u64; n];
        bin_loads[0] = self.total_weight();
        WeightedState {
            positions: vec![0; self.weights.len()],
            bin_loads,
        }
    }

    /// Place balls uniformly at random.
    pub fn random_start<R: Rng64 + ?Sized>(&self, n: usize, rng: &mut R) -> WeightedState {
        assert!(n >= 1);
        let mut bin_loads = vec![0u64; n];
        let positions: Vec<u32> = self
            .weights
            .iter()
            .map(|&w| {
                let bin = rng.next_index(n);
                bin_loads[bin] += w;
                bin as u32
            })
            .collect();
        WeightedState {
            positions,
            bin_loads,
        }
    }

    /// Weighted discrepancy of a state: `max_i |L_i − W/n|`.
    pub fn discrepancy(&self, state: &WeightedState) -> f64 {
        let avg = self.total_weight() as f64 / state.bin_loads.len() as f64;
        state
            .bin_loads
            .iter()
            .map(|&l| (l as f64 - avg).abs())
            .fold(0.0, f64::max)
    }

    /// Is the state Nash-stable (no ball can strictly reduce its
    /// experienced load by moving to any bin)?
    pub fn is_nash_stable(&self, state: &WeightedState) -> bool {
        let n = state.bin_loads.len();
        let min_load = *state.bin_loads.iter().min().expect("at least one bin");
        // Ball j in bin i can improve iff min_load + w_j < L_i.
        self.weights.iter().zip(&state.positions).all(|(&w, &bin)| {
            let li = state.bin_loads[bin as usize];
            !self.permits(RlsVariant::Strict, n, li, min_load, w)
        })
    }

    fn goal_met(&self, goal: WeightedGoal, state: &WeightedState) -> bool {
        match goal {
            WeightedGoal::NashStable => self.is_nash_stable(state),
            WeightedGoal::Discrepancy(x) => self.discrepancy(state) <= x,
        }
    }

    /// Run the continuous-time process from `state` until the goal or the
    /// activation budget is reached.
    pub fn run<R: Rng64 + ?Sized>(
        &self,
        state: &mut WeightedState,
        goal: WeightedGoal,
        rng: &mut R,
    ) -> ProtocolOutcome {
        let n = state.bin_loads.len();
        let m = self.weights.len();
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
            if source == dest {
                continue;
            }
            let w = self.weights[ball];
            // Move iff the new experienced load is no worse than the old.
            if self.permits(
                RlsVariant::Geq,
                n,
                state.bin_loads[source],
                state.bin_loads[dest],
                w,
            ) {
                state.bin_loads[source] -= w;
                state.bin_loads[dest] += w;
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
    #[should_panic(expected = "weights must be ≥ 1")]
    fn zero_weight_rejected() {
        let _ = WeightedRls::new(vec![1, 0, 2], 10);
    }

    #[test]
    fn unit_weights_reach_perfect_balance() {
        let proto = WeightedRls::unit(64, 1_000_000);
        let mut state = proto.all_in_one_bin(8);
        let out = proto.run(
            &mut state,
            WeightedGoal::Discrepancy(0.0),
            &mut rng_from_seed(1),
        );
        assert!(out.reached_goal);
        assert_eq!(state.bin_loads.iter().sum::<u64>(), 64);
        assert!(proto.is_nash_stable(&state));
    }

    #[test]
    fn weighted_process_reaches_nash_stability() {
        let weights: Vec<u64> = (0..48).map(|i| 1 + (i % 5) as u64).collect();
        let proto = WeightedRls::new(weights, 2_000_000);
        let mut state = proto.all_in_one_bin(8);
        let out = proto.run(&mut state, WeightedGoal::NashStable, &mut rng_from_seed(2));
        assert!(out.reached_goal, "did not stabilize within budget");
        assert!(proto.is_nash_stable(&state));
        // Weight is conserved.
        assert_eq!(state.bin_loads.iter().sum::<u64>(), proto.total_weight());
        // Positions are consistent with bin loads.
        let mut recomputed = vec![0u64; 8];
        for (ball, &bin) in state.positions.iter().enumerate() {
            recomputed[bin as usize] += proto.weights()[ball];
        }
        assert_eq!(recomputed, state.bin_loads);
    }

    #[test]
    fn nash_stable_state_has_bounded_discrepancy() {
        // At Nash stability the gap between any bin and the minimum is less
        // than the maximum weight, so the discrepancy is < w_max.
        let weights: Vec<u64> = (0..64).map(|i| 1 + (i % 4) as u64).collect();
        let w_max = 4.0;
        let proto = WeightedRls::new(weights, 2_000_000);
        let mut state = proto.random_start(16, &mut rng_from_seed(3));
        let out = proto.run(&mut state, WeightedGoal::NashStable, &mut rng_from_seed(4));
        assert!(out.reached_goal);
        assert!(
            out.final_discrepancy < w_max,
            "discrepancy {} should be below max weight {w_max}",
            out.final_discrepancy
        );
    }

    #[test]
    fn discrepancy_goal_with_skewed_weights() {
        let weights = vec![10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1];
        let proto = WeightedRls::new(weights, 1_000_000);
        let mut state = proto.all_in_one_bin(4);
        let out = proto.run(
            &mut state,
            WeightedGoal::Discrepancy(8.0),
            &mut rng_from_seed(5),
        );
        assert!(out.reached_goal);
        assert!(out.final_discrepancy <= 8.0);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let proto = WeightedRls::new(vec![3; 100], 5);
        let mut state = proto.all_in_one_bin(10);
        let out = proto.run(&mut state, WeightedGoal::NashStable, &mut rng_from_seed(6));
        assert!(!out.reached_goal);
        assert_eq!(out.activations, 5);
    }

    #[test]
    fn is_nash_stable_detects_improvable_state() {
        let proto = WeightedRls::new(vec![2, 2], 10);
        // Both balls in bin 0 of a 2-bin system: either can improve.
        let state = proto.all_in_one_bin(2);
        assert!(!proto.is_nash_stable(&state));
    }
}
