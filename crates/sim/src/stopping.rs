//! Stopping conditions for simulation runs.
//!
//! A run has a *goal* (the balance level whose hitting time we measure —
//! perfect balance for Theorem 1, `x`-balance for the Phase-1 lemmas) and
//! optional *budgets* (maximum simulated time / number of activations)
//! that bound runaway runs in tests and benches.

use rls_core::LoadTracker;

/// Goal component of a stopping condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Goal {
    /// Stop when `disc(ℓ) < 1`.
    PerfectBalance,
    /// Stop when `disc(ℓ) ≤ x`.
    XBalanced(f64),
    /// Never stop on a goal; run until a budget is exhausted.
    Never,
}

/// A stopping condition: a goal plus optional budgets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopWhen {
    goal: Goal,
    max_time: Option<f64>,
    max_activations: Option<u64>,
}

impl StopWhen {
    /// Stop at perfect balance (`disc < 1`).
    pub fn perfectly_balanced() -> Self {
        Self {
            goal: Goal::PerfectBalance,
            max_time: None,
            max_activations: None,
        }
    }

    /// Stop at `x`-balance (`disc ≤ x`).
    pub fn x_balanced(x: f64) -> Self {
        Self {
            goal: Goal::XBalanced(x),
            max_time: None,
            max_activations: None,
        }
    }

    /// No goal; only budgets stop the run.
    pub fn never() -> Self {
        Self {
            goal: Goal::Never,
            max_time: None,
            max_activations: None,
        }
    }

    /// Add a bound on simulated time.
    pub fn with_max_time(mut self, t: f64) -> Self {
        self.max_time = Some(t);
        self
    }

    /// Add a bound on the number of activations.
    pub fn with_max_activations(mut self, events: u64) -> Self {
        self.max_activations = Some(events);
        self
    }

    /// The goal component.
    pub fn goal(&self) -> Goal {
        self.goal
    }

    /// Has the goal been reached for the given tracked state?
    pub fn goal_met(&self, tracker: &LoadTracker, _time: f64, _activations: u64) -> bool {
        match self.goal {
            Goal::PerfectBalance => tracker.is_perfectly_balanced(),
            Goal::XBalanced(x) => tracker.is_x_balanced(x),
            Goal::Never => false,
        }
    }

    /// Has a budget been exhausted?
    pub fn budget_exhausted(&self, time: f64, activations: u64) -> bool {
        if let Some(t) = self.max_time {
            if time >= t {
                return true;
            }
        }
        if let Some(e) = self.max_activations {
            if activations >= e {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_core::Config;

    fn tracker(loads: &[u64]) -> LoadTracker {
        LoadTracker::new(&Config::from_loads(loads.to_vec()).unwrap())
    }

    #[test]
    fn perfect_balance_goal() {
        let stop = StopWhen::perfectly_balanced();
        assert!(stop.goal_met(&tracker(&[3, 3, 3]), 0.0, 0));
        assert!(!stop.goal_met(&tracker(&[4, 3, 2]), 0.0, 0));
        assert_eq!(stop.goal(), Goal::PerfectBalance);
    }

    #[test]
    fn x_balanced_goal() {
        let stop = StopWhen::x_balanced(2.0);
        assert!(stop.goal_met(&tracker(&[5, 3, 3, 1]), 0.0, 0));
        assert!(!stop.goal_met(&tracker(&[6, 3, 2, 1]), 0.0, 0));
    }

    #[test]
    fn never_goal_only_budget() {
        let stop = StopWhen::never().with_max_activations(10);
        assert!(!stop.goal_met(&tracker(&[3, 3, 3]), 0.0, 0));
        assert!(stop.budget_exhausted(0.0, 10));
        assert!(!stop.budget_exhausted(0.0, 9));
    }

    #[test]
    fn budgets() {
        let stop = StopWhen::perfectly_balanced()
            .with_max_time(5.0)
            .with_max_activations(100);
        assert!(!stop.budget_exhausted(4.9, 99));
        assert!(stop.budget_exhausted(5.0, 0));
        assert!(stop.budget_exhausted(0.0, 100));
    }

    #[test]
    fn no_budget_never_exhausts() {
        let stop = StopWhen::perfectly_balanced();
        assert!(!stop.budget_exhausted(f64::MAX, u64::MAX));
    }
}
