//! The literal per-ball clock engine.
//!
//! This is the textbook implementation of the paper's model: every ball owns
//! an `Exp(1)` clock, the next event is the earliest pending ring, and after
//! a ring the ball re-arms its clock.  A binary heap of `(ring time, ball)`
//! pairs gives `O(log m)` per event versus the `O(1)` of the superposition
//! engine in [`engine`](crate::engine) — but the two simulate *exactly the
//! same law*, which the test-suite verifies.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rls_core::{Config, LoadTracker, Move, RlsRule};
use rls_rng::dist::{Distribution, Exponential};
use rls_rng::{Rng64, RngExt};

use crate::engine::RunOutcome;
use crate::events::Event;
use crate::stopping::StopWhen;

/// Heap entry: the next ring time of a ball.  Ordered as a min-heap on time.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ring {
    time: f64,
    ball: u32,
}

impl Eq for Ring {}

impl Ord for Ring {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.ball.cmp(&self.ball))
    }
}

impl PartialOrd for Ring {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-ball clock simulation of the RLS process.
#[derive(Debug, Clone)]
pub struct ClockEngine {
    cfg: Config,
    balls: Vec<u32>,
    tracker: LoadTracker,
    rule: RlsRule,
    heap: BinaryHeap<Ring>,
    time: f64,
    activations: u64,
    migrations: u64,
    unit_clock: Exponential,
}

impl ClockEngine {
    /// Create the engine; all clocks are armed at construction time.
    ///
    /// # Panics
    /// Panics if the configuration has no balls.
    pub fn new<R: Rng64 + ?Sized>(initial: Config, rule: RlsRule, rng: &mut R) -> Self {
        let m = initial.m();
        assert!(m > 0, "clock engine requires at least one ball");
        assert!(m <= u32::MAX as u64, "too many balls");
        let unit_clock = Exponential::new(1.0).expect("rate 1 is valid");
        let mut balls = Vec::with_capacity(m as usize);
        for (bin, &load) in initial.loads().iter().enumerate() {
            for _ in 0..load {
                balls.push(bin as u32);
            }
        }
        let mut heap = BinaryHeap::with_capacity(m as usize);
        for ball in 0..m as u32 {
            heap.push(Ring {
                time: unit_clock.sample(rng),
                ball,
            });
        }
        let tracker = LoadTracker::new(&initial);
        Self {
            cfg: initial,
            balls,
            tracker,
            rule,
            heap,
            time: 0.0,
            activations: 0,
            migrations: 0,
            unit_clock,
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Incremental tracker.
    pub fn tracker(&self) -> &LoadTracker {
        &self.tracker
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Process the earliest pending ring.
    pub fn step<R: Rng64 + ?Sized>(&mut self, rng: &mut R) -> Event {
        let ring = self
            .heap
            .pop()
            .expect("heap always holds one entry per ball");
        self.time = ring.time;
        self.activations += 1;
        let ball = ring.ball as usize;
        let source = self.balls[ball] as usize;
        let dest = rng.next_index(self.cfg.n());

        let mut moved = false;
        if source != dest
            && self
                .rule
                .permits_loads(self.cfg.load(source), self.cfg.load(dest))
        {
            let (lf, lt) = (self.cfg.load(source), self.cfg.load(dest));
            self.cfg
                .apply(Move::new(source, dest))
                .expect("legal move applies");
            self.tracker.record_move(lf, lt);
            self.balls[ball] = dest as u32;
            self.migrations += 1;
            moved = true;
        }

        // Re-arm the clock.
        self.heap.push(Ring {
            time: self.time + self.unit_clock.sample(rng),
            ball: ring.ball,
        });

        Event::activation(self.time, source, dest, moved, self.activations).with_ball(ball as u64)
    }

    /// Run until a stopping condition triggers.
    pub fn run<R: Rng64 + ?Sized>(&mut self, rng: &mut R, stop: StopWhen) -> RunOutcome {
        let mut reached_goal = stop.goal_met(&self.tracker, self.time, self.activations);
        while !reached_goal && !stop.budget_exhausted(self.time, self.activations) {
            self.step(rng);
            reached_goal = stop.goal_met(&self.tracker, self.time, self.activations);
        }
        RunOutcome {
            time: self.time,
            activations: self.activations,
            migrations: self.migrations,
            reached_goal,
            final_discrepancy: self.tracker.discrepancy(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RlsPolicy, Simulation};
    use crate::stats::Summary;
    use rls_rng::rng_from_seed;

    #[test]
    fn ring_ordering_is_min_heap() {
        let mut heap = BinaryHeap::new();
        heap.push(Ring { time: 2.0, ball: 0 });
        heap.push(Ring { time: 0.5, ball: 1 });
        heap.push(Ring { time: 1.0, ball: 2 });
        assert_eq!(heap.pop().unwrap().ball, 1);
        assert_eq!(heap.pop().unwrap().ball, 2);
        assert_eq!(heap.pop().unwrap().ball, 0);
    }

    #[test]
    fn event_times_are_nondecreasing() {
        let cfg = Config::all_in_one_bin(6, 30).unwrap();
        let mut engine = ClockEngine::new(cfg, RlsRule::paper(), &mut rng_from_seed(1));
        let mut rng = rng_from_seed(2);
        let mut last = 0.0;
        for _ in 0..2000 {
            let e = engine.step(&mut rng);
            assert!(e.time >= last);
            last = e.time;
        }
        assert!(engine.tracker().matches(engine.config()));
    }

    #[test]
    fn reaches_perfect_balance() {
        let cfg = Config::all_in_one_bin(8, 64).unwrap();
        let mut engine = ClockEngine::new(cfg, RlsRule::paper(), &mut rng_from_seed(3));
        let outcome = engine.run(&mut rng_from_seed(4), StopWhen::perfectly_balanced());
        assert!(outcome.reached_goal);
        assert!(engine.config().is_perfectly_balanced());
    }

    #[test]
    #[should_panic(expected = "at least one ball")]
    fn rejects_empty_system() {
        let cfg = Config::from_loads(vec![0, 0]).unwrap();
        let _ = ClockEngine::new(cfg, RlsRule::paper(), &mut rng_from_seed(5));
    }

    /// The two engines simulate the same law: compare the distribution of
    /// balancing times over a few dozen trials. This is the cross-validation
    /// the module documentation promises; tolerances are generous so the
    /// test is robust for the fixed seeds used.
    #[test]
    fn superposition_and_clock_engines_agree_in_distribution() {
        let n = 8;
        let m = 64;
        let trials = 40;
        let mut clock_times = Vec::with_capacity(trials);
        let mut super_times = Vec::with_capacity(trials);
        for t in 0..trials as u64 {
            let cfg = Config::all_in_one_bin(n, m).unwrap();
            let mut engine = ClockEngine::new(cfg, RlsRule::paper(), &mut rng_from_seed(100 + t));
            clock_times.push(
                engine
                    .run(&mut rng_from_seed(200 + t), StopWhen::perfectly_balanced())
                    .time,
            );

            let cfg = Config::all_in_one_bin(n, m).unwrap();
            let mut sim = Simulation::new(cfg, RlsPolicy::new(RlsRule::paper())).unwrap();
            super_times.push(
                sim.run(&mut rng_from_seed(300 + t), StopWhen::perfectly_balanced())
                    .time,
            );
        }
        let c = Summary::from_samples(&clock_times);
        let s = Summary::from_samples(&super_times);
        let rel = (c.mean - s.mean).abs() / s.mean;
        assert!(
            rel < 0.35,
            "means differ too much: clock {} vs superposition {}",
            c.mean,
            s.mean
        );
    }
}
