//! Observers: record trajectory information while a simulation runs.
//!
//! Observers receive every event together with the incrementally maintained
//! [`LoadTracker`], so recording a quantity like the discrepancy or the
//! Phase-2 potential costs O(1) per event.  They are the mechanism behind
//! the per-phase experiments (E8–E10): a [`PhaseTracker`] notes the first
//! time each balance threshold is crossed, a [`TimeSeries`] samples a
//! quantity on a fixed time grid for trajectory plots, and a [`MoveCounter`]
//! aggregates activation/migration statistics.

use rls_core::LoadTracker;
use serde::{Deserialize, Serialize};

use crate::events::Event;

/// Receives every simulation event.
pub trait Observer {
    /// Called after the event has been applied; `tracker` reflects the
    /// post-event configuration and `time` is the current simulation time.
    fn on_event(&mut self, event: &Event, tracker: &LoadTracker, time: f64);
}

/// The unit observer ignores everything.
impl Observer for () {
    #[inline]
    fn on_event(&mut self, _event: &Event, _tracker: &LoadTracker, _time: f64) {}
}

/// Fan-out to two observers.
impl<A: Observer, B: Observer> Observer for (A, B) {
    #[inline]
    fn on_event(&mut self, event: &Event, tracker: &LoadTracker, time: f64) {
        self.0.on_event(event, tracker, time);
        self.1.on_event(event, tracker, time);
    }
}

/// A sampled point of a [`TimeSeries`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplePoint {
    /// Simulation time of the sample.
    pub time: f64,
    /// Discrepancy at that time.
    pub discrepancy: f64,
    /// Number of overloaded balls at that time.
    pub overloaded_balls: u64,
    /// Maximum load at that time.
    pub max_load: u64,
    /// Minimum load at that time.
    pub min_load: u64,
    /// Activations processed so far.
    pub activations: u64,
}

/// Samples the tracked quantities on a fixed simulation-time grid.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    interval: f64,
    next_sample: f64,
    points: Vec<SamplePoint>,
}

impl TimeSeries {
    /// Sample every `interval` units of simulated time (the first sample is
    /// taken at the first event at or after `interval`).
    pub fn new(interval: f64) -> Self {
        assert!(interval > 0.0, "sampling interval must be positive");
        Self {
            interval,
            next_sample: interval,
            points: Vec::new(),
        }
    }

    /// The recorded samples.
    pub fn points(&self) -> &[SamplePoint] {
        &self.points
    }
}

impl Observer for TimeSeries {
    fn on_event(&mut self, event: &Event, tracker: &LoadTracker, time: f64) {
        if time < self.next_sample {
            return;
        }
        self.points.push(SamplePoint {
            time,
            discrepancy: tracker.discrepancy(),
            overloaded_balls: tracker.overloaded_balls(),
            max_load: tracker.max_load(),
            min_load: tracker.min_load(),
            activations: event.activations,
        });
        while self.next_sample <= time {
            self.next_sample += self.interval;
        }
    }
}

/// Records the first time and activation count at which the discrepancy
/// drops to each of a set of thresholds — the phase boundaries of the
/// paper's analysis.
#[derive(Debug, Clone)]
pub struct PhaseTracker {
    thresholds: Vec<f64>,
    hit_times: Vec<Option<f64>>,
    hit_activations: Vec<Option<u64>>,
}

impl PhaseTracker {
    /// Track the given discrepancy thresholds (any order).
    pub fn new(thresholds: Vec<f64>) -> Self {
        let len = thresholds.len();
        Self {
            thresholds,
            hit_times: vec![None; len],
            hit_activations: vec![None; len],
        }
    }

    /// The thresholds being tracked.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// First time the discrepancy was ≤ the i-th threshold, if it happened.
    pub fn hit_time(&self, i: usize) -> Option<f64> {
        self.hit_times[i]
    }

    /// Activation count at the first crossing of the i-th threshold.
    pub fn hit_activations(&self, i: usize) -> Option<u64> {
        self.hit_activations[i]
    }

    /// (threshold, first hitting time) pairs for thresholds that were hit.
    pub fn hits(&self) -> Vec<(f64, f64)> {
        self.thresholds
            .iter()
            .zip(&self.hit_times)
            .filter_map(|(&th, &t)| t.map(|t| (th, t)))
            .collect()
    }
}

impl Observer for PhaseTracker {
    fn on_event(&mut self, event: &Event, tracker: &LoadTracker, time: f64) {
        let disc = tracker.discrepancy();
        for (i, &threshold) in self.thresholds.iter().enumerate() {
            if self.hit_times[i].is_none() && disc <= threshold {
                self.hit_times[i] = Some(time);
                self.hit_activations[i] = Some(event.activations);
            }
        }
    }
}

/// Aggregate counts over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MoveCounter {
    /// Total activations observed.
    pub activations: u64,
    /// Activations that resulted in a migration.
    pub migrations: u64,
    /// Activations whose sampled destination was the source bin.
    pub self_samples: u64,
}

impl MoveCounter {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of activations that migrated (0 when nothing was observed).
    pub fn migration_rate(&self) -> f64 {
        if self.activations == 0 {
            0.0
        } else {
            self.migrations as f64 / self.activations as f64
        }
    }
}

impl Observer for MoveCounter {
    fn on_event(&mut self, event: &Event, _tracker: &LoadTracker, _time: f64) {
        self.activations += 1;
        if event.moved {
            self.migrations += 1;
        }
        if event.is_self_sample() {
            self.self_samples += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RlsPolicy, Simulation};
    use crate::stopping::StopWhen;
    use crate::NoAdversary;
    use rls_core::{Config, RlsRule};
    use rls_rng::rng_from_seed;

    fn run_with<O: Observer>(observer: &mut O) {
        let cfg = Config::all_in_one_bin(8, 64).unwrap();
        let mut sim = Simulation::new(cfg, RlsPolicy::new(RlsRule::paper())).unwrap();
        let mut rng = rng_from_seed(10);
        sim.run_with(
            &mut rng,
            StopWhen::perfectly_balanced(),
            &mut NoAdversary,
            observer,
        );
    }

    #[test]
    fn time_series_samples_are_ordered_and_spaced() {
        let mut ts = TimeSeries::new(0.05);
        run_with(&mut ts);
        let points = ts.points();
        assert!(!points.is_empty());
        for w in points.windows(2) {
            assert!(w[1].time > w[0].time);
            // Discrepancy is non-increasing for plain RLS.
            assert!(w[1].discrepancy <= w[0].discrepancy + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn time_series_rejects_zero_interval() {
        let _ = TimeSeries::new(0.0);
    }

    #[test]
    fn phase_tracker_records_monotone_hitting_times() {
        let mut pt = PhaseTracker::new(vec![4.0, 2.0, 1.0, 0.999]);
        run_with(&mut pt);
        // All thresholds eventually hit (the run stops at perfect balance).
        let times: Vec<f64> = (0..4).map(|i| pt.hit_time(i).unwrap()).collect();
        // Larger thresholds are hit no later than smaller ones.
        assert!(times[0] <= times[1]);
        assert!(times[1] <= times[2]);
        assert!(times[2] <= times[3]);
        assert!(pt.hit_activations(3).unwrap() > 0);
        assert_eq!(pt.hits().len(), 4);
        assert_eq!(pt.thresholds().len(), 4);
    }

    #[test]
    fn move_counter_counts() {
        let mut mc = MoveCounter::new();
        run_with(&mut mc);
        assert!(mc.activations > 0);
        assert!(mc.migrations >= 56); // at least m − n moves needed
        assert!(mc.migrations <= mc.activations);
        assert!(mc.migration_rate() > 0.0 && mc.migration_rate() <= 1.0);
    }

    #[test]
    fn migration_rate_zero_when_empty() {
        assert_eq!(MoveCounter::new().migration_rate(), 0.0);
    }

    #[test]
    fn tuple_observer_feeds_both() {
        let mut pair = (MoveCounter::new(), PhaseTracker::new(vec![1.0]));
        run_with(&mut pair);
        assert!(pair.0.activations > 0);
        assert!(pair.1.hit_time(0).is_some());
    }
}
