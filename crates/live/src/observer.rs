//! Steady-state observers for live runs.
//!
//! A live run has no stopping time to report; the quantities of interest
//! are *stationary*: the time-averaged gap (max load minus average), the
//! time-weighted distribution of the overload (how many balls the fullest
//! bin carries beyond `⌈m/n⌉`), and the protocol work per unit of offered
//! load (rebalance migrations per arrival).  [`SteadyState`] accumulates
//! all of these in O(1) per event after a warm-up window, and
//! [`SteadySummary`] is the serializable digest fed back into
//! `rls-sim::stats`-style reporting.

// detlint: allow-file(D004) steady-state statistics (time-averaged gap,
// overload distribution, work ratios) only read engine state; the
// observers-never-perturb invariant is pinned by tests/obs_identity.rs.

use rls_core::LoadTracker;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::event::{LiveEvent, LiveEventKind};

/// Receives every live event (after it has been applied).
pub trait LiveObserver {
    /// Called once before the run with the initial state.
    fn on_start(&mut self, _tracker: &LoadTracker, _time: f64) {}

    /// Called after each event; `tracker` reflects the post-event state.
    fn on_event(&mut self, event: &LiveEvent, tracker: &LoadTracker);
}

/// The unit observer ignores everything.
impl LiveObserver for () {
    #[inline]
    fn on_event(&mut self, _event: &LiveEvent, _tracker: &LoadTracker) {}
}

/// `None` observes nothing — for observers attached conditionally (e.g. a
/// recorder that only exists when the run is being captured).
impl<O: LiveObserver> LiveObserver for Option<O> {
    fn on_start(&mut self, tracker: &LoadTracker, time: f64) {
        if let Some(observer) = self {
            observer.on_start(tracker, time);
        }
    }

    #[inline]
    fn on_event(&mut self, event: &LiveEvent, tracker: &LoadTracker) {
        if let Some(observer) = self {
            observer.on_event(event, tracker);
        }
    }
}

/// A mutable reference observes through to its target, so two independently
/// owned observers can be fanned out as `(&mut a, &mut b)`.
impl<O: LiveObserver + ?Sized> LiveObserver for &mut O {
    fn on_start(&mut self, tracker: &LoadTracker, time: f64) {
        (**self).on_start(tracker, time);
    }

    #[inline]
    fn on_event(&mut self, event: &LiveEvent, tracker: &LoadTracker) {
        (**self).on_event(event, tracker);
    }
}

/// Fan-out to two observers.
impl<A: LiveObserver, B: LiveObserver> LiveObserver for (A, B) {
    fn on_start(&mut self, tracker: &LoadTracker, time: f64) {
        self.0.on_start(tracker, time);
        self.1.on_start(tracker, time);
    }

    #[inline]
    fn on_event(&mut self, event: &LiveEvent, tracker: &LoadTracker) {
        self.0.on_event(event, tracker);
        self.1.on_event(event, tracker);
    }
}

/// Serializable digest of a measurement window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SteadySummary {
    /// Length of the measurement window (excludes warm-up).
    pub window: f64,
    /// Time-averaged gap `max − m/n` over the window.
    pub mean_gap: f64,
    /// Median (time-weighted) overload `max − ⌈m/n⌉`.
    pub p50_overload: f64,
    /// 99th percentile (time-weighted) overload.
    pub p99_overload: f64,
    /// Largest overload observed in the window.
    pub max_overload: u64,
    /// Rebalance migrations per arriving ball (protocol work per unit of
    /// offered load).
    pub moves_per_arrival: f64,
    /// Balls that arrived inside the window.
    pub arrivals: u64,
    /// Balls that departed inside the window.
    pub departures: u64,
    /// RLS rings inside the window.
    pub rings: u64,
    /// Migrations inside the window.
    pub migrations: u64,
}

/// Overloads below this get a slot of [`SteadyState`]'s time vector;
/// larger ones (a restored or scripted pile-up) go to a map, so memory
/// grows with the number of distinct large overloads, not with the
/// largest one.
const DENSE_OVERLOADS: u64 = 1024;

/// Accumulates steady-state statistics over `[warmup, ∞)`.
///
/// Works from either the event stream (as a [`LiveObserver`]) or directly
/// via [`record`](Self::record) — the sharded engine uses the latter at
/// batch granularity.
#[derive(Debug, Clone)]
pub struct SteadyState {
    warmup: f64,
    started: bool,
    last_time: f64,
    last_gap: f64,
    last_overload: u64,
    gap_integral: f64,
    /// Time spent at each overload value below [`DENSE_OVERLOADS`],
    /// indexed by overload (`0.0`: never held).
    overload_time: Vec<f64>,
    /// Time spent at each larger overload value.
    overload_tail: BTreeMap<u64, f64>,
    /// `(m, n, ⌈m/n⌉)` at the last event: rings move neither count, so
    /// most events reuse the division.
    ceil_avg: (u64, u64, u64),
    arrivals: u64,
    departures: u64,
    rings: u64,
    migrations: u64,
}

impl SteadyState {
    /// Measure from `warmup` onwards.
    pub fn new(warmup: f64) -> Self {
        Self {
            warmup,
            started: false,
            last_time: warmup,
            last_gap: 0.0,
            last_overload: 0,
            gap_integral: 0.0,
            overload_time: Vec::new(),
            overload_tail: BTreeMap::new(),
            ceil_avg: (0, 0, 0),
            arrivals: 0,
            departures: 0,
            rings: 0,
            migrations: 0,
        }
    }

    /// Record that the system sat in a state with the given gap/overload
    /// from the previous record up to `time`, then switched to that state.
    pub fn record(&mut self, time: f64, gap: f64, overload: u64) {
        if time > self.warmup {
            if !self.started {
                self.started = true;
                self.last_time = self.warmup;
            }
            let dt = time - self.last_time;
            if dt > 0.0 {
                self.gap_integral += self.last_gap * dt;
                let overload = self.last_overload;
                if overload < DENSE_OVERLOADS {
                    let slot = overload as usize;
                    if slot >= self.overload_time.len() {
                        self.overload_time.resize(slot + 1, 0.0);
                    }
                    self.overload_time[slot] += dt;
                } else {
                    *self.overload_tail.entry(overload).or_insert(0.0) += dt;
                }
            }
            self.last_time = time;
        }
        self.last_gap = gap;
        self.last_overload = overload;
    }

    /// Add event counts (only counted once measurement has started).
    pub fn count(&mut self, arrivals: u64, departures: u64, rings: u64, migrations: u64) {
        if self.started {
            self.arrivals += arrivals;
            self.departures += departures;
            self.rings += rings;
            self.migrations += migrations;
        }
    }

    /// Close the window at `end_time` and summarize.
    pub fn finish(mut self, end_time: f64) -> SteadySummary {
        // Integrate the tail segment — only when the window has positive
        // length.  (The previous guard `end_time.max(warmup + MIN_POSITIVE)`
        // relied on adding the smallest denormal, which any `warmup > 0`
        // absorbs: the sum rounds back to `warmup`, so it only ever worked
        // for `warmup == 0` by accident.)
        if end_time > self.warmup {
            self.record(end_time, 0.0, 0);
        }
        let window = (end_time - self.warmup).max(f64::MIN_POSITIVE);
        let (p50, p99, max) = self.overload_quantiles();
        SteadySummary {
            window,
            mean_gap: self.gap_integral / window,
            p50_overload: p50,
            p99_overload: p99,
            max_overload: max,
            // A window can see migrations without a single arrival (e.g.
            // pure-rebalance dynamics); "moves per arrival" is undefined
            // there and must report 0, not `migrations / 1`.
            moves_per_arrival: if self.arrivals == 0 {
                0.0
            } else {
                self.migrations as f64 / self.arrivals as f64
            },
            arrivals: self.arrivals,
            departures: self.departures,
            rings: self.rings,
            migrations: self.migrations,
        }
    }

    /// Every overload held for a positive time, ascending, with that
    /// time.
    fn overload_times(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        let dense = self.overload_time.iter().enumerate();
        dense
            .filter(|&(_, &t)| t > 0.0)
            .map(|(overload, &t)| (overload as u64, t))
            .chain(
                self.overload_tail
                    .iter()
                    .map(|(&overload, &t)| (overload, t)),
            )
    }

    /// Time-weighted overload quantiles (p50, p99) and the max.
    fn overload_quantiles(&self) -> (f64, f64, u64) {
        let total: f64 = self.overload_times().map(|(_, t)| t).sum();
        if total <= 0.0 {
            return (0.0, 0.0, 0);
        }
        let max = self
            .overload_times()
            .last()
            .map_or(0, |(overload, _)| overload);
        let quantile = |q: f64| -> f64 {
            let target = q * total;
            let mut acc = 0.0;
            for (overload, t) in self.overload_times() {
                acc += t;
                if acc >= target {
                    return overload as f64;
                }
            }
            max as f64
        };
        (quantile(0.5), quantile(0.99), max)
    }

    fn gap_and_overload(&mut self, tracker: &LoadTracker) -> (f64, u64) {
        let (m, n) = (tracker.m(), tracker.n() as u64);
        if (m, n) != (self.ceil_avg.0, self.ceil_avg.1) {
            self.ceil_avg = (m, n, m.div_ceil(n.max(1)));
        }
        let overload = tracker.max_load().saturating_sub(self.ceil_avg.2);
        (gap(tracker), overload)
    }
}

/// The gap `max − m/n` of the tracked state (`0` when below average).
fn gap(tracker: &LoadTracker) -> f64 {
    (tracker.max_load() as f64 - tracker.average()).max(0.0)
}

impl LiveObserver for SteadyState {
    fn on_start(&mut self, tracker: &LoadTracker, time: f64) {
        let (gap, overload) = self.gap_and_overload(tracker);
        self.record(time, gap, overload);
    }

    fn on_event(&mut self, event: &LiveEvent, tracker: &LoadTracker) {
        let (gap, overload) = self.gap_and_overload(tracker);
        self.record(event.time, gap, overload);
        if event.time > self.warmup {
            match &event.kind {
                LiveEventKind::Arrival { bins } => self.count(bins.len() as u64, 0, 0, 0),
                LiveEventKind::Departure { .. } => self.count(0, 1, 0, 0),
                LiveEventKind::Ring { moved, .. } => self.count(0, 0, 1, *moved as u64),
                // Scale events conserve balls and are not protocol work:
                // their forced relocations are costed by the re-convergence
                // observer, not the steady-state work ratio.
                LiveEventKind::BinsJoined { .. } | LiveEventKind::BinsDrained { .. } => {}
            }
        }
    }
}

/// Serializable digest of the re-convergence times an elastic run saw.
///
/// Times are measured from each scale event (`BinsJoined`/`BinsDrained`)
/// until the instantaneous gap first falls back to the threshold or below;
/// a scale event landing while an earlier one is still unresolved restarts
/// the clock (the system was never converged in between, so the composite
/// disturbance is charged to the later event).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconvSummary {
    /// Gap threshold that counts as "re-converged" (`gap ≤ threshold`).
    pub threshold: f64,
    /// Scale events observed.
    pub scale_events: u64,
    /// Scale events whose re-convergence completed inside the run.
    pub reconverged: u64,
    /// Mean time-to-re-converge over completed episodes (0 when none).
    pub mean_time: f64,
    /// Median time-to-re-converge (0 when none).
    pub p50_time: f64,
    /// Largest time-to-re-converge (0 when none).
    pub max_time: f64,
}

impl ReconvSummary {
    /// Whether every observed scale event re-converged inside the run.
    pub fn all_reconverged(&self) -> bool {
        self.reconverged == self.scale_events
    }
}

/// Default re-convergence gap threshold: within one ball of the average.
///
/// The paper's Theorem 1 balanced state has every bin within a constant of
/// the average load; "gap ≤ 1" is the tightest integral version of that and
/// is what E24 and the serving layer report against.
pub const DEFAULT_RECONV_THRESHOLD: f64 = 1.0;

/// Measures time-to-re-converge after membership scale events.
///
/// Works from the event stream (as a [`LiveObserver`]) or directly via
/// [`note_scale_event`](Self::note_scale_event) and
/// [`observe_gap`](Self::observe_gap).
#[derive(Debug, Clone)]
pub struct Reconvergence {
    threshold: f64,
    /// Time of the most recent scale event still awaiting re-convergence.
    outstanding: Option<f64>,
    times: Vec<f64>,
    scale_events: u64,
}

impl Reconvergence {
    /// Count the system as re-converged once `gap ≤ threshold`.
    pub fn new(threshold: f64) -> Self {
        Self {
            threshold,
            outstanding: None,
            times: Vec::new(),
            scale_events: 0,
        }
    }

    /// The configured gap threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Completed time-to-re-converge samples, in event order.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The start time of the unresolved scale event, if any.
    pub fn outstanding_since(&self) -> Option<f64> {
        self.outstanding
    }

    /// A scale event landed at `time`: start (or restart) the clock.
    pub fn note_scale_event(&mut self, time: f64) {
        self.scale_events += 1;
        self.outstanding = Some(time);
    }

    /// The instantaneous gap at `time` (post-event state).  Resolves the
    /// outstanding episode when the gap is back inside the threshold.
    pub fn observe_gap(&mut self, time: f64, gap: f64) {
        if let Some(since) = self.outstanding {
            if gap <= self.threshold {
                self.times.push((time - since).max(0.0));
                self.outstanding = None;
            }
        }
    }

    /// Summarize the episodes seen so far (the tracker keeps accumulating).
    pub fn summary(&self) -> ReconvSummary {
        let mut sorted = self.times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("reconvergence times are finite"));
        let (mean, p50, max) = if sorted.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            let sum: f64 = sorted.iter().sum();
            (
                sum / sorted.len() as f64,
                sorted[(sorted.len() - 1) / 2],
                sorted[sorted.len() - 1],
            )
        };
        ReconvSummary {
            threshold: self.threshold,
            scale_events: self.scale_events,
            reconverged: self.times.len() as u64,
            mean_time: mean,
            p50_time: p50,
            max_time: max,
        }
    }
}

impl LiveObserver for Reconvergence {
    fn on_event(&mut self, event: &LiveEvent, tracker: &LoadTracker) {
        if matches!(
            event.kind,
            LiveEventKind::BinsJoined { .. } | LiveEventKind::BinsDrained { .. }
        ) {
            self.note_scale_event(event.time);
        }
        // Only an outstanding episode reads the gap.
        if self.outstanding.is_some() {
            self.observe_gap(event.time, gap(tracker));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_integrates_piecewise_constant_gap() {
        let mut s = SteadyState::new(0.0);
        s.record(0.0, 2.0, 2); // state: gap 2 from t=0
        s.record(1.0, 4.0, 4); // gap 2 over [0,1), then gap 4
        s.record(3.0, 0.0, 0); // gap 4 over [1,3)
        let summary = s.finish(4.0); // gap 0 over [3,4)
        assert!((summary.window - 4.0).abs() < 1e-12);
        // (2·1 + 4·2 + 0·1)/4 = 2.5
        assert!((summary.mean_gap - 2.5).abs() < 1e-12);
        assert_eq!(summary.max_overload, 4);
        // Time at overload: 2→1s, 4→2s, 0→1s. p50 falls on overload 2
        // (cumulative 0:1s, 2:2s ≥ 2s target).
        assert_eq!(summary.p50_overload, 2.0);
        assert_eq!(summary.p99_overload, 4.0);
    }

    #[test]
    fn large_overloads_are_kept_in_order_without_a_dense_slot_each() {
        let huge = u64::MAX / 2;
        let mut s = SteadyState::new(0.0);
        s.record(0.0, 0.0, huge); // a pile-up: held over [0, 1)
        s.record(1.0, 0.0, 3); // held over [1, 4)
        s.record(4.0, 0.0, DENSE_OVERLOADS); // held over [4, 4.5)
        s.record(4.5, 0.0, 3);
        assert_eq!(s.overload_time.len(), 4, "only overloads 0..=3 are dense");
        let summary = s.finish(5.0); // overload 3 again over [4.5, 5)
                                     // Time at overload: 3 → 3.5, 1024 → 0.5, huge → 1 (of 5).
        assert_eq!(summary.p50_overload, 3.0);
        assert_eq!(summary.p99_overload, huge as f64);
        assert_eq!(summary.max_overload, huge);
        let mut cut = SteadyState::new(0.0);
        cut.record(0.0, 0.0, 3);
        cut.record(3.5, 0.0, DENSE_OVERLOADS);
        let summary = cut.finish(4.0);
        assert_eq!(summary.p99_overload, DENSE_OVERLOADS as f64);
        assert_eq!(summary.max_overload, DENSE_OVERLOADS);
    }

    #[test]
    fn warmup_is_excluded() {
        let mut s = SteadyState::new(10.0);
        s.record(5.0, 100.0, 50); // entirely before warm-up
        s.record(12.0, 1.0, 1); // gap 100 over [10,12) counts
        let summary = s.finish(14.0); // gap 1 over [12,14)
        assert!((summary.window - 4.0).abs() < 1e-12);
        assert!((summary.mean_gap - (100.0 * 2.0 + 1.0 * 2.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn counts_only_inside_the_window() {
        let mut s = SteadyState::new(1.0);
        s.count(5, 5, 5, 5); // before measurement starts: dropped
        s.record(2.0, 0.0, 0);
        s.count(10, 2, 8, 4);
        let summary = s.finish(3.0);
        assert_eq!(summary.arrivals, 10);
        assert_eq!(summary.departures, 2);
        assert_eq!(summary.rings, 8);
        assert_eq!(summary.migrations, 4);
        assert!((summary.moves_per_arrival - 0.4).abs() < 1e-12);
    }

    #[test]
    fn zero_arrival_window_reports_zero_moves_per_arrival() {
        // Regression: a window with 0 arrivals but k migrations used to
        // divide by `arrivals.max(1)` and silently report k moves "per
        // arrival".
        let mut s = SteadyState::new(0.0);
        s.record(1.0, 0.0, 0);
        s.count(0, 0, 9, 7); // 7 migrations, no arrivals
        let summary = s.finish(2.0);
        assert_eq!(summary.arrivals, 0);
        assert_eq!(summary.migrations, 7);
        assert_eq!(summary.moves_per_arrival, 0.0);
    }

    #[test]
    fn finish_at_the_warmup_instant_is_well_defined() {
        // Regression: the tail-integration guard used
        // `end_time.max(warmup + f64::MIN_POSITIVE)`, but `warmup +
        // MIN_POSITIVE == warmup` for any positive warmup, so the guard
        // only worked for warmup == 0 by accident.  Closing the window
        // exactly at the warm-up boundary must yield a clean zero summary,
        // not NaN or a phantom tail segment.
        let mut s = SteadyState::new(10.0);
        s.record(5.0, 100.0, 50); // entirely before warm-up
        let summary = s.finish(10.0);
        assert!(summary.mean_gap.is_finite());
        assert_eq!(summary.mean_gap, 0.0);
        assert_eq!(summary.max_overload, 0);
        assert_eq!(summary.p99_overload, 0.0);
        assert_eq!(summary.arrivals, 0);
    }

    #[test]
    fn finish_just_past_the_warmup_integrates_the_tail() {
        // The companion positive case: a hair past the boundary, the state
        // in force at warm-up is integrated over the (tiny) tail.
        let mut s = SteadyState::new(10.0);
        s.record(5.0, 4.0, 2); // state entering the window: gap 4
        let summary = s.finish(10.5);
        assert!((summary.window - 0.5).abs() < 1e-12);
        assert!((summary.mean_gap - 4.0).abs() < 1e-9);
        assert_eq!(summary.max_overload, 2);
    }

    #[test]
    fn empty_window_is_well_defined() {
        let s = SteadyState::new(0.0);
        let summary = s.finish(0.0);
        assert_eq!(summary.mean_gap, 0.0);
        assert_eq!(summary.max_overload, 0);
        assert_eq!(summary.moves_per_arrival, 0.0);
    }

    #[test]
    fn reconvergence_measures_scale_event_to_threshold() {
        let mut r = Reconvergence::new(1.0);
        r.observe_gap(0.0, 5.0); // no episode outstanding: ignored
        r.note_scale_event(2.0);
        r.observe_gap(3.0, 4.0); // still above threshold
        r.observe_gap(5.5, 0.5); // re-converged: 3.5 time units
        r.observe_gap(6.0, 0.0); // no episode: ignored
        let s = r.summary();
        assert_eq!(s.scale_events, 1);
        assert_eq!(s.reconverged, 1);
        assert!(s.all_reconverged());
        assert!((s.mean_time - 3.5).abs() < 1e-12);
        assert_eq!(s.p50_time, s.max_time);
    }

    #[test]
    fn overlapping_scale_events_restart_the_clock() {
        let mut r = Reconvergence::new(0.0);
        r.note_scale_event(1.0);
        r.note_scale_event(4.0); // never converged in between: restart
        r.observe_gap(6.0, 0.0);
        let s = r.summary();
        assert_eq!(s.scale_events, 2);
        assert_eq!(s.reconverged, 1, "composite disturbance = one episode");
        assert!((s.max_time - 2.0).abs() < 1e-12);
        assert_eq!(r.outstanding_since(), None);
    }

    #[test]
    fn unresolved_episode_reports_as_pending() {
        let mut r = Reconvergence::new(0.5);
        r.note_scale_event(3.0);
        r.observe_gap(9.0, 2.0); // still above threshold at end of run
        let s = r.summary();
        assert_eq!(s.scale_events, 1);
        assert_eq!(s.reconverged, 0);
        assert!(!s.all_reconverged());
        assert_eq!(s.mean_time, 0.0);
        assert_eq!(r.outstanding_since(), Some(3.0));
        let json = serde_json::to_string(&s).unwrap();
        let back: ReconvSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn serde_round_trip() {
        let mut s = SteadyState::new(0.0);
        s.record(0.0, 1.5, 1);
        s.count(3, 1, 4, 2);
        let summary = s.finish(2.0);
        let json = serde_json::to_string(&summary).unwrap();
        let back: SteadySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(summary, back);
    }
}
