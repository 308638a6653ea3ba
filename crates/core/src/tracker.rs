//! Incremental bookkeeping of the quantities the simulator's stopping
//! conditions and observers need after every single ball movement.
//!
//! Recomputing the discrepancy or the overloaded-ball count from the load
//! vector is `O(n)`; the simulator performs on the order of `m ln n + n²`
//! activations per run and needs these quantities after each one, so the
//! naive approach turns an `O(events)` simulation into `O(events · n)`.
//! [`LoadTracker`] maintains them in `O(1)` amortized per move by exploiting
//! that a single move changes exactly two loads by exactly one:
//!
//! * a histogram of loads (`load value → number of bins`), kept in a
//!   flat open-addressing table, so a move costs a few probes and
//!   allocates only when the table resizes,
//! * the minimum and maximum load (adjusted by at most one step per move),
//! * the number of overloaded balls and of holes,
//! * the counts of bins above / at / below the exact average.
//!
//! The tracker is identity-agnostic: it never needs to know *which* bins
//! moved, only their loads immediately before the move.

// detlint: allow-file(D004) every float here (average, discrepancy,
// x-balance) is a read-only statistic derived from integer state on
// demand; nothing float-valued is ever written back into the histogram
// or the aggregates, so the trajectory cannot be perturbed.
use crate::{BinCounts, Config, Membership};

/// Incrementally maintained summary of a load configuration.
#[derive(Debug, Clone)]
pub struct LoadTracker {
    counts: LoadCounts,
    n: usize,
    m: u64,
    floor_avg: u64,
    ceil_avg: u64,
    /// The populations `window.0..=window.1` at which `⌊m/n⌋` and
    /// `⌈m/n⌉` keep their current values (see [`average_window`]).
    window: (u64, u64),
    min_load: u64,
    max_load: u64,
    overloaded: u64,
    holes: u64,
    bins_above: usize,
    bins_at: usize,
    bins_below: usize,
}

/// The populations `lo..=hi` at which `⌊·/n⌋` and `⌈·/n⌉` take the
/// values they take at `m`: `m` alone when `n` divides it (one ball more
/// moves the ceiling, one less the floor), otherwise every population
/// strictly between the multiples of `n` on either side of `m`.
fn average_window(m: u64, n: u64) -> (u64, u64) {
    let below = m - m % n;
    if below == m {
        (m, m)
    } else {
        (below + 1, below.saturating_add(n - 1))
    }
}

impl LoadTracker {
    /// Build the tracker for an initial configuration in one pass over
    /// the loads: each run of equal loads is one histogram entry update,
    /// so a uniform or all-in-one-bin start costs a compare per bin and a
    /// probe per run.  The extremes and every average-relative aggregate
    /// then come from the histogram, in `O(distinct loads)`.
    pub fn new(cfg: &Config) -> Self {
        let mut counts = LoadCounts::new();
        let (&first, rest) = cfg.loads().split_first().expect("a Config has a bin");
        let (mut load, mut bins) = (first, 1);
        for &l in rest {
            if l == load {
                bins += 1;
            } else {
                counts.add(load, bins);
                (load, bins) = (l, 1);
            }
        }
        counts.add(load, bins);
        let (min_load, max_load) = counts
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), (l, _)| (lo.min(l), hi.max(l)));
        let mut tracker = Self {
            counts,
            n: cfg.n(),
            m: cfg.m(),
            floor_avg: 0,
            ceil_avg: 0,
            window: (0, 0),
            min_load,
            max_load,
            overloaded: 0,
            holes: 0,
            bins_above: 0,
            bins_at: 0,
            bins_below: 0,
        };
        tracker.refresh_average_relative();
        tracker
    }

    /// Number of bins.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of balls.
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Current minimum load.
    pub fn min_load(&self) -> u64 {
        self.min_load
    }

    /// Current maximum load.
    pub fn max_load(&self) -> u64 {
        self.max_load
    }

    /// The average load `m/n`.
    pub fn average(&self) -> f64 {
        self.m as f64 / self.n as f64
    }

    /// Current discrepancy `max(max − ∅, ∅ − min)`.
    pub fn discrepancy(&self) -> f64 {
        let avg = self.average();
        (self.max_load as f64 - avg)
            .max(avg - self.min_load as f64)
            .max(0.0)
    }

    /// Number of overloaded balls (mass above `⌈∅⌉`).
    pub fn overloaded_balls(&self) -> u64 {
        self.overloaded
    }

    /// Number of holes (mass missing below `⌊∅⌋`).
    pub fn holes(&self) -> u64 {
        self.holes
    }

    /// Bin counts above / at / below the exact average.
    pub fn bin_counts(&self) -> BinCounts {
        BinCounts {
            above: self.bins_above,
            at: self.bins_at,
            below: self.bins_below,
        }
    }

    /// Is the tracked configuration perfectly balanced (`disc < 1`)?
    ///
    /// Equivalent to "no overloaded balls and no holes".
    pub fn is_perfectly_balanced(&self) -> bool {
        self.overloaded == 0 && self.holes == 0
    }

    /// Is the tracked configuration `x`-balanced?
    pub fn is_x_balanced(&self, x: f64) -> bool {
        self.discrepancy() <= x
    }

    /// Record a ball moving out of a bin whose load *before the move* was
    /// `old_from_load` and into a bin whose load before the move was
    /// `old_to_load`.  Self-loops must not be recorded.
    ///
    /// # Panics
    /// Panics (in debug builds) if the bookkeeping would go inconsistent,
    /// e.g. `old_from_load == 0` or no bin currently has that load.
    pub fn record_move(&mut self, old_from_load: u64, old_to_load: u64) {
        debug_assert!(old_from_load > 0, "cannot move a ball out of an empty bin");
        self.change_bin(old_from_load, old_from_load - 1);
        self.change_bin(old_to_load, old_to_load + 1);
    }

    /// Record a ball *arriving* into a bin whose load before the arrival was
    /// `old_load` (dynamic instances: `m` grows by one).
    ///
    /// The aggregates depend on `m` only through `⌊m/n⌋` and `⌈m/n⌉`, so
    /// while neither moves the arrival is an incremental one-bin change.
    /// When one does (`m` crosses a multiple of `n`), the average-relative
    /// aggregates are rebuilt from the histogram: `O(#distinct loads)` —
    /// for configurations near balance a handful of entries, never `O(n)`.
    pub fn record_insert(&mut self, old_load: u64) {
        self.m += 1;
        self.change_population(old_load, old_load + 1);
    }

    /// Record a ball *departing* from a bin whose load before the departure
    /// was `old_load` (dynamic instances: `m` shrinks by one).
    ///
    /// # Panics
    /// Panics (in debug builds) if `old_load == 0`.
    pub fn record_remove(&mut self, old_load: u64) {
        debug_assert!(old_load > 0, "cannot remove a ball from an empty bin");
        self.m -= 1;
        self.change_population(old_load, old_load - 1);
    }

    /// One bin moves from load `old` to `new` after `m` changed by the
    /// same step: incremental unless `⌊m/n⌋` or `⌈m/n⌉` moved with it,
    /// which is `m` leaving the kept window (two compares, no division).
    fn change_population(&mut self, old: u64, new: u64) {
        let (lo, hi) = self.window;
        if lo <= self.m && self.m <= hi {
            self.change_bin(old, new);
        } else {
            self.shift_load(old, new);
            self.refresh_average_relative();
        }
    }

    /// Record a bin *joining* the tracked set with `load` balls already in
    /// it (elastic scale-up; warm starts insert the stolen balls'
    /// migrations separately via [`record_move`](Self::record_move), so
    /// joins normally carry `load == 0`).
    ///
    /// `n` grows by one, `m` by `load`, and every average-relative
    /// aggregate is rebuilt from the histogram because `m/n` moved.
    pub fn bin_joined(&mut self, load: u64) {
        self.n += 1;
        self.m += load;
        self.counts.add(load, 1);
        if load < self.min_load {
            self.min_load = load;
        }
        if load > self.max_load {
            self.max_load = load;
        }
        self.refresh_average_relative();
    }

    /// Record a bin *leaving* the tracked set.  The bin must already be
    /// empty — the engine re-places a draining bin's balls (as moves)
    /// before retiring it, so the tracker only ever drops a zero-load
    /// entry.
    ///
    /// # Panics
    /// Panics if no zero-load bin is currently tracked, or the departing
    /// bin is the last one.
    pub fn bin_retired(&mut self) {
        assert!(self.n > 1, "cannot retire the last tracked bin");
        let emptied = self
            .counts
            .decrement(0)
            .unwrap_or_else(|| panic!("tracker inconsistency: retiring a non-empty bin"));
        self.n -= 1;
        if emptied && self.min_load == 0 {
            // The histogram is non-empty (n ≥ 1 bins remain).
            self.min_load = self
                .counts
                .iter()
                .map(|(load, _)| load)
                .min()
                .expect("tracker non-empty");
        }
        self.refresh_average_relative();
    }

    /// Rebuild every `m/n`-relative quantity from the histogram after a
    /// population change.
    fn refresh_average_relative(&mut self) {
        let n = self.n as u64;
        self.floor_avg = self.m / n;
        self.ceil_avg = self.m.div_ceil(n);
        self.window = average_window(self.m, n);
        self.overloaded = 0;
        self.holes = 0;
        self.bins_above = 0;
        self.bins_at = 0;
        self.bins_below = 0;
        for (load, bins) in self.counts.iter() {
            self.overloaded += load.saturating_sub(self.ceil_avg) * bins as u64;
            self.holes += self.floor_avg.saturating_sub(load) * bins as u64;
            match self.class(load) {
                1 => self.bins_above += bins,
                0 => self.bins_at += bins,
                _ => self.bins_below += bins,
            }
        }
    }

    /// Where a bin of load `l` stands against the exact average `m/n`:
    /// `1` above, `0` at, `-1` below.  Branch-free, because `l > m/n` iff
    /// `l > ⌊m/n⌋` and `l < m/n` iff `l < ⌈m/n⌉`.
    #[inline]
    fn class(&self, l: u64) -> i8 {
        i8::from(l > self.floor_avg) - i8::from(l < self.ceil_avg)
    }

    /// Move one bin from load `old` to load `new` in the histogram and
    /// adjust the min/max (|old − new| must be 1).
    fn shift_load(&mut self, old: u64, new: u64) {
        debug_assert!(old.abs_diff(new) == 1);
        // Histogram.
        let emptied = self
            .counts
            .decrement(old)
            .unwrap_or_else(|| panic!("tracker inconsistency: no bin at load {old}"));
        self.counts.add(new, 1);

        // Min / max: a single ±1 change moves the extremes by at most one.
        if new > self.max_load {
            self.max_load = new;
        } else if emptied && old == self.max_load {
            // The bin that defined the maximum stepped down to old − 1.
            self.max_load = old - 1;
        }
        if new < self.min_load {
            self.min_load = new;
        } else if emptied && old == self.min_load {
            self.min_load = old + 1;
        }
    }

    /// Move one bin from load `old` to load `new` (|old − new| must be 1),
    /// keeping the average-relative aggregates incremental (`m` unchanged).
    fn change_bin(&mut self, old: u64, new: u64) {
        self.shift_load(old, new);

        // Overloaded balls / holes.
        self.overloaded =
            self.overloaded + new.saturating_sub(self.ceil_avg) - old.saturating_sub(self.ceil_avg);
        self.holes =
            self.holes + self.floor_avg.saturating_sub(new) - self.floor_avg.saturating_sub(old);

        // Bins above / at / below the exact average.
        let (old_class, new_class) = (self.class(old), self.class(new));
        if old_class != new_class {
            match old_class {
                1 => self.bins_above -= 1,
                0 => self.bins_at -= 1,
                _ => self.bins_below -= 1,
            }
            match new_class {
                1 => self.bins_above += 1,
                0 => self.bins_at += 1,
                _ => self.bins_below += 1,
            }
        }
    }

    /// The load histogram as ascending `(load, bin count)` pairs, sorted
    /// on demand in `O(d log d)` for `d` distinct loads.
    ///
    /// The order is fixed by the loads alone, so any export or
    /// serialization built on it is byte-stable across runs and across
    /// trackers that reach the same load multiset by different paths.
    pub fn histogram(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        let mut pairs: Vec<(u64, usize)> = self.counts.iter().collect();
        pairs.sort_unstable();
        pairs.into_iter()
    }

    /// Verify the tracker against the *live* sub-configuration of an
    /// elastic instance (test/debug helper).  The tracker models the live
    /// multiset only: a retired slot holds zero mass forever but is not a
    /// bin — comparing against the capacity-wide [`Config`] would deflate
    /// the average and miscount the at/below classes.
    pub fn matches_live(&self, cfg: &Config, membership: &Membership) -> bool {
        let live: Vec<u64> = membership.iter().map(|b| cfg.load(b)).collect();
        Config::from_loads(live).is_ok_and(|live_cfg| self.matches(&live_cfg))
    }

    /// Verify the tracker against a configuration (test/debug helper).
    pub fn matches(&self, cfg: &Config) -> bool {
        let bc = cfg.bin_counts();
        self.n == cfg.n()
            && self.m == cfg.m()
            && self.min_load == cfg.min_load()
            && self.max_load == cfg.max_load()
            && self.overloaded == cfg.overloaded_balls()
            && self.holes == cfg.holes()
            && self.bins_above == bc.above
            && self.bins_at == bc.at
            && self.bins_below == bc.below
    }
}

/// Multiplier of the Fibonacci hash: `2⁶⁴ / φ`, odd, so consecutive loads
/// land far apart in the table.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Smallest table size; the table never shrinks below it.
const MIN_SLOTS: usize = 8;

/// The load histogram: a deterministic open-addressing table from load
/// value to the number of bins holding it.
///
/// Multiplicative (Fibonacci) hashing into a power-of-two table, linear
/// probing, and backward-shift deletion, so there are no tombstones and a
/// lookup stops at the first vacant slot.  Occupancy stays within
/// `(1/8, 1/2]` of the slots (above the minimum size): the table doubles
/// when it passes half full and halves when it falls under an eighth, so
/// a scan of every entry costs `O(distinct loads)`.  The hash is a fixed
/// function of the load, so identically-driven tables are identical —
/// layout and iteration order included.
#[derive(Debug, Clone)]
struct LoadCounts {
    /// `(load, bins)`; `bins == 0` marks a vacant slot.
    slots: Vec<(u64, usize)>,
    /// Occupied slots, i.e. distinct loads.
    len: usize,
    /// `64 − log₂ slots.len()`: the hash keeps the product's top bits.
    shift: u32,
}

impl LoadCounts {
    fn new() -> Self {
        Self::with_slots(MIN_SLOTS)
    }

    fn with_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        Self {
            slots: vec![(0, 0); slots],
            len: 0,
            shift: 64 - slots.trailing_zeros(),
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Home slot of `load`.
    #[inline]
    fn home(&self, load: u64) -> usize {
        // The top `log₂ slots` bits of the product: always `< slots.len()`.
        usize::try_from(load.wrapping_mul(HASH_MUL) >> self.shift).expect("slot index fits usize")
    }

    /// The slot holding `load`, or the vacant slot ending its probe run.
    #[inline]
    fn probe(&self, load: u64) -> usize {
        let mask = self.mask();
        let mut i = self.home(load);
        loop {
            let (key, bins) = self.slots[i];
            if bins == 0 || key == load {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// `bins` more bins at `load` (`bins ≥ 1`).
    #[inline]
    fn add(&mut self, load: u64, bins: usize) {
        debug_assert!(bins > 0);
        let i = self.probe(load);
        let slot = &mut self.slots[i];
        if slot.1 == 0 {
            *slot = (load, bins);
            self.len += 1;
            if self.len * 2 > self.slots.len() {
                self.resize(self.slots.len() * 2);
            }
        } else {
            slot.1 += bins;
        }
    }

    /// One fewer bin at `load`: `Some(emptied)` reports whether that was
    /// the last such bin, `None` that no bin holds `load`.
    fn decrement(&mut self, load: u64) -> Option<bool> {
        let i = self.probe(load);
        let slot = &mut self.slots[i];
        if slot.1 == 0 {
            return None;
        }
        slot.1 -= 1;
        if slot.1 > 0 {
            return Some(false);
        }
        self.len -= 1;
        self.backward_shift(i);
        if self.len * 8 < self.slots.len() && self.slots.len() > MIN_SLOTS {
            self.resize(self.slots.len() / 2);
        }
        Some(true)
    }

    /// Close the hole at vacant slot `hole`: pull each later entry of the
    /// probe run back into it unless that would move the entry before its
    /// home slot.
    fn backward_shift(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let (key, bins) = self.slots[i];
            if bins == 0 {
                break;
            }
            // The entry may fill the hole iff the hole lies between its
            // home and its current slot (cyclically).
            if (i.wrapping_sub(self.home(key)) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = (key, bins);
                self.slots[i] = (0, 0);
                hole = i;
            }
        }
    }

    /// Rehash every entry into a table of `slots` slots.
    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(self, Self::with_slots(slots));
        for (load, bins) in old.iter() {
            let i = self.probe(load);
            self.slots[i] = (load, bins);
        }
        self.len = old.len;
    }

    /// Every `(load, bins)` entry, in table order.
    fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.slots.iter().copied().filter(|&(_, bins)| bins > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Move, RlsRule};

    #[test]
    fn average_window_is_where_floor_and_ceiling_hold() {
        for n in 1..=7u64 {
            for m in 0..=40u64 {
                let (lo, hi) = average_window(m, n);
                for p in 0..=60u64 {
                    let same = p / n == m / n && p.div_ceil(n) == m.div_ceil(n);
                    assert_eq!((lo..=hi).contains(&p), same, "n={n} m={m} p={p}");
                }
            }
        }
        // The window's top saturates instead of overflowing.
        assert_eq!(average_window(u64::MAX - 2, 10), (u64::MAX - 4, u64::MAX));
        assert_eq!(average_window(u64::MAX, 1), (u64::MAX, u64::MAX));
    }

    #[test]
    fn new_matches_configuration() {
        let cfg = Config::from_loads(vec![7, 0, 3, 2]).unwrap();
        let t = LoadTracker::new(&cfg);
        assert!(t.matches(&cfg));
        assert_eq!(t.min_load(), 0);
        assert_eq!(t.max_load(), 7);
        assert_eq!(t.n(), 4);
        assert_eq!(t.m(), 12);
        assert_eq!(t.average(), 3.0);
        assert_eq!(t.discrepancy(), 4.0);
    }

    #[test]
    fn perfectly_balanced_detection() {
        let t = LoadTracker::new(&Config::uniform(5, 2).unwrap());
        assert!(t.is_perfectly_balanced());
        let t2 = LoadTracker::new(&Config::from_loads(vec![3, 1, 2]).unwrap());
        assert!(!t2.is_perfectly_balanced());
        // Fractional average: {2,2,3} on m=7 is perfect.
        let t3 = LoadTracker::new(&Config::from_loads(vec![2, 2, 3]).unwrap());
        assert!(t3.is_perfectly_balanced());
    }

    #[test]
    fn record_move_tracks_a_single_move() {
        let mut cfg = Config::from_loads(vec![5, 1, 3]).unwrap();
        let mut t = LoadTracker::new(&cfg);
        let mv = Move::new(0, 1);
        let (lf, lt) = (cfg.load(0), cfg.load(1));
        cfg.apply(mv).unwrap();
        t.record_move(lf, lt);
        assert!(t.matches(&cfg), "tracker {t:?} vs cfg {cfg:?}");
    }

    #[test]
    fn stays_consistent_over_a_long_rls_trajectory() {
        // Drive a deterministic pseudo-random-ish walk using the RLS rule
        // and check full consistency after every step.
        let mut cfg = Config::all_in_one_bin(8, 64).unwrap();
        let mut t = LoadTracker::new(&cfg);
        let rule = RlsRule::paper();
        let mut state = 12345u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let from = (state >> 33) as usize % cfg.n();
            let to = (state >> 13) as usize % cfg.n();
            if from == to || cfg.load(from) == 0 {
                continue;
            }
            if rule.permits(&cfg, Move::new(from, to)) {
                let (lf, lt) = (cfg.load(from), cfg.load(to));
                cfg.apply(Move::new(from, to)).unwrap();
                t.record_move(lf, lt);
                assert!(t.matches(&cfg));
            }
        }
    }

    #[test]
    fn stays_consistent_under_destructive_moves_too() {
        // The adversary of Lemma 2 performs destructive moves; the tracker
        // must remain exact for those as well (min can decrease, max can
        // increase).
        let mut cfg = Config::from_loads(vec![4, 4, 4, 4]).unwrap();
        let mut t = LoadTracker::new(&cfg);
        // Pile everything into bin 0 by destructive moves.
        for source in 1..4usize {
            for _ in 0..4 {
                let (lf, lt) = (cfg.load(source), cfg.load(0));
                cfg.apply(Move::new(source, 0)).unwrap();
                t.record_move(lf, lt);
                assert!(t.matches(&cfg));
            }
        }
        assert_eq!(t.max_load(), 16);
        assert_eq!(t.min_load(), 0);
        assert_eq!(t.overloaded_balls(), 12);
    }

    #[test]
    fn potential_matches_snapshot() {
        let cfg = Config::from_loads(vec![7, 1, 4, 4, 4, 4]).unwrap();
        let t = LoadTracker::new(&cfg);
        let snap = crate::Phase2Snapshot::capture(&cfg);
        let bc = t.bin_counts();
        assert_eq!(
            crate::phase2_potential(t.overloaded_balls(), bc.above, bc.below),
            snap.potential
        );
    }

    #[test]
    fn x_balanced_checks() {
        let t = LoadTracker::new(&Config::from_loads(vec![5, 1, 3, 3]).unwrap());
        assert!(t.is_x_balanced(2.0));
        assert!(!t.is_x_balanced(1.5));
    }

    #[test]
    fn insert_and_remove_track_population_changes() {
        let mut cfg = Config::from_loads(vec![5, 1, 3]).unwrap();
        let mut t = LoadTracker::new(&cfg);
        // Arrival into the light bin: the average moves from 3 to 10/3.
        let old = cfg.load(1);
        cfg.add_ball(1).unwrap();
        t.record_insert(old);
        assert!(t.matches(&cfg), "tracker {t:?} vs cfg {cfg:?}");
        assert_eq!(t.m(), 10);
        // Departure from the heavy bin.
        let old = cfg.load(0);
        cfg.remove_ball(0).unwrap();
        t.record_remove(old);
        assert!(t.matches(&cfg));
        assert_eq!(t.m(), 9);
        assert_eq!(t.average(), 3.0);
    }

    #[test]
    fn stays_consistent_over_a_mixed_dynamic_trajectory() {
        // Interleave arrivals, departures and RLS moves and verify full
        // consistency after every step — the invariant the live engine
        // depends on.
        let mut cfg = Config::from_loads(vec![8, 2, 5, 5]).unwrap();
        let mut t = LoadTracker::new(&cfg);
        let rule = RlsRule::paper();
        let mut state = 98765u64;
        for step in 0..3000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (state >> 33) as usize % cfg.n();
            let b = (state >> 13) as usize % cfg.n();
            match step % 3 {
                0 => {
                    let old = cfg.load(a);
                    cfg.add_ball(a).unwrap();
                    t.record_insert(old);
                }
                1 if cfg.load(b) > 0 => {
                    let old = cfg.load(b);
                    cfg.remove_ball(b).unwrap();
                    t.record_remove(old);
                }
                _ => {
                    if a != b && cfg.load(a) > 0 && rule.permits(&cfg, Move::new(a, b)) {
                        let (lf, lt) = (cfg.load(a), cfg.load(b));
                        cfg.apply(Move::new(a, b)).unwrap();
                        t.record_move(lf, lt);
                    }
                }
            }
            assert!(t.matches(&cfg), "step {step}: {t:?} vs {cfg:?}");
        }
    }

    #[test]
    fn draining_to_zero_balls_is_consistent() {
        let mut cfg = Config::from_loads(vec![1, 2]).unwrap();
        let mut t = LoadTracker::new(&cfg);
        for bin in [0usize, 1, 1] {
            let old = cfg.load(bin);
            cfg.remove_ball(bin).unwrap();
            t.record_remove(old);
            assert!(t.matches(&cfg));
        }
        assert_eq!(t.m(), 0);
        assert!(t.is_perfectly_balanced());
        assert_eq!(t.discrepancy(), 0.0);
    }

    // The check is a `debug_assert!`: release builds compile it out.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "empty bin")]
    fn removing_from_empty_bin_panics_in_debug() {
        let cfg = Config::from_loads(vec![1, 0]).unwrap();
        let mut t = LoadTracker::new(&cfg);
        t.record_remove(0);
    }

    // The check is a `debug_assert!`: release builds compile it out.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "empty bin")]
    fn moving_from_empty_bin_panics_in_debug() {
        let cfg = Config::from_loads(vec![1, 0]).unwrap();
        let mut t = LoadTracker::new(&cfg);
        t.record_move(0, 1);
    }

    #[test]
    fn bin_joined_tracks_the_growing_live_set() {
        // Live set {5, 1, 3}; an empty bin joins, then a warm one.
        let mut loads = vec![5u64, 1, 3];
        let cfg = Config::from_loads(loads.clone()).unwrap();
        let mut t = LoadTracker::new(&cfg);
        t.bin_joined(0);
        loads.push(0);
        assert!(t.matches(&Config::from_loads(loads.clone()).unwrap()));
        assert_eq!(t.n(), 4);
        assert_eq!(t.m(), 9);
        t.bin_joined(7);
        loads.push(7);
        assert!(t.matches(&Config::from_loads(loads.clone()).unwrap()));
        assert_eq!(t.max_load(), 7);
        assert_eq!(t.min_load(), 0);
    }

    #[test]
    fn bin_retired_drops_one_empty_bin() {
        let cfg = Config::from_loads(vec![4, 0, 2, 0]).unwrap();
        let mut t = LoadTracker::new(&cfg);
        t.bin_retired();
        assert!(t.matches(&Config::from_loads(vec![4, 0, 2]).unwrap()));
        t.bin_retired();
        // Both zero bins gone: the minimum must recover from the histogram.
        assert!(t.matches(&Config::from_loads(vec![4, 2]).unwrap()));
        assert_eq!(t.min_load(), 2);
        assert_eq!(t.n(), 2);
        assert_eq!(t.m(), 6);
    }

    #[test]
    fn join_then_drain_round_trips() {
        // A drain re-places the victim's balls (moves), then retires it —
        // the exact sequence the live engine performs.
        let cfg = Config::from_loads(vec![3, 3]).unwrap();
        let mut t = LoadTracker::new(&cfg);
        t.bin_joined(0); // live {3, 3, 0}
        t.record_move(3, 0); // ball 0→2: {2, 3, 1}
        t.record_move(2, 1); // ball 0→2: {1, 3, 2}
                             // Drain bin 0: its last ball moves to bin 2, then the bin leaves.
        t.record_move(1, 2); // {0, 3, 3}
        t.bin_retired(); // live {3, 3}
        assert!(t.matches(&Config::from_loads(vec![3, 3]).unwrap()));
        assert!(t.is_perfectly_balanced());
    }

    #[test]
    #[should_panic(expected = "non-empty bin")]
    fn retiring_without_an_empty_bin_panics() {
        let cfg = Config::from_loads(vec![2, 1]).unwrap();
        let mut t = LoadTracker::new(&cfg);
        t.bin_retired();
    }

    #[test]
    #[should_panic(expected = "last tracked bin")]
    fn retiring_the_last_bin_panics() {
        let cfg = Config::from_loads(vec![0]).unwrap();
        let mut t = LoadTracker::new(&cfg);
        t.bin_retired();
    }

    /// Serializes the histogram the way an export path would.
    fn render_histogram(t: &LoadTracker) -> String {
        t.histogram()
            .map(|(l, c)| format!("{l}:{c}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    #[test]
    fn histogram_export_is_byte_identical() {
        // Two identically-driven trackers must serialize byte-equal —
        // and so must two trackers that reach the same load multiset
        // through *different* operation orders.  The former caught
        // nothing under HashMap only by luck of equal contents; the
        // latter is where per-instance hash seeds made exports flap.
        let drive = |ops: &[(usize, usize)]| {
            let mut cfg = Config::from_loads(vec![6, 2, 4, 0]).unwrap();
            let mut t = LoadTracker::new(&cfg);
            for &(from, to) in ops {
                let (lf, lt) = (cfg.load(from), cfg.load(to));
                cfg.apply(Move::new(from, to)).unwrap();
                t.record_move(lf, lt);
            }
            t
        };
        let a = drive(&[(0, 3), (0, 1), (2, 3)]);
        let b = drive(&[(0, 3), (0, 1), (2, 3)]);
        assert_eq!(render_histogram(&a), render_histogram(&b));

        // Different order, same final multiset {4, 3, 3, 2}.
        let c = drive(&[(2, 3), (0, 1), (0, 3)]);
        assert_eq!(render_histogram(&a), render_histogram(&c));

        // And the pairs really are ascending in load.
        let loads: Vec<u64> = a.histogram().map(|(l, _)| l).collect();
        let mut sorted = loads.clone();
        sorted.sort_unstable();
        assert_eq!(loads, sorted);
    }

    #[test]
    fn histogram_table_grows_and_shrinks_over_an_rls_run_to_balance() {
        // All 4096 balls start in one of 64 bins; the paper's RLS rule
        // spreads them through dozens of distinct loads before every bin
        // settles at 64.  A `BTreeMap` kept beside the tracker is the
        // reference histogram at every step.
        let mut cfg = Config::all_in_one_bin(64, 4096).unwrap();
        let mut t = LoadTracker::new(&cfg);
        let mut reference: std::collections::BTreeMap<u64, usize> = [(0, 63), (4096, 1)].into();
        let shift = |reference: &mut std::collections::BTreeMap<u64, usize>, old: u64, new: u64| {
            let c = reference.get_mut(&old).unwrap();
            *c -= 1;
            if *c == 0 {
                reference.remove(&old);
            }
            *reference.entry(new).or_insert(0) += 1;
        };
        let rule = RlsRule::paper();
        let mut state = 0x0BA1_A4CEu64;
        let mut widest = 0;
        while !t.is_perfectly_balanced() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            // A uniform ball: the bin of rank `r` in the bin-by-bin layout.
            let mut r = (state >> 20) % cfg.m();
            let from = cfg
                .loads()
                .iter()
                .position(|&l| {
                    r < l || {
                        r -= l;
                        false
                    }
                })
                .unwrap();
            let to = (state >> 8) as usize % cfg.n();
            if from == to || !rule.permits(&cfg, Move::new(from, to)) {
                continue;
            }
            let (lf, lt) = (cfg.load(from), cfg.load(to));
            cfg.apply(Move::new(from, to)).unwrap();
            t.record_move(lf, lt);
            shift(&mut reference, lf, lf - 1);
            shift(&mut reference, lt, lt + 1);
            assert!(t.histogram().eq(reference.iter().map(|(&l, &c)| (l, c))));
            assert!(t.matches(&cfg));
            widest = widest.max(t.counts.slots.len());
        }
        assert!(
            widest >= 4 * MIN_SLOTS,
            "the table must double at least twice"
        );
        assert_eq!(t.histogram().collect::<Vec<_>>(), vec![(64, 64)]);
        assert_eq!(t.counts.slots.len(), MIN_SLOTS, "the table shrinks back");
    }
}
