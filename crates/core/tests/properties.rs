//! Property-based tests for the core model: the invariants Section 3 of the
//! paper lists as "desirable properties" of RLS, plus structural invariants
//! of the bookkeeping types.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rls_core::{Config, LoadIndex, LoadTracker, Move, Phase2Snapshot, RlsRule, RlsVariant};

/// Strategy: a small random configuration (1..=12 bins, loads 0..=20).
fn config_strategy() -> impl Strategy<Value = Config> {
    prop::collection::vec(0u64..=20, 1..=12).prop_map(|loads| Config::from_loads(loads).unwrap())
}

/// Strategy: a configuration plus a random (source, destination) pair.
fn config_and_move() -> impl Strategy<Value = (Config, usize, usize)> {
    config_strategy().prop_flat_map(|cfg| {
        let n = cfg.n();
        (Just(cfg), 0..n, 0..n)
    })
}

proptest! {
    /// Total number of balls is conserved by any applied move.
    #[test]
    fn balls_are_conserved((cfg, from, to) in config_and_move()) {
        let mut cfg2 = cfg.clone();
        let m_before = cfg2.m();
        let _ = cfg2.apply(Move::new(from, to));
        prop_assert_eq!(cfg2.m(), m_before);
        prop_assert_eq!(cfg2.loads().iter().sum::<u64>(), m_before);
    }

    /// Under RLS moves the discrepancy never increases, the maximum load
    /// never increases and the minimum load never decreases (Section 3).
    #[test]
    fn rls_moves_never_hurt((cfg, from, to) in config_and_move()) {
        let rule = RlsRule::new(RlsVariant::Geq);
        let mut next = cfg.clone();
        let moved = rule.step(&mut next, from, to);
        if moved {
            prop_assert!(next.discrepancy() <= cfg.discrepancy() + 1e-9);
            prop_assert!(next.max_load() <= cfg.max_load());
            prop_assert!(next.min_load() >= cfg.min_load());
        } else {
            prop_assert_eq!(next, cfg);
        }
    }

    /// The strict variant only ever performs moves the `≥` variant would
    /// also perform.
    #[test]
    fn strict_moves_are_a_subset((cfg, from, to) in config_and_move()) {
        let mv = Move::new(from, to);
        let geq = RlsRule::new(RlsVariant::Geq);
        let strict = RlsRule::new(RlsVariant::Strict);
        if strict.permits(&cfg, mv) {
            prop_assert!(geq.permits(&cfg, mv));
        }
    }

    /// A move and its reverse: exactly one of them is permitted by RLS
    /// unless the move is neutral or a self-loop (then the forward move is
    /// permitted and so is the reverse after it is taken).
    #[test]
    fn move_or_reverse_is_destructive((cfg, from, to) in config_and_move()) {
        prop_assume!(from != to);
        let mv = Move::new(from, to);
        let class = cfg.classify(mv).unwrap();
        let rev_class = cfg.classify(mv.reversed()).unwrap();
        // At least one direction is destructive (they cannot both be
        // strictly improving).
        prop_assert!(class.is_destructive() || rev_class.is_destructive());
    }

    /// The incremental tracker stays consistent with the configuration over
    /// arbitrary sequences of (legal or destructive) moves.
    #[test]
    fn tracker_matches_after_random_walk(
        cfg in config_strategy(),
        steps in prop::collection::vec((0usize..12, 0usize..12), 0..60),
    ) {
        let mut cfg = cfg;
        let mut tracker = LoadTracker::new(&cfg);
        for (from, to) in steps {
            let from = from % cfg.n();
            let to = to % cfg.n();
            if from == to || cfg.load(from) == 0 {
                continue;
            }
            let (lf, lt) = (cfg.load(from), cfg.load(to));
            cfg.apply(Move::new(from, to)).unwrap();
            tracker.record_move(lf, lt);
            prop_assert!(tracker.matches(&cfg));
            prop_assert!((tracker.discrepancy() - cfg.discrepancy()).abs() < 1e-9);
            prop_assert_eq!(tracker.is_perfectly_balanced(), cfg.is_perfectly_balanced());
        }
    }

    /// The average-relative aggregates (discrepancy, overloaded balls,
    /// holes, bin counts) stay pinned to a freshly rebuilt tracker under
    /// *arbitrary interleavings* of moves, arrivals and departures.  The
    /// tracker rebuilds only when a population change moves `⌊m/n⌋` or
    /// `⌈m/n⌉`, so this exercises the incremental paths between rebuilds
    /// as well as the rebuild path itself.
    #[test]
    fn tracker_aggregates_match_rebuild_under_mixed_churn(
        cfg in config_strategy(),
        ops in prop::collection::vec((0u8..3, 0usize..12, 0usize..12), 0..80),
    ) {
        let mut cfg = cfg;
        let mut tracker = LoadTracker::new(&cfg);
        for (kind, a, b) in ops {
            let a = a % cfg.n();
            let b = b % cfg.n();
            match kind {
                0 => {
                    // Arrival into bin `a`.
                    let old = cfg.load(a);
                    if cfg.add_ball(a).is_err() {
                        continue;
                    }
                    tracker.record_insert(old);
                }
                1 => {
                    // Departure from bin `a` (skipped when empty).
                    if cfg.load(a) == 0 {
                        continue;
                    }
                    let old = cfg.load(a);
                    cfg.remove_ball(a).unwrap();
                    tracker.record_remove(old);
                }
                _ => {
                    // Move a → b (legal or destructive; skipped when
                    // impossible).
                    if a == b || cfg.load(a) == 0 {
                        continue;
                    }
                    let (lf, lt) = (cfg.load(a), cfg.load(b));
                    cfg.apply(Move::new(a, b)).unwrap();
                    tracker.record_move(lf, lt);
                }
            }
            let rebuilt = LoadTracker::new(&cfg);
            prop_assert!(tracker.matches(&cfg));
            prop_assert!((tracker.discrepancy() - rebuilt.discrepancy()).abs() < 1e-12);
            prop_assert_eq!(tracker.overloaded_balls(), rebuilt.overloaded_balls());
            prop_assert_eq!(tracker.holes(), rebuilt.holes());
            prop_assert_eq!(tracker.bin_counts(), rebuilt.bin_counts());
            prop_assert_eq!(tracker.min_load(), rebuilt.min_load());
            prop_assert_eq!(tracker.max_load(), rebuilt.max_load());
        }
    }

    /// Arrivals and departures keep the tracker exact whether or not they
    /// move `⌊m/n⌋` or `⌈m/n⌉`: with at most four bins and small loads,
    /// `m` crosses a multiple of `n` every few population steps, so the
    /// incremental path (no crossing) and the rebuild path (a crossing)
    /// alternate throughout, with moves in between.
    #[test]
    fn tracker_stays_exact_as_the_population_crosses_multiples_of_n(
        loads in prop::collection::vec(0u64..=6, 1..=4),
        ops in prop::collection::vec((0u8..3, 0usize..4, 0usize..4), 1..120),
    ) {
        let mut cfg = Config::from_loads(loads).unwrap();
        let mut tracker = LoadTracker::new(&cfg);
        for (kind, a, b) in ops {
            let (a, b) = (a % cfg.n(), b % cfg.n());
            let old = cfg.load(a);
            match kind {
                0 => {
                    cfg.add_ball(a).unwrap();
                    tracker.record_insert(old);
                }
                1 if old > 0 => {
                    cfg.remove_ball(a).unwrap();
                    tracker.record_remove(old);
                }
                2 if a != b && old > 0 => {
                    let to = cfg.load(b);
                    cfg.apply(Move::new(a, b)).unwrap();
                    tracker.record_move(old, to);
                }
                _ => continue,
            }
            prop_assert!(tracker.matches(&cfg), "tracker {:?} vs {:?}", tracker, cfg);
        }
    }

    /// The load index tracks the same interleavings: every rank
    /// maps to the bin a cumulative scan would give, and point updates
    /// agree with the configuration.
    #[test]
    fn load_index_matches_config_under_mixed_churn(
        cfg in config_strategy(),
        ops in prop::collection::vec((0u8..3, 0usize..12, 0usize..12), 0..60),
    ) {
        let mut cfg = cfg;
        let mut index = LoadIndex::new(cfg.clone());
        for (kind, a, b) in ops {
            let a = a % cfg.n();
            let b = b % cfg.n();
            match kind {
                0 => {
                    if cfg.add_ball(a).is_err() {
                        continue;
                    }
                    index.increment(a);
                }
                1 => {
                    if cfg.load(a) == 0 {
                        continue;
                    }
                    cfg.remove_ball(a).unwrap();
                    index.decrement(a);
                }
                _ => {
                    if a == b || cfg.load(a) == 0 {
                        continue;
                    }
                    cfg.apply(Move::new(a, b)).unwrap();
                    index.record_move(a, b);
                }
            }
            prop_assert!(index.matches(&cfg));
        }
        // Rank queries agree with the linear scan on the final state.
        let mut acc = 0u64;
        let mut expect = Vec::new();
        for (i, &l) in cfg.loads().iter().enumerate() {
            for _ in 0..l {
                expect.push(i);
            }
            acc += l;
        }
        prop_assert_eq!(index.total(), acc);
        for (rank, &bin) in expect.iter().enumerate() {
            prop_assert_eq!(index.bin_at(rank as u64), bin);
        }
    }

    /// Overloaded balls equal holes whenever n divides m, and both are zero
    /// exactly on perfectly balanced configurations.
    #[test]
    fn overloaded_balls_equal_holes_when_divisible(cfg in config_strategy()) {
        if cfg.divides_evenly() {
            prop_assert_eq!(cfg.overloaded_balls(), cfg.holes());
        }
        prop_assert_eq!(
            cfg.is_perfectly_balanced(),
            cfg.overloaded_balls() == 0 && cfg.holes() == 0
        );
    }

    /// The Phase-2 potential is non-negative and zero only at small
    /// discrepancy (≤ 1) when the average is an integer.
    #[test]
    fn phase2_potential_nonnegative(cfg in config_strategy()) {
        prop_assume!(cfg.divides_evenly());
        let snap = Phase2Snapshot::capture(&cfg);
        prop_assert!(snap.potential >= 0);
        if snap.potential == 0 {
            prop_assert!(cfg.discrepancy() <= 1.0);
        }
    }

    /// The 8-ary counted tree agrees with a reference cumulative scan on
    /// arbitrary load vectors — sizes on both sides of every level
    /// boundary, zero bins, weighted/rate-mass deltas up to 2⁴⁰ — across
    /// interleaved `add`/`sub`/`add_bin`/`retire_bin`: `bin_at` at both
    /// ends of every bin's rank range, `load` at every bin, a consistent
    /// tree (`matches`) and a descent depth of exactly
    /// `max(1, ⌈log₈ capacity⌉)` levels.
    #[test]
    fn counted_tree_descent_matches_reference_scan(
        loads in (0usize..18, 1usize..=40).prop_flat_map(|(pick, random)| {
            let n = [1usize, 7, 8, 9, 63, 64, 65, 512, 513].get(pick).copied().unwrap_or(random);
            prop::collection::vec(0u64..=12, n)
        }),
        ops in prop::collection::vec((0u8..4, 0u64..=1 << 40, 0usize..1 << 20), 0..24),
    ) {
        let mut loads = loads;
        let mut index = LoadIndex::from_loads(&loads);
        for (kind, mass, pick) in ops {
            let bin = pick % loads.len();
            match kind {
                0 => {
                    index.add(bin, mass);
                    loads[bin] += mass;
                }
                1 => {
                    let delta = mass.min(loads[bin]);
                    index.sub(bin, delta);
                    loads[bin] -= delta;
                }
                2 => {
                    prop_assert_eq!(index.add_bin(mass), loads.len());
                    loads.push(mass);
                }
                _ => {
                    prop_assert_eq!(index.retire_bin(bin), loads[bin]);
                    loads[bin] = 0;
                }
            }
            prop_assert!(index.capacity().is_power_of_two());
            prop_assert!(index.capacity() >= loads.len());
        }

        let levels = index.capacity().trailing_zeros().div_ceil(3).max(1);
        let mut cumulative = 0u64;
        for (bin, &load) in loads.iter().enumerate() {
            prop_assert_eq!(index.load(bin), load);
            if load > 0 {
                for rank in [cumulative, cumulative + load / 2, cumulative + load - 1] {
                    prop_assert_eq!(index.bin_at_depth(rank), (bin, levels));
                }
            }
            cumulative += load;
        }
        prop_assert_eq!(index.total(), cumulative);
        prop_assert!(index.matches(&Config::from_loads(loads).unwrap()));
    }

    /// The tracker's flat histogram agrees with a `BTreeMap` reference
    /// under random ±1 moves, arrivals, departures, joins and retirements:
    /// equal ascending `histogram()`, the reference's extremes as min and
    /// max, and `matches()` against the rebuilt live configuration.
    #[test]
    fn tracker_histogram_matches_btreemap_reference(
        cfg in config_strategy(),
        ops in prop::collection::vec((0u8..5, 0usize..64, 0u64..=40), 0..120),
    ) {
        let mut loads = cfg.loads().to_vec();
        let mut tracker = LoadTracker::new(&cfg);
        let mut reference: BTreeMap<u64, usize> = BTreeMap::new();
        for &l in &loads {
            *reference.entry(l).or_insert(0) += 1;
        }
        let shift = |reference: &mut BTreeMap<u64, usize>, old: u64, new: u64| {
            let c = reference.get_mut(&old).expect("reference holds the old load");
            *c -= 1;
            if *c == 0 {
                reference.remove(&old);
            }
            *reference.entry(new).or_insert(0) += 1;
        };
        for (kind, pick, load) in ops {
            let a = pick % loads.len();
            let b = (pick / 7) % loads.len();
            match kind {
                0 if a != b && loads[a] > 0 => {
                    tracker.record_move(loads[a], loads[b]);
                    shift(&mut reference, loads[a], loads[a] - 1);
                    shift(&mut reference, loads[b], loads[b] + 1);
                    loads[a] -= 1;
                    loads[b] += 1;
                }
                1 => {
                    tracker.record_insert(loads[a]);
                    shift(&mut reference, loads[a], loads[a] + 1);
                    loads[a] += 1;
                }
                2 if loads[a] > 0 => {
                    tracker.record_remove(loads[a]);
                    shift(&mut reference, loads[a], loads[a] - 1);
                    loads[a] -= 1;
                }
                3 => {
                    tracker.bin_joined(load);
                    *reference.entry(load).or_insert(0) += 1;
                    loads.push(load);
                }
                4 if loads.len() > 1 && loads.contains(&0) => {
                    tracker.bin_retired();
                    let c = reference.get_mut(&0).expect("a zero-load bin is tracked");
                    *c -= 1;
                    if *c == 0 {
                        reference.remove(&0);
                    }
                    let zero = loads.iter().position(|&l| l == 0).expect("checked above");
                    loads.swap_remove(zero);
                }
                _ => continue,
            }
            let histogram: Vec<(u64, usize)> = tracker.histogram().collect();
            let expected: Vec<(u64, usize)> = reference.iter().map(|(&l, &c)| (l, c)).collect();
            prop_assert_eq!(&histogram, &expected);
            prop_assert!(histogram.windows(2).all(|w| w[0].0 < w[1].0));
            prop_assert_eq!(tracker.min_load(), *reference.keys().next().unwrap());
            prop_assert_eq!(tracker.max_load(), *reference.keys().next_back().unwrap());
            prop_assert!(tracker.matches(&Config::from_loads(loads.clone()).unwrap()));
        }
    }

    /// The histogram counts every bin exactly once.
    #[test]
    fn histogram_counts_all_bins(cfg in config_strategy()) {
        let total: usize = cfg.histogram().values().sum();
        prop_assert_eq!(total, cfg.n());
    }

    /// Discrepancy is zero iff all loads are equal, and `is_x_balanced` is
    /// monotone in `x`.
    #[test]
    fn discrepancy_basics(cfg in config_strategy(), x in 0.0f64..30.0) {
        let all_equal = cfg.loads().windows(2).all(|w| w[0] == w[1]);
        if all_equal {
            prop_assert!(cfg.discrepancy() < 1e-9);
        }
        if cfg.is_x_balanced(x) {
            prop_assert!(cfg.is_x_balanced(x + 1.0));
        }
    }
}

/// Start configurations the one-pass tracker build must get right: one
/// bin, all loads equal, all balls in one bin, alternating runs, all
/// loads distinct, a load span wider than `n`, and loads near
/// `u64::MAX / n`.
fn shaped_config() -> impl Strategy<Value = Config> {
    (0usize..7, 1usize..=48, 0u64..=40, 0usize..1000).prop_map(|(shape, n, base, salt)| {
        let step = base + 1;
        let loads: Vec<u64> = match shape {
            0 => vec![base],
            1 => vec![base; n],
            2 => (0..n)
                .map(|i| if i == salt % n { base * n as u64 } else { 0 })
                .collect(),
            3 => {
                let run = 1 + salt % 4;
                (0..n)
                    .map(|i| {
                        if (i / run) % 2 == 0 {
                            base
                        } else {
                            base + step
                        }
                    })
                    .collect()
            }
            4 => (0..n).map(|i| base + 3 * ((i + salt) % n) as u64).collect(),
            5 => (0..n)
                .map(|i| {
                    if i % 2 == 0 {
                        base
                    } else {
                        base + 2 * n as u64 + i as u64
                    }
                })
                .collect(),
            _ => {
                let cap = u64::MAX / n as u64;
                (0..n).map(|i| cap - ((i + salt) % 3) as u64).collect()
            }
        };
        Config::from_loads(loads).unwrap()
    })
}

/// `cfg` with each load moved by its delta (clamped at zero); the deltas
/// only lower loads when raising them could overflow the total.
fn perturbed(cfg: &Config, deltas: &[i64]) -> Config {
    let moved = |lower_only: bool| -> Vec<u64> {
        cfg.loads()
            .iter()
            .zip(deltas.iter().cycle())
            .map(|(&l, &d)| {
                let d = if lower_only { d.min(0) } else { d };
                l.saturating_add_signed(d)
            })
            .collect()
    };
    Config::from_loads(moved(false))
        .or_else(|_| Config::from_loads(moved(true)))
        .unwrap()
}

/// A tracker built on `from` and brought to `to` (same `n`) one ball at a
/// time: moves from surplus to deficit bins while both exist, then
/// departures and arrivals for the rest.
fn walked(from: &Config, to: &Config) -> LoadTracker {
    let mut tracker = LoadTracker::new(from);
    let mut loads = from.loads().to_vec();
    let target = to.loads();
    let n = loads.len();
    let (mut surplus, mut deficit) = (0, 0);
    loop {
        while surplus < n && loads[surplus] <= target[surplus] {
            surplus += 1;
        }
        while deficit < n && loads[deficit] >= target[deficit] {
            deficit += 1;
        }
        if surplus == n || deficit == n {
            break;
        }
        tracker.record_move(loads[surplus], loads[deficit]);
        loads[surplus] -= 1;
        loads[deficit] += 1;
    }
    for (load, &want) in loads.iter_mut().zip(target) {
        while *load > want {
            tracker.record_remove(*load);
            *load -= 1;
        }
        while *load < want {
            tracker.record_insert(*load);
            *load += 1;
        }
    }
    tracker
}

/// Everything a tracker reports, for comparing two trackers.
#[allow(clippy::type_complexity)]
fn summary(
    t: &LoadTracker,
) -> (
    usize,
    u64,
    u64,
    u64,
    u64,
    u64,
    (usize, usize, usize),
    Vec<(u64, usize)>,
) {
    let bc = t.bin_counts();
    (
        t.n(),
        t.m(),
        t.min_load(),
        t.max_load(),
        t.overloaded_balls(),
        t.holes(),
        (bc.above, bc.at, bc.below),
        t.histogram().collect(),
    )
}

proptest! {
    /// `LoadTracker::new` builds its aggregates from the histogram in one
    /// pass over the loads; they must equal the `Config`-derived oracle
    /// and a tracker that reached the same loads by moves, arrivals and
    /// departures from another configuration.
    #[test]
    fn one_pass_tracker_equals_the_oracle_and_a_walked_tracker(
        (pick, random, shaped) in (0u8..2, config_strategy(), shaped_config()),
        deltas in prop::collection::vec(-3i64..=3, 1..=16),
    ) {
        let cfg = if pick == 0 { random } else { shaped };
        let built = LoadTracker::new(&cfg);
        prop_assert!(built.matches(&cfg));
        prop_assert_eq!(built.histogram().map(|(_, bins)| bins).sum::<usize>(), cfg.n());
        let start = perturbed(&cfg, &deltas);
        prop_assert_eq!(summary(&built), summary(&walked(&start, &cfg)));
    }
}
