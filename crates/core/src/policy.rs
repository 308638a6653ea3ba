//! Pluggable rebalance policies: what happens when a ball's clock rings.
//!
//! The paper's process is one member of a family (Section 2): a ringing
//! ball samples one or more candidate destinations and a *decision rule*
//! says whether it migrates.  [`RebalancePolicy`] captures that family as
//! a plain enum — RLS in both comparison variants, Mitzenmacher's greedy
//! `d`-choices applied per ring, threshold balancing (fixed and average
//! threshold, Ackermann et al.) and the CRS pair-sampling rule — so the
//! online engines (`rls-live`, `rls-serve`, campaign `dynamic` cells) can
//! run every protocol the offline comparisons already cover.
//!
//! ## Why an enum, not a trait object
//!
//! Policies are part of engine *identity*: they are serialized into live
//! snapshots (format v3) and campaign cell specs, hashed into cache keys,
//! and compared across servers.  An enum gives structural equality,
//! exhaustive serde round-trips and static dispatch on the ring hot path
//! (a match, not a vtable call); a `dyn` policy would give none of those.
//!
//! ## Decision model
//!
//! A ring activates a ball in a *source* bin.  The policy then:
//!
//! 1. draws its candidate destinations through a caller-supplied sampler
//!    (the topology layer: uniform over all bins on the complete graph,
//!    uniform over the source's neighbours otherwise) — greedy-`d` draws
//!    `d`, every other policy draws one;
//! 2. keeps the least-loaded candidate (first draw wins ties, keeping the
//!    decision a pure function of the random stream);
//! 3. applies its pair rule ([`permits_loads`](RebalancePolicy::permits_loads))
//!    to decide whether the ball moves there.
//!
//! Every step is `O(d · cost(sample) + d · cost(load))`, i.e. `O(log n)`
//! for the engines (both the [`LoadIndex`](crate::LoadIndex) and a
//! raw load vector answer a load query in `O(1)`).

use serde::{Deserialize, Serialize};

use crate::{RlsRule, RlsVariant};

/// The global quantities a ring decision may consult (`O(1)` to produce
/// from either a [`Config`](crate::Config) or a
/// [`LoadIndex`](crate::LoadIndex)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingContext {
    /// Number of bins.
    pub n: usize,
    /// Current total ball count (the average-threshold policy compares
    /// against `⌈m/n⌉`).
    pub m: u64,
}

/// Outcome of one ring decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingDecision {
    /// The chosen destination (`None` when the sampler produced no
    /// candidate at all — an isolated vertex in a sparse topology).
    pub dest: Option<usize>,
    /// Whether the ball migrates there.
    pub moved: bool,
}

/// A bin's heterogeneous state: its total ball weight and its speed.
///
/// Unit instances are the special case `weight = load, speed = 1`; the
/// weighted pair rules below reduce *exactly* to the unit rules there, so
/// the heterogeneous decision path is a strict generalization of
/// [`RebalancePolicy::permits_loads`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinState {
    /// Total weight of the balls in the bin.
    pub weight: u64,
    /// Processing speed of the bin (`≥ 1`; unit instances use `1`).
    pub speed: u64,
}

impl BinState {
    /// The unit-instance state of a bin holding `load` balls.
    #[inline]
    pub fn unit(load: u64) -> Self {
        Self {
            weight: load,
            speed: 1,
        }
    }

    /// Exact comparison of normalized loads: is `self.weight / self.speed`
    /// strictly below `other.weight / other.speed`?  Evaluated by `u128`
    /// cross-multiplication, so no rounding can reorder two bins.
    #[inline]
    pub fn normalized_lt(&self, other: &BinState) -> bool {
        (self.weight as u128) * (other.speed as u128)
            < (other.weight as u128) * (self.speed as u128)
    }
}

/// The global quantities a *weighted* ring decision may consult — the
/// heterogeneous counterpart of [`RingContext`] (the average-threshold
/// policy compares normalized load against `⌈W · s_i / S⌉`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeteroRingContext {
    /// Number of bins.
    pub n: usize,
    /// Total ball weight `W = Σ W_i`.
    pub total_weight: u64,
    /// Total bin speed `S = Σ s_i` (`≥ n` since every speed is `≥ 1`).
    pub total_speed: u64,
}

/// A rebalance decision rule, applied once per ring.
///
/// ```
/// use rls_core::{RebalancePolicy, RingContext};
///
/// let ctx = RingContext { n: 4, m: 12 };
/// // RLS (this paper): move iff the source is strictly fuller.
/// assert!(RebalancePolicy::rls().permits_loads(ctx, 5, 4));
/// assert!(!RebalancePolicy::rls().permits_loads(ctx, 4, 4));
/// // Average threshold: move blindly iff the source exceeds ⌈m/n⌉ = 3.
/// assert!(RebalancePolicy::ThresholdAvg.permits_loads(ctx, 4, 9));
/// // Round-trips through its spec string.
/// let p: RebalancePolicy = "greedy-2".parse().unwrap();
/// assert_eq!(p.to_string(), "greedy-2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RebalancePolicy {
    /// Randomized Local Search: one candidate, move iff the RLS rule
    /// permits (`≥` for [`RlsVariant::Geq`], strict `>` for
    /// [`RlsVariant::Strict`]).
    Rls {
        /// Which comparison variant decides.
        variant: RlsVariant,
    },
    /// Greedy `d`-choices per ring (Mitzenmacher): sample `d` candidates
    /// with replacement, move to the least loaded of them iff that is an
    /// RLS-legal move (`d = 1` is exactly RLS `≥`).
    GreedyD {
        /// Candidates sampled per ring (`d ≥ 1`).
        d: u32,
    },
    /// Fixed-threshold balancing (Ackermann et al.): move *blindly* to the
    /// sampled candidate iff the source load exceeds `threshold` — the
    /// destination's load is never inspected.
    ThresholdFixed {
        /// The absolute load threshold `T`.
        threshold: u64,
    },
    /// Average-threshold balancing: move blindly iff the source load
    /// exceeds `⌈m/n⌉` (requires global knowledge of the average).
    ThresholdAvg,
    /// CRS pair-sampling applied in ring orientation (Czumaj, Riley,
    /// Scheideler): the ringing bin and the sampled candidate form the
    /// pair, and the ball moves iff that is strictly improving
    /// (`ℓ_src ≥ ℓ_dst + 2`).
    CrsPair,
}

impl RebalancePolicy {
    /// The paper's default: RLS with the `≥` rule.
    pub fn rls() -> Self {
        RebalancePolicy::Rls {
            variant: RlsVariant::Geq,
        }
    }

    /// Check the parameterization (greedy-`d` needs at least one choice).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            RebalancePolicy::GreedyD { d: 0 } => {
                Err("greedy-d needs at least one choice (d ≥ 1)".to_string())
            }
            _ => Ok(()),
        }
    }

    /// How many candidate destinations one ring samples.
    #[inline]
    pub fn choices(&self) -> usize {
        match self {
            RebalancePolicy::GreedyD { d } => *d as usize,
            _ => 1,
        }
    }

    /// The pair rule: would this policy move a ball from a source with
    /// load `source_load` to a destination with load `dest_load`?
    ///
    /// This is also the decision applied when an external caller (the
    /// serving layer, trace replay) pins the destination explicitly — for
    /// greedy-`d` the pinned destination plays the role of the chosen best
    /// candidate, so replaying a recorded `(source, dest, moved)` ring
    /// reproduces the original decision for every policy.
    #[inline]
    pub fn permits_loads(&self, ctx: RingContext, source_load: u64, dest_load: u64) -> bool {
        match self {
            RebalancePolicy::Rls { variant } => {
                RlsRule::new(*variant).permits_loads(source_load, dest_load)
            }
            RebalancePolicy::GreedyD { .. } => source_load > dest_load,
            RebalancePolicy::ThresholdFixed { threshold } => source_load > *threshold,
            RebalancePolicy::ThresholdAvg => source_load > ctx.m.div_ceil(ctx.n as u64),
            RebalancePolicy::CrsPair => source_load > dest_load + 1,
        }
    }

    /// The weighted pair rule: would this policy move a ball of weight
    /// `ball` from a source in state `source` to a destination in state
    /// `dest`?
    ///
    /// Every rule compares *normalized* loads (`weight / speed`) exactly,
    /// via `u128` cross-multiplication:
    ///
    /// * RLS `≥` and greedy-`d` move iff the destination would not end up
    ///   strictly above the source: `(W_dst + w)·s_src ≤ W_src·s_dst`;
    /// * RLS strict and CRS pair move iff the destination stays strictly
    ///   below even after receiving the ball;
    /// * fixed threshold moves iff the source's normalized load exceeds
    ///   `T`: `W_src > T·s_src`;
    /// * average threshold moves iff `W_src > ⌈W·s_src / S⌉` — the
    ///   speed-scaled share of the total weight.
    ///
    /// On unit instances (`weight = load`, `speed = 1`, `ball = 1`) each
    /// rule is *identical* to [`permits_loads`](Self::permits_loads), which
    /// the cross-validation suite in `rls-live` pins bit-for-bit.
    #[inline]
    pub fn permits_weighted(
        &self,
        ctx: HeteroRingContext,
        source: BinState,
        dest: BinState,
        ball: u64,
    ) -> bool {
        let landed = (dest.weight as u128 + ball as u128) * source.speed as u128;
        let src = (source.weight as u128) * (dest.speed as u128);
        match self {
            RebalancePolicy::Rls {
                variant: RlsVariant::Geq,
            }
            | RebalancePolicy::GreedyD { .. } => landed <= src,
            RebalancePolicy::Rls {
                variant: RlsVariant::Strict,
            }
            | RebalancePolicy::CrsPair => landed < src,
            RebalancePolicy::ThresholdFixed { threshold } => {
                source.weight as u128 > (*threshold as u128) * (source.speed as u128)
            }
            RebalancePolicy::ThresholdAvg => {
                let share = ((ctx.total_weight as u128) * (source.speed as u128))
                    .div_ceil(ctx.total_speed.max(1) as u128);
                source.weight as u128 > share
            }
        }
    }

    /// Execute one *weighted* ring decision — the heterogeneous
    /// counterpart of [`decide`](Self::decide).  The candidate set is
    /// drawn through `sample_dest` exactly as in the unit path (same
    /// number of draws, so the random stream stays aligned), the
    /// least-*normalized* candidate wins (first draw wins exact ties,
    /// compared by `u128` cross-multiplication), and the weighted pair
    /// rule decides the migration of a ball of weight `ball`.
    ///
    /// `state_of` answers the [`BinState`] of a candidate bin (candidates
    /// equal to `source` are priced at `source_state` without a lookup —
    /// and never move, exactly like the unit path's self-loop rings).
    pub fn decide_weighted<S, F>(
        &self,
        ctx: HeteroRingContext,
        source: usize,
        source_state: BinState,
        ball: u64,
        mut sample_dest: S,
        state_of: F,
    ) -> RingDecision
    where
        S: FnMut() -> Option<usize>,
        F: Fn(usize) -> BinState,
    {
        let mut best: Option<(usize, BinState)> = None;
        for _ in 0..self.choices() {
            let Some(cand) = sample_dest() else {
                continue;
            };
            let state = if cand == source {
                source_state
            } else {
                state_of(cand)
            };
            if best.is_none_or(|(_, b)| state.normalized_lt(&b)) {
                best = Some((cand, state));
            }
        }
        let Some((dest, dest_state)) = best else {
            return RingDecision {
                dest: None,
                moved: false,
            };
        };
        RingDecision {
            dest: Some(dest),
            moved: dest != source && self.permits_weighted(ctx, source_state, dest_state, ball),
        }
    }

    /// Execute one ring decision: draw the candidate set through
    /// `sample_dest`, keep the least-loaded candidate and apply the pair
    /// rule.  `load_of` answers the load of a candidate bin (candidates
    /// equal to `source` are priced at `source_load` without a lookup —
    /// and never move, exactly like today's self-loop rings).
    ///
    /// `sample_dest` closes over the caller's RNG (this crate stays
    /// RNG-free, like [`LoadIndex`](crate::LoadIndex)) and may return
    /// `None` (isolated vertex); a ring with no candidate at all decides
    /// `dest: None, moved: false`.
    pub fn decide<S, L>(
        &self,
        ctx: RingContext,
        source: usize,
        source_load: u64,
        mut sample_dest: S,
        load_of: L,
    ) -> RingDecision
    where
        S: FnMut() -> Option<usize>,
        L: Fn(usize) -> u64,
    {
        let mut best: Option<(usize, u64)> = None;
        for _ in 0..self.choices() {
            let Some(cand) = sample_dest() else {
                continue;
            };
            let load = if cand == source {
                source_load
            } else {
                load_of(cand)
            };
            if best.is_none_or(|(_, b)| load < b) {
                best = Some((cand, load));
            }
        }
        let Some((dest, dest_load)) = best else {
            return RingDecision {
                dest: None,
                moved: false,
            };
        };
        RingDecision {
            dest: Some(dest),
            moved: dest != source && self.permits_loads(ctx, source_load, dest_load),
        }
    }
}

impl core::fmt::Display for RebalancePolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RebalancePolicy::Rls {
                variant: RlsVariant::Geq,
            } => write!(f, "rls"),
            RebalancePolicy::Rls {
                variant: RlsVariant::Strict,
            } => write!(f, "rls-strict"),
            RebalancePolicy::GreedyD { d } => write!(f, "greedy-{d}"),
            RebalancePolicy::ThresholdFixed { threshold } => write!(f, "threshold-{threshold}"),
            RebalancePolicy::ThresholdAvg => write!(f, "threshold-avg"),
            RebalancePolicy::CrsPair => write!(f, "crs-pair"),
        }
    }
}

impl core::str::FromStr for RebalancePolicy {
    type Err = String;

    /// Parse the spec-string forms used by the CLI and campaign grids:
    /// `rls` / `rls-geq`, `rls-strict`, `greedy-<d>`, `threshold-avg`,
    /// `threshold-<T>`, `crs` / `crs-pair`.
    fn from_str(s: &str) -> Result<Self, String> {
        let s = s.trim();
        let policy = match s {
            "rls" | "rls-geq" => RebalancePolicy::rls(),
            "rls-strict" => RebalancePolicy::Rls {
                variant: RlsVariant::Strict,
            },
            "threshold-avg" | "threshold-average" => RebalancePolicy::ThresholdAvg,
            "crs" | "crs-pair" => RebalancePolicy::CrsPair,
            other => {
                if let Some(d) = other.strip_prefix("greedy-") {
                    let d: u32 = d
                        .parse()
                        .map_err(|_| format!("bad choice count in `{other}`"))?;
                    let policy = RebalancePolicy::GreedyD { d };
                    policy.validate()?;
                    policy
                } else if let Some(t) = other.strip_prefix("threshold-") {
                    RebalancePolicy::ThresholdFixed {
                        threshold: t
                            .parse()
                            .map_err(|_| format!("bad threshold in `{other}`"))?,
                    }
                } else {
                    return Err(format!(
                        "unknown policy `{other}` (rls | rls-strict | greedy-<d> | \
                         threshold-avg | threshold-<T> | crs-pair)"
                    ));
                }
            }
        };
        Ok(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(n: usize, m: u64) -> RingContext {
        RingContext { n, m }
    }

    /// A sampler that yields a fixed candidate script.
    fn scripted(candidates: &[usize]) -> impl FnMut() -> Option<usize> + '_ {
        let mut i = 0;
        move || {
            let cand = candidates[i];
            i += 1;
            Some(cand)
        }
    }

    #[test]
    fn spec_strings_round_trip() {
        for s in [
            "rls",
            "rls-strict",
            "greedy-1",
            "greedy-2",
            "greedy-8",
            "threshold-avg",
            "threshold-5",
            "crs-pair",
        ] {
            let p: RebalancePolicy = s.parse().unwrap();
            assert_eq!(p.to_string(), s, "{s}");
            let again: RebalancePolicy = p.to_string().parse().unwrap();
            assert_eq!(again, p);
        }
        assert_eq!(
            "rls-geq".parse::<RebalancePolicy>().unwrap(),
            RebalancePolicy::rls()
        );
        assert_eq!(
            "threshold-average".parse::<RebalancePolicy>().unwrap(),
            RebalancePolicy::ThresholdAvg
        );
        assert_eq!(
            "crs".parse::<RebalancePolicy>().unwrap(),
            RebalancePolicy::CrsPair
        );
        for bad in ["", "greedy-", "greedy-0", "greedy-x", "threshold-", "nope"] {
            assert!(bad.parse::<RebalancePolicy>().is_err(), "{bad}");
        }
    }

    #[test]
    fn validate_rejects_zero_choices() {
        assert!(RebalancePolicy::GreedyD { d: 0 }.validate().is_err());
        assert!(RebalancePolicy::GreedyD { d: 1 }.validate().is_ok());
        assert!(RebalancePolicy::rls().validate().is_ok());
    }

    #[test]
    fn pair_rules_match_their_protocols() {
        let c = ctx(4, 12); // average 3, ⌈m/n⌉ = 3
        let rls = RebalancePolicy::rls();
        assert!(rls.permits_loads(c, 5, 4)); // neutral: Geq takes it
        assert!(!rls.permits_loads(c, 4, 4));
        let strict = RebalancePolicy::Rls {
            variant: RlsVariant::Strict,
        };
        assert!(!strict.permits_loads(c, 5, 4)); // neutral: strict skips
        assert!(strict.permits_loads(c, 6, 4));

        let greedy = RebalancePolicy::GreedyD { d: 2 };
        assert!(greedy.permits_loads(c, 5, 4));
        assert!(!greedy.permits_loads(c, 4, 4));

        // Thresholds never inspect the destination.
        let fixed = RebalancePolicy::ThresholdFixed { threshold: 4 };
        assert!(fixed.permits_loads(c, 5, 100));
        assert!(!fixed.permits_loads(c, 4, 0));
        assert!(RebalancePolicy::ThresholdAvg.permits_loads(c, 4, 100));
        assert!(!RebalancePolicy::ThresholdAvg.permits_loads(c, 3, 0));

        // CRS: strictly improving pairs only.
        assert!(RebalancePolicy::CrsPair.permits_loads(c, 6, 4));
        assert!(!RebalancePolicy::CrsPair.permits_loads(c, 5, 4));
    }

    #[test]
    fn greedy_one_equals_rls_geq() {
        let c = ctx(8, 40);
        for src in 0..12u64 {
            for dst in 0..12u64 {
                assert_eq!(
                    RebalancePolicy::GreedyD { d: 1 }.permits_loads(c, src, dst),
                    RebalancePolicy::rls().permits_loads(c, src, dst),
                    "{src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn decide_picks_the_least_loaded_candidate() {
        let loads = [9u64, 3, 7, 5];
        let c = ctx(4, 24);
        // Candidates scripted as bins 2 then 1 then 3: greedy-3 must pick
        // bin 1 (load 3).
        let decision =
            RebalancePolicy::GreedyD { d: 3 }
                .decide(c, 0, loads[0], scripted(&[2, 1, 3]), |b| loads[b]);
        assert_eq!(decision.dest, Some(1));
        assert!(decision.moved);
    }

    #[test]
    fn decide_handles_self_loops_and_missing_candidates() {
        let loads = [9u64, 3];
        let c = ctx(2, 12);
        // Self-loop candidate: counted, never moves.
        let decision = RebalancePolicy::rls().decide(c, 0, loads[0], || Some(0), |b| loads[b]);
        assert_eq!(decision.dest, Some(0));
        assert!(!decision.moved);
        // No candidate at all (isolated vertex).
        let decision = RebalancePolicy::rls().decide(c, 0, loads[0], || None, |b| loads[b]);
        assert_eq!(decision.dest, None);
        assert!(!decision.moved);
    }

    #[test]
    fn first_draw_wins_ties() {
        let loads = [9u64, 4, 4];
        let c = ctx(3, 17);
        let decision =
            RebalancePolicy::GreedyD { d: 2 }
                .decide(c, 0, loads[0], scripted(&[1, 2]), |b| loads[b]);
        assert_eq!(decision.dest, Some(1), "ties keep the first candidate");
        assert!(decision.moved);
    }

    fn all_policies() -> [RebalancePolicy; 7] {
        [
            RebalancePolicy::rls(),
            RebalancePolicy::Rls {
                variant: RlsVariant::Strict,
            },
            RebalancePolicy::GreedyD { d: 1 },
            RebalancePolicy::GreedyD { d: 3 },
            RebalancePolicy::ThresholdFixed { threshold: 4 },
            RebalancePolicy::ThresholdAvg,
            RebalancePolicy::CrsPair,
        ]
    }

    #[test]
    fn weighted_rules_reduce_to_unit_rules() {
        // On unit instances (weight = load, speed = 1, ball = 1) the
        // weighted pair rule must agree with permits_loads for every
        // policy and every load pair — the invariant the live differential
        // suite pins end to end.
        for policy in all_policies() {
            for n in [2usize, 5] {
                for src in 0..10u64 {
                    for dst in 0..10u64 {
                        let m = src + dst + 6;
                        let unit = policy.permits_loads(ctx(n, m), src, dst);
                        let weighted = policy.permits_weighted(
                            HeteroRingContext {
                                n,
                                total_weight: m,
                                total_speed: n as u64,
                            },
                            BinState::unit(src),
                            BinState::unit(dst),
                            1,
                        );
                        assert_eq!(unit, weighted, "{policy} {src}->{dst} (n={n}, m={m})");
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_rules_compare_normalized_loads() {
        let c = HeteroRingContext {
            n: 2,
            total_weight: 30,
            total_speed: 5,
        };
        let fast = BinState {
            weight: 20,
            speed: 4,
        }; // normalized 5
        let slow = BinState {
            weight: 10,
            speed: 1,
        }; // normalized 10
           // RLS: a weight-4 ball may flow from the slow bin to the fast one
           // ((20+4)·1 ≤ 10·4) but never the other way.
        assert!(RebalancePolicy::rls().permits_weighted(c, slow, fast, 4));
        assert!(!RebalancePolicy::rls().permits_weighted(c, fast, slow, 4));
        // A ball too heavy to keep the destination at or below the source
        // stays put: (20+21)·1 > 10·4.
        assert!(!RebalancePolicy::rls().permits_weighted(c, slow, fast, 21));
        // Fixed threshold is on normalized load: 20/4 = 5 ≤ 6 stays,
        // 10/1 = 10 > 6 moves.
        let t6 = RebalancePolicy::ThresholdFixed { threshold: 6 };
        assert!(!t6.permits_weighted(c, fast, slow, 1));
        assert!(t6.permits_weighted(c, slow, fast, 1));
        // Average threshold: share of bin with speed 1 is ⌈30·1/5⌉ = 6,
        // so the slow bin (weight 10) moves and a weight-6 bin would not.
        assert!(RebalancePolicy::ThresholdAvg.permits_weighted(c, slow, fast, 1));
        assert!(!RebalancePolicy::ThresholdAvg.permits_weighted(
            c,
            BinState {
                weight: 6,
                speed: 1
            },
            fast,
            1
        ));
    }

    #[test]
    fn decide_weighted_matches_decide_on_unit_instances() {
        // Same scripted candidates, same loads: the weighted decision must
        // equal the unit decision, draw for draw.
        let loads = [9u64, 3, 7, 3, 5];
        let m: u64 = loads.iter().sum();
        for policy in all_policies() {
            for script in [[2usize, 1, 3], [1, 4, 2], [0, 0, 0], [4, 3, 3]] {
                let unit = policy.decide(ctx(5, m), 0, loads[0], scripted(&script), |b| loads[b]);
                let weighted = policy.decide_weighted(
                    HeteroRingContext {
                        n: 5,
                        total_weight: m,
                        total_speed: 5,
                    },
                    0,
                    BinState::unit(loads[0]),
                    1,
                    scripted(&script),
                    |b| BinState::unit(loads[b]),
                );
                assert_eq!(unit, weighted, "{policy} {script:?}");
            }
        }
    }

    #[test]
    fn decide_weighted_picks_the_least_normalized_candidate() {
        // Bin 1: 12/4 = 3, bin 2: 4/1 = 4 — the *heavier* bin 1 wins on
        // normalized load, and a weight-2 ball may move there
        // ((12+2)·2 ≤ 30·4).
        let states = [
            BinState {
                weight: 30,
                speed: 2,
            },
            BinState {
                weight: 12,
                speed: 4,
            },
            BinState {
                weight: 4,
                speed: 1,
            },
        ];
        let c = HeteroRingContext {
            n: 3,
            total_weight: 46,
            total_speed: 7,
        };
        let decision = RebalancePolicy::GreedyD { d: 2 }.decide_weighted(
            c,
            0,
            states[0],
            2,
            scripted(&[2, 1]),
            |b| states[b],
        );
        assert_eq!(decision.dest, Some(1));
        assert!(decision.moved);
    }

    #[test]
    fn serde_round_trips_every_variant() {
        for policy in [
            RebalancePolicy::rls(),
            RebalancePolicy::Rls {
                variant: RlsVariant::Strict,
            },
            RebalancePolicy::GreedyD { d: 4 },
            RebalancePolicy::ThresholdFixed { threshold: 7 },
            RebalancePolicy::ThresholdAvg,
            RebalancePolicy::CrsPair,
        ] {
            let json = serde_json::to_string(&policy).unwrap();
            let back: RebalancePolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(back, policy, "{json}");
        }
    }
}
