//! Property tests for the pluggable-policy online engine: under an
//! arbitrary interleaving of arrivals, departures and rings, every
//! `RebalancePolicy` preserves the `LoadIndex` invariants — total mass,
//! per-bin non-negativity (by `u64` construction plus tracker agreement),
//! and rank-descent agreement with an index rebuilt from scratch.

use proptest::prelude::*;
use rls_core::{Config, LoadIndex, RebalancePolicy, RlsVariant};
use rls_graph::Topology;
use rls_live::{LiveCommand, LiveEngine, LiveParams};
use rls_rng::{rng_from_seed, Rng64};
use rls_workloads::{ArrivalProcess, WeightDist};

const POLICIES: &[RebalancePolicy] = &[
    RebalancePolicy::Rls {
        variant: RlsVariant::Geq,
    },
    RebalancePolicy::Rls {
        variant: RlsVariant::Strict,
    },
    RebalancePolicy::GreedyD { d: 1 },
    RebalancePolicy::GreedyD { d: 3 },
    RebalancePolicy::ThresholdFixed { threshold: 6 },
    RebalancePolicy::ThresholdAvg,
    RebalancePolicy::CrsPair,
];

/// Cycle and star work on any `n ≥ 1`; complete is the fast path.
const TOPOLOGIES: &[Topology] = &[Topology::Complete, Topology::Cycle, Topology::Star];

/// One scripted command: kind ∈ {arrive, depart, ring}, with a coordinate
/// that is either pinned (modulo `n`) or left to the engine to sample.
fn command_strategy() -> impl Strategy<Value = (u8, u16, bool)> {
    (0u8..3, 0u16..64, (0u8..2).prop_map(|b| b == 1))
}

type Instance = (Vec<u64>, usize, usize, u64, Vec<(u8, u16, bool)>);

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (
        prop::collection::vec(0u64..=20, 1..=12),
        0..POLICIES.len(),
        0..TOPOLOGIES.len(),
        0u64..1 << 48,
        prop::collection::vec(command_strategy(), 1..=60),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary ring/arrive/depart interleavings keep the engine's
    /// incrementally-maintained `LoadIndex` (and `LoadTracker`) in exact
    /// agreement with the configuration and with an index rebuilt from
    /// scratch, for every policy on every topology shape.
    #[test]
    fn policies_preserve_load_index_invariants(
        (loads, policy_idx, topo_idx, seed, script) in instance_strategy()
    ) {
        let policy = POLICIES[policy_idx];
        let topology = TOPOLOGIES[topo_idx];
        let initial = Config::from_loads(loads).unwrap();
        let n = initial.n();
        let m0 = initial.m();
        let params = LiveParams {
            arrivals: ArrivalProcess::Poisson { rate_per_bin: 1.0 },
            service_rate: 0.5,
        };
        let mut engine =
            LiveEngine::with_policy(initial, params, policy, topology, seed ^ 0x6AF1).unwrap();
        let mut rng = rng_from_seed(seed);

        let mut arrivals = 0u64;
        let mut departures = 0u64;
        for &(kind, coord, pin) in &script {
            let bin = pin.then_some(coord as usize % n);
            let cmd = match kind {
                0 => LiveCommand::Arrive { bin, weight: None },
                1 => LiveCommand::Depart { bin, weight: None },
                // Rings leave both coordinates to the engine: pinned
                // destinations are exercised by the adjacency tests, and
                // sampling keeps the script valid on sparse topologies.
                _ => LiveCommand::Ring { source: None, dest: None },
            };
            // Structurally impossible commands (departure from an empty
            // bin / empty system) are rejected without touching state —
            // which is itself part of the invariant.
            if let Ok(event) = engine.apply(&cmd, &mut rng) {
                arrivals += event.balls_added();
                if matches!(event.kind, rls_live::LiveEventKind::Departure { .. }) {
                    departures += 1;
                }
            }

            // Total mass: every ball is accounted for.
            prop_assert_eq!(engine.config().m(), m0 + arrivals - departures);
            // Incremental bookkeeping agrees with the configuration.
            prop_assert!(engine.tracker().matches(engine.config()));
            prop_assert!(engine.index().matches(engine.config()));
        }

        // Rank-descent agreement with an index rebuilt from the final
        // load vector: the incrementally-maintained counted tree answers
        // every rank query identically.
        let rebuilt = LoadIndex::from_loads(engine.config().loads());
        prop_assert_eq!(engine.index().total(), rebuilt.total());
        let total = rebuilt.total();
        let mut rank = 0u64;
        while rank < total {
            prop_assert_eq!(engine.index().bin_at(rank), rebuilt.bin_at(rank));
            rank += 1 + total / 17;
        }
    }
}

/// Weight laws exercised by the heterogeneous property test: the unit law
/// covers the weights-implicit path (no per-ball vectors), the others the
/// weight-carrying one.
const DISTS: &[WeightDist] = &[
    WeightDist::Unit,
    WeightDist::UniformInt { lo: 1, hi: 8 },
    WeightDist::Pareto {
        alpha: 1.5,
        cap: 32,
    },
];

/// Total weight of `bin` recounted from its stored balls (its load under
/// the unit law) — independent of the weight tree it is checked against.
fn ball_weight_sum(engine: &LiveEngine, bin: usize) -> u64 {
    engine
        .ball_weights(bin)
        .map_or(engine.config().load(bin), |balls| balls.iter().sum())
}

/// `(load, speed)` per bin with a weight-law pick, plus policy/topology
/// picks, a seed and a command script.  (The first two ride in a nested
/// pair: the vendored proptest implements `Strategy` for tuples of at
/// most five elements.)
type HeteroInstance = (
    (Vec<(u64, u64)>, usize),
    usize,
    usize,
    u64,
    Vec<(u8, u16, bool)>,
);

fn hetero_instance_strategy() -> impl Strategy<Value = HeteroInstance> {
    (
        (
            prop::collection::vec((0u64..=12, 1u64..=4), 1..=10),
            0..DISTS.len(),
        ),
        0..POLICIES.len(),
        0..TOPOLOGIES.len(),
        0u64..1 << 48,
        prop::collection::vec(command_strategy(), 1..=60),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary command interleavings on a *heterogeneous* engine keep
    /// the weight-aware books exact: the weight tree, the rate-mass tree
    /// (`s_i·ℓ_i`) and the per-ball vectors all agree with from-scratch
    /// rebuilds after every command, for every policy, topology shape and
    /// weight law.
    #[test]
    fn weighted_engines_preserve_both_counted_tree_invariants(
        ((bins, dist_idx), policy_idx, topo_idx, seed, script) in hetero_instance_strategy()
    ) {
        let policy = POLICIES[policy_idx];
        let topology = TOPOLOGIES[topo_idx];
        let dist = DISTS[dist_idx];
        let loads: Vec<u64> = bins.iter().map(|&(l, _)| l).collect();
        let speeds: Vec<u64> = bins.iter().map(|&(_, s)| s).collect();
        let initial = Config::from_loads(loads).unwrap();
        let n = initial.n();
        let params = LiveParams {
            arrivals: ArrivalProcess::Poisson { rate_per_bin: 1.0 },
            service_rate: 0.5,
        };
        let mut engine = LiveEngine::with_hetero(
            initial,
            params,
            policy,
            topology,
            seed ^ 0x6AF1,
            dist,
            speeds.clone(),
            &mut rng_from_seed(seed ^ 0x11),
        )
        .unwrap();
        let mut rng = rng_from_seed(seed);

        for &(kind, coord, pin) in &script {
            let bin = pin.then_some(coord as usize % n);
            let cmd = match kind {
                0 => LiveCommand::Arrive {
                    bin,
                    // Pinned weights only make sense when the engine
                    // stores per-ball weights; otherwise the law decides.
                    weight: (pin && engine.stores_ball_weights())
                        .then_some(1 + coord as u64 % 8),
                },
                1 => {
                    // When possible, pin the departing weight to one that
                    // actually exists in the pinned bin, exercising the
                    // targeted-removal path.
                    let weight = bin
                        .filter(|_| engine.stores_ball_weights())
                        .and_then(|b| engine.ball_weights(b))
                        .filter(|balls| !balls.is_empty())
                        .map(|balls| balls[coord as usize % balls.len()]);
                    LiveCommand::Depart { bin, weight }
                }
                _ => LiveCommand::Ring { source: None, dest: None },
            };
            let _ = engine.apply(&cmd, &mut rng);

            // Classic invariants still hold on the weighted engine...
            prop_assert!(engine.tracker().matches(engine.config()));
            prop_assert!(engine.index().matches(engine.config()));
            // ...and the heterogeneity books agree with a full rebuild.
            prop_assert!(engine.hetero_matches());
        }

        // Brute-force rebuilds of both auxiliary counted trees from the
        // per-ball weights and the loads: totals and every sampled rank
        // query agree.
        let weights: Vec<u64> = (0..n).map(|b| ball_weight_sum(&engine, b)).collect();
        let rates: Vec<u64> = (0..n)
            .map(|b| engine.config().load(b) * engine.speed(b))
            .collect();
        for (live, rebuilt) in [
            (engine.weight_index().unwrap(), LoadIndex::from_loads(&weights)),
            (engine.rate_index().unwrap(), LoadIndex::from_loads(&rates)),
        ] {
            prop_assert_eq!(live.total(), rebuilt.total());
            let total = rebuilt.total();
            let mut rank = 0u64;
            while rank < total {
                prop_assert_eq!(live.bin_at(rank), rebuilt.bin_at(rank));
                rank += 1 + total / 17;
            }
        }
        // The speed vector is never perturbed by commands.
        prop_assert_eq!(
            (0..n).map(|b| engine.speed(b)).collect::<Vec<_>>(),
            speeds
        );
    }
}

/// One scripted *elastic* command: kind ∈ {arrive, depart, ring, add-bin,
/// drain-bin} with a coordinate and pin/warm flag.
fn elastic_command_strategy() -> impl Strategy<Value = (u8, u16, bool)> {
    (0u8..5, 0u16..64, (0u8..2).prop_map(|b| b == 1))
}

type ElasticInstance = (Vec<u64>, usize, usize, u64, Vec<(u8, u16, bool)>);

fn elastic_instance_strategy() -> impl Strategy<Value = ElasticInstance> {
    (
        prop::collection::vec(0u64..=20, 1..=12),
        0..POLICIES.len(),
        0..TOPOLOGIES.len(),
        0u64..1 << 48,
        prop::collection::vec(elastic_command_strategy(), 1..=60),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary interleavings of arrivals, departures, rings, bin joins
    /// (cold and warm) and bin drains keep every book exact: the
    /// incrementally-maintained `LoadIndex` (with `add_bin`/`retire_bin`
    /// holes), the tracker aggregates, mass conservation (scale events
    /// conserve balls), the retired-slots-stay-empty invariant and the
    /// membership/capacity lockstep — cross-checked against from-scratch
    /// rebuilds after the script, for every policy and topology shape.
    #[test]
    fn elastic_interleavings_preserve_load_index_invariants(
        (loads, policy_idx, topo_idx, seed, script) in elastic_instance_strategy()
    ) {
        let policy = POLICIES[policy_idx];
        let topology = TOPOLOGIES[topo_idx];
        let initial = Config::from_loads(loads).unwrap();
        let m0 = initial.m();
        let params = LiveParams {
            arrivals: ArrivalProcess::Poisson { rate_per_bin: 1.0 },
            service_rate: 0.5,
        };
        let mut engine =
            LiveEngine::with_policy(initial, params, policy, topology, seed ^ 0x6AF1).unwrap();
        let mut rng = rng_from_seed(seed);

        let mut arrivals = 0u64;
        let mut departures = 0u64;
        for &(kind, coord, flag) in &script {
            let n = engine.config().n(); // capacity grows with joins
            let bin = flag.then_some(coord as usize % n);
            let cmd = match kind {
                // Pinned coordinates often land on retired bins — the
                // rejection path (no state touched) is part of the
                // invariant being checked.
                0 => LiveCommand::Arrive { bin, weight: None },
                1 => LiveCommand::Depart { bin, weight: None },
                2 => LiveCommand::Ring { source: None, dest: None },
                3 => LiveCommand::AddBin { warm: flag },
                _ => LiveCommand::DrainBin { bin },
            };
            if let Ok(event) = engine.apply(&cmd, &mut rng) {
                arrivals += event.balls_added();
                if matches!(event.kind, rls_live::LiveEventKind::Departure { .. }) {
                    departures += 1;
                }
            }

            // Scale events conserve balls: only arrivals/departures move m.
            prop_assert_eq!(engine.config().m(), m0 + arrivals - departures);
            let membership = engine.membership();
            // The tracker models the live multiset; the counted tree is
            // capacity-wide with permanent zero-mass holes at retired ids.
            prop_assert!(engine.tracker().matches_live(engine.config(), membership));
            prop_assert!(engine.index().matches(engine.config()));
            // Membership, load vector and counted tree grow in lockstep.
            prop_assert_eq!(membership.capacity(), engine.config().n());
            prop_assert_eq!(membership.capacity(), engine.index().n());
            prop_assert_eq!(membership.live_count(), engine.live_count());
            // Retired slots hold zero mass forever.
            for b in 0..engine.config().n() {
                if !membership.is_live(b) {
                    prop_assert_eq!(engine.config().load(b), 0, "retired bin {} has load", b);
                }
            }
            // The epoch is exactly the membership log length.
            prop_assert_eq!(engine.epoch(), membership.log().len() as u64);
        }

        // Rank-descent agreement with an index rebuilt from the final
        // (hole-carrying) load vector.
        let rebuilt = LoadIndex::from_loads(engine.config().loads());
        prop_assert_eq!(engine.index().total(), rebuilt.total());
        let total = rebuilt.total();
        let mut rank = 0u64;
        while rank < total {
            prop_assert_eq!(engine.index().bin_at(rank), rebuilt.bin_at(rank));
            rank += 1 + total / 17;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same elastic interleavings on a *heterogeneous* engine: joins
    /// push baseline-speed slots onto the weight and rate-mass trees,
    /// drains retire them, and after every command all three trees agree
    /// with brute-force rebuilds from the public accessors.
    #[test]
    fn weighted_elastic_interleavings_preserve_all_counted_tree_invariants(
        ((bins, dist_idx), policy_idx, topo_idx, seed, script) in (
            (
                prop::collection::vec((0u64..=12, 1u64..=4), 1..=10),
                0..DISTS.len(),
            ),
            0..POLICIES.len(),
            0..TOPOLOGIES.len(),
            0u64..1 << 48,
            prop::collection::vec(elastic_command_strategy(), 1..=50),
        )
    ) {
        let policy = POLICIES[policy_idx];
        let topology = TOPOLOGIES[topo_idx];
        let dist = DISTS[dist_idx];
        let loads: Vec<u64> = bins.iter().map(|&(l, _)| l).collect();
        let speeds: Vec<u64> = bins.iter().map(|&(_, s)| s).collect();
        let initial = Config::from_loads(loads).unwrap();
        let params = LiveParams {
            arrivals: ArrivalProcess::Poisson { rate_per_bin: 1.0 },
            service_rate: 0.5,
        };
        let mut engine = LiveEngine::with_hetero(
            initial,
            params,
            policy,
            topology,
            seed ^ 0x6AF1,
            dist,
            speeds,
            &mut rng_from_seed(seed ^ 0x11),
        )
        .unwrap();
        let mut rng = rng_from_seed(seed);

        for &(kind, coord, flag) in &script {
            let n = engine.config().n();
            let bin = flag.then_some(coord as usize % n);
            let cmd = match kind {
                0 => LiveCommand::Arrive { bin: None, weight: None },
                1 => LiveCommand::Depart { bin, weight: None },
                2 => LiveCommand::Ring { source: None, dest: None },
                3 => LiveCommand::AddBin { warm: flag },
                _ => LiveCommand::DrainBin { bin },
            };
            let _ = engine.apply(&cmd, &mut rng);

            let membership = engine.membership();
            prop_assert!(engine.tracker().matches_live(engine.config(), membership));
            prop_assert!(engine.index().matches(engine.config()));
            prop_assert!(engine.hetero_matches());
            for b in 0..engine.config().n() {
                if !membership.is_live(b) {
                    prop_assert_eq!(engine.config().load(b), 0);
                    prop_assert_eq!(engine.bin_weight(b), 0);
                }
            }
        }

        // Brute-force rebuilds of all three counted trees over the final
        // hole-carrying vectors (retired slots contribute zero).
        let n = engine.config().n();
        let weights: Vec<u64> = (0..n).map(|b| ball_weight_sum(&engine, b)).collect();
        let rates: Vec<u64> = (0..n)
            .map(|b| engine.config().load(b) * engine.speed(b))
            .collect();
        for (live, rebuilt) in [
            (engine.index(), LoadIndex::from_loads(engine.config().loads())),
            (engine.weight_index().unwrap(), LoadIndex::from_loads(&weights)),
            (engine.rate_index().unwrap(), LoadIndex::from_loads(&rates)),
        ] {
            prop_assert_eq!(live.total(), rebuilt.total());
            let total = rebuilt.total();
            let mut rank = 0u64;
            while rank < total {
                prop_assert_eq!(live.bin_at(rank), rebuilt.bin_at(rank));
                rank += 1 + total / 17;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `apply_batch` is bit-identical to sequential `apply_with`: same
    /// events (sequence numbers, time bits, coordinates), same per-command
    /// errors, same final load vector and same RNG stream position — on
    /// unit engines (where the holding-time law is cached across ring
    /// runs) and across elastic membership churn (which invalidates it).
    #[test]
    fn apply_batch_matches_sequential_apply(
        (loads, policy_idx, topo_idx, seed, script) in elastic_instance_strategy()
    ) {
        let policy = POLICIES[policy_idx];
        let topology = TOPOLOGIES[topo_idx];
        let initial = Config::from_loads(loads).unwrap();
        let params = LiveParams {
            arrivals: ArrivalProcess::Poisson { rate_per_bin: 1.0 },
            service_rate: 0.5,
        };
        let build = || LiveEngine::with_policy(
            initial.clone(), params, policy, topology, seed ^ 0x6AF1,
        ).unwrap();
        let mut seq_engine = build();
        let mut batch_engine = build();
        let mut seq_rng = rng_from_seed(seed);
        let mut batch_rng = rng_from_seed(seed);

        let n = initial.n();
        let cmds: Vec<LiveCommand> = script
            .iter()
            .map(|&(kind, coord, flag)| {
                let bin = flag.then_some(coord as usize % n);
                match kind {
                    0 => LiveCommand::Arrive { bin, weight: None },
                    1 => LiveCommand::Depart { bin, weight: None },
                    2 => LiveCommand::Ring { source: None, dest: None },
                    3 => LiveCommand::AddBin { warm: flag },
                    _ => LiveCommand::DrainBin { bin },
                }
            })
            .collect();

        let sequential: Vec<_> = cmds
            .iter()
            .map(|cmd| seq_engine.apply_with(cmd, &mut seq_rng, &mut ()))
            .collect();
        let batched = batch_engine.apply_batch(&cmds, &mut batch_rng, &mut ());

        prop_assert_eq!(sequential.len(), batched.len());
        for (s, b) in sequential.iter().zip(batched.iter()) {
            match (s, b) {
                (Ok(se), Ok(be)) => {
                    prop_assert_eq!(se, be);
                    prop_assert_eq!(se.time.to_bits(), be.time.to_bits());
                }
                (Err(se), Err(be)) => {
                    prop_assert_eq!(se.to_string(), be.to_string());
                }
                _ => prop_assert!(false, "Ok/Err divergence: {:?} vs {:?}", s, b),
            }
        }
        prop_assert_eq!(seq_engine.time().to_bits(), batch_engine.time().to_bits());
        prop_assert_eq!(seq_engine.config().loads(), batch_engine.config().loads());
        prop_assert_eq!(seq_engine.counters(), batch_engine.counters());
        // Both RNGs sit at the same stream position afterwards.
        prop_assert_eq!(seq_rng.next_u64(), batch_rng.next_u64());
    }
}
