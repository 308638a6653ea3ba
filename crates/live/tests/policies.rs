//! Cross-validation of the pluggable `(policy, topology)` online stack:
//!
//! * every policy's pinned-pair decision agrees with an independently
//!   written reference rule applied to the pre-event load vector;
//! * sampled ring destinations respect the topology's adjacency;
//! * the sharded engine's trajectory is thread-count independent for
//!   every `(policy, topology)` pair;
//! * sharded and sequential engines agree on steady-state observables for
//!   the new policies, like they always have for RLS.

use rls_core::{Config, RebalancePolicy, RlsVariant};
use rls_graph::Topology;
use rls_live::{LiveCommand, LiveEngine, LiveEventKind, LiveParams, ShardedEngine, SteadyState};
use rls_rng::{rng_from_seed, RngExt};
use rls_workloads::ArrivalProcess;

fn all_policies() -> Vec<RebalancePolicy> {
    vec![
        RebalancePolicy::rls(),
        RebalancePolicy::Rls {
            variant: RlsVariant::Strict,
        },
        RebalancePolicy::GreedyD { d: 2 },
        RebalancePolicy::GreedyD { d: 4 },
        RebalancePolicy::ThresholdFixed { threshold: 10 },
        RebalancePolicy::ThresholdAvg,
        RebalancePolicy::CrsPair,
    ]
}

fn topologies() -> Vec<Topology> {
    vec![
        Topology::Complete,
        Topology::Torus2D,
        Topology::RandomRegular { degree: 8 },
    ]
}

fn params(n: usize, m: u64) -> LiveParams {
    LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, n, m).unwrap()
}

/// The reference pair rule, written independently of
/// `RebalancePolicy::permits_loads` (a straight transcription of each
/// protocol's paper definition against the raw load vector).
#[allow(clippy::int_plus_one)] // the `ℓ_s ≥ ℓ_d + 1` forms are kept literal
fn reference_moves(policy: RebalancePolicy, loads: &[u64], source: usize, dest: usize) -> bool {
    if source == dest {
        return false;
    }
    let (ls, ld) = (loads[source], loads[dest]);
    match policy {
        RebalancePolicy::Rls {
            variant: RlsVariant::Geq,
        } => ls >= ld + 1,
        RebalancePolicy::Rls {
            variant: RlsVariant::Strict,
        } => ls > ld + 1,
        RebalancePolicy::GreedyD { .. } => ls >= ld + 1,
        RebalancePolicy::ThresholdFixed { threshold } => ls > threshold,
        RebalancePolicy::ThresholdAvg => {
            let m: u64 = loads.iter().sum();
            let avg_ceil = m.div_ceil(loads.len() as u64);
            ls > avg_ceil
        }
        RebalancePolicy::CrsPair => ls >= ld + 2,
    }
}

#[test]
fn pinned_ring_decisions_match_the_reference_rules() {
    for policy in all_policies() {
        let n = 16;
        let mut engine = LiveEngine::with_policy(
            Config::uniform(n, 8).unwrap(),
            params(n, 128),
            policy,
            Topology::Complete,
            0,
        )
        .unwrap();
        let mut rng = rng_from_seed(0xDEC1DE);
        for step in 0..2000 {
            // Churn a little so the loads wander.
            engine
                .apply(
                    &LiveCommand::Arrive {
                        bin: None,
                        weight: None,
                    },
                    &mut rng,
                )
                .unwrap();
            engine
                .apply(
                    &LiveCommand::Depart {
                        bin: None,
                        weight: None,
                    },
                    &mut rng,
                )
                .unwrap();
            let source = rng.next_index(n);
            let dest = rng.next_index(n);
            if engine.config().load(source) == 0 {
                continue;
            }
            let before: Vec<u64> = engine.config().loads().to_vec();
            let expected = reference_moves(policy, &before, source, dest);
            let event = engine
                .apply(
                    &LiveCommand::Ring {
                        source: Some(source),
                        dest: Some(dest),
                    },
                    &mut rng,
                )
                .unwrap();
            let LiveEventKind::Ring { moved, .. } = event.kind else {
                panic!("ring command yields a ring event");
            };
            assert_eq!(
                moved, expected,
                "{policy} step {step}: {source}({}) -> {dest}({})",
                before[source], before[dest]
            );
        }
        assert!(engine.tracker().matches(engine.config()));
        assert!(engine.index().matches(engine.config()));
    }
}

#[test]
fn sampled_ring_destinations_respect_adjacency() {
    let n = 16;
    for topology in topologies() {
        let graph_seed = 0x9A4F;
        let engine_graph = match topology {
            Topology::Complete => None,
            other => Some(other.build(n, &mut rng_from_seed(graph_seed)).unwrap()),
        };
        for policy in all_policies() {
            let mut engine = LiveEngine::with_policy(
                Config::uniform(n, 8).unwrap(),
                params(n, 128),
                policy,
                topology,
                graph_seed,
            )
            .unwrap();
            let mut rng = rng_from_seed(7);
            for _ in 0..1500 {
                let Some(event) = engine.step(&mut rng) else {
                    break;
                };
                if let LiveEventKind::Ring { source, dest, .. } = event.kind {
                    let (source, dest) = (source as usize, dest as usize);
                    if let Some(graph) = &engine_graph {
                        assert!(
                            source == dest || graph.has_edge(source, dest),
                            "{policy} on {topology}: ring {source} -> {dest} is not an edge"
                        );
                    }
                }
            }
            assert!(engine.tracker().matches(engine.config()), "{policy}");
            assert!(engine.index().matches(engine.config()), "{policy}");
        }
    }
}

#[test]
fn non_adjacent_pinned_destinations_are_rejected() {
    let n = 16;
    let mut engine = LiveEngine::with_policy(
        Config::uniform(n, 8).unwrap(),
        params(n, 128),
        RebalancePolicy::rls(),
        Topology::Cycle,
        1,
    )
    .unwrap();
    let mut rng = rng_from_seed(8);
    let state = rng.state();
    // 0 and 8 are not cycle neighbours.
    let err = engine
        .apply(
            &LiveCommand::Ring {
                source: Some(0),
                dest: Some(8),
            },
            &mut rng,
        )
        .unwrap_err();
    assert!(err.to_string().contains("not adjacent"), "{err}");
    // A pinned destination without a pinned source cannot be checked.
    let err = engine
        .apply(
            &LiveCommand::Ring {
                source: None,
                dest: Some(1),
            },
            &mut rng,
        )
        .unwrap_err();
    assert!(err.to_string().contains("pinned source"), "{err}");
    // Neither rejection consumed randomness or recorded an event.
    assert_eq!(rng.state(), state);
    assert_eq!(engine.counters().events, 0);
    // Adjacent pins (and the self-loop no-op) are fine.
    engine
        .apply(
            &LiveCommand::Ring {
                source: Some(0),
                dest: Some(1),
            },
            &mut rng,
        )
        .unwrap();
    engine
        .apply(
            &LiveCommand::Ring {
                source: Some(0),
                dest: Some(0),
            },
            &mut rng,
        )
        .unwrap();
}

#[test]
fn sharded_trajectory_is_thread_count_independent_for_every_pair() {
    let n = 16;
    let m = 256;
    for topology in topologies() {
        for policy in all_policies() {
            let build = || {
                ShardedEngine::with_policy(
                    Config::uniform(n, m / n as u64).unwrap(),
                    params(n, m),
                    policy,
                    topology,
                    0x5EED,
                    4,
                    0.25,
                    42,
                )
                .unwrap()
            };
            let out_1 = build().run(15.0, 3.0, 1);
            let out_8 = build().run(15.0, 3.0, 8);
            assert_eq!(
                out_1.final_loads, out_8.final_loads,
                "{policy} on {topology}"
            );
            assert_eq!(out_1.counters, out_8.counters, "{policy} on {topology}");
            assert_eq!(out_1.summary, out_8.summary, "{policy} on {topology}");
        }
    }
}

#[test]
fn sharded_matches_sequential_for_the_new_policies() {
    // Same cross-validation the RLS path has always had, now per policy:
    // at a fine slice the sharded steady-state gap lands close to the
    // sequential engine's.
    let n = 16;
    let m = 256;
    for policy in [
        RebalancePolicy::GreedyD { d: 2 },
        RebalancePolicy::ThresholdAvg,
        RebalancePolicy::CrsPair,
    ] {
        let mut seq = LiveEngine::with_policy(
            Config::uniform(n, m / n as u64).unwrap(),
            params(n, m),
            policy,
            Topology::Complete,
            0,
        )
        .unwrap();
        let mut steady = SteadyState::new(10.0);
        seq.run_until(60.0, &mut rng_from_seed(3), &mut steady);
        let sequential = steady.finish(seq.time());

        let sharded = ShardedEngine::with_policy(
            Config::uniform(n, m / n as u64).unwrap(),
            params(n, m),
            policy,
            Topology::Complete,
            0,
            4,
            0.05,
            3,
        )
        .unwrap()
        .run(60.0, 10.0, 4)
        .summary;

        let diff = (sequential.mean_gap - sharded.mean_gap).abs();
        assert!(
            diff < 1.5,
            "{policy}: steady-state gap diverged, sequential {} vs sharded {}",
            sequential.mean_gap,
            sharded.mean_gap
        );
    }
}

#[test]
fn greedy_two_beats_rls_and_blind_threshold_moves_trail_it_under_identical_churn() {
    // The power-of-d-choices effect survives the move to the online
    // setting: with the same seed and churn, greedy-2 rings hold a gap no
    // worse than RLS's single-sample rings.  Threshold-avg pays the
    // blind-move penalty: it moves off any above-average bin without
    // looking at the destination, so its gap is no better than RLS's.
    let n = 64;
    let m = 1024;
    let gap_of = |policy: RebalancePolicy| {
        let mut engine = LiveEngine::with_policy(
            Config::uniform(n, m / n as u64).unwrap(),
            params(n, m),
            policy,
            Topology::Complete,
            0,
        )
        .unwrap();
        let mut steady = SteadyState::new(10.0);
        engine.run_until(50.0, &mut rng_from_seed(11), &mut steady);
        steady.finish(engine.time()).mean_gap
    };
    let rls = gap_of(RebalancePolicy::rls());
    let greedy = gap_of(RebalancePolicy::GreedyD { d: 2 });
    let threshold = gap_of(RebalancePolicy::ThresholdAvg);
    assert!(
        greedy <= rls + 0.25,
        "greedy-2 gap {greedy} should not exceed rls gap {rls}"
    );
    assert!(
        threshold >= rls,
        "threshold-avg gap {threshold} should not fall below rls gap {rls}"
    );
}
