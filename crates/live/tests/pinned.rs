//! Golden trajectories of the online engines.
//!
//! A weighted run has no second implementation to agree with, and the
//! sharded engine's other tests only compare thread counts against each
//! other.  These tests record the final state of one run each, so any
//! change to how the engines draw, sample or update (clock mass, rate-rank
//! descent, in-bin ball pick, ball-list order, remote-bin pricing, barrier
//! delivery) shows up as a changed number:
//!
//! * the weighted, speed-aware, elastic `LiveEngine`;
//! * the unit `ShardedEngine` running `rls` on the complete graph, and
//!   `greedy-2` on a sparse random-regular graph.

use rls_core::{Config, RebalancePolicy, RlsRule, RlsVariant};
use rls_graph::Topology;
use rls_live::{LiveCounters, LiveEngine, LiveParams, ShardedEngine, SteadySummary};
use rls_rng::rng_from_seed;
use rls_workloads::{ArrivalProcess, ChurnProcess, SpeedProfile, WeightDist};

const PARETO: WeightDist = WeightDist::Pareto {
    alpha: 1.5,
    cap: 64,
};

const TWO_CLASS: SpeedProfile = SpeedProfile::TwoClass {
    speed: 4,
    fraction: 0.25,
};

fn geq() -> RebalancePolicy {
    RebalancePolicy::Rls {
        variant: RlsVariant::Geq,
    }
}

fn params(n: usize, m: u64) -> LiveParams {
    LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, n, m).unwrap()
}

/// FNV-1a over a sequence of words: a compact, order-sensitive digest.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn weighted_elastic_live_trajectory_is_pinned() {
    let (n, m) = (12usize, 96u64);
    let mut rng = rng_from_seed(2024);
    let mut engine = LiveEngine::with_hetero(
        Config::uniform(n, m / n as u64).unwrap(),
        params(n, m),
        geq(),
        Topology::Complete,
        0,
        PARETO,
        TWO_CLASS.speeds(n),
        &mut rng,
    )
    .unwrap();
    engine
        .set_churn(ChurnProcess::Steady {
            join_rate: 0.5,
            drain_rate: 0.4,
            warm: true,
        })
        .unwrap();
    engine.run_until(30.0, &mut rng, &mut ());
    assert!(engine.hetero_matches());
    let capacity = engine.config().n();
    let balls = fnv((0..capacity).flat_map(|b| {
        let weights = engine.ball_weights(b).expect("weighted engine");
        std::iter::once(weights.len() as u64).chain(weights.iter().copied())
    }));
    assert_eq!(
        engine.config().loads(),
        &[4, 0, 4, 0, 3, 3, 0, 6, 9, 5, 0, 0, 5, 3, 0, 4, 9, 3, 7, 0, 4, 0, 8, 0, 4, 5, 4, 4],
        "loads"
    );
    assert_eq!(balls, 0x5748_9f73_6b90_8c39, "ball weights digest");
    assert_eq!(engine.epoch(), 25, "epoch");
    assert_eq!(
        engine.time().to_bits(),
        0x403e_0046_77d7_f8e8,
        "time {}",
        engine.time()
    );
    assert_eq!(
        engine.counters(),
        LiveCounters {
            arrivals: 968,
            departures: 970,
            rings: 3902,
            migrations: 1035,
            joins: 16,
            drains: 9,
            events: 5865,
        }
    );
}

/// Assert a run's summary field by field, floats as bits.
fn assert_summary(s: &SteadySummary, floats: [u64; 5], counts: [u64; 5]) {
    let got_floats = [
        s.window,
        s.mean_gap,
        s.p50_overload,
        s.p99_overload,
        s.moves_per_arrival,
    ]
    .map(f64::to_bits);
    assert_eq!(got_floats, floats, "window/gap/p50/p99/moves bits: {s:?}");
    let got_counts = [
        s.max_overload,
        s.arrivals,
        s.departures,
        s.rings,
        s.migrations,
    ];
    assert_eq!(got_counts, counts, "max overload and window counts: {s:?}");
}

#[test]
fn unit_sharded_rls_trajectory_is_pinned() {
    let (n, m) = (16usize, 256u64);
    let out = ShardedEngine::new(
        Config::uniform(n, m / n as u64).unwrap(),
        params(n, m),
        RlsRule::paper(),
        4,
        0.25,
        2024,
    )
    .unwrap()
    .run(20.0, 5.0, 2);
    assert_eq!(
        out.final_loads,
        vec![17, 17, 16, 17, 17, 15, 15, 16, 16, 18, 17, 19, 16, 16, 19, 15],
        "loads"
    );
    assert_eq!(out.time.to_bits(), 0x4034_0000_0000_0000, "time");
    assert_eq!(
        out.counters,
        LiveCounters {
            arrivals: 612,
            departures: 602,
            rings: 5148,
            migrations: 1532,
            joins: 0,
            drains: 0,
            events: 6362,
        }
    );
    assert_summary(
        &out.summary,
        [
            0x402e_0000_0000_0000,
            0x4005_8000_0000_0000,
            0x4000_0000_0000_0000,
            0x4018_0000_0000_0000,
            0x4004_4223_5983_b4bd,
        ],
        [6, 449, 448, 3865, 1137],
    );
}

#[test]
fn unit_sharded_greedy_sparse_trajectory_is_pinned() {
    // A sparse topology draws candidates from the CSR adjacency, and most
    // of a ring's candidates live in other shards: this pins the slice-
    // start pricing of remote bins and the outbox delivery at the barrier.
    let (n, m) = (32usize, 512u64);
    let out = ShardedEngine::with_policy(
        Config::uniform(n, m / n as u64).unwrap(),
        params(n, m),
        RebalancePolicy::GreedyD { d: 2 },
        Topology::RandomRegular { degree: 8 },
        0x5EED,
        4,
        0.25,
        2024,
    )
    .unwrap()
    .run(20.0, 5.0, 2);
    assert_eq!(
        out.final_loads,
        vec![
            15, 17, 17, 16, 16, 17, 14, 20, 19, 18, 16, 18, 15, 16, 16, 16, 19, 14, 17, 21, 17, 16,
            18, 18, 20, 18, 19, 16, 19, 16, 20, 17
        ],
        "loads"
    );
    assert_eq!(out.time.to_bits(), 0x4034_0000_0000_0000, "time");
    assert_eq!(
        out.counters,
        LiveCounters {
            arrivals: 1305,
            departures: 1266,
            rings: 9966,
            migrations: 4331,
            joins: 0,
            drains: 0,
            events: 12537,
        }
    );
    assert_summary(
        &out.summary,
        [
            0x402e_0000_0000_0000,
            0x4014_4222_2222_2222,
            0x4014_0000_0000_0000,
            0x4024_0000_0000_0000,
            0x400a_ebfb_c937_d5dc,
        ],
        [10, 972, 942, 7478, 3271],
    );
}
