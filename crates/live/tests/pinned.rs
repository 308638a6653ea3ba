//! Golden trajectories of the weighted, speed-aware online engines.
//!
//! The unit engines are pinned against each other bit for bit (the
//! unit-mode identity tests), but a weighted run has no second
//! implementation to agree with.  These tests record the final state of
//! one weighted run per engine, so any change to how the per-bin books
//! draw, sample or update (clock mass, rate-rank descent, in-bin ball
//! pick, ball-list order) shows up as a changed number.

use rls_core::{Config, RebalancePolicy, RlsVariant};
use rls_graph::Topology;
use rls_live::{LiveCounters, LiveEngine, LiveParams, ShardedEngine};
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
fn weighted_sharded_trajectory_is_pinned() {
    let (n, m) = (16usize, 256u64);
    let out = ShardedEngine::with_hetero(
        Config::uniform(n, m / n as u64).unwrap(),
        params(n, m),
        geq(),
        Topology::Complete,
        0,
        4,
        0.25,
        2024,
        PARETO,
        TWO_CLASS.speeds(n),
        &mut rng_from_seed(77),
    )
    .unwrap()
    .run(20.0, 5.0, 2);
    assert_eq!(
        out.final_loads,
        vec![15, 21, 7, 9, 8, 9, 11, 7, 7, 5, 6, 7, 7, 7, 3, 5],
        "loads"
    );
    assert_eq!(
        out.final_weights,
        Some(vec![
            20, 22, 35, 30, 12, 9, 13, 11, 12, 7, 10, 16, 7, 13, 12, 13
        ]),
        "weights"
    );
    assert_eq!(
        out.counters,
        LiveCounters {
            arrivals: 674,
            departures: 796,
            rings: 6180,
            migrations: 1305,
            joins: 0,
            drains: 0,
            events: 7650,
        }
    );
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
