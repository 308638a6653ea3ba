//! E15 / E16: the future-work extensions — weighted balls, bin speeds, and
//! non-complete topologies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rls_core::{Config, RlsRule};
use rls_graph::{DestSampler, Topology};
use rls_protocols::speeds::{SpeedGoal, SpeedRls};
use rls_protocols::weighted::{WeightedGoal, WeightedRls};
use rls_rng::{rng_from_seed, RngExt};
use rls_sim::{RlsPolicy, Simulation, StopWhen};

fn weighted_balls(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_weighted_balls");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let n = 8;
    let m = 128;
    for (name, max_weight) in [("unit", 1u64), ("uniform_1_to_4", 4), ("uniform_1_to_8", 8)] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = rng_from_seed(seed);
                let weights: Vec<u64> = (0..m).map(|_| 1 + rng.next_below(max_weight)).collect();
                let proto = WeightedRls::new(weights, 50_000_000);
                let mut state = proto.all_in_one_bin(n);
                proto.run(&mut state, WeightedGoal::NashStable, &mut rng)
            });
        });
    }
    group.finish();
}

fn bin_speeds(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_bin_speeds");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let n = 8;
    let m = 256u64;
    for ratio in [1u64, 2, 4] {
        group.bench_function(BenchmarkId::new("fast_slow_ratio", ratio), |b| {
            let speeds: Vec<u64> = (0..n).map(|i| 1 + (i as u64 % 2) * (ratio - 1)).collect();
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let proto = SpeedRls::new(speeds.clone(), 50_000_000);
                let mut state = proto.all_in_one_bin(m);
                proto.run(&mut state, SpeedGoal::NashStable, &mut rng_from_seed(seed))
            });
        });
    }
    group.finish();
}

fn topologies(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_topologies");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let n = 16;
    let m = 8 * n as u64;
    for topology in [
        Topology::Complete,
        Topology::Hypercube,
        Topology::Torus2D,
        Topology::Cycle,
    ] {
        let sampler = DestSampler::Sparse {
            graph: topology.build(n, &mut rng_from_seed(1)).unwrap(),
        };
        let stop = StopWhen::perfectly_balanced().with_max_activations(100_000_000);
        group.bench_function(BenchmarkId::from_parameter(topology.name()), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let start = Config::all_in_one_bin(n, m).unwrap();
                let policy = RlsPolicy::new(RlsRule::paper());
                Simulation::with_sampler(start, policy, sampler.clone())
                    .unwrap()
                    .run(&mut rng_from_seed(seed), stop)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, weighted_balls, bin_speeds, topologies);
criterion_main!(benches);
