//! E15, E16: the future-work extensions of Section 7 — weighted balls,
//! heterogeneous bin speeds, and non-complete topologies.
//!
//! E16 is a campaign over the topology axis; E15 keeps its bespoke loop
//! because the weighted/speed protocols carry their own state types and
//! Nash-stability goals, which are outside the campaign cell model.

use rls_campaign::{run_cached, CampaignSpec, MExpr, Spec};
use rls_graph::{mixing::estimate_mixing, Topology};
use rls_protocols::speeds::{SpeedGoal, SpeedRls};
use rls_protocols::weighted::{WeightedGoal, WeightedRls};
use rls_rng::dist::{Distribution, Zipf};
use rls_rng::{RngExt, StreamFactory, StreamId};
use rls_sim::stats::Summary;

use crate::table::{fmt_f64, Table};
use crate::Scale;

/// E15: weighted balls and heterogeneous bin speeds.
pub fn weighted_and_speeds(scale: Scale, seed: u64) -> Table {
    let (n, m, trials, budget) = match scale {
        Scale::Quick => (8usize, 64u64, 5, 2_000_000u64),
        Scale::Full => (64usize, 2048u64, 15, 200_000_000u64),
    };
    let mut table = Table::new(
        "E15: future-work extensions - weighted balls and bin speeds (all-in-one-bin starts)",
        &[
            "model",
            "skew",
            "mean time to stability",
            "mean activations",
            "mean final disc",
            "goal rate",
        ],
    );
    let factory = StreamFactory::new(seed);

    // Weighted balls: unit, uniform 1..=4, Zipf(1.5) weights in 1..=8.
    type WeightSampler = Box<dyn Fn(&mut rls_rng::Xoshiro256PlusPlus) -> Vec<u64>>;
    let weight_families: Vec<(&str, WeightSampler)> = vec![
        (
            "weights: unit",
            Box::new(move |_rng| vec![1u64; m as usize]),
        ),
        (
            "weights: uniform 1..4",
            Box::new(move |rng| (0..m).map(|_| 1 + rng.next_below(4)).collect()),
        ),
        (
            "weights: zipf(1.5) of 1..8",
            Box::new(move |rng| {
                let z = Zipf::new(8, 1.5).expect("valid zipf");
                (0..m).map(|_| z.sample(rng)).collect()
            }),
        ),
    ];
    for (label, make_weights) in weight_families {
        let mut times = Vec::new();
        let mut acts = Vec::new();
        let mut discs = Vec::new();
        let mut goals = 0usize;
        for trial in 0..trials as u64 {
            let mut rng = factory.rng(StreamId::trial(trial).with_salt(15_100));
            let weights = make_weights(&mut rng);
            let proto = WeightedRls::new(weights, budget);
            let mut state = proto.all_in_one_bin(n);
            let mut run_rng =
                factory.rng(StreamId::trial(trial).with_component(1).with_salt(15_100));
            let out = proto.run(&mut state, WeightedGoal::NashStable, &mut run_rng);
            times.push(out.cost);
            acts.push(out.activations as f64);
            discs.push(out.final_discrepancy);
            goals += out.reached_goal as usize;
        }
        table.push_row(vec![
            label.into(),
            "-".into(),
            fmt_f64(Summary::from_samples(&times).mean),
            fmt_f64(Summary::from_samples(&acts).mean),
            fmt_f64(Summary::from_samples(&discs).mean),
            fmt_f64(goals as f64 / trials as f64),
        ]);
    }

    // Bin speeds: ratios 1, 2 and 4 between the fastest and slowest bins.
    for ratio in [1u64, 2, 4] {
        let speeds: Vec<u64> = (0..n).map(|i| 1 + (i as u64 % 2) * (ratio - 1)).collect();
        let mut times = Vec::new();
        let mut acts = Vec::new();
        let mut discs = Vec::new();
        let mut goals = 0usize;
        for trial in 0..trials as u64 {
            let proto = SpeedRls::new(speeds.clone(), budget);
            let mut state = proto.all_in_one_bin(m);
            let mut run_rng = factory.rng(
                StreamId::trial(trial)
                    .with_component(2)
                    .with_salt(15_200 + ratio),
            );
            let out = proto.run(&mut state, SpeedGoal::NashStable, &mut run_rng);
            times.push(out.cost);
            acts.push(out.activations as f64);
            discs.push(out.final_discrepancy);
            goals += out.reached_goal as usize;
        }
        table.push_row(vec![
            "bin speeds".into(),
            format!("fast/slow = {ratio}"),
            fmt_f64(Summary::from_samples(&times).mean),
            fmt_f64(Summary::from_samples(&acts).mean),
            fmt_f64(Summary::from_samples(&discs).mean),
            fmt_f64(goals as f64 / trials as f64),
        ]);
    }
    table.push_note("Both extensions still converge to a Nash-stable (no ball can improve) state; the balancing time degrades gracefully with weight or speed skew, which is the open quantitative question of Section 7.");
    table
}

/// E16: RLS on non-complete topologies, with the mixing-time proxy.
pub fn topologies(scale: Scale, seed: u64) -> Table {
    let (n, factor, trials, budget) = match scale {
        Scale::Quick => (16usize, 8u64, 4, 4_000_000u64),
        Scale::Full => (256usize, 8u64, 12, 400_000_000u64),
    };
    let topology_axis = [
        Topology::Complete,
        Topology::Hypercube,
        Topology::RandomRegular { degree: 4 },
        Topology::Torus2D,
        Topology::Cycle,
    ];
    let mut spec = CampaignSpec::new("e16-topologies", seed, trials);
    spec.grid.n = vec![n];
    spec.grid.m = vec![MExpr::PerBin(factor as f64)];
    spec.grid.topology = topology_axis.iter().copied().map(Spec).collect();
    spec.stop.max_activations = Some(budget);
    let report = run_cached(spec).expect("E16 topologies all build at these sizes");

    let mut table = Table::new(
        "E16: RLS on non-complete topologies (all-in-one-bin starts)",
        &[
            "topology",
            "max degree",
            "spectral gap",
            "mixing proxy",
            "mean T",
            "goal rate",
        ],
    );
    // The mixing proxy is a deterministic property of the graph instance;
    // rebuild it for display (random topologies draw a statistically
    // equivalent instance).
    let factory = StreamFactory::new(seed);
    for outcome in &report.outcomes {
        let topology = outcome.cell.topology.0;
        let mut graph_rng = factory.rng(StreamId::trial(0).with_salt(16_000));
        let graph = topology
            .build(n, &mut graph_rng)
            .expect("grid topologies build at these sizes");
        let mixing = estimate_mixing(&graph, 400);
        table.push_row(vec![
            topology.name().into(),
            graph.max_degree().to_string(),
            fmt_f64(mixing.spectral_gap),
            fmt_f64(mixing.mixing_time),
            fmt_f64(outcome.result.cost.mean),
            fmt_f64(outcome.result.goal_rate),
        ]);
    }
    table.push_note("Balancing time grows as the topology's mixing time grows (complete < hypercube/expander < torus < cycle) - the qualitative tau_mix dependence of the threshold-balancing result [6].");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_all_models_stabilize_at_quick_scale() {
        let t = weighted_and_speeds(Scale::Quick, 21);
        assert_eq!(t.row_count(), 6);
        for row in &t.rows {
            let goal_rate: f64 = row[5].parse().unwrap();
            assert!(
                goal_rate > 0.9,
                "extension model did not stabilize: {row:?}"
            );
        }
    }

    #[test]
    fn e16_slower_mixing_means_slower_balancing() {
        let t = topologies(Scale::Quick, 21);
        let find = |name: &str| -> (f64, f64) {
            let row = t.rows.iter().find(|r| r[0] == name).unwrap();
            (row[3].parse().unwrap(), row[4].parse().unwrap())
        };
        let (mix_complete, t_complete) = find("complete");
        let (mix_cycle, t_cycle) = find("cycle");
        assert!(mix_cycle > mix_complete);
        assert!(t_cycle > t_complete);
    }
}
