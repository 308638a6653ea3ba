//! The online support matrix: weights × speeds × churn × arrival law ×
//! engine.  Every cell either builds from an `Instance` and runs, or is
//! refused before anything is built with a typed `LiveError::Unsupported`
//! that names the engine and the axis.

use rls_live::{Instance, LiveEngine, LiveError, SteadyState};
use rls_rng::{rng_from_seed, Rng64};

const WEIGHTS: [&str; 2] = ["unit", "pareto:1.5:64"];
const SPEEDS: [&str; 2] = ["uniform", "two-class:4:0.25"];
const CHURN: [&str; 2] = ["none", "steady:0.5:0.5"];
const ARRIVALS: [&str; 3] = ["poisson:2", "bursts:2:8", "hotspot:2:0.25"];

fn instances() -> Vec<Instance> {
    let mut out = Vec::new();
    for weights in WEIGHTS {
        for speeds in SPEEDS {
            for churn in CHURN {
                for arrival in ARRIVALS {
                    out.push(Instance {
                        n: 16,
                        m: 128,
                        arrival: arrival.parse().unwrap(),
                        weights: weights.parse().unwrap(),
                        speeds: speeds.parse().unwrap(),
                        churn: churn.parse().unwrap(),
                        ..Instance::default()
                    });
                }
            }
        }
    }
    out
}

/// Whether the instance is the paper's shape (unit balls, uniform bins).
fn classic(instance: &Instance) -> bool {
    instance.weights.to_string() == WEIGHTS[0] && instance.speeds.to_string() == SPEEDS[0]
}

/// The axis and value the sharded engine must refuse first, if any.
fn sharded_refusal(instance: &Instance) -> Option<(&'static str, String)> {
    [
        ("weights", instance.weights.to_string(), WEIGHTS[0]),
        ("speeds", instance.speeds.to_string(), SPEEDS[0]),
        ("churn", instance.churn.to_string(), CHURN[0]),
        ("arrival", instance.arrival.to_string(), ARRIVALS[0]),
    ]
    .into_iter()
    .find(|(_, value, supported)| value != supported)
    .map(|(axis, value, _)| (axis, value))
}

#[test]
fn the_sequential_engine_runs_every_cell() {
    for instance in instances() {
        let initial = instance.initial(&mut rng_from_seed(1)).unwrap();
        let mut weight_rng = rng_from_seed(3);
        let mut engine = instance
            .live_engine(initial, 2, &mut weight_rng)
            .unwrap_or_else(|e| panic!("{instance:?}: {e}"));
        assert_eq!(engine.is_hetero(), !classic(&instance), "{instance:?}");
        assert_eq!(engine.churn(), instance.churn, "{instance:?}");
        let mut steady = SteadyState::new(0.5);
        engine.run_until(2.0, &mut rng_from_seed(4), &mut steady);
        assert!(engine.time() >= 2.0, "{instance:?}");
        assert!(engine.counters().events > 0, "{instance:?}");
        assert!(steady.finish(engine.time()).window > 0.0, "{instance:?}");
    }
}

#[test]
fn the_classic_shape_is_the_plain_engine_and_draws_no_weights() {
    let instance = Instance::default();
    let initial = instance.initial(&mut rng_from_seed(1)).unwrap();
    let mut weight_rng = rng_from_seed(3);
    let mut engine = instance
        .live_engine(initial.clone(), 2, &mut weight_rng)
        .unwrap();
    assert!(!engine.is_hetero());
    assert_eq!(weight_rng.next_u64(), rng_from_seed(3).next_u64());

    let mut plain = LiveEngine::with_policy(
        initial,
        instance.params().unwrap(),
        instance.policy,
        instance.topology,
        2,
    )
    .unwrap();
    engine.run_until(5.0, &mut rng_from_seed(4), &mut ());
    plain.run_until(5.0, &mut rng_from_seed(4), &mut ());
    assert_eq!(engine.config().loads(), plain.config().loads());
    assert_eq!(engine.counters(), plain.counters());
}

#[test]
fn the_sharded_engine_runs_its_cells_and_refuses_the_rest_by_axis() {
    let mut ran = 0;
    for instance in instances() {
        let initial = instance.initial(&mut rng_from_seed(1)).unwrap();
        let built = instance.sharded_engine(initial, 2, 2, 0.25, 5);
        match (sharded_refusal(&instance), built) {
            (None, Ok(mut engine)) => {
                let outcome = engine.run(2.0, 0.5, 1);
                assert!(outcome.counters.events > 0, "{instance:?}");
                ran += 1;
            }
            (Some((axis, value)), Err(LiveError::Unsupported(refused))) => {
                assert_eq!(refused.engine, "sharded", "{instance:?}");
                assert_eq!((refused.axis, refused.value.as_str()), (axis, &*value));
                assert!(
                    LiveError::Unsupported(refused)
                        .to_string()
                        .contains("not supported by the sharded engine"),
                    "{instance:?}"
                );
            }
            (expected, Ok(_)) => panic!("{instance:?}: built, expected {expected:?}"),
            (expected, Err(e)) => panic!("{instance:?}: {e}, expected {expected:?}"),
        }
    }
    // Unit balls, uniform bins, no churn, Poisson arrivals: one cell.
    assert_eq!(ran, 1);
}
