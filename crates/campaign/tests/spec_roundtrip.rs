//! Property tests for campaign-spec serialization: any generated
//! [`CampaignSpec`] must survive TOML → parse → re-serialize → parse
//! unchanged, and CSV exports must be byte-identical across runs.

use proptest::prelude::*;
use proptest::{Strategy, TestRng};
use rls_campaign::hash::sha256_hex;
use rls_campaign::{cell_key, export};
use rls_campaign::{
    spec_from_str, spec_to_toml_string, Campaign, CampaignSpec, DynamicSpec, Grid, HitSpec, MExpr,
    MemoryStore, ProtocolSpec, Spec, StopSpec,
};
use rls_graph::Topology;
use rls_workloads::{ArrivalProcess, ChurnProcess, SpeedProfile, WeightDist, Workload};

/// A float that exercises the printer without being pathological: a dyadic
/// rational in `(0, 32]` (exactly representable, round-trips through any
/// faithful formatter).
fn dyadic(rng: &mut TestRng) -> f64 {
    (1 + rng.below(512)) as f64 / 16.0
}

fn mexpr(rng: &mut TestRng) -> MExpr {
    match rng.below(3) {
        0 => MExpr::Absolute(1 + rng.below(100_000)),
        1 => MExpr::PerBin(dyadic(rng)),
        _ => MExpr::NSquared,
    }
}

fn protocol(rng: &mut TestRng) -> ProtocolSpec {
    match rng.below(7) {
        0 => ProtocolSpec::RlsGeq,
        1 => ProtocolSpec::RlsStrict,
        2 => ProtocolSpec::SelfishGlobal {
            rounds: 1 + rng.below(10_000),
        },
        3 => ProtocolSpec::SelfishDistributed {
            rounds: 1 + rng.below(10_000),
        },
        4 => ProtocolSpec::ThresholdAverage {
            rounds: 1 + rng.below(10_000),
        },
        5 => ProtocolSpec::CrsTwoChoices {
            steps: 1 + rng.below(1_000_000),
        },
        _ => ProtocolSpec::GreedyD {
            d: 1 + rng.below(8) as usize,
        },
    }
}

fn workload(rng: &mut TestRng) -> Spec<Workload> {
    Spec(match rng.below(8) {
        0 => Workload::AllInOneBin,
        1 => Workload::UniformRandom,
        2 => Workload::TwoChoices,
        3 => Workload::Balanced,
        4 => Workload::OneOverOneUnder,
        5 => Workload::OverUnderPairs {
            pairs: 1 + rng.below(8) as usize,
        },
        6 => Workload::Zipf {
            exponent: dyadic(rng),
        },
        _ => Workload::BlockImbalance {
            offset: rng.below(16),
        },
    })
}

fn topology(rng: &mut TestRng) -> Spec<Topology> {
    Spec(match rng.below(9) {
        0 => Topology::Complete,
        1 => Topology::Cycle,
        2 => Topology::Path,
        3 => Topology::Torus2D,
        4 => Topology::Hypercube,
        5 => Topology::Star,
        6 => Topology::BinaryTree,
        7 => Topology::RandomRegular {
            degree: 3 + rng.below(5) as usize,
        },
        _ => Topology::ErdosRenyi {
            p: (1 + rng.below(15)) as f64 / 16.0,
        },
    })
}

fn hit(rng: &mut TestRng) -> HitSpec {
    if rng.below(2) == 0 {
        HitSpec::LnFactor(dyadic(rng))
    } else {
        HitSpec::Absolute(dyadic(rng))
    }
}

fn weight(rng: &mut TestRng) -> Spec<WeightDist> {
    Spec(match rng.below(3) {
        0 => WeightDist::Unit,
        1 => {
            let lo = 1 + rng.below(8);
            WeightDist::UniformInt {
                lo,
                hi: lo + rng.below(64),
            }
        }
        _ => WeightDist::Pareto {
            alpha: (17 + rng.below(47)) as f64 / 16.0,
            cap: 2 + rng.below(1022),
        },
    })
}

fn speed(rng: &mut TestRng) -> Spec<SpeedProfile> {
    Spec(if rng.below(2) == 0 {
        SpeedProfile::Uniform
    } else {
        SpeedProfile::TwoClass {
            speed: 2 + rng.below(14),
            fraction: (1 + rng.below(15)) as f64 / 16.0,
        }
    })
}

fn churn(rng: &mut TestRng) -> Spec<ChurnProcess> {
    Spec(match rng.below(4) {
        0 => ChurnProcess::None,
        1 => ChurnProcess::Steady {
            join_rate: dyadic(rng),
            drain_rate: dyadic(rng),
            warm: rng.below(2) == 0,
        },
        2 => ChurnProcess::Flash {
            rate: dyadic(rng),
            size: 1 + rng.below(16),
            warm: rng.below(2) == 0,
        },
        _ => ChurnProcess::Diurnal {
            period: (1 + rng.below(512)) as f64,
            join_rate: dyadic(rng),
            drain_rate: dyadic(rng),
            warm: rng.below(2) == 0,
        },
    })
}

fn arrival(rng: &mut TestRng) -> Spec<ArrivalProcess> {
    Spec(match rng.below(3) {
        0 => ArrivalProcess::Poisson {
            rate_per_bin: dyadic(rng),
        },
        1 => ArrivalProcess::Bursts {
            rate_per_bin: dyadic(rng),
            size: 1 + rng.below(64),
        },
        _ => ArrivalProcess::Hotspot {
            rate_per_bin: dyadic(rng),
            bias: rng.below(17) as f64 / 16.0,
        },
    })
}

fn vec_of<T>(rng: &mut TestRng, max: u64, f: impl Fn(&mut TestRng) -> T) -> Vec<T> {
    (0..1 + rng.below(max)).map(|_| f(rng)).collect()
}

/// Names stressing the TOML string escaping.
const NAMES: &[&str] = &[
    "demo",
    "sweep-1",
    "with \"quotes\"",
    "tabs\tand\nnewlines",
    "back\\slash",
    "spaced out name",
];

/// Generates arbitrary (not necessarily runnable) campaign specs; the
/// round-trip property is about serialization, not executability.
struct SpecStrategy;

impl Strategy for SpecStrategy {
    type Value = CampaignSpec;

    fn generate(&self, rng: &mut TestRng) -> CampaignSpec {
        CampaignSpec {
            name: NAMES[rng.below(NAMES.len() as u64) as usize].to_string(),
            seed: rng.next_u64(),
            trials: 1 + rng.below(64) as usize,
            grid: Grid {
                n: vec_of(rng, 3, |r| 1 + r.below(512) as usize),
                m: vec_of(rng, 3, mexpr),
                protocol: vec_of(rng, 3, protocol),
                workload: vec_of(rng, 3, workload),
                topology: vec_of(rng, 2, topology),
                churn: if rng.below(2) == 0 {
                    Vec::new()
                } else {
                    vec_of(rng, 2, churn)
                },
            },
            stop: StopSpec {
                target_discrepancy: rng.below(16) as f64 / 4.0,
                max_time: (rng.below(2) == 0).then(|| dyadic(rng)),
                max_activations: (rng.below(2) == 0).then(|| rng.next_u64() >> 16),
            },
            hits: vec_of(rng, 3, hit),
            dynamic: (rng.below(2) == 0).then(|| DynamicSpec {
                arrival: arrival(rng),
                warmup: rng.below(64) as f64 / 4.0,
                window: dyadic(rng),
                weights: (rng.below(2) == 0).then(|| weight(rng)),
                speeds: (rng.below(2) == 0).then(|| speed(rng)),
            }),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// TOML → parse → re-serialize → parse is the identity on specs.
    #[test]
    fn toml_round_trip_is_identity(spec in SpecStrategy) {
        let toml = spec_to_toml_string(&spec).expect("specs always render");
        let parsed = spec_from_str(&toml)
            .unwrap_or_else(|e| panic!("parse rendered spec: {e}\n--- rendered ---\n{toml}"));
        prop_assert_eq!(&parsed, &spec, "TOML parse changed the spec:\n{}", toml);

        let again = spec_to_toml_string(&parsed).expect("re-render");
        prop_assert_eq!(&again, &toml, "re-serialization is not a fixed point");
        let reparsed = spec_from_str(&again).expect("reparse");
        prop_assert_eq!(&reparsed, &spec);
    }

    /// The JSON path agrees with the TOML path.
    #[test]
    fn json_and_toml_paths_agree(spec in SpecStrategy) {
        let json = serde_json::to_string(&spec).expect("encode");
        let from_json = spec_from_str(&json).expect("parse JSON spec");
        prop_assert_eq!(from_json, spec);
    }
}

/// `export --csv` row order (and every byte) is deterministic across runs,
/// store instances and thread counts.
#[test]
fn csv_export_is_deterministic_across_runs() {
    let spec = |name: &str| {
        let mut s = CampaignSpec::new(name, 2024, 3);
        s.grid.n = vec![4, 8, 16];
        s.grid.m = vec![MExpr::PerBin(4.0), MExpr::Absolute(48)];
        s.grid.workload = vec![Spec(Workload::AllInOneBin), Spec(Workload::UniformRandom)];
        s
    };
    let run = |threads: usize| {
        let store = MemoryStore::new();
        let report = Campaign::new(spec("csv-determinism"))
            .run(&store, threads)
            .unwrap();
        export::to_csv(&report)
    };
    let first = run(1);
    let second = run(4);
    let third = run(8);
    assert_eq!(first, second, "CSV differs between runs/thread counts");
    assert_eq!(first, third);
    // 3 n × 2 m × 2 workloads = 12 rows + header.
    assert_eq!(first.trim().lines().count(), 13);
}

/// SHA-256 over each shipped spec's cell keys, in grid order, one per
/// line.  A cell key hashes the text form of every instance in the cell,
/// so a change to any `Display` (or to `ENGINE_VERSION`) moves these and
/// would orphan every results store built from the shipped specs.
const SHIPPED_KEY_DIGESTS: &[(&str, &str)] = &[
    (
        "dynamic_elastic.toml",
        "f4eb292a67590b76cc9fe859368535be34bdcbff9778bb0fdb982faf169770c6",
    ),
    (
        "dynamic_policies.toml",
        "c280ab5136258109909bc35d921fa1bda0e7ac9341ebc29cbc6c99c850528e59",
    ),
    (
        "dynamic_steady_state.toml",
        "6b452f0556117778331afa6714308a552da626b64772c8f5240d81a1adae2bf4",
    ),
    (
        "dynamic_weighted.toml",
        "35bad15f46607200cdf05eca3021825e8efd99b2c5383e5683f7dd2a3e97f581",
    ),
    (
        "protocol_comparison.toml",
        "8879a98b1a02b06146649a4a3a7d01a1dc5bae5ae1606b2a391ad651d7f6d89d",
    ),
    (
        "theorem1_scaling.toml",
        "2d826c741ca5f9398773b5d9599f1b812013e1e0a4063cef1d6562e19e8fa64e",
    ),
    (
        "topologies.toml",
        "3cdc26532925dafa0daa972ff96ca21cab26e11514a860f48e0954562015015f",
    ),
];

/// Every spec shipped in `specs/` parses and expands into a non-empty grid
/// of distinct cells whose keys match the pinned digest, so a doc that
/// points at one never points at a file the CLI would reject, and a store
/// built from one stays addressable.
#[test]
fn shipped_specs_parse_and_resolve_their_cells() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 7,
        "expected the shipped specs, found {paths:?}"
    );
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap();
        let spec = spec_from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let cells = spec
            .cells()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!cells.is_empty(), "{}: empty grid", path.display());
        let mut keys: Vec<String> = cells.iter().map(|c| cell_key(spec.seed, c)).collect();
        let file = path.file_name().unwrap().to_str().unwrap();
        let pinned = SHIPPED_KEY_DIGESTS
            .iter()
            .find(|(name, _)| *name == file)
            .unwrap_or_else(|| panic!("{file}: no pinned key digest"));
        assert_eq!(
            sha256_hex(keys.join("\n").as_bytes()),
            pinned.1,
            "{file}: cell keys changed"
        );
        keys.sort();
        keys.dedup();
        assert_eq!(
            keys.len(),
            cells.len(),
            "{}: duplicate cells",
            path.display()
        );
    }
}
