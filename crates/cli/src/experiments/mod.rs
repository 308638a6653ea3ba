//! The experiment catalogue (E1–E17 of `docs/EXPERIMENTS.md`).

mod comparisons;
mod dml;
mod extensions;
mod lower_bounds;
mod phases;
mod scaling;

use serde::{Deserialize, Serialize};

use crate::table::Table;

/// How large the experiment instances are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Laptop-debug scale: finishes in seconds, used by tests and benches.
    Quick,
    /// The sizes recorded in EXPERIMENTS.md (run with `--release`).
    Full,
}

impl Scale {
    /// Parse from a command-line word.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// The experiments of `docs/EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ExperimentId {
    E1Theorem1Scaling,
    E2WhpTail,
    E3LowerBounds,
    E4Figure1Moves,
    E5DmlDominance,
    E6SparseCase,
    E7Divisibility,
    E8Phase1,
    E9Phase2,
    E10Phase3,
    E11PriorBound,
    E12VersusCrs,
    E13VersusSelfish,
    E14VersusThreshold,
    E15Extensions,
    E16Topologies,
    E17VariantEquivalence,
}

impl ExperimentId {
    /// All experiments in numeric order.
    pub fn all() -> Vec<ExperimentId> {
        use ExperimentId::*;
        vec![
            E1Theorem1Scaling,
            E2WhpTail,
            E3LowerBounds,
            E4Figure1Moves,
            E5DmlDominance,
            E6SparseCase,
            E7Divisibility,
            E8Phase1,
            E9Phase2,
            E10Phase3,
            E11PriorBound,
            E12VersusCrs,
            E13VersusSelfish,
            E14VersusThreshold,
            E15Extensions,
            E16Topologies,
            E17VariantEquivalence,
        ]
    }

    /// The short CLI name (`e1`, `e2`, …).
    pub fn name(&self) -> &'static str {
        use ExperimentId::*;
        match self {
            E1Theorem1Scaling => "e1",
            E2WhpTail => "e2",
            E3LowerBounds => "e3",
            E4Figure1Moves => "e4",
            E5DmlDominance => "e5",
            E6SparseCase => "e6",
            E7Divisibility => "e7",
            E8Phase1 => "e8",
            E9Phase2 => "e9",
            E10Phase3 => "e10",
            E11PriorBound => "e11",
            E12VersusCrs => "e12",
            E13VersusSelfish => "e13",
            E14VersusThreshold => "e14",
            E15Extensions => "e15",
            E16Topologies => "e16",
            E17VariantEquivalence => "e17",
        }
    }

    /// One-line description (printed by `--list`).
    pub fn description(&self) -> &'static str {
        use ExperimentId::*;
        match self {
            E1Theorem1Scaling => "Theorem 1: balancing time scales as ln n + n^2/m",
            E2WhpTail => "Theorem 1 (w.h.p.): the 1-1/n quantile scales as ln n (1 + n^2/m)",
            E3LowerBounds => "Section 4 lower bounds: all-in-one-bin and one-over/one-under",
            E4Figure1Moves => "Figure 1: classification of RLS / neutral / destructive moves",
            E5DmlDominance => "Lemma 2: destructive adversaries stochastically dominate plain RLS",
            E6SparseCase => "Lemma 8: m <= n balances in expected O(n)",
            E7Divisibility => "Lemma 9: non-divisible m costs only an extra O(ln n)",
            E8Phase1 => "Lemmas 10-13: O(ln n) time to an O(ln n)-balanced configuration",
            E9Phase2 => "Lemmas 14-16: O(n/avg) time from O(ln n)-balanced to 1-balanced",
            E10Phase3 => "Lemma 17: O(n/avg) time from 1-balanced to perfectly balanced",
            E11PriorBound => "vs [11]: no ln^2 n term (log-log slope about 1 in ln n)",
            E12VersusCrs => {
                "vs [9]: RLS activations vs CRS pair-sampling steps from two-choices starts"
            }
            E13VersusSelfish => "vs [10],[4]: synchronous selfish protocols and their m-dependence",
            E14VersusThreshold => "vs [1],[6]: threshold balancing stalls before perfect balance",
            E15Extensions => "Section 7 future work: weighted balls and heterogeneous bin speeds",
            E16Topologies => {
                "Section 7 future work: RLS on cycle/torus/hypercube/expander topologies"
            }
            E17VariantEquivalence => {
                "Section 3 remark: >= and > variants have equal balancing times"
            }
        }
    }

    /// Parse a CLI word (`e1` … `e17`).
    pub fn parse(s: &str) -> Option<ExperimentId> {
        ExperimentId::all().into_iter().find(|e| e.name() == s)
    }
}

/// Run one experiment at the given scale with the given master seed.
pub fn run_experiment(id: ExperimentId, scale: Scale, seed: u64) -> Table {
    use ExperimentId::*;
    match id {
        E1Theorem1Scaling => scaling::theorem1_scaling(scale, seed),
        E2WhpTail => scaling::whp_tail(scale, seed),
        E3LowerBounds => lower_bounds::lower_bounds(scale, seed),
        E4Figure1Moves => dml::figure1_moves(),
        E5DmlDominance => dml::dml_dominance(scale, seed),
        E6SparseCase => lower_bounds::sparse_case(scale, seed),
        E7Divisibility => lower_bounds::divisibility(scale, seed),
        E8Phase1 => phases::phase1(scale, seed),
        E9Phase2 => phases::phase2(scale, seed),
        E10Phase3 => phases::phase3(scale, seed),
        E11PriorBound => scaling::prior_bound(scale, seed),
        E12VersusCrs => comparisons::versus_crs(scale, seed),
        E13VersusSelfish => comparisons::versus_selfish(scale, seed),
        E14VersusThreshold => comparisons::versus_threshold(scale, seed),
        E15Extensions => extensions::weighted_and_speeds(scale, seed),
        E16Topologies => extensions::topologies(scale, seed),
        E17VariantEquivalence => comparisons::variant_equivalence(scale, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_round_trip_through_parse() {
        for id in ExperimentId::all() {
            assert_eq!(ExperimentId::parse(id.name()), Some(id));
            assert!(!id.description().is_empty());
        }
        assert_eq!(ExperimentId::parse("nope"), None);
        assert_eq!(ExperimentId::all().len(), 17);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("medium"), None);
    }

    /// Every experiment must run at quick scale and produce at least one row.
    /// This is the harness-level smoke test the integration suite builds on.
    #[test]
    fn every_experiment_runs_at_quick_scale() {
        for id in ExperimentId::all() {
            let table = run_experiment(id, Scale::Quick, 12345);
            assert!(
                table.row_count() > 0,
                "experiment {} produced an empty table",
                id.name()
            );
            assert!(!table.render().is_empty());
        }
    }
}
