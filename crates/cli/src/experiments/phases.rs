//! E8, E9, E10: the three phases of the analysis, measured separately.
//!
//! Each phase is a campaign over the worst-case start of that phase, with
//! first-hit tracking for the intermediate balance thresholds.  E9 and E10
//! use per-`n` grids because their starting workloads depend on `n`
//! (`offset ≈ 4 ln n` block imbalance, `n/4` over/under pairs).

use rls_analysis::bounds::{phase1_time_bound, phase2_time_bound, phase3_time_bound};
use rls_campaign::{run_cached, CampaignSpec, CellOutcome, HitSpec, MExpr, Spec};
use rls_workloads::Workload;

use crate::table::{fmt_f64, Table};
use crate::Scale;

fn sizes(scale: Scale) -> (Vec<usize>, u64, usize) {
    match scale {
        Scale::Quick => (vec![16, 32, 64], 16, 6),
        Scale::Full => (vec![128, 256, 512, 1024], 64, 20),
    }
}

/// The `8 ln n` coarse-balance threshold the Phase-1 experiment records.
const PHASE1_LN_FACTOR: f64 = 8.0;

/// E8: Phase 1 — time from the worst-case start to an `O(ln n)`-balanced
/// configuration.
pub fn phase1(scale: Scale, seed: u64) -> Table {
    let (ns, factor, trials) = sizes(scale);
    let mut spec = CampaignSpec::new("e8-phase1", seed, trials);
    spec.grid.n = ns;
    spec.grid.m = vec![MExpr::PerBin(factor as f64)];
    spec.hits = vec![HitSpec::LnFactor(PHASE1_LN_FACTOR)];
    let report = run_cached(spec).expect("E8 grid cells are always runnable");

    let mut table = Table::new(
        "E8: Phase 1 - time to reach an O(ln n)-balanced configuration",
        &[
            "n",
            "m",
            "mean t(disc<=8 ln n)",
            "Phase 1 bound (2 ln n)",
            "ratio",
        ],
    );
    for outcome in &report.outcomes {
        let (n, m) = (outcome.cell.n, outcome.cell.m);
        let mean = outcome.result.hit_means[0];
        let bound = phase1_time_bound(n);
        table.push_row(vec![
            n.to_string(),
            m.to_string(),
            fmt_f64(mean),
            fmt_f64(bound),
            fmt_f64(mean / bound),
        ]);
    }
    table.push_note(
        "Lemmas 10-13: O(ln n) regardless of m; the ratio should stay below a small constant.",
    );
    table
}

/// Run a one-cell-per-`n` campaign family (used when the workload itself
/// depends on `n`).
fn per_n_outcomes(
    name: &str,
    seed: u64,
    trials: usize,
    factor: u64,
    points: impl Iterator<Item = (usize, Workload)>,
    hits: Vec<HitSpec>,
) -> Vec<CellOutcome> {
    points
        .map(|(n, workload)| {
            let mut spec = CampaignSpec::new(name, seed, trials);
            spec.grid.n = vec![n];
            spec.grid.m = vec![MExpr::PerBin(factor as f64)];
            spec.grid.workload = vec![Spec(workload)];
            spec.hits = hits.clone();
            let report = run_cached(spec).expect("phase cells are always runnable");
            report
                .outcomes
                .into_iter()
                .next()
                .expect("one cell per spec")
        })
        .collect()
}

/// E9: Phase 2 — time from an `O(ln n)`-balanced configuration to a
/// 1-balanced one.
pub fn phase2(scale: Scale, seed: u64) -> Table {
    let (ns, factor, trials) = sizes(scale);
    // Start from the Lemma-13 block shape with offset ≈ 4 ln n (an
    // O(ln n)-balanced configuration), the worst case for Phase 2.
    let points = ns.iter().map(|&n| {
        let offset = ((4.0 * (n as f64).ln()) as u64).min(factor - 1).max(1);
        (n, Workload::BlockImbalance { offset })
    });
    let outcomes = per_n_outcomes(
        "e9-phase2",
        seed,
        trials,
        factor,
        points,
        vec![HitSpec::Absolute(1.0)],
    );

    let mut table = Table::new(
        "E9: Phase 2 - time from O(ln n)-balanced to 1-balanced",
        &["n", "m", "mean t", "Phase 2 bound", "ratio"],
    );
    for outcome in &outcomes {
        let (n, m) = (outcome.cell.n, outcome.cell.m);
        let mean = outcome.result.hit_means[0];
        let bound = phase2_time_bound(n, m);
        table.push_row(vec![
            n.to_string(),
            m.to_string(),
            fmt_f64(mean),
            fmt_f64(bound),
            fmt_f64(mean / bound),
        ]);
    }
    table.push_note("Lemmas 14-16: O(n/avg) = O(n^2/m) plus an O(ln^2 n / avg) start-up term.");
    table
}

/// E10: Phase 3 — time from a 1-balanced configuration to perfect balance.
pub fn phase3(scale: Scale, seed: u64) -> Table {
    let (ns, factor, trials) = sizes(scale);
    // A 1-balanced start with n/4 over/under pairs.
    let points = ns
        .iter()
        .map(|&n| (n, Workload::OverUnderPairs { pairs: n / 4 }));
    let outcomes = per_n_outcomes("e10-phase3", seed, trials, factor, points, Vec::new());

    let mut table = Table::new(
        "E10: Phase 3 - time from 1-balanced to perfectly balanced",
        &["n", "m", "pairs", "mean t", "Phase 3 bound", "ratio"],
    );
    for outcome in &outcomes {
        let (n, m) = (outcome.cell.n, outcome.cell.m);
        let pairs = n / 4;
        let mean = outcome.result.cost.mean;
        let bound = phase3_time_bound(n, m);
        table.push_row(vec![
            n.to_string(),
            m.to_string(),
            pairs.to_string(),
            fmt_f64(mean),
            fmt_f64(bound),
            fmt_f64(mean / bound),
        ]);
    }
    table.push_note("Lemma 17: E[T] <= sum_A n/(avg A^2) = O(n/avg); with many pairs the early decrements are fast and the last pair dominates.");
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_campaign::{CellSpec, ProtocolSpec, StopSpec};
    use rls_graph::Topology;

    /// The phase decomposition is ordered: coarse balance before 1-balance
    /// before perfect balance, within a single cell's hit tracking.
    #[test]
    fn phase_times_are_ordered() {
        let cell = CellSpec {
            n: 16,
            m: 256,
            protocol: ProtocolSpec::RlsGeq,
            workload: Spec(Workload::AllInOneBin),
            topology: Spec(Topology::Complete),
            churn: None,
            stop: StopSpec::default(),
            hits: vec![HitSpec::LnFactor(PHASE1_LN_FACTOR), HitSpec::Absolute(1.0)],
            trials: 3,
            dynamic: None,
        };
        let result = rls_campaign::run_cell(&cell, 1).unwrap();
        let t_log = result.hit_means[0];
        let t_one = result.hit_means[1];
        let t_perfect = result.cost.mean;
        assert!(t_log <= t_one + 1e-12);
        assert!(t_one <= t_perfect + 1e-12);
        assert!(t_perfect > 0.0);
    }

    #[test]
    fn e8_ratio_is_bounded() {
        let t = phase1(Scale::Quick, 5);
        for row in &t.rows {
            let ratio: f64 = row[4].parse().unwrap();
            assert!(ratio < 5.0, "Phase 1 took unexpectedly long: {row:?}");
        }
    }

    #[test]
    fn e9_and_e10_ratios_do_not_exceed_bounds_grossly() {
        for table in [phase2(Scale::Quick, 5), phase3(Scale::Quick, 5)] {
            for row in &table.rows {
                let ratio: f64 = row[row.len() - 1].parse().unwrap();
                assert!(ratio < 3.0, "{}: {row:?}", table.title);
            }
        }
    }

    #[test]
    fn e10_start_is_one_balanced() {
        // The over-under-pairs workload itself guarantees a 1-balanced
        // start; check the generated shape directly.
        let cfg = Workload::OverUnderPairs { pairs: 4 }
            .generate(16, 256, &mut rls_rng::rng_from_seed(1))
            .unwrap();
        assert!(cfg.discrepancy() <= 1.0);
        let t = phase3(Scale::Quick, 5);
        assert_eq!(t.row_count(), 3);
    }
}
