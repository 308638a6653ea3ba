//! E12, E13, E14, E17: protocol comparisons from the related-work section
//! and the variant-equivalence remark — expressed as campaign grids whose
//! protocol axis spans the related-work implementations.

use rls_campaign::{run_cached, CampaignSpec, CellOutcome, MExpr, ProtocolSpec, Spec};
use rls_workloads::Workload;

use crate::table::{fmt_f64, Table};
use crate::Scale;

/// E12: RLS versus the CRS pair-sampling protocol from two-choices starts.
pub fn versus_crs(scale: Scale, seed: u64) -> Table {
    let (ns, trials, budget) = match scale {
        Scale::Quick => (vec![16usize, 32], 5, 400_000u64),
        Scale::Full => (vec![32usize, 64, 128, 256], 15, 20_000_000u64),
    };
    // Two campaigns: RLS takes its budget through the stop condition,
    // CRS carries it in the protocol spec (mixing both in one grid is
    // rejected by the engine, by design).
    let mut rls_spec = CampaignSpec::new("e12-versus-crs-rls", seed, trials);
    rls_spec.grid.n = ns.clone();
    rls_spec.grid.m = vec![MExpr::PerBin(1.0)];
    // RLS starts from the same two-choices placement family CRS assumes
    // (CRS draws its own placement because it needs the candidate sets).
    rls_spec.grid.workload = vec![Spec(Workload::TwoChoices)];
    rls_spec.stop.max_activations = Some(budget);
    let rls_report = run_cached(rls_spec).expect("E12 RLS cells are always runnable");

    let mut crs_spec = CampaignSpec::new("e12-versus-crs-crs", seed, trials);
    crs_spec.grid.n = ns.clone();
    crs_spec.grid.m = vec![MExpr::PerBin(1.0)];
    crs_spec.grid.protocol = vec![ProtocolSpec::CrsTwoChoices { steps: budget }];
    let crs_report = run_cached(crs_spec).expect("E12 CRS cells are always runnable");

    let mut table = Table::new(
        "E12: RLS vs CRS pair-sampling local search (two-choices starts, m = n)",
        &[
            "n",
            "protocol",
            "mean steps/activations",
            "goal rate",
            "mean final disc",
        ],
    );
    for &n in &ns {
        let rls = find(&rls_report.outcomes, n, "rls-geq");
        let crs = find(
            &crs_report.outcomes,
            n,
            &format!("crs-two-choices:{budget}"),
        );
        for outcome in [rls, crs] {
            table.push_row(vec![
                n.to_string(),
                protocol_label(&outcome.cell.protocol.to_string()),
                fmt_f64(outcome.result.activations.mean),
                fmt_f64(outcome.result.goal_rate),
                fmt_f64(outcome.result.final_discrepancy.mean),
            ]);
        }
    }
    table.push_note("Section 2: from a two-choices placement RLS needs O(n^2) activations; CRS needs polynomially many pair samples and can only move balls between their two candidates, so it may stall above perfect balance.");
    table
}

/// E13: RLS versus the synchronous selfish protocols, varying `m/n` to show
/// the `m`-dependence of the synchronous protocols.
pub fn versus_selfish(scale: Scale, seed: u64) -> Table {
    let (n, factors, trials, round_budget) = match scale {
        Scale::Quick => (16usize, vec![8u64, 64], 5, 2_000u64),
        Scale::Full => (128usize, vec![8u64, 64, 512], 15, 20_000u64),
    };
    let mut spec = CampaignSpec::new("e13-versus-selfish", seed, trials);
    spec.grid.n = vec![n];
    spec.grid.m = factors.iter().map(|&f| MExpr::PerBin(f as f64)).collect();
    spec.grid.protocol = vec![
        ProtocolSpec::RlsGeq,
        ProtocolSpec::SelfishGlobal {
            rounds: round_budget,
        },
        ProtocolSpec::SelfishDistributed {
            rounds: round_budget,
        },
    ];
    spec.grid.workload = vec![Spec(Workload::UniformRandom)];
    spec.stop.target_discrepancy = 1.0;
    let report = run_cached(spec).expect("E13 grid cells are always runnable");

    let mut table = Table::new(
        "E13: RLS vs synchronous selfish load balancing (uniform-random starts)",
        &[
            "n",
            "m/n",
            "protocol",
            "cost",
            "unit",
            "goal rate",
            "mean final disc",
        ],
    );
    for &factor in &factors {
        let m = factor * n as u64;
        for outcome in report.outcomes.iter().filter(|o| o.cell.m == m) {
            table.push_row(vec![
                n.to_string(),
                factor.to_string(),
                protocol_label(&outcome.cell.protocol.to_string()),
                fmt_f64(outcome.result.cost.mean),
                outcome.result.unit.clone(),
                fmt_f64(outcome.result.goal_rate),
                fmt_f64(outcome.result.final_discrepancy.mean),
            ]);
        }
    }
    table.push_note("Costs use different units (continuous time vs synchronous rounds; one RLS time unit activates ~m balls, like one round).  The point is the trend in m/n: RLS's time falls as m grows (n^2/m term), synchronous protocols keep an m-dependence in their end-game.");
    table
}

/// E14: RLS versus threshold load balancing.
pub fn versus_threshold(scale: Scale, seed: u64) -> Table {
    let (n, factor, trials, rounds) = match scale {
        Scale::Quick => (16usize, 8u64, 5, 400u64),
        Scale::Full => (128usize, 16u64, 15, 5_000u64),
    };
    let mut table = Table::new(
        "E14: RLS vs threshold load balancing (all-in-one-bin starts)",
        &[
            "protocol",
            "target disc",
            "mean cost",
            "unit",
            "goal rate",
            "mean final disc",
        ],
    );
    let coarse_target = 4.0 * (n as f64).ln();
    // Two campaigns sharing one grid shape: the stop target is campaign-
    // wide, so the coarse and perfect targets are separate (cached) specs.
    for (target, label) in [(coarse_target, "O(ln n)"), (0.0, "perfect")] {
        let mut spec = CampaignSpec::new("e14-versus-threshold", seed, trials);
        spec.grid.n = vec![n];
        spec.grid.m = vec![MExpr::PerBin(factor as f64)];
        spec.grid.protocol = vec![
            ProtocolSpec::RlsGeq,
            ProtocolSpec::ThresholdAverage { rounds },
        ];
        spec.stop.target_discrepancy = target;
        let report = run_cached(spec).expect("E14 grid cells are always runnable");
        for outcome in &report.outcomes {
            table.push_row(vec![
                protocol_label(&outcome.cell.protocol.to_string()),
                label.into(),
                fmt_f64(outcome.result.cost.mean),
                outcome.result.unit.clone(),
                fmt_f64(outcome.result.goal_rate),
                fmt_f64(outcome.result.final_discrepancy.mean),
            ]);
        }
    }
    table.push_note("Threshold balancing reaches coarse balance quickly but rarely reaches perfect balance within its round budget; RLS always does (E14's qualitative claim).");
    table
}

/// E17: the `≥` and strict `>` variants have the same balancing-time
/// distribution.
pub fn variant_equivalence(scale: Scale, seed: u64) -> Table {
    let (ns, factor, trials) = match scale {
        Scale::Quick => (vec![16usize, 32], 8u64, 20),
        Scale::Full => (vec![64usize, 128, 256], 16u64, 60),
    };
    let mut spec = CampaignSpec::new("e17-variant-equivalence", seed, trials);
    spec.grid.n = ns.clone();
    spec.grid.m = vec![MExpr::PerBin(factor as f64)];
    spec.grid.protocol = vec![ProtocolSpec::RlsGeq, ProtocolSpec::RlsStrict];
    let report = run_cached(spec).expect("E17 grid cells are always runnable");

    let mut table = Table::new(
        "E17: variant equivalence - >= (this paper) vs > ([12, 11])",
        &[
            "n",
            "m",
            "mean T (geq)",
            "mean T (strict)",
            "relative difference",
        ],
    );
    for &n in &ns {
        let geq = find(&report.outcomes, n, "rls-geq");
        let strict = find(&report.outcomes, n, "rls-strict");
        let (gm, sm) = (geq.result.cost.mean, strict.result.cost.mean);
        table.push_row(vec![
            n.to_string(),
            geq.cell.m.to_string(),
            fmt_f64(gm),
            fmt_f64(sm),
            fmt_f64((gm - sm).abs() / gm),
        ]);
    }
    table.push_note("Section 3 remark: because balls and bins are identical, taking or skipping neutral moves does not change the balancing-time law; relative differences should be within Monte-Carlo noise.");
    table
}

fn find<'r>(outcomes: &'r [CellOutcome], n: usize, protocol: &str) -> &'r CellOutcome {
    outcomes
        .iter()
        .find(|o| o.cell.n == n && o.cell.protocol.to_string() == protocol)
        .expect("every grid point ran")
}

/// Table label for a protocol (strip budget parameters: they are stated in
/// the title/notes, and the historical tables used bare names).
fn protocol_label(protocol: &str) -> String {
    protocol.split(':').next().unwrap_or(protocol).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_rls_reaches_perfect_balance() {
        let t = versus_crs(Scale::Quick, 11);
        for row in t.rows.iter().filter(|r| r[1] == "rls-geq") {
            let goal_rate: f64 = row[3].parse().unwrap();
            assert!(
                goal_rate > 0.9,
                "RLS failed from two-choices starts: {row:?}"
            );
        }
    }

    #[test]
    fn e13_rls_always_reaches_one_balance() {
        let t = versus_selfish(Scale::Quick, 11);
        let rls_rows: Vec<_> = t.rows.iter().filter(|r| r[2] == "rls-geq").collect();
        assert_eq!(rls_rows.len(), 2);
        for row in rls_rows {
            let goal_rate: f64 = row[5].parse().unwrap();
            assert!(goal_rate > 0.9);
        }
    }

    #[test]
    fn e14_threshold_struggles_at_perfect_balance() {
        let t = versus_threshold(Scale::Quick, 11);
        let rls_perfect: f64 = t
            .rows
            .iter()
            .find(|r| r[0] == "rls-geq" && r[1] == "perfect")
            .unwrap()[4]
            .parse()
            .unwrap();
        assert!(rls_perfect > 0.9);
        let threshold_perfect: f64 = t
            .rows
            .iter()
            .find(|r| r[0] == "threshold-average" && r[1] == "perfect")
            .unwrap()[4]
            .parse()
            .unwrap();
        // Threshold protocols should clearly trail RLS at the perfect-balance
        // target.
        assert!(threshold_perfect <= rls_perfect);
    }

    #[test]
    fn e17_variants_agree_within_noise() {
        let t = variant_equivalence(Scale::Quick, 11);
        for row in &t.rows {
            let rel: f64 = row[4].parse().unwrap();
            assert!(rel < 0.5, "variants diverge: {row:?}");
        }
    }
}
