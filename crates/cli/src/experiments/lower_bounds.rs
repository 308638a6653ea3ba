//! E3, E6, E7: lower-bound instances, the sparse case and divisibility —
//! all expressed as campaign grids over `(n, m, workload)` and served from
//! the campaign results store.

use rls_analysis::bounds::{divisibility_overhead_bound, sparse_case_expected_bound};
use rls_analysis::{lower_bound_all_in_one_bin, lower_bound_one_over_one_under};
use rls_campaign::{run_cached, CampaignSpec, MExpr, Spec};
use rls_workloads::Workload;

use crate::table::{fmt_f64, Table};
use crate::Scale;

/// E3: the two lower-bound instances of Section 4.
pub fn lower_bounds(scale: Scale, seed: u64) -> Table {
    let (ns, trials) = match scale {
        Scale::Quick => (vec![16usize, 32, 64], 8),
        Scale::Full => (vec![128usize, 256, 512, 1024], 30),
    };
    let mut spec = CampaignSpec::new("e3-lower-bounds", seed, trials);
    spec.grid.n = ns.clone();
    spec.grid.m = vec![MExpr::PerBin(8.0)];
    spec.grid.workload = vec![Spec(Workload::AllInOneBin), Spec(Workload::OneOverOneUnder)];
    let report = run_cached(spec).expect("E3 grid cells are always runnable");

    let mut table = Table::new(
        "E3: Section 4 lower bounds",
        &["instance", "n", "m", "mean T", "lower bound", "T/bound"],
    );
    // One row pair per n (the grid enumerates per workload; the table
    // interleaves instances like the paper's presentation).
    for &n in &ns {
        for workload in [Workload::AllInOneBin, Workload::OneOverOneUnder] {
            let outcome = report
                .outcomes
                .iter()
                .find(|o| o.cell.n == n && o.cell.workload.0 == workload)
                .expect("every grid point ran");
            let m = outcome.cell.m;
            let bound = match workload {
                Workload::AllInOneBin => lower_bound_all_in_one_bin(n, m),
                _ => lower_bound_one_over_one_under(n, m),
            };
            table.push_row(vec![
                outcome.cell.workload.to_string(),
                n.to_string(),
                m.to_string(),
                fmt_f64(outcome.result.cost.mean),
                fmt_f64(bound),
                fmt_f64(outcome.result.cost.mean / bound),
            ]);
        }
    }
    table.push_note("All-in-one-bin: E[T] >= H_m - H_avg = Omega(ln n).  One-over/one-under: E[T] = n/(avg+1) exactly, so its ratio should be ~1.");
    table
}

/// E6: Lemma 8 — with `m ≤ n` the expected balancing time is `O(n)`.
pub fn sparse_case(scale: Scale, seed: u64) -> Table {
    let (ns, trials) = match scale {
        Scale::Quick => (vec![16usize, 32, 64], 8),
        Scale::Full => (vec![128usize, 256, 512, 1024, 2048], 30),
    };
    let mut spec = CampaignSpec::new("e6-sparse-case", seed, trials);
    spec.grid.n = ns;
    spec.grid.m = vec![MExpr::PerBin(0.5), MExpr::PerBin(1.0)];
    let report = run_cached(spec).expect("E6 grid cells are always runnable");

    let mut table = Table::new(
        "E6: sparse case (Lemma 8) - m <= n balances in expected O(n)",
        &["n", "m", "mean T", "Lemma 8 bound", "T/bound", "T/n"],
    );
    // The original presentation lists both m per n together; sort the grid
    // (which enumerates m-expression outer) accordingly.
    let mut outcomes: Vec<_> = report.outcomes.iter().collect();
    outcomes.sort_by_key(|o| (o.cell.n, o.cell.m));
    for outcome in outcomes {
        let (n, m) = (outcome.cell.n, outcome.cell.m);
        let mean = outcome.result.cost.mean;
        let bound = sparse_case_expected_bound(n, m).max(1.0);
        table.push_row(vec![
            n.to_string(),
            m.to_string(),
            fmt_f64(mean),
            fmt_f64(bound),
            fmt_f64(mean / bound),
            fmt_f64(mean / n as f64),
        ]);
    }
    table.push_note("Lemma 8: E[T] <= sum_{r=2}^{m} n/(r(r-1)) < 2n; T/n should stay bounded by a small constant.");
    table
}

/// E7: Lemma 9 — non-divisible `m` only costs an extra `O(ln n)`.
pub fn divisibility(scale: Scale, seed: u64) -> Table {
    let (n, trials) = match scale {
        Scale::Quick => (32usize, 8),
        Scale::Full => (512usize, 30),
    };
    let base_m = 8 * n as u64;
    let remainders: Vec<u64> = match scale {
        Scale::Quick => vec![0, 1, n as u64 / 4, n as u64 / 2, n as u64 - 1],
        Scale::Full => vec![0, 1, n as u64 / 8, n as u64 / 4, n as u64 / 2, n as u64 - 1],
    };
    let mut spec = CampaignSpec::new("e7-divisibility", seed, trials);
    spec.grid.n = vec![n];
    spec.grid.m = remainders
        .iter()
        .map(|r| MExpr::Absolute(base_m + r))
        .collect();
    let report = run_cached(spec).expect("E7 grid cells are always runnable");

    let mut table = Table::new(
        "E7: divisibility overhead (Lemma 9) - m = 8n + r",
        &[
            "n",
            "r",
            "m",
            "mean T",
            "T - T(r=0)",
            "Lemma 9 overhead bound",
        ],
    );
    let base_time = report.outcomes[0].result.cost.mean;
    for (outcome, &r) in report.outcomes.iter().zip(&remainders) {
        let m = outcome.cell.m;
        debug_assert_eq!(m, base_m + r);
        let mean = outcome.result.cost.mean;
        table.push_row(vec![
            n.to_string(),
            r.to_string(),
            m.to_string(),
            fmt_f64(mean),
            fmt_f64(mean - base_time),
            fmt_f64(divisibility_overhead_bound(n, m)),
        ]);
    }
    table.push_note("Lemma 9: the extra time over the divisible case is O(ln n) regardless of r.");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_ratios_are_at_least_one_ish() {
        // Measured time must not be meaningfully below a *lower* bound.
        // (The one-over-one-under instance has mean exactly at its bound
        // with near-exponential scatter, so its sample ratios get the wider
        // window of the next test.)
        let t = lower_bounds(Scale::Quick, 3);
        let rows: Vec<_> = t.rows.iter().filter(|r| r[0] == "all-in-one-bin").collect();
        assert_eq!(rows.len(), 3);
        for row in rows {
            let ratio: f64 = row[5].parse().unwrap();
            assert!(ratio > 0.7, "measured time below the lower bound: {row:?}");
        }
    }

    #[test]
    fn e3_one_over_one_under_ratio_is_near_one() {
        let t = lower_bounds(Scale::Quick, 3);
        let ratios: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[0] == "one-over-one-under")
            .map(|r| r[5].parse().unwrap())
            .collect();
        assert_eq!(ratios.len(), 3);
        // The expected time is exactly the bound; sample means over few
        // trials scatter around 1.
        for ratio in ratios {
            assert!((0.3..3.5).contains(&ratio), "ratio {ratio} far from 1");
        }
    }

    #[test]
    fn e6_time_is_linear_not_worse() {
        let t = sparse_case(Scale::Quick, 3);
        for row in &t.rows {
            let per_n: f64 = row[5].parse().unwrap();
            assert!(per_n < 4.0, "T/n = {per_n} exceeds the Lemma 8 regime");
        }
    }

    #[test]
    fn e6_rows_are_grouped_by_n() {
        let t = sparse_case(Scale::Quick, 3);
        let ns: Vec<usize> = t.rows.iter().map(|r| r[0].parse().unwrap()).collect();
        let mut sorted = ns.clone();
        sorted.sort_unstable();
        assert_eq!(ns, sorted);
    }

    #[test]
    fn e7_has_one_row_per_remainder() {
        let t = divisibility(Scale::Quick, 3);
        assert_eq!(t.row_count(), 5);
    }
}
