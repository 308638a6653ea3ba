//! # rls-workloads — initial configurations for the experiments
//!
//! The paper's theorems hold from *arbitrary* initial configurations, but
//! each part of the analysis (and each experiment in EXPERIMENTS.md) is
//! exercised hardest by a specific family of starts:
//!
//! * [`Workload::AllInOneBin`] — the worst case the Phase-1 analysis reduces
//!   to via the Destructive Majorization Lemma, and the instance behind the
//!   `Ω(ln n)` lower bound.
//! * [`Workload::OneOverOneUnder`] — the `Ω(n²/m)` lower-bound instance of
//!   Section 4: one bin at `∅ + 1`, one at `∅ − 1`, the rest exactly at `∅`.
//! * [`Workload::UniformRandom`] — every ball thrown into a uniformly random
//!   bin (the classical balls-into-bins start, discrepancy `Θ(√(m ln n / n))`
//!   for large `m/n`).
//! * [`Workload::TwoChoices`] — greedy power-of-two-choices placement, the
//!   start assumed by the Czumaj–Riley–Scheideler protocol (experiment E12).
//! * [`Workload::Zipf`] — a skewed, heavy-tailed placement.
//! * [`Workload::Balanced`] — already perfectly balanced (sanity baseline).
//! * [`Workload::BlockImbalance`] — half the bins at `∅ + x`, half at
//!   `∅ − x`, the shape the Phase-1 proof of Lemma 13 reduces to.
//! * [`Workload::OverUnderPairs`] — a 1-balanced start with `k` over/under
//!   bin pairs, the Phase-3 (Lemma 17) shape.
//!
//! Dynamic (online) instances additionally name an [`ArrivalProcess`] — the
//! law of the ball arrival stream the live engine (`rls-live`) superposes
//! with the RLS clocks: Poisson singles, adversarial bursts, or a hotspot
//! stream biased toward one bin.
//!
//! Every type here — workloads, arrival processes, weight laws, speed
//! profiles and churn processes — owns its one spec-string form
//! (`Display` + `FromStr`, e.g. `zipf:1.5`, `bursts:2:16`), so campaign
//! specs (`rls-campaign`) and the CLI name them with the same text.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arrivals;
mod churn;
mod generators;
mod hetero;

pub use arrivals::ArrivalProcess;
pub use churn::{ChurnEvent, ChurnProcess};
pub use generators::{GeneratorError, Workload};
pub use hetero::{SpeedProfile, WeightDist};

#[cfg(test)]
mod tests {
    use super::*;
    use rls_rng::rng_from_seed;

    #[test]
    fn every_workload_generates_the_requested_sizes() {
        let mut rng = rng_from_seed(1);
        let n = 16;
        let m = 160;
        for w in [
            Workload::AllInOneBin,
            Workload::UniformRandom,
            Workload::TwoChoices,
            Workload::Balanced,
            Workload::OneOverOneUnder,
            Workload::OverUnderPairs { pairs: 3 },
            Workload::Zipf { exponent: 1.2 },
            Workload::BlockImbalance { offset: 4 },
        ] {
            let cfg = w.generate(n, m, &mut rng).unwrap();
            assert_eq!(cfg.n(), n, "{w:?}");
            assert_eq!(cfg.m(), m, "{w:?}");
        }
    }
}
