//! # rls-analysis — the paper's analytical toolkit, executable
//!
//! The experiments do not only measure balancing times; they compare them
//! with what the paper *predicts*.  This crate turns the quantitative
//! content of the paper into functions:
//!
//! * [`harmonic`](mod@harmonic) — harmonic numbers `H_k`, which give the exact expected
//!   time of the sequential-emptying arguments (Lemma 8 and the `Ω(ln n)`
//!   lower bound `H_m − H_∅`).
//! * [`bounds`] — the upper-bound forms of Theorem 1 and of each lemma
//!   (Phase 1/2/3, the `m ≤ n` case), exposed as explicit formulas with
//!   their leading constants so measured/predicted ratios can be tabulated.
//! * [`lower_bounds`] — the two lower-bound formulas of Section 4.
//! * [`makespan`] — certified lower/upper bounds on the optimal maximum
//!   normalized load of weighted balls on heterogeneous-speed bins, used
//!   by the online heterogeneity experiments to report a *proved*
//!   optimality gap.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bounds;
pub mod harmonic;
pub mod lower_bounds;
pub mod makespan;

pub use bounds::TheoremOneBound;
pub use harmonic::harmonic;
pub use lower_bounds::{lower_bound_all_in_one_bin, lower_bound_one_over_one_under};
pub use makespan::{makespan_bound, makespan_bound_unit, MakespanBound};
