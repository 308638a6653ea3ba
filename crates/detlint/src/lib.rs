//! `rls-detlint`: the workspace's determinism/concurrency lint pass and
//! mini interleaving model checker.
//!
//! Every claim this reproduction makes — bit-identical replay,
//! thread-count-invariant `ShardedEngine` trajectories, observers that
//! never perturb a trajectory — rests on source-level determinism rules
//! that tests can only sample.  This crate enforces them statically on
//! every file of every first-party crate:
//!
//! | rule | what it catches |
//! |------|-----------------|
//! | D001 | `HashMap`/`HashSet` in trajectory crates (iteration order) |
//! | D002 | wall-clock reads outside obs/serve/campaign timing taps |
//! | D003 | ambient entropy outside `rls-rng` |
//! | D004 | unannotated floats in trajectory-state crates |
//! | D005 | `unsafe` without a `// SAFETY:` comment |
//! | D006 | `SeqCst`, or `Relaxed` without an `// ORDERING:` comment |
//! | D007 | truncating `as` casts on load/weight integers |
//!
//! Run it with `cargo run -p rls-detlint -- --workspace`; suppress a
//! justified site with `// detlint: allow(D00x) <reason>`.  The full
//! rationale table lives in `docs/DETERMINISM.md`.
//!
//! The [`check`] module is the dynamic half: a deterministic-DFS
//! interleaving model checker with a release/acquire memory model that
//! exhaustively verifies the `FlightRecorder` seqlock and the
//! `Histogram` record protocol at small sizes — and demonstrably fails
//! when an ordering is weakened.
//!
//! ```
//! use rls_detlint::rules::lint_source;
//! let findings = lint_source("core", "demo.rs", "use std::collections::HashMap;");
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule.code(), "D001");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod check;
pub mod lexer;
pub mod rules;
pub mod scan;
