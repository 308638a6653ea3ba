//! # rls-core — the paper's model: balls, bins, moves and the RLS rule
//!
//! This crate implements Section 3 of *Tight Load Balancing via Randomized
//! Local Search* (Berenbrink, Kling, Liaw, Mehrabian; IPDPS 2017): load
//! configurations over `n` bins and `m` balls, the discrepancy measure and
//! balance predicates, the classification of ball movements into protocol
//! moves / destructive moves / neutral moves (Figure 1), the RLS decision
//! rule in both its `≥` form (this paper) and its strict `>` form
//! ([Goldberg 2004] and [Ganesh et al. 2012]), and the bookkeeping the
//! analysis relies on: overloaded balls and the Phase-2 potential
//! `3A − k − h`.
//!
//! Everything here is deterministic and purely combinatorial; randomness
//! (clocks, destination sampling, adversaries) lives in `rls-sim`.
//!
//! ## Quick tour
//!
//! ```
//! use rls_core::{Config, Move, RlsRule, RlsVariant};
//!
//! // Four bins, twelve balls, far from balanced.
//! let mut cfg = Config::from_loads(vec![9, 1, 1, 1]).unwrap();
//! assert_eq!(cfg.average(), 3.0);
//! assert_eq!(cfg.discrepancy(), 6.0);
//!
//! // Ball in bin 0 samples bin 2: RLS permits the move.
//! let rule = RlsRule::new(RlsVariant::Geq);
//! let mv = Move::new(0, 2);
//! assert!(rule.permits(&cfg, mv));
//! cfg.apply(mv).unwrap();
//! assert_eq!(cfg.loads(), &[8, 1, 2, 1]);
//! ```

// One audited `unsafe`: the cache-prefetch hint in `index.rs`.
#![deny(unsafe_code)]
#![deny(missing_docs)]

mod config;
mod error;
mod index;
mod membership;
mod moves;
mod policy;
mod potential;
mod rls;
mod tracker;

pub use config::{BinCounts, Config};
pub use error::{ConfigError, MoveError};
pub use index::{Descent, LoadIndex};
pub use membership::{Membership, MembershipRecord, MembershipSnapshot};
pub use moves::{Move, MoveClass};
pub use policy::{BinState, HeteroRingContext, RebalancePolicy, RingContext, RingDecision};
pub use potential::{phase2_potential, Phase2Snapshot};
pub use rls::{RlsRule, RlsVariant};
pub use tracker::LoadTracker;
