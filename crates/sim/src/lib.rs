//! # rls-sim — continuous-time simulation of sequential-activation protocols
//!
//! The paper's process is a continuous-time Markov chain: each of the `m`
//! balls carries an independent exponential clock of rate 1, and on each
//! ring the ball samples a uniform destination bin and applies the RLS rule.
//! This crate provides everything needed to *measure* that process:
//!
//! * [`Simulation`] — the superposition engine: because the minimum of `m`
//!   independent rate-1 exponential clocks is an exponential of rate `m` and
//!   the ringing ball is uniform, one event costs O(1) regardless of `m`.
//! * [`clock::ClockEngine`] — the literal per-ball clock implementation
//!   (binary heap of ring times).  Same law, used to cross-validate the
//!   superposition engine.
//! * [`Adversary`] implementations — the destructive-move adversaries of
//!   Lemma 2, used by the DML experiments.
//! * [`observer`] — trajectory recorders, phase trackers and move counters.
//! * [`stopping`] — stopping conditions (perfect balance, `x`-balance,
//!   event/time budgets).
//! * [`stats`] — summary statistics, quantiles, empirical CDFs, linear
//!   regression for scaling fits and a stochastic-dominance test.
//!
//! ## Example
//!
//! ```
//! use rls_core::{Config, RlsRule};
//! use rls_sim::{RlsPolicy, Simulation, StopWhen};
//! use rls_rng::rng_from_seed;
//!
//! let initial = Config::all_in_one_bin(16, 160).unwrap();
//! let mut sim = Simulation::new(initial, RlsPolicy::new(RlsRule::paper())).unwrap();
//! let outcome = sim.run(&mut rng_from_seed(7), StopWhen::perfectly_balanced());
//! assert!(outcome.reached_goal);
//! assert!(sim.config().is_perfectly_balanced());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adversary;
pub mod clock;
pub mod coupling;
pub mod engine;
pub mod events;
pub mod observer;
pub mod parallel;
pub mod stats;
pub mod stopping;

pub use adversary::{Adversary, NoAdversary, PileUpAdversary, RandomDestructiveAdversary};
pub use engine::{Policy, RlsPolicy, RunOutcome, SimError, Simulation};
pub use events::Event;
pub use observer::{MoveCounter, Observer, PhaseTracker, TimeSeries};
pub use stats::Summary;
pub use stopping::StopWhen;
