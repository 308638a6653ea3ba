//! # rls-cli — the experiment harness
//!
//! Every experiment listed in `docs/EXPERIMENTS.md` is a function in
//! [`experiments`] that returns a [`Table`]; the `rls-experiments` binary
//! selects which to run and prints them.  The functions are also what the
//! integration tests call, so the printed tables and the tested code are
//! one and the same.
//!
//! Experiments take a [`Scale`]: `Quick` keeps every run laptop-scale (used
//! by `cargo test` and the benches), `Full` uses the sizes recorded in
//! EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod campaign_cmd;
pub mod experiments;
pub mod instance;
pub mod live_cmd;
pub mod serve_cmd;
pub mod table;

pub use campaign_cmd::{execute_campaign, parse_campaign_args, CampaignCommand};
pub use experiments::{run_experiment, ExperimentId, Scale};
pub use live_cmd::{execute_live, parse_live_args, LiveCommand};
pub use serve_cmd::{execute_serve, parse_serve_args, ServeCommand};
pub use table::Table;
