//! What `live run` and `serve run` share: the eight flags that describe an
//! online instance, and the one recipe both build an engine from.
//!
//! ```text
//! [--n N] [--m M] [--workload W] [--arrival A] [--service MU]
//! [--policy P] [--topology T] [--seed S]
//! ```
//!
//! The recipe is the instance's identity: the same flags give the same
//! initial configuration, graph and RNG streams to the sequential, sharded
//! and serving engines.

use std::str::FromStr;

use rls_core::{Config, RebalancePolicy};
use rls_graph::Topology;
use rls_live::{LiveEngine, LiveParams};
use rls_rng::rng_from_seed;
use rls_workloads::{ArrivalProcess, Workload};

pub(crate) fn str_of(e: impl ToString) -> String {
    e.to_string()
}

/// A command line walked as flags and their values.
pub(crate) struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    pub(crate) fn new(raw: &'a [String]) -> Self {
        Flags(raw.iter())
    }

    /// Take and parse the value following `flag`.
    pub(crate) fn value<T>(&mut self, flag: &str) -> Result<T, String>
    where
        T: FromStr,
        T::Err: ToString,
    {
        let text = self.0.next().ok_or(format!("{flag} needs a value"))?;
        text.parse()
            .map_err(|e: T::Err| format!("bad {flag} value `{text}`: {}", e.to_string()))
    }
}

impl<'a> Iterator for Flags<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }
}

/// The instance an online run or server boots.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceArgs {
    /// Number of bins.
    pub n: usize,
    /// Target population (`ρ = m/n`).
    pub m: u64,
    /// Initial-configuration family.
    pub workload: Workload,
    /// Arrival process (per-bin rate).
    pub arrival: ArrivalProcess,
    /// Per-ball departure rate override (`None` = hold the population).
    pub service: Option<f64>,
    /// Rebalance policy applied per ring.
    pub policy: RebalancePolicy,
    /// Topology ring destinations are sampled from.
    pub topology: Topology,
    /// Master seed.
    pub seed: u64,
}

impl Default for InstanceArgs {
    fn default() -> Self {
        Self {
            n: 64,
            m: 512,
            workload: Workload::Balanced,
            arrival: ArrivalProcess::Poisson { rate_per_bin: 1.0 },
            service: None,
            policy: RebalancePolicy::rls(),
            topology: Topology::Complete,
            seed: 0xC0FFEE,
        }
    }
}

/// An instance's starting point, before an engine is chosen.
#[derive(Debug)]
pub(crate) struct Boot {
    /// Arrival law and per-ball departure rate.
    pub(crate) params: LiveParams,
    /// The workload's initial configuration.
    pub(crate) initial: Config,
    /// Seed the topology's adjacency is built from.
    pub(crate) graph_seed: u64,
}

impl InstanceArgs {
    /// Set `flag` from the value that follows it, if it is one of the
    /// eight instance flags; `Ok(false)` leaves it to the caller.
    pub(crate) fn parse_flag(&mut self, flag: &str, flags: &mut Flags) -> Result<bool, String> {
        match flag {
            "--n" => self.n = flags.value(flag)?,
            "--m" => self.m = flags.value(flag)?,
            "--workload" => self.workload = flags.value(flag)?,
            "--arrival" => self.arrival = flags.value(flag)?,
            "--service" => self.service = Some(flags.value(flag)?),
            "--policy" => self.policy = flags.value(flag)?,
            "--topology" => self.topology = flags.value(flag)?,
            "--seed" => self.seed = flags.value(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The boot recipe: dynamics from `--service` (or the M/M/∞ rate that
    /// holds the population at `m`), the initial configuration drawn from
    /// `seed ^ 0x1717`, the graph from `seed ^ 0x6AF1`.  The engine's own
    /// stream is `seed` itself.
    pub(crate) fn boot(&self) -> Result<Boot, String> {
        let params = match self.service {
            Some(service_rate) => {
                let params = LiveParams {
                    arrivals: self.arrival,
                    service_rate,
                };
                params.validate().map_err(str_of)?;
                params
            }
            None => LiveParams::balanced(self.arrival, self.n, self.m).map_err(str_of)?,
        };
        let initial = self
            .workload
            .generate(self.n, self.m, &mut rng_from_seed(self.seed ^ 0x1717))
            .map_err(str_of)?;
        Ok(Boot {
            params,
            initial,
            graph_seed: self.seed ^ 0x6AF1,
        })
    }

    /// The sequential (unit-weight, uniform-speed) engine over
    /// [`boot`](Self::boot).
    pub(crate) fn live_engine(&self) -> Result<LiveEngine, String> {
        let boot = self.boot()?;
        LiveEngine::with_policy(
            boot.initial,
            boot.params,
            self.policy,
            self.topology,
            boot.graph_seed,
        )
        .map_err(str_of)
    }
}
