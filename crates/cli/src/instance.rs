//! What `live run` and `serve run` share: the eight flags that describe an
//! online instance, and the seeds both draw its random inputs from.
//!
//! ```text
//! [--n N] [--m M] [--workload W] [--arrival A] [--service MU]
//! [--policy P] [--topology T] [--seed S]
//! ```
//!
//! The seeds are the instance's identity: the same flags give the same
//! initial configuration, graph and RNG streams to the sequential, sharded
//! and serving engines.

use std::str::FromStr;

use rls_core::Config;
use rls_live::Instance;
use rls_rng::{rng_from_seed, DefaultRng};

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

/// The instance an online run or server boots, and its master seed.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceArgs {
    /// The instance (`serve run` also sets its weights and speeds).
    pub spec: Instance,
    /// Master seed: the engine's own stream.
    pub seed: u64,
}

impl Default for InstanceArgs {
    fn default() -> Self {
        Self {
            spec: Instance::default(),
            seed: 0xC0FFEE,
        }
    }
}

impl InstanceArgs {
    /// Set `flag` from the value that follows it, if it is one of the
    /// eight instance flags; `Ok(false)` leaves it to the caller.
    pub(crate) fn parse_flag(&mut self, flag: &str, flags: &mut Flags) -> Result<bool, String> {
        let spec = &mut self.spec;
        match flag {
            "--n" => spec.n = flags.value(flag)?,
            "--m" => spec.m = flags.value(flag)?,
            "--workload" => spec.workload = flags.value(flag)?,
            "--arrival" => spec.arrival = flags.value(flag)?,
            "--service" => spec.service = Some(flags.value(flag)?),
            "--policy" => spec.policy = flags.value(flag)?,
            "--topology" => spec.topology = flags.value(flag)?,
            "--seed" => self.seed = flags.value(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The initial configuration, drawn from `seed ^ 0x1717`.
    pub(crate) fn initial(&self) -> Result<Config, String> {
        let rng = &mut rng_from_seed(self.seed ^ 0x1717);
        self.spec.initial(rng).map_err(str_of)
    }

    /// The seed the topology's adjacency is built from.
    pub(crate) fn graph_seed(&self) -> u64 {
        self.seed ^ 0x6AF1
    }

    /// The stream a weighted instance draws its initial balls' weights
    /// from.
    pub(crate) fn weight_rng(&self) -> DefaultRng {
        rng_from_seed(self.seed ^ 0x4E16)
    }
}
