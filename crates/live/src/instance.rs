//! One online instance, and the one place an engine is built from it or
//! refuses it.
//!
//! An [`Instance`] names everything that decides an online run's law: the
//! size, the initial workload, the arrival law, the departure rate, the
//! ring policy, the topology, the ball weights, the bin speeds and the
//! membership churn.  Its random inputs (the workload's stream, the graph
//! seed, the stream initial ball weights are drawn from, the engine's own
//! stream) stay with the caller, so every caller keeps its stream layout:
//! the CLI derives them from one `--seed`, campaign cells from their
//! `StreamFactory` components.

// detlint: allow-file(D004) the service rate and the sharded slice are
// parameters passed unchanged to the engines, whose clock arithmetic is
// justified in engine.rs and sharded.rs.

use rls_core::{Config, RebalancePolicy};
use rls_graph::Topology;
use rls_rng::Rng64;
use rls_workloads::{
    ArrivalProcess, ChurnProcess, GeneratorError, SpeedProfile, WeightDist, Workload,
};

use crate::{LiveEngine, LiveError, LiveParams, ShardedEngine};

/// An online instance, before its random inputs are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instance {
    /// Number of bins.
    pub n: usize,
    /// Target population (`ρ = m/n`).
    pub m: u64,
    /// Initial-configuration family.
    pub workload: Workload,
    /// Arrival process (per-bin rate).
    pub arrival: ArrivalProcess,
    /// Per-ball departure rate (`None` = the M/M/∞ rate holding the
    /// population at `m`).
    pub service: Option<f64>,
    /// Rebalance policy applied per ring.
    pub policy: RebalancePolicy,
    /// Topology ring destinations are sampled from.
    pub topology: Topology,
    /// Law of ball weights (`unit` = the paper's balls).
    pub weights: WeightDist,
    /// Bin-speed profile (`uniform` = the paper's bins).
    pub speeds: SpeedProfile,
    /// Membership churn (`none` = a fixed set of bins).
    pub churn: ChurnProcess,
}

impl Default for Instance {
    /// The paper's process at 64 bins and 512 balls: a balanced start,
    /// Poisson arrivals at rate 1 per bin, RLS on the complete graph,
    /// unit balls, uniform speeds, no churn.
    fn default() -> Self {
        Self {
            n: 64,
            m: 512,
            workload: Workload::Balanced,
            arrival: ArrivalProcess::Poisson { rate_per_bin: 1.0 },
            service: None,
            policy: RebalancePolicy::rls(),
            topology: Topology::Complete,
            weights: WeightDist::Unit,
            speeds: SpeedProfile::Uniform,
            churn: ChurnProcess::None,
        }
    }
}

impl Instance {
    /// The dynamics: the arrival law with the `service` departure rate,
    /// or, when it is unset, with the M/M/∞ rate `λ/m`.
    pub fn params(&self) -> Result<LiveParams, LiveError> {
        match self.service {
            Some(service_rate) => {
                let params = LiveParams {
                    arrivals: self.arrival,
                    service_rate,
                };
                params.validate()?;
                Ok(params)
            }
            None => LiveParams::balanced(self.arrival, self.n, self.m),
        }
    }

    /// The workload's initial configuration, drawn from `rng`.
    pub fn initial<R: Rng64 + ?Sized>(&self, rng: &mut R) -> Result<Config, GeneratorError> {
        self.workload.generate(self.n, self.m, rng)
    }

    /// The sequential engine over `initial`, its graph built from
    /// `graph_seed`.  The paper's shape (unit weights, uniform speeds)
    /// gets the plain engine and draws nothing from `weight_rng`; any
    /// other shape gets the heterogeneous engine, which draws the initial
    /// balls' weights from `weight_rng`.  Churn is superposed last.
    pub fn live_engine<R: Rng64 + ?Sized>(
        &self,
        initial: Config,
        graph_seed: u64,
        weight_rng: &mut R,
    ) -> Result<LiveEngine, LiveError> {
        let params = self.params()?;
        let mut engine = if self.weights.is_unit() && self.speeds.is_uniform() {
            LiveEngine::with_policy(initial, params, self.policy, self.topology, graph_seed)?
        } else {
            LiveEngine::with_hetero(
                initial,
                params,
                self.policy,
                self.topology,
                graph_seed,
                self.weights,
                self.speeds.speeds(self.n),
                weight_rng,
            )?
        };
        // `none` is the engine's default: setting it changes nothing.
        engine.set_churn(self.churn)?;
        Ok(engine)
    }

    /// The sharded engine over `initial` (see [`ShardedEngine::with_policy`]
    /// for `shards`, `slice` and `seed`).  It runs unit balls on a fixed
    /// set of uniform bins under Poisson arrivals; any other weights,
    /// speeds, churn or arrival law is refused with
    /// [`LiveError::Unsupported`] before anything is built.
    pub fn sharded_engine(
        &self,
        initial: Config,
        graph_seed: u64,
        shards: usize,
        slice: f64,
        seed: u64,
    ) -> Result<ShardedEngine, LiveError> {
        let refuse = |axis, value: String| Err(LiveError::unsupported("sharded", axis, value));
        if !self.weights.is_unit() {
            return refuse("weights", self.weights.to_string());
        }
        if !self.speeds.is_uniform() {
            return refuse("speeds", self.speeds.to_string());
        }
        if self.churn != ChurnProcess::None {
            return refuse("churn", self.churn.to_string());
        }
        // The arrival law is checked by the engine itself, first.
        ShardedEngine::with_policy(
            initial,
            self.params()?,
            self.policy,
            self.topology,
            graph_seed,
            shards,
            slice,
            seed,
        )
    }
}
