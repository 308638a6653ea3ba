//! Executing a single grid cell: `trials` independent runs, each with its
//! own derived random stream, aggregated into a [`CellResult`].

use rls_core::{RebalancePolicy, RlsRule, RlsVariant};
use rls_graph::{DestSampler, Topology};
use rls_live::{Instance, Reconvergence, SteadyState, DEFAULT_RECONV_THRESHOLD};
use rls_protocols::crs_local_search::{CrsLocalSearch, CrsPlacement};
use rls_protocols::{GreedyD, SelfishDistributed, SelfishGlobal, ThresholdProtocol};
use rls_rng::{Rng64, SplitMix64, StreamFactory, StreamId};
use rls_sim::observer::PhaseTracker;
use rls_sim::stats::Summary;
use rls_sim::{NoAdversary, RlsPolicy, Simulation, StopWhen};
use rls_workloads::ChurnProcess;
use serde::{Deserialize, Serialize};

use crate::hash::sha256_u64;
use crate::spec::{CellSpec, DynamicSpec, ProtocolSpec};
use crate::CampaignError;

/// Stream-id components within one trial: the workload draw and the
/// protocol dynamics are independent streams, so changing one never
/// perturbs the other.
const COMPONENT_WORKLOAD: u64 = 0;
const COMPONENT_DYNAMICS: u64 = 1;
const COMPONENT_GRAPH: u64 = 2;

/// Derive the cell's master seed from the campaign seed and the cell's
/// content (its canonical JSON).  Two properties matter:
///
/// * the same cell always maps to the same seed, no matter where it sits in
///   the grid or how many other cells exist — so cached results stay valid
///   under grid growth; and
/// * any change to the cell spec (or the campaign seed) remixes the seed
///   through [`SplitMix64`], decorrelating the streams.
pub fn cell_seed(campaign_seed: u64, cell: &CellSpec) -> u64 {
    let canonical = serde_json::to_canonical_string(cell);
    SplitMix64::mix(campaign_seed ^ sha256_u64(canonical.as_bytes()))
}

/// Aggregated results of one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// The unit `costs` is measured in (`time`, `rounds`, `steps`,
    /// `placements`) — see [`ProtocolSpec::cost_unit`].
    pub unit: String,
    /// Per-trial costs, in trial order (kept so quantiles and dominance
    /// tests can be computed after the fact without re-running).
    pub costs: Vec<f64>,
    /// Summary of `costs`.
    pub cost: Summary,
    /// Summary of per-trial activation counts.
    pub activations: Summary,
    /// Summary of per-trial migration counts.
    pub migrations: Summary,
    /// Summary of per-trial final discrepancies.
    pub final_discrepancy: Summary,
    /// Fraction of trials that reached the target balance (rather than
    /// exhausting a budget).
    pub goal_rate: f64,
    /// Mean first-hit time for each entry of the cell's `hits` list.
    pub hit_means: Vec<f64>,
    /// Steady-state aggregates (dynamic cells only).
    pub dynamic: Option<DynamicAggregate>,
}

/// Steady-state aggregates of a dynamic cell's trials.  `cost` in the
/// surrounding [`CellResult`] carries the per-trial time-averaged gap (unit
/// `"gap"`); this struct adds the overload quantiles and work-per-arrival.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicAggregate {
    /// Time-averaged gap per trial (same samples as `costs`).
    pub mean_gap: Summary,
    /// Time-weighted p99 overload per trial.
    pub p99_overload: Summary,
    /// Largest overload seen in any trial's window.
    pub max_overload: u64,
    /// Rebalance migrations per arriving ball, per trial.
    pub moves_per_arrival: Summary,
    /// Elastic-membership aggregates (cells with a churn axis only).
    pub churn: Option<ChurnAggregate>,
}

/// Re-convergence aggregates of a churned dynamic cell's trials: how often
/// the membership scaled, how quickly the gap returned to within
/// [`DEFAULT_RECONV_THRESHOLD`] of the average afterwards, and where the
/// live bin count ended up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnAggregate {
    /// Scale events (joins + drains) per trial.
    pub scale_events: Summary,
    /// Per-trial mean time-to-re-converge, over trials with at least one
    /// completed episode.
    pub reconv_time: Summary,
    /// Fraction of all scale events (across trials) that re-converged
    /// inside the run (`1.0` when no events occurred).
    pub reconverged_rate: f64,
    /// Live bin count at the end of each trial.
    pub live_bins: Summary,
}

/// Run every trial of a cell and aggregate.
pub fn run_cell(cell: &CellSpec, seed: u64) -> Result<CellResult, CampaignError> {
    if cell.churn.is_some() && cell.dynamic.is_none() {
        return Err(CampaignError::unsupported(
            "the churn axis requires a [dynamic] section (offline cells have static membership)",
        ));
    }
    if cell.dynamic.is_some() {
        return run_dynamic_cell(cell, seed);
    }
    // Dynamic cells run the live engine over the cell's whole
    // (protocol, topology) pair; the static dispatch below is offline-only.
    match cell.protocol {
        ProtocolSpec::RlsGeq | ProtocolSpec::RlsStrict => run_simulation_cell(cell, seed),
        _ if cell.topology.0 != Topology::Complete => Err(CampaignError::unsupported(format!(
            "protocol `{}` is only available on the complete topology",
            cell.protocol
        ))),
        _ => run_protocol_cell(cell, seed),
    }
}

/// Map a cell's protocol axis onto the live engine's per-ring rebalance
/// policy.  The budget parameters some protocols carry (`rounds`, `steps`)
/// bound *offline* runs; a dynamic cell is bounded by its measurement
/// window instead, so they are inert here (they still participate in the
/// cell's cache identity).  The synchronous selfish protocols have no
/// per-ring form and stay offline-only.
fn dynamic_policy(protocol: ProtocolSpec) -> Result<RebalancePolicy, CampaignError> {
    match protocol {
        ProtocolSpec::RlsGeq => Ok(RebalancePolicy::Rls {
            variant: RlsVariant::Geq,
        }),
        ProtocolSpec::RlsStrict => Ok(RebalancePolicy::Rls {
            variant: RlsVariant::Strict,
        }),
        ProtocolSpec::GreedyD { d } => {
            let d = u32::try_from(d).map_err(|_| {
                CampaignError::spec(format!("greedy choice count {d} does not fit in u32"))
            })?;
            let policy = RebalancePolicy::GreedyD { d };
            policy.validate().map_err(CampaignError::spec)?;
            Ok(policy)
        }
        ProtocolSpec::ThresholdAverage { .. } => Ok(RebalancePolicy::ThresholdAvg),
        ProtocolSpec::CrsTwoChoices { .. } => Ok(RebalancePolicy::CrsPair),
        other @ (ProtocolSpec::SelfishGlobal { .. } | ProtocolSpec::SelfishDistributed { .. }) => {
            Err(CampaignError::unsupported(format!(
                "protocol `{other}` is synchronous-rounds-only and has no per-ring form; \
                 dynamic cells support rls-geq, rls-strict, greedy, threshold-average and \
                 crs-two-choices"
            )))
        }
    }
}

/// A dynamic (online) cell: the live engine at target load `ρ = m/n`,
/// measured over the spec's steady-state window, on the cell's
/// `(protocol, topology)` pair.
fn run_dynamic_cell(cell: &CellSpec, seed: u64) -> Result<CellResult, CampaignError> {
    let dynamic: &DynamicSpec = cell
        .dynamic
        .as_ref()
        .expect("caller dispatches on dynamic cells");
    dynamic.validate()?;
    let policy = dynamic_policy(cell.protocol)?;
    if !cell.hits.is_empty() {
        return Err(CampaignError::unsupported(
            "hit tracking does not apply to dynamic cells (no stopping time)",
        ));
    }
    if cell.stop != crate::spec::StopSpec::default() {
        // A dynamic cell runs for warmup + window; a stop condition cannot
        // be honoured and silently ignoring it would poison the cache
        // identity.
        return Err(CampaignError::unsupported(
            "dynamic cells ignore [stop]; remove it from the spec",
        ));
    }
    let instance = Instance {
        n: cell.n,
        m: cell.m,
        workload: cell.workload.0,
        arrival: dynamic.arrival.0,
        service: None,
        policy,
        topology: cell.topology.0,
        weights: dynamic.weight_dist(),
        speeds: dynamic.speed_profile(),
        churn: cell.churn.map_or(ChurnProcess::None, |c| c.0),
    };
    instance
        .params()
        .map_err(|e| CampaignError::spec(format!("cell dynamics: {e}")))?;
    let horizon = dynamic.warmup + dynamic.window;

    let factory = StreamFactory::new(seed);
    // One adjacency per cell (the same instance for every trial, like the
    // offline graph cells): the engine rebuilds it from this seed.
    let graph_seed = factory
        .rng(StreamId::trial(0).with_component(COMPONENT_GRAPH))
        .next_u64();
    let mut acc = Accumulator::new(cell, 0);
    acc.unit = "gap".to_string();
    let mut p99 = Vec::with_capacity(cell.trials);
    let mut moves = Vec::with_capacity(cell.trials);
    let mut max_overload = 0u64;
    let mut scale_events = Vec::new();
    let mut reconv_times = Vec::new();
    let mut live_bins = Vec::new();
    let (mut total_events, mut total_reconverged) = (0u64, 0u64);
    for trial in 0..cell.trials as u64 {
        let mut wl_rng = factory.rng(StreamId::trial(trial).with_component(COMPONENT_WORKLOAD));
        let initial = instance
            .initial(&mut wl_rng)
            .map_err(|e| CampaignError::spec(format!("cell workload: {e}")))?;
        // Initial ball weights, if any, come from the workload stream,
        // leaving the dynamics stream identical to the unit cell's.
        let mut engine = instance
            .live_engine(initial, graph_seed, &mut wl_rng)
            .map_err(|e| CampaignError::spec(format!("cell instance: {e}")))?;
        let mut run_rng = factory.rng(StreamId::trial(trial).with_component(COMPONENT_DYNAMICS));
        // Churned cells fan out to a second observer measuring the
        // time-to-re-converge after each scale event.
        let summary = if cell.churn.is_some() {
            let mut obs = (
                SteadyState::new(dynamic.warmup),
                Reconvergence::new(DEFAULT_RECONV_THRESHOLD),
            );
            engine.run_until(horizon, &mut run_rng, &mut obs);
            let (steady, reconv) = obs;
            let episodes = reconv.summary();
            scale_events.push(episodes.scale_events as f64);
            if episodes.reconverged > 0 {
                reconv_times.push(episodes.mean_time);
            }
            total_events += episodes.scale_events;
            total_reconverged += episodes.reconverged;
            live_bins.push(engine.live_count() as f64);
            steady.finish(engine.time())
        } else {
            let mut steady = SteadyState::new(dynamic.warmup);
            engine.run_until(horizon, &mut run_rng, &mut steady);
            steady.finish(engine.time())
        };
        let counters = engine.counters();
        acc.push(
            summary.mean_gap,
            counters.events as f64,
            counters.migrations as f64,
            engine.tracker().discrepancy(),
            true,
        );
        p99.push(summary.p99_overload);
        moves.push(summary.moves_per_arrival);
        max_overload = max_overload.max(summary.max_overload);
    }
    let mut result = acc.finish();
    result.dynamic = Some(DynamicAggregate {
        mean_gap: result.cost,
        p99_overload: Summary::from_samples(&p99),
        max_overload,
        moves_per_arrival: Summary::from_samples(&moves),
        churn: cell.churn.map(|_| ChurnAggregate {
            scale_events: Summary::from_samples(&scale_events),
            reconv_time: Summary::from_samples(&reconv_times),
            reconverged_rate: if total_events == 0 {
                1.0
            } else {
                total_reconverged as f64 / total_events as f64
            },
            live_bins: Summary::from_samples(&live_bins),
        }),
    });
    Ok(result)
}

/// The paper's continuous-time process via the superposition engine, with
/// first-hit tracking, on any topology: the destination sampler is the
/// uniform draw on the complete graph and neighbour sampling otherwise.
fn run_simulation_cell(cell: &CellSpec, seed: u64) -> Result<CellResult, CampaignError> {
    let variant = match cell.protocol {
        ProtocolSpec::RlsGeq => RlsVariant::Geq,
        ProtocolSpec::RlsStrict => RlsVariant::Strict,
        _ => unreachable!("caller dispatches on protocol"),
    };
    let thresholds: Vec<f64> = cell.hits.iter().map(|h| h.resolve(cell.n)).collect();
    let mut stop = if cell.stop.target_discrepancy <= 0.0 {
        StopWhen::perfectly_balanced()
    } else {
        StopWhen::x_balanced(cell.stop.target_discrepancy)
    };
    if let Some(t) = cell.stop.max_time {
        stop = stop.with_max_time(t);
    }
    if let Some(a) = cell.stop.max_activations {
        stop = stop.with_max_activations(a);
    }

    let factory = StreamFactory::new(seed);
    // One graph instance per cell, shared by every trial.
    let mut graph_rng = factory.rng(StreamId::trial(0).with_component(COMPONENT_GRAPH));
    let sampler = DestSampler::build_with(cell.topology.0, cell.n, &mut graph_rng)
        .map_err(|e| CampaignError::spec(format!("cell topology: {e}")))?;
    let mut acc = Accumulator::new(cell, thresholds.len());
    for trial in 0..cell.trials as u64 {
        let mut wl_rng = factory.rng(StreamId::trial(trial).with_component(COMPONENT_WORKLOAD));
        let initial = cell
            .workload
            .0
            .generate(cell.n, cell.m, &mut wl_rng)
            .map_err(|e| CampaignError::spec(format!("cell workload: {e}")))?;
        let initial_disc = initial.discrepancy();

        let mut tracker = PhaseTracker::new(thresholds.clone());
        let policy = RlsPolicy::new(RlsRule::new(variant));
        let mut sim = Simulation::with_sampler(initial, policy, sampler.clone())
            .map_err(|e| CampaignError::spec(format!("cell instance: {e}")))?;
        let mut run_rng = factory.rng(StreamId::trial(trial).with_component(COMPONENT_DYNAMICS));
        let outcome = sim.run_with(&mut run_rng, stop, &mut NoAdversary, &mut tracker);

        for (i, &threshold) in thresholds.iter().enumerate() {
            // A threshold the run never crossed was either already
            // satisfied at the start (hit at time zero) or never reached
            // within the run (count the full stopping time).
            let hit = tracker.hit_time(i).unwrap_or(if initial_disc <= threshold {
                0.0
            } else {
                outcome.time
            });
            acc.hit_sums[i] += hit;
        }
        acc.push(
            outcome.time,
            outcome.activations as f64,
            outcome.migrations as f64,
            outcome.final_discrepancy,
            outcome.reached_goal,
        );
    }
    Ok(acc.finish())
}

/// The related-work protocols, reported through `ProtocolOutcome`.
fn run_protocol_cell(cell: &CellSpec, seed: u64) -> Result<CellResult, CampaignError> {
    if !cell.hits.is_empty() {
        return Err(CampaignError::unsupported(
            "hit tracking is only available for continuous-time RLS cells",
        ));
    }
    if cell.stop.max_time.is_some() || cell.stop.max_activations.is_some() {
        // These protocols carry their own budget in the protocol spec
        // (rounds / steps / choices); a stop budget cannot be applied, and
        // silently ignoring it would poison the cache identity.
        return Err(CampaignError::unsupported(format!(
            "protocol `{}` carries its own budget; stop.max_time/max_activations only apply \
             to rls cells — put the protocol in its own campaign if the grid mixes both",
            cell.protocol
        )));
    }
    let target = cell.stop.target_discrepancy;
    let factory = StreamFactory::new(seed);
    let mut acc = Accumulator::new(cell, 0);
    for trial in 0..cell.trials as u64 {
        let mut wl_rng = factory.rng(StreamId::trial(trial).with_component(COMPONENT_WORKLOAD));
        let mut run_rng = factory.rng(StreamId::trial(trial).with_component(COMPONENT_DYNAMICS));
        let out = match cell.protocol {
            ProtocolSpec::SelfishGlobal { rounds } => {
                let start = cell
                    .workload
                    .0
                    .generate(cell.n, cell.m, &mut wl_rng)
                    .map_err(|e| CampaignError::spec(format!("cell workload: {e}")))?;
                SelfishGlobal::new(rounds).run(&start, target, &mut run_rng)
            }
            ProtocolSpec::SelfishDistributed { rounds } => {
                let start = cell
                    .workload
                    .0
                    .generate(cell.n, cell.m, &mut wl_rng)
                    .map_err(|e| CampaignError::spec(format!("cell workload: {e}")))?;
                SelfishDistributed::new(rounds).run(&start, target, &mut run_rng)
            }
            ProtocolSpec::ThresholdAverage { rounds } => {
                let start = cell
                    .workload
                    .0
                    .generate(cell.n, cell.m, &mut wl_rng)
                    .map_err(|e| CampaignError::spec(format!("cell workload: {e}")))?;
                ThresholdProtocol::average_threshold(rounds).run(&start, target, &mut run_rng)
            }
            // CRS and greedy-d draw their own placements (CRS needs the
            // candidate structure of its two-choices start), so the
            // workload axis does not apply; the workload stream seeds the
            // placement instead.
            ProtocolSpec::CrsTwoChoices { steps } => CrsLocalSearch::new(
                CrsPlacement::TwoChoices,
                steps,
            )
            .run(cell.n, cell.m, target, &mut wl_rng),
            ProtocolSpec::GreedyD { d } => GreedyD::new(d).run(cell.n, cell.m, target, &mut wl_rng),
            ProtocolSpec::RlsGeq | ProtocolSpec::RlsStrict => {
                unreachable!("RLS cells dispatch to the simulation runner")
            }
        };
        acc.push(
            out.cost,
            out.activations as f64,
            out.migrations as f64,
            out.final_discrepancy,
            out.reached_goal,
        );
    }
    Ok(acc.finish())
}

/// Per-trial sample collector shared by the cell runners.
struct Accumulator {
    unit: String,
    trials: usize,
    costs: Vec<f64>,
    activations: Vec<f64>,
    migrations: Vec<f64>,
    discrepancies: Vec<f64>,
    goals: usize,
    hit_sums: Vec<f64>,
}

impl Accumulator {
    fn new(cell: &CellSpec, hit_count: usize) -> Self {
        Self {
            unit: cell.protocol.cost_unit().to_string(),
            trials: cell.trials,
            costs: Vec::with_capacity(cell.trials),
            activations: Vec::with_capacity(cell.trials),
            migrations: Vec::with_capacity(cell.trials),
            discrepancies: Vec::with_capacity(cell.trials),
            goals: 0,
            hit_sums: vec![0.0; hit_count],
        }
    }

    fn push(&mut self, cost: f64, activations: f64, migrations: f64, disc: f64, goal: bool) {
        self.costs.push(cost);
        self.activations.push(activations);
        self.migrations.push(migrations);
        self.discrepancies.push(disc);
        self.goals += goal as usize;
    }

    fn finish(self) -> CellResult {
        CellResult {
            unit: self.unit,
            cost: Summary::from_samples(&self.costs),
            activations: Summary::from_samples(&self.activations),
            migrations: Summary::from_samples(&self.migrations),
            final_discrepancy: Summary::from_samples(&self.discrepancies),
            goal_rate: self.goals as f64 / self.trials as f64,
            hit_means: self
                .hit_sums
                .iter()
                .map(|s| s / self.trials as f64)
                .collect(),
            costs: self.costs,
            dynamic: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{HitSpec, Spec, StopSpec};
    use rls_workloads::Workload;

    fn base_cell() -> CellSpec {
        CellSpec {
            n: 8,
            m: 64,
            protocol: ProtocolSpec::RlsGeq,
            workload: Spec(Workload::AllInOneBin),
            topology: Spec(Topology::Complete),
            churn: None,
            stop: StopSpec::default(),
            hits: Vec::new(),
            trials: 4,
            dynamic: None,
        }
    }

    #[test]
    fn seeds_are_content_addressed() {
        let a = base_cell();
        let mut b = base_cell();
        assert_eq!(cell_seed(7, &a), cell_seed(7, &b));
        b.m = 65;
        assert_ne!(cell_seed(7, &a), cell_seed(7, &b));
        assert_ne!(cell_seed(7, &a), cell_seed(8, &a));
    }

    #[test]
    fn simulation_cell_reaches_balance_deterministically() {
        let mut cell = base_cell();
        cell.hits = vec![HitSpec::LnFactor(4.0), HitSpec::Absolute(1.0)];
        let r1 = run_cell(&cell, 42).unwrap();
        let r2 = run_cell(&cell, 42).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1.costs.len(), 4);
        assert_eq!(r1.goal_rate, 1.0);
        assert_eq!(r1.unit, "time");
        // Hits are ordered: the coarse ln-threshold is crossed before
        // 1-balance, which is reached before the final stopping time.
        assert!(r1.hit_means[0] <= r1.hit_means[1]);
        assert!(r1.hit_means[1] <= r1.cost.mean);
        let r3 = run_cell(&cell, 43).unwrap();
        assert_ne!(r1.costs, r3.costs);
    }

    #[test]
    fn strict_variant_and_budget_cells_run() {
        let mut cell = base_cell();
        cell.protocol = ProtocolSpec::RlsStrict;
        let r = run_cell(&cell, 1).unwrap();
        assert_eq!(r.goal_rate, 1.0);

        let mut capped = base_cell();
        capped.m = 8 * 64;
        capped.stop.max_activations = Some(5);
        let r = run_cell(&capped, 1).unwrap();
        assert_eq!(r.goal_rate, 0.0);
        assert!(r.activations.max <= 5.0);
    }

    #[test]
    fn unsupported_stop_budgets_are_rejected_not_ignored() {
        // Protocols with their own budget reject a stop budget outright.
        let mut cell = base_cell();
        cell.protocol = ProtocolSpec::SelfishGlobal { rounds: 4000 };
        cell.stop.target_discrepancy = 1.0;
        cell.stop.max_activations = Some(100);
        let err = run_cell(&cell, 1).unwrap_err().to_string();
        assert!(err.contains("carries its own budget"), "{err}");
        cell.stop.max_activations = None;
        cell.stop.max_time = Some(5.0);
        assert!(run_cell(&cell, 1).is_err());

        // RLS cells on a sparse topology honour max_time: the run stops at
        // the first event past the cap.
        let mut graph = base_cell();
        graph.topology = Spec(Topology::Cycle);
        graph.m = 8 * 64;
        graph.stop.max_time = Some(0.05);
        let r = run_cell(&graph, 1).unwrap();
        assert_eq!(r.goal_rate, 0.0);
        assert!(r.cost.min >= 0.05, "{:?}", r.cost);
        assert!(r.cost.max < 0.1, "{:?}", r.cost);
    }

    #[test]
    fn graph_cells_run_both_rls_variants_with_hits() {
        let mut cell = base_cell();
        cell.topology = Spec(Topology::Cycle);
        cell.stop.max_activations = Some(200_000);
        let r = run_cell(&cell, 5).unwrap();
        assert_eq!(r.goal_rate, 1.0);
        assert_eq!(r.unit, "time");

        // rls-strict skips neutral moves, so on a sparse graph it can
        // settle where neighbours differ by one: its absorbing states are
        // only guaranteed to be diameter-balanced (4 on the 8-cycle).
        let mut strict = cell.clone();
        strict.protocol = ProtocolSpec::RlsStrict;
        strict.stop.target_discrepancy = 4.0;
        let r = run_cell(&strict, 5).unwrap();
        assert_eq!(r.goal_rate, 1.0);

        let mut with_hits = cell.clone();
        with_hits.hits = vec![HitSpec::LnFactor(4.0), HitSpec::Absolute(1.0)];
        let r = run_cell(&with_hits, 5).unwrap();
        assert_eq!(r.hit_means.len(), 2);
        assert!(
            r.hit_means.iter().all(|h| h.is_finite()),
            "{:?}",
            r.hit_means
        );
        assert!(r.hit_means[0] <= r.hit_means[1]);
        assert!(r.hit_means[1] <= r.cost.mean);

        // The non-RLS protocols have no graph form.
        let mut greedy = cell.clone();
        greedy.protocol = ProtocolSpec::GreedyD { d: 2 };
        greedy.stop = StopSpec::default();
        let err = run_cell(&greedy, 5).unwrap_err().to_string();
        assert!(
            err.contains("only available on the complete topology"),
            "{err}"
        );
    }

    #[test]
    fn protocol_cells_report_their_cost_units() {
        for (protocol, unit) in [
            (ProtocolSpec::SelfishGlobal { rounds: 4000 }, "rounds"),
            (ProtocolSpec::SelfishDistributed { rounds: 4000 }, "rounds"),
            (ProtocolSpec::ThresholdAverage { rounds: 4000 }, "rounds"),
            (ProtocolSpec::CrsTwoChoices { steps: 400_000 }, "steps"),
            (ProtocolSpec::GreedyD { d: 2 }, "placements"),
        ] {
            let mut cell = base_cell();
            cell.protocol = protocol;
            cell.workload = Spec(Workload::UniformRandom);
            cell.stop.target_discrepancy = 1.0;
            let r = run_cell(&cell, 9).unwrap_or_else(|e| panic!("{protocol}: {e}"));
            assert_eq!(r.unit, unit, "{protocol}");
            assert_eq!(r.costs.len(), 4);
        }
    }

    fn dynamic_cell() -> CellSpec {
        let mut cell = base_cell();
        cell.dynamic = Some(crate::spec::DynamicSpec {
            arrival: "poisson:2".parse().unwrap(),
            warmup: 2.0,
            window: 8.0,
            weights: None,
            speeds: None,
        });
        cell
    }

    #[test]
    fn dynamic_cells_report_steady_state_aggregates() {
        let cell = dynamic_cell();
        let r1 = run_cell(&cell, 77).unwrap();
        let r2 = run_cell(&cell, 77).unwrap();
        assert_eq!(r1, r2, "dynamic cells must be deterministic per seed");
        assert_eq!(r1.unit, "gap");
        assert_eq!(r1.goal_rate, 1.0);
        assert_eq!(r1.costs.len(), 4);
        let agg = r1.dynamic.as_ref().expect("dynamic aggregates present");
        assert_eq!(agg.mean_gap, r1.cost);
        assert!(agg.mean_gap.mean >= 0.0);
        assert!(agg.p99_overload.mean >= 0.0);
        assert!(agg.max_overload as f64 >= agg.p99_overload.mean);
        assert!(agg.moves_per_arrival.mean > 0.0);
        // The live engine actually processed churn.
        assert!(r1.activations.mean > 0.0);
        let r3 = run_cell(&cell, 78).unwrap();
        assert_ne!(r1.costs, r3.costs);
    }

    #[test]
    fn weighted_dynamic_cells_run_and_have_their_own_identity() {
        use rls_workloads::{SpeedProfile, WeightDist};

        let mut cell = dynamic_cell();
        let dynamic = cell.dynamic.as_mut().unwrap();
        dynamic.weights = Some(Spec(WeightDist::UniformInt { lo: 1, hi: 8 }));
        dynamic.speeds = Some(Spec(SpeedProfile::TwoClass {
            speed: 4,
            fraction: 0.25,
        }));
        let r1 = run_cell(&cell, 77).unwrap();
        let r2 = run_cell(&cell, 77).unwrap();
        assert_eq!(r1, r2, "weighted dynamic cells must be deterministic");
        assert_eq!(r1.unit, "gap");
        assert!(r1.dynamic.is_some());
        assert!(r1.activations.mean > 0.0);

        // The weighted cell is a different cache identity than the unit
        // cell, and a bad weight law surfaces as a spec error.
        assert_ne!(cell_seed(7, &cell), cell_seed(7, &dynamic_cell()));
        let mut bad = cell.clone();
        bad.dynamic.as_mut().unwrap().weights = Some(Spec(WeightDist::UniformInt { lo: 0, hi: 8 }));
        assert!(run_cell(&bad, 1).is_err());
    }

    #[test]
    fn dynamic_cells_reject_unsupported_combinations() {
        let mut with_hits = dynamic_cell();
        with_hits.hits = vec![HitSpec::Absolute(1.0)];
        let err = run_cell(&with_hits, 1).unwrap_err().to_string();
        assert!(err.contains("hit tracking"), "{err}");

        let mut with_stop = dynamic_cell();
        with_stop.stop.max_activations = Some(100);
        let err = run_cell(&with_stop, 1).unwrap_err().to_string();
        assert!(err.contains("[stop]"), "{err}");

        let mut wrong_protocol = dynamic_cell();
        wrong_protocol.protocol = ProtocolSpec::SelfishGlobal { rounds: 100 };
        let err = run_cell(&wrong_protocol, 1).unwrap_err().to_string();
        assert!(err.contains("no per-ring form"), "{err}");
        wrong_protocol.protocol = ProtocolSpec::SelfishDistributed { rounds: 100 };
        assert!(run_cell(&wrong_protocol, 1).is_err());

        // A choice count past u32 is rejected, not silently truncated to
        // a different policy than the spec names.
        let mut huge_d = dynamic_cell();
        huge_d.protocol = ProtocolSpec::GreedyD {
            d: u32::MAX as usize + 2,
        };
        let err = run_cell(&huge_d, 1).unwrap_err().to_string();
        assert!(err.contains("does not fit"), "{err}");
    }

    #[test]
    fn dynamic_cells_run_every_ring_policy_on_every_topology() {
        // The protocol and topology grid axes now apply to dynamic cells:
        // each pair runs deterministically and reports steady-state
        // aggregates.
        for protocol in [
            ProtocolSpec::RlsGeq,
            ProtocolSpec::RlsStrict,
            ProtocolSpec::GreedyD { d: 2 },
            ProtocolSpec::ThresholdAverage { rounds: 100 },
            ProtocolSpec::CrsTwoChoices { steps: 100 },
        ] {
            for topology in [Topology::Complete, Topology::Cycle] {
                let mut cell = dynamic_cell();
                cell.protocol = protocol;
                cell.topology = Spec(topology);
                let r1 = run_cell(&cell, 21).unwrap_or_else(|e| panic!("{protocol}: {e}"));
                let r2 = run_cell(&cell, 21).unwrap();
                assert_eq!(r1, r2, "{protocol} on {topology} must be deterministic");
                assert_eq!(r1.unit, "gap");
                assert!(r1.dynamic.is_some(), "{protocol}");
                assert!(r1.activations.mean > 0.0, "{protocol}");
            }
        }
        // Identities are distinct per (protocol, topology).
        let mut a = dynamic_cell();
        a.protocol = ProtocolSpec::GreedyD { d: 2 };
        let mut b = a.clone();
        b.topology = Spec(Topology::Cycle);
        assert_ne!(cell_seed(7, &a), cell_seed(7, &b));
    }

    fn churn_cell() -> CellSpec {
        let mut cell = dynamic_cell();
        cell.churn = Some("steady:0.3:0.3:warm".parse().unwrap());
        cell
    }

    #[test]
    fn churned_dynamic_cells_report_reconvergence_aggregates() {
        let cell = churn_cell();
        let r1 = run_cell(&cell, 91).unwrap();
        let r2 = run_cell(&cell, 91).unwrap();
        assert_eq!(r1, r2, "churned cells must be deterministic per seed");
        assert_eq!(r1.unit, "gap");
        let agg = r1.dynamic.as_ref().expect("dynamic aggregates present");
        let churn = agg.churn.as_ref().expect("churn aggregates present");
        assert!(churn.scale_events.mean > 0.0, "{churn:?}");
        assert!(churn.reconverged_rate > 0.0, "{churn:?}");
        assert!(churn.reconv_time.mean >= 0.0);
        assert!(churn.live_bins.mean > 0.0, "{churn:?}");
        // A different seed actually reshuffles the membership trajectory.
        let r3 = run_cell(&cell, 92).unwrap();
        assert_ne!(r1.costs, r3.costs);
    }

    #[test]
    fn static_membership_cells_carry_no_churn_block_and_distinct_identity() {
        let plain = run_cell(&dynamic_cell(), 91).unwrap();
        assert!(plain.dynamic.as_ref().unwrap().churn.is_none());
        // The churn axis is part of the cache identity.
        assert_ne!(cell_seed(7, &churn_cell()), cell_seed(7, &dynamic_cell()));
    }

    #[test]
    fn churn_without_a_dynamic_section_is_rejected() {
        let mut cell = base_cell();
        cell.churn = Some("steady:0.3:0.3:warm".parse().unwrap());
        let err = run_cell(&cell, 1).unwrap_err().to_string();
        assert!(err.contains("churn axis requires"), "{err}");
    }

    #[test]
    fn dynamic_and_static_cells_have_distinct_identities() {
        let s = base_cell();
        let d = dynamic_cell();
        assert_ne!(cell_seed(7, &s), cell_seed(7, &d));
    }

    #[test]
    fn invalid_workload_parameters_surface_as_errors() {
        let mut cell = base_cell();
        cell.workload = Spec(Workload::OneOverOneUnder);
        cell.m = 63; // not divisible by n = 8
        assert!(run_cell(&cell, 1).is_err());
    }
}
