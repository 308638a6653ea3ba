//! Campaign specifications: the declarative grid an experiment sweeps.
//!
//! A [`CampaignSpec`] names a parameter grid — bin counts `n`, ball counts
//! `m` (absolute, per-bin or `n²`), protocol variants, workloads and
//! topologies — plus the trial count, stop condition and master seed.  The
//! grid's cartesian product expands into [`CellSpec`]s, the unit of
//! execution and caching.
//!
//! Spec atoms serialize as short strings (`"8x"`, `"rls-geq"`,
//! `"zipf:1.5"`, `"random-regular:4"`, `"8*ln(n)"`) so TOML and JSON specs
//! stay one-line readable.  [`MExpr`], [`ProtocolSpec`] and [`HitSpec`]
//! are campaign vocabulary; the instance types of other crates (workloads,
//! topologies, arrival, weight, speed and churn laws) ride in [`Spec`],
//! which reads and writes each through the type's own text form.

use std::fmt;
use std::str::FromStr;

use rls_graph::Topology;
use rls_workloads::{ArrivalProcess, ChurnProcess, SpeedProfile, WeightDist, Workload};
use serde::{de, Deserialize, Serialize, Value};

use crate::CampaignError;

/// An atom's string value: its text form.
fn str_value(atom: &impl fmt::Display) -> Value {
    Value::Str(atom.to_string())
}

/// Parse an atom from a string value.
fn parse_value<T: FromStr<Err = String>>(v: &Value, expected: &str) -> Result<T, de::Error> {
    let s = v
        .as_str()
        .ok_or_else(|| de::Error::type_error(expected, v))?;
    s.parse().map_err(de::Error::custom)
}

/// A grid atom whose text form belongs to its own crate: [`Workload`],
/// [`Topology`], [`ArrivalProcess`], [`WeightDist`], [`SpeedProfile`] or
/// [`ChurnProcess`].  `Display` and `FromStr` delegate to `T`, and the
/// atom (de)serializes as that string, so a cell's identity hashes exactly
/// the text the library prints and parses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec<T>(pub T);

impl<T: fmt::Display> fmt::Display for Spec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: FromStr> FromStr for Spec<T> {
    type Err = T::Err;

    fn from_str(s: &str) -> Result<Self, T::Err> {
        s.parse().map(Spec)
    }
}

impl<T: fmt::Display> Serialize for Spec<T> {
    fn to_value(&self) -> Value {
        str_value(self)
    }
}

impl<T: FromStr<Err = String>> Deserialize for Spec<T> {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        parse_value(v, "spec string").map(Spec)
    }
}

/// How a grid point's ball count is derived from its bin count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MExpr {
    /// A fixed ball count, independent of `n`.
    Absolute(u64),
    /// `m = ⌊factor · n⌋` (written `"8x"`, `"0.5x"`).
    PerBin(f64),
    /// `m = n²` (written `"n^2"`), the regime where the `n²/m` term of
    /// Theorem 1 vanishes.
    NSquared,
}

impl MExpr {
    /// Resolve the ball count for a given bin count.
    pub fn resolve(&self, n: usize) -> u64 {
        match self {
            MExpr::Absolute(m) => *m,
            MExpr::PerBin(factor) => (factor * n as f64).floor() as u64,
            MExpr::NSquared => (n as u64) * (n as u64),
        }
    }
}

impl fmt::Display for MExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MExpr::Absolute(m) => write!(f, "{m}"),
            MExpr::PerBin(factor) => write!(f, "{factor}x"),
            MExpr::NSquared => write!(f, "n^2"),
        }
    }
}

impl FromStr for MExpr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s == "n^2" || s == "n2" {
            return Ok(MExpr::NSquared);
        }
        if let Some(factor) = s.strip_suffix('x') {
            let factor: f64 = factor
                .parse()
                .map_err(|_| format!("bad per-bin ball count `{s}`"))?;
            if !(factor.is_finite() && factor > 0.0) {
                return Err(format!("bad per-bin ball count `{s}`"));
            }
            return Ok(MExpr::PerBin(factor));
        }
        s.parse::<u64>()
            .map(MExpr::Absolute)
            .map_err(|_| format!("bad ball count `{s}` (use 512, 8x or n^2)"))
    }
}

impl Serialize for MExpr {
    fn to_value(&self) -> Value {
        match self {
            MExpr::Absolute(m) => Value::UInt(*m),
            other => str_value(other),
        }
    }
}

impl Deserialize for MExpr {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        match v.as_u64() {
            Some(m) => Ok(MExpr::Absolute(m)),
            None => parse_value(v, "ball-count expression"),
        }
    }
}

/// The protocol a cell runs.
///
/// The first two are the paper's continuous-time process (driven by the
/// `rls-sim` engine, on any topology); the rest are the related-work
/// protocols of Section 2, each carrying its own budget parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolSpec {
    /// RLS, `≥` variant (this paper).  Cost unit: continuous time.
    RlsGeq,
    /// RLS, strict `>` variant (Goldberg; Ganesh et al.).  Continuous time.
    RlsStrict,
    /// Synchronous selfish rerouting with global knowledge of the average
    /// (Even-Dar, Mansour).  Cost unit: rounds.
    SelfishGlobal {
        /// Round budget.
        rounds: u64,
    },
    /// Synchronous selfish load balancing without global knowledge
    /// (Berenbrink et al.).  Cost unit: rounds.
    SelfishDistributed {
        /// Round budget.
        rounds: u64,
    },
    /// Average-threshold load balancing (Ackermann et al.).  Rounds.
    ThresholdAverage {
        /// Round budget.
        rounds: u64,
    },
    /// CRS pair-sampling local search from its own two-choices placement
    /// (Czumaj, Riley, Scheideler).  Cost unit: pair-sampling steps.
    CrsTwoChoices {
        /// Step budget.
        steps: u64,
    },
    /// One-shot greedy `d`-choices placement (Mitzenmacher).  Placements.
    GreedyD {
        /// Number of candidate bins per ball.
        d: usize,
    },
}

impl ProtocolSpec {
    /// The unit the protocol's cost is measured in.
    pub fn cost_unit(&self) -> &'static str {
        match self {
            ProtocolSpec::RlsGeq | ProtocolSpec::RlsStrict => "time",
            ProtocolSpec::SelfishGlobal { .. }
            | ProtocolSpec::SelfishDistributed { .. }
            | ProtocolSpec::ThresholdAverage { .. } => "rounds",
            ProtocolSpec::CrsTwoChoices { .. } => "steps",
            ProtocolSpec::GreedyD { .. } => "placements",
        }
    }
}

impl fmt::Display for ProtocolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolSpec::RlsGeq => write!(f, "rls-geq"),
            ProtocolSpec::RlsStrict => write!(f, "rls-strict"),
            ProtocolSpec::SelfishGlobal { rounds } => write!(f, "selfish-global:{rounds}"),
            ProtocolSpec::SelfishDistributed { rounds } => {
                write!(f, "selfish-distributed:{rounds}")
            }
            ProtocolSpec::ThresholdAverage { rounds } => write!(f, "threshold-average:{rounds}"),
            ProtocolSpec::CrsTwoChoices { steps } => write!(f, "crs-two-choices:{steps}"),
            ProtocolSpec::GreedyD { d } => write!(f, "greedy:{d}"),
        }
    }
}

impl FromStr for ProtocolSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (head, param) = match s.split_once(':') {
            Some((head, param)) => (head.trim(), Some(param.trim())),
            None => (s.trim(), None),
        };
        let parse_u64 = |what: &str| -> Result<u64, String> {
            param
                .ok_or_else(|| format!("`{head}` needs a {what}, e.g. `{head}:2000`"))?
                .parse()
                .map_err(|_| format!("bad {what} in `{s}`"))
        };
        match head {
            "rls-geq" => Ok(ProtocolSpec::RlsGeq),
            "rls-strict" => Ok(ProtocolSpec::RlsStrict),
            "selfish-global" => Ok(ProtocolSpec::SelfishGlobal {
                rounds: parse_u64("round budget")?,
            }),
            "selfish-distributed" => Ok(ProtocolSpec::SelfishDistributed {
                rounds: parse_u64("round budget")?,
            }),
            "threshold-average" => Ok(ProtocolSpec::ThresholdAverage {
                rounds: parse_u64("round budget")?,
            }),
            "crs-two-choices" => Ok(ProtocolSpec::CrsTwoChoices {
                steps: parse_u64("step budget")?,
            }),
            "greedy" => Ok(ProtocolSpec::GreedyD {
                d: parse_u64("choice count")? as usize,
            }),
            other => Err(format!("unknown protocol `{other}`")),
        }
    }
}

impl Serialize for ProtocolSpec {
    fn to_value(&self) -> Value {
        str_value(self)
    }
}

impl Deserialize for ProtocolSpec {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        parse_value(v, "protocol string")
    }
}

/// A discrepancy threshold whose first-hit time a cell records
/// (continuous-time protocols only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HitSpec {
    /// Threshold `factor · ln n` (written `"8*ln(n)"`), resolved per cell.
    LnFactor(f64),
    /// A fixed threshold (written `"1"` / `"0.999"`).
    Absolute(f64),
}

impl HitSpec {
    /// Resolve to a concrete discrepancy threshold for `n` bins.
    pub fn resolve(&self, n: usize) -> f64 {
        match self {
            HitSpec::LnFactor(factor) => factor * (n as f64).ln(),
            HitSpec::Absolute(x) => *x,
        }
    }
}

impl fmt::Display for HitSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HitSpec::LnFactor(factor) => write!(f, "{factor}*ln(n)"),
            HitSpec::Absolute(x) => write!(f, "{x}"),
        }
    }
}

impl FromStr for HitSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if let Some(prefix) = s.strip_suffix("*ln(n)") {
            let factor: f64 = prefix
                .parse()
                .map_err(|_| format!("bad hit threshold `{s}`"))?;
            return Ok(HitSpec::LnFactor(factor));
        }
        s.parse::<f64>()
            .map(HitSpec::Absolute)
            .map_err(|_| format!("bad hit threshold `{s}` (use 1.0 or 8*ln(n))"))
    }
}

impl Serialize for HitSpec {
    fn to_value(&self) -> Value {
        match self {
            HitSpec::Absolute(x) => Value::Float(*x),
            other => str_value(other),
        }
    }
}

impl Deserialize for HitSpec {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        match v.as_f64() {
            Some(x) => Ok(HitSpec::Absolute(x)),
            None => parse_value(v, "hit threshold"),
        }
    }
}

/// Marks a campaign as *dynamic*: instead of running each cell to a balance
/// condition, every cell becomes an online instance whose target load is
/// `ρ = m/n` (the per-ball departure rate is derived as `μ = λ/m`, the
/// M/M/∞ rate that keeps the expected population at `m`), driven by the
/// named arrival process and measured over `[warmup, warmup + window]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicSpec {
    /// Law of the arrival stream (per-bin rate, so the same string keeps
    /// the offered load density constant across the grid's `n` axis).
    pub arrival: Spec<ArrivalProcess>,
    /// Simulated time discarded before measurement starts.
    pub warmup: f64,
    /// Length of the measurement window.
    pub window: f64,
    /// Ball-weight law (`None` = unit weights, the classic engine).
    pub weights: Option<Spec<WeightDist>>,
    /// Bin-speed profile (`None` = uniform speeds).
    pub speeds: Option<Spec<SpeedProfile>>,
}

impl DynamicSpec {
    /// Validate the window and heterogeneity parameters.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if !(self.warmup.is_finite() && self.warmup >= 0.0) {
            return Err(CampaignError::spec("dynamic warmup must be ≥ 0"));
        }
        if !(self.window.is_finite() && self.window > 0.0) {
            return Err(CampaignError::spec("dynamic window must be positive"));
        }
        if let Some(w) = &self.weights {
            w.0.validate()
                .map_err(|e| CampaignError::spec(format!("dynamic weights: {e}")))?;
        }
        if let Some(s) = &self.speeds {
            s.0.validate()
                .map_err(|e| CampaignError::spec(format!("dynamic speeds: {e}")))?;
        }
        Ok(())
    }

    /// The resolved weight law (`unit` when the axis is absent).
    pub fn weight_dist(&self) -> WeightDist {
        self.weights.map(|w| w.0).unwrap_or(WeightDist::Unit)
    }

    /// The resolved speed profile (`uniform` when the axis is absent).
    pub fn speed_profile(&self) -> SpeedProfile {
        self.speeds.map(|s| s.0).unwrap_or(SpeedProfile::Uniform)
    }
}

/// When a cell's runs stop.
///
/// The budgets apply to RLS cells on any topology.  Cells whose protocol carries its own budget (rounds /
/// steps / choices) *reject* a stop budget instead of silently ignoring
/// it — mix such protocols with budgeted RLS via separate campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StopSpec {
    /// Stop once the discrepancy is at most this value (`0` = perfect
    /// balance).
    pub target_discrepancy: f64,
    /// Optional simulated-time budget (RLS cells, any topology).
    pub max_time: Option<f64>,
    /// Optional activation budget (RLS cells, any topology).
    pub max_activations: Option<u64>,
}

impl Default for StopSpec {
    fn default() -> Self {
        Self {
            target_discrepancy: 0.0,
            max_time: None,
            max_activations: None,
        }
    }
}

/// The parameter grid: every combination of the listed axes becomes a cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    /// Bin counts.
    pub n: Vec<usize>,
    /// Ball-count expressions, resolved against each `n`.
    pub m: Vec<MExpr>,
    /// Protocol variants.
    pub protocol: Vec<ProtocolSpec>,
    /// Initial-configuration families.
    pub workload: Vec<Spec<Workload>>,
    /// Topologies (defaults to `[complete]`).  Static RLS cells run the
    /// superposition engine on any topology and dynamic cells the live
    /// engine; both sample destinations from the ringing bin's
    /// neighbourhood (uniform over all bins on `complete`).
    pub topology: Vec<Spec<Topology>>,
    /// Membership churn profiles (defaults to `[]` = static membership).
    /// Non-`none` entries require a `[dynamic]` section: churn is a law of
    /// the online engine, an offline run-to-balance cell has no clock for
    /// bins to join on.
    pub churn: Vec<Spec<ChurnProcess>>,
}

/// A declarative experiment campaign.
///
/// ```
/// // Specs are written as TOML or JSON grids; `spec_from_str` accepts
/// // either and fills the defaulted sections (topology, stop, hits).
/// let spec = rls_campaign::spec_from_str(r#"{
///     "name": "doc-example", "seed": 7, "trials": 2,
///     "grid": {"n": [8, 16], "m": ["4x"], "protocol": ["rls-geq"],
///              "workload": ["all-in-one-bin"]}
/// }"#).unwrap();
/// // The grid's cartesian product expands into cells, the unit of
/// // execution and caching; "4x" resolves per n.
/// let cells = spec.cells().unwrap();
/// assert_eq!(cells.len(), 2);
/// assert_eq!(cells[0].m, 32);
/// assert_eq!(cells[1].m, 64);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (used in exports and status output).
    pub name: String,
    /// Master seed; per-cell seeds are derived from it and the cell's
    /// content hash, so they do not depend on grid order or size.
    pub seed: u64,
    /// Monte-Carlo trials per cell.
    pub trials: usize,
    /// The parameter grid.
    pub grid: Grid,
    /// Stop condition shared by all cells.
    pub stop: StopSpec,
    /// Discrepancy thresholds whose first-hit times are recorded.
    pub hits: Vec<HitSpec>,
    /// When present, every cell runs as a dynamic (online) instance with
    /// target load `ρ = m/n` instead of a run-to-balance experiment.
    pub dynamic: Option<DynamicSpec>,
}

impl CampaignSpec {
    /// A minimal spec with the given name, seed and trial count and a
    /// single-point grid; extend via the public fields.
    pub fn new(name: impl Into<String>, seed: u64, trials: usize) -> Self {
        Self {
            name: name.into(),
            seed,
            trials,
            grid: Grid {
                n: vec![],
                m: vec![],
                protocol: vec![ProtocolSpec::RlsGeq],
                workload: vec![Spec(Workload::AllInOneBin)],
                topology: vec![Spec(Topology::Complete)],
                churn: Vec::new(),
            },
            stop: StopSpec::default(),
            hits: Vec::new(),
            dynamic: None,
        }
    }

    /// Validate and expand the grid into cells (row-major over
    /// `workload → protocol → topology → m → n`, matching the order
    /// experiment tables print).
    pub fn cells(&self) -> Result<Vec<CellSpec>, CampaignError> {
        if self.trials == 0 {
            return Err(CampaignError::spec(
                "a campaign needs at least one trial per cell",
            ));
        }
        if let Some(dynamic) = &self.dynamic {
            dynamic.validate()?;
        }
        if self.grid.n.is_empty() || self.grid.m.is_empty() {
            return Err(CampaignError::spec(
                "the grid needs at least one n and one m",
            ));
        }
        if self.grid.protocol.is_empty() || self.grid.workload.is_empty() {
            return Err(CampaignError::spec(
                "the grid needs at least one protocol and one workload",
            ));
        }
        if self.grid.topology.is_empty() {
            return Err(CampaignError::spec("the grid needs at least one topology"));
        }
        for churn in &self.grid.churn {
            churn
                .0
                .validate()
                .map_err(|e| CampaignError::spec(format!("churn profile `{churn}`: {e}")))?;
            if !churn.0.is_none() && self.dynamic.is_none() {
                return Err(CampaignError::spec(
                    "the churn axis requires a [dynamic] section \
                     (offline cells have static membership)",
                ));
            }
        }
        // An absent churn axis is the single static-membership point;
        // explicit `"none"` entries collapse to the same cell identity.
        let churn_axis: Vec<Option<Spec<ChurnProcess>>> = if self.grid.churn.is_empty() {
            vec![None]
        } else {
            self.grid
                .churn
                .iter()
                .map(|&c| (!c.0.is_none()).then_some(c))
                .collect()
        };
        let mut cells = Vec::new();
        for workload in &self.grid.workload {
            for protocol in &self.grid.protocol {
                for topology in &self.grid.topology {
                    for &churn in &churn_axis {
                        for m in &self.grid.m {
                            for &n in &self.grid.n {
                                cells.push(CellSpec {
                                    n,
                                    m: m.resolve(n),
                                    protocol: *protocol,
                                    workload: *workload,
                                    topology: *topology,
                                    churn,
                                    stop: self.stop,
                                    hits: self.hits.clone(),
                                    trials: self.trials,
                                    dynamic: self.dynamic,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(cells)
    }
}

/// One fully resolved grid point: the unit of execution and caching.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Number of bins.
    pub n: usize,
    /// Number of balls.
    pub m: u64,
    /// Protocol variant.
    pub protocol: ProtocolSpec,
    /// Initial-configuration family.
    pub workload: Spec<Workload>,
    /// Topology (complete = the paper's model).
    pub topology: Spec<Topology>,
    /// Membership churn profile (`None` = static membership).  Requires
    /// `dynamic`; the churn stream is superposed into the cell's CTMC.
    pub churn: Option<Spec<ChurnProcess>>,
    /// Stop condition.
    pub stop: StopSpec,
    /// Thresholds whose first-hit times are recorded.
    pub hits: Vec<HitSpec>,
    /// Monte-Carlo trials.
    pub trials: usize,
    /// Dynamic (online) execution parameters, when this is a dynamic cell.
    pub dynamic: Option<DynamicSpec>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m_expressions_parse_and_resolve() {
        assert_eq!("512".parse::<MExpr>().unwrap().resolve(16), 512);
        assert_eq!("8x".parse::<MExpr>().unwrap().resolve(16), 128);
        assert_eq!("0.5x".parse::<MExpr>().unwrap().resolve(16), 8);
        assert_eq!("n^2".parse::<MExpr>().unwrap().resolve(16), 256);
        assert!("".parse::<MExpr>().is_err());
        assert!("-3x".parse::<MExpr>().is_err());
        assert!("squared".parse::<MExpr>().is_err());
    }

    #[test]
    fn protocol_strings_round_trip() {
        let protocols = [
            ProtocolSpec::RlsGeq,
            ProtocolSpec::RlsStrict,
            ProtocolSpec::SelfishGlobal { rounds: 2000 },
            ProtocolSpec::SelfishDistributed { rounds: 50 },
            ProtocolSpec::ThresholdAverage { rounds: 400 },
            ProtocolSpec::CrsTwoChoices { steps: 9 },
            ProtocolSpec::GreedyD { d: 2 },
        ];
        for p in protocols {
            assert_eq!(p.to_string().parse::<ProtocolSpec>().unwrap(), p);
            assert!(!p.cost_unit().is_empty());
        }
        assert!("selfish-global".parse::<ProtocolSpec>().is_err());
        assert!("warp-drive".parse::<ProtocolSpec>().is_err());
    }

    #[test]
    fn hit_specs_parse_and_resolve() {
        let log = "8*ln(n)".parse::<HitSpec>().unwrap();
        assert_eq!(log, HitSpec::LnFactor(8.0));
        assert!((log.resolve(64) - 8.0 * 64f64.ln()).abs() < 1e-12);
        let abs = "1".parse::<HitSpec>().unwrap();
        assert_eq!(abs.resolve(64), 1.0);
        assert!("eight lns".parse::<HitSpec>().is_err());
    }

    #[test]
    fn grid_expansion_is_the_cartesian_product() {
        let mut spec = CampaignSpec::new("demo", 1, 4);
        spec.grid.n = vec![8, 16];
        spec.grid.m = vec![MExpr::PerBin(8.0), MExpr::NSquared];
        let cells = spec.cells().unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].m, 64);
        assert_eq!(cells[1].m, 128);
        assert_eq!(cells[2].m, 64);
        assert_eq!(cells[3].m, 256);
    }

    #[test]
    fn empty_axes_are_rejected() {
        let spec = CampaignSpec::new("demo", 1, 4);
        assert!(spec.cells().is_err());
        let mut no_trials = CampaignSpec::new("demo", 1, 0);
        no_trials.grid.n = vec![8];
        no_trials.grid.m = vec![MExpr::PerBin(1.0)];
        assert!(no_trials.cells().is_err());
    }

    #[test]
    fn spec_serde_round_trip() {
        let mut spec = CampaignSpec::new("rt", 99, 3);
        spec.grid.n = vec![8];
        spec.grid.m = vec![MExpr::PerBin(8.0), MExpr::Absolute(100)];
        spec.grid.protocol = vec![
            ProtocolSpec::RlsGeq,
            ProtocolSpec::CrsTwoChoices { steps: 7 },
        ];
        spec.hits = vec![HitSpec::LnFactor(8.0), HitSpec::Absolute(1.0)];
        spec.stop.max_time = Some(50.0);
        let json = serde_json::to_string(&spec).unwrap();
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);

        // With the dynamic section present.
        let mut dynamic = CampaignSpec::new("rt-dyn", 1, 2);
        dynamic.grid.n = vec![8];
        dynamic.grid.m = vec![MExpr::PerBin(8.0)];
        dynamic.dynamic = Some(DynamicSpec {
            arrival: "bursts:2:16".parse().unwrap(),
            warmup: 5.0,
            window: 20.0,
            weights: None,
            speeds: None,
        });
        let json = serde_json::to_string(&dynamic).unwrap();
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dynamic);

        // A library atom is exactly its own text form on the wire.
        fn atom<T>(text: &str)
        where
            T: fmt::Display + FromStr<Err = String> + PartialEq + fmt::Debug,
        {
            let spec: Spec<T> = text.parse().unwrap();
            assert_eq!(spec.to_value(), Value::Str(text.to_string()));
            assert_eq!(Spec::<T>::from_value(&spec.to_value()).unwrap(), spec);
            assert!(Spec::<T>::from_value(&Value::UInt(3)).is_err());
        }
        atom::<Workload>("zipf:1.5");
        atom::<Topology>("random-regular:4");
        atom::<ArrivalProcess>("bursts:2:16");
        atom::<WeightDist>("pareto:1.5:64");
        atom::<SpeedProfile>("two-class:4:0.25");
        atom::<ChurnProcess>("flash:0.05:4:warm");
        let err = Spec::<ArrivalProcess>::from_value(&Value::Str("meteor:1".into())).unwrap_err();
        assert!(err.to_string().contains("unknown arrival process `meteor`"));
    }

    #[test]
    fn churn_strings_round_trip() {
        for s in [
            "none",
            "steady:0.1:0.2:warm",
            "steady:0.1:0.2",
            "flash:0.05:4:warm",
            "diurnal:200:0.2:0.2",
        ] {
            assert_eq!(s.parse::<Spec<ChurnProcess>>().unwrap().to_string(), s);
        }
        for bad in ["steady", "steady:-1:0.2", "flash:0.05:0", "tidal:1:1"] {
            assert!(bad.parse::<Spec<ChurnProcess>>().is_err(), "{bad}");
        }
    }

    #[test]
    fn churn_axis_expands_and_requires_a_dynamic_section() {
        let mut spec = CampaignSpec::new("elastic", 1, 2);
        spec.grid.n = vec![8];
        spec.grid.m = vec![MExpr::PerBin(8.0)];
        spec.grid.churn = vec![
            "none".parse().unwrap(),
            "steady:0.2:0.2:warm".parse().unwrap(),
            "flash:0.1:2:warm".parse().unwrap(),
        ];

        // Without [dynamic], any non-none churn entry is rejected.
        let err = spec.cells().unwrap_err().to_string();
        assert!(err.contains("[dynamic]"), "{err}");

        spec.dynamic = Some(DynamicSpec {
            arrival: "poisson:2".parse().unwrap(),
            warmup: 1.0,
            window: 4.0,
            weights: None,
            speeds: None,
        });
        let cells = spec.cells().unwrap();
        assert_eq!(cells.len(), 3);
        // "none" collapses to a static-membership cell (same identity a
        // churn-free grid produces), the others carry their profile.
        assert_eq!(cells[0].churn, None);
        assert!(cells[1].churn.is_some());
        assert!(cells[2].churn.is_some());

        // An all-"none" churn axis is exactly the no-axis grid.
        let mut quiet = spec.clone();
        quiet.grid.churn = vec!["none".parse().unwrap()];
        let mut no_axis = spec.clone();
        no_axis.grid.churn = Vec::new();
        assert_eq!(quiet.cells().unwrap(), no_axis.cells().unwrap());
    }

    #[test]
    fn dynamic_spec_validates_windows() {
        let arrival: Spec<ArrivalProcess> = "poisson:1".parse().unwrap();
        assert!(DynamicSpec {
            arrival,
            warmup: 0.0,
            window: 1.0,
            weights: None,
            speeds: None,
        }
        .validate()
        .is_ok());
        assert!(DynamicSpec {
            arrival,
            warmup: -1.0,
            window: 1.0,
            weights: None,
            speeds: None,
        }
        .validate()
        .is_err());
        assert!(DynamicSpec {
            arrival,
            warmup: 0.0,
            window: 0.0,
            weights: None,
            speeds: None,
        }
        .validate()
        .is_err());
        // An invalid dynamic section fails grid expansion.
        let mut spec = CampaignSpec::new("bad-dyn", 1, 1);
        spec.grid.n = vec![4];
        spec.grid.m = vec![MExpr::PerBin(4.0)];
        spec.dynamic = Some(DynamicSpec {
            arrival,
            warmup: 0.0,
            window: -2.0,
            weights: None,
            speeds: None,
        });
        assert!(spec.cells().is_err());
    }
}
