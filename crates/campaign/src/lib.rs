//! # rls-campaign — declarative experiment campaigns with a persistent,
//! content-addressed results store
//!
//! The paper's headline claims (Theorem 1 scaling, the phase decomposition,
//! the protocol-comparison tables) are statements about dense parameter
//! sweeps: grids over `(n, m, protocol, workload, topology)` with many
//! Monte-Carlo trials per point.  This crate turns such a sweep into a
//! *campaign*:
//!
//! 1. **Declare** the grid as a [`CampaignSpec`] — in Rust, or as a TOML /
//!    JSON file (see [`spec_from_str`] and the `specs/` directory at the
//!    repository root).
//! 2. **Expand** it into [`CellSpec`]s, the unit of execution and caching.
//! 3. **Execute** only the cells missing from the [`Store`]
//!    ([`Campaign::run`]), sharded across a work-stealing thread pool.
//! 4. **Persist** each cell's [`CellResult`] under the SHA-256 of its
//!    identity, so re-runs are incremental: a second invocation of the same
//!    campaign executes zero cells, and growing the grid executes exactly
//!    the new cells.
//!
//! Determinism is end-to-end: a cell's seed is derived ([`cell_seed`]) from
//! the campaign seed and the cell's content hash via splitmix, and each
//! trial inside the cell draws its own [`rls_rng::StreamFactory`] streams —
//! so results are bit-identical regardless of thread count, grid order, or
//! which cells happen to be cached.
//!
//! ```
//! use rls_campaign::{Campaign, CampaignSpec, MemoryStore, MExpr};
//!
//! let mut spec = CampaignSpec::new("doc-demo", 7, 3);
//! spec.grid.n = vec![8, 16];
//! spec.grid.m = vec![MExpr::PerBin(8.0)];
//!
//! let store = MemoryStore::new();
//! let campaign = Campaign::new(spec);
//! let first = campaign.run(&store, 0).unwrap();
//! assert_eq!(first.executed, 2);
//! let second = campaign.run(&store, 0).unwrap();
//! assert_eq!(second.executed, 0); // incremental: everything cached
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;

pub mod cell;
pub mod engine;
pub mod export;
pub mod hash;
pub mod metrics;
pub mod spec;
pub mod store;
pub mod toml;

pub use cell::{cell_seed, run_cell, CellResult, ChurnAggregate, DynamicAggregate};
pub use engine::{Campaign, CampaignReport, CampaignStatus, CellOutcome};
pub use metrics::CampaignMetrics;
pub use spec::{
    CampaignSpec, CellSpec, DynamicSpec, Grid, HitSpec, MExpr, ProtocolSpec, Spec, StopSpec,
};
pub use store::{cell_key, CellRecord, DiskStore, MemoryStore, Store, ENGINE_VERSION};

/// Errors from spec parsing, cell execution or the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The spec (or a spec file) is invalid.
    Spec(String),
    /// The store could not be read or written.
    Store(String),
    /// The cell combines features the engine does not support.
    Unsupported(String),
}

impl CampaignError {
    pub(crate) fn spec(message: impl Into<String>) -> Self {
        CampaignError::Spec(message.into())
    }

    pub(crate) fn store(message: impl Into<String>) -> Self {
        CampaignError::Store(message.into())
    }

    pub(crate) fn unsupported(message: impl Into<String>) -> Self {
        CampaignError::Unsupported(message.into())
    }
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(m) => write!(f, "campaign spec error: {m}"),
            CampaignError::Store(m) => write!(f, "campaign store error: {m}"),
            CampaignError::Unsupported(m) => write!(f, "unsupported campaign cell: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// The process-wide store used by the experiment harness (`rls-cli`):
/// a [`DiskStore`] rooted at `$RLS_CAMPAIGN_STORE` when that variable is
/// set and non-empty, otherwise a process-global [`MemoryStore`] (results
/// are shared between the experiments of one invocation but not persisted).
pub fn default_store() -> &'static dyn Store {
    use std::sync::OnceLock;
    static STORE: OnceLock<Box<dyn Store>> = OnceLock::new();
    STORE
        .get_or_init(|| match std::env::var("RLS_CAMPAIGN_STORE") {
            Ok(path) if !path.is_empty() => match DiskStore::open(&path) {
                Ok(store) => Box::new(store),
                Err(e) => {
                    eprintln!("warning: RLS_CAMPAIGN_STORE unusable ({e}); caching in memory");
                    Box::new(MemoryStore::new())
                }
            },
            _ => Box::new(MemoryStore::new()),
        })
        .as_ref()
}

/// Run a campaign against the [`default_store`] with the default thread
/// pool — the one-liner the experiment harness uses.
pub fn run_cached(spec: CampaignSpec) -> Result<CampaignReport, CampaignError> {
    Campaign::new(spec).run(default_store(), 0)
}

/// Render a campaign spec as TOML text that [`spec_from_str`] parses back
/// to an equal spec (the property the spec round-trip tests pin down).
pub fn spec_to_toml_string(spec: &CampaignSpec) -> Result<String, CampaignError> {
    use serde::Serialize;
    toml::render(&spec.to_value())
}

/// Parse a campaign spec from TOML or JSON text (auto-detected: JSON specs
/// start with `{`).
pub fn spec_from_str(text: &str) -> Result<CampaignSpec, CampaignError> {
    let trimmed = text.trim_start();
    let value = if trimmed.starts_with('{') {
        serde_json::parse_value(text).map_err(|e| CampaignError::spec(format!("JSON spec: {e}")))?
    } else {
        toml::parse(text)?
    };
    spec_from_value(&value)
}

/// Deserialize a campaign spec from an already parsed value tree, applying
/// the documented defaults (protocol `rls-geq`, workload `all-in-one-bin`,
/// topology `complete`, stop at perfect balance, no hit thresholds).
pub fn spec_from_value(value: &serde::Value) -> Result<CampaignSpec, CampaignError> {
    use serde::Deserialize;

    let map = value
        .as_object()
        .ok_or_else(|| CampaignError::spec("spec must be a table/object"))?;
    let field_err =
        |field: &str, e: serde::de::Error| CampaignError::spec(format!("field `{field}`: {e}"));
    let get = |field: &str| map.get(field);

    let name = match get("name") {
        Some(v) => String::from_value(v).map_err(|e| field_err("name", e))?,
        None => return Err(CampaignError::spec("missing `name`")),
    };
    let seed = match get("seed") {
        Some(v) => u64::from_value(v).map_err(|e| field_err("seed", e))?,
        None => return Err(CampaignError::spec("missing `seed`")),
    };
    let trials = match get("trials") {
        Some(v) => usize::from_value(v).map_err(|e| field_err("trials", e))?,
        None => return Err(CampaignError::spec("missing `trials`")),
    };

    let grid_map = get("grid")
        .and_then(|v| v.as_object())
        .ok_or_else(|| CampaignError::spec("missing `[grid]` table"))?;
    let grid = Grid {
        n: match grid_map.get("n") {
            Some(v) => Vec::<usize>::from_value(v).map_err(|e| field_err("grid.n", e))?,
            None => return Err(CampaignError::spec("missing `grid.n`")),
        },
        m: match grid_map.get("m") {
            Some(v) => Vec::<MExpr>::from_value(v).map_err(|e| field_err("grid.m", e))?,
            None => return Err(CampaignError::spec("missing `grid.m`")),
        },
        protocol: match grid_map.get("protocol") {
            Some(v) => {
                Vec::<ProtocolSpec>::from_value(v).map_err(|e| field_err("grid.protocol", e))?
            }
            None => vec![ProtocolSpec::RlsGeq],
        },
        workload: match grid_map.get("workload") {
            Some(v) => Vec::from_value(v).map_err(|e| field_err("grid.workload", e))?,
            None => vec![Spec(rls_workloads::Workload::AllInOneBin)],
        },
        topology: match grid_map.get("topology") {
            Some(v) => Vec::from_value(v).map_err(|e| field_err("grid.topology", e))?,
            None => vec![Spec(rls_graph::Topology::Complete)],
        },
        churn: match grid_map.get("churn") {
            Some(v) => Vec::from_value(v).map_err(|e| field_err("grid.churn", e))?,
            None => Vec::new(),
        },
    };

    let stop = match get("stop") {
        Some(v) => StopSpec::from_value(v).map_err(|e| field_err("stop", e))?,
        None => StopSpec::default(),
    };
    let hits = match get("hits") {
        Some(v) => Vec::<HitSpec>::from_value(v).map_err(|e| field_err("hits", e))?,
        None => Vec::new(),
    };
    let dynamic = match get("dynamic") {
        Some(serde::Value::Null) | None => None,
        Some(v) => Some(DynamicSpec::from_value(v).map_err(|e| field_err("dynamic", e))?),
    };

    Ok(CampaignSpec {
        name,
        seed,
        trials,
        grid,
        stop,
        hits,
        dynamic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOML_SPEC: &str = r#"
name = "toml-demo"
seed = 42
trials = 2

[grid]
n = [4, 8]
m = ["4x"]

[stop]
target_discrepancy = 0.0
"#;

    #[test]
    fn toml_and_json_specs_agree() {
        let from_toml = spec_from_str(TOML_SPEC).unwrap();
        let json = serde_json::to_string(&from_toml).unwrap();
        let from_json = spec_from_str(&json).unwrap();
        assert_eq!(from_toml, from_json);
        assert_eq!(from_toml.grid.protocol, vec![ProtocolSpec::RlsGeq]);
        assert_eq!(
            from_toml.grid.topology,
            vec![Spec(rls_graph::Topology::Complete)]
        );
        assert_eq!(from_toml.cells().unwrap().len(), 2);
    }

    #[test]
    fn spec_errors_name_the_missing_field() {
        for (text, needle) in [
            (
                "seed = 1\ntrials = 2\n[grid]\nn = [4]\nm = [\"1x\"]",
                "name",
            ),
            (
                "name = \"x\"\ntrials = 2\n[grid]\nn = [4]\nm = [\"1x\"]",
                "seed",
            ),
            (
                "name = \"x\"\nseed = 1\n[grid]\nn = [4]\nm = [\"1x\"]",
                "trials",
            ),
            ("name = \"x\"\nseed = 1\ntrials = 2", "grid"),
            (
                "name = \"x\"\nseed = 1\ntrials = 2\n[grid]\nm = [\"1x\"]",
                "grid.n",
            ),
            (
                "name = \"x\"\nseed = 1\ntrials = 2\n[grid]\nn = [4]",
                "grid.m",
            ),
        ] {
            let e = spec_from_str(text).unwrap_err().to_string();
            assert!(e.contains(needle), "{text} → {e}");
        }
    }

    #[test]
    fn stop_defaults_apply() {
        let spec = spec_from_str(TOML_SPEC).unwrap();
        assert_eq!(spec.stop, StopSpec::default());
        assert!(spec.hits.is_empty());
    }
}
