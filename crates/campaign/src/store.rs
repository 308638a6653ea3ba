//! The content-addressed results store.
//!
//! Every executed cell is persisted as a [`CellRecord`] keyed by the SHA-256
//! of its *identity*: engine version, campaign seed and the cell's canonical
//! JSON.  Re-running a campaign therefore only executes cells whose records
//! are absent — edits to the grid invalidate exactly the cells they touch,
//! and nothing else.
//!
//! Two implementations share the [`Store`] trait: [`DiskStore`] (one JSON
//! file per cell under `<root>/<aa>/<rest>.json`, written atomically via a
//! temp file + rename so concurrent writers can share a store) and
//! [`MemoryStore`] (used by the experiment harness when no store directory
//! is configured, and by tests).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::cell::CellResult;
use crate::hash::sha256_hex;
use crate::spec::CellSpec;
use crate::CampaignError;

/// Bump when the execution semantics change (seed derivation, trial
/// streams, result fields) so stale records never masquerade as current.
///
/// Version history: 1 = static cells only; 2 = `CellSpec` gained the
/// `dynamic` cell kind and `CellResult` the steady-state aggregates, which
/// changes every cell's canonical identity; 3 = the engines moved to
/// load-indexed exchangeable-ball sampling (no per-ball map, no
/// `u32::MAX` ball cap) — same law, different random trajectories per
/// seed, so every cached trial is stale; 4 = dynamic cells run the live
/// engine over the cell's `(protocol, topology)` pair (previously
/// hard-wired to RLS on the complete graph) and derive a per-cell graph
/// seed from the graph stream, which changes dynamic trajectories; 5 =
/// dynamic cells gained the heterogeneity axis (`weights`/`speeds` in
/// `[dynamic]`), which extends `DynamicSpec` and with it every dynamic
/// cell's canonical identity; 6 = the grid gained the elastic-membership
/// `churn` axis (`CellSpec` carries `churn`, `DynamicAggregate` the
/// re-convergence aggregates), which extends every cell's canonical
/// identity; 7 = offline RLS cells on sparse topologies run the
/// superposition engine with a neighbour-restricted destination sampler
/// (the same graph instances, but a load-index bin draw replaces the per-ball
/// map — same law, different trajectories per seed).
pub const ENGINE_VERSION: u32 = 7;

/// The content address of a cell: hex SHA-256 of its identity.
pub fn cell_key(campaign_seed: u64, cell: &CellSpec) -> String {
    let identity = serde_json::to_canonical_string(&Identity {
        version: ENGINE_VERSION,
        campaign_seed,
        cell: cell.clone(),
    });
    sha256_hex(identity.as_bytes())
}

#[derive(Serialize, Deserialize)]
struct Identity {
    version: u32,
    campaign_seed: u64,
    cell: CellSpec,
}

/// A persisted cell execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// The content address (also the file name in a [`DiskStore`]).
    pub key: String,
    /// Engine version that produced the record.
    pub version: u32,
    /// The campaign seed the cell ran under.
    pub campaign_seed: u64,
    /// The cell itself (stored in full so records are self-describing and
    /// collisions/tampering are detectable).
    pub cell: CellSpec,
    /// The derived cell seed actually used.
    pub cell_seed: u64,
    /// The results.
    pub result: CellResult,
}

/// Where cell records live.
pub trait Store: Send + Sync {
    /// Fetch a record by key, if present and valid.
    fn get(&self, key: &str) -> Option<CellRecord>;

    /// Cheap presence check (status queries).  Implementations may answer
    /// from metadata without reading the record; a corrupt record can
    /// therefore count as present here and still re-execute on [`get`]
    /// during a run.
    ///
    /// [`get`]: Store::get
    fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Persist a record.
    fn put(&self, record: &CellRecord) -> Result<(), CampaignError>;

    /// Number of records currently stored.
    fn len(&self) -> usize;

    /// Whether the store holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An in-memory store (per-process cache; nothing touches disk).
#[derive(Debug, Default)]
pub struct MemoryStore {
    records: Mutex<HashMap<String, CellRecord>>,
}

impl MemoryStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Store for MemoryStore {
    fn get(&self, key: &str) -> Option<CellRecord> {
        self.records.lock().expect("store lock").get(key).cloned()
    }

    fn put(&self, record: &CellRecord) -> Result<(), CampaignError> {
        self.records
            .lock()
            .expect("store lock")
            .insert(record.key.clone(), record.clone());
        Ok(())
    }

    fn len(&self) -> usize {
        self.records.lock().expect("store lock").len()
    }
}

/// An on-disk store: `<root>/<first two hex chars>/<remaining 62>.json`.
#[derive(Debug, Clone)]
pub struct DiskStore {
    root: PathBuf,
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, CampaignError> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| CampaignError::store(format!("create {}: {e}", root.display())))?;
        Ok(Self { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, key: &str) -> PathBuf {
        // 64 hex chars; shard on the first two to keep directories small.
        let (shard, rest) = key.split_at(2.min(key.len()));
        self.root.join(shard).join(format!("{rest}.json"))
    }
}

impl Store for DiskStore {
    fn contains(&self, key: &str) -> bool {
        self.path_for(key).is_file()
    }

    fn get(&self, key: &str) -> Option<CellRecord> {
        let path = self.path_for(key);
        let text = std::fs::read_to_string(path).ok()?;
        let record: CellRecord = serde_json::from_str(&text).ok()?;
        // Self-check: the record must describe the key it was fetched by
        // and the current engine version (guards against collisions, hand
        // edits and stale formats).
        (record.key == key && record.version == ENGINE_VERSION).then_some(record)
    }

    fn put(&self, record: &CellRecord) -> Result<(), CampaignError> {
        let path = self.path_for(&record.key);
        let dir = path.parent().expect("sharded path has a parent");
        std::fs::create_dir_all(dir)
            .map_err(|e| CampaignError::store(format!("create {}: {e}", dir.display())))?;
        let text = serde_json::to_string_pretty(record)
            .map_err(|e| CampaignError::store(format!("encode record: {e}")))?;
        // Atomic publish: write a unique temp file, then rename over the
        // final path.  Concurrent writers of the same cell produce
        // identical bytes, so last-rename-wins is safe.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, text)
            .map_err(|e| CampaignError::store(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| CampaignError::store(format!("publish {}: {e}", path.display())))?;
        Ok(())
    }

    fn len(&self) -> usize {
        let Ok(shards) = std::fs::read_dir(&self.root) else {
            return 0;
        };
        shards
            .flatten()
            .filter(|entry| entry.path().is_dir())
            .map(|shard| {
                std::fs::read_dir(shard.path())
                    .map(|files| {
                        files
                            .flatten()
                            .filter(|f| f.path().extension().map(|e| e == "json").unwrap_or(false))
                            .count()
                    })
                    .unwrap_or(0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ProtocolSpec, Spec, StopSpec};
    use rls_graph::Topology;
    use rls_workloads::Workload;

    fn record(key_seed: u64) -> CellRecord {
        let cell = CellSpec {
            n: 4,
            m: 16,
            protocol: ProtocolSpec::RlsGeq,
            workload: Spec(Workload::AllInOneBin),
            topology: Spec(Topology::Complete),
            churn: None,
            stop: StopSpec::default(),
            hits: Vec::new(),
            trials: 2,
            dynamic: None,
        };
        let key = cell_key(key_seed, &cell);
        let seed = crate::cell::cell_seed(key_seed, &cell);
        let result = crate::cell::run_cell(&cell, seed).unwrap();
        CellRecord {
            key,
            version: ENGINE_VERSION,
            campaign_seed: key_seed,
            cell,
            cell_seed: seed,
            result,
        }
    }

    #[test]
    fn keys_depend_on_seed_and_cell() {
        let a = record(1);
        let b = record(2);
        assert_ne!(a.key, b.key);
        assert_eq!(a.key.len(), 64);
        assert_eq!(a.key, cell_key(1, &a.cell));
    }

    #[test]
    fn memory_store_round_trips() {
        let store = MemoryStore::new();
        assert!(store.is_empty());
        let rec = record(3);
        assert!(store.get(&rec.key).is_none());
        store.put(&rec).unwrap();
        assert_eq!(store.get(&rec.key).unwrap(), rec);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn disk_store_round_trips_and_validates() {
        let dir = std::env::temp_dir().join(format!("rls-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let rec = record(4);
        store.put(&rec).unwrap();
        assert_eq!(store.get(&rec.key).unwrap(), rec);
        assert_eq!(store.len(), 1);
        // A record fetched under the wrong key is rejected.
        let other = record(5);
        assert!(store.get(&other.key).is_none());
        // Corrupt file → treated as missing.
        let path = store.path_for(&rec.key);
        std::fs::write(&path, "not json").unwrap();
        assert!(store.get(&rec.key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
