//! Elastic bin membership: which bin ids are live, and the epoch log that
//! makes scale events replayable.
//!
//! The paper fixes `n`; production does not.  [`Membership`] tracks the
//! *live* subset of a monotonically growing id space: bins join at the next
//! fresh id (ids are **never reused**, so recorded trajectories and
//! snapshots stay unambiguous) and retire in place, leaving a permanently
//! empty slot behind.  Every change appends a [`MembershipRecord`]; the
//! 1-based index of a record is its **epoch**, and replaying the log from
//! [`MembershipSnapshot`] reconstructs the exact live set — which is how
//! snapshot restore and topology re-derivation stay deterministic.
//!
//! A freshly booted membership is **dense**: the live set is `0..n` in id
//! order and no per-bin array exists, so a churn-free engine pays nothing
//! per bin for elasticity.  The first scale event materializes the live
//! set as a positional array (`live_ids`) with an id → position inverse
//! (`pos`, where a sentinel marks a retired id), so "a uniformly random
//! live bin" stays one `next_index` draw.  Both forms answer every query
//! alike — position `k` of a dense set is id `k` — which keeps static
//! (churn-free) trajectories bit-identical to the pre-elastic engines.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

/// One membership change; its 1-based position in the log is its epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MembershipRecord {
    /// The bin that joined or retired.
    pub bin: u32,
    /// `true` for a join, `false` for a retirement.
    pub joined: bool,
}

/// The persistent form of a membership history: the boot-time bin count
/// plus the full epoch log.  Replaying the log is exact, so this is all a
/// snapshot needs to carry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MembershipSnapshot {
    /// Number of bins at boot (ids `0..initial_n`, all live).
    pub initial_n: usize,
    /// Every membership change since boot, in epoch order.
    pub log: Vec<MembershipRecord>,
}

impl MembershipSnapshot {
    /// Reconstruct the membership by replaying the log.
    ///
    /// Fails with a description if the log is inconsistent (a join at the
    /// wrong id, a retirement of a dead bin, or draining the last live
    /// bin).
    pub fn replay(&self) -> Result<Membership, String> {
        self.replay_with(|_, _| {})
    }

    /// [`replay`](Self::replay), invoking `visit` after each applied
    /// record with the membership state *including* that record — the
    /// hook an adjacency layer needs to re-derive its per-epoch patches.
    pub fn replay_with<F>(&self, mut visit: F) -> Result<Membership, String>
    where
        F: FnMut(MembershipRecord, &Membership),
    {
        if self.initial_n == 0 {
            return Err("membership needs at least one boot-time bin".into());
        }
        let mut membership = Membership::new(self.initial_n);
        for (i, rec) in self.log.iter().enumerate() {
            let epoch = i + 1;
            if rec.joined {
                let id = membership.join();
                if id != rec.bin as usize {
                    return Err(format!(
                        "membership log epoch {epoch}: join allocated id {id} but the log says {}",
                        rec.bin
                    ));
                }
            } else {
                let bin = rec.bin as usize;
                if !membership.is_live(bin) {
                    return Err(format!(
                        "membership log epoch {epoch}: retiring bin {bin} which is not live"
                    ));
                }
                if membership.live_count() == 1 {
                    return Err(format!(
                        "membership log epoch {epoch}: cannot retire the last live bin"
                    ));
                }
                membership.retire(bin);
            }
            visit(*rec, &membership);
        }
        Ok(membership)
    }
}

/// `pos` entry of a retired id.  Positions stay below it: ids (hence
/// live counts) are capped at `u32::MAX` by [`Membership::join`].
const RETIRED: u32 = u32::MAX;

/// The live subset of a monotonically growing bin id space.
///
/// Equality is equality of the history (boot size and epoch log), which
/// determines every other field.
#[derive(Debug, Clone)]
pub struct Membership {
    /// The live ids in positional order (swap-removed on retire).  Empty
    /// while the membership is dense (epoch 0).
    live_ids: Vec<u32>,
    /// Position of each id inside `live_ids`, [`RETIRED`] once it left.
    /// Empty while the membership is dense.
    pos: Vec<u32>,
    /// Boot-time bin count.
    initial_n: usize,
    /// Every membership change since boot, in epoch order.
    log: Vec<MembershipRecord>,
    /// The identity list [`live_ids`](Membership::live_ids) lends out for
    /// a dense membership, built on the first such call.
    dense_ids: OnceLock<Box<[u32]>>,
}

impl PartialEq for Membership {
    fn eq(&self, other: &Self) -> bool {
        self.initial_n == other.initial_n && self.log == other.log
    }
}

impl Eq for Membership {}

impl Membership {
    /// A freshly booted system: ids `0..n`, all live, epoch 0.  Allocates
    /// nothing per bin until the first [`join`](Self::join) or
    /// [`retire`](Self::retire).
    ///
    /// # Panics
    /// Panics if `n == 0` or `n` exceeds `u32` range (the engines reject
    /// both long before this point).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "membership needs at least one bin");
        assert!(u32::try_from(n).is_ok(), "bin count exceeds u32 range");
        Self {
            live_ids: Vec::new(),
            pos: Vec::new(),
            initial_n: n,
            log: Vec::new(),
            dense_ids: OnceLock::new(),
        }
    }

    /// Whether the live set is still the boot-time `0..initial_n` with no
    /// per-bin arrays behind it.
    #[inline]
    fn is_dense(&self) -> bool {
        self.log.is_empty()
    }

    /// Total ids ever allocated (live + retired); the next join uses this.
    #[inline]
    pub fn capacity(&self) -> usize {
        if self.is_dense() {
            self.initial_n
        } else {
            self.pos.len()
        }
    }

    /// Number of currently live bins.
    #[inline]
    pub fn live_count(&self) -> usize {
        if self.is_dense() {
            self.initial_n
        } else {
            self.live_ids.len()
        }
    }

    /// Whether `bin` is currently a member.
    #[inline]
    pub fn is_live(&self, bin: usize) -> bool {
        if self.is_dense() {
            bin < self.initial_n
        } else {
            self.pos.get(bin).is_some_and(|&p| p != RETIRED)
        }
    }

    /// Current epoch: the number of membership changes since boot.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.log.len() as u64
    }

    /// Whether any scale event has happened (epoch > 0).  While `false`,
    /// the live set is exactly `0..n` and every sampling path reduces to
    /// the pre-elastic law.
    #[inline]
    pub fn is_elastic(&self) -> bool {
        !self.is_dense()
    }

    /// The live ids in positional (sampling) order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        (0..self.live_count()).map(|k| self.live_at(k))
    }

    /// The live ids in positional (sampling) order, as a slice.  A dense
    /// membership builds its identity list on the first call (4 bytes a
    /// bin, kept until the first scale event), so hot paths use
    /// [`iter`](Self::iter) and [`live_at`](Self::live_at) instead.
    pub fn live_ids(&self) -> &[u32] {
        if self.is_dense() {
            self.dense_ids
                .get_or_init(|| (0..id32(self.initial_n)).collect())
        } else {
            &self.live_ids
        }
    }

    /// The live id at sampling position `k`.
    ///
    /// # Panics
    /// Panics if `k >= live_count`.
    #[inline]
    pub fn live_at(&self, k: usize) -> usize {
        if self.is_dense() {
            assert!(k < self.initial_n, "position {k} outside the live set");
            k
        } else {
            self.live_ids[k] as usize
        }
    }

    /// The live ids in ascending id order (structured-topology rebuilds
    /// map vertex `i` to the `i`-th smallest live id).
    pub fn sorted_live_ids(&self) -> Vec<u32> {
        if self.is_dense() {
            return (0..id32(self.initial_n)).collect();
        }
        let mut ids = self.live_ids.clone();
        ids.sort_unstable();
        ids
    }

    /// The epoch log so far.
    #[inline]
    pub fn log(&self) -> &[MembershipRecord] {
        &self.log
    }

    /// Boot-time bin count.
    #[inline]
    pub fn initial_n(&self) -> usize {
        self.initial_n
    }

    /// Build the positional arrays of a dense membership (the identity
    /// on `0..initial_n`) ahead of its first scale event.
    fn materialize(&mut self) {
        if self.is_dense() {
            self.live_ids = match self.dense_ids.take() {
                Some(ids) => ids.into_vec(),
                None => (0..id32(self.initial_n)).collect(),
            };
            self.pos = self.live_ids.clone();
        }
    }

    /// Admit a new bin at the next fresh id and return that id.
    ///
    /// # Panics
    /// Panics if the id would reach `u32::MAX`.
    pub fn join(&mut self) -> usize {
        self.materialize();
        let id = self.pos.len();
        let bin = id32(id);
        assert!(bin != RETIRED, "bin count exceeds u32 range");
        self.pos.push(id32(self.live_ids.len()));
        self.live_ids.push(bin);
        self.log.push(MembershipRecord { bin, joined: true });
        id
    }

    /// Retire a live bin.  The id slot survives (never reused); the bin
    /// simply leaves the live set.
    ///
    /// # Panics
    /// Panics if `bin` is not live or is the last live bin.
    pub fn retire(&mut self, bin: usize) {
        assert!(self.is_live(bin), "bin {bin} is not a live member");
        assert!(self.live_count() > 1, "cannot retire the last live bin");
        self.materialize();
        let p = std::mem::replace(&mut self.pos[bin], RETIRED) as usize;
        self.live_ids.swap_remove(p);
        if p < self.live_ids.len() {
            // Fix the inverse index of the id that filled the hole.
            let moved = self.live_ids[p] as usize;
            self.pos[moved] = id32(p);
        }
        self.log.push(MembershipRecord {
            bin: id32(bin),
            joined: false,
        });
    }

    /// The persistent form: boot size plus epoch log.
    pub fn snapshot(&self) -> MembershipSnapshot {
        MembershipSnapshot {
            initial_n: self.initial_n,
            log: self.log.clone(),
        }
    }
}

/// An id or position as stored in the arrays.
fn id32(i: usize) -> u32 {
    i.try_into().expect("bin count exceeds u32 range")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_state_is_dense_and_ordered() {
        let m = Membership::new(4);
        assert_eq!(m.capacity(), 4);
        assert_eq!(m.live_count(), 4);
        assert_eq!(m.epoch(), 0);
        assert!(!m.is_elastic());
        assert_eq!(m.live_ids(), &[0, 1, 2, 3]);
        assert!((0..4).all(|b| m.is_live(b)));
        assert!(!m.is_live(4));
    }

    #[test]
    fn join_allocates_fresh_ids_and_bumps_the_epoch() {
        let mut m = Membership::new(2);
        assert_eq!(m.join(), 2);
        assert_eq!(m.join(), 3);
        assert_eq!(m.capacity(), 4);
        assert_eq!(m.live_count(), 4);
        assert_eq!(m.epoch(), 2);
        assert!(m.is_elastic());
        assert_eq!(
            m.log(),
            &[
                MembershipRecord {
                    bin: 2,
                    joined: true
                },
                MembershipRecord {
                    bin: 3,
                    joined: true
                },
            ]
        );
    }

    #[test]
    fn retire_swaps_out_of_the_live_set_but_keeps_the_slot() {
        let mut m = Membership::new(4);
        m.retire(1);
        assert!(!m.is_live(1));
        assert_eq!(m.live_count(), 3);
        assert_eq!(m.capacity(), 4, "the id slot is never reused");
        assert_eq!(m.live_ids(), &[0, 3, 2], "swap-remove order");
        assert_eq!(m.sorted_live_ids(), vec![0, 2, 3]);
        // Every live id resolves through the positional inverse.
        for k in 0..m.live_count() {
            let id = m.live_at(k);
            assert!(m.is_live(id));
        }
        // A later join does NOT resurrect id 1.
        assert_eq!(m.join(), 4);
        assert!(!m.is_live(1));
    }

    #[test]
    #[should_panic(expected = "not a live member")]
    fn retiring_a_dead_bin_panics() {
        let mut m = Membership::new(3);
        m.retire(2);
        m.retire(2);
    }

    #[test]
    #[should_panic(expected = "last live bin")]
    fn retiring_the_last_live_bin_panics() {
        let mut m = Membership::new(2);
        m.retire(0);
        m.retire(1);
    }

    #[test]
    fn snapshot_replay_reconstructs_the_exact_live_set() {
        let mut m = Membership::new(3);
        m.join();
        m.retire(0);
        m.join();
        m.retire(3);
        let snap = m.snapshot();
        let back = snap.replay().unwrap();
        assert_eq!(back, m, "replay is exact, including sampling order");
        let json = serde_json::to_string(&snap).unwrap();
        let snap2: MembershipSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap2.replay().unwrap(), m);
    }

    #[test]
    fn replay_rejects_inconsistent_logs() {
        let bad_join = MembershipSnapshot {
            initial_n: 2,
            log: vec![MembershipRecord {
                bin: 7,
                joined: true,
            }],
        };
        assert!(bad_join.replay().unwrap_err().contains("allocated id"));
        let dead_retire = MembershipSnapshot {
            initial_n: 2,
            log: vec![MembershipRecord {
                bin: 5,
                joined: false,
            }],
        };
        assert!(dead_retire.replay().unwrap_err().contains("not live"));
        let drained = MembershipSnapshot {
            initial_n: 1,
            log: vec![MembershipRecord {
                bin: 0,
                joined: false,
            }],
        };
        assert!(drained.replay().unwrap_err().contains("last live bin"));
        let empty = MembershipSnapshot {
            initial_n: 0,
            log: vec![],
        };
        assert!(empty.replay().is_err());
    }
}
