//! Counted-tree load vector: exchangeable-ball sampling in O(log n).
//!
//! The paper's process only ever needs *a uniformly random ball* — and
//! balls are exchangeable, so the law of the process depends on the load
//! vector alone.  Picking a uniform ball is therefore the same thing as
//! picking a **bin with probability `ℓ_i / m`**, which a counted tree
//! over the loads answers in `O(log n)` time and `O(n)` memory: draw a
//! uniform rank `r ∈ [0, m)` and descend to the first bin whose cumulative
//! load exceeds `r`.
//!
//! This replaces the engines' historical `balls: Vec<u32>` map (4 bytes
//! *per ball*, hard-capped at `u32::MAX` balls) with a structure whose
//! size is independent of `m`: a billion-ball instance costs the same
//! memory as a thousand-ball one.  The tree is maintained incrementally —
//! `±1` per endpoint of every move, arrival or departure, mirroring the
//! [`LoadTracker`](crate::LoadTracker) hooks — so the engines never pay an
//! `O(n)` rebuild on the hot path.
//!
//! The tree is 8-ary: each node is the 8 subtree sums of its children,
//! one 64-byte cache line, so a descent reads one line per level —
//! `⌈log₈ capacity⌉` levels (4 at `n = 1024`, 7 at `n = 2²⁰`) instead
//! of a binary tree's `log₂ capacity + 1` dependent loads.
//!
//! The leaf level *is* the load vector: the index owns a [`Config`] as its
//! leaves ([`config`](LoadIndex::config)) and keeps only the interior sums
//! beside it, so an engine holding an index holds no second copy of the
//! loads.
//!
//! The index is deliberately RNG-free (this crate is purely combinatorial):
//! callers draw the rank themselves and ask [`bin_at`](LoadIndex::bin_at)
//! for the bin, which keeps the random-stream accounting in the engines.

use crate::Config;

/// Children per tree node: 8 `u64` subtree sums fill one 64-byte line.
const FANOUT: usize = 8;
/// `log₂ FANOUT`: a bin's ancestor word at level `k` is `bin >> (3k)`.
const FANOUT_BITS: u32 = 3;
/// Most levels a `usize` capacity can need: `⌈64 / 3⌉`.
const MAX_LEVELS: usize = 22;

/// An 8-ary counted tree over the `n` bin loads.
///
/// Supports `O(log n)` rank queries (`bin_at`) and point updates, `O(1)`
/// single-bin loads, with the total load kept alongside so
/// sampling needs no extra traversal.
///
/// ```
/// use rls_core::{Config, LoadIndex, Move};
///
/// let mut cfg = Config::from_loads(vec![3, 0, 5]).unwrap();
/// let mut idx = LoadIndex::new(cfg.clone());
/// assert_eq!(idx.total(), 8);
/// // Ranks lay the balls out bin by bin: rank 3 is the first ball of
/// // bin 2 (bin 1 is empty), so a uniform rank picks a bin with
/// // probability load/m — the law of activating a uniform ball.
/// assert_eq!(idx.bin_at(2), 0);
/// assert_eq!(idx.bin_at(3), 2);
///
/// // The leaves are the configuration: updates move balls in both.
/// cfg.apply(Move::new(2, 1)).unwrap();
/// idx.record_move(2, 1);
/// assert!(idx.matches(&cfg));
/// assert_eq!(idx.config(), &cfg);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadIndex {
    /// The leaf level: the load vector and its total `m` (`u64` end to
    /// end — no `u32` ball cap).  Bin ids are `0..n`.
    leaves: Config,
    /// Levels `1..levels` of the tree, lowest first.  Level `k` holds one
    /// word per aligned block of `8^k` leaf slots — that block's load —
    /// padded to whole 8-word nodes, so word `bin >> 3k` of level `k` is
    /// the ancestor of `bin`, and each node of level `k + 1` is one cache
    /// line of child sums over level `k`.  Slots past `n` and the padding
    /// carry zero mass, so rank descent never selects them.
    interior: Vec<u64>,
    /// Offset of level `k + 1` in `interior`; the top level is the single
    /// root node (the leaves' one node when there is no interior).
    level_start: [usize; MAX_LEVELS],
    /// Number of levels, leaves included: `max(1, ⌈log₈ capacity⌉)`.
    levels: u32,
    /// Leaf slots (a power of two `≥ n`); grows by doubling.
    capacity: usize,
    /// How many O(capacity) rebuilds [`add_bin`](Self::add_bin) has paid.
    /// Capacity doubles on each, so the amortized growth cost stays O(1)
    /// per added bin — a cost model pinned by tests.
    rebuilds: u64,
}

impl LoadIndex {
    /// Build the index over a configuration, which becomes its leaves (no
    /// copy of the load vector is made).
    pub fn new(cfg: Config) -> Self {
        let capacity = cfg.n().next_power_of_two();
        let mut index = Self {
            leaves: cfg,
            interior: Vec::new(),
            level_start: [0; MAX_LEVELS],
            levels: 1,
            capacity: 0,
            rebuilds: 0,
        };
        index.lay_out(capacity);
        index
    }

    /// Build the index over a copy of a raw load vector in `O(n)`.
    ///
    /// # Panics
    /// Panics if `loads` is empty or the total overflows `u64` (a
    /// [`Config`] can never hold either).
    pub fn from_loads(loads: &[u64]) -> Self {
        Self::new(Config::from_loads(loads.to_vec()).unwrap_or_else(|e| panic!("LoadIndex: {e}")))
    }

    /// Lay out the interior levels over `capacity` leaf slots and fill
    /// them from the leaves, in one allocation of the exact final size.
    fn lay_out(&mut self, capacity: usize) {
        debug_assert!(self.n() <= capacity && capacity.is_power_of_two());
        let mut levels = 1;
        let mut words = 0;
        // Nodes on the level below; more than one needs a parent level.
        let mut nodes = capacity.div_ceil(FANOUT);
        while nodes > 1 {
            self.level_start[levels - 1] = words;
            levels += 1;
            nodes = nodes.div_ceil(FANOUT);
            words += nodes * FANOUT;
        }
        self.levels = levels.try_into().expect("at most MAX_LEVELS levels");
        self.capacity = capacity;
        self.interior = interior_sums(self.leaves.loads(), self.interior_starts(), words);
    }

    /// Offsets of the interior levels in `interior`, lowest first.
    #[inline]
    fn interior_starts(&self) -> &[usize] {
        &self.level_start[..self.levels as usize - 1]
    }

    /// The leaves as a configuration: the load vector and its total.
    #[inline]
    pub fn config(&self) -> &Config {
        &self.leaves
    }

    /// Number of allocated bins `n` (including retired bins still holding
    /// their zero-mass slot; the elastic engines mask retirees by load).
    #[inline]
    pub fn n(&self) -> usize {
        self.leaves.n()
    }

    /// Allocated leaf capacity (a power of two `≥ n`); grows by doubling
    /// in [`add_bin`](Self::add_bin).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many capacity-doubling rebuilds this index has performed.
    #[inline]
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Allocate a fresh bin id at the end of the index, seeded with `mass`,
    /// and return it.  Amortized O(log n): when `n == capacity` the
    /// interior is rebuilt at double capacity (O(capacity), counted in
    /// [`rebuilds`](Self::rebuilds)); otherwise the spare slot is claimed
    /// with one point update.
    ///
    /// # Panics
    /// Panics if the total would overflow `u64`.
    pub fn add_bin(&mut self, mass: u64) -> usize {
        if self.n() == self.capacity {
            self.lay_out(self.capacity * 2);
            self.rebuilds += 1;
        }
        // Grow the leaves straight to the tree's capacity, never past it.
        let loads = &mut self.leaves.loads;
        if loads.len() == loads.capacity() {
            loads.reserve_exact(self.capacity - loads.len());
        }
        let bin = self.leaves.push_bin();
        if mass > 0 {
            self.add(bin, mass);
        }
        bin
    }

    /// Retire a bin: drain whatever mass it still carries and return it.
    /// The slot keeps its id (ids are never reused) but holds zero mass
    /// forever after, so rank descent can never select it again.
    ///
    /// # Panics
    /// Panics if `bin` is out of range.
    pub fn retire_bin(&mut self, bin: usize) -> u64 {
        let mass = self.load(bin);
        if mass > 0 {
            self.sub(bin, mass);
        }
        mass
    }

    /// Total load `m` (the number of balls).
    #[inline]
    pub fn total(&self) -> u64 {
        self.leaves.m()
    }

    /// The loads of bins `0..n`: the leaf level, which is the load vector
    /// of [`config`](Self::config) itself, so a caller needs no second
    /// copy of it.
    #[inline]
    pub fn loads(&self) -> &[u64] {
        self.leaves.loads()
    }

    /// Load of a single bin: its leaf, read in `O(1)`.
    #[inline]
    pub fn load(&self, bin: usize) -> u64 {
        debug_assert!(bin < self.n(), "bin {bin} outside 0..{}", self.n());
        self.leaves.loads[bin]
    }

    /// The bin holding the ball of rank `rank` when balls are laid out bin
    /// by bin: the first bin whose cumulative load exceeds `rank`.
    ///
    /// Drawing `rank` uniformly from `[0, m)` therefore selects a bin with
    /// probability `ℓ_i / m` — exactly the law of activating a uniformly
    /// random ball.
    ///
    /// # Panics
    /// Panics if `rank >= total` (in particular whenever the index is
    /// empty).
    pub fn bin_at(&self, rank: u64) -> usize {
        self.bin_at_depth(rank).0
    }

    /// Like [`bin_at`](Self::bin_at), but also reports how many tree
    /// levels the descent read — one cache line each, the telemetry
    /// layer's "descent depth" metric.  `bin_at` is a thin wrapper, so the
    /// selection arithmetic is bit-identical whether or not the caller
    /// keeps the depth.
    ///
    /// # Panics
    /// Panics if `rank >= total` (in particular whenever the index is
    /// empty).
    pub fn bin_at_depth(&self, mut rank: u64) -> (usize, u32) {
        assert!(
            rank < self.total(),
            "rank {rank} out of range (total {})",
            self.total()
        );
        // The root node sums to `total > rank`, and `select_child` only
        // enters a child whose sum exceeds the remaining rank, so the
        // descent never reaches a zero-mass (padding or spare) slot.
        let mut pos = 0usize;
        for &start in self.interior_starts().iter().rev() {
            let base = start + pos * FANOUT;
            let node: &[u64; FANOUT] = self.interior[base..base + FANOUT]
                .try_into()
                .expect("interior levels are padded to whole nodes");
            pos = pos * FANOUT + select_child(node, &mut rank);
        }
        let base = pos * FANOUT;
        let child = match self.loads().get(base..base + FANOUT) {
            Some(node) => select_child(node.try_into().expect("a whole node"), &mut rank),
            None => select_tail(&self.loads()[base..], &mut rank),
        };
        (base + child, self.levels)
    }

    /// The start of a staged descent of `rank`: in front of the root,
    /// nothing read yet.  `None` when `rank` is past the current total.
    ///
    /// A staged descent walks the same path as [`bin_at`](Self::bin_at),
    /// a few levels at a time ([`descend`](Self::descend)), so a caller
    /// can [`prefetch`](Self::prefetch) the next node and come back once
    /// it has arrived.  It only ever serves as a memory hint: it records
    /// no descent depth and never panics, even when the tree has changed
    /// since the descent started (a stale path just prefetches the wrong
    /// line).
    ///
    /// ```
    /// use rls_core::LoadIndex;
    ///
    /// let idx = LoadIndex::from_loads(&[3, 0, 5, 1, 0, 2, 7, 4, 1, 6]);
    /// // Rank 9's path in two stages, each prefetching the node it stops at.
    /// let upper = idx.descend(idx.descent(9).unwrap(), 1).unwrap();
    /// idx.prefetch(upper);
    /// let leaf = idx.descend(upper, 0).unwrap();
    /// idx.prefetch(leaf);
    /// assert!(idx.descent(idx.total()).is_none());
    /// ```
    pub fn descent(&self, rank: u64) -> Option<Descent> {
        (rank < self.total()).then_some(Descent {
            level: self.levels - 1,
            node: 0,
            rank,
        })
    }

    /// Continue `descent` down to `level` (0: in front of a leaf node),
    /// reading each node in between and stepping into the child that holds
    /// the rank, as [`bin_at`](Self::bin_at) does.  `None` when the path
    /// runs into a node the tree does not store, which only a descent
    /// started before the tree changed can do.
    pub fn descend(&self, mut descent: Descent, level: u32) -> Option<Descent> {
        while descent.level > level {
            let node: &[u64; FANOUT] = self
                .node_words(descent.level, descent.node)?
                .try_into()
                .ok()?;
            descent.node = descent.node * FANOUT + select_child(node, &mut descent.rank);
            descent.level -= 1;
        }
        Some(descent)
    }

    /// Ask the CPU to start loading the node `descent` stands in front of
    /// (both of its cache lines, since the words need not be line
    /// aligned).  A hint only: it changes no state and no result.
    #[inline]
    pub fn prefetch(&self, descent: Descent) {
        if let Some(words) = self.node_words(descent.level, descent.node) {
            prefetch_lines(words);
        }
    }

    /// Ask the CPU to start loading `bin`'s leaf, the line a load probe
    /// of `bin` reads.  A hint only; out-of-range bins are ignored.
    #[inline]
    pub fn prefetch_bin(&self, bin: usize) {
        if let Some(word) = self.loads().get(bin) {
            prefetch_line(word);
        }
    }

    /// The stored words of node `node` on `level` (0: a leaf node, whose
    /// last one may be partial), or `None` past the end.
    #[inline]
    fn node_words(&self, level: u32, node: usize) -> Option<&[u64]> {
        let words = match level {
            0 => self.loads(),
            _ => self
                .interior
                .get(*self.level_start.get(level as usize - 1)?..)?,
        };
        let base = node.checked_mul(FANOUT)?;
        words
            .get(base..words.len().min(base + FANOUT))
            .filter(|w| !w.is_empty())
    }

    /// Add one ball to `bin`.
    ///
    /// # Panics
    /// Panics if `bin` is out of range or the total would overflow.
    #[inline]
    pub fn increment(&mut self, bin: usize) {
        self.add(bin, 1);
    }

    /// Remove one ball from `bin`.
    ///
    /// # Panics
    /// Panics if `bin` is out of range; panics in debug builds if the bin
    /// is empty (release builds would silently corrupt the tree, exactly
    /// like the [`LoadTracker`](crate::LoadTracker) contract).
    #[inline]
    pub fn decrement(&mut self, bin: usize) {
        self.sub(bin, 1);
    }

    /// Add an arbitrary mass `delta` to `bin` — the weighted generalization
    /// of [`increment`](Self::increment).  The index is value-agnostic:
    /// over ball counts a delta is `1`, over ball *weights* it is the
    /// weight of the arriving ball, and over rate mass it is the bin's
    /// speed (per ball gaining a clock).
    ///
    /// # Panics
    /// Panics if `bin` is out of range or the total would overflow.
    #[inline]
    pub fn add(&mut self, bin: usize, delta: u64) {
        assert!(bin < self.n(), "bin {bin} outside 0..{}", self.n());
        self.leaves.total = self
            .leaves
            .total
            .checked_add(delta)
            .expect("total load fits in u64");
        self.leaves.loads[bin] += delta;
        let mut i = bin;
        for &start in &self.level_start[..self.levels as usize - 1] {
            i >>= FANOUT_BITS;
            self.interior[start + i] += delta;
        }
    }

    /// Remove an arbitrary mass `delta` from `bin` — the weighted
    /// generalization of [`decrement`](Self::decrement).
    ///
    /// # Panics
    /// Panics if `bin` is out of range; panics in debug builds if the bin
    /// holds less than `delta` (release builds would silently corrupt the
    /// tree, exactly like the [`LoadTracker`](crate::LoadTracker)
    /// contract).
    #[inline]
    pub fn sub(&mut self, bin: usize, delta: u64) {
        assert!(bin < self.n(), "bin {bin} outside 0..{}", self.n());
        debug_assert!(
            self.load(bin) >= delta,
            "cannot remove a ball from an empty bin"
        );
        self.leaves.total -= delta;
        self.leaves.loads[bin] -= delta;
        let mut i = bin;
        for &start in &self.level_start[..self.levels as usize - 1] {
            i >>= FANOUT_BITS;
            self.interior[start + i] -= delta;
        }
    }

    /// Record a ball moving from `from` to `to` (the companion of
    /// [`Config::apply`] and [`LoadTracker::record_move`](crate::LoadTracker::record_move)).
    /// Self-loops must not be recorded.
    #[inline]
    pub fn record_move(&mut self, from: usize, to: usize) {
        debug_assert_ne!(from, to, "self-loops must not be recorded");
        assert!(from < self.n(), "bin {from} outside 0..{}", self.n());
        assert!(to < self.n(), "bin {to} outside 0..{}", self.n());
        debug_assert!(
            self.load(from) > 0,
            "cannot remove a ball from an empty bin"
        );
        self.leaves.loads[from] -= 1;
        self.leaves.loads[to] += 1;
        // One walk up both paths; where they meet, the two updates cancel.
        let (mut f, mut t) = (from, to);
        for &start in &self.level_start[..self.levels as usize - 1] {
            f >>= FANOUT_BITS;
            t >>= FANOUT_BITS;
            self.interior[start + f] -= 1;
            self.interior[start + t] += 1;
        }
    }

    /// Verify the tree (test/debug helper, `O(n)`): the leaves equal
    /// `cfg`, every interior word is the sum of its 8 children, and the
    /// root sums to `m`.
    pub fn matches(&self, cfg: &Config) -> bool {
        let starts = self.interior_starts();
        let root = match starts.last() {
            Some(&start) => &self.interior[start..],
            None => self.loads(),
        };
        self.leaves == *cfg
            && self.interior == interior_sums(self.loads(), starts, self.interior.len())
            && root.iter().try_fold(0u64, |acc, &w| acc.checked_add(w)) == Some(cfg.m())
    }
}

/// A rank's descent through a [`LoadIndex`], stopped in front of one node
/// (see [`LoadIndex::descent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descent {
    /// Level of the node read next (0: a leaf node).
    level: u32,
    /// That node's index within its level.
    node: usize,
    /// The rank still to place within that node.
    rank: u64,
}

/// Prefetch the first and the last of `words`: every cache line of a
/// node of at most 64 bytes.
#[inline]
fn prefetch_lines(words: &[u64]) {
    if let (Some(first), Some(last)) = (words.first(), words.last()) {
        prefetch_line(first);
        prefetch_line(last);
    }
}

/// Hint the CPU to pull the cache line holding `word` into L1.  A no-op
/// off x86_64.
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch_line(word: &u64) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint: it never faults (not even on a bad
    // address), never writes and changes no value a load returns; `word`
    // is a live reference, and SSE is part of the x86_64 baseline.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(core::ptr::from_ref(word).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = word;
}

/// The interior levels (offsets `starts`, `words` in all) over `leaves`:
/// level 1 sums each leaf node (the last may be partial), every higher
/// level each node of the level below.
fn interior_sums(leaves: &[u64], starts: &[usize], words: usize) -> Vec<u64> {
    let mut interior = vec![0u64; words];
    for (sum, node) in interior.iter_mut().zip(leaves.chunks(FANOUT)) {
        *sum = node.iter().sum();
    }
    // Every interior sum is bounded by the leaves' total, so none can
    // overflow.
    for pair in starts.windows(2) {
        let (below, above) = interior.split_at_mut(pair[1]);
        for (sum, node) in above.iter_mut().zip(below[pair[0]..].chunks_exact(FANOUT)) {
            *sum = node.iter().sum();
        }
    }
    interior
}

/// [`select_child`] over the partial last leaf node (`n` not a multiple
/// of 8), zero-padded: absent slots carry no mass.
#[cold]
fn select_tail(tail: &[u64], rank: &mut u64) -> usize {
    let mut node = [0u64; FANOUT];
    node[..tail.len()].copy_from_slice(tail);
    select_child(&node, rank)
}

/// The child of `node` holding `rank` — the first whose running sum
/// exceeds it — with the skipped mass subtracted from `rank`.
///
/// A branch-free binary select over pair sums: the lower half
/// `s01 + s23`, then the pair `s01` or `s45`, then one child.  That is
/// three dependent compares instead of an 8-long serial prefix chain, and
/// mask arithmetic instead of data-dependent branches, so an unpredictable
/// rank costs no pipeline flush.
#[inline(always)]
fn select_child(node: &[u64; FANOUT], rank: &mut u64) -> usize {
    let s01 = node[0] + node[1];
    let s23 = node[2] + node[3];
    let s45 = node[4] + node[5];
    let mut r = *rank;

    let upper = s01 + s23 <= r;
    let mask = u64::from(upper).wrapping_neg();
    r -= (s01 + s23) & mask;
    let pair = s01 ^ ((s01 ^ s45) & mask);

    let odd_pair = pair <= r;
    r -= pair & u64::from(odd_pair).wrapping_neg();
    let child = usize::from(upper) * 4 + usize::from(odd_pair) * 2;

    let single = node[child];
    let odd = single <= r;
    r -= single & u64::from(odd).wrapping_neg();
    *rank = r;
    child + usize::from(odd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cumulative_bin(loads: &[u64], rank: u64) -> usize {
        let mut acc = 0u64;
        for (i, &l) in loads.iter().enumerate() {
            acc += l;
            if rank < acc {
                return i;
            }
        }
        unreachable!("rank within total")
    }

    #[test]
    fn bin_at_depth_agrees_with_bin_at_and_is_bounded() {
        let loads = [3u64, 0, 7, 1, 0, 5, 2, 9, 4, 6];
        let idx = LoadIndex::from_loads(&loads);
        let total: u64 = loads.iter().sum();
        for rank in 0..total {
            let (bin, depth) = idx.bin_at_depth(rank);
            assert_eq!(bin, idx.bin_at(rank));
            assert_eq!(bin, cumulative_bin(&loads, rank));
            assert!(depth >= 1, "descent must inspect at least one node");
            assert!(
                depth <= 64 - (loads.len() as u64).leading_zeros() + 1,
                "depth {depth} exceeds tree height for {} bins",
                loads.len()
            );
        }
    }

    #[test]
    fn a_staged_descent_walks_the_path_of_bin_at() {
        // One, two and four levels; the last leaf node partial or whole.
        for n in [5usize, 13, 64, 300] {
            let loads: Vec<u64> = (0..n as u64).map(|b| (b * 7 + 3) % 5).collect();
            let idx = LoadIndex::from_loads(&loads);
            for rank in 0..idx.total() {
                let start = idx.descent(rank).expect("rank below the total");
                assert_eq!(start.level + 1, idx.levels);
                // In two stages, as the engine prefetches: to level 1, then
                // to the leaves.
                let upper = idx.descend(start, 1).unwrap();
                assert_eq!(upper.level, start.level.min(1));
                let leaf = idx.descend(upper, 0).unwrap();
                assert_eq!(leaf.level, 0);
                assert_eq!(leaf.node, idx.bin_at(rank) / FANOUT, "n {n} rank {rank}");
                assert_eq!(idx.descend(start, 0), Some(leaf));
                idx.prefetch(start);
                idx.prefetch(leaf);
            }
            assert_eq!(idx.descent(idx.total()), None);
            assert_eq!(idx.descent(u64::MAX), None);
        }
    }

    #[test]
    fn a_stale_descent_never_panics() {
        // Start every descent on a full tree, empty most of it, then finish
        // the descents and prefetch: paths now lead into zero-mass and
        // absent nodes, which yield `None` or a harmless node.
        let mut idx = LoadIndex::from_loads(&[9u64; 1000]);
        let starts: Vec<Descent> = (0..idx.total())
            .step_by(7)
            .map(|rank| idx.descent(rank).unwrap())
            .collect();
        for bin in 1..1000 {
            idx.retire_bin(bin);
        }
        for &start in &starts {
            for level in (0..idx.levels).rev() {
                if let Some(d) = idx.descend(start, level) {
                    idx.prefetch(d);
                }
            }
        }
        for bin in [0, 999, 1000, 1023, 1024, usize::MAX] {
            idx.prefetch_bin(bin);
        }
        let far = Descent {
            level: 0,
            node: usize::MAX,
            rank: 0,
        };
        idx.prefetch(far);
        assert_eq!(idx.descend(far, 0), Some(far));
        assert_eq!(
            idx.descend(
                Descent {
                    level: 2,
                    node: usize::MAX / 4,
                    rank: 0
                },
                0
            ),
            None
        );
    }

    #[test]
    fn construction_matches_configuration() {
        let cfg = Config::from_loads(vec![3, 0, 5, 1, 0, 2]).unwrap();
        let idx = LoadIndex::new(cfg.clone());
        assert!(idx.matches(&cfg));
        assert_eq!(idx.n(), 6);
        assert_eq!(idx.total(), 11);
        assert_eq!(idx.loads(), cfg.loads());
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn empty_load_vector_rejected() {
        let _ = LoadIndex::from_loads(&[]);
    }

    #[test]
    fn bin_at_agrees_with_the_cumulative_scan() {
        let loads = [3u64, 0, 5, 1, 0, 2, 7];
        let idx = LoadIndex::from_loads(&loads);
        for rank in 0..idx.total() {
            assert_eq!(
                idx.bin_at(rank),
                cumulative_bin(&loads, rank),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn bin_at_never_returns_an_empty_bin() {
        let loads = [0u64, 4, 0, 0, 1, 0];
        let idx = LoadIndex::from_loads(&loads);
        for rank in 0..idx.total() {
            assert!(loads[idx.bin_at(rank)] > 0, "rank {rank}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bin_at_rejects_rank_past_total() {
        let idx = LoadIndex::from_loads(&[2, 1]);
        let _ = idx.bin_at(3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn empty_index_cannot_be_sampled() {
        let idx = LoadIndex::from_loads(&[0, 0, 0]);
        let _ = idx.bin_at(0);
    }

    #[test]
    fn updates_track_moves_arrivals_and_departures() {
        let mut cfg = Config::from_loads(vec![4, 1, 0, 3]).unwrap();
        let mut idx = LoadIndex::new(cfg.clone());

        cfg.apply(crate::Move::new(0, 2)).unwrap();
        idx.record_move(0, 2);
        assert!(idx.matches(&cfg));

        cfg.add_ball(1).unwrap();
        idx.increment(1);
        assert!(idx.matches(&cfg));

        cfg.remove_ball(3).unwrap();
        idx.decrement(3);
        assert!(idx.matches(&cfg));
        assert_eq!(idx.total(), cfg.m());
    }

    #[test]
    fn stays_consistent_over_a_long_random_walk() {
        let mut cfg = Config::all_in_one_bin(13, 77).unwrap();
        let mut idx = LoadIndex::new(cfg.clone());
        let mut state = 0xDEADBEEFu64;
        for step in 0..5000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (state >> 33) as usize % cfg.n();
            let b = (state >> 13) as usize % cfg.n();
            match step % 4 {
                0 => {
                    cfg.add_ball(a).unwrap();
                    idx.increment(a);
                }
                1 if cfg.load(b) > 0 => {
                    cfg.remove_ball(b).unwrap();
                    idx.decrement(b);
                }
                _ if a != b && cfg.load(a) > 0 => {
                    cfg.apply(crate::Move::new(a, b)).unwrap();
                    idx.record_move(a, b);
                }
                _ => continue,
            }
            assert!(idx.matches(&cfg), "step {step}");
        }
        // Rank queries still agree with a linear scan after the churn.
        for rank in (0..idx.total()).step_by(17) {
            assert_eq!(idx.bin_at(rank), cumulative_bin(cfg.loads(), rank));
        }
    }

    #[test]
    fn weighted_deltas_generalize_the_unit_updates() {
        // A weight-mass index: bins carry arbitrary mass, not ball counts.
        let mut idx = LoadIndex::from_loads(&[10, 0, 3]);
        idx.add(1, 7);
        assert_eq!(idx.load(1), 7);
        assert_eq!(idx.total(), 20);
        idx.sub(0, 4);
        assert_eq!(idx.load(0), 6);
        assert_eq!(idx.total(), 16);
        // Rank descent walks the weighted mass exactly like ball counts.
        assert_eq!(idx.bin_at(5), 0);
        assert_eq!(idx.bin_at(6), 1);
        assert_eq!(idx.bin_at(12), 1);
        assert_eq!(idx.bin_at(13), 2);
        // Delta-1 is exactly the unit path.
        let mut unit = LoadIndex::from_loads(&[2, 2]);
        let mut delta = unit.clone();
        unit.increment(0);
        delta.add(0, 1);
        assert_eq!(unit, delta);
        unit.decrement(1);
        delta.sub(1, 1);
        assert_eq!(unit, delta);
    }

    // The check is a `debug_assert!`: release builds compile it out.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "empty bin")]
    fn sub_past_the_bin_mass_panics_in_debug() {
        let mut idx = LoadIndex::from_loads(&[3, 1]);
        idx.sub(0, 4);
    }

    #[test]
    fn huge_loads_do_not_overflow() {
        // A four-billion-ball bin: the lifted u32 cap in miniature.
        let big = u32::MAX as u64 + 1;
        let idx = LoadIndex::from_loads(&[big, 1, big]);
        assert_eq!(idx.total(), 2 * big + 1);
        assert_eq!(idx.bin_at(0), 0);
        assert_eq!(idx.bin_at(big - 1), 0);
        assert_eq!(idx.bin_at(big), 1);
        assert_eq!(idx.bin_at(big + 1), 2);
        assert_eq!(idx.bin_at(2 * big), 2);
    }

    #[test]
    fn single_bin_index_works() {
        let mut idx = LoadIndex::from_loads(&[5]);
        assert_eq!(idx.bin_at(4), 0);
        idx.increment(0);
        assert_eq!(idx.total(), 6);
        idx.decrement(0);
        assert_eq!(idx.total(), 5);
    }

    // The check is a `debug_assert!`: release builds compile it out.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "empty bin")]
    fn decrement_on_empty_bin_panics_in_debug() {
        let mut idx = LoadIndex::from_loads(&[1, 0]);
        idx.decrement(1);
    }

    #[test]
    fn add_bin_grows_and_samples_the_new_bin() {
        let mut idx = LoadIndex::from_loads(&[3, 1]);
        assert_eq!(idx.capacity(), 2);
        let bin = idx.add_bin(5);
        assert_eq!(bin, 2);
        assert_eq!(idx.n(), 3);
        assert_eq!(idx.capacity(), 4, "full tree doubles");
        assert_eq!(idx.rebuilds(), 1);
        assert_eq!(idx.total(), 9);
        assert_eq!(idx.load(2), 5);
        // Rank descent reaches the freshly added bin.
        assert_eq!(idx.bin_at(3), 1);
        assert_eq!(idx.bin_at(4), 2);
        assert_eq!(idx.bin_at(8), 2);
        // The spare slot is claimed without another rebuild.
        let bin = idx.add_bin(0);
        assert_eq!(bin, 3);
        assert_eq!(idx.rebuilds(), 1);
        idx.add(3, 2);
        assert_eq!(idx.bin_at(idx.total() - 1), 3);
    }

    #[test]
    fn retire_bin_masks_the_slot_at_zero_rate() {
        let mut idx = LoadIndex::from_loads(&[4, 7, 2]);
        assert_eq!(idx.retire_bin(1), 7);
        assert_eq!(idx.n(), 3, "the id slot survives retirement");
        assert_eq!(idx.total(), 6);
        assert_eq!(idx.load(1), 0);
        for rank in 0..idx.total() {
            assert_ne!(idx.bin_at(rank), 1, "rank {rank} hit a retired bin");
        }
        // Retiring an already-empty bin is a zero-mass no-op.
        assert_eq!(idx.retire_bin(1), 0);
        assert_eq!(idx.total(), 6);
    }

    #[test]
    fn growth_cost_model_is_amortized_doubling() {
        // Pinned cost model: growing 1 → 1024 bins pays exactly
        // log2(1024) = 10 rebuilds, never one per add_bin.
        let mut idx = LoadIndex::from_loads(&[1]);
        for _ in 1..1024 {
            idx.add_bin(1);
        }
        assert_eq!(idx.n(), 1024);
        assert_eq!(idx.capacity(), 1024);
        assert_eq!(idx.rebuilds(), 10);
        assert_eq!(idx.total(), 1024);
        for rank in (0..1024).step_by(97) {
            assert_eq!(idx.bin_at(rank), rank as usize);
        }
    }

    #[test]
    fn elastic_interleaving_agrees_with_brute_force_rebuild() {
        let mut idx = LoadIndex::from_loads(&[5, 0, 3]);
        let mut loads = vec![5u64, 0, 3];
        let mut retired = vec![false; 3];
        let mut state = 0x5EED_CAFEu64;
        for step in 0..600 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pick = (state >> 33) as usize % loads.len();
            match step % 5 {
                0 => {
                    let mass = (state >> 13) % 9;
                    let bin = idx.add_bin(mass);
                    assert_eq!(bin, loads.len());
                    loads.push(mass);
                    retired.push(false);
                }
                1 if !retired[pick] => {
                    idx.add(pick, 2);
                    loads[pick] += 2;
                }
                2 if !retired[pick] && loads[pick] > 0 => {
                    idx.sub(pick, 1);
                    loads[pick] -= 1;
                }
                3 if !retired[pick] && retired.iter().filter(|r| !**r).count() > 1 => {
                    assert_eq!(idx.retire_bin(pick), loads[pick]);
                    loads[pick] = 0;
                    retired[pick] = true;
                }
                _ => continue,
            }
            let fresh = LoadIndex::from_loads(&loads);
            assert_eq!(idx.total(), fresh.total(), "step {step}");
            for b in 0..loads.len() {
                assert_eq!(idx.load(b), fresh.load(b), "step {step} bin {b}");
            }
            for rank in (0..idx.total()).step_by(11) {
                assert_eq!(idx.bin_at(rank), fresh.bin_at(rank), "step {step}");
            }
        }
        assert!(idx.rebuilds() > 0, "the walk must have exercised growth");
    }

    /// The leaves plus the interior hold at most `capacity·8/7 +
    /// 8·levels` words (≈ 1.14 words per bin): the interior is allocated
    /// at exactly its size and the leaves never past the capacity, both
    /// at construction and after a doubling rebuild.
    fn assert_memory_pinned(idx: &LoadIndex) {
        let levels = idx.levels as usize;
        let bound = idx.capacity() * 8 / 7 + 8 * levels;
        let leaves = idx.leaves.loads.capacity();
        let words = leaves + idx.interior.len();
        assert!(
            words <= bound,
            "{words} words exceed {bound} at capacity {}",
            idx.capacity()
        );
        assert!(leaves <= idx.capacity(), "leaf slack past the capacity");
        assert_eq!(
            idx.interior.capacity(),
            idx.interior.len(),
            "no slack allocation"
        );
    }

    #[test]
    fn memory_is_pinned_to_the_exact_tree_size() {
        for n in [1usize, 7, 8, 9, 63, 64, 65, 512, 513, 1024, 1 << 20] {
            let mut idx = LoadIndex::from_loads(&vec![1; n]);
            assert_memory_pinned(&idx);
            while idx.n() < idx.capacity() {
                idx.add_bin(1);
            }
            let rebuilds = idx.rebuilds();
            idx.add_bin(1);
            assert_eq!(idx.rebuilds(), rebuilds + 1);
            assert_memory_pinned(&idx);
        }
        // 2²⁰ bins: 2²⁰ leaves, then 2¹⁷ + 2¹⁴ + 2¹¹ + 2⁸ + 2⁵ + 8 interior
        // words over 6 more levels.
        let idx = LoadIndex::from_loads(&vec![1; 1 << 20]);
        assert_eq!(idx.levels, 7);
        assert_eq!(idx.loads().len(), 1 << 20);
        assert_eq!(idx.interior.len(), 149_800);
    }

    #[test]
    fn matches_checks_every_interior_word_and_the_total() {
        for n in [1usize, 9, 65, 513] {
            let cfg = Config::from_loads((0..n as u64).map(|i| i % 5).collect()).unwrap();
            let idx = LoadIndex::new(cfg.clone());
            assert!(idx.matches(&cfg));
            // One corrupted word per interior level (the first, the last
            // and one in between) is caught.
            for (k, &start) in idx.interior_starts().iter().enumerate() {
                let next = idx.interior_starts().get(k + 1).copied();
                let end = next.unwrap_or(idx.interior.len());
                for word in [start, (start + end) / 2, end - 1] {
                    let mut bad = idx.clone();
                    bad.interior[word] += 1;
                    assert!(!bad.matches(&cfg), "n {n} level {} word {word}", k + 1);
                }
            }
            // So is a corrupted total, against `cfg` or against the
            // index's own leaves.
            let mut bad = idx.clone();
            bad.leaves.total += 1;
            assert!(!bad.matches(&cfg), "n {n} total");
            assert!(!bad.matches(bad.config()), "n {n} total vs own leaves");
        }
    }
}
