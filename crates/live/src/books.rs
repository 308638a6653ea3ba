//! The per-bin books of the [`LiveEngine`](crate::LiveEngine).
//!
//! [`Books`] is the only code that updates that state (arrive, depart,
//! move, add bin, retire bin), samples from it (clock mass, clock-rank
//! descent, the in-bin ball pick) and validates it.
//!
//! The ball counts are a [`LoadIndex`].  A weighted or speed-aware engine
//! adds a counted tree over per-bin total weight, one over per-bin rate
//! mass `s_i·ℓ_i` (the law of the departure and ring clocks), and the
//! per-ball weight lists when the weight law is not unit.  Loads and
//! weights are read from the trees' leaves; no vector mirrors a tree.
//!
//! Speeds are read-only per bin, so the books do not store them: an
//! update that needs one takes `speeds`, indexed like the books (unit
//! books never read it, so unit callers pass an empty slice).

use rls_core::{Config, LoadIndex};
use rls_rng::{Rng64, RngExt};
use rls_workloads::WeightDist;

use crate::LiveError;

/// The mutable per-bin state of one bin set (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Books {
    /// Counted tree over the ball counts; its leaves are the loads.
    counts: LoadIndex,
    /// Weight and rate-mass books; `None` on unit engines.
    hetero: Option<HeteroBooks>,
}

/// What a weighted or speed-aware engine keeps on top of the counts.
#[derive(Debug, Clone)]
struct HeteroBooks {
    /// Counted tree over per-bin total ball weight.
    weights: LoadIndex,
    /// Counted tree over per-bin rate mass `s_i·ℓ_i`.
    rates: LoadIndex,
    /// Per-ball weights, bin by bin; `None` iff the weight law is unit.
    balls: Option<Vec<Vec<u64>>>,
}

/// `Σ values`, or `None` on `u64` overflow.
fn checked_sum(values: &[u64]) -> Option<u64> {
    values.iter().try_fold(0u64, |acc, &v| acc.checked_add(v))
}

/// Draw every initial ball's weight from `dist`, bin by bin: `None` (and
/// no draws) for the unit law, so unit boots keep the unweighted stream.
pub(crate) fn draw_balls<R: Rng64 + ?Sized>(
    loads: &[u64],
    dist: WeightDist,
    rng: &mut R,
) -> Result<Option<Vec<Vec<u64>>>, LiveError> {
    dist.validate().map_err(LiveError::params)?;
    Ok((!dist.is_unit()).then(|| {
        loads
            .iter()
            .map(|&load| (0..load).map(|_| dist.sample(rng)).collect())
            .collect()
    }))
}

impl Books {
    /// Unit books over `cfg`, which becomes the count tree's leaves: ball
    /// counts only.
    pub(crate) fn unit(cfg: Config) -> Self {
        Self {
            counts: LoadIndex::new(cfg),
            hetero: None,
        }
    }

    /// Make these books weighted and speed-aware: bin `i` runs at
    /// `speeds[i]` and holds the balls `balls[i]` (`None` exactly when
    /// `dist` is unit).  The one validation of heterogeneity state, at
    /// boot and on snapshot restore alike; on error nothing changes.
    pub(crate) fn attach_hetero(
        &mut self,
        dist: WeightDist,
        speeds: &[u64],
        balls: Option<Vec<Vec<u64>>>,
    ) -> Result<(), LiveError> {
        dist.validate().map_err(LiveError::params)?;
        let loads = self.counts.loads();
        let n = loads.len();
        if speeds.len() != n {
            return Err(LiveError::params(format!(
                "speed vector has {} entries for {n} bins",
                speeds.len()
            )));
        }
        if speeds.contains(&0) {
            return Err(LiveError::params("bin speeds must be at least one"));
        }
        if checked_sum(speeds).is_none() {
            return Err(LiveError::params("total speed overflows u64"));
        }
        let weights: Vec<u64> = match &balls {
            None if dist.is_unit() => loads.to_vec(),
            Some(balls) if !dist.is_unit() => {
                if balls.len() != n {
                    return Err(LiveError::params(format!(
                        "ball-weight table has {} bins for {n}",
                        balls.len()
                    )));
                }
                let mut weights = Vec::with_capacity(n);
                for (b, (bin, &load)) in balls.iter().zip(loads).enumerate() {
                    if bin.len() as u64 != load {
                        return Err(LiveError::params(format!(
                            "bin {b} stores {} ball weights for load {load}",
                            bin.len()
                        )));
                    }
                    if bin.contains(&0) {
                        return Err(LiveError::params("ball weights must be positive"));
                    }
                    let weight = checked_sum(bin)
                        .ok_or_else(|| LiveError::params("total bin weight overflows u64"))?;
                    weights.push(weight);
                }
                weights
            }
            _ => {
                return Err(LiveError::params(
                    "per-ball weights must be stored exactly when the weight distribution \
                     is non-unit",
                ))
            }
        };
        let rates: Vec<u64> = speeds
            .iter()
            .zip(loads)
            .map(|(&s, &l)| s.checked_mul(l))
            .collect::<Option<_>>()
            .ok_or_else(|| LiveError::params("bin rate mass overflows u64"))?;
        let tree = |values| {
            Config::from_loads(values)
                .map(LoadIndex::new)
                .map_err(|_| LiveError::params("total weight or rate mass overflows u64"))
        };
        let (weights, rates) = (tree(weights)?, tree(rates)?);
        self.hetero = Some(HeteroBooks {
            weights,
            rates,
            balls,
        });
        Ok(())
    }

    /// The counted tree over the ball counts.
    #[inline]
    pub(crate) fn counts(&self) -> &LoadIndex {
        &self.counts
    }

    /// The counted tree over per-bin total weight (weighted books only).
    pub(crate) fn weight_index(&self) -> Option<&LoadIndex> {
        self.hetero.as_ref().map(|h| &h.weights)
    }

    /// The counted tree over per-bin rate mass (weighted books only).
    pub(crate) fn rate_index(&self) -> Option<&LoadIndex> {
        self.hetero.as_ref().map(|h| &h.rates)
    }

    /// Per-bin total weights: the weight tree's leaves (the loads on unit
    /// books).
    #[inline]
    pub(crate) fn weights(&self) -> &[u64] {
        self.weight_index().unwrap_or(&self.counts).loads()
    }

    /// Total ball weight `W = Σ W_i` (the ball count on unit books).
    #[inline]
    pub(crate) fn total_weight(&self) -> u64 {
        self.weight_index().unwrap_or(&self.counts).total()
    }

    /// The per-ball weights of one bin, when stored (non-unit law).
    pub(crate) fn ball_weights(&self, bin: usize) -> Option<&[u64]> {
        let balls = self.hetero.as_ref()?.balls.as_ref()?;
        Some(&balls[bin])
    }

    /// Total clock mass `R = Σ s_i·ℓ_i` driving departures and rings: the
    /// ball count on unit books (and on weighted books whose speeds are
    /// all `1`, which keeps their trajectories bit-identical).
    #[inline]
    pub(crate) fn clock_mass(&self) -> u64 {
        self.rate_index().unwrap_or(&self.counts).total()
    }

    /// The bin owning clock rank `rank ∈ [0, clock_mass)`, with the number
    /// of tree levels the descent read: rate-proportional on weighted
    /// books, load-proportional (a uniform ball) on unit books.
    #[inline]
    pub(crate) fn clock_bin(&self, rank: u64) -> (usize, u32) {
        self.rate_index().unwrap_or(&self.counts).bin_at_depth(rank)
    }

    /// Pick the activated or departing ball in `bin`, with its weight: a
    /// uniform index (one draw) when per-ball weights are stored, `None`
    /// and weight `1` otherwise — exchangeable balls need no draw.
    #[inline]
    pub(crate) fn pick<R: Rng64 + ?Sized>(&self, bin: usize, rng: &mut R) -> (Option<usize>, u64) {
        match self.ball_weights(bin) {
            Some(balls) => {
                let i = rng.next_index(balls.len());
                (Some(i), balls[i])
            }
            None => (None, 1),
        }
    }

    /// A ball of `weight` arrives in `bin`.
    #[inline]
    pub(crate) fn insert(&mut self, bin: usize, weight: u64, speeds: &[u64]) {
        self.counts.increment(bin);
        if let Some(h) = &mut self.hetero {
            h.put(bin, weight, speeds[bin]);
        }
    }

    /// The ball `picked` (see [`pick`](Self::pick)) leaves `bin`; returns
    /// its weight.
    #[inline]
    pub(crate) fn remove(&mut self, bin: usize, picked: Option<usize>, speeds: &[u64]) -> u64 {
        self.counts.decrement(bin);
        let h = self.hetero.as_mut();
        h.map_or(1, |h| h.take(bin, picked, speeds[bin]))
    }

    /// The ball `picked` moves from `from` to `to` (`from != to`).
    #[inline]
    pub(crate) fn move_ball(
        &mut self,
        from: usize,
        to: usize,
        picked: Option<usize>,
        speeds: &[u64],
    ) {
        self.counts.record_move(from, to);
        if let Some(h) = &mut self.hetero {
            let weight = h.take(from, picked, speeds[from]);
            h.put(to, weight, speeds[to]);
        }
    }

    /// Allocate an empty bin at the next id and return it.
    pub(crate) fn add_bin(&mut self) -> usize {
        if let Some(h) = &mut self.hetero {
            h.weights.add_bin(0);
            h.rates.add_bin(0);
            if let Some(balls) = &mut h.balls {
                balls.push(Vec::new());
            }
        }
        self.counts.add_bin(0)
    }

    /// Retire `bin` (its id is never reused); returns the balls it still
    /// held — zero, since drains relocate every ball first.
    pub(crate) fn retire_bin(&mut self, bin: usize) -> u64 {
        if let Some(h) = &mut self.hetero {
            h.weights.retire_bin(bin);
            h.rates.retire_bin(bin);
        }
        self.counts.retire_bin(bin)
    }

    /// Verify the books against a recount (test/debug helper, `O(n + m)`):
    /// every tree total is its leaf sum, and per bin the stored balls, the
    /// weight leaf and the rate leaf agree with the load and `speeds`.
    pub(crate) fn matches(&self, speeds: &[u64]) -> bool {
        let sums = |idx: &LoadIndex| checked_sum(idx.loads()) == Some(idx.total());
        let Some(h) = &self.hetero else {
            return sums(&self.counts);
        };
        let loads = self.counts.loads();
        speeds.len() == loads.len()
            && [&self.counts, &h.weights, &h.rates].into_iter().all(sums)
            && loads.iter().enumerate().all(|(b, &load)| {
                let weight = h.weights.load(b);
                let by_balls = match self.ball_weights(b) {
                    Some(balls) => balls.len() as u64 == load && checked_sum(balls) == Some(weight),
                    None => weight == load,
                };
                by_balls && h.rates.load(b) == speeds[b] * load
            })
    }
}

impl HeteroBooks {
    /// Add a ball of `weight` to `bin`, which runs at `speed`.
    #[inline]
    fn put(&mut self, bin: usize, weight: u64, speed: u64) {
        self.weights.add(bin, weight);
        self.rates.add(bin, speed);
        if let Some(balls) = &mut self.balls {
            balls[bin].push(weight);
        }
    }

    /// Take the ball `picked` out of `bin`, which runs at `speed`; returns
    /// its weight.
    #[inline]
    fn take(&mut self, bin: usize, picked: Option<usize>, speed: u64) -> u64 {
        let weight = match (&mut self.balls, picked) {
            (Some(balls), Some(i)) => balls[bin].swap_remove(i),
            _ => 1,
        };
        self.weights.sub(bin, weight);
        self.rates.sub(bin, speed);
        weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARETO: WeightDist = WeightDist::Pareto {
        alpha: 1.5,
        cap: 64,
    };

    #[test]
    fn hetero_construction_validates() {
        let cfg = Config::from_loads(vec![2, 0, 1]).unwrap();
        let ok = |speeds: &[u64], dist, balls| {
            Books::unit(cfg.clone()).attach_hetero(dist, speeds, balls)
        };
        assert!(ok(&[1, 2, 1], WeightDist::Unit, None).is_ok());
        // Wrong-length, zero and overflowing speeds.
        assert!(ok(&[1, 2], WeightDist::Unit, None).is_err());
        assert!(ok(&[1, 0, 1], WeightDist::Unit, None).is_err());
        assert!(ok(&[u64::MAX, 1, 1], WeightDist::Unit, None).is_err());
        // Ball lists exactly when the law is non-unit, shaped like the
        // loads, with positive weights.
        let balls = || Some(vec![vec![3, 4], vec![], vec![5]]);
        assert!(ok(&[1, 1, 1], PARETO, balls()).is_ok());
        assert!(ok(&[1, 1, 1], WeightDist::Unit, balls()).is_err());
        assert!(ok(&[1, 1, 1], PARETO, None).is_err());
        assert!(ok(&[1, 1, 1], PARETO, Some(vec![vec![3, 4], vec![]])).is_err());
        assert!(ok(&[1, 1, 1], PARETO, Some(vec![vec![3], vec![], vec![5]])).is_err());
        assert!(ok(&[1, 1, 1], PARETO, Some(vec![vec![3, 0], vec![], vec![5]])).is_err());
        let heavy = Some(vec![vec![u64::MAX, 1], vec![], vec![5]]);
        assert!(ok(&[1, 1, 1], PARETO, heavy).is_err());
        // Each bin's weight fits but the total does not: an error, not a
        // panic in the tree build.
        let half = u64::MAX / 2 + 1;
        let heavy = Some(vec![vec![half, 1], vec![], vec![half]]);
        let err = ok(&[1, 1, 1], PARETO, heavy).unwrap_err();
        assert!(err.to_string().contains("total weight"), "{err}");
        // A bin's rate mass must fit.
        assert!(ok(&[u64::MAX / 2 + 1, 1, 1], WeightDist::Unit, None).is_err());
    }
}
