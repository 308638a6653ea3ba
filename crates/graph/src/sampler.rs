//! Neighbor-restricted destination sampling for every engine.
//!
//! The paper's process samples a ring destination uniformly over *all*
//! bins — the complete graph.  The graph-restricted variant samples
//! uniformly over the ringing bin's *neighbours*.  [`DestSampler`] folds
//! both into one value the engines (the offline `rls-sim` superposition
//! engine and the online `rls-live`/`rls-serve` ones) hold:
//!
//! * [`Complete`](DestSampler::Complete) keeps the O(1) uniform draw (no
//!   adjacency is materialized — an `n`-vertex complete graph would cost
//!   `Θ(n²)` memory for nothing);
//! * [`Sparse`](DestSampler::Sparse) holds a CSR [`Graph`] built **once at
//!   boot** from a [`Topology`] and a build seed, so neighbour sampling is
//!   one index computation and random topologies (random-regular,
//!   Erdős–Rényi) are reproducible from `(topology, seed)` alone — which
//!   is exactly what live snapshots persist.

use rls_rng::{rng_from_seed, Rng64, RngExt};

use crate::graph::{Graph, GraphError};
use crate::topology::Topology;

/// Where a ringing ball may sample its destination.
#[derive(Debug, Clone, PartialEq)]
pub enum DestSampler {
    /// Uniform over all `n` bins (the paper's model; the draw may land on
    /// the source itself, which never moves — keeping the exact law of the
    /// complete-graph process).
    Complete {
        /// Number of bins.
        n: usize,
    },
    /// Uniform over the source's neighbours in a sparse topology.
    Sparse {
        /// The adjacency, in CSR form.
        graph: Graph,
    },
}

impl DestSampler {
    /// Build the sampler for `topology` on `n` bins.  Random topologies
    /// are drawn from `graph_seed`; the same `(topology, n, graph_seed)`
    /// always yields the same adjacency.
    pub fn build(topology: Topology, n: usize, graph_seed: u64) -> Result<Self, GraphError> {
        Self::build_with(topology, n, &mut rng_from_seed(graph_seed))
    }

    /// Build the sampler for `topology` on `n` bins, drawing a random
    /// topology from `rng` (the complete graph draws nothing).
    pub fn build_with<R: Rng64 + ?Sized>(
        topology: Topology,
        n: usize,
        rng: &mut R,
    ) -> Result<Self, GraphError> {
        match topology {
            Topology::Complete => {
                if n == 0 {
                    return Err(GraphError::Empty);
                }
                Ok(DestSampler::Complete { n })
            }
            other => Ok(DestSampler::Sparse {
                graph: other.build(n, rng)?,
            }),
        }
    }

    /// Number of bins.
    pub fn n(&self) -> usize {
        match self {
            DestSampler::Complete { n } => *n,
            DestSampler::Sparse { graph } => graph.n(),
        }
    }

    /// Whether this is the complete-graph fast path.
    pub fn is_complete(&self) -> bool {
        matches!(self, DestSampler::Complete { .. })
    }

    /// Sample one candidate destination for a ring in `source`.
    ///
    /// Returns `None` only for an isolated vertex of a sparse topology (a
    /// ball there can never migrate).
    #[inline]
    pub fn sample<R: Rng64 + ?Sized>(&self, source: usize, rng: &mut R) -> Option<usize> {
        match self {
            DestSampler::Complete { n } => Some(rng.next_index(*n)),
            DestSampler::Sparse { graph } => graph.sample_neighbor(source, rng),
        }
    }

    /// Whether an explicitly pinned `source → dest` ring is admissible:
    /// any in-range pair on the complete graph (including the self-loop
    /// no-op, exactly like a sampled draw), adjacency on sparse ones.
    pub fn permits_edge(&self, source: usize, dest: usize) -> bool {
        let n = self.n();
        if source >= n || dest >= n {
            return false;
        }
        match self {
            DestSampler::Complete { .. } => true,
            DestSampler::Sparse { graph } => source == dest || graph.has_edge(source, dest),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_sampler_draws_every_bin() {
        let sampler = DestSampler::build(Topology::Complete, 8, 1).unwrap();
        assert!(sampler.is_complete());
        assert_eq!(sampler.n(), 8);
        let mut rng = rng_from_seed(1);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[sampler.sample(3, &mut rng).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform draw covers all bins");
        assert!(sampler.permits_edge(0, 0), "self-loop no-op is admissible");
        assert!(sampler.permits_edge(0, 7));
        assert!(!sampler.permits_edge(0, 8));
        assert!(DestSampler::build(Topology::Complete, 0, 1).is_err());
    }

    #[test]
    fn sparse_sampler_stays_in_the_neighborhood() {
        let sampler = DestSampler::build(Topology::Cycle, 10, 2).unwrap();
        assert!(!sampler.is_complete());
        let mut rng = rng_from_seed(2);
        for _ in 0..200 {
            let dest = sampler.sample(4, &mut rng).unwrap();
            assert!(dest == 3 || dest == 5, "cycle neighbours of 4");
        }
        assert!(sampler.permits_edge(4, 5));
        assert!(sampler.permits_edge(4, 4), "pinned self-loop stays a no-op");
        assert!(!sampler.permits_edge(4, 7));
    }

    #[test]
    fn random_topologies_rebuild_identically_from_the_seed() {
        let a = DestSampler::build(Topology::RandomRegular { degree: 4 }, 32, 7).unwrap();
        let b = DestSampler::build(Topology::RandomRegular { degree: 4 }, 32, 7).unwrap();
        assert_eq!(a, b);
        let c = DestSampler::build(Topology::RandomRegular { degree: 4 }, 32, 8).unwrap();
        assert_ne!(a, c, "different seeds give different graphs");
    }

    #[test]
    fn isolated_vertices_yield_no_candidate() {
        // A path of 1 vertex has no neighbours.
        let sampler = DestSampler::build(Topology::Path, 1, 3).unwrap();
        assert_eq!(sampler.sample(0, &mut rng_from_seed(3)), None);
    }
}
