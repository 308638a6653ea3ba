//! # rls-graph — RLS on network topologies other than the complete graph
//!
//! The paper's conclusion lists three future directions; the third is
//! analyzing the protocol "in network topologies other than the complete
//! graph".  In the graph model, bins are vertices and an activated ball may
//! only sample a destination among the *neighbours* of its current bin.
//! The related threshold-balancing literature (\[6\] in the paper) ties the
//! balancing time to the graph's mixing time, which is why this crate also
//! estimates spectral gaps.
//!
//! Contents:
//!
//! * [`Graph`] — a compact undirected-graph representation (CSR adjacency)
//!   with degree queries and uniform neighbour sampling.
//! * [`topology`] — generators for the standard topologies: complete, cycle,
//!   path, 2-D torus, hypercube, star, balanced binary tree, random
//!   `d`-regular and Erdős–Rényi `G(n, p)`.
//! * [`mixing`] — spectral-gap and mixing-time estimation for the lazy
//!   random walk on the graph (power iteration, no external linear algebra).
//! * [`sampler`] — the [`DestSampler`] every engine holds (the offline
//!   `rls-sim` superposition engine and the online `rls-live`/`rls-serve`
//!   ones): the complete-graph O(1) uniform draw, or uniform neighbour
//!   sampling over a CSR adjacency built once.  The graph-restricted RLS
//!   process is `rls_sim::Simulation::with_sampler` over a sparse sampler.
//! * [`elastic`] — [`ElasticDest`], the membership-aware sampler for
//!   engines whose bin set changes mid-run: incremental adjacency patches
//!   for random families, full rebuilds for structured ones, and live-set
//!   uniform draws on the complete graph.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod elastic;
mod graph;
pub mod mixing;
pub mod sampler;
pub mod topology;

pub use elastic::{ElasticDest, ElasticDestStats};
pub use graph::{Graph, GraphError};
pub use sampler::DestSampler;
pub use topology::Topology;
