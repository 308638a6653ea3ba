//! Standard topology generators.
//!
//! Each generator returns a [`Graph`] on `n` vertices; random topologies
//! take a generator so experiments stay reproducible.  The set covers what
//! the distributed-balancing literature typically evaluates on: constant-
//! degree sparse graphs (cycle, torus, tree), logarithmic-degree expanders
//! (hypercube, random regular), dense graphs (complete) and the star as the
//! pathological low-conductance case.

use rls_rng::{Rng64, RngExt};
use serde::{Deserialize, Serialize};

use crate::graph::{Graph, GraphError};

/// A named topology family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// Every pair of distinct vertices is adjacent (the paper's model).
    Complete,
    /// A single cycle `0 − 1 − … − (n−1) − 0`.
    Cycle,
    /// A path `0 − 1 − … − (n−1)`.
    Path,
    /// A √n × √n torus (requires `n` to be a perfect square).
    Torus2D,
    /// The hypercube on `n = 2^d` vertices.
    Hypercube,
    /// A star: vertex 0 adjacent to everything else.
    Star,
    /// A complete binary tree rooted at 0.
    BinaryTree,
    /// A uniformly random `d`-regular-ish multigraph via the pairing model
    /// (parallel edges and loops re-drawn; needs `n·d` even).
    RandomRegular {
        /// The degree `d`.
        degree: usize,
    },
    /// Erdős–Rényi `G(n, p)`.
    ErdosRenyi {
        /// Edge probability.
        p: f64,
    },
}

impl Topology {
    /// A short identifier used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Complete => "complete",
            Topology::Cycle => "cycle",
            Topology::Path => "path",
            Topology::Torus2D => "torus",
            Topology::Hypercube => "hypercube",
            Topology::Star => "star",
            Topology::BinaryTree => "binary-tree",
            Topology::RandomRegular { .. } => "random-regular",
            Topology::ErdosRenyi { .. } => "erdos-renyi",
        }
    }

    /// Parse the spec-string forms used across grids and CLI flags —
    /// the inverse of [`Display`](core::fmt::Display): `complete`,
    /// `cycle`, `path`, `torus`, `hypercube`, `star`, `binary-tree`,
    /// `random-regular:<d>`, `erdos-renyi:<p>`.
    pub fn parse_spec(s: &str) -> Result<Self, String> {
        let (head, param) = match s.split_once(':') {
            Some((head, param)) => (head.trim(), Some(param.trim())),
            None => (s.trim(), None),
        };
        // A name that takes no parameter must come without one.
        let plain = |topology| match param {
            None => Ok(topology),
            Some(_) => Err(format!(
                "topology `{head}` takes no parameter (got `{}`)",
                s.trim()
            )),
        };
        let topology = match head {
            "complete" => plain(Topology::Complete)?,
            "cycle" => plain(Topology::Cycle)?,
            "path" => plain(Topology::Path)?,
            "torus" | "torus-2d" | "torus2d" => plain(Topology::Torus2D)?,
            "hypercube" => plain(Topology::Hypercube)?,
            "star" => plain(Topology::Star)?,
            "binary-tree" => plain(Topology::BinaryTree)?,
            "random-regular" => Topology::RandomRegular {
                degree: param
                    .ok_or_else(|| {
                        "`random-regular` needs a degree, e.g. `random-regular:4`".to_string()
                    })?
                    .parse()
                    .map_err(|_| format!("bad degree in `{s}`"))?,
            },
            "erdos-renyi" => Topology::ErdosRenyi {
                p: param
                    .ok_or_else(|| {
                        "`erdos-renyi` needs a probability, e.g. `erdos-renyi:0.1`".to_string()
                    })?
                    .parse()
                    .map_err(|_| format!("bad probability in `{s}`"))?,
            },
            other => return Err(format!("unknown topology `{other}`")),
        };
        Ok(topology)
    }

    /// Build the topology on `n` vertices.
    pub fn build<R: Rng64 + ?Sized>(&self, n: usize, rng: &mut R) -> Result<Graph, GraphError> {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let edges: Vec<(usize, usize)> = match *self {
            Topology::Complete => {
                let mut e = Vec::with_capacity(n * (n - 1) / 2);
                for i in 0..n {
                    for j in (i + 1)..n {
                        e.push((i, j));
                    }
                }
                e
            }
            Topology::Cycle => {
                if n == 1 {
                    Vec::new()
                } else if n == 2 {
                    vec![(0, 1)]
                } else {
                    (0..n).map(|i| (i, (i + 1) % n)).collect()
                }
            }
            Topology::Path => (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect(),
            Topology::Torus2D => {
                let side = (n as f64).sqrt().round() as usize;
                if side * side != n || side < 2 {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: n,
                        n: side * side,
                    });
                }
                let mut e = Vec::with_capacity(2 * n);
                for r in 0..side {
                    for c in 0..side {
                        let v = r * side + c;
                        let right = r * side + (c + 1) % side;
                        let down = ((r + 1) % side) * side + c;
                        if v != right {
                            e.push((v, right));
                        }
                        if v != down {
                            e.push((v, down));
                        }
                    }
                }
                e
            }
            Topology::Hypercube => {
                if !n.is_power_of_two() {
                    return Err(GraphError::VertexOutOfRange { vertex: n, n });
                }
                let dims = n.trailing_zeros() as usize;
                let mut e = Vec::with_capacity(n * dims / 2);
                for v in 0..n {
                    for bit in 0..dims {
                        let w = v ^ (1 << bit);
                        if v < w {
                            e.push((v, w));
                        }
                    }
                }
                e
            }
            Topology::Star => (1..n).map(|i| (0, i)).collect(),
            Topology::BinaryTree => (1..n).map(|i| ((i - 1) / 2, i)).collect(),
            Topology::RandomRegular { degree } => {
                if degree == 0 || degree >= n || !(n * degree).is_multiple_of(2) {
                    return Err(GraphError::VertexOutOfRange { vertex: degree, n });
                }
                // Pairing/configuration model with rejection of loops;
                // parallel edges are deduplicated by Graph::from_edges, so
                // the realized graph is "approximately d-regular" — exactly
                // what the balancing experiments need (an expander of
                // bounded degree).
                let mut stubs: Vec<usize> = (0..n)
                    .flat_map(|v| std::iter::repeat_n(v, degree))
                    .collect();
                rng.shuffle(&mut stubs);
                let mut e = Vec::with_capacity(stubs.len() / 2);
                for pair in stubs.chunks(2) {
                    if pair[0] != pair[1] {
                        e.push((pair[0], pair[1]));
                    }
                }
                e
            }
            Topology::ErdosRenyi { p } => {
                let p = p.clamp(0.0, 1.0);
                let mut e = Vec::new();
                for i in 0..n {
                    for j in (i + 1)..n {
                        if rng.next_bernoulli(p) {
                            e.push((i, j));
                        }
                    }
                }
                e
            }
        };
        Graph::from_edges(n, &edges)
    }
}

impl core::fmt::Display for Topology {
    /// The spec-string form ([`parse_spec`](Topology::parse_spec) inverts
    /// it), with parameters where the family has one.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Topology::RandomRegular { degree } => write!(f, "random-regular:{degree}"),
            Topology::ErdosRenyi { p } => write!(f, "erdos-renyi:{p}"),
            plain => write!(f, "{}", plain.name()),
        }
    }
}

impl core::str::FromStr for Topology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Topology::parse_spec(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_rng::rng_from_seed;

    #[test]
    fn spec_strings_round_trip() {
        for s in [
            "complete",
            "cycle",
            "path",
            "torus",
            "hypercube",
            "star",
            "binary-tree",
            "random-regular:8",
            "erdos-renyi:0.1",
            "erdos-renyi:0.25",
        ] {
            // Every listed spelling is canonical: parsing and printing
            // give back the same text.
            assert_eq!(s.parse::<Topology>().unwrap().to_string(), s);
        }
        for bad in [
            "",
            "nope",
            "random-regular",
            "random-regular:x",
            "random-regular:4:2",
            "erdos-renyi",
            "erdos-renyi:0.1:3",
        ] {
            assert!(bad.parse::<Topology>().is_err(), "{bad}");
        }
        // A parameter on a name that takes none is an error naming the
        // spelling, not silently dropped.
        for bad in [
            "complete:7",
            "cycle:",
            "torus:4",
            "binary-tree:2",
            "star: 3",
        ] {
            let err = bad.parse::<Topology>().unwrap_err();
            assert!(err.contains("takes no parameter"), "{bad}: {err}");
            assert!(err.contains(bad.trim()), "{bad}: {err}");
        }
    }

    #[test]
    fn complete_graph_has_full_degree() {
        let g = Topology::Complete.build(8, &mut rng_from_seed(1)).unwrap();
        assert_eq!(g.edge_count(), 8 * 7 / 2);
        assert!((0..8).all(|v| g.degree(v) == 7));
        assert_eq!(g.diameter(), Some(1));
    }

    #[test]
    fn cycle_and_path_shapes() {
        let c = Topology::Cycle.build(10, &mut rng_from_seed(2)).unwrap();
        assert!((0..10).all(|v| c.degree(v) == 2));
        assert_eq!(c.diameter(), Some(5));
        let p = Topology::Path.build(10, &mut rng_from_seed(2)).unwrap();
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(5), 2);
        assert_eq!(p.diameter(), Some(9));
    }

    #[test]
    fn torus_is_4_regular() {
        let g = Topology::Torus2D.build(16, &mut rng_from_seed(3)).unwrap();
        assert!((0..16).all(|v| g.degree(v) == 4));
        assert!(g.is_connected());
        assert!(Topology::Torus2D.build(15, &mut rng_from_seed(3)).is_err());
    }

    #[test]
    fn hypercube_is_log_regular() {
        let g = Topology::Hypercube
            .build(32, &mut rng_from_seed(4))
            .unwrap();
        assert!((0..32).all(|v| g.degree(v) == 5));
        assert_eq!(g.diameter(), Some(5));
        assert!(Topology::Hypercube
            .build(20, &mut rng_from_seed(4))
            .is_err());
    }

    #[test]
    fn star_and_tree() {
        let s = Topology::Star.build(9, &mut rng_from_seed(5)).unwrap();
        assert_eq!(s.degree(0), 8);
        assert!((1..9).all(|v| s.degree(v) == 1));
        let t = Topology::BinaryTree
            .build(15, &mut rng_from_seed(5))
            .unwrap();
        assert!(t.is_connected());
        assert_eq!(t.edge_count(), 14);
        assert_eq!(t.degree(0), 2);
    }

    #[test]
    fn random_regular_is_connected_and_near_regular() {
        let g = Topology::RandomRegular { degree: 4 }
            .build(64, &mut rng_from_seed(6))
            .unwrap();
        assert!(g.is_connected());
        assert!(g.max_degree() <= 4);
        assert!((0..64).all(|v| g.degree(v) >= 1));
        assert!(Topology::RandomRegular { degree: 3 }
            .build(5, &mut rng_from_seed(6))
            .is_err());
        assert!(Topology::RandomRegular { degree: 0 }
            .build(4, &mut rng_from_seed(6))
            .is_err());
    }

    #[test]
    fn erdos_renyi_density_tracks_p() {
        let sparse = Topology::ErdosRenyi { p: 0.05 }
            .build(64, &mut rng_from_seed(7))
            .unwrap();
        let dense = Topology::ErdosRenyi { p: 0.5 }
            .build(64, &mut rng_from_seed(7))
            .unwrap();
        assert!(dense.edge_count() > 4 * sparse.edge_count());
    }

    #[test]
    fn names_and_empty_rejection() {
        assert_eq!(Topology::Complete.name(), "complete");
        assert_eq!(
            Topology::RandomRegular { degree: 3 }.name(),
            "random-regular"
        );
        assert!(Topology::Cycle.build(0, &mut rng_from_seed(8)).is_err());
    }

    #[test]
    fn degenerate_small_sizes() {
        let c1 = Topology::Cycle.build(1, &mut rng_from_seed(9)).unwrap();
        assert_eq!(c1.edge_count(), 0);
        let c2 = Topology::Cycle.build(2, &mut rng_from_seed(9)).unwrap();
        assert_eq!(c2.edge_count(), 1);
        let p1 = Topology::Path.build(1, &mut rng_from_seed(9)).unwrap();
        assert_eq!(p1.edge_count(), 0);
    }
}
