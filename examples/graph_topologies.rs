//! Future-work direction 3: RLS on non-complete topologies, with the
//! mixing-time proxy the threshold-balancing literature uses.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p rls-cli --example graph_topologies
//! ```

use rls_core::{Config, RlsRule};
use rls_graph::{mixing::estimate_mixing, DestSampler, Topology};
use rls_rng::rng_from_seed;
use rls_sim::{RlsPolicy, Simulation, StopWhen};

fn main() {
    let n = 64;
    let m = 64 * 16;
    let topologies = [
        Topology::Complete,
        Topology::Hypercube,
        Topology::RandomRegular { degree: 4 },
        Topology::Torus2D,
        Topology::BinaryTree,
        Topology::Cycle,
        Topology::Star,
    ];
    println!("# RLS on graphs: n = {n} bins, m = {m} balls, all starting in bin 0");
    println!(
        "{:<16} {:>10} {:>14} {:>14} {:>12} {:>10}",
        "topology", "max deg", "spectral gap", "mixing proxy", "balance T", "reached"
    );
    for topology in topologies {
        let mut rng = rng_from_seed(5);
        let Ok(graph) = topology.build(n, &mut rng) else {
            continue;
        };
        let mixing = estimate_mixing(&graph, 400);
        let start = Config::all_in_one_bin(n, m).expect("valid sizes");
        let max_degree = graph.max_degree();
        let policy = RlsPolicy::new(RlsRule::paper());
        let mut sim = Simulation::with_sampler(start, policy, DestSampler::Sparse { graph })
            .expect("one bin per vertex");
        let stop = StopWhen::perfectly_balanced().with_max_activations(200_000_000);
        let out = sim.run(&mut rng, stop);
        println!(
            "{:<16} {:>10} {:>14.4} {:>14.1} {:>12.2} {:>10}",
            topology.name(),
            max_degree,
            mixing.spectral_gap,
            mixing.mixing_time,
            out.time,
            out.reached_goal
        );
    }
    println!("\nBalancing time grows with the mixing-time proxy: the complete graph (the");
    println!("paper's model) is fastest, expanders are close behind, and the cycle/star");
    println!("pay for their bottlenecks — the qualitative tau_mix dependence of [6].");
}
