//! Target sets of the compile workloads. Why each set looks the way it
//! does is recorded in `perfbench/README.md`.
//!
//! The graphs are the same for every run seed: the random members are
//! drawn once from the evaluation's fixed seed (`epgs_bench::SEED`), so
//! the quality sums repeat exactly between seeds. The run seed sets the
//! order in which the targets are compiled.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use epgs_graph::{generators, Graph};

/// One named compile target.
pub struct Target {
    pub name: String,
    pub graph: Graph,
}

/// RNG for the random member `tag`-`n` of a family.
fn rng(tag: u64, n: usize) -> StdRng {
    StdRng::seed_from_u64(epgs_bench::SEED ^ (tag << 32) ^ n as u64)
}

/// `targets` in an order drawn from the run seed.
fn shuffled(mut targets: Vec<Target>, seed: u64) -> Vec<Target> {
    targets.shuffle(&mut StdRng::seed_from_u64(seed));
    targets
}

fn lattice(rows: usize, cols: usize) -> Target {
    Target {
        name: format!("lattice-{rows}x{cols}"),
        graph: generators::lattice(rows, cols),
    }
}

fn tree(n: usize) -> Target {
    Target {
        name: format!("tree-{n}"),
        graph: generators::tree(n, 2),
    }
}

fn waxman(n: usize) -> Target {
    Target {
        name: format!("waxman-{n}"),
        graph: generators::waxman(n, 0.5, 0.2, &mut rng(1, n)),
    }
}

fn rr3(n: usize) -> Target {
    Target {
        name: format!("rr3-{n}"),
        graph: generators::random_regular(n, 3, &mut rng(2, n)),
    }
}

/// cold-families: the paper's Fig. 9 families (4×k and square lattices,
/// binary trees, Waxman graphs at α = 0.5, β = 0.2) plus random 3-regular
/// graphs, n = 24–200.
pub fn cold_families(seed: u64) -> Vec<Target> {
    let mut out = vec![
        lattice(4, 6),
        lattice(4, 10),
        lattice(4, 15),
        lattice(8, 8),
        lattice(12, 12),
        tree(40),
        tree(100),
        tree(200),
    ];
    out.extend([20, 24, 28, 32, 36, 40].map(waxman));
    out.extend([40, 60, 80, 100, 120].map(rr3));
    shuffled(out, seed)
}

/// budget-sweep: mid-size targets, each swept over Ne_min..=2·Ne_min.
pub fn budget_sweep(seed: u64) -> Vec<Target> {
    let out = vec![
        lattice(8, 8),
        lattice(10, 10),
        rr3(100),
        tree(100),
        waxman(60),
    ];
    shuffled(out, seed)
}
