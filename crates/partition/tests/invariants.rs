//! Property tests for the partition engines' structural invariants.
//!
//! Five generator families (random-regular, hypercube, heavy-hex,
//! Barabási–Albert, Watts–Strogatz) are sampled across sizes straddling the
//! multilevel coarsening cutoff, and **both** engines are checked for the
//! contracts every downstream stage assumes:
//!
//! - the assignment is total and every block id is in range,
//! - no block exceeds `g_max` vertices (the emitter-group capacity),
//! - the reported cut equals an independent brute-force edge recount,
//! - the coarsening hierarchy conserves vertex identity: maps are total,
//!   coarse vertex weights count exactly the fine vertices folded into
//!   them, and the weighted cut at any level equals the fine-graph edge cut
//!   of the projected assignment.
//!
//! A separate (non-property) pair of tests pins the multilevel determinism
//! contract on instances large enough to engage the parallel proposal path:
//! repeated runs are bit-identical, and `RAYON_NUM_THREADS=1` reproduces
//! the parallel result exactly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use epgs_graph::canon::fnv1a_all;
use epgs_graph::{generators, Graph};
use epgs_partition::fm::fm_partition;
use epgs_partition::{multilevel_partition, Hierarchy};

/// Brute-force edge recount of a cut — deliberately independent of
/// `epgs_graph::metrics::cut_edges`, which the engines use internally.
fn recount_cut(g: &Graph, assign: &[usize]) -> usize {
    let mut cut = 0;
    for v in 0..g.vertex_count() {
        for &w in g.neighbors(v) {
            if w > v && assign[v] != assign[w] {
                cut += 1;
            }
        }
    }
    cut
}

/// Asserts the assignment is total, in range, and capacity-feasible.
fn assert_valid(label: &str, g: &Graph, assign: &[usize], num_blocks: usize, g_max: usize) {
    assert_eq!(
        assign.len(),
        g.vertex_count(),
        "{label}: partial assignment"
    );
    let mut sizes = vec![0usize; num_blocks];
    for &b in assign {
        assert!(b < num_blocks, "{label}: block {b} out of range");
        sizes[b] += 1;
    }
    assert!(
        sizes.iter().all(|&s| s <= g_max),
        "{label}: block over g_max={g_max}: {sizes:?}"
    );
}

/// One sampled instance from the five-family pool.
fn family_graph(family: usize, size_knob: usize, seed: u64) -> (&'static str, Graph) {
    let mut rng = StdRng::seed_from_u64(seed);
    match family % 5 {
        0 => {
            // Degree-3 regular needs an even vertex count.
            let n = 20 + 2 * (size_knob % 50);
            ("random_regular", generators::random_regular(n, 3, &mut rng))
        }
        1 => (
            "hypercube",
            generators::hypercube(3 + (size_knob % 4) as u32),
        ),
        2 => {
            let rows = 2 + size_knob % 3;
            let cols = 2 + (size_knob / 3) % 3;
            ("heavy_hex", generators::heavy_hex(rows, cols))
        }
        3 => {
            let n = 20 + size_knob % 100;
            (
                "barabasi_albert",
                generators::barabasi_albert(n, 3, &mut rng),
            )
        }
        _ => {
            let n = 20 + size_knob % 100;
            (
                "watts_strogatz",
                generators::watts_strogatz(n, 4, 0.2, &mut rng),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Both engines satisfy validity, capacity, and exact cut reporting on
    /// every sampled instance.
    #[test]
    fn both_engines_valid_feasible_and_cut_exact(
        family in 0usize..5,
        size_knob in 0usize..100,
        seed in any::<u64>(),
        g_max in 4usize..=9,
    ) {
        let (name, g) = family_graph(family, size_knob, seed);
        let n = g.vertex_count();
        let num_blocks = n.div_ceil(g_max);
        let (ml_assign, ml_cut) = multilevel_partition(&g, num_blocks, g_max, 3, seed);
        assert_valid(&format!("{name} multilevel"), &g, &ml_assign, num_blocks, g_max);
        prop_assert_eq!(
            ml_cut, recount_cut(&g, &ml_assign),
            "{} multilevel: reported cut diverges from recount", name
        );

        let (fm_assign, fm_cut) = fm_partition(&g, num_blocks, g_max, 3, seed);
        assert_valid(&format!("{name} flat"), &g, &fm_assign, num_blocks, g_max);
        prop_assert_eq!(
            fm_cut, recount_cut(&g, &fm_assign),
            "{} flat: reported cut diverges from recount", name
        );
    }

    /// The coarsening hierarchy conserves vertex identity level by level.
    #[test]
    fn hierarchy_projection_preserves_vertex_identity(
        family in 0usize..5,
        size_knob in 0usize..100,
        seed in any::<u64>(),
    ) {
        let (name, g) = family_graph(family, size_knob, seed);
        let n = g.vertex_count();
        let h = Hierarchy::build(&g, 7, seed);

        prop_assert_eq!(h.levels[0].vertex_count(), n, "{}: level 0 must be the input", name);
        prop_assert_eq!(h.maps.len() + 1, h.levels.len(), "{}: one map per fold", name);

        for (i, map) in h.maps.iter().enumerate() {
            let fine = &h.levels[i];
            let coarse = &h.levels[i + 1];
            prop_assert_eq!(map.len(), fine.vertex_count(), "{}: map not total", name);

            // Every fine vertex lands on a valid coarse vertex, and coarse
            // weights count exactly the fine weight folded into them.
            let mut folded = vec![0u64; coarse.vertex_count()];
            for (v, &c) in map.iter().enumerate() {
                prop_assert!(c < coarse.vertex_count(), "{}: map out of range", name);
                folded[c] += fine.vertex_weight(v);
            }
            for (c, &w) in folded.iter().enumerate() {
                prop_assert_eq!(
                    w, coarse.vertex_weight(c),
                    "{}: coarse vertex {} weight does not conserve identity", name, c
                );
            }

            // Projecting the identity labelling is exactly the map itself.
            let ident: Vec<usize> = (0..coarse.vertex_count()).collect();
            prop_assert_eq!(&Hierarchy::project(map, &ident), map, "{}: projection", name);

            // The weighted coarse cut of any labelling equals the fine cut
            // of its projection (edge weights are fold multiplicities).
            let coarse_assign: Vec<usize> =
                (0..coarse.vertex_count()).map(|c| (c ^ seed as usize) % 3).collect();
            let projected = Hierarchy::project(map, &coarse_assign);
            prop_assert_eq!(
                coarse.cut(&coarse_assign), fine.cut(&projected),
                "{}: weighted cut diverges from projected fine cut at level {}", name, i
            );
        }
    }
}

/// Degenerate shapes must not panic in either engine.
#[test]
fn tiny_and_degenerate_graphs() {
    for g in [
        generators::path(1),
        generators::path(2),
        generators::star(4),
        Graph::new(3), // edgeless
    ] {
        let n = g.vertex_count();
        let (assign, cut) = multilevel_partition(&g, n.div_ceil(3), 3, 2, 9);
        assert_valid("tiny multilevel", &g, &assign, n.div_ceil(3), 3);
        assert_eq!(cut, recount_cut(&g, &assign));
    }
}

/// Clears `RAYON_NUM_THREADS` on drop so a failing assertion cannot leak
/// forced-sequential mode into the other tests of this binary.
struct SequentialModeGuard;

impl Drop for SequentialModeGuard {
    fn drop(&mut self) {
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}

/// Instances large enough to engage the parallel proposal path (the move
/// pass dispatches through the thread pool above ~500 vertices).
fn large_instances() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(0x1517);
    vec![
        ("path-600", generators::path(600)),
        ("ws-520", generators::watts_strogatz(520, 4, 0.1, &mut rng)),
    ]
}

#[test]
fn multilevel_repeated_runs_are_bit_identical() {
    for (name, g) in large_instances() {
        let n = g.vertex_count();
        let first = multilevel_partition(&g, n.div_ceil(7), 7, 3, 42);
        for _ in 0..2 {
            let again = multilevel_partition(&g, n.div_ceil(7), 7, 3, 42);
            assert_eq!(first, again, "{name}: repeated run diverged");
        }
    }
}

#[test]
fn multilevel_sequential_mode_matches_parallel() {
    for (name, g) in large_instances() {
        let n = g.vertex_count();
        let parallel = multilevel_partition(&g, n.div_ceil(7), 7, 3, 42);
        let sequential = {
            std::env::set_var("RAYON_NUM_THREADS", "1");
            let _guard = SequentialModeGuard;
            multilevel_partition(&g, n.div_ceil(7), 7, 3, 42)
        };
        assert_eq!(
            parallel, sequential,
            "{name}: sequential and parallel runs diverged"
        );
    }
}

/// Pins the exact multilevel output (assignment hash and cut) on graphs
/// above the coarsening cutoff, where the flat-scheme QASM pins do not
/// reach: any change to coarsening, initial partitioning or refinement
/// that moves a single vertex shows up here.
#[test]
fn multilevel_output_is_pinned_above_the_cutoff() {
    let mut rng = StdRng::seed_from_u64(0xdac2025);
    let cases = [
        ("path-200", generators::path(200), 0x63ad_444c_5b67_88e3, 28),
        (
            "lattice-10x50",
            generators::lattice(10, 50),
            0x8a8c_753c_73db_7087,
            456,
        ),
        (
            "rr3-200",
            generators::random_regular(200, 3, &mut rng),
            0x9359_9a26_4539_84c9,
            136,
        ),
    ];
    for (name, g, want_hash, want_cut) in cases {
        let n = g.vertex_count();
        let (assign, cut) = multilevel_partition(&g, n.div_ceil(7), 7, 8, 0xdac2025);
        assert_valid(name, &g, &assign, n.div_ceil(7), 7);
        assert_eq!(
            (fnv1a_all(assign.iter().map(|&b| b as u64)), cut),
            (want_hash, want_cut),
            "{name}: multilevel output changed"
        );
    }
}
