//! Property test pinning the on-disk artifact codec across all five
//! generator families of the batch corpus. The store keeps only the
//! partition search result; a disk hit reruns the leaf stage. So:
//!
//! * re-encoding a decoded artifact yields the identical byte string;
//! * `decode` → `plan_leaves()` reproduces the freshly planned artifact —
//!   its partition, every leaf plan (floats compared bit for bit), and the
//!   final QASM.

use proptest::prelude::*;

use epgs::{artifact, config_fingerprint, CacheKey, FrameworkConfig, Pipeline, Planned};
use epgs_circuit::qasm;
use epgs_graph::canon::canonical_hash;
use epgs_graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_pipeline() -> Pipeline {
    Pipeline::new(
        FrameworkConfig::builder()
            .g_max(5)
            .lc_budget(3)
            .partition_effort(4)
            .orderings_per_subgraph(4)
            .flexible_slack(1)
            .build(),
    )
}

/// One random small instance of the chosen corpus family.
fn family_graph(family: usize, size_sel: u8, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        0 => generators::random_regular(8 + 2 * (size_sel as usize % 3), 3, &mut rng),
        1 => generators::hypercube(2 + (size_sel as u32 % 2)),
        2 => generators::heavy_hex(1, 1 + (size_sel as usize % 2)),
        3 => generators::barabasi_albert(8 + (size_sel as usize % 4), 2, &mut rng),
        _ => generators::watts_strogatz(8 + 2 * (size_sel as usize % 3), 4, 0.2, &mut rng),
    }
}

/// Every leaf plan field, with floats as their bit patterns.
fn plan_bits(planned: &Planned) -> Vec<String> {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    planned
        .plans()
        .iter()
        .flat_map(|plan| {
            plan.variants.iter().map(move |v| {
                format!(
                    "{:?} {} {:?} {} {:?} {} {} {} {:?} {:?} {:?}",
                    plan.vertices,
                    v.emitters,
                    v.solved.circuit,
                    v.solved.emitters,
                    v.solved.ordering,
                    v.duration.to_bits(),
                    v.ee_cnots,
                    v.t_loss.to_bits(),
                    bits(&v.emission_times),
                    bits(&v.usage.0),
                    v.usage.1,
                )
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn planned_artifacts_round_trip_bit_identically(
        family in 0usize..5,
        size_sel in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let pipeline = quick_pipeline();
        let g = family_graph(family, size_sel, seed);
        let partitioned = pipeline.partition(&g);
        let key = CacheKey {
            canonical: canonical_hash(&g),
            config: config_fingerprint(pipeline.config()),
        };
        let text = artifact::encode(&partitioned, key);
        let decoded = artifact::decode(&text, key, &pipeline).expect("decodes");
        // The decoded artifact re-encodes to the same bytes.
        prop_assert_eq!(artifact::encode(&decoded, key), text);
        prop_assert_eq!(decoded.partition(), partitioned.partition());
        // Replanning it reproduces the fresh plans and the final circuit.
        let fresh = partitioned.plan_leaves().expect("plans");
        let replanned = decoded.plan_leaves().expect("replans");
        prop_assert_eq!(replanned.partition(), fresh.partition());
        prop_assert_eq!(replanned.ne_min(), fresh.ne_min());
        prop_assert_eq!(plan_bits(&replanned), plan_bits(&fresh));
        let a = fresh.schedule(2).recombine().expect("recombine").verify().expect("verify");
        let b = replanned.schedule(2).recombine().expect("recombine").verify().expect("verify");
        prop_assert_eq!(qasm::to_qasm(&a.circuit), qasm::to_qasm(&b.circuit));
    }
}
