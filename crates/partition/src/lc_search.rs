//! Depth-limited local-complementation search wrapped around partitioning.
//!
//! The paper's MIP explores LC sequences of length ≤ l jointly with the
//! partition (§IV.A, Fig. 7). This module reproduces that search as a beam
//! search: each beam state is a graph (the original transformed by an LC
//! prefix); expanding a state applies one more LC; states are scored by the
//! best cut the scheme's partitioner finds on them (multilevel by default,
//! flat FM under [`PartitionScheme::Flat`]). The incumbent over all visited
//! states — not just the deepest — is returned, so l = 0 is always a lower
//! bound on quality.
//!
//! Expansion is engineered for throughput: beam states are scored **in
//! parallel** (one task per state), each task walks its candidate vertices
//! by **apply → score → undo** on a single working graph (LC is self-inverse
//! at a fixed vertex), and per depth only the `BEAM_WIDTH` surviving
//! candidates and at most one new incumbent are materialized as graphs,
//! not one clone per candidate (~`n·BEAM_WIDTH` per depth). Candidate
//! order, scores, incumbent updates, and tie-breaks replicate the
//! sequential loop exactly, so the returned partition is bit-identical.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rayon::prelude::*;

use epgs_graph::{ops, Graph};

use crate::control::{InjectedFault, SearchControl, SearchReport};
use crate::fm::fm_partition;
use crate::multilevel::multilevel_partition;
use crate::spec::{Partition, PartitionScheme, PartitionSpec};

/// Beam width of the LC search (states kept per depth).
const BEAM_WIDTH: usize = 6;

/// A scored expansion `state.graph + LC(v)`, graph not yet materialized.
struct Scored {
    /// Index of the parent beam state.
    state: usize,
    /// The vertex complemented.
    v: usize,
    /// Partitioner assignment of the expanded graph.
    assign: Vec<usize>,
    /// Partitioner cut of the expanded graph.
    cut: usize,
    /// Edge count of the expanded graph (sort tie-break).
    edges: usize,
}

/// Searches LC sequences up to `spec.lc_budget` and returns the best
/// partition found across every visited transformed graph.
pub fn partition_with_lc(g: &Graph, spec: &PartitionSpec) -> Partition {
    partition_with_lc_controlled(g, spec, &SearchControl::default()).0
}

/// [`partition_with_lc`] with runtime controls: a cooperative deadline
/// (checked between scoring calls; the incumbent is returned when it
/// passes) and a multilevel fault hook (a failed or panicked multilevel
/// call falls back to the flat FM engine for that one scoring call). With
/// a default [`SearchControl`] this is byte-identical to the uncontrolled
/// search. The [`SearchReport`] says what, if anything, was given up, and
/// is mirrored into [`Partition::degraded`].
pub fn partition_with_lc_controlled(
    g: &Graph,
    spec: &PartitionSpec,
    ctrl: &SearchControl,
) -> (Partition, SearchReport) {
    let n = g.vertex_count();
    let num_blocks = spec.num_blocks(n);
    let fallbacks = AtomicUsize::new(0);
    let truncated = AtomicBool::new(false);
    // Scheme dispatch: the multilevel engine delegates to `fm_partition`
    // with identical arguments at or below its coarsening cutoff, so the two
    // schemes are byte-identical on small graphs.
    //
    // The multilevel arm must contain an injected panic *here*, inside the
    // worker closure: the rayon shim joins scoped worker threads, so an
    // escaping panic would poison its result mutex and take down the whole
    // scoring round instead of one call.
    let flat = |graph: &Graph, salt: u64| -> (Vec<usize>, usize) {
        fm_partition(
            graph,
            num_blocks,
            spec.g_max,
            spec.effort.max(2),
            spec.seed ^ salt,
        )
    };
    let score = |graph: &Graph, salt: u64| -> (Vec<usize>, usize) {
        match &spec.scheme {
            PartitionScheme::Flat => flat(graph, salt),
            PartitionScheme::Multilevel => {
                let injected = ctrl.multilevel_fault.as_ref().and_then(|hook| hook());
                match injected {
                    Some(InjectedFault::Fail) => {
                        fallbacks.fetch_add(1, Ordering::Relaxed);
                        return flat(graph, salt);
                    }
                    Some(InjectedFault::Slow(ms)) => {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                    Some(InjectedFault::Panic) | None => {}
                }
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    if injected == Some(InjectedFault::Panic) {
                        panic!("injected fault: multilevel partitioner");
                    }
                    multilevel_partition(
                        graph,
                        num_blocks,
                        spec.g_max,
                        spec.effort.max(2),
                        spec.seed ^ salt,
                    )
                }));
                attempt.unwrap_or_else(|_| {
                    fallbacks.fetch_add(1, Ordering::Relaxed);
                    flat(graph, salt)
                })
            }
        }
    };

    let (base_assign, base_cut) = score(g, 0);
    let mut best = Partition {
        block_of: base_assign,
        lc_sequence: vec![],
        transformed: g.clone(),
        cut: base_cut,
        degraded: false,
    };
    if spec.lc_budget == 0 || n == 0 {
        let report = SearchReport {
            truncated: false,
            multilevel_fallbacks: fallbacks.load(Ordering::Relaxed),
        };
        best.degraded = report.degraded();
        return (best, report);
    }

    // Beam of (graph, lc_sequence, cut).
    let mut beam: Vec<(Graph, Vec<usize>, usize)> = vec![(g.clone(), vec![], base_cut)];
    for depth in 0..spec.lc_budget {
        // Cooperative deadline: stop expanding and keep the incumbent. The
        // base partition above always runs, so a terminal result exists even
        // with an already-expired deadline.
        if ctrl.expired() {
            truncated.store(true, Ordering::Relaxed);
            break;
        }
        // Score every expansion of every beam state, beam-states in
        // parallel. Each task owns one working graph and applies/undoes the
        // LC around the scoring call instead of cloning per candidate.
        let salt = depth as u64 + 1;
        let scored: Vec<Vec<Scored>> = (0..beam.len())
            .into_par_iter()
            .map(|si| {
                let (graph, seq, _) = &beam[si];
                let mut work = graph.clone();
                let mut out = Vec::new();
                for v in 0..n {
                    if ctrl.expired() {
                        truncated.store(true, Ordering::Relaxed);
                        break; // partial round: incumbent updates below stay valid
                    }
                    if work.degree(v) < 2 {
                        continue; // LC at degree ≤ 1 vertices never changes edges
                    }
                    // Avoid immediately undoing the previous LC.
                    if seq.last() == Some(&v) {
                        continue;
                    }
                    ops::local_complement(&mut work, v).expect("vertex in range");
                    let (assign, cut) = score(&work, salt);
                    out.push(Scored {
                        state: si,
                        v,
                        assign,
                        cut,
                        edges: work.edge_count(),
                    });
                    ops::local_complement(&mut work, v).expect("vertex in range");
                }
                out
            })
            .collect();

        // Incumbent updates, replayed in the sequential candidate order. Only
        // the last improving candidate survives the round, so it alone is
        // materialized as a graph.
        let mut any = false;
        let (mut best_cut, mut best_edges) = (best.cut, best.transformed.edge_count());
        let mut improved: Option<&Scored> = None;
        for s in scored.iter().flatten() {
            any = true;
            if s.cut < best_cut || (s.cut == best_cut && s.edges < best_edges) {
                (best_cut, best_edges) = (s.cut, s.edges);
                improved = Some(s);
            }
        }
        if let Some(s) = improved {
            let (graph, seq, _) = &beam[s.state];
            let mut transformed = graph.clone();
            ops::local_complement(&mut transformed, s.v).expect("vertex in range");
            let mut lc_sequence = seq.clone();
            lc_sequence.push(s.v);
            best = Partition {
                block_of: s.assign.clone(),
                lc_sequence,
                transformed,
                cut: s.cut,
                degraded: false,
            };
        }
        if !any {
            break;
        }
        // Keep the BEAM_WIDTH best candidates — same key and the same
        // stable order over (state, v) as the sequential sort — and only
        // materialize those as graphs.
        let mut survivors: Vec<&Scored> = scored.iter().flatten().collect();
        survivors.sort_by_key(|s| (s.cut, s.edges));
        survivors.truncate(BEAM_WIDTH);
        // Early exit: a zero cut cannot be beaten.
        if best.cut == 0 {
            break;
        }
        beam = survivors
            .into_iter()
            .map(|s| {
                let (graph, seq, _) = &beam[s.state];
                let mut next = graph.clone();
                ops::local_complement(&mut next, s.v).expect("vertex in range");
                let mut next_seq = seq.clone();
                next_seq.push(s.v);
                (next, next_seq, s.cut)
            })
            .collect();
    }
    debug_assert_eq!(best.cut, best.recompute_cut());
    let report = SearchReport {
        truncated: truncated.load(Ordering::Relaxed),
        multilevel_fallbacks: fallbacks.load(Ordering::Relaxed),
    };
    best.degraded = report.degraded();
    (best, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_graph::generators;

    #[test]
    fn lc_never_hurts() {
        let g = generators::lattice(3, 4);
        let mut spec = PartitionSpec {
            g_max: 6,
            lc_budget: 0,
            effort: 6,
            seed: 5,
            ..Default::default()
        };
        let without = partition_with_lc(&g, &spec);
        spec.lc_budget = 4;
        let with = partition_with_lc(&g, &spec);
        assert!(with.cut <= without.cut);
    }

    #[test]
    fn lc_helps_on_complete_graph() {
        // K6 split 2×3 cuts 9 edges; LC at any vertex of K_n produces a star
        // plus clique structure… in fact K_n is LC-equivalent to the star,
        // where splitting cuts only the leaves outside the hub block.
        let g = generators::complete(6);
        let spec = PartitionSpec {
            g_max: 3,
            lc_budget: 6,
            effort: 10,
            seed: 7,
            ..Default::default()
        };
        let without = partition_with_lc(
            &g,
            &PartitionSpec {
                lc_budget: 0,
                ..spec.clone()
            },
        );
        let with = partition_with_lc(&g, &spec);
        assert!(
            with.cut < without.cut,
            "LC should shrink the K6 cut: {} vs {}",
            with.cut,
            without.cut
        );
    }

    #[test]
    fn transformed_graph_matches_sequence() {
        let g = generators::complete(5);
        let spec = PartitionSpec {
            g_max: 3,
            lc_budget: 5,
            effort: 6,
            seed: 11,
            ..Default::default()
        };
        let p = partition_with_lc(&g, &spec);
        let mut replay = g.clone();
        ops::apply_lc_sequence(&mut replay, &p.lc_sequence).unwrap();
        assert_eq!(replay, p.transformed);
        assert_eq!(p.cut, p.recompute_cut());
        assert!(p.respects_capacity(spec.g_max));
    }

    #[test]
    fn sequence_respects_budget() {
        let g = generators::complete(6);
        let spec = PartitionSpec {
            g_max: 3,
            lc_budget: 2,
            effort: 5,
            seed: 3,
            ..Default::default()
        };
        let p = partition_with_lc(&g, &spec);
        assert!(p.lc_sequence.len() <= 2);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::new(0);
        let p = partition_with_lc(&g, &PartitionSpec::default());
        assert_eq!(p.cut, 0);
        assert!(!p.degraded);
    }

    #[test]
    fn default_control_is_byte_identical_to_uncontrolled() {
        let g = generators::lattice(3, 4);
        let spec = PartitionSpec {
            g_max: 6,
            lc_budget: 3,
            effort: 5,
            seed: 5,
            ..Default::default()
        };
        let plain = partition_with_lc(&g, &spec);
        let (controlled, report) =
            partition_with_lc_controlled(&g, &spec, &SearchControl::default());
        assert_eq!(plain, controlled);
        assert_eq!(report, SearchReport::default());
        assert!(!controlled.degraded);
    }

    #[test]
    fn multilevel_faults_fall_back_to_flat_and_mark_degraded() {
        use std::sync::Arc;
        // Complete(9) with g_max 3 exceeds nothing structural, but the point
        // is the dispatch: every multilevel call is forced to fail (half
        // cleanly, half by panic), so the whole search scores via the flat
        // engine — which must produce the Flat scheme's exact result.
        let g = generators::complete(9);
        let spec = PartitionSpec {
            g_max: 3,
            lc_budget: 2,
            effort: 5,
            seed: 3,
            scheme: PartitionScheme::Multilevel,
        };
        let calls = Arc::new(AtomicUsize::new(0));
        let calls_in_hook = Arc::clone(&calls);
        let ctrl = SearchControl {
            deadline: None,
            multilevel_fault: Some(Arc::new(move || {
                let n = calls_in_hook.fetch_add(1, Ordering::Relaxed);
                Some(if n.is_multiple_of(2) {
                    InjectedFault::Fail
                } else {
                    InjectedFault::Panic
                })
            })),
        };
        let (p, report) = partition_with_lc_controlled(&g, &spec, &ctrl);
        assert!(report.multilevel_fallbacks > 0);
        assert!(!report.truncated);
        assert!(p.degraded);
        let flat = partition_with_lc(
            &g,
            &PartitionSpec {
                scheme: PartitionScheme::Flat,
                ..spec
            },
        );
        assert_eq!(p.block_of, flat.block_of);
        assert_eq!(p.cut, flat.cut);
        assert_eq!(calls.load(Ordering::Relaxed), report.multilevel_fallbacks);
    }

    #[test]
    fn expired_deadline_truncates_to_the_base_partition() {
        let g = generators::lattice(3, 4);
        let spec = PartitionSpec {
            g_max: 6,
            lc_budget: 4,
            effort: 5,
            seed: 5,
            ..Default::default()
        };
        let ctrl = SearchControl {
            deadline: Some(std::time::Instant::now()),
            multilevel_fault: None,
        };
        let (p, report) = partition_with_lc_controlled(&g, &spec, &ctrl);
        assert!(report.truncated);
        assert!(p.degraded);
        assert!(p.lc_sequence.is_empty(), "no depth was explored");
        let base = partition_with_lc(
            &g,
            &PartitionSpec {
                lc_budget: 0,
                ..spec
            },
        );
        assert_eq!(p.cut, base.cut);
        assert_eq!(p.block_of, base.block_of);
    }
}
