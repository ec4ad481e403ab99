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
//! Expansion is engineered for throughput. Each depth lists every
//! `(state, v)` expansion in the sequential order and scores the list **in
//! contiguous chunks across the pool**, so even depth 0 (one state) and a
//! beam of unequal states keep every worker busy. A chunk owns one working
//! graph: it clones a beam state when it crosses into that state and then
//! walks its candidates by **apply → score → undo** (LC is self-inverse at a
//! fixed vertex). A chunk keeps only `(cut, edge count)` descriptors plus
//! the assignment of its first minimal candidate; per depth only the
//! `BEAM_WIDTH` survivors and at most one new incumbent are materialized as
//! graphs. The incumbent is the first candidate in sequential order with
//! the minimal `(cut, edges)`, so folding the chunk minima in chunk order
//! picks it exactly, and the survivor sort is stable over the sequential
//! order: the returned partition is bit-identical to a sequential loop at
//! any chunking and thread count.

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

/// Candidate chunks per pool worker and depth: enough that unequal
/// scoring calls even out across workers, few enough that the per-chunk
/// state clones stay negligible next to the scoring calls.
const CHUNKS_PER_WORKER: usize = 8;

/// A scored expansion `state.graph + LC(v)`, graph not yet materialized.
#[derive(Clone, Copy)]
struct Scored {
    /// Index of the parent beam state.
    state: usize,
    /// The vertex complemented.
    v: usize,
    /// Partitioner cut of the expanded graph.
    cut: usize,
    /// Edge count of the expanded graph (sort tie-break).
    edges: usize,
}

impl Scored {
    /// Ranking key: fewer cut edges, then fewer edges.
    fn key(&self) -> (usize, usize) {
        (self.cut, self.edges)
    }
}

/// The scores of one contiguous run of candidates.
struct Chunk {
    /// Every candidate scored, in order.
    scored: Vec<Scored>,
    /// The chunk's first candidate with the minimal key, with its
    /// partitioner assignment.
    best: Option<(Scored, Vec<usize>)>,
}

/// The scheme's partitioner as one scoring call, under the fault hook and
/// deadline of a [`SearchControl`], recording what the search gave up.
struct Scorer<'a> {
    spec: &'a PartitionSpec,
    ctrl: &'a SearchControl,
    num_blocks: usize,
    fallbacks: AtomicUsize,
    truncated: AtomicBool,
}

impl<'a> Scorer<'a> {
    fn new(spec: &'a PartitionSpec, ctrl: &'a SearchControl, n: usize) -> Self {
        Scorer {
            spec,
            ctrl,
            num_blocks: spec.num_blocks(n),
            fallbacks: AtomicUsize::new(0),
            truncated: AtomicBool::new(false),
        }
    }

    fn flat(&self, graph: &Graph, salt: u64) -> (Vec<usize>, usize) {
        let spec = self.spec;
        fm_partition(
            graph,
            self.num_blocks,
            spec.g_max,
            spec.effort.max(2),
            spec.seed ^ salt,
        )
    }

    /// Scheme dispatch: the multilevel engine delegates to `fm_partition`
    /// with identical arguments at or below its coarsening cutoff, so the
    /// two schemes are byte-identical on small graphs.
    ///
    /// The multilevel arm must contain an injected panic *here*, inside the
    /// worker closure: the rayon shim joins scoped worker threads, so an
    /// escaping panic would poison its result mutex and take down the whole
    /// depth's scoring instead of one call.
    fn score(&self, graph: &Graph, salt: u64) -> (Vec<usize>, usize) {
        let spec = self.spec;
        if spec.scheme == PartitionScheme::Flat {
            return self.flat(graph, salt);
        }
        let injected = self.ctrl.multilevel_fault.as_ref().and_then(|hook| hook());
        match injected {
            Some(InjectedFault::Fail) => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                return self.flat(graph, salt);
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
                self.num_blocks,
                spec.g_max,
                spec.effort.max(2),
                spec.seed ^ salt,
            )
        }));
        attempt.unwrap_or_else(|_| {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
            self.flat(graph, salt)
        })
    }

    /// Whether the deadline has passed; records the truncation if so.
    fn expired(&self) -> bool {
        let expired = self.ctrl.expired();
        if expired {
            self.truncated.store(true, Ordering::Relaxed);
        }
        expired
    }

    /// Seals the search: the report, mirrored into `best.degraded`.
    fn finish(self, mut best: Partition) -> (Partition, SearchReport) {
        let report = SearchReport {
            truncated: self.truncated.into_inner(),
            multilevel_fallbacks: self.fallbacks.into_inner(),
        };
        best.degraded = report.degraded();
        (best, report)
    }

    /// Scores `candidates` (each `(state, v)`) in order, stopping at the
    /// deadline. The working graph is cloned from a beam state only when
    /// the run crosses into it, and each candidate is apply → score → undo.
    fn score_chunk(
        &self,
        beam: &[(Graph, Vec<usize>)],
        candidates: &[(usize, usize)],
        salt: u64,
    ) -> Chunk {
        let mut chunk = Chunk {
            scored: Vec::with_capacity(candidates.len()),
            best: None,
        };
        let mut work: Option<(usize, Graph)> = None;
        for &(state, v) in candidates {
            if self.expired() {
                break; // partial depth: the in-order fold over chunks stays valid
            }
            let graph = match &mut work {
                Some((at, graph)) if *at == state => graph,
                _ => &mut work.insert((state, beam[state].0.clone())).1,
            };
            ops::local_complement(graph, v).expect("vertex in range");
            let (assign, cut) = self.score(graph, salt);
            let s = Scored {
                state,
                v,
                cut,
                edges: graph.edge_count(),
            };
            ops::local_complement(graph, v).expect("vertex in range");
            if chunk.best.as_ref().is_none_or(|(b, _)| s.key() < b.key()) {
                chunk.best = Some((s, assign));
            }
            chunk.scored.push(s);
        }
        chunk
    }
}

/// `beam[s.state]` with `s.v` complemented: its graph and LC sequence.
fn expand(beam: &[(Graph, Vec<usize>)], s: &Scored) -> (Graph, Vec<usize>) {
    let (graph, seq) = &beam[s.state];
    let mut next = graph.clone();
    ops::local_complement(&mut next, s.v).expect("vertex in range");
    let mut next_seq = seq.clone();
    next_seq.push(s.v);
    (next, next_seq)
}

/// Searches LC sequences up to `spec.lc_budget` and returns the best
/// partition found across every visited transformed graph.
pub fn partition_with_lc(g: &Graph, spec: &PartitionSpec) -> Partition {
    partition_with_lc_controlled(g, spec, &SearchControl::default()).0
}

/// [`partition_with_lc`] with runtime controls: a cooperative deadline
/// (checked at each depth and before every scoring call; the incumbent is
/// returned when it passes) and a multilevel fault hook (a failed or
/// panicked multilevel call falls back to the flat FM engine for that one
/// scoring call). With a default [`SearchControl`] this is byte-identical
/// to the uncontrolled search. The [`SearchReport`] says what, if anything,
/// was given up, and is mirrored into [`Partition::degraded`].
pub fn partition_with_lc_controlled(
    g: &Graph,
    spec: &PartitionSpec,
    ctrl: &SearchControl,
) -> (Partition, SearchReport) {
    let chunks = CHUNKS_PER_WORKER * rayon::current_num_threads();
    beam_search(g, spec, ctrl, chunks)
}

/// The beam search, each depth's candidate list cut into at most `chunks`
/// contiguous runs. The result does not depend on `chunks`.
fn beam_search(
    g: &Graph,
    spec: &PartitionSpec,
    ctrl: &SearchControl,
    chunks: usize,
) -> (Partition, SearchReport) {
    let n = g.vertex_count();
    let scorer = Scorer::new(spec, ctrl, n);
    let (base_assign, base_cut) = scorer.score(g, 0);
    let mut best = Partition {
        block_of: base_assign,
        lc_sequence: vec![],
        transformed: g.clone(),
        cut: base_cut,
        degraded: false,
    };
    if spec.lc_budget == 0 || n == 0 {
        return scorer.finish(best);
    }

    // Beam of (graph, lc_sequence).
    let mut beam: Vec<(Graph, Vec<usize>)> = vec![(g.clone(), vec![])];
    for depth in 0..spec.lc_budget {
        // Cooperative deadline: stop expanding and keep the incumbent. The
        // base partition above always runs, so a terminal result exists even
        // with an already-expired deadline.
        if scorer.expired() {
            break;
        }
        // Every expansion of every beam state, in the sequential order.
        let candidates: Vec<(usize, usize)> = beam
            .iter()
            .enumerate()
            .flat_map(|(state, (graph, seq))| {
                (0..n)
                    // LC at degree ≤ 1 vertices never changes edges, and
                    // repeating the previous LC would undo it.
                    .filter(move |&v| graph.degree(v) >= 2 && seq.last() != Some(&v))
                    .map(move |v| (state, v))
            })
            .collect();
        let salt = depth as u64 + 1;
        let run_len = candidates.len().div_ceil(chunks).max(1);
        let mut scored: Vec<Chunk> = candidates
            .chunks(run_len)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|run| scorer.score_chunk(&beam, run, salt))
            .collect();

        // The new incumbent is the first candidate in sequential order with
        // the minimal key, if it beats the current one; strict `<` over the
        // chunk minima in chunk order finds exactly that candidate.
        let mut best_key = (best.cut, best.transformed.edge_count());
        let mut improved: Option<(Scored, Vec<usize>)> = None;
        for (s, assign) in scored.iter_mut().filter_map(|c| c.best.take()) {
            if s.key() < best_key {
                best_key = s.key();
                improved = Some((s, assign));
            }
        }
        if let Some((s, block_of)) = improved {
            let (transformed, lc_sequence) = expand(&beam, &s);
            best = Partition {
                block_of,
                lc_sequence,
                transformed,
                cut: s.cut,
                degraded: false,
            };
        }
        // Keep the BEAM_WIDTH best candidates — a stable sort over the
        // sequential (state, v) order — and only materialize those.
        let mut survivors: Vec<Scored> = scored.into_iter().flat_map(|c| c.scored).collect();
        if survivors.is_empty() {
            break;
        }
        survivors.sort_by_key(Scored::key);
        survivors.truncate(BEAM_WIDTH);
        // Early exit: a zero cut cannot be beaten.
        if best.cut == 0 {
            break;
        }
        beam = survivors.iter().map(|s| expand(&beam, s)).collect();
    }
    debug_assert_eq!(best.cut, best.recompute_cut());
    scorer.finish(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// The search as it ran before chunked scoring: one task per beam
    /// state, each walking all of its state's candidates, then the
    /// incumbent replayed over the flattened per-state lists. The oracle
    /// for [`partition_with_lc_controlled`].
    fn per_state_reference(
        g: &Graph,
        spec: &PartitionSpec,
        ctrl: &SearchControl,
    ) -> (Partition, SearchReport) {
        let n = g.vertex_count();
        let scorer = Scorer::new(spec, ctrl, n);
        let (base_assign, base_cut) = scorer.score(g, 0);
        let mut best = Partition {
            block_of: base_assign,
            lc_sequence: vec![],
            transformed: g.clone(),
            cut: base_cut,
            degraded: false,
        };
        if spec.lc_budget == 0 || n == 0 {
            return scorer.finish(best);
        }
        let mut beam: Vec<(Graph, Vec<usize>)> = vec![(g.clone(), vec![])];
        for depth in 0..spec.lc_budget {
            if scorer.expired() {
                break;
            }
            let salt = depth as u64 + 1;
            let scored: Vec<Vec<(Scored, Vec<usize>)>> = (0..beam.len())
                .into_par_iter()
                .map(|state| {
                    let (graph, seq) = &beam[state];
                    let mut work = graph.clone();
                    let mut out = Vec::new();
                    for v in 0..n {
                        if scorer.expired() {
                            break;
                        }
                        if work.degree(v) < 2 || seq.last() == Some(&v) {
                            continue;
                        }
                        ops::local_complement(&mut work, v).expect("vertex in range");
                        let (assign, cut) = scorer.score(&work, salt);
                        let edges = work.edge_count();
                        out.push((
                            Scored {
                                state,
                                v,
                                cut,
                                edges,
                            },
                            assign,
                        ));
                        ops::local_complement(&mut work, v).expect("vertex in range");
                    }
                    out
                })
                .collect();
            let mut any = false;
            let (mut best_cut, mut best_edges) = (best.cut, best.transformed.edge_count());
            let mut improved: Option<&(Scored, Vec<usize>)> = None;
            for entry in scored.iter().flatten() {
                any = true;
                let s = &entry.0;
                if s.cut < best_cut || (s.cut == best_cut && s.edges < best_edges) {
                    (best_cut, best_edges) = (s.cut, s.edges);
                    improved = Some(entry);
                }
            }
            if let Some((s, assign)) = improved {
                let (transformed, lc_sequence) = expand(&beam, s);
                best = Partition {
                    block_of: assign.clone(),
                    lc_sequence,
                    transformed,
                    cut: s.cut,
                    degraded: false,
                };
            }
            if !any {
                break;
            }
            let mut survivors: Vec<&Scored> = scored.iter().flatten().map(|e| &e.0).collect();
            survivors.sort_by_key(|s| (s.cut, s.edges));
            survivors.truncate(BEAM_WIDTH);
            if best.cut == 0 {
                break;
            }
            beam = survivors.into_iter().map(|s| expand(&beam, s)).collect();
        }
        scorer.finish(best)
    }

    /// A control whose fault hook injects nothing and counts its calls.
    fn counting_control() -> (Arc<AtomicUsize>, SearchControl) {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let ctrl = SearchControl {
            deadline: None,
            multilevel_fault: Some(Arc::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                None
            })),
        };
        (calls, ctrl)
    }

    #[test]
    fn chunked_search_matches_the_per_state_reference() {
        let mut rng = StdRng::seed_from_u64(17);
        let families = [
            ("lattice-4x10", generators::lattice(4, 10)),
            ("tree-40", generators::tree(40, 2)),
            ("waxman-32", generators::waxman(32, 0.5, 0.2, &mut rng)),
            ("rr3-60", generators::random_regular(60, 3, &mut rng)),
            ("complete-9", generators::complete(9)),
        ];
        for (name, g) in &families {
            for scheme in [PartitionScheme::Flat, PartitionScheme::Multilevel] {
                for lc_budget in 0..=4 {
                    for seed in 1..=3 {
                        let spec = PartitionSpec {
                            g_max: 7,
                            lc_budget,
                            effort: 2,
                            seed,
                            scheme: scheme.clone(),
                        };
                        let case = format!("{name} {scheme:?} l={lc_budget} seed {seed}");
                        let (calls, ctrl) = counting_control();
                        let (p, report) = partition_with_lc_controlled(g, &spec, &ctrl);
                        let (ref_calls, ref_ctrl) = counting_control();
                        let (q, ref_report) = per_state_reference(g, &spec, &ref_ctrl);
                        assert_eq!(p, q, "{case}");
                        assert_eq!(report, ref_report, "{case}");
                        assert_eq!(
                            calls.load(Ordering::Relaxed),
                            ref_calls.load(Ordering::Relaxed),
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn result_does_not_depend_on_the_chunking() {
        // Trees, lattices and cliques tie on (cut, edges) all the time, so
        // a chunk that kept its last minimal candidate, or a fold that let
        // a later chunk win a tie, changes the LC sequence here. One chunk
        // per depth makes the within-chunk tie-break decide globally.
        for g in [
            generators::tree(31, 2),
            generators::lattice(3, 6),
            generators::complete(9),
        ] {
            for scheme in [PartitionScheme::Flat, PartitionScheme::Multilevel] {
                let spec = PartitionSpec {
                    g_max: 5,
                    lc_budget: 3,
                    effort: 2,
                    seed: 4,
                    scheme,
                };
                let ctrl = SearchControl::default();
                let reference = per_state_reference(&g, &spec, &ctrl);
                for chunks in [1, 2, 5, 64, usize::MAX] {
                    assert_eq!(
                        beam_search(&g, &spec, &ctrl, chunks),
                        reference,
                        "{} vertices, {chunks} chunks",
                        g.vertex_count()
                    );
                }
            }
        }
    }

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
