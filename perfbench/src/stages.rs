//! Traced, stage-by-stage compilation shared by cold-families and
//! budget-sweep, plus the recombine candidate ledger and the baseline
//! references.
//!
//! The traced path calls the same public stage functions `Pipeline`
//! composes (`partition → plan_leaves → schedule → recombine → verify`),
//! one span per call, so the per-layer seconds add up to the untraced
//! compile time plus the tracing overhead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use epgs::{Compiled, Partitioned, Pipeline, Planned, RecombineStrategy, Scheduled};
use epgs_graph::Graph;
use epgs_partition::SearchControl;

use crate::trace::{maybe_span, Tracer};

/// The partition search and leaf plans of one target.
pub struct Prefix {
    pub partitioned: Partitioned,
    pub planned: Planned,
    /// Multilevel-partitioner calls the LC beam made (one per scoring call).
    pub scoring_calls: usize,
}

/// Stage 1 under a counting fault hook (it never injects anything), then
/// stage 2; one span each under `parent`.
pub fn traced_prefix(
    tr: &Tracer,
    pipeline: &Pipeline,
    graph: &Graph,
    id: u64,
    parent: usize,
) -> Result<Prefix, String> {
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    let ctrl = SearchControl {
        deadline: None,
        multilevel_fault: Some(Arc::new(move || {
            counter.fetch_add(1, Ordering::Relaxed);
            None
        })),
    };
    let partitioned = tr.span("partition", id, Some(parent), |_| {
        pipeline.partition_with_control(graph, &ctrl)
    });
    let planned = tr
        .span("plan", id, Some(parent), |_| partitioned.plan_leaves())
        .map_err(|e| e.to_string())?;
    Ok(Prefix {
        partitioned,
        planned,
        scoring_calls: calls.load(Ordering::Relaxed),
    })
}

/// Stages 3–5 at `budget`; one span each under `parent`.
pub fn traced_suffix(
    tr: &Tracer,
    planned: &Planned,
    budget: usize,
    id: u64,
    parent: usize,
) -> (Scheduled, Result<Compiled, String>) {
    let scheduled = tr.span("schedule", id, Some(parent), |_| planned.schedule(budget));
    let compiled = tr
        .span("recombine", id, Some(parent), |_| scheduled.recombine())
        .and_then(|r| tr.span("verify", id, Some(parent), |_| r.verify()))
        .map_err(|e| e.to_string());
    (scheduled, compiled)
}

/// Span and metric names of one recombine strategy.
pub struct StrategyKeys {
    /// Span around the strategy's solo `recombine_with` call.
    pub span: &'static str,
    pub secs: &'static str,
    pub ee_cnots: &'static str,
    pub wins: &'static str,
}

impl StrategyKeys {
    pub fn of(s: RecombineStrategy) -> StrategyKeys {
        let [span, secs, ee_cnots, wins] = match s {
            RecombineStrategy::ScheduledInterleave => [
                "recombine.interleave",
                "recombine.interleave.s",
                "recombine.interleave.ee_cnots",
                "recombine.wins.interleave",
            ],
            RecombineStrategy::BlockSequential => [
                "recombine.sequential",
                "recombine.sequential.s",
                "recombine.sequential.ee_cnots",
                "recombine.wins.sequential",
            ],
            RecombineStrategy::DirectSolve => [
                "recombine.direct",
                "recombine.direct.s",
                "recombine.direct.ee_cnots",
                "recombine.wins.direct",
            ],
        };
        StrategyKeys {
            span,
            secs,
            ee_cnots,
            wins,
        }
    }
}

/// One recombine candidate solved on its own.
pub struct Candidate {
    pub strategy: RecombineStrategy,
    pub secs: f64,
    /// (ee-CNOTs, duration τ) of the candidate's circuit, or the error text.
    pub figures: Result<(usize, f64), String>,
}

/// Solves every strategy alone with `Scheduled::recombine_with(&[s])`.
pub fn ledger(tr: &Tracer, scheduled: &Scheduled, id: u64) -> Vec<Candidate> {
    RecombineStrategy::all()
        .into_iter()
        .map(|strategy| {
            let t = Instant::now();
            let r = tr.span(StrategyKeys::of(strategy).span, id, None, |_| {
                scheduled.recombine_with(&[strategy])
            });
            Candidate {
                strategy,
                secs: t.elapsed().as_secs_f64(),
                figures: r
                    .map(|r| (r.metrics().ee_two_qubit_count, r.metrics().duration))
                    .map_err(|e| e.to_string()),
            }
        })
        .collect()
}

/// What the ledger says about a staged competition it is consistent with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerFinding {
    /// `DirectSolve` alone gave other figures than inside the competition.
    /// Inside it, the direct candidates share the emitter pool sized for
    /// the schedule strategies; alone, the pool is sized by the direct
    /// orderings only.
    pub direct_differs: bool,
    /// Some candidate alone has fewer ee-CNOTs than the staged winner.
    pub solo_better: bool,
}

/// Checks the staged winner against the candidates solved alone.
///
/// A schedule strategy (`ScheduledInterleave`, `BlockSequential`) solves
/// the same problem alone as inside the competition, so a staged winner of
/// that kind must carry exactly its own candidate's figures, and the
/// winner may have no more ee-CNOTs than any schedule candidate. The
/// direct candidates alone run on a different emitter pool, so a
/// difference there is reported, not failed.
pub fn check_ledger(ledger: &[Candidate], staged: &Compiled) -> Result<LedgerFinding, String> {
    let staged_figures = (staged.metrics.ee_two_qubit_count, staged.metrics.duration);
    let alone = |s: RecombineStrategy| ledger.iter().find(|c| c.strategy == s).map(|c| &c.figures);
    let schedule_best = ledger
        .iter()
        .filter(|c| c.strategy != RecombineStrategy::DirectSolve)
        .filter_map(|c| c.figures.as_ref().ok().map(|f| f.0))
        .min();
    let own = alone(staged.strategy);
    let mismatch = |why: &str| {
        Err(format!(
            "ledger: {why}: staged {:?} {staged_figures:?}, alone {own:?}, best schedule ee {schedule_best:?}",
            staged.strategy
        ))
    };
    if staged.strategy != RecombineStrategy::DirectSolve && own != Some(&Ok(staged_figures)) {
        return mismatch("the winner alone gives other figures");
    }
    if schedule_best.is_some_and(|b| b < staged_figures.0) {
        return mismatch("a schedule candidate has fewer ee-CNOTs than the winner");
    }
    let direct = alone(RecombineStrategy::DirectSolve);
    Ok(LedgerFinding {
        direct_differs: staged.strategy == RecombineStrategy::DirectSolve
            && direct != Some(&Ok(staged_figures)),
        solo_better: matches!(direct, Some(Ok(f)) if f.0 < staged_figures.0),
    })
}

/// Baseline ee-CNOT references (`solve_baseline` under the bench options),
/// solved on two threads taking the largest graphs first. `None` marks a
/// failed baseline solve.
pub fn baselines(tr: Option<&Tracer>, graphs: &[&Graph]) -> Vec<Option<usize>> {
    const THREADS: usize = 2;
    let hw = epgs_bench::hw();
    let opts = epgs_bench::bench_baseline();
    let mut order: Vec<usize> = (0..graphs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(graphs[i].vertex_count()));
    let next = AtomicUsize::new(0);
    let mut out = vec![None; graphs.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let r = maybe_span(tr, "baseline", i as u64, None, |_| {
                            epgs_solver::solve_baseline(graphs[i], &hw, &opts)
                        });
                        mine.push((i, r.ok().map(|b| b.circuit.ee_two_qubit_count())));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (i, ee) in h.join().expect("baseline worker panicked") {
                out[i] = ee;
            }
        }
    });
    out
}
