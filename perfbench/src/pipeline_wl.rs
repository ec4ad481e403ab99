//! cold-families and budget-sweep: the compiler driven one target at a
//! time, without any cache.
//!
//! * cold-families compiles every target once with `Framework::compile`
//!   under `epgs_bench::bench_framework()`. One operation is one target.
//! * budget-sweep compiles every target at each Ne_limit from Ne_min to
//!   2·Ne_min the way `Pipeline::sweep` does: partition and leaf plans
//!   once, then schedule → recombine → verify per budget. The harness
//!   makes those stage calls itself so that it can time each budget point.
//!   One operation is one budget point; the first point of a target also
//!   carries the shared partition and plan time.

use std::hint::black_box;
use std::time::Instant;

use epgs::{Compiled, Framework, Scheduled};
use epgs_graph::{generators, Graph};

use crate::check::Quality;
use crate::stages::{self, Prefix};
use crate::targets::{self, Target};
use crate::trace::Tracer;
use crate::workload::{account, repeat_for, set_up, share, Checker, Opts, Run};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdFamilies,
    BudgetSweep,
}

/// One budget point: its target and Ne_limit (`None`: the configured one).
#[derive(Clone, Copy)]
struct Op {
    target: usize,
    budget: Option<usize>,
}

type Output = (f64, Result<Compiled, String>);

/// A traced operation, with what the ledger and partition checks need.
struct TracedOp {
    result: Result<Compiled, String>,
    scheduled: Option<Scheduled>,
}

pub fn run(kind: Kind, opts: &Opts, tracer: Option<&Tracer>) -> Run {
    let fw = epgs_bench::bench_framework();
    let (setup_s, (targets, ops, base)) = set_up(opts.start, |last| {
        let targets = match kind {
            Kind::ColdFamilies => targets::cold_families(opts.seed),
            Kind::BudgetSweep => targets::budget_sweep(opts.seed),
        };
        let ops: Vec<Op> = match kind {
            Kind::ColdFamilies => (0..targets.len())
                .map(|target| Op {
                    target,
                    budget: None,
                })
                .collect(),
            Kind::BudgetSweep => targets
                .iter()
                .enumerate()
                .flat_map(|(target, t)| {
                    let ne_min = fw.ne_min(&t.graph);
                    (ne_min..=2 * ne_min).map(move |b| Op {
                        target,
                        budget: Some(b),
                    })
                })
                .collect(),
        };
        let graphs: Vec<&Graph> = targets.iter().map(|t| &t.graph).collect();
        let base = stages::baselines(tracer.filter(|_| last), &graphs);
        // Warm-up: thread spawn, allocator and code paths, on a target
        // outside the set.
        black_box(fw.compile(&generators::lattice(4, 6)).is_ok());
        (targets, ops, base)
    });
    let setup_spans = tracer.map_or(0, Tracer::len);
    // A budget-sweep request is one target's whole sweep: its points
    // split into clusters by target size, so per-point percentiles jump
    // between clusters from run to run.
    let request_of = match kind {
        Kind::ColdFamilies => Vec::new(),
        Kind::BudgetSweep => ops.iter().map(|op| op.target).collect(),
    };
    let mut run = Run {
        setup_s,
        ops_per_pass: ops.len(),
        request_of,
        ..Run::default()
    };

    // A traced run alternates untraced and traced passes, so that slow
    // phases of the machine fall on both alike and their difference is the
    // tracing overhead.
    let mut checker = Checker::default();
    let mut first: Option<Vec<Result<Compiled, String>>> = None;
    let mut traced_walls = Vec::new();
    let mut kept: Option<TracedPass> = None;
    let mut one_pass = |traced: bool| -> f64 {
        if let Some(tr) = tracer.filter(|_| traced) {
            let pass = traced_pass(kind, &fw, tr, &targets, &ops);
            checker.pass(
                &mut run,
                check_items(&targets, &ops, pass.out.iter().map(|o| &o.result)),
            );
            traced_walls.push(pass.wall);
            kept.get_or_insert(pass).wall
        } else {
            let (wall, outs) = untraced_pass(&fw, &targets, &ops);
            run.pass_wall_s.push(wall);
            run.op_s.push(outs.iter().map(|o| o.0).collect());
            checker.pass(
                &mut run,
                check_items(&targets, &ops, outs.iter().map(|o| &o.1)),
            );
            first.get_or_insert_with(|| outs.into_iter().map(|o| o.1).collect());
            wall
        }
    };
    if tracer.is_some() {
        repeat_for(2.0 * opts.seconds, || one_pass(false) + one_pass(true));
    } else {
        repeat_for(opts.seconds, || one_pass(false));
    }
    let first = first.expect("at least one pass");
    run.quality = Quality::of(
        first
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|c| &c.circuit),
    );
    let skipped = base.iter().filter(|b| b.unwrap_or(0) == 0).count();
    run.ratios = ops
        .iter()
        .zip(&first)
        .filter_map(|(op, r)| {
            let b = base[op.target].filter(|&b| b > 0)?;
            let ours = r.as_ref().ok()?.metrics.ee_two_qubit_count;
            Some(ours as f64 / b as f64)
        })
        .collect();
    run.pinned.push(("baseline_skipped", skipped as f64));
    if kind == Kind::BudgetSweep {
        let regressions = budget_regressions(&targets, &ops, &first);
        let count = regressions.len() as f64;
        run.pinned.push(("budget_regressions", count));
        run.layers.insert("recombine.budget_regressions", count);
        run.notes.extend(regressions);
    }

    if let Some(tr) = tracer {
        run.layers.insert(
            "baseline.s",
            tr.self_s_by_layer(0..setup_spans)
                .get("baseline")
                .copied()
                .unwrap_or(0.0),
        );
        run.layers.insert(
            "baseline.ee_cnots",
            base.iter().flatten().sum::<usize>() as f64,
        );
        run.layers.insert("baseline.skipped", skipped as f64);
        let kept = kept.expect("a traced run makes a traced pass");
        let spans = setup_spans..tr.len();
        report_traced(
            kind,
            &fw,
            tr,
            &targets,
            &ops,
            &first,
            &kept,
            &traced_walls,
            spans,
            &mut run,
        );
    }
    run
}

fn check_items<'a>(
    targets: &'a [Target],
    ops: &'a [Op],
    results: impl Iterator<Item = &'a Result<Compiled, String>> + 'a,
) -> impl Iterator<Item = (u64, &'a Graph, Result<&'a epgs_circuit::Circuit, String>)> + 'a {
    ops.iter().zip(results).map(|(op, r)| {
        (
            op.target as u64,
            &targets[op.target].graph,
            r.as_ref().map(|c| &c.circuit).map_err(Clone::clone),
        )
    })
}

/// One untraced pass: per operation, seconds and result.
fn untraced_pass(fw: &Framework, targets: &[Target], ops: &[Op]) -> (f64, Vec<Output>) {
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(ops.len());
    for (ti, t) in targets.iter().enumerate() {
        let mine = ops.iter().filter(|op| op.target == ti);
        let mut clock = Instant::now();
        let mut lap = || {
            let secs = clock.elapsed().as_secs_f64();
            clock = Instant::now();
            secs
        };
        if ops[0].budget.is_none() {
            let r = fw.compile(&t.graph).map_err(|e| e.to_string());
            out.push((lap(), r));
            continue;
        }
        match fw.pipeline().partition(&t.graph).plan_leaves() {
            Ok(planned) => {
                for op in mine {
                    let budget = op.budget.expect("sweep points carry a budget");
                    let r = planned
                        .schedule(budget)
                        .recombine()
                        .and_then(|r| r.verify())
                        .map_err(|e| e.to_string());
                    out.push((lap(), r));
                }
            }
            Err(e) => {
                for _ in mine {
                    out.push((lap(), Err(e.to_string())));
                }
            }
        }
    }
    (t0.elapsed().as_secs_f64(), out)
}

/// Budget points whose ee-CNOTs exceed a smaller budget's on the same
/// target, described.
fn budget_regressions(
    targets: &[Target],
    ops: &[Op],
    results: &[Result<Compiled, String>],
) -> Vec<String> {
    let mut found = Vec::new();
    let mut best: Option<(usize, usize, usize)> = None; // (target, budget, min ee so far)
    for (op, r) in ops.iter().zip(results) {
        let (Ok(c), Some(budget)) = (r, op.budget) else {
            continue;
        };
        let ee = c.metrics.ee_two_qubit_count;
        match best {
            Some((t, at, min)) if t == op.target => {
                if ee > min {
                    found.push(format!(
                        "budget regression: {} has {ee} ee-CNOTs at Ne_limit {budget}, {min} at Ne_limit {at}",
                        targets[t].name
                    ));
                }
                if ee < min {
                    best = Some((t, budget, ee));
                }
            }
            _ => best = Some((op.target, budget, ee)),
        }
    }
    found
}

/// One traced pass, with what the ledger and partition checks need.
struct TracedPass {
    wall: f64,
    prefixes: Vec<Option<Prefix>>,
    out: Vec<TracedOp>,
}

/// The stages of every target, one span per public call under a root span
/// per target.
fn traced_pass(
    kind: Kind,
    fw: &Framework,
    tr: &Tracer,
    targets: &[Target],
    ops: &[Op],
) -> TracedPass {
    let root_name = match kind {
        Kind::ColdFamilies => "compile",
        Kind::BudgetSweep => "sweep",
    };
    let t0 = Instant::now();
    let mut prefixes: Vec<Option<Prefix>> = Vec::with_capacity(targets.len());
    let mut out: Vec<TracedOp> = Vec::with_capacity(ops.len());
    for (ti, t) in targets.iter().enumerate() {
        tr.span(root_name, ti as u64, None, |root| {
            let pipeline = fw.pipeline();
            let prefix = stages::traced_prefix(tr, &pipeline, &t.graph, ti as u64, root);
            for (oi, op) in ops.iter().enumerate().filter(|(_, op)| op.target == ti) {
                out.push(match &prefix {
                    Ok(p) => {
                        let budget = op.budget.unwrap_or_else(|| p.planned.configured_budget());
                        let (scheduled, result) =
                            stages::traced_suffix(tr, &p.planned, budget, oi as u64, root);
                        TracedOp {
                            result,
                            scheduled: Some(scheduled),
                        }
                    }
                    Err(e) => TracedOp {
                        result: Err(e.clone()),
                        scheduled: None,
                    },
                });
            }
            prefixes.push(prefix.ok());
        });
    }
    TracedPass {
        wall: t0.elapsed().as_secs_f64(),
        prefixes,
        out,
    }
}

/// Per-layer metrics of the traced passes (whose spans are `spans`), the
/// counting hook's partition check and the recombine candidate ledger.
#[allow(clippy::too_many_arguments)]
fn report_traced(
    kind: Kind,
    fw: &Framework,
    tr: &Tracer,
    targets: &[Target],
    ops: &[Op],
    untraced: &[Result<Compiled, String>],
    kept: &TracedPass,
    traced_walls: &[f64],
    spans: std::ops::Range<usize>,
    run: &mut Run,
) {
    let n_passes = traced_walls.len() as f64;
    let traced_spans = spans;

    // Layer self times, per pass.
    let by_layer = tr.self_s_by_layer(traced_spans);
    let layer = |k: &str| by_layer.get(k).copied().unwrap_or(0.0) / n_passes;
    let total: f64 = by_layer.values().sum::<f64>() / n_passes;
    let stage_names = ["partition", "plan", "schedule", "recombine", "verify"];
    for (name, key) in stage_names.iter().zip([
        "partition.s",
        "plan.s",
        "schedule.s",
        "recombine.s",
        "verify.s",
    ]) {
        run.layers.insert(key, layer(name));
    }
    account(
        run,
        traced_walls,
        stage_names.iter().map(|n| layer(n)).sum(),
    );
    let (partition_range, recombine_range) = match kind {
        Kind::ColdFamilies => ((0.45, 0.90), None),
        Kind::BudgetSweep => ((0.0, 0.25), Some((0.55, 0.87))),
    };
    share(
        run,
        "partition.share",
        layer("partition"),
        total,
        partition_range.0,
        partition_range.1,
    );
    let (lo, hi) = recombine_range.unwrap_or((0.0, 1.0));
    share(run, "recombine.share", layer("recombine"), total, lo, hi);
    share(run, "plan.share", layer("plan"), total, 0.0, 0.03);
    share(run, "schedule.share", layer("schedule"), total, 0.0, 0.01);

    // Work counts of the first traced pass, the counting hook's partition
    // equality check, and the recombine candidate ledger.
    let (prefixes, out) = (&kept.prefixes, &kept.out);
    let mut calls = 0;
    let (mut depth, mut cut, mut leaves) = (0, 0, 0);
    for (t, p) in targets.iter().zip(prefixes) {
        let Some(p) = p else { continue };
        calls += p.scoring_calls;
        let part = p.partitioned.partition();
        depth += part.lc_sequence.len();
        cut += part.cut;
        leaves += p.planned.plans().len();
        if fw.pipeline().partition(&t.graph).partition() != part {
            run.failures.push(format!(
                "{}: the counting hook changed the partition",
                t.name
            ));
        }
    }
    run.layers.insert("partition.scoring_calls", calls as f64);
    run.layers.insert("partition.lc_depth", depth as f64);
    run.layers.insert("partition.cut", cut as f64);
    run.layers.insert("plan.leaves", leaves as f64);

    let (mut failed, mut direct_differs, mut solo_better) = (0, 0, 0);
    for (oi, o) in out.iter().enumerate() {
        let (Some(scheduled), Ok(staged)) = (&o.scheduled, &o.result) else {
            continue;
        };
        let candidates = stages::ledger(tr, scheduled, oi as u64);
        for c in &candidates {
            let keys = stages::StrategyKeys::of(c.strategy);
            *run.layers.entry(keys.secs).or_insert(0.0) += c.secs;
            match &c.figures {
                Ok((ee, _)) => *run.layers.entry(keys.ee_cnots).or_insert(0.0) += *ee as f64,
                Err(e) => {
                    failed += 1;
                    run.notes.push(format!(
                        "{} ({}): {} failed: {e}",
                        targets[ops[oi].target].name,
                        ops[oi]
                            .budget
                            .map_or("configured budget".into(), |b| format!("Ne_limit {b}")),
                        keys.span
                    ));
                }
            }
        }
        match stages::check_ledger(&candidates, staged) {
            Ok(f) => {
                direct_differs += usize::from(f.direct_differs);
                solo_better += usize::from(f.solo_better);
            }
            Err(e) => run.failures.push(format!("op {oi}: {e}")),
        }
    }
    run.layers.insert("recombine.failed", failed as f64);
    run.layers
        .insert("recombine.direct_differs", direct_differs as f64);
    run.layers
        .insert("recombine.solo_better", solo_better as f64);
    for c in untraced.iter().flatten() {
        *run.layers
            .entry(stages::StrategyKeys::of(c.strategy).wins)
            .or_insert(0.0) += 1.0;
    }
}
