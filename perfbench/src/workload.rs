//! What every workload hands back, and the loops they share.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use epgs_circuit::Circuit;
use epgs_graph::Graph;

use crate::check::{qasm_digest, OracleMemo, Quality};
use crate::util::median;

/// How many times a run performs its set-up; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Command-line options of one run.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// Where traces, digest ledgers and scratch stores go.
    pub out_dir: PathBuf,
    /// Process start (the first set-up is timed from here).
    pub start: Instant,
}

/// Per-layer metrics by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The measured outcome of one workload run.
#[derive(Default)]
pub struct Run {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each untraced timed pass.
    pub pass_wall_s: Vec<f64>,
    /// Seconds of each operation, per untraced pass.
    pub op_s: Vec<Vec<f64>>,
    /// The request each operation belongs to, when a request spans several
    /// operations (empty: one request per operation).
    pub request_of: Vec<usize>,
    /// Operations in one pass.
    pub ops_per_pass: usize,
    /// Operations attempted over all passes (untraced and traced).
    pub attempted: usize,
    /// One message per failed operation or failed check.
    pub failures: Vec<String>,
    /// Quality of the first pass's outputs.
    pub quality: Quality,
    /// ours ÷ baseline ee-CNOTs per output whose baseline is positive.
    pub ratios: Vec<f64>,
    /// QASM digest of each output of the first pass, in operation order.
    pub digests: Vec<u64>,
    /// Deterministic figures pinned by the digest ledger beside quality.
    pub pinned: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// Human-readable findings printed before the result line.
    pub notes: Vec<String>,
    /// Seconds spent in output checks (outside the timed region).
    pub check_s: f64,
}

/// Runs the set-up [`SETUP_REPS`] times (the first timed from process
/// start) and keeps the last product; `last` tells `f` which repetition
/// may record spans.
pub fn set_up<T>(start: Instant, mut f: impl FnMut(bool) -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut product = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 { start } else { Instant::now() };
        product = Some(f(rep + 1 == SETUP_REPS));
        times.push(t0.elapsed().as_secs_f64());
    }
    (times, product.expect("at least one set-up"))
}

impl Run {
    /// Per operation, the median of its seconds over the untraced passes.
    pub fn op_median_s(&self) -> Vec<f64> {
        medians(&self.op_s)
    }

    /// Per request, the median of its seconds over the untraced passes.
    pub fn request_median_s(&self) -> Vec<f64> {
        if self.request_of.is_empty() {
            return self.op_median_s();
        }
        let n = self.request_of.iter().max().map_or(0, |m| m + 1);
        let per_pass: Vec<Vec<f64>> = self
            .op_s
            .iter()
            .map(|pass| {
                let mut r = vec![0.0; n];
                for (&req, s) in self.request_of.iter().zip(pass) {
                    r[req] += s;
                }
                r
            })
            .collect();
        medians(&per_pass)
    }
}

/// Column medians of equally long rows.
fn medians(rows: &[Vec<f64>]) -> Vec<f64> {
    let cols = rows.first().map_or(0, Vec::len);
    (0..cols)
        .map(|i| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Repeats `pass` (which returns its wall seconds) until the measured
/// seconds reach about `seconds`, at least once: a further pass starts only
/// when the median pass so far would still end in time. Work a pass does
/// outside its wall (output checks) does not count.
pub fn repeat_for(seconds: f64, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    let mut walls = Vec::new();
    loop {
        walls.push(pass());
        if walls.iter().sum::<f64>() + median(&walls) > seconds {
            return walls;
        }
    }
}

/// Tracing overhead and layer accounting, from the walls of the
/// alternating untraced and traced passes and the per-pass sum of layer
/// self times. Means, not medians, so that they compare with that sum.
/// Layer self times account for the untraced wall when they differ from it
/// by no more than the overhead plus 2% (time between layer calls).
pub fn account(run: &mut Run, traced_wall_s: &[f64], layer_self_s: f64) {
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let untraced = mean(&run.pass_wall_s);
    let traced = mean(traced_wall_s);
    let overhead = traced - untraced;
    let gap = (untraced - layer_self_s).abs();
    let accounted = gap <= overhead.abs() + 0.02 * untraced;
    run.layers.insert("trace.untraced_s", untraced);
    run.layers.insert("trace.traced_s", traced);
    run.layers
        .insert("trace.overhead_frac", overhead / untraced);
    run.layers.insert("trace.layer_self_s", layer_self_s);
    run.layers
        .insert("trace.accounted", f64::from(u8::from(accounted)));
    run.notes.push(format!(
        "tracing overhead {:+.2}% ({traced:.4} s traced vs {untraced:.4} s untraced, mean \
         per pass); layer self times {layer_self_s:.4} s {} the untraced pass",
        100.0 * overhead / untraced,
        if accounted {
            "account for"
        } else {
            "DO NOT account for"
        }
    ));
}

/// Records a layer's share of the traced compile time and checks it
/// against the predicted range `[lo, hi]`.
pub fn share(run: &mut Run, key: &'static str, layer_s: f64, total_s: f64, lo: f64, hi: f64) {
    let s = layer_s / total_s;
    run.layers.insert(key, s);
    let holds = (lo..=hi).contains(&s);
    run.notes.push(format!(
        "{key} = {:.1}% (predicted {:.0}–{:.0}%): {}",
        100.0 * s,
        100.0 * lo,
        100.0 * hi,
        if holds { "holds" } else { "DOES NOT HOLD" }
    ));
}

/// Checks the outputs of successive passes over one operation list: every
/// output passes the oracle, and every pass reproduces the first pass's
/// QASM digests operation by operation.
#[derive(Default)]
pub struct Checker {
    memo: OracleMemo,
    first: Vec<u64>,
    passes: usize,
}

impl Checker {
    /// `ops` yields, per operation in order: the key of its target, the
    /// target, and the circuit or the failure text.
    pub fn pass<'a>(
        &mut self,
        run: &mut Run,
        ops: impl IntoIterator<Item = (u64, &'a Graph, Result<&'a Circuit, String>)>,
    ) {
        let t0 = Instant::now();
        let first = self.passes == 0;
        for (i, (key, graph, out)) in ops.into_iter().enumerate() {
            run.attempted += 1;
            let circuit = match out {
                Ok(c) => c,
                Err(e) => {
                    run.failures.push(format!("op {i}: {e}"));
                    if first {
                        self.first.push(0);
                    }
                    continue;
                }
            };
            let d = qasm_digest(circuit);
            if first {
                self.first.push(d);
            } else if self.first.get(i) != Some(&d) {
                run.failures
                    .push(format!("op {i}: output differs from the first pass"));
            }
            if let Err(e) = self.memo.check(key, d, circuit, graph) {
                run.failures.push(format!("op {i}: oracle: {e}"));
            }
        }
        if first {
            run.digests = self.first.clone();
        }
        self.passes += 1;
        run.check_s += t0.elapsed().as_secs_f64();
    }
}
