//! The repository benchmark: drives the epgs compiler from outside through
//! its public API and prints end-to-end metrics (untraced run) or per-layer
//! metrics (traced run) as one JSON line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-families|budget-sweep|serve-mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and why they
//! were chosen.

mod check;
mod pipeline_wl;
mod serve_wl;
mod stages;
mod targets;
mod trace;
mod util;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use check::DigestLedger;
use pipeline_wl::Kind;
use trace::Tracer;
use util::{geomean, median, peak_rss_mb, percentile};
use workload::Opts;

/// End-to-end metrics (untraced run), with units.
const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("compile_s_total", "s"),
    ("compile_s_geomean", "s"),
    ("ee_cnots_total", "count"),
    ("duration_tau_total", "tau"),
    ("photon_loss_mean", "prob"),
    ("ee_ratio_vs_baseline", "ratio"),
    ("ok_frac", "ratio"),
    ("request_ms_p50", "ms"),
    ("request_ms_p95", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), with units. A layer a workload does not
/// run reads 0 there.
const PER_LAYER: [(&str, &str); 58] = [
    ("partition.s", "s"),
    ("partition.scoring_calls", "count"),
    ("partition.lc_depth", "count"),
    ("partition.cut", "count"),
    ("partition.share", "ratio"),
    ("plan.s", "s"),
    ("plan.leaves", "count"),
    ("plan.share", "ratio"),
    ("schedule.s", "s"),
    ("schedule.share", "ratio"),
    ("recombine.s", "s"),
    ("recombine.share", "ratio"),
    ("recombine.interleave.s", "s"),
    ("recombine.sequential.s", "s"),
    ("recombine.direct.s", "s"),
    ("recombine.interleave.ee_cnots", "count"),
    ("recombine.sequential.ee_cnots", "count"),
    ("recombine.direct.ee_cnots", "count"),
    ("recombine.failed", "count"),
    ("recombine.direct_differs", "count"),
    ("recombine.solo_better", "count"),
    ("recombine.wins.interleave", "count"),
    ("recombine.wins.sequential", "count"),
    ("recombine.wins.direct", "count"),
    ("recombine.budget_regressions", "count"),
    ("verify.s", "s"),
    ("baseline.s", "s"),
    ("baseline.ee_cnots", "count"),
    ("baseline.skipped", "count"),
    ("canon.s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("store.disk_hits", "count"),
    ("store.writes", "count"),
    ("store.bytes", "bytes"),
    ("store.read_retries", "count"),
    ("serve.s", "s"),
    ("serve.memory_hit.ms_p50", "ms"),
    ("serve.disk_hit.ms_p50", "ms"),
    ("serve.compiled.ms_p50", "ms"),
    ("serve.coalesced.ms_p50", "ms"),
    ("serve.coalesced", "count"),
    ("serve.memory_hit.share", "ratio"),
    ("serve.disk_hit.share", "ratio"),
    ("serve.compiled.share", "ratio"),
    ("serve.coalesced.share", "ratio"),
    ("protocol.s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.layer_self_s", "s"),
    ("trace.accounted", "bool"),
    ("check.s", "s"),
    ("run.passes", "count"),
    ("run.samples", "count"),
    ("run.p95_samples_beyond", "count"),
];

const WORKLOADS: [&str; 3] = ["cold-families", "budget-sweep", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        out_dir,
        start,
    };
    let tracer = args.trace.then(Tracer::new);
    let tr = tracer.as_ref();
    let mut run = match args.workload.as_str() {
        "cold-families" => pipeline_wl::run(Kind::ColdFamilies, &opts, tr),
        "budget-sweep" => pipeline_wl::run(Kind::BudgetSweep, &opts, tr),
        _ => serve_wl::run(&opts, tr),
    };

    let ratio = geomean(&run.ratios);
    let mut pinned = vec![("ee_ratio_vs_baseline", ratio)];
    pinned.extend(run.pinned.iter().copied());
    let ledger = DigestLedger::new(
        &opts.out_dir,
        &args.workload,
        opts.seed,
        &run.digests,
        &run.quality,
        &pinned,
    );
    if let Err(e) = ledger.reconcile() {
        run.failures.push(e);
    }

    let failed = run.failures.len().min(run.attempted);
    let op_s = run.op_median_s();
    let ms: Vec<f64> = run.request_median_s().iter().map(|s| 1e3 * s).collect();
    let (p50, _) = percentile(&ms, 50.0);
    let (p95, beyond) = percentile(&ms, 95.0);
    let compile_s_total = median(&run.pass_wall_s);
    let e2e = [
        median(&run.setup_s),
        compile_s_total,
        geomean(&op_s),
        run.quality.ee_cnots as f64,
        run.quality.duration_tau,
        run.quality.photon_loss_mean,
        ratio,
        1.0 - failed as f64 / run.attempted.max(1) as f64,
        p50,
        p95,
        run.ops_per_pass as f64 / compile_s_total,
        peak_rss_mb().unwrap_or(0.0),
    ];

    println!(
        "{} seed {}: {} untraced pass(es) of {} operations; {} request latencies (median over passes), {beyond} beyond p95{}",
        args.workload,
        opts.seed,
        run.pass_wall_s.len(),
        run.ops_per_pass,
        ms.len(),
        if beyond < 10 { " (fewer than 10: p95 is near the maximum)" } else { "" }
    );
    println!("setup repetitions (s): {:?}", run.setup_s);
    println!("untraced pass walls (s): {:?}", run.pass_wall_s);
    for note in &run.notes {
        println!("{note}");
    }
    for f in run.failures.iter().take(10) {
        println!("FAILED: {f}");
    }
    if run.failures.len() > 10 {
        println!("FAILED: ... {} more", run.failures.len() - 10);
    }

    let metrics: Vec<(&str, &str, f64)> = if let Some(tr) = tr {
        run.layers.insert("check.s", run.check_s);
        run.layers
            .insert("run.passes", run.pass_wall_s.len() as f64);
        run.layers.insert("run.samples", ms.len() as f64);
        run.layers.insert("run.p95_samples_beyond", beyond as f64);
        let path = opts
            .out_dir
            .join(format!("trace-{}-s{}.jsonl", args.workload, opts.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("trace: {} spans written to {}", tr.len(), path.display()),
            Err(e) => println!("trace: cannot write {}: {e}", path.display()),
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, run.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    let correct = run.failures.is_empty() && metrics.iter().all(|m| m.2.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_corpus::Value;

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_harness_prints() {
        let doc =
            Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
