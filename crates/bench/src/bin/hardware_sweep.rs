//! Multi-objective hardware sweep: a Pareto front per corpus instance.
//!
//! For each selected corpus instance and each hardware preset, the sweep
//! compiles for that preset (`config.hardware`) under the `Duration`
//! objective at several emitter budgets, reusing the staged [`Planned`](epgs::Planned) artifact across
//! the budget axis (partition + leaf planning run once per preset). Every
//! compiled point records its emitter demand, platform duration, and mean
//! photon loss; the per-instance Pareto front over
//! `(emitters, duration, mean loss)` — minimizing all three across *all*
//! presets — is flagged in the emitted JSON.
//!
//! Run with:
//! `cargo run --release -p epgs-bench --bin hardware_sweep -- \
//!     [--out FILE.json] [--presets a,b,c] [--per-family N]`

use std::fs;
use std::process::ExitCode;

use epgs::{CompileObjective, Pipeline, RecombineStrategy};
use epgs_bench::corpus_framework;
use epgs_corpus::json::Writer;
use epgs_corpus::CorpusSpec;
use epgs_hardware::HardwareModel;

/// One compiled point of the sweep.
struct Point {
    preset: String,
    /// The instance's Ne_min as planned under this preset — leaf-variant
    /// selection scores under the preset's timing, so it can differ
    /// across presets for the same graph.
    ne_min: usize,
    budget: usize,
    peak_emitters: usize,
    ee_cnots: usize,
    duration: f64,
    t_loss: f64,
    mean_photon_loss: f64,
    any_photon_loss: f64,
    strategy: RecombineStrategy,
    pareto: bool,
}

/// `a` dominates `b` when it is no worse on every axis and better on one.
fn dominates(a: &Point, b: &Point) -> bool {
    let no_worse = a.peak_emitters <= b.peak_emitters
        && a.duration <= b.duration
        && a.mean_photon_loss <= b.mean_photon_loss;
    let better = a.peak_emitters < b.peak_emitters
        || a.duration < b.duration
        || a.mean_photon_loss < b.mean_photon_loss;
    no_worse && better
}

fn usage() -> ExitCode {
    eprintln!("usage: hardware_sweep [--out FILE.json] [--presets a,b,c] [--per-family N]");
    let names: Vec<&str> = HardwareModel::presets().iter().map(|(k, _)| *k).collect();
    eprintln!("known presets: {}", names.join(", "));
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut out_path = "target/hardware_sweep.json".to_string();
    let mut preset_keys: Vec<String> = HardwareModel::presets()
        .iter()
        .map(|(k, _)| k.to_string())
        .collect();
    let mut per_family = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out needs a file path");
                    return usage();
                }
            },
            "--presets" => match args.next() {
                Some(list) => {
                    preset_keys = list.split(',').map(str::to_string).collect();
                }
                None => {
                    eprintln!("--presets needs a comma-separated list");
                    return usage();
                }
            },
            "--per-family" => match args.next().map(|p| p.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => per_family = n,
                _ => {
                    eprintln!("--per-family needs a positive integer");
                    return usage();
                }
            },
            other => {
                eprintln!("unknown argument '{other}'");
                return usage();
            }
        }
    }
    let presets: Vec<(String, HardwareModel)> = {
        let mut resolved = Vec::with_capacity(preset_keys.len());
        for key in &preset_keys {
            match HardwareModel::by_name(key) {
                Some(hw) => resolved.push((key.clone(), hw)),
                None => {
                    eprintln!("unknown hardware preset '{key}'");
                    return usage();
                }
            }
        }
        resolved
    };
    if presets.is_empty() {
        eprintln!("--presets must name at least one preset");
        return usage();
    }

    // The sweep workload: the first `per_family` instances of every
    // default-corpus family (5 families — ≥ 4 instances even at N = 1).
    let spec = CorpusSpec::default_corpus();
    let instances: Vec<epgs_corpus::Instance> = spec
        .families
        .iter()
        .flat_map(|f| f.instances().into_iter().take(per_family))
        .collect();
    println!(
        "hardware sweep: {} instances × {} presets, duration objective",
        instances.len(),
        presets.len()
    );

    let base_config = corpus_framework().config().clone();
    let mut w = Writer::new();
    w.begin_obj();
    w.field_str("corpus", "default");
    w.field_str("objective", "duration");
    w.key("presets");
    w.begin_arr();
    for (key, _) in &presets {
        w.string(key);
    }
    w.end_arr();
    w.key("instances");
    w.begin_arr();

    let mut divergent_instances = 0usize;
    for inst in &instances {
        let mut points: Vec<Point> = Vec::new();
        for (key, hw) in &presets {
            // One pipeline per preset: the `Planned` prefix is computed
            // once and shared across the whole budget axis (the PR-1
            // sweep fast path).
            let mut config = base_config.clone();
            config.objective = CompileObjective::Duration;
            config.hardware = hw.clone();
            let pipeline = Pipeline::new(config);
            let planned = match pipeline.partition(&inst.graph).plan_leaves() {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{} under {key}: planning failed: {e}", inst.id);
                    return ExitCode::FAILURE;
                }
            };
            let ne_min = planned.ne_min();
            let mut budgets = vec![ne_min, (ne_min as f64 * 1.5).ceil() as usize, ne_min * 2];
            budgets.dedup();
            for budget in budgets {
                let compiled = match planned
                    .schedule(budget)
                    .recombine()
                    .and_then(|r| r.verify())
                {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("{} under {key} at budget {budget}: {e}", inst.id);
                        return ExitCode::FAILURE;
                    }
                };
                points.push(Point {
                    preset: key.clone(),
                    ne_min,
                    budget,
                    peak_emitters: compiled.metrics.peak_emitters,
                    ee_cnots: compiled.metrics.ee_two_qubit_count,
                    duration: compiled.metrics.duration,
                    t_loss: compiled.metrics.t_loss,
                    mean_photon_loss: compiled.metrics.loss.mean_photon_loss,
                    any_photon_loss: compiled.metrics.loss.any_photon_loss,
                    strategy: compiled.strategy,
                    pareto: false,
                });
            }
            let counters = pipeline.counters();
            assert_eq!(
                (counters.partition, counters.plan),
                (1, 1),
                "budget sweep must reuse the staged prefix"
            );
        }

        // Pareto front across every (preset, budget) point of the instance.
        for i in 0..points.len() {
            points[i].pareto = !points.iter().any(|other| dominates(other, &points[i]));
        }

        let mut strategies: Vec<RecombineStrategy> = points.iter().map(|p| p.strategy).collect();
        strategies.sort_by_key(|s| format!("{s:?}"));
        strategies.dedup();
        let divergent = strategies.len() > 1;
        divergent_instances += usize::from(divergent);
        // Ne_min itself can vary across presets (leaf selection scores
        // under the preset's timing), so report it as a range and record
        // the exact value per point.
        let ne_min_lo = points.iter().map(|p| p.ne_min).min().unwrap_or(0);
        let ne_min_hi = points.iter().map(|p| p.ne_min).max().unwrap_or(0);
        let ne_min_label = if ne_min_lo == ne_min_hi {
            ne_min_lo.to_string()
        } else {
            format!("{ne_min_lo}-{ne_min_hi}")
        };
        println!(
            "  {:<24} Ne_min {}  {} points, {} on the Pareto front{}",
            inst.id,
            ne_min_label,
            points.len(),
            points.iter().filter(|p| p.pareto).count(),
            if divergent {
                "  [strategy divergence across presets]"
            } else {
                ""
            }
        );

        w.begin_obj();
        w.field_str("id", &inst.id);
        w.field_str("family", &inst.family);
        w.field_uint("vertices", inst.graph.vertex_count() as u64);
        w.field_bool("strategy_divergence", divergent);
        w.key("points");
        w.begin_arr();
        for p in &points {
            w.begin_obj();
            w.field_str("preset", &p.preset);
            w.field_uint("ne_min", p.ne_min as u64);
            w.field_uint("budget", p.budget as u64);
            w.field_uint("peak_emitters", p.peak_emitters as u64);
            w.field_uint("ee_cnots", p.ee_cnots as u64);
            w.field_fixed("duration", p.duration, 4);
            w.field_fixed("t_loss", p.t_loss, 4);
            w.field_fixed("mean_photon_loss", p.mean_photon_loss, 6);
            w.field_fixed("any_photon_loss", p.any_photon_loss, 6);
            w.field_str("strategy", &format!("{:?}", p.strategy));
            w.field_bool("pareto", p.pareto);
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    let doc = w.finish();

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = fs::create_dir_all(dir);
    }
    if let Err(e) = fs::write(&out_path, &doc) {
        eprintln!("cannot write report {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{}/{} instances select different strategies across presets",
        divergent_instances,
        instances.len()
    );
    println!("report written to {out_path}");
    ExitCode::SUCCESS
}
