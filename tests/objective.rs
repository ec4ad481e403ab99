//! Hardware-aware objective layer: bit-identity of the default, the pinned
//! duration-objective output, platform divergence, determinism, and the
//! loss figures flowing into reports.

use epgs::{BatchCompiler, BatchInstance, CompileObjective, Framework, FrameworkConfig};
use epgs_circuit::qasm::to_qasm;
use epgs_circuit::simulate::verify_circuit;
use epgs_corpus::{CorpusSpec, FamilyKind};
use epgs_graph::generators;
use epgs_hardware::HardwareModel;

/// The corpus-batch configuration (`epgs_bench::corpus_framework`).
fn corpus_config() -> FrameworkConfig {
    epgs_bench::corpus_framework().config().clone()
}

/// The corpus configuration compiled for `hw` under the duration
/// objective — the configuration `hardware_sweep` runs per preset.
fn duration_config(hw: HardwareModel) -> FrameworkConfig {
    FrameworkConfig {
        hardware: hw,
        objective: CompileObjective::Duration,
        ..corpus_config()
    }
}

/// The default-corpus instance `watts_strogatz-n10-s3` (see
/// `CorpusSpec::default_corpus`), a known strategy-divergence case.
fn divergent_instance() -> epgs_graph::Graph {
    let spec = CorpusSpec::default_corpus();
    let family = spec
        .families
        .iter()
        .find(|f| matches!(f.kind, FamilyKind::WattsStrogatz { .. }))
        .expect("default corpus has a Watts-Strogatz family");
    family.kind.build(10, family.seeds[0])
}

/// FNV-1a, 64 bit, over the QASM text.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn emitters_objective_is_bit_identical_to_default() {
    // The acceptance bar for the objective layer: making the historic
    // behavior an explicit objective must not change a single bit of it.
    let g = generators::lattice(3, 4);
    let implicit = Framework::new(corpus_config()).compile(&g).unwrap();
    let explicit = Framework::new(FrameworkConfig {
        objective: CompileObjective::Emitters,
        ..corpus_config()
    })
    .compile(&g)
    .unwrap();
    assert_eq!(implicit.circuit, explicit.circuit);
    assert_eq!(implicit.metrics, explicit.metrics);
    assert_eq!(implicit.strategy, explicit.strategy);
    assert_eq!(implicit.global_ordering, explicit.global_ordering);
    assert_eq!(explicit.objective, CompileObjective::Emitters);
}

#[test]
fn duration_objective_qasm_is_pinned_per_preset_and_budget() {
    // QASM digests of default-corpus instances compiled the way
    // `hardware_sweep` compiles them, at Ne_min and 2 × Ne_min. Recorded
    // while the duration objective still carried its own copy of the
    // hardware model (set equal to `config.hardware`), so they prove that
    // scoring under `config.hardware` alone selects the same circuits.
    #[rustfmt::skip]
    const PINS: [(&str, &str, usize, [u64; 2]); 8] = [
        ("random_regular-n16-s1", "quantum_dot", 5, [0xd8af34cccbf8e3db, 0x06dcd109366a8942]),
        ("random_regular-n16-s1", "rydberg", 5, [0x9815cea51ef54d10, 0x06dcd109366a8942]),
        ("heavy_hex-c3", "quantum_dot", 3, [0x7ab6838d1df3bc25, 0xff277d7b76e1655f]),
        ("heavy_hex-c3", "rydberg", 3, [0x7ab6838d1df3bc25, 0xdf8c04355d9ead13]),
        ("barabasi_albert-n16-s2", "quantum_dot", 5, [0xc242216e60fd5a71, 0x590f5fcde04ed971]),
        ("barabasi_albert-n16-s2", "rydberg", 5, [0xc242216e60fd5a71, 0x590f5fcde04ed971]),
        ("watts_strogatz-n10-s3", "quantum_dot", 3, [0xf51c0629d311752d, 0x7270120edcde610f]),
        ("watts_strogatz-n10-s3", "rydberg", 3, [0x0ebd3f8c26f6c0aa, 0x2968b0aa2e7c6d49]),
    ];
    let instances = CorpusSpec::default_corpus().instances();
    for (id, preset, ne_min, pins) in PINS {
        let inst = instances
            .iter()
            .find(|i| i.id == id)
            .unwrap_or_else(|| panic!("default corpus has {id}"));
        let hw = HardwareModel::by_name(preset).expect("known preset");
        let planned = epgs::Pipeline::new(duration_config(hw))
            .partition(&inst.graph)
            .plan_leaves()
            .unwrap();
        assert_eq!(planned.ne_min(), ne_min, "{id} under {preset}");
        for (budget, pin) in [ne_min, 2 * ne_min].into_iter().zip(pins) {
            let compiled = planned
                .schedule(budget)
                .recombine()
                .unwrap()
                .verify()
                .unwrap();
            assert_eq!(
                fnv1a64(to_qasm(&compiled.circuit).as_bytes()),
                pin,
                "{id} under {preset} at budget {budget}: QASM drifted from the pin"
            );
        }
    }
}

#[test]
fn presets_select_different_strategies_on_a_default_corpus_instance() {
    // Under the duration objective, the same target compiled for quantum
    // dots and for Rydberg superatoms picks different recombination
    // strategies at the same emitter budget — platform timing, not a
    // hard-coded tiebreak, decides. Both circuits still verify.
    let g = divergent_instance();
    let mut compiled = Vec::new();
    for hw in [HardwareModel::quantum_dot(), HardwareModel::rydberg()] {
        let c = Framework::new(duration_config(hw))
            .compile_with_budget(&g, 3)
            .unwrap();
        assert!(verify_circuit(&c.circuit, &g).unwrap());
        compiled.push(c);
    }
    assert_ne!(
        compiled[0].strategy, compiled[1].strategy,
        "presets must drive strategy selection apart on this instance"
    );
    // And the platform metrics differ measurably either way.
    assert!((compiled[0].metrics.duration - compiled[1].metrics.duration).abs() > 0.1);
}

#[test]
fn objective_strategy_selection_is_deterministic() {
    let g = divergent_instance();
    for config in [
        corpus_config(),
        duration_config(HardwareModel::rydberg()),
        duration_config(HardwareModel::nv_center()),
    ] {
        let objective = config.objective;
        let fw = Framework::new(config);
        let a = fw.compile(&g).unwrap();
        let b = fw.compile(&g).unwrap();
        assert_eq!(a.circuit, b.circuit, "{}", objective.kind_name());
        assert_eq!(a.strategy, b.strategy, "{}", objective.kind_name());
        assert_eq!(a.objective, objective);
        assert!(verify_circuit(&a.circuit, &g).unwrap());
    }
}

#[test]
fn batch_reports_carry_hardware_objective_and_loss_figures() {
    let batch = BatchCompiler::new(duration_config(HardwareModel::nv_center()));
    let report = batch.run(&[
        BatchInstance::new("l33", "lattice", generators::lattice(3, 3)),
        BatchInstance::new("t9", "tree", generators::tree(9, 2)),
    ]);
    assert_eq!(report.succeeded, 2);
    assert_eq!(report.hardware, "NV color center");
    assert_eq!(report.objective, "duration");
    for inst in &report.instances {
        let m = inst.metrics.as_ref().expect("succeeded");
        assert!(m.mean_photon_loss >= 0.0 && m.mean_photon_loss < 1.0);
        assert!(m.any_photon_loss >= m.mean_photon_loss - 1e-12);
        assert!(m.t_loss >= 0.0);
    }
    let json = report.to_json();
    assert!(json.contains("\"hardware\":\"NV color center\""));
    assert!(json.contains("\"objective\":\"duration\""));
    assert!(json.contains("\"mean_photon_loss\":"));
    assert!(json.contains("\"any_photon_loss\":"));
    assert!(json.contains("\"t_loss\":"));
}

#[test]
fn distinct_objectives_cache_apart_in_the_batch_engine() {
    // The artifact cache must never serve a plan selected under one
    // objective, or for one platform, to a run with another.
    let base = corpus_config();
    let a = epgs::config_fingerprint(&base);
    let b = epgs::config_fingerprint(&duration_config(base.hardware.clone()));
    let c = epgs::config_fingerprint(&duration_config(HardwareModel::rydberg()));
    let d = epgs::config_fingerprint(&FrameworkConfig {
        hardware: HardwareModel::rydberg(),
        ..base
    });
    assert_ne!(a, b, "same hardware, different kind");
    assert_ne!(b, c, "same kind, different hardware");
    assert_ne!(a, d, "default kind, different hardware");
}

#[test]
fn compiled_loss_report_matches_metrics() {
    let c = Framework::new(corpus_config())
        .compile(&generators::tree(10, 2))
        .unwrap();
    let report = c.loss_report();
    assert_eq!(report, &c.metrics.loss);
    assert_eq!(report.exposures.len(), 10, "one exposure per photon");
    assert!((report.mean_exposure - c.metrics.t_loss).abs() < 1e-12);
}
