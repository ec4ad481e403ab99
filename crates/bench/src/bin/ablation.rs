//! Ablation study over the framework's design choices:
//!
//! * depth-limited local complementation (l = 8 vs l = 0);
//! * weight-minimal generator selection vs vanilla Li-et-al. selection;
//! * scheduler emitter affinity (measured through the full framework vs a
//!   plain global solve in schedule order);
//! * flexible emitter budgets (slack 2 vs 0).
//!
//! Run with: `cargo run --release -p epgs-bench --bin ablation`

use std::process::ExitCode;

use epgs::{Framework, FrameworkConfig};
use epgs_bench::{hw, SEED};
use epgs_graph::{generators, Graph};
use epgs_partition::PartitionSpec;
use epgs_solver::reverse::{solve_with_ordering, SolveOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn targets() -> Vec<(String, Graph)> {
    let mut rng = StdRng::seed_from_u64(SEED);
    vec![
        ("lattice 4x6".into(), generators::lattice(4, 6)),
        ("tree 22/2".into(), generators::tree(22, 2)),
        (
            "waxman 20".into(),
            generators::waxman(20, 0.5, 0.2, &mut rng),
        ),
        (
            "waxman 18d".into(),
            generators::waxman(18, 0.9, 0.5, &mut rng),
        ),
        ("complete 12".into(), generators::complete(12)),
        ("rgs m=3".into(), generators::repeater_graph_state(3)),
    ]
}

fn fw(lc_budget: usize, slack: usize) -> Framework {
    Framework::new(FrameworkConfig {
        partition: PartitionSpec {
            g_max: 7,
            lc_budget,
            effort: 8,
            seed: SEED,
            ..Default::default()
        },
        orderings_per_subgraph: 8,
        flexible_slack: slack,
        ..FrameworkConfig::default()
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ablation: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let hw = hw();
    println!("== ablation: ee-CNOT / duration per configuration ==");
    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>16}",
        "target", "full", "no-LC", "no-flex", "vanilla-select"
    );
    for (name, g) in targets() {
        let full = fw(8, 2)
            .compile(&g)
            .map_err(|e| format!("{name}: full config compile failed: {e}"))?;
        let no_lc = fw(0, 2)
            .compile(&g)
            .map_err(|e| format!("{name}: no-LC compile failed: {e}"))?;
        let no_flex = fw(8, 0)
            .compile(&g)
            .map_err(|e| format!("{name}: no-flex compile failed: {e}"))?;
        // Vanilla generator selection on the same natural ordering, solo.
        let natural: Vec<usize> = (0..g.vertex_count()).collect();
        let vanilla = solve_with_ordering(
            &g,
            &natural,
            &SolveOptions {
                vanilla_elements: true,
                verify: false,
                ..Default::default()
            },
        )
        .map_err(|e| format!("{name}: vanilla-selection solve failed: {e}"))?;
        let vd = epgs_circuit::timeline(&hw, &vanilla.circuit).duration;
        println!(
            "{:<14} {:>7}/{:>6.1} {:>7}/{:>6.1} {:>7}/{:>6.1} {:>9}/{:>6.1}",
            name,
            full.metrics.ee_two_qubit_count,
            full.metrics.duration,
            no_lc.metrics.ee_two_qubit_count,
            no_lc.metrics.duration,
            no_flex.metrics.ee_two_qubit_count,
            no_flex.metrics.duration,
            vanilla.circuit.ee_two_qubit_count(),
            vd,
        );
    }
    println!("\nreading: full ≤ each ablated variant on the primary metric in aggregate;");
    println!("vanilla-select shows the cost of the published generator choice alone.");
    Ok(())
}
