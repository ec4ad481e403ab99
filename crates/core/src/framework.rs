//! The monolithic front-end over the staged pipeline (paper Fig. 6).
//!
//! `partition → compile each leaf → schedule → recombine → verify`: the
//! stages live in [`crate::stages`] as explicit artifacts; [`Framework`] is
//! the one-shot wrapper that runs them end to end. Use [`crate::Pipeline`]
//! directly when intermediate artifacts are worth keeping (budget sweeps,
//! schedule inspection, recombination experiments) — both produce identical
//! circuits for identical inputs.

use epgs_circuit::{Circuit, CircuitMetrics};
use epgs_graph::Graph;
use epgs_hardware::{CompileObjective, LossReport};
use epgs_partition::Partition;

use crate::config::FrameworkConfig;
use crate::error::FrameworkError;
use crate::schedule::Schedule;
use crate::stages::{ne_min_of, Pipeline, RecombineStrategy};
use crate::subgraph::SubgraphPlan;

/// The framework front-end.
///
/// # Examples
///
/// ```
/// use epgs::{Framework, FrameworkConfig};
/// use epgs_graph::generators;
///
/// # fn main() -> Result<(), epgs::FrameworkError> {
/// let fw = Framework::new(FrameworkConfig::default());
/// let compiled = fw.compile(&generators::lattice(3, 3))?;
/// assert!(compiled.metrics.duration > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Framework {
    config: FrameworkConfig,
}

/// Everything the framework produces for one target graph state.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The verified generation circuit for the *original* target.
    pub circuit: Circuit,
    /// Evaluation metrics of `circuit`.
    pub metrics: CircuitMetrics,
    /// The partition (with LC sequence) that was used.
    pub partition: Partition,
    /// Per-subgraph compilation plans, aligned with `partition.blocks()`.
    pub plans: Vec<SubgraphPlan>,
    /// The Tetris schedule of the subgraph circuits.
    pub schedule: Schedule,
    /// The interleaved global emission ordering (transformed-graph vertices).
    pub global_ordering: Vec<usize>,
    /// Emitter budget Ne_limit that was resolved for this target.
    pub ne_limit: usize,
    /// Minimal emitter count Ne_min of the target (best known ordering).
    pub ne_min: usize,
    /// The recombination strategy whose candidate won.
    pub strategy: RecombineStrategy,
    /// The objective candidate circuits competed under.
    pub objective: CompileObjective,
}

impl Compiled {
    /// Per-photon and aggregate loss figures of the chosen circuit under
    /// the configured hardware model (shorthand for `metrics.loss`).
    pub fn loss_report(&self) -> &LossReport {
        &self.metrics.loss
    }
}

impl Framework {
    /// Creates a framework with the given configuration.
    pub fn new(config: FrameworkConfig) -> Self {
        Framework { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &FrameworkConfig {
        &self.config
    }

    /// A staged [`Pipeline`] over this framework's configuration.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::new(self.config.clone())
    }

    /// Minimal emitter count of `g` over the deterministic ordering
    /// strategies — the paper's Ne_min reference point.
    pub fn ne_min(&self, g: &Graph) -> usize {
        ne_min_of(g)
    }

    /// Compiles `target` end to end: a thin wrapper over
    /// [`Pipeline::compile`] producing identical output.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::Solver`] if any solve fails, or
    /// [`FrameworkError::VerificationFailed`] if the final circuit does not
    /// regenerate `target` (an internal bug).
    pub fn compile(&self, target: &Graph) -> Result<Compiled, FrameworkError> {
        self.pipeline().compile(target)
    }

    /// Compiles with a specific emitter budget in place of the default
    /// `⌈1.5 · Ne_min⌉` (used by the Ne_limit sweeps of the evaluation).
    ///
    /// For a multi-point sweep prefer [`Framework::sweep`] (or a hand-held
    /// [`Pipeline`]), which runs partition and leaf compilation once.
    ///
    /// # Errors
    ///
    /// See [`Framework::compile`].
    pub fn compile_with_budget(
        &self,
        target: &Graph,
        ne_limit: usize,
    ) -> Result<Compiled, FrameworkError> {
        self.pipeline()
            .partition(target)
            .plan_leaves()?
            .schedule(ne_limit)
            .recombine()?
            .verify()
    }

    /// Compiles `target` once per budget, sharing one partition + leaf
    /// compilation across all points (the §V.B.2 sweep fast path).
    ///
    /// # Errors
    ///
    /// See [`Framework::compile`].
    pub fn sweep(
        &self,
        target: &Graph,
        budgets: &[usize],
    ) -> Result<Vec<Compiled>, FrameworkError> {
        self.pipeline().sweep(target, budgets)
    }
}

/// Convenience: compile `target` with the default configuration.
///
/// # Errors
///
/// See [`Framework::compile`].
pub fn compile(target: &Graph) -> Result<Compiled, FrameworkError> {
    Framework::default().compile(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_graph::generators;

    fn quick_config() -> FrameworkConfig {
        FrameworkConfig {
            partition: epgs_partition::PartitionSpec {
                g_max: 5,
                lc_budget: 3,
                effort: 4,
                seed: 1,
                ..Default::default()
            },
            orderings_per_subgraph: 4,
            flexible_slack: 1,
            ..FrameworkConfig::default()
        }
    }

    #[test]
    fn compiles_and_verifies_lattice() {
        let fw = Framework::new(quick_config());
        let g = generators::lattice(3, 3);
        let c = fw.compile(&g).expect("lattice compiles");
        assert_eq!(c.circuit.emission_count(), 9);
        assert!(c.metrics.duration > 0.0);
        assert!(c.ne_limit >= c.ne_min);
    }

    #[test]
    fn compiles_and_verifies_tree() {
        let fw = Framework::new(quick_config());
        let g = generators::tree(10, 2);
        let c = fw.compile(&g).expect("tree compiles");
        assert_eq!(c.global_ordering.len(), 10);
    }

    #[test]
    fn compiles_waxman() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let g = generators::waxman(12, 0.5, 0.2, &mut rng);
        let fw = Framework::new(quick_config());
        let c = fw.compile(&g).expect("waxman compiles");
        assert!(c.metrics.emissions == 12);
    }

    #[test]
    fn lc_inverse_roundtrip_via_verification() {
        // A complete graph forces the partitioner to use LC; verification
        // inside compile() then proves append_lc_inverse is correct.
        let fw = Framework::new(FrameworkConfig {
            partition: epgs_partition::PartitionSpec {
                g_max: 3,
                lc_budget: 5,
                effort: 6,
                seed: 2,
                ..Default::default()
            },
            ..quick_config()
        });
        let g = generators::complete(6);
        let c = fw.compile(&g).expect("K6 compiles");
        assert!(
            !c.partition.lc_sequence.is_empty(),
            "K6 partition should use LC"
        );
    }

    #[test]
    fn budget_override_changes_pool() {
        let fw = Framework::new(quick_config());
        let g = generators::lattice(3, 4);
        let a = fw.compile_with_budget(&g, 3).unwrap();
        let b = fw.compile_with_budget(&g, 6).unwrap();
        assert_eq!(a.ne_limit, 3);
        assert_eq!(b.ne_limit, 6);
        // More emitters must not hurt the makespan estimate.
        assert!(b.schedule.makespan <= a.schedule.makespan + 1e-9);
    }

    #[test]
    fn sweep_equals_pointwise_budget_compiles() {
        let fw = Framework::new(quick_config());
        let g = generators::lattice(3, 4);
        let swept = fw.sweep(&g, &[3, 6]).unwrap();
        for (compiled, budget) in swept.iter().zip([3usize, 6]) {
            let pointwise = fw.compile_with_budget(&g, budget).unwrap();
            assert_eq!(compiled.circuit, pointwise.circuit, "budget {budget}");
            assert_eq!(compiled.ne_limit, pointwise.ne_limit);
        }
    }

    #[test]
    fn single_block_graph_skips_stem() {
        // Fits one block: no cut, no LC required.
        let fw = Framework::new(quick_config());
        let g = generators::path(5);
        let c = fw.compile(&g).unwrap();
        assert_eq!(c.partition.cut, 0);
        assert_eq!(c.metrics.ee_two_qubit_count, 0, "path in one block");
    }

    #[test]
    fn default_compile_helper() {
        let c = compile(&generators::path(4)).unwrap();
        assert_eq!(c.circuit.emission_count(), 4);
    }
}
