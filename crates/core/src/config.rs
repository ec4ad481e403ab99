//! Framework configuration and its builder.

use epgs_hardware::{CompileObjective, HardwareModel};
use epgs_partition::{PartitionScheme, PartitionSpec};

/// The default emitter budget `Ne_limit` is this multiple of the target's
/// `Ne_min` (paper §V.B.2 uses `1.5 × Ne_min` and `2 × Ne_min`; other
/// budgets go through [`crate::Framework::compile_with_budget`] or
/// [`crate::Planned::schedule`]).
pub(crate) const BUDGET_FACTOR: f64 = 1.5;

/// The default emitter budget for a target: `⌈1.5 · Ne_min⌉`, at least 1.
pub(crate) fn default_budget(ne_min: usize) -> usize {
    ((ne_min as f64 * BUDGET_FACTOR).ceil() as usize).max(1)
}

/// Complete configuration of the compilation framework.
///
/// Recombination always runs every
/// [`RecombineStrategy`](crate::RecombineStrategy), the final circuit is
/// always verified, and [`crate::Framework::compile`] always schedules
/// under `⌈1.5 · Ne_min⌉` emitters; none of these is configurable.
///
/// Construct via [`FrameworkConfig::builder`] (or struct update off
/// [`FrameworkConfig::default`]):
///
/// ```
/// use epgs::FrameworkConfig;
///
/// let config = FrameworkConfig::builder()
///     .g_max(7)
///     .lc_budget(15)
///     .flexible_slack(2)
///     .build();
/// assert_eq!(config.partition.g_max, 7);
/// ```
#[derive(Debug, Clone)]
pub struct FrameworkConfig {
    /// Partitioning parameters (g_max, LC budget l, search effort).
    pub partition: PartitionSpec,
    /// Hardware timing/loss model: the one platform candidates are
    /// scheduled, scored and reported under.
    pub hardware: HardwareModel,
    /// What candidate circuits compete on — leaf-variant selection and
    /// recombination both minimize this, with every figure computed under
    /// [`FrameworkConfig::hardware`]. [`CompileObjective::Emitters`] (the
    /// default) reproduces the paper's lexicographic (#ee-CNOT, `T_loss`,
    /// duration) order exactly.
    pub objective: CompileObjective,
    /// Candidate emission orderings explored per subgraph.
    pub orderings_per_subgraph: usize,
    /// Flexible-resource slack: each subgraph is also compiled with
    /// `ne_min + 1 … ne_min + slack` emitters (paper §IV.B uses 2).
    pub flexible_slack: usize,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            partition: PartitionSpec::default(),
            hardware: HardwareModel::quantum_dot(),
            objective: CompileObjective::Emitters,
            orderings_per_subgraph: 8,
            flexible_slack: 2,
        }
    }
}

impl FrameworkConfig {
    /// Starts a builder from the paper-default configuration.
    pub fn builder() -> FrameworkConfigBuilder {
        FrameworkConfigBuilder {
            config: FrameworkConfig::default(),
        }
    }
}

/// Fluent builder for [`FrameworkConfig`]; every knob defaults to the
/// paper's setting.
#[derive(Debug, Clone)]
pub struct FrameworkConfigBuilder {
    config: FrameworkConfig,
}

impl FrameworkConfigBuilder {
    /// Maximum vertices per subgraph (paper default 7).
    pub fn g_max(mut self, g_max: usize) -> Self {
        self.config.partition.g_max = g_max;
        self
    }

    /// Local-complementation budget `l` (paper default 15; 0 disables LC).
    pub fn lc_budget(mut self, lc_budget: usize) -> Self {
        self.config.partition.lc_budget = lc_budget;
        self
    }

    /// Restart/iteration scale of the partition search.
    pub fn partition_effort(mut self, effort: usize) -> Self {
        self.config.partition.effort = effort;
        self
    }

    /// Partitioning engine: [`PartitionScheme::Flat`] reproduces the
    /// historical flat FM pipeline byte for byte;
    /// [`PartitionScheme::Multilevel`] (the default) coarsens large graphs
    /// before partitioning and is ~10–50× faster above ~50 vertices.
    pub fn partition_scheme(mut self, scheme: PartitionScheme) -> Self {
        self.config.partition.scheme = scheme;
        self
    }

    /// Replaces the whole partition spec at once.
    pub fn partition(mut self, spec: PartitionSpec) -> Self {
        self.config.partition = spec;
        self
    }

    /// Hardware timing/loss model.
    pub fn hardware(mut self, hardware: HardwareModel) -> Self {
        self.config.hardware = hardware;
        self
    }

    /// Compilation objective (see [`FrameworkConfig::objective`]).
    pub fn objective(mut self, objective: CompileObjective) -> Self {
        self.config.objective = objective;
        self
    }

    /// Candidate emission orderings explored per subgraph.
    pub fn orderings_per_subgraph(mut self, n: usize) -> Self {
        self.config.orderings_per_subgraph = n;
        self
    }

    /// Flexible-resource slack (paper §IV.B uses 2).
    pub fn flexible_slack(mut self, slack: usize) -> Self {
        self.config.flexible_slack = slack;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> FrameworkConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_resolution() {
        assert_eq!(default_budget(4), 6);
        assert_eq!(default_budget(3), 5);
        assert_eq!(default_budget(1), 2);
        assert_eq!(default_budget(0), 1, "clamped to 1");
    }

    #[test]
    fn default_matches_paper() {
        let c = FrameworkConfig::default();
        assert_eq!(c.partition.g_max, 7);
        assert_eq!(c.partition.lc_budget, 15);
        assert_eq!(c.flexible_slack, 2);
        assert_eq!(c.objective, CompileObjective::Emitters);
    }

    #[test]
    fn builder_defaults_equal_default_config() {
        let built = FrameworkConfig::builder().build();
        let default = FrameworkConfig::default();
        assert_eq!(built.partition, default.partition);
        assert_eq!(built.orderings_per_subgraph, default.orderings_per_subgraph);
        assert_eq!(built.flexible_slack, default.flexible_slack);
    }

    #[test]
    fn builder_sets_every_knob() {
        let c = FrameworkConfig::builder()
            .g_max(4)
            .lc_budget(2)
            .partition_effort(9)
            .partition_scheme(PartitionScheme::Flat)
            .orderings_per_subgraph(5)
            .flexible_slack(0)
            .hardware(HardwareModel::rydberg())
            .objective(CompileObjective::Duration)
            .build();
        assert_eq!(c.hardware, HardwareModel::rydberg());
        assert_eq!(c.objective, CompileObjective::Duration);
        assert_eq!(c.partition.g_max, 4);
        assert_eq!(c.partition.lc_budget, 2);
        assert_eq!(c.partition.effort, 9);
        assert_eq!(c.partition.scheme, PartitionScheme::Flat);
        assert_eq!(c.orderings_per_subgraph, 5);
        assert_eq!(c.flexible_slack, 0);
    }
}
