//! Time-reversed GraphState-to-Circuit solvers.
//!
//! The deterministic emitter-photonic scheme generates a photonic graph
//! state from interacting emitters. This crate hosts:
//!
//! * [`reverse`] — the tableau-based time-reversed engine (photon
//!   absorption, time-reversed measurement, emitter disentangling), the
//!   single source of truth for circuit generation;
//! * [`baseline`] — the GraphiQ-style comparison baseline (same protocol,
//!   minimal emitters, bounded restart search over orderings);
//! * [`ordering`] — emission-ordering strategies (natural, BFS, the paper's
//!   low-degree-first DFS, random / random-connected samplers);
//! * [`cost`] — height-function cost estimates used for search pruning.
//!
//! # Examples
//!
//! ```
//! use epgs_graph::generators;
//! use epgs_solver::reverse::{solve, SolveOptions};
//!
//! # fn main() -> Result<(), epgs_solver::SolverError> {
//! let target = generators::path(6);
//! let solved = solve(&target, &SolveOptions::default())?;
//! assert_eq!(solved.emitters, 1); // linear clusters need one emitter
//! assert_eq!(solved.circuit.ee_two_qubit_count(), 0);
//! # Ok(())
//! # }
//! ```

pub mod baseline;
pub mod cost;
pub mod error;
pub mod ordering;
pub mod reverse;

pub use baseline::{append_lc_inverse, solve_baseline, BaselineOptions};
pub use error::SolverError;
pub use reverse::{
    solve, solve_with_ordering, solve_with_ordering_in, SolveOptions, Solved, SolverWorkspace,
};
