//! Differential cost analysis with simultaneous potentials and anti-potentials.
//!
//! This crate implements the primary contribution of the paper (Sections 4, 5 and 7):
//! given two terminating programs `T_new` and `T_old` over the same inputs `Θ0`, it
//! simultaneously synthesizes
//!
//! * a polynomial **potential function** `φ_new` — an upper bound on the cost incurred by
//!   the new program,
//! * a polynomial **anti-potential function** `χ_old` — a lower bound on the cost incurred
//!   by the old program, and
//! * a **threshold** `t` with `φ_new(ℓ0, x) − χ_old(ℓ0, x) ≤ t` for every input `x ∈ Θ0`,
//!
//! which together prove the differential bound `CostSup_new(x) − CostInf_old(x) ≤ t`
//! (Theorem 4.2). The synthesis reduces to a single linear program via Handelman's
//! theorem and minimizes `t`.
//!
//! The crate also provides the three corollary analyses described in the paper:
//! refutation of a candidate threshold (Theorem 4.3), proving a *symbolic* polynomial
//! bound on the cost difference (Section 5), and single-program upper/lower bounds with a
//! precision guarantee (Section 7). A sampling-based [`verify`] module replays concrete
//! executions to validate every produced witness.
//!
//! # Quick start
//!
//! ```
//! use dca_core::{AnalysisOptions, AnalyzedProgram, DiffCostSolver};
//!
//! let old = AnalyzedProgram::from_source(r#"
//!     proc count(n) {
//!         assume(n >= 1 && n <= 100);
//!         i = 0;
//!         while (i < n) { tick(1); i = i + 1; }
//!     }
//! "#).unwrap();
//! let new = AnalyzedProgram::from_source(r#"
//!     proc count(n) {
//!         assume(n >= 1 && n <= 100);
//!         i = 0;
//!         while (i < n) { tick(2); i = i + 1; }
//!     }
//! "#).unwrap();
//!
//! let solver = DiffCostSolver::new(AnalysisOptions::default());
//! let result = solver.solve(&new, &old).unwrap();
//! // The new version costs at most 100 more than the old one (tick 2 vs 1, n <= 100).
//! assert_eq!(result.threshold_int(), 100);
//! ```

#![deny(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod cache;
mod compat;
mod constraints;
mod options;
mod potential;
mod program;
mod solver;
pub mod verify;

pub use batch::{run_batch, BatchConfig, BatchJob, BatchReport, PairOutcome};
pub use cache::{CachedSolve, CompiledProgram, NearMatch, ProgramCache, SolveCache};
pub use compat::InvariantTier;
pub use constraints::{
    collect_program_constraints, CollectOutcome, ConstraintSet, ProgramTemplates, TemplateRole,
};
pub use dca_lp::{Deadline, LpBasis, SolvePhase};
pub use options::{AnalysisOptions, LpBackend};
pub use potential::PotentialFunction;
pub use program::AnalyzedProgram;
pub use solver::{
    AnalysisError, DiffCostResult, DiffCostSolver, PrecisionResult, RefutationResult,
    SolveOutcome, SolveProgress, SolveStats, SymbolicBoundResult,
};
