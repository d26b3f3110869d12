//! # diffcost
//!
//! A reproduction of *“Differential Cost Analysis with Simultaneous Potentials and
//! Anti-potentials”* (Žikelić, Chang, Bolignano, Raimondi — PLDI 2022).
//!
//! Given two program versions over the same inputs, the analysis synthesizes — in a
//! single linear program — a polynomial *potential function* bounding the new version's
//! cost from above, an *anti-potential function* bounding the old version's cost from
//! below, and a minimized *threshold* `t` proving
//! `cost_new − cost_old ≤ t` for every input.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`lang`] — the imperative mini-language frontend (`assume`, `tick`, `nondet`, loops),
//! * [`ir`] — the transition-system program model, interpreter and cost explorer,
//! * [`invariants`] — affine invariant generation (polyhedra-lite abstract interpretation),
//! * [`lp`] — the two-phase simplex solver (`f64` and exact rational backends),
//! * [`handelman`] — Handelman-certificate constraint encoding,
//! * [`core`] — the DiffCost solver itself (thresholds, symbolic bounds, refutation,
//!   single-program precision, witness verification),
//! * [`benchmarks`] — the 19 Table-1 program pairs and the Fig. 1 running example,
//! * [`poly`] / [`numeric`] — polynomial and exact arithmetic substrates.
//!
//! # Quick start
//!
//! ```
//! use diffcost::prelude::*;
//!
//! let old = AnalyzedProgram::from_source(
//!     "proc f(n) { assume(n >= 1 && n <= 100); i = 0; while (i < n) { tick(1); i = i + 1; } }",
//! ).unwrap();
//! let new = AnalyzedProgram::from_source(
//!     "proc f(n) { assume(n >= 1 && n <= 100); i = 0; while (i < n) { tick(2); i = i + 1; } }",
//! ).unwrap();
//! let result = DiffCostSolver::default().solve(&new, &old).unwrap();
//! assert_eq!(result.threshold_int(), 100);
//! ```

pub use dca_benchmarks as benchmarks;
pub use dca_core as core;
pub use dca_handelman as handelman;
pub use dca_invariants as invariants;
pub use dca_ir as ir;
pub use dca_lang as lang;
pub use dca_lp as lp;
pub use dca_numeric as numeric;
pub use dca_poly as poly;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use dca_core::{
        AnalysisError, AnalysisOptions, AnalyzedProgram, DiffCostResult, DiffCostSolver,
        PotentialFunction,
    };
    pub use dca_lang::{compile, parse_program};
    pub use dca_numeric::Rational;
}
