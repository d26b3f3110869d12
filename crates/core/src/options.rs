//! Configuration of the synthesis algorithm.

use std::time::Duration;

use crate::compat::InvariantTier;

/// Which LP backend to use for Step 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpBackend {
    /// Float-first, exact-repair driver (default): the `f64` revised simplex does the
    /// pivoting, an exact-rational certifier accepts or repairs the candidate basis.
    /// Every verdict carries an exact certificate at a fraction of exact-backend cost
    /// (the QSopt_ex-style precision-boosting scheme; see `dca_lp`'s `certify`
    /// module).
    Certified,
    /// Exact rational simplex from scratch (slowest; useful for cross-checking).
    Exact,
}

/// Options controlling the synthesis algorithm of Section 5.
///
/// The two numeric parameters correspond exactly to the paper's algorithm parameters:
/// `degree` is the maximal polynomial degree `d` of the potential / anti-potential
/// templates, and `max_products` is the parameter `K` bounding how many affine
/// expressions may be multiplied in `Prod_K(Aff)`.
///
/// The paper fixes `d = K` per benchmark; a solve runs at exactly the configured
/// degree:
///
/// ```
/// use dca_core::{AnalysisOptions, AnalyzedProgram, DiffCostSolver};
///
/// let source = |tick: u32| format!(
///     "proc f(n) {{ assume(n >= 1 && n <= 10); i = 0; while (i < n) {{ tick({tick}); i = i + 1; }} }}",
/// );
/// let old = AnalyzedProgram::from_source(&source(1)).unwrap();
/// let new = AnalyzedProgram::from_source(&source(3)).unwrap();
///
/// // The difference 2n is affine, so degree 1 already has a witness.
/// let result = DiffCostSolver::new(AnalysisOptions::with_degree(1)).solve(&new, &old).unwrap();
/// assert_eq!(result.threshold_int(), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Maximal degree `d` of the polynomial templates (the paper uses 2 for all
    /// benchmarks except `nested`, which needs 3).
    pub degree: u32,
    /// Maximal number of factors `K` in Handelman products (the paper uses `K = d`).
    pub max_products: u32,
    /// Whether the templates may mention the `cost` variable itself. The accumulated
    /// cost never helps to bound *future* cost, so excluding it (the default) shrinks the
    /// LP without affecting any of the paper's benchmarks.
    pub include_cost_in_template: bool,
    /// LP backend for Step 4.
    pub backend: LpBackend,
    /// Wall-clock budget for one solve (`None` = unlimited). When set, the LP solver
    /// polls a deadline and the solve fails with [`crate::AnalysisError::Timeout`]
    /// instead of stalling a batch run on a pathological instance.
    pub time_budget: Option<Duration>,
    /// The invariant engine's precision level. It has a single value and selects
    /// nothing; it stays for the benchmark harness (see [`InvariantTier`]).
    pub invariant_tier: InvariantTier,
    /// Whether the solver may apply loop-phase splitting (`dca_ir::split_phases`)
    /// and keep the better of the split and unsplit answers. On by default.
    pub phase_split: bool,
    /// Whether the certified backend generates degree-≥-2 Handelman product
    /// columns lazily (delayed column generation with exact pricing). On by
    /// default; off solves every column eagerly, with a bit-identical verdict. The
    /// `Exact` backend always solves eagerly.
    pub row_generation: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            degree: 2,
            max_products: 2,
            include_cost_in_template: false,
            backend: LpBackend::Certified,
            time_budget: None,
            invariant_tier: InvariantTier::Baseline,
            phase_split: true,
            row_generation: true,
        }
    }
}

impl AnalysisOptions {
    /// Options with a custom template degree (and `K = degree`).
    ///
    /// ```
    /// use dca_core::AnalysisOptions;
    /// let options = AnalysisOptions::with_degree(3);
    /// assert_eq!((options.degree, options.max_products), (3, 3));
    /// ```
    pub fn with_degree(degree: u32) -> AnalysisOptions {
        AnalysisOptions { degree, max_products: degree, ..AnalysisOptions::default() }
    }

    /// Switches to the exact rational LP backend.
    ///
    /// The exact backend is slower but free of floating-point tolerance effects, which
    /// makes it useful for cross-checking thresholds such as the paper's `99.94`:
    ///
    /// ```
    /// use dca_core::{AnalysisOptions, AnalyzedProgram, DiffCostSolver, LpBackend};
    ///
    /// let old = AnalyzedProgram::from_source(
    ///     "proc f(n) { assume(n >= 1 && n <= 10); i = 0; while (i < n) { tick(1); i = i + 1; } }",
    /// ).unwrap();
    /// let new = AnalyzedProgram::from_source(
    ///     "proc f(n) { assume(n >= 1 && n <= 10); i = 0; while (i < n) { tick(2); i = i + 1; } }",
    /// ).unwrap();
    ///
    /// let options = AnalysisOptions::with_degree(1).exact();
    /// assert_eq!(options.backend, LpBackend::Exact);
    /// let result = DiffCostSolver::new(options).solve(&new, &old).unwrap();
    /// // The exact optimum is exactly 10 — no floating-point undershoot.
    /// assert_eq!(result.threshold_int(), 10);
    /// ```
    pub fn exact(mut self) -> AnalysisOptions {
        self.backend = LpBackend::Exact;
        self
    }

    /// Sets the wall-clock budget for one solve.
    pub fn with_time_budget(mut self, budget: Duration) -> AnalysisOptions {
        self.time_budget = Some(budget);
        self
    }

    /// Enables or disables loop-phase splitting for this solve.
    ///
    /// ```
    /// use dca_core::AnalysisOptions;
    /// assert!(AnalysisOptions::default().phase_split);
    /// assert!(!AnalysisOptions::default().without_phase_split().phase_split);
    /// ```
    pub fn without_phase_split(mut self) -> AnalysisOptions {
        self.phase_split = false;
        self
    }

    /// Disables lazy row generation: every Handelman product column is solved
    /// eagerly.
    pub fn without_row_generation(mut self) -> AnalysisOptions {
        self.row_generation = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let options = AnalysisOptions::default();
        assert_eq!(options.degree, 2);
        assert_eq!(options.max_products, 2);
        assert!(!options.include_cost_in_template);
        assert_eq!(options.backend, LpBackend::Certified);
        assert!(options.phase_split);
        assert!(options.row_generation);
    }

    #[test]
    fn with_degree_sets_both_parameters() {
        let options = AnalysisOptions::with_degree(3);
        assert_eq!(options.degree, 3);
        assert_eq!(options.max_products, 3);
        assert_eq!(AnalysisOptions::default().exact().backend, LpBackend::Exact);
    }
}
