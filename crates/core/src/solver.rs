//! The DiffCost solver: LP assembly, threshold minimization, and the corollary analyses.

use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

use dca_handelman::{encode_nonnegativity, ConstraintSense, UnknownConstraint, UnknownFactory, UnknownKind};
use dca_ir::{IntValuation, TransitionSystem};
use dca_lp::fault::{self, FaultKind};
use dca_lp::{ConstraintOp, Deadline, LpBasis, LpProblem, LpStatus, LpVar, SolvePhase, VarKind};
use dca_numeric::Rational;
use dca_poly::{LinExpr, LinForm, Polynomial, TemplatePolynomial, UnknownId, VarId};

use crate::constraints::{
    collect_program_constraints, remap_linexpr_vars, remap_template_vars, CollectOutcome,
    ConstraintSet, ProgramTemplates, TemplateRole,
};
use crate::options::{AnalysisOptions, LpBackend};
use crate::potential::PotentialFunction;
use crate::program::AnalyzedProgram;
use crate::verify::{bound_var, satisfies_theta0};

/// Errors produced by the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The LP is infeasible: no polynomial PF/anti-PF pair of the chosen degree witnesses
    /// a threshold (the paper reports this as ✗).
    NoThresholdFound,
    /// The LP is unbounded (should not happen for well-formed inputs with bounded Θ0).
    Unbounded,
    /// The simplex hit its iteration limit.
    IterationLimit,
    /// The candidate threshold could not be refuted with the given inputs.
    RefutationFailed,
    /// A program handed to the batch engine or the serve daemon as source text failed
    /// to compile; carries the compiler's message.
    InvalidProgram(String),
    /// The wall-clock budget ran out — or the deadline was cancelled — before any
    /// sound answer existed. The budget is [`AnalysisOptions::time_budget`], one
    /// budget for the whole [`DiffCostSolver::solve`] (the phase split and its
    /// invariants, the encoding and the one LP), tightened by any [`Deadline`]
    /// attached with [`DiffCostSolver::with_deadline`] (the serve daemon's request
    /// budget and shutdown). A cancellation is a daemon shutdown or an injected `deadline`
    /// fault; a compile-phase one reports [`SolvePhase::Compile`].
    Timeout {
        /// The pipeline phase that was running when the budget ran out.
        phase: SolvePhase,
    },
    /// A compile or a solve panicked and [`crate::batch::contained`] caught it at
    /// the job or request boundary — in a batch worker or in the serve daemon alike
    /// — so no other pair or request is affected.
    Panicked {
        /// The phase the panicking thread had most recently entered (the crash site).
        phase: SolvePhase,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl AnalysisError {
    /// The pipeline phase this error is attributed to, when it carries one. Timeouts
    /// and contained panics name their phase; analysis *verdicts* such as
    /// [`AnalysisError::NoThresholdFound`] are answers about the problem, not
    /// failures of a phase, and return `None`.
    pub fn phase(&self) -> Option<SolvePhase> {
        match self {
            AnalysisError::Timeout { phase } | AnalysisError::Panicked { phase, .. } => {
                Some(*phase)
            }
            _ => None,
        }
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::NoThresholdFound => {
                write!(f, "no threshold of the chosen template degree could be synthesized")
            }
            AnalysisError::Unbounded => write!(f, "the synthesis LP is unbounded"),
            AnalysisError::IterationLimit => write!(f, "the LP solver hit its iteration limit"),
            AnalysisError::RefutationFailed => {
                write!(f, "the candidate threshold could not be refuted on the tried inputs")
            }
            AnalysisError::InvalidProgram(message) => {
                write!(f, "the program failed to compile: {message}")
            }
            AnalysisError::Timeout { phase } => {
                write!(f, "the solve exceeded its wall-clock budget during {phase}")
            }
            AnalysisError::Panicked { phase, message } => {
                write!(f, "the solve panicked during {phase}: {message}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Size and timing statistics of one solver invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Number of LP variables (template coefficients, threshold, multipliers).
    pub lp_variables: usize,
    /// Number of LP constraints actually solved (after row deduplication).
    pub lp_constraints: usize,
    /// Number of constraint rows the Handelman encoding emitted before duplicate and
    /// trivially-satisfied rows were removed.
    pub lp_constraints_raw: usize,
    /// Simplex iterations of the final LP solve across both backends;
    /// `lp_float_iterations + lp_exact_iterations` under the float-first driver.
    pub lp_iterations: usize,
    /// Pivots performed by the `f64` phase of the float-first driver.
    pub lp_float_iterations: usize,
    /// Pivots performed by the exact rational simplex (repair + fallback).
    pub lp_exact_iterations: usize,
    /// `true` when the LP deadline expired during phase 2 and the reported threshold
    /// is the last feasible iterate — a *sound but possibly loose* upper bound
    /// rather than a proven optimum (anytime semantics).
    pub lp_truncated: bool,
    /// An exact lower bound on the true LP optimum, recovered from a dual-feasible
    /// basis seen during certification (weak duality). Only populated for truncated
    /// solves, where the reported threshold is an *upper* bound: together they
    /// bracket the unreachable optimum and their difference is the anytime gap.
    pub lp_dual_bound: Option<f64>,
    /// `true` when the reported LP answer carries an exact-rational certificate
    /// (always, under both backends; recorded for the audit trail).
    pub lp_certified: bool,
    /// Certification rounds the float-first driver performed.
    pub lp_certify_rounds: usize,
    /// Always zero: the LP solves its standard form without a presolve pass. Kept
    /// because the `diffbench` harness reads it as its `lp.presolve_s` layer.
    pub lp_presolve_time: Duration,
    /// Wall-clock the LP spent pivoting in `f64`.
    pub lp_float_time: Duration,
    /// Wall-clock the LP spent in exact basis certification.
    pub lp_certify_time: Duration,
    /// Wall-clock the LP spent in exact repair pivoting.
    pub lp_repair_time: Duration,
    /// Wall-clock the LP spent building its sparse standard form, plus the
    /// row-generation core's column gather.
    pub lp_build_time: Duration,
    /// Transitions skipped before encoding because their premise `I(ℓ) ∧ G` is
    /// infeasible (vacuous implications; pruning is sound and keeps
    /// contradictory-premise Handelman products away from the simplex).
    pub transitions_pruned: usize,
    /// Loop-phase splits the solver applied across both program sides (see
    /// `dca_ir::split_phases`). When non-zero, the one LP was over the split
    /// system(s) instead of the inputs, and
    /// [`DiffCostResult::split_systems`] carries them; when zero — no split
    /// detected, or splitting disabled via [`crate::AnalysisOptions::phase_split`]
    /// — the LP was over the input programs.
    pub phases_split: usize,
    /// `f64` LP solves made by the invariant analyses this solve consumed: both
    /// input programs plus every phase-split system it analyzed (see
    /// `dca_invariants::InvariantMap::lp_queries`). Deterministic.
    pub invariant_lp_queries: usize,
    /// Lazy row-generation candidate columns (degree-≥-2 Handelman multipliers).
    /// 0 when row generation did not run.
    pub lp_products_total: usize,
    /// Lazy candidate columns present in the final solve: those a warm start
    /// named when the core sufficed, all of them (`lp_products_total`) when the
    /// full stage ran. 0 when row generation did not run.
    pub lp_products_generated: usize,
    /// Row-generation stages: 1 = the core priced out, 2 = one exact pass over
    /// the full column set followed; 0 = eager.
    pub lp_separation_rounds: usize,
    /// Exact simplex pivots absorbed as incremental rank-1 eta updates of the
    /// rational LU factorization.
    pub lp_lu_updates: usize,
    /// Full Markowitz refactorizations the exact simplex performed mid-run
    /// (growth-triggered rebuilds; warm-start builds are not counted).
    pub lp_lu_refactorizations: usize,
    /// Wall-clock time spent constructing and solving the LP.
    pub duration: Duration,
}

/// The result of the main differential cost analysis.
#[derive(Debug, Clone)]
pub struct DiffCostResult {
    /// The synthesized threshold `t` (real-valued, as produced by the LP).
    pub threshold: f64,
    /// The potential function for the new program.
    pub potential_new: PotentialFunction,
    /// The anti-potential function for the old program.
    pub anti_potential_old: PotentialFunction,
    /// The `(new, old)` transition systems the witnesses are keyed over, when they
    /// differ from the input programs — `Some` exactly when a phase split fired
    /// ([`SolveStats::phases_split`] `> 0`; a side without a split is its input
    /// system). The split pass renames and adds locations, so
    /// [`potential_new`](DiffCostResult::potential_new) and
    /// [`anti_potential_old`](DiffCostResult::anti_potential_old) must be rendered
    /// and evaluated against these systems, not the inputs. `None` when no split
    /// fired (the common case): the witnesses are keyed over the input systems
    /// themselves.
    pub split_systems: Option<Box<(TransitionSystem, TransitionSystem)>>,
    /// Solve statistics.
    pub stats: SolveStats,
}

/// The degradation ladder: the best *sound* answer a solve produced, in decreasing
/// order of strength. The pipeline resolves every solve to exactly one of these —
/// and never degrades past soundness: a threshold is either the proven optimum
/// ([`Certified`](SolveOutcome::Certified)), an explicitly-marked anytime upper
/// bound ([`TruncatedAnytime`](SolveOutcome::TruncatedAnytime)), or absent
/// ([`Aborted`](SolveOutcome::Aborted)). A wrong threshold is never an allowed
/// degradation.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveOutcome {
    /// The LP solved to proven optimality within budget: the threshold carries an
    /// exact-rational certificate ([`SolveStats::lp_certified`]).
    Certified {
        /// The optimal threshold.
        threshold: f64,
    },
    /// The deadline expired with a feasible iterate in hand: the reported threshold
    /// is a *sound but possibly loose* upper bound (anytime semantics), never
    /// presented as the optimum.
    TruncatedAnytime {
        /// The sound upper bound (the last feasible iterate's objective).
        upper: f64,
        /// An exact lower bound on the unreachable optimum, recovered from a
        /// dual-feasible basis during certification, when one was seen.
        lower: Option<f64>,
        /// `upper − lower` when both ends of the bracket are known.
        gap: Option<f64>,
    },
    /// No sound answer: the budget ran out before any feasible iterate, the solve
    /// panicked (and was contained), or the analysis failed outright.
    Aborted {
        /// The phase the abort is attributed to — populated for timeouts and
        /// contained panics, `None` for analysis verdicts (e.g. "no witness of this
        /// degree exists").
        phase: Option<SolvePhase>,
        /// Human-readable reason (the underlying error's display form).
        reason: String,
    },
}

impl SolveOutcome {
    /// The stable machine-readable tag (`"certified"`, `"truncated"`, `"aborted"`)
    /// used in benchmark JSON rows and history lines.
    pub fn label(&self) -> &'static str {
        match self {
            SolveOutcome::Certified { .. } => "certified",
            SolveOutcome::TruncatedAnytime { .. } => "truncated",
            SolveOutcome::Aborted { .. } => "aborted",
        }
    }

    /// `true` for [`SolveOutcome::Certified`].
    pub fn is_certified(&self) -> bool {
        matches!(self, SolveOutcome::Certified { .. })
    }

    /// The phase an [`SolveOutcome::Aborted`] outcome is attributed to.
    pub fn aborted_phase(&self) -> Option<SolvePhase> {
        match self {
            SolveOutcome::Aborted { phase, .. } => *phase,
            _ => None,
        }
    }

    /// The anytime gap of a [`SolveOutcome::TruncatedAnytime`] outcome.
    pub fn gap(&self) -> Option<f64> {
        match self {
            SolveOutcome::TruncatedAnytime { gap, .. } => *gap,
            _ => None,
        }
    }
}

impl DiffCostResult {
    /// Where this result sits on the degradation ladder: `Certified` when the LP ran
    /// to proven optimality, `TruncatedAnytime` when the deadline cut it short and
    /// the threshold is the last feasible iterate (with the exact dual lower bound
    /// bracketing the optimum, when one was recovered). A `DiffCostResult` always
    /// carries a sound threshold, so `Aborted` never arises here — errors abort the
    /// solve before a result exists (see `PairOutcome::outcome` in the batch engine).
    pub fn outcome(&self) -> SolveOutcome {
        if self.stats.lp_truncated {
            // The dual bound travels as an f64 rounded from an exact rational; on a
            // near-closed bracket that rounding can land *above* the truncated upper
            // vertex, and reporting the resulting negative gap would read as "better
            // than proven optimal". Clamp the bracket to the sound side: the upper
            // bound is the trusted end (a feasible iterate), so the lower bound
            // saturates at it and the gap at 0.
            let lower = self.stats.lp_dual_bound.map(|lower| lower.min(self.threshold));
            SolveOutcome::TruncatedAnytime {
                upper: self.threshold,
                lower,
                gap: lower.map(|lower| (self.threshold - lower).max(0.0)),
            }
        } else {
            SolveOutcome::Certified { threshold: self.threshold }
        }
    }

    /// The threshold rounded down to an integer.
    ///
    /// Costs are integer-valued, so any real threshold `t` implies the integer threshold
    /// `⌊t⌋`; this mirrors the paper's observation that computed bounds such as `99.94`
    /// are tight for integer costs.
    pub fn threshold_int(&self) -> i64 {
        // The floating-point LP can undershoot the true optimum by a small tolerance
        // (e.g. report -1.6e-5 where the exact optimum is 0); the slack added here is an
        // order of magnitude above that tolerance and well below 1, so integer-valued
        // costs keep a sound integer threshold.
        (self.threshold + 1e-4).floor() as i64
    }
}

/// The result of proving a symbolic polynomial bound (Section 5, final paragraph).
#[derive(Debug, Clone)]
pub struct SymbolicBoundResult {
    /// The potential function for the new program.
    pub potential_new: PotentialFunction,
    /// The anti-potential function for the old program.
    pub anti_potential_old: PotentialFunction,
    /// Solve statistics.
    pub stats: SolveStats,
}

/// An observer of a running threshold solve, called with `(upper, lower)` whenever
/// the certified LP reports (see [`dca_lp::LpProgress`]): `upper` is the threshold a
/// truncated answer would report at that point, `lower` a sound lower bound (at
/// most `upper`) when the LP holds one.
pub type SolveProgress<'a> = dyn FnMut(f64, Option<f64>) + 'a;

/// The result of refuting a candidate threshold (Theorem 4.3).
#[derive(Debug, Clone)]
pub struct RefutationResult {
    /// The input on which the cost difference provably exceeds the candidate threshold.
    pub witness_input: IntValuation,
    /// Anti-potential function for the new program (lower bound on its cost).
    pub anti_potential_new: PotentialFunction,
    /// Potential function for the old program (upper bound on its cost).
    pub potential_old: PotentialFunction,
    /// Solve statistics.
    pub stats: SolveStats,
}

/// The result of the single-program precision analysis (Section 7).
#[derive(Debug, Clone)]
pub struct PrecisionResult {
    /// The precision bound `p`: both computed bounds are within `p` of the true cost.
    pub precision: f64,
    /// The upper cost bound (potential function).
    pub upper: PotentialFunction,
    /// The lower cost bound (anti-potential function).
    pub lower: PotentialFunction,
    /// Solve statistics.
    pub stats: SolveStats,
}

/// The solver implementing the simultaneous synthesis algorithm of Section 5.
#[derive(Debug, Clone)]
pub struct DiffCostSolver {
    options: AnalysisOptions,
    deadline: Deadline,
}

impl Default for DiffCostSolver {
    fn default() -> Self {
        DiffCostSolver::new(AnalysisOptions::default())
    }
}

impl DiffCostSolver {
    /// Creates a solver with the given options (and no external deadline: only the
    /// options' own [`AnalysisOptions::time_budget`] bounds each solve).
    pub fn new(options: AnalysisOptions) -> DiffCostSolver {
        DiffCostSolver { options, deadline: Deadline::unlimited() }
    }

    /// Attaches a shared [`Deadline`]: every solve polls it cooperatively (in the
    /// invariant, encoding and LP phases) and stops within one polling stride of its
    /// cutoff or cancellation. A per-solve [`AnalysisOptions::time_budget`]
    /// *tightens* this deadline per solve; the earlier cutoff wins. The serve
    /// engine threads each request's deadline (its budget, under the daemon's
    /// shutdown deadline) into the solve this way.
    pub fn with_deadline(mut self, deadline: Deadline) -> DiffCostSolver {
        self.deadline = deadline;
        self
    }

    /// The options this solver was created with.
    pub fn options(&self) -> AnalysisOptions {
        self.options
    }

    /// The effective deadline of one solve: the solver's shared deadline tightened
    /// by the per-solve time budget, anchored at the caller's start instant (the
    /// budget covers constraint collection too, not just the LP).
    fn effective_deadline(&self, start: Instant) -> Deadline {
        self.deadline.tightened(self.options.time_budget.map(|budget| start + budget))
    }

    /// Solves the DiffCost problem: minimizes a threshold `t` such that
    /// `CostSup_new(x) − CostInf_old(x) ≤ t` for all `x ∈ Θ0`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoThresholdFound`] when no polynomial witness of the
    /// configured degree exists (e.g. the benchmarks the paper marks ✗).
    pub fn solve(
        &self,
        new: &AnalyzedProgram,
        old: &AnalyzedProgram,
    ) -> Result<DiffCostResult, AnalysisError> {
        self.solve_with_warm_start(new, old, None, None).map(|(result, _)| result)
    }

    /// Like [`DiffCostSolver::solve`], seeding the LP with the final basis of a
    /// previous related solve and returning the result with its own final basis.
    ///
    /// The serve engine's near-match path ([`crate::SolveCache::nearest_basis`])
    /// seeds a query with the basis of a cached solve of an edited ancestor pair: the
    /// two constraint systems share every row of the unchanged locations (the
    /// Handelman encoding emits constraints in a stable graded order, and unknown
    /// names are stable across solves), so the old basis puts the simplex within a
    /// few pivots of the new optimum.
    ///
    /// A solve runs one LP. When [`AnalysisOptions::phase_split`] is on (the
    /// default) and `dca_ir::split_phases` finds a phase structure in either
    /// program, that LP is over the split system(s) instead of the inputs; the
    /// warm basis seeds it and the returned basis is its own. Split systems rename
    /// the split locations, so only the columns whose names they share with the
    /// warm basis carry over.
    ///
    /// A warm basis from any origin is accepted: every verdict is decided in exact
    /// arithmetic, so a basis changes only the pivot path, never the answer. The
    /// solve's one deadline is anchored here, so the split spends the same budget
    /// as the LP.
    ///
    /// `progress` observes the solve (see [`SolveProgress`]) and changes nothing.
    pub fn solve_with_warm_start(
        &self,
        new: &AnalyzedProgram,
        old: &AnalyzedProgram,
        warm: Option<&LpBasis>,
        progress: Option<&mut SolveProgress<'_>>,
    ) -> Result<(DiffCostResult, LpBasis), AnalysisError> {
        let deadline = self.effective_deadline(Instant::now());
        let (split_new, split_old) = if self.options.phase_split {
            (new.split_phases(), old.split_phases())
        } else {
            (None, None)
        };
        let splits = [&split_new, &split_old].into_iter().flatten();
        let phases_split: usize = splits.clone().map(|(_, n)| n).sum();
        let invariant_lp_queries = new.invariants.lp_queries()
            + old.invariants.lp_queries()
            + splits.map(|(program, _)| program.invariants.lp_queries()).sum::<usize>();
        let new_side = split_new.as_ref().map_or(new, |(program, _)| program);
        let old_side = split_old.as_ref().map_or(old, |(program, _)| program);
        let proved = self.prove_bound(new_side, old_side, None, warm, &deadline, progress);
        proved.map(|(mut result, basis)| {
            result.stats.phases_split = phases_split;
            result.stats.invariant_lp_queries = invariant_lp_queries;
            // A split result carries the split systems along: its witnesses are keyed
            // by their locations, and rendering or evaluating them against the input
            // systems would be out of bounds (or silently wrong).
            if phases_split > 0 {
                result.split_systems =
                    Some(Box::new((new_side.ts.clone(), old_side.ts.clone())));
            }
            (result, basis)
        })
    }

    /// The one encode-and-solve of a bound proof, shared by the threshold and the
    /// symbolic-bound analyses: potential for `new`, anti-potential for `old`, and
    /// the differential constraint `Θ0 ⟹ bound − (φ_new(ℓ0,x) − χ_old(ℓ0,x)) ≥ 0`.
    /// `bound` is a fixed polynomial over the new program's variables, or `None`
    /// for a fresh threshold unknown `t` that the LP minimizes (the result's
    /// `threshold`; it is 0 under a fixed polynomial). Runs under the caller's
    /// `deadline`; the returned [`SolveStats::duration`] times this call only.
    fn prove_bound(
        &self,
        new: &AnalyzedProgram,
        old: &AnalyzedProgram,
        bound: Option<&Polynomial>,
        warm: Option<&LpBasis>,
        deadline: &Deadline,
        progress: Option<&mut SolveProgress<'_>>,
    ) -> Result<(DiffCostResult, LpBasis), AnalysisError> {
        let start = Instant::now();
        // Phase boundary: the invariants (already analyzed by the caller). An injected
        // deadline fault here exercises the same cooperative-cancellation path a real
        // exhaustion takes.
        if fault::enter(SolvePhase::Invariants) == Some(FaultKind::Deadline) {
            deadline.cancel();
        }
        if deadline.expired() {
            return Err(AnalysisError::Timeout { phase: SolvePhase::Invariants });
        }
        // Phase boundary: Handelman encoding of the constraint system.
        if fault::enter(SolvePhase::Encode) == Some(FaultKind::Deadline) {
            deadline.cancel();
        }
        let mut factory = UnknownFactory::new();
        let (threshold, bound, label) = match bound {
            Some(bound) => (None, TemplatePolynomial::from_polynomial(bound), "symbolic-bound"),
            None => {
                let threshold = factory.fresh("t", UnknownKind::Free);
                (Some(threshold), TemplatePolynomial::from_unknown(threshold), "differential")
            }
        };
        let (templates_new, templates_old, mut set, collected) =
            self.collect_both(new, old, BOUND_ROLES, &mut factory);
        let mut lazy = collected.lazy_multipliers;
        let (phi0, chi0, theta0) = self.initial_difference(new, old, &templates_new, &templates_old);
        let poly = &(&bound - &phi0) + &chi0;
        let encoding =
            encode_nonnegativity(&theta0, &poly, self.options.max_products, &mut factory, label);
        lazy.extend(encoding.lazy_multipliers());
        set.extend(encoding.constraints);
        if deadline.expired() {
            return Err(AnalysisError::Timeout { phase: SolvePhase::Encode });
        }

        let solved =
            self.solve_lp(&factory, &set, threshold, start, deadline, warm, &lazy, progress);
        solved.map(|(objective_value, assignment, mut stats, basis)| {
            stats.transitions_pruned = collected.pruned;
            let result = DiffCostResult {
                threshold: objective_value,
                potential_new: templates_new.instantiate(&assignment),
                anti_potential_old: templates_old.instantiate(&assignment),
                split_systems: None,
                stats,
            };
            (result, basis)
        })
    }

    /// Proves a symbolic polynomial bound `p(x)` on the cost difference:
    /// `CostSup_new(x) − CostInf_old(x) ≤ p(x)` for all `x ∈ Θ0`.
    ///
    /// The bound is expressed over the *new* program's variables.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoThresholdFound`] if the bound cannot be witnessed with
    /// templates of the configured degree.
    pub fn prove_symbolic_bound(
        &self,
        new: &AnalyzedProgram,
        old: &AnalyzedProgram,
        bound: &Polynomial,
    ) -> Result<SymbolicBoundResult, AnalysisError> {
        let deadline = self.effective_deadline(Instant::now());
        let (result, _) = self.prove_bound(new, old, Some(bound), None, &deadline, None)?;
        Ok(SymbolicBoundResult {
            potential_new: result.potential_new,
            anti_potential_old: result.anti_potential_old,
            stats: result.stats,
        })
    }

    /// Attempts to refute a candidate threshold `t` (Theorem 4.3): finds an input on which
    /// the cost difference provably *exceeds* `t`, by synthesizing an anti-potential for
    /// the new program and a potential for the old one.
    ///
    /// Candidate inputs are taken from `candidate_inputs` (variable name → value, over the
    /// new program's inputs); if empty, corner points of the input box implied by Θ0 are
    /// tried. Candidates that violate Θ0 are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::RefutationFailed`] if no tried input admits a witness.
    pub fn refute_threshold(
        &self,
        new: &AnalyzedProgram,
        old: &AnalyzedProgram,
        threshold: i64,
        candidate_inputs: &[BTreeMap<String, i64>],
    ) -> Result<RefutationResult, AnalysisError> {
        let start = Instant::now();
        let mut factory = UnknownFactory::new();
        let (templates_new, templates_old, set, collected) =
            self.collect_both(new, old, REFUTATION_ROLES, &mut factory);
        let lazy = collected.lazy_multipliers;
        let (chi0_new, phi0_old, theta0) =
            self.initial_difference(new, old, &templates_new, &templates_old);

        let candidates = if candidate_inputs.is_empty() {
            default_corner_inputs(new)
        } else {
            candidate_inputs
                .iter()
                .map(|named| {
                    named
                        .iter()
                        .filter_map(|(name, &value)| {
                            new.ts.pool().lookup(name).map(|id| (id, value))
                        })
                        .collect::<IntValuation>()
                })
                .collect()
        };

        // A witness outside Θ0 refutes nothing: the synthesized bounds only hold on
        // Θ0, so at an input outside it the LP can make the difference exceed any
        // threshold. Candidates are checked in exact arithmetic, like the sampled
        // inputs of `verify_threshold`.
        for candidate in candidates.into_iter().filter(|c| satisfies_theta0(&theta0, c)) {
            // χ_new(ℓ0, x*) − φ_old(ℓ0, x*) ≥ t + 1 at the concrete input x*.
            let valuation: dca_poly::Valuation = candidate
                .iter()
                .map(|(&v, &x)| (v, Rational::from_int(x)))
                .collect();
            let difference = &eval_template(&chi0_new, &valuation)
                - &eval_template(&phi0_old, &valuation);
            let exceeded = &difference - &LinForm::constant(Rational::from_int(threshold + 1));
            let mut candidate_set = set.clone();
            candidate_set.push(UnknownConstraint::ge(exceeded, "refutation"));
            let deadline = self.effective_deadline(start);
            match self
                .solve_lp(&factory, &candidate_set, None, start, &deadline, None, &lazy, None)
            {
                Ok((_, assignment, stats, _)) => {
                    return Ok(RefutationResult {
                        witness_input: candidate,
                        anti_potential_new: templates_new.instantiate(&assignment),
                        potential_old: templates_old.instantiate(&assignment),
                        stats,
                    })
                }
                Err(AnalysisError::NoThresholdFound) => continue,
                Err(other) => return Err(other),
            }
        }
        Err(AnalysisError::RefutationFailed)
    }

    /// Single-program precision analysis (Section 7): simultaneously computes an upper
    /// bound `φ` and a lower bound `χ` on the program's cost and minimizes the precision
    /// gap `p` with `φ(ℓ0,x) − χ(ℓ0,x) ≤ p` on `Θ0`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoThresholdFound`] if no pair of polynomial bounds of the
    /// configured degree exists.
    pub fn precision(&self, program: &AnalyzedProgram) -> Result<PrecisionResult, AnalysisError> {
        let result = self.solve(program, program)?;
        Ok(PrecisionResult {
            precision: result.threshold,
            upper: result.potential_new,
            lower: result.anti_potential_old,
            stats: result.stats,
        })
    }

    // ----- internal helpers -------------------------------------------------------------

    /// Allocates one template per program and collects both programs' constraints
    /// into one set. `roles` gives the `(name prefix, role)` of the new and the old
    /// program's template, in that order.
    fn collect_both(
        &self,
        new: &AnalyzedProgram,
        old: &AnalyzedProgram,
        roles: [(&str, TemplateRole); 2],
        factory: &mut UnknownFactory,
    ) -> (ProgramTemplates, ProgramTemplates, ConstraintSet, CollectOutcome) {
        let [(new_prefix, new_role), (old_prefix, old_role)] = roles;
        let (degree, with_cost) = (self.options.degree, self.options.include_cost_in_template);
        let allocate = |program: &AnalyzedProgram, factory: &mut _, prefix| {
            ProgramTemplates::allocate(&program.ts, degree, with_cost, factory, prefix)
        };
        let templates_new = allocate(new, factory, new_prefix);
        let templates_old = allocate(old, factory, old_prefix);
        let mut set = ConstraintSet::new();
        let mut collect = |program: &AnalyzedProgram, templates, role, factory: &mut _| {
            let products = self.options.max_products;
            collect_program_constraints(
                &program.ts, &program.invariants, templates, role, products, factory, &mut set,
            )
        };
        let mut outcome = collect(new, &templates_new, new_role, factory);
        let old_outcome = collect(old, &templates_old, old_role, factory);
        outcome.pruned += old_outcome.pruned;
        outcome.lazy_multipliers.extend(old_outcome.lazy_multipliers);
        (templates_new, templates_old, set, outcome)
    }

    /// Builds the new template at `ℓ0`, the remapped old template at `ℓ0` and the
    /// shared Θ0, all over the new program's variable space. Under [`BOUND_ROLES`]
    /// the templates are `φ_new` and `χ_old`; under [`REFUTATION_ROLES`], `χ_new`
    /// and `φ_old`.
    fn initial_difference(
        &self,
        new: &AnalyzedProgram,
        old: &AnalyzedProgram,
        templates_new: &ProgramTemplates,
        templates_old: &ProgramTemplates,
    ) -> (TemplatePolynomial, TemplatePolynomial, Vec<LinExpr>) {
        let mapping = variable_mapping(old, new);
        let phi0 = templates_new.at(new.ts.initial()).clone();
        let chi0 = remap_template_vars(templates_old.at(old.ts.initial()), &mapping);
        let mut theta0: Vec<LinExpr> = new.ts.theta0().to_vec();
        for constraint in old.ts.theta0() {
            let remapped = remap_linexpr_vars(constraint, &mapping);
            if !theta0.contains(&remapped) {
                theta0.push(remapped);
            }
        }
        if !self.options.include_cost_in_template {
            // Θ0 always carries `cost = 0`, but when the templates exclude `cost` the
            // target polynomial has no cost-divisible monomial: every product with a
            // pure-cost factor contributes *only* cost-divisible monomials, whose total
            // is forced to zero anyway. Dropping those premises is sound (a weaker
            // premise set) and completeness-preserving, and prunes the product pool.
            let cost = new.ts.cost_var();
            theta0.retain(|expr| {
                expr.is_constant() || !expr.vars().iter().all(|&v| v == cost)
            });
        }
        (phi0, chi0, theta0)
    }

    // Two parameters over the limit, but every argument is load-bearing pipeline
    // state; bundling them into a one-shot struct would only rename the problem.
    #[allow(clippy::too_many_arguments)]
    fn solve_lp(
        &self,
        factory: &UnknownFactory,
        set: &ConstraintSet,
        objective: Option<UnknownId>,
        start: Instant,
        deadline: &Deadline,
        warm: Option<&LpBasis>,
        lazy: &[UnknownId],
        progress: Option<&mut SolveProgress<'_>>,
    ) -> Result<(f64, BTreeMap<UnknownId, Rational>, SolveStats, LpBasis), AnalysisError> {
        let mut lp = LpProblem::new();
        // The deadline covers the whole solve (constraint collection already consumed
        // part of the budget — it is anchored at the caller's start time) and carries
        // the shared cancel flag, so an external cancellation stops the LP loops too.
        lp.set_deadline(deadline.clone());
        let lp_vars: Vec<LpVar> = factory
            .iter()
            .map(|u| {
                let kind = match factory.kind(u) {
                    UnknownKind::Free => VarKind::Free,
                    UnknownKind::NonNegative => VarKind::NonNegative,
                };
                lp.add_var(factory.name(u), kind)
            })
            .collect();
        // Row cleanup before solving: identical rows appear when distinct transitions
        // share guards and invariants (their coefficient-matching equalities coincide
        // monomial by monomial), and all-zero rows appear when a monomial cancels on
        // both sides of an encoding. Both inflate the tableau the simplex has to drag
        // along — the degree-3 `nested` encoding sheds thousands of rows here — and
        // neither changes the feasible set, so they are dropped up front.
        let raw_rows = set.constraints().len();
        // One row, canonicalized: sorted (column, coefficient) terms, equality flag,
        // right-hand side.
        type RowKey = (Vec<(LpVar, Rational)>, bool, Rational);
        let mut seen: std::collections::HashSet<RowKey> = std::collections::HashSet::new();
        for constraint in set.constraints() {
            let terms: Vec<(LpVar, Rational)> = constraint
                .form
                .iter()
                .map(|(u, c)| (lp_vars[u.index()], c.clone()))
                .collect();
            let rhs = -constraint.form.constant_term().clone();
            let op = match constraint.sense {
                ConstraintSense::Eq => ConstraintOp::Eq,
                ConstraintSense::Ge => ConstraintOp::Ge,
            };
            if terms.is_empty() {
                // Constant row: drop when trivially satisfied, keep when violated (the
                // solver then correctly reports infeasibility).
                let satisfied = match op {
                    ConstraintOp::Eq => rhs.is_zero(),
                    ConstraintOp::Ge => !rhs.is_positive(),
                    ConstraintOp::Le => !rhs.is_negative(),
                };
                if satisfied {
                    continue;
                }
            }
            if seen.insert((terms.clone(), op == ConstraintOp::Eq, rhs.clone())) {
                lp.add_constraint(terms, op, rhs);
            }
        }
        if let Some(objective) = objective {
            lp.set_objective(vec![(lp_vars[objective.index()], Rational::one())]);
        }

        let solution = match self.options.backend {
            LpBackend::Certified => {
                // The lazy set names Handelman multiplier columns the driver may
                // defer and separate on demand — the verdict is proven identical to
                // the eager one before it is accepted (see `dca_lp::certify`). With
                // row generation off the set is empty: an eager solve.
                let lazy_names: Vec<String> = if self.options.row_generation {
                    lazy.iter().map(|&u| factory.name(u).to_string()).collect()
                } else {
                    Vec::new()
                };
                // The LP objective is the threshold, converted as `threshold` is.
                let mut report = progress.map(|progress| {
                    move |upper: &Rational, lower: Option<&Rational>| {
                        let upper = upper.to_f64();
                        progress(upper, lower.map(|lower| lower.to_f64().min(upper)))
                    }
                });
                lp.solve_certified(warm, &lazy_names, report.as_mut().map(|report| report as _))
            }
            LpBackend::Exact => lp.solve_exact(),
        };
        match solution.status {
            LpStatus::Optimal => {
                let assignment: BTreeMap<UnknownId, Rational> = factory
                    .iter()
                    .map(|u| (u, solution.values[u.index()].clone()))
                    .collect();
                let objective_value =
                    solution.objective.as_ref().map(Rational::to_f64).unwrap_or(0.0);
                let info = solution.info;
                let stats = SolveStats {
                    lp_variables: lp.num_vars(),
                    lp_constraints: lp.num_constraints(),
                    lp_constraints_raw: raw_rows,
                    lp_iterations: info.iterations,
                    lp_float_iterations: info.float_iterations,
                    lp_exact_iterations: info.exact_iterations,
                    lp_truncated: info.truncated,
                    lp_dual_bound: solution.dual_bound.as_ref().map(Rational::to_f64),
                    lp_certified: info.certified,
                    lp_certify_rounds: info.certify_rounds,
                    lp_float_time: info.float_time,
                    lp_certify_time: info.certify_time,
                    lp_repair_time: info.repair_time,
                    lp_build_time: info.build_time,
                    lp_products_total: info.products_total,
                    lp_products_generated: info.products_generated,
                    lp_separation_rounds: info.separation_rounds,
                    lp_lu_updates: info.lu_updates,
                    lp_lu_refactorizations: info.lu_refactorizations,
                    duration: start.elapsed(),
                    // The pair-level counts (pruning, phase splits, invariant
                    // queries) are filled in by the callers that know the pair;
                    // the presolve time stays zero.
                    ..SolveStats::default()
                };
                Ok((objective_value, assignment, stats, solution.basis))
            }
            LpStatus::Infeasible => Err(AnalysisError::NoThresholdFound),
            LpStatus::Unbounded => Err(AnalysisError::Unbounded),
            LpStatus::IterationLimit => Err(AnalysisError::IterationLimit),
            // The thread-local phase marker names the LP stage that was running when
            // the deadline fired (the certified driver enters each stage).
            LpStatus::TimedOut => Err(AnalysisError::Timeout { phase: fault::current_phase() }),
        }
    }
}

/// Template roles of a bound proof (the threshold and symbolic-bound analyses): a
/// potential (upper bound) for the new program and an anti-potential (lower bound)
/// for the old one.
const BOUND_ROLES: [(&str, TemplateRole); 2] =
    [("phi_new", TemplateRole::Potential), ("chi_old", TemplateRole::AntiPotential)];

/// Template roles of a refutation (Theorem 4.3), swapped relative to
/// [`BOUND_ROLES`]: a lower bound on the new program, an upper bound on the old one.
const REFUTATION_ROLES: [(&str, TemplateRole); 2] =
    [("chi_new", TemplateRole::AntiPotential), ("phi_old", TemplateRole::Potential)];

/// Evaluates a template polynomial at a concrete valuation, producing an affine form over
/// the LP unknowns.
fn eval_template(template: &TemplatePolynomial, valuation: &dca_poly::Valuation) -> LinForm {
    let mut result = LinForm::zero();
    for (mono, form) in template.iter() {
        result = &result + &form.scale(&mono.eval(valuation));
    }
    result
}

/// Maps the old program's variables onto the new program's variables by name; names that
/// only exist in the old program keep their (disjoint) identity shifted beyond the new
/// pool so they cannot collide.
fn variable_mapping(old: &AnalyzedProgram, new: &AnalyzedProgram) -> BTreeMap<VarId, VarId> {
    let mut mapping = BTreeMap::new();
    let offset = new.ts.pool().len() as u32 + 8192;
    for old_var in old.ts.vars() {
        let name = old.ts.pool().name(old_var);
        match new.ts.pool().lookup(name) {
            Some(new_var) => {
                mapping.insert(old_var, new_var);
            }
            None => {
                mapping.insert(old_var, VarId(offset + old_var.0));
            }
        }
    }
    mapping
}

/// Derives candidate corner inputs from the new program's Θ0 by bounding every data
/// variable with two LPs (minimum and maximum); returns the all-minimum corner, the
/// all-maximum corner and the mixed corners obtained by flipping one variable at a time.
fn default_corner_inputs(program: &AnalyzedProgram) -> Vec<IntValuation> {
    let theta0 = program.ts.theta0();
    let data_vars = program.ts.data_vars();
    let mut bounds: Vec<(VarId, i64, i64)> = Vec::new();
    for var in &data_vars {
        let lower = bound_var(theta0, *var, true).unwrap_or(0);
        let upper = bound_var(theta0, *var, false).unwrap_or(lower.max(0));
        bounds.push((*var, lower, upper));
    }
    let mut corners = Vec::new();
    let lower_corner: IntValuation = bounds.iter().map(|&(v, lo, _)| (v, lo)).collect();
    let upper_corner: IntValuation = bounds.iter().map(|&(v, _, hi)| (v, hi)).collect();
    corners.push(upper_corner.clone());
    corners.push(lower_corner.clone());
    for &(flip, lo, _) in &bounds {
        let mut mixed = upper_corner.clone();
        mixed.insert(flip, lo);
        if !corners.contains(&mixed) {
            corners.push(mixed);
        }
    }
    // cost starts at 0 in every candidate.
    for corner in &mut corners {
        corner.insert(program.ts.cost_var(), 0);
    }
    corners
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyzed(source: &str) -> AnalyzedProgram {
        AnalyzedProgram::from_source(source).unwrap()
    }

    const COUNT_TICK1: &str = r#"
        proc count(n) {
            assume(n >= 1 && n <= 100);
            i = 0;
            while (i < n) { tick(1); i = i + 1; }
        }
    "#;
    const COUNT_TICK2: &str = r#"
        proc count(n) {
            assume(n >= 1 && n <= 100);
            i = 0;
            while (i < n) { tick(2); i = i + 1; }
        }
    "#;

    #[test]
    fn doubling_cost_gives_threshold_n_max() {
        let old = analyzed(COUNT_TICK1);
        let new = analyzed(COUNT_TICK2);
        let solver = DiffCostSolver::default();
        let result = solver.solve(&new, &old).expect("threshold should exist");
        // CostSup_new - CostInf_old = 2n - n = n <= 100; the tight threshold is 100.
        assert!(
            (result.threshold - 100.0).abs() < 0.5,
            "threshold = {}",
            result.threshold
        );
        assert_eq!(result.threshold_int(), 100);
        assert!(result.stats.lp_variables > 0);
        assert!(result.stats.lp_constraints > 0);
    }

    #[test]
    fn identical_programs_give_zero_threshold() {
        let old = analyzed(COUNT_TICK1);
        let new = analyzed(COUNT_TICK1);
        let solver = DiffCostSolver::default();
        let result = solver.solve(&new, &old).expect("threshold should exist");
        assert!(result.threshold.abs() < 0.5, "threshold = {}", result.threshold);
        assert_eq!(result.threshold_int(), 0);
    }

    #[test]
    fn cheaper_new_version_gives_negative_or_zero_threshold() {
        let old = analyzed(COUNT_TICK2);
        let new = analyzed(COUNT_TICK1);
        let solver = DiffCostSolver::default();
        let result = solver.solve(&new, &old).expect("threshold should exist");
        // New is cheaper by n >= 1, so the tightest threshold is -1 (on n = 1).
        assert!(result.threshold <= 0.5, "threshold = {}", result.threshold);
    }

    #[test]
    fn precision_analysis_on_deterministic_loop_is_tight() {
        let program = analyzed(COUNT_TICK1);
        let solver = DiffCostSolver::default();
        let result = solver.precision(&program).expect("precision bound should exist");
        // The loop is deterministic with cost exactly n, so upper and lower bounds can
        // coincide: precision 0 (up to LP tolerance).
        assert!(result.precision.abs() < 0.5, "precision = {}", result.precision);
    }

    #[test]
    fn symbolic_bound_is_provable() {
        let old = analyzed(COUNT_TICK1);
        let new = analyzed(COUNT_TICK2);
        let solver = DiffCostSolver::default();
        // The difference is exactly n, so the symbolic bound p(x) = n is provable...
        let n = new.ts.pool().lookup("n").unwrap();
        let bound = Polynomial::var(n);
        assert!(solver.prove_symbolic_bound(&new, &old, &bound).is_ok());
        // ...but p(x) = n - 1 is not.
        let too_small = Polynomial::var(n) - Polynomial::from_int(1);
        assert!(matches!(
            solver.prove_symbolic_bound(&new, &old, &too_small),
            Err(AnalysisError::NoThresholdFound)
        ));
    }

    #[test]
    fn refutation_of_too_small_threshold() {
        let old = analyzed(COUNT_TICK1);
        let new = analyzed(COUNT_TICK2);
        let solver = DiffCostSolver::default();
        // 99 is not a threshold (difference reaches 100 at n = 100).
        let refutation = solver
            .refute_threshold(&new, &old, 99, &[])
            .expect("99 should be refutable");
        let n = new.ts.pool().lookup("n").unwrap();
        assert_eq!(refutation.witness_input.get(&n), Some(&100));
        // 100 is a genuine threshold and must not be refutable.
        assert!(matches!(
            solver.refute_threshold(&new, &old, 100, &[]),
            Err(AnalysisError::RefutationFailed)
        ));
    }

    #[test]
    fn corner_input_derivation() {
        let program = analyzed(COUNT_TICK1);
        let corners = default_corner_inputs(&program);
        let n = program.ts.pool().lookup("n").unwrap();
        assert!(corners.iter().any(|c| c.get(&n) == Some(&100)));
        assert!(corners.iter().any(|c| c.get(&n) == Some(&1)));
    }

    #[test]
    fn error_display() {
        assert!(AnalysisError::NoThresholdFound.to_string().contains("threshold"));
        assert!(AnalysisError::RefutationFailed.to_string().contains("refuted"));
    }

    /// Regression: the exact dual bound is rounded to `f64` and on a near-closed
    /// bracket can land *above* the truncated upper vertex; the outcome must clamp
    /// the bracket instead of reporting a negative gap ("better than optimal").
    #[test]
    fn truncated_outcome_clamps_a_crossed_bracket() {
        let old = analyzed(COUNT_TICK1);
        let new = analyzed(COUNT_TICK2);
        let mut result = DiffCostSolver::default().solve(&new, &old).unwrap();
        result.stats.lp_truncated = true;
        result.stats.lp_dual_bound = Some(result.threshold + 0.5);
        match result.outcome() {
            SolveOutcome::TruncatedAnytime { upper, lower, gap } => {
                assert_eq!(upper, result.threshold);
                assert_eq!(lower, Some(result.threshold), "lower must clamp to upper");
                assert_eq!(gap, Some(0.0), "gap must clamp to zero, never go negative");
            }
            other => panic!("expected a truncated outcome, got {other:?}"),
        }
        // A well-ordered bracket passes through unclamped.
        result.stats.lp_dual_bound = Some(result.threshold - 2.0);
        assert_eq!(result.outcome().gap(), Some(2.0));
    }

    /// A warm basis is only a starting point: one from a different program pair
    /// (whose columns share names with this pair's) changes no answer. Pair B solved
    /// cold, warm from its own basis and warm from pair A's basis agree bit for bit.
    #[test]
    fn a_foreign_warm_basis_changes_no_answer() {
        let tick1 = analyzed(COUNT_TICK1);
        let tick2 = analyzed(COUNT_TICK2);
        let solver = DiffCostSolver::default();
        // Pair A: (tick2, tick1).
        let (_, basis_a) = solver.solve_with_warm_start(&tick2, &tick1, None, None).unwrap();
        // Pair B: (tick1, tick2) — same column names, different programs.
        let (cold_b, basis_b) = solver.solve_with_warm_start(&tick1, &tick2, None, None).unwrap();
        let (own_b, _) =
            solver.solve_with_warm_start(&tick1, &tick2, Some(&basis_b), None).unwrap();
        assert_eq!(own_b.threshold.to_bits(), cold_b.threshold.to_bits());
        let (foreign_b, _) =
            solver.solve_with_warm_start(&tick1, &tick2, Some(&basis_a), None).unwrap();
        assert_eq!(foreign_b.threshold.to_bits(), cold_b.threshold.to_bits());
    }
}
