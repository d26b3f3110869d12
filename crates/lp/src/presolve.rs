//! Presolve: shrinks a standard-form LP before any simplex runs, and maps the reduced
//! solution back to the original column space.
//!
//! The Handelman encodings this crate solves are dominated by coefficient-matching
//! equalities with zero right-hand sides over non-negative multipliers. That structure
//! makes four classical reductions unusually productive:
//!
//! * **zero / constant rows** — rows whose every coefficient vanished are dropped when
//!   trivially satisfied (and decide infeasibility when violated);
//! * **singleton rows** — `a·y = b` fixes `y = b/a` outright, and the fixed value is
//!   substituted through the rest of the system (bound propagation for an all-equality,
//!   `y ≥ 0` form: a negative fixed value is an immediate infeasibility verdict);
//! * **forcing rows** — `Σ aᵢ yᵢ = 0` with single-signed coefficients forces every
//!   involved variable to zero (each `yᵢ ≥ 0`), eliminating whole column groups;
//! * **duplicate rows and empty columns** — textually identical rows are kept once;
//!   columns that appear in no row are fixed to zero when their cost cannot improve
//!   the objective. (A no-row column with *negative* cost is kept: the LP is then
//!   "infeasible or unbounded", and only the simplex — which proves feasibility in
//!   phase 1 before anything else — can tell which.)
//! * **dominated rows** — two rows that encode inequalities over *proportional* cores
//!   (each row's own zero-cost slack singleton makes it `core·y ≤ b` or `core·y ≥ b`)
//!   imply one another when they point the same way: only the tighter bound survives.
//!   The paper's `X ≤ c` and `2X ≤ 2c'` Θ0 shapes (and the overlapping guard rows the
//!   invariant tiers emit) are exactly this pattern.
//!
//! The reductions cascade (fixing a column can create new singleton or zero rows), so
//! the pass iterates to a fixpoint. Everything runs in the solver's scalar type, with
//! one asymmetry: **only the exact backend may conclude infeasibility here**. The
//! `f64` pass substitutes rounded values, and a cascade of substitutions on raw
//! (un-equilibrated) coefficients could push a residual past the tolerance — so any
//! row an `f64` pass would call violated is simply *left in place* for the simplex,
//! whose infeasibility verdicts sit behind a noise floor and a perturbed retry.
//! Fixed column values, by contrast, are always safe to propagate: a wrong `Optimal`
//! built on them is caught by the model-level feasibility re-check in
//! `LpProblem::solve_f64`.

use crate::problem::LpStatus;
use crate::scalar::Scalar;
use crate::simplex::StandardForm;

/// The outcome of presolving a standard-form problem.
#[derive(Debug, Clone)]
pub(crate) struct Presolved<S> {
    /// The reduced problem (meaningful only when `verdict` is `None`).
    pub form: StandardForm<S>,
    /// Reduced column index → original column index.
    pub kept_cols: Vec<usize>,
    /// Values of eliminated columns, by original column index.
    pub fixed: Vec<(usize, S)>,
    /// Number of rows removed by the pass.
    pub rows_removed: usize,
    /// Number of columns removed by the pass.
    pub cols_removed: usize,
    /// A definitive verdict reached during presolve (`Infeasible` or `Unbounded`),
    /// short-circuiting the simplex entirely.
    pub verdict: Option<LpStatus>,
}

impl<S: Scalar> Presolved<S> {
    /// Maps a solution over the reduced columns back to the original column space.
    pub fn restore(&self, reduced_values: &[S], num_original_cols: usize) -> Vec<S> {
        let mut values = vec![S::zero(); num_original_cols];
        for (&original, value) in self.kept_cols.iter().zip(reduced_values) {
            values[original] = value.clone();
        }
        for (original, value) in &self.fixed {
            values[*original] = value.clone();
        }
        values
    }

    /// Maps original column indices (e.g. a warm-start basis) to reduced indices,
    /// silently dropping columns the presolve eliminated.
    pub fn map_cols(&self, original: &[usize]) -> Vec<usize> {
        let mut lookup = vec![usize::MAX; original.iter().max().map_or(0, |m| m + 1)];
        for (reduced, &orig) in self.kept_cols.iter().enumerate() {
            if orig < lookup.len() {
                lookup[orig] = reduced;
            }
        }
        original
            .iter()
            .filter_map(|&c| lookup.get(c).copied().filter(|&r| r != usize::MAX))
            .collect()
    }
}

/// One live row during the pass: terms over *original* column indices, plus the
/// (substitution-adjusted) right-hand side.
struct Row<S> {
    terms: Vec<(usize, S)>,
    rhs: S,
}

/// The identity presolve: keeps every row and column (used when presolve is disabled
/// per problem with [`crate::LpProblem::set_presolve`], e.g. by the A/B soundness
/// tests).
pub(crate) fn identity<S: Scalar>(form: &StandardForm<S>) -> Presolved<S> {
    Presolved {
        form: form.clone(),
        kept_cols: (0..form.costs.len()).collect(),
        fixed: Vec::new(),
        rows_removed: 0,
        cols_removed: 0,
        verdict: None,
    }
}

/// Runs the presolve reductions to a fixpoint.
pub(crate) fn presolve<S: Scalar>(form: &StandardForm<S>) -> Presolved<S> {
    let num_cols = form.costs.len();
    let mut rows: Vec<Option<Row<S>>> = form
        .matrix
        .iter()
        .zip(&form.rhs)
        .map(|(row, rhs)| {
            let terms: Vec<(usize, S)> = row
                .iter()
                .enumerate()
                .filter(|(_, a)| !a.is_exactly_zero())
                .map(|(j, a)| (j, a.clone()))
                .collect();
            Some(Row { terms, rhs: rhs.clone() })
        })
        .collect();
    // `None` = still free; `Some(v)` = fixed to `v`.
    let mut fixed: Vec<Option<S>> = vec![None; num_cols];
    let mut rows_removed = 0usize;
    let mut infeasible = false;
    // `f64` only: a reduction step smelled infeasibility. The float pass must not
    // issue that verdict itself (see the module docs), and it must not leave the
    // suspect row in the *reduced* system either — substituted-away columns and row
    // equilibration could amplify a rounding residual into a hard contradiction. The
    // whole pass is abandoned instead: the simplex solves the original system and
    // issues the verdict behind its own noise floor and perturbed retry.
    let mut suspect = false;

    // Reduction fixpoint. Each pass substitutes known values, then applies the row
    // rules; fixing a column can enable further reductions, so iterate (the cascade
    // depth is small in practice — the cap is a safety net, not a tuning knob).
    let mut difference_scanned = false;
    for _ in 0..24 {
        let mut changed = false;
        for slot in rows.iter_mut() {
            let Some(row) = slot else { continue };
            // Substitute fixed columns into the right-hand side.
            let before = row.terms.len();
            let mut rhs = row.rhs.clone();
            row.terms.retain(|(col, coeff)| match &fixed[*col] {
                Some(value) => {
                    if !value.is_exactly_zero() {
                        rhs = rhs.sub(&coeff.mul(value));
                    }
                    false
                }
                None => true,
            });
            row.rhs = rhs;
            if row.terms.len() != before {
                changed = true;
            }

            if row.terms.is_empty() {
                // Constant row: satisfied → drop; violated → infeasible (exact) or
                // left for the simplex to condemn behind its noise floor (f64).
                if !row.rhs.is_zero() {
                    if S::IS_EXACT {
                        infeasible = true;
                    } else {
                        suspect = true;
                        continue;
                    }
                }
                *slot = None;
                rows_removed += 1;
                changed = true;
                continue;
            }
            if row.terms.len() == 1 {
                // Singleton row: a·y = b fixes y = b/a (and y ≥ 0 must hold). A
                // violated or conflicting singleton decides infeasibility only on
                // the exact backend; the f64 pass keeps the row for the simplex.
                let (col, coeff) = row.terms[0].clone();
                let value = row.rhs.div(&coeff);
                let violated = value.is_negative()
                    || matches!(&fixed[col], Some(existing) if !existing.sub(&value).is_zero());
                if violated {
                    if S::IS_EXACT {
                        infeasible = true;
                    } else {
                        suspect = true;
                        continue;
                    }
                } else if fixed[col].is_none() {
                    fixed[col] = Some(value);
                }
                *slot = None;
                rows_removed += 1;
                changed = true;
                continue;
            }
            // Forcing row: Σ aᵢ yᵢ = b with single-signed coefficients and y ≥ 0.
            let all_nonneg = row.terms.iter().all(|(_, a)| !a.is_negative());
            let all_nonpos = row.terms.iter().all(|(_, a)| !a.is_positive());
            if (all_nonneg && row.rhs.is_negative()) || (all_nonpos && row.rhs.is_positive()) {
                // The left side cannot reach the right side's sign.
                if S::IS_EXACT {
                    infeasible = true;
                    *slot = None;
                    rows_removed += 1;
                    changed = true;
                } else {
                    suspect = true;
                }
                continue;
            }
            if (all_nonneg || all_nonpos) && row.rhs.is_zero() {
                if row.terms.iter().any(|(col, _)| {
                    matches!(&fixed[*col], Some(existing) if !existing.is_zero())
                }) {
                    // Conflicts with an earlier fix: infeasible on the exact
                    // backend, the simplex's problem otherwise.
                    if S::IS_EXACT {
                        infeasible = true;
                        *slot = None;
                        rows_removed += 1;
                        changed = true;
                    } else {
                        suspect = true;
                    }
                    continue;
                }
                for (col, _) in &row.terms {
                    if fixed[*col].is_none() {
                        fixed[*col] = Some(S::zero());
                    }
                }
                *slot = None;
                rows_removed += 1;
                changed = true;
                continue;
            }
        }
        if infeasible || suspect {
            break;
        }
        if changed {
            continue;
        }
        // The classical reductions reached a fixpoint. One shot of the
        // difference-bound prefilter: propagate the rows that encode difference
        // constraints through a Bellman–Ford scan, which can prove infeasibility
        // (negative cycle) or force variables whose derived bounds coincide.
        // Exact backend only — an approximate negative cycle proves nothing, and
        // an approximate forced value would corrupt every later substitution.
        if difference_scanned || !S::IS_EXACT {
            break;
        }
        difference_scanned = true;
        let outcome = difference_prefilter(&rows, form);
        if outcome.infeasible {
            infeasible = true;
            break;
        }
        if outcome.fixes.is_empty() {
            break;
        }
        for (col, value) in outcome.fixes {
            if fixed[col].is_none() {
                fixed[col] = Some(value);
            }
        }
        // Loop once more: the forced values substitute through the system and can
        // cascade into fresh singleton/forcing reductions.
    }

    if suspect {
        return identity(form);
    }

    if infeasible {
        return Presolved {
            form: StandardForm {
                matrix: Vec::new(),
                rhs: Vec::new(),
                costs: Vec::new(),
                model_columns: form.model_columns.clone(),
            },
            kept_cols: Vec::new(),
            fixed: collect_fixed(&fixed),
            rows_removed,
            cols_removed: fixed.iter().filter(|f| f.is_some()).count(),
            verdict: Some(LpStatus::Infeasible),
        };
    }

    // Duplicate-row drop: hash on the (column, bit-pattern) term list, verify exactly.
    {
        use std::collections::HashMap;
        let mut seen: HashMap<Vec<(usize, u64)>, usize> = HashMap::new();
        let indices: Vec<usize> =
            rows.iter().enumerate().filter(|(_, r)| r.is_some()).map(|(i, _)| i).collect();
        for index in indices {
            // `indices` lists only live rows, so the map is infallible; a dead row
            // simply contributes no key.
            let Some(key) = rows[index].as_ref().map(|row| {
                let mut key: Vec<(usize, u64)> = row
                    .terms
                    .iter()
                    .map(|(c, a)| (*c, a.to_f64().to_bits()))
                    .collect();
                key.push((usize::MAX, row.rhs.to_f64().to_bits()));
                key
            }) else {
                continue;
            };
            match seen.get(&key) {
                Some(&kept) => {
                    // Bit-pattern collision is not proof; confirm term-by-term.
                    // Both rows are live here (duplicates drop `index`, never the
                    // kept row); a dead row degrades to "not the same" — no drop.
                    let same = match (rows[kept].as_ref(), rows[index].as_ref()) {
                        (Some(a), Some(b)) => {
                            a.terms.len() == b.terms.len()
                                && a.rhs.sub(&b.rhs).is_exactly_zero()
                                && a.terms.iter().zip(&b.terms).all(|((ca, va), (cb, vb))| {
                                    ca == cb && va.sub(vb).is_exactly_zero()
                                })
                        }
                        _ => false,
                    };
                    if same {
                        rows[index] = None;
                        rows_removed += 1;
                    }
                }
                None => {
                    seen.insert(key, index);
                }
            }
        }
    }

    // Dominated-row elimination. A surviving row with exactly one *zero-cost
    // singleton* column (a column appearing in no other row) encodes an inequality
    // over its remaining "core" terms: `core·y + c_s·y_s = b` with `y_s ≥ 0` is
    // `core·y ≤ b` when `c_s > 0` and `core·y ≥ b` when `c_s < 0`. Two such rows with
    // proportional cores and the same direction imply one another; the looser bound
    // is dropped (its orphaned slack column is then fixed to zero by the column
    // accounting below). Rows are grouped by a normalized-core hash and verified by
    // exact cross-multiplication before anything is removed, so a hash or rounding
    // collision can never drop a non-dominated row.
    {
        use std::collections::HashMap;
        let mut occurrence = vec![0usize; num_cols];
        for row in rows.iter().flatten() {
            for (col, _) in &row.terms {
                occurrence[*col] += 1;
            }
        }
        // Only synthesized slack/surplus columns may play the disposable-singleton
        // role. A *model* variable that happens to have zero cost and a single
        // occurrence is still part of the reported solution — dropping its row and
        // then fixing it to zero would return values that violate the original
        // constraint (e.g. `x + z = 10` with zero-cost `z` must keep `z = 10 − x`).
        let mut is_model_column = vec![false; num_cols];
        for (positive, negative) in &form.model_columns {
            if *positive < num_cols {
                is_model_column[*positive] = true;
            }
            if let Some(negative) = negative {
                if *negative < num_cols {
                    is_model_column[*negative] = true;
                }
            }
        }
        // (index, singleton position, direction Le?) of each inequality-shaped row.
        struct IneqRow<S> {
            index: usize,
            /// Core terms (the singleton removed), in column order.
            core: Vec<(usize, S)>,
            /// Core pivot = first core coefficient (the normalization divisor).
            pivot: S,
            /// `true` for `core·y ≤ b` (after normalizing by the pivot's sign).
            le: bool,
            /// The normalized bound `b / pivot`.
            bound: S,
        }
        let mut groups: HashMap<Vec<(usize, u64)>, Vec<IneqRow<S>>> = HashMap::new();
        for (index, slot) in rows.iter().enumerate() {
            let Some(row) = slot else { continue };
            let singletons: Vec<usize> = row
                .terms
                .iter()
                .enumerate()
                .filter(|(_, (col, _))| {
                    occurrence[*col] == 1
                        && !is_model_column[*col]
                        && form.costs[*col].is_exactly_zero()
                })
                .map(|(pos, _)| pos)
                .collect();
            // Exactly one zero-cost singleton and a non-empty core: an inequality.
            if singletons.len() != 1 || row.terms.len() < 2 {
                continue;
            }
            let singleton_pos = singletons[0];
            let slack_coeff = row.terms[singleton_pos].1.clone();
            let core: Vec<(usize, S)> = row
                .terms
                .iter()
                .enumerate()
                .filter(|(pos, _)| *pos != singleton_pos)
                .map(|(_, (col, a))| (*col, a.clone()))
                .collect();
            let pivot = core[0].1.clone();
            // Direction: `≤` iff the slack sign and the pivot sign agree (dividing
            // the inequality by a negative pivot flips it).
            let le = slack_coeff.is_positive() == pivot.is_positive();
            let bound = row.rhs.div(&pivot);
            let key: Vec<(usize, u64)> = core
                .iter()
                .map(|(col, a)| (*col, a.div(&pivot).to_f64().to_bits()))
                .collect();
            groups.entry(key).or_default().push(IneqRow { index, core, pivot, le, bound });
        }
        for group in groups.values_mut() {
            if group.len() < 2 {
                continue;
            }
            for direction in [true, false] {
                // The surviving (tightest) row so far for this direction.
                let mut keeper: Option<usize> = None; // position in `group`
                for candidate in 0..group.len() {
                    if group[candidate].le != direction
                        || rows[group[candidate].index].is_none()
                    {
                        continue;
                    }
                    let Some(kept) = keeper else {
                        keeper = Some(candidate);
                        continue;
                    };
                    // Exact proportionality: va/p_a = vb/p_b for every core column,
                    // checked by cross-multiplication (the pivot *sign* is already
                    // folded into the `le` direction, so either sign ratio is fine).
                    let (a, b) = (&group[kept], &group[candidate]);
                    let proportional = a.core.len() == b.core.len()
                        && a.core.iter().zip(&b.core).all(|((ca, va), (cb, vb))| {
                            ca == cb && va.mul(&b.pivot).sub(&vb.mul(&a.pivot)).is_exactly_zero()
                        });
                    if !proportional {
                        continue;
                    }
                    // Same direction, proportional cores: drop the looser bound.
                    let candidate_tighter = if direction {
                        b.bound.lt(&a.bound)
                    } else {
                        a.bound.lt(&b.bound)
                    };
                    let loser = if candidate_tighter { kept } else { candidate };
                    rows[group[loser].index] = None;
                    rows_removed += 1;
                    if candidate_tighter {
                        keeper = Some(candidate);
                    }
                }
            }
        }
    }

    // Column accounting: a column in no surviving row is free of constraints. With
    // non-negative cost it is fixed to zero; with *negative* cost it is kept — the
    // LP is then "infeasible or unbounded", and only the simplex (which first proves
    // feasibility in phase 1) can tell which, so presolve must not issue a
    // definitive `Unbounded` verdict here.
    let mut occurs = vec![false; num_cols];
    for row in rows.iter().flatten() {
        for (col, _) in &row.terms {
            occurs[*col] = true;
        }
    }
    for col in 0..num_cols {
        if fixed[col].is_some() || occurs[col] || form.costs[col].is_negative() {
            continue;
        }
        fixed[col] = Some(S::zero());
    }

    // Assemble the reduced problem over the surviving columns.
    let kept_cols: Vec<usize> = (0..num_cols).filter(|&c| fixed[c].is_none()).collect();
    let mut reduced_of = vec![usize::MAX; num_cols];
    for (reduced, &orig) in kept_cols.iter().enumerate() {
        reduced_of[orig] = reduced;
    }
    let mut matrix = Vec::new();
    let mut rhs_out = Vec::new();
    for row in rows.iter().flatten() {
        let mut dense = vec![S::zero(); kept_cols.len()];
        for (col, coeff) in &row.terms {
            dense[reduced_of[*col]] = coeff.clone();
        }
        let mut b = row.rhs.clone();
        // Substitutions can flip a right-hand side negative; re-normalize to b ≥ 0.
        if b.is_negative() {
            for cell in &mut dense {
                *cell = cell.neg();
            }
            b = b.neg();
        }
        matrix.push(dense);
        rhs_out.push(b);
    }
    let costs: Vec<S> = kept_cols.iter().map(|&c| form.costs[c].clone()).collect();
    let cols_removed = num_cols - kept_cols.len();
    // Remap the model-column layout into the reduced index space so the field stays
    // meaningful on the reduced form (a pair whose positive column was eliminated is
    // dropped; an eliminated negative half degrades to `None`). Nothing decides
    // soundness off this today, but a stale original-index copy would silently
    // mislead any future consumer of the reduced form.
    let model_columns: Vec<(usize, Option<usize>)> = form
        .model_columns
        .iter()
        .filter_map(|(positive, negative)| {
            let positive = *reduced_of.get(*positive)?;
            if positive == usize::MAX {
                return None;
            }
            let negative = negative
                .and_then(|n| reduced_of.get(n).copied())
                .filter(|&n| n != usize::MAX);
            Some((positive, negative))
        })
        .collect();
    Presolved {
        form: StandardForm {
            matrix,
            rhs: rhs_out,
            costs,
            model_columns,
        },
        kept_cols,
        fixed: collect_fixed(&fixed),
        rows_removed,
        cols_removed,
        verdict: None,
    }
}

/// What the difference-bound scan concluded.
struct DiffOutcome<S> {
    /// The difference subsystem (implied by the full system) contains a negative
    /// cycle: the LP is infeasible. Sound only in exact arithmetic.
    infeasible: bool,
    /// Variables whose derived upper and lower difference bounds coincide — every
    /// feasible solution of the full LP takes exactly these values.
    fixes: Vec<(usize, S)>,
}

/// Difference-bound prefilter over the surviving rows.
///
/// Classifies rows that encode single-variable bounds (`x ≤ c`, `x ≥ c`) or
/// two-variable difference bounds (`x − y ≤ c`, `x − y = c`) — in standard form
/// these are rows whose only disposable column is one zero-cost slack singleton
/// (direction from the slack's sign), or pure two-term equalities with opposite
/// equal-magnitude coefficients. The bounds induce the classical constraint graph
/// (edge `v → u` of weight `c` per `x_u − x_v ≤ c`, plus a virtual zero vertex
/// carrying `x ≥ 0` and the explicit variable bounds), which a queue-based
/// Bellman–Ford (SPFA) scan processes incrementally:
///
/// * a negative cycle proves the subsystem — hence the LP — infeasible;
/// * otherwise shortest paths from/to the zero vertex are exact upper/lower
///   bounds on each variable, and a variable whose bounds meet is *forced*: the
///   returned fix is substituted through the system by the caller's reduction
///   loop, exactly like a singleton row's.
///
/// Everything here is implied constraints only — no row is modified or removed,
/// so the scan can never weaken the system; rows made redundant by a forced fix
/// are cleaned up by the ordinary reductions afterwards.
fn difference_prefilter<S: Scalar>(
    rows: &[Option<Row<S>>],
    form: &StandardForm<S>,
) -> DiffOutcome<S> {
    let num_cols = form.costs.len();
    let no_op = DiffOutcome { infeasible: false, fixes: Vec::new() };

    // Occurrence counts and the model-column mask decide which columns may play
    // the disposable-slack role (same criterion as dominated-row elimination).
    let mut occurrence = vec![0usize; num_cols];
    for row in rows.iter().flatten() {
        for (col, _) in &row.terms {
            occurrence[*col] += 1;
        }
    }
    let mut is_model_column = vec![false; num_cols];
    for (positive, negative) in &form.model_columns {
        if *positive < num_cols {
            is_model_column[*positive] = true;
        }
        if let Some(negative) = negative {
            if *negative < num_cols {
                is_model_column[*negative] = true;
            }
        }
    }

    // Extract difference edges. `None` is the virtual zero vertex; an edge
    // `(from, to, w)` encodes `x_to − x_from ≤ w` (with `x_None ≡ 0`).
    let mut raw_edges: Vec<(Option<usize>, Option<usize>, S)> = Vec::new();
    for row in rows.iter().flatten() {
        let slacks: Vec<usize> = row
            .terms
            .iter()
            .enumerate()
            .filter(|(_, (col, _))| {
                occurrence[*col] == 1
                    && !is_model_column[*col]
                    && form.costs[*col].is_exactly_zero()
            })
            .map(|(pos, _)| pos)
            .collect();
        // Each entry is one `core · y ≤ bound` inequality implied by the row.
        let mut inequalities: Vec<(Vec<(usize, S)>, S)> = Vec::new();
        if slacks.len() == 1 && row.terms.len() >= 2 {
            // `core·y + c_s·s = b`, `s ≥ 0`: an inequality whose direction follows
            // the slack's sign (normalize to `≤` by negating when `c_s < 0`).
            let slack_coeff = &row.terms[slacks[0]].1;
            let core: Vec<(usize, S)> = row
                .terms
                .iter()
                .enumerate()
                .filter(|(pos, _)| *pos != slacks[0])
                .map(|(_, (col, a))| (*col, a.clone()))
                .collect();
            if slack_coeff.is_positive() {
                inequalities.push((core, row.rhs.clone()));
            } else {
                let negated = core.iter().map(|(col, a)| (*col, a.neg())).collect();
                inequalities.push((negated, row.rhs.neg()));
            }
        } else if slacks.is_empty() {
            // A pure equality is both inequalities at once.
            let core: Vec<(usize, S)> = row.terms.clone();
            let negated: Vec<(usize, S)> =
                core.iter().map(|(col, a)| (*col, a.neg())).collect();
            inequalities.push((core, row.rhs.clone()));
            inequalities.push((negated, row.rhs.neg()));
        }
        for (core, bound) in inequalities {
            match core.as_slice() {
                // `a·x ≤ b`: an explicit upper (a > 0) or lower (a < 0) bound.
                [(col, a)] => {
                    if a.is_positive() {
                        raw_edges.push((None, Some(*col), bound.div(a)));
                    } else {
                        raw_edges.push((Some(*col), None, bound.div(a).neg()));
                    }
                }
                // `a·u − a·v ≤ b`: a difference bound (only exact opposite
                // coefficients qualify; anything else is not a difference row).
                [(u, a), (v, c)] => {
                    if !a.add(c).is_exactly_zero() {
                        continue;
                    }
                    if a.is_positive() {
                        raw_edges.push((Some(*v), Some(*u), bound.div(a)));
                    } else {
                        raw_edges.push((Some(*u), Some(*v), bound.div(c)));
                    }
                }
                _ => {}
            }
        }
    }
    if raw_edges.is_empty() {
        return no_op;
    }

    // Compact node numbering: node 0 is the virtual zero vertex.
    let mut node_of = vec![usize::MAX; num_cols];
    let mut col_of_node: Vec<usize> = Vec::new();
    let mut node = |col: Option<usize>, node_of: &mut Vec<usize>| -> usize {
        match col {
            None => 0,
            Some(col) => {
                if node_of[col] == usize::MAX {
                    col_of_node.push(col);
                    node_of[col] = col_of_node.len();
                }
                node_of[col]
            }
        }
    };
    let mut edges: Vec<(usize, usize, S)> = Vec::new();
    for (from, to, weight) in raw_edges {
        let from = node(from, &mut node_of);
        let to = node(to, &mut node_of);
        edges.push((from, to, weight));
    }
    let num_nodes = col_of_node.len() + 1;
    // Implicit `x ≥ 0` on every participating column: edge `col → 0` of weight 0.
    for n in 1..num_nodes {
        edges.push((n, 0, S::zero()));
    }

    // SPFA from the zero vertex. In the *reverse* graph every node is reachable
    // (the implicit non-negativity edges reverse into `0 → col`), so the reverse
    // scan doubles as a complete negative-cycle detector: any negative cycle is a
    // negative cycle of the reverse graph too, and reachable there.
    let spfa = |forward: bool| -> Option<Vec<Option<S>>> {
        let mut adjacency: Vec<Vec<(usize, S)>> = vec![Vec::new(); num_nodes];
        for (from, to, weight) in &edges {
            if forward {
                adjacency[*from].push((*to, weight.clone()));
            } else {
                adjacency[*to].push((*from, weight.clone()));
            }
        }
        let mut dist: Vec<Option<S>> = vec![None; num_nodes];
        let mut in_queue = vec![false; num_nodes];
        let mut relaxations = vec![0usize; num_nodes];
        let mut queue = std::collections::VecDeque::new();
        dist[0] = Some(S::zero());
        queue.push_back(0usize);
        in_queue[0] = true;
        while let Some(u) = queue.pop_front() {
            in_queue[u] = false;
            // Nodes are enqueued only after their distance is set; an unset
            // distance (impossible) just skips the node instead of panicking.
            let Some(du) = dist[u].clone() else { continue };
            for (v, weight) in &adjacency[u] {
                let candidate = du.add(weight);
                let better = match &dist[*v] {
                    None => true,
                    Some(existing) => candidate.lt(existing),
                };
                if !better {
                    continue;
                }
                relaxations[*v] += 1;
                if relaxations[*v] > num_nodes {
                    // A node relaxed more than |V| times lies on (or behind) a
                    // negative cycle.
                    return None;
                }
                dist[*v] = Some(candidate);
                if !in_queue[*v] {
                    queue.push_back(*v);
                    in_queue[*v] = true;
                }
            }
        }
        Some(dist)
    };

    // Reverse first: complete cycle detection (see above).
    let Some(reverse) = spfa(false) else {
        return DiffOutcome { infeasible: true, fixes: Vec::new() };
    };
    // Forward: upper bounds for nodes reachable from the zero vertex. A negative
    // cycle here would already have been caught, but the guard stays sound either
    // way (a relaxation blow-up is a negative cycle by the same argument).
    let Some(forward) = spfa(true) else {
        return DiffOutcome { infeasible: true, fixes: Vec::new() };
    };

    let mut fixes = Vec::new();
    let mut infeasible = false;
    for n in 1..num_nodes {
        let Some(upper) = &forward[n] else { continue };
        let Some(to_zero) = &reverse[n] else { continue };
        // Shortest path `col → 0` of weight w means `0 − x ≤ w`, i.e. `x ≥ −w`.
        let lower = to_zero.neg();
        if upper.lt(&lower) {
            // ub < lb is a negative cycle through the zero vertex; defensive only.
            infeasible = true;
            break;
        }
        if upper.sub(&lower).is_exactly_zero() && !upper.is_negative() {
            fixes.push((col_of_node[n - 1], upper.clone()));
        }
    }
    if infeasible {
        return DiffOutcome { infeasible: true, fixes: Vec::new() };
    }
    DiffOutcome { infeasible: false, fixes }
}

fn collect_fixed<S: Scalar>(fixed: &[Option<S>]) -> Vec<(usize, S)> {
    fixed
        .iter()
        .enumerate()
        .filter_map(|(col, value)| value.clone().map(|v| (col, v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_numeric::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    fn form(matrix: Vec<Vec<Rational>>, rhs: Vec<Rational>, costs: Vec<Rational>) -> StandardForm<Rational> {
        StandardForm { matrix, rhs, costs, model_columns: Vec::new() }
    }

    #[test]
    fn singleton_row_fixes_and_substitutes() {
        // 2x = 6 (x = 3), x + y = 5 (y = 2 via cascade's singleton), minimize y.
        let f = form(
            vec![vec![r(2, 1), r(0, 1)], vec![r(1, 1), r(1, 1)]],
            vec![r(6, 1), r(5, 1)],
            vec![r(0, 1), r(1, 1)],
        );
        let pre = presolve(&f);
        assert_eq!(pre.verdict, None);
        assert_eq!(pre.form.matrix.len(), 0, "both rows resolve by substitution");
        let values = pre.restore(&[], 2);
        assert_eq!(values, vec![r(3, 1), r(2, 1)]);
        assert_eq!(pre.rows_removed, 2);
        assert_eq!(pre.cols_removed, 2);
    }

    #[test]
    fn negative_singleton_is_infeasible() {
        // x = -1 contradicts x >= 0.
        let f = form(vec![vec![r(1, 1)]], vec![r(-1, 1)], vec![r(0, 1)]);
        assert_eq!(presolve(&f).verdict, Some(LpStatus::Infeasible));
    }

    #[test]
    fn forcing_row_zeroes_columns() {
        // x + 2y = 0 with x,y >= 0 forces x = y = 0; the second row then decides z.
        let f = form(
            vec![
                vec![r(1, 1), r(2, 1), r(0, 1)],
                vec![r(1, 1), r(0, 1), r(1, 1)],
            ],
            vec![r(0, 1), r(4, 1)],
            vec![r(0, 1), r(0, 1), r(1, 1)],
        );
        let pre = presolve(&f);
        assert_eq!(pre.verdict, None);
        let values = pre.restore(&[], 3);
        assert_eq!(values, vec![Rational::zero(), Rational::zero(), r(4, 1)]);
    }

    #[test]
    fn conflicting_fixes_are_infeasible() {
        // x = 2 and x = 3.
        let f = form(
            vec![vec![r(1, 1)], vec![r(1, 1)]],
            vec![r(2, 1), r(3, 1)],
            vec![r(1, 1)],
        );
        assert_eq!(presolve(&f).verdict, Some(LpStatus::Infeasible));
    }

    #[test]
    fn duplicate_rows_are_dropped() {
        let row = vec![r(1, 1), r(1, 1), r(1, 1)];
        let f = form(
            vec![row.clone(), row.clone(), row],
            vec![r(4, 1), r(4, 1), r(4, 1)],
            vec![r(1, 1), r(1, 1), r(0, 1)],
        );
        let pre = presolve(&f);
        assert_eq!(pre.verdict, None);
        assert_eq!(pre.form.matrix.len(), 1);
        assert_eq!(pre.rows_removed, 2);
    }

    #[test]
    fn empty_column_with_negative_cost_is_kept_for_the_simplex() {
        // The system might be infeasible or unbounded — presolve cannot tell, so the
        // column must survive into the reduced problem with no verdict.
        let f = form(
            vec![vec![r(1, 1), r(1, 1), r(0, 1)]],
            vec![r(1, 1)],
            vec![r(0, 1), r(1, 1), r(-1, 1)],
        );
        let pre = presolve(&f);
        assert_eq!(pre.verdict, None);
        assert!(pre.kept_cols.contains(&2));
    }

    #[test]
    fn empty_column_with_nonnegative_cost_is_fixed_to_zero() {
        // Column 2 appears in no row; with cost ≥ 0 it is fixed to zero.
        let f = form(
            vec![vec![r(1, 1), r(1, 1), r(0, 1)]],
            vec![r(1, 1)],
            vec![r(0, 1), r(1, 1), r(1, 1)],
        );
        let pre = presolve(&f);
        assert_eq!(pre.verdict, None);
        assert_eq!(pre.kept_cols, vec![0, 1]);
        assert_eq!(pre.cols_removed, 1);
        let values = pre.restore(&[r(1, 1), Rational::zero()], 3);
        assert_eq!(values, vec![r(1, 1), Rational::zero(), Rational::zero()]);
    }

    /// Dominated rows with identical (proportional) support: `x + y ≤ 10` (via slack
    /// s1) makes `2x + 2y ≤ 30` (via slack s2) redundant — the looser row must go.
    #[test]
    fn dominated_le_row_is_eliminated() {
        // Columns: x, y, s1, s2. Minimize -x (so neither slack has a cost).
        let f = form(
            vec![
                vec![r(1, 1), r(1, 1), r(1, 1), r(0, 1)],
                vec![r(2, 1), r(2, 1), r(0, 1), r(1, 1)],
            ],
            vec![r(10, 1), r(30, 1)],
            vec![r(-1, 1), r(0, 1), r(0, 1), r(0, 1)],
        );
        let pre = presolve(&f);
        assert_eq!(pre.verdict, None);
        assert_eq!(pre.form.matrix.len(), 1, "the dominated row must be dropped");
        assert_eq!(pre.rows_removed, 1);
        // The orphaned slack s2 is fixed to zero by the column accounting.
        assert!(pre.fixed.iter().any(|(col, v)| *col == 3 && v.is_zero()));
        // The surviving row is the *tight* one (rhs 10, not 30).
        assert_eq!(pre.form.rhs[0], r(10, 1));
    }

    /// The `≥` direction: `x ≥ 2` (surplus −s1) dominates `2x ≥ 2`, i.e. `x ≥ 1`.
    #[test]
    fn dominated_ge_row_is_eliminated_keeping_the_larger_bound() {
        // Columns: x, s1, s2. Minimize x.
        let f = form(
            vec![
                vec![r(1, 1), r(-1, 1), r(0, 1)],
                vec![r(2, 1), r(0, 1), r(-1, 1)],
            ],
            vec![r(2, 1), r(2, 1)],
            vec![r(1, 1), r(0, 1), r(0, 1)],
        );
        let pre = presolve(&f);
        assert_eq!(pre.verdict, None);
        assert_eq!(pre.form.matrix.len(), 1);
        assert_eq!(pre.rows_removed, 1);
        assert_eq!(pre.form.rhs[0], r(2, 1), "the x ≥ 2 row survives");
        // The reduced LP still has the right optimum: x = 2.
        let deadline = crate::deadline::Deadline::unlimited();
        let solution = crate::simplex::solve_standard_form(&f, &deadline, None, true);
        assert_eq!(solution.status, LpStatus::Optimal);
        assert_eq!(solution.values[0], r(2, 1));
    }

    /// Opposite directions (`x ≤ 10` and `x ≥ 2`) must both survive: they bound a
    /// range, neither implies the other.
    #[test]
    fn opposite_direction_rows_are_not_dominated() {
        let f = form(
            vec![
                vec![r(1, 1), r(1, 1), r(0, 1)],
                vec![r(1, 1), r(0, 1), r(-1, 1)],
            ],
            vec![r(10, 1), r(2, 1)],
            vec![r(1, 1), r(0, 1), r(0, 1)],
        );
        let pre = presolve(&f);
        assert_eq!(pre.form.matrix.len(), 2, "a range is not a dominance pair");
    }

    /// A zero-cost *model* variable that occurs in a single row is not a slack: its
    /// value is part of the reported solution, so its row must never be dropped as
    /// dominated (regression: `x + z = 10` with zero-cost `z` once lost `z = 2`,
    /// returning values that violated the equality).
    #[test]
    fn model_columns_never_play_the_slack_role() {
        use crate::problem::{ConstraintOp, LpProblem, VarKind};
        use dca_numeric::Rational as Q;
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::NonNegative);
        let z = lp.add_var("z", VarKind::NonNegative);
        lp.add_constraint(vec![(x, r(1, 1)), (z, r(1, 1))], ConstraintOp::Eq, r(10, 1));
        lp.add_constraint(vec![(x, r(2, 1))], ConstraintOp::Le, r(16, 1));
        lp.set_objective(vec![(x, r(-1, 1))]);
        for solution in [lp.solve_exact(), lp.solve_certified()] {
            assert_eq!(solution.status, LpStatus::Optimal);
            assert_eq!(solution.value(x), r(8, 1));
            assert_eq!(solution.value(z), r(2, 1), "z is determined by the equality");
            assert_eq!(
                &solution.value(x) + &solution.value(z),
                Q::from_int(10),
                "the reported values must satisfy x + z = 10"
            );
        }
    }

    /// A slack with a non-zero objective coefficient is not a pure slack; the row it
    /// guards must not be treated as a droppable inequality.
    #[test]
    fn costed_singletons_block_dominated_row_elimination() {
        let f = form(
            vec![
                vec![r(1, 1), r(1, 1), r(0, 1)],
                vec![r(2, 1), r(0, 1), r(1, 1)],
            ],
            vec![r(10, 1), r(30, 1)],
            vec![r(1, 1), r(0, 1), r(5, 1)],
        );
        let pre = presolve(&f);
        assert_eq!(pre.form.matrix.len(), 2, "costed slack keeps its row");
    }

    /// `x − y ≤ −1` and `y − x ≤ −1` form a negative cycle (their sum demands
    /// `0 ≤ −2`): the difference prefilter must conclude infeasibility before any
    /// simplex runs.
    #[test]
    fn difference_negative_cycle_is_infeasible() {
        // Columns: x, y, s1, s2 (zero-cost slacks).
        let f = form(
            vec![
                vec![r(1, 1), r(-1, 1), r(1, 1), r(0, 1)],
                vec![r(-1, 1), r(1, 1), r(0, 1), r(1, 1)],
            ],
            vec![r(-1, 1), r(-1, 1)],
            vec![r(1, 1), r(1, 1), r(0, 1), r(0, 1)],
        );
        assert_eq!(presolve(&f).verdict, Some(LpStatus::Infeasible));
    }

    /// `x ≤ 5` and `x ≥ 5` pin `x = 5`; the prefilter forces the value and the
    /// cascade then resolves both slack rows, leaving nothing for the simplex.
    #[test]
    fn coinciding_difference_bounds_force_the_variable() {
        // Columns: x, s1 (for ≤), s2 (for ≥).
        let f = form(
            vec![
                vec![r(1, 1), r(1, 1), r(0, 1)],
                vec![r(1, 1), r(0, 1), r(-1, 1)],
            ],
            vec![r(5, 1), r(5, 1)],
            vec![r(1, 1), r(0, 1), r(0, 1)],
        );
        let pre = presolve(&f);
        assert_eq!(pre.verdict, None);
        assert_eq!(pre.form.matrix.len(), 0, "the forced value resolves both rows");
        let values = pre.restore(&[], 3);
        assert_eq!(values[0], r(5, 1));
    }

    /// Transitive chains: `x − y ≤ 2`, `y ≤ 3`, `x ≥ 5` force `x = 5` *and* `y = 3`
    /// even though no single row pins either variable — the fix only emerges from
    /// the Bellman–Ford propagation across rows.
    #[test]
    fn difference_chain_forces_transitively() {
        // Columns: x, y, s1, s2, s3.
        let f = form(
            vec![
                vec![r(1, 1), r(-1, 1), r(1, 1), r(0, 1), r(0, 1)],
                vec![r(0, 1), r(1, 1), r(0, 1), r(1, 1), r(0, 1)],
                vec![r(1, 1), r(0, 1), r(0, 1), r(0, 1), r(-1, 1)],
            ],
            vec![r(2, 1), r(3, 1), r(5, 1)],
            vec![r(1, 1), r(1, 1), r(0, 1), r(0, 1), r(0, 1)],
        );
        let pre = presolve(&f);
        assert_eq!(pre.verdict, None);
        let values = pre.restore(&vec![Rational::zero(); pre.kept_cols.len()], 5);
        assert_eq!(values[0], r(5, 1), "x is pinned by x ≥ 5 and x ≤ y + 2 ≤ 5");
        assert_eq!(values[1], r(3, 1), "y is pinned by y ≤ 3 and y ≥ x − 2 = 3");
    }

    /// A satisfiable difference system must pass through untouched: bounds that do
    /// not coincide fix nothing, and no verdict is issued.
    #[test]
    fn slack_difference_bounds_leave_feasible_systems_alone() {
        // x − y ≤ 2, x ≥ 1: feasible with slack, nothing forced.
        let f = form(
            vec![
                vec![r(1, 1), r(-1, 1), r(1, 1), r(0, 1)],
                vec![r(1, 1), r(0, 1), r(0, 1), r(-1, 1)],
            ],
            vec![r(2, 1), r(1, 1)],
            vec![r(1, 1), r(1, 1), r(0, 1), r(0, 1)],
        );
        let pre = presolve(&f);
        assert_eq!(pre.verdict, None);
        assert_eq!(pre.form.matrix.len(), 2, "no row may be dropped");
        // The reduced LP still solves to the true optimum x = 1, y = 0.
        let deadline = crate::deadline::Deadline::unlimited();
        let solution = crate::simplex::solve_standard_form(&f, &deadline, None, true);
        assert_eq!(solution.status, LpStatus::Optimal);
        assert_eq!(solution.values[0], r(1, 1));
    }

    #[test]
    fn map_cols_translates_and_drops() {
        let f = form(
            vec![vec![r(1, 1), r(0, 1), r(2, 1)], vec![r(0, 1), r(1, 1), r(0, 1)]],
            vec![r(1, 1), r(0, 1)],
            vec![r(0, 1), r(0, 1), r(0, 1)],
        );
        // Row 2 is the singleton y = 0, so column 1 is eliminated.
        let pre = presolve(&f);
        assert_eq!(pre.kept_cols, vec![0, 2]);
        assert_eq!(pre.map_cols(&[0, 1, 2]), vec![0, 1]);
    }
}
