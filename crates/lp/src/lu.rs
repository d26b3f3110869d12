//! Markowitz-ordered sparse LU factorization over exact rationals.
//!
//! The basis certifier (see [`crate::certify`]) has to factorize one candidate basis
//! `B` in exact arithmetic per certification round, and the exact simplex
//! ([`crate::exact`]) every basis it starts from or refactorizes. The float
//! simplex's reinversion ([`crate::float`]) processes columns in a caller-given order
//! and pivots on the largest transformed magnitude — the right call for `f64`
//! stability, but irrelevant (magnitude) and fill-oblivious (order) for rationals,
//! where *fill-in is the entire cost*: every extra non-zero is a gcd-heavy rational
//! multiply in all later eliminations.
//!
//! This module runs a right-looking Gauss–Jordan elimination on a sparse working copy
//! of the basis with the classical **Markowitz pivot rule**: at each step it picks a
//! non-zero entry minimizing `(r_i − 1)(c_j − 1)` (the worst-case fill of that pivot),
//! searching the sparsest active columns first. The pivot column — as transformed by
//! the eliminations so far — is exactly the product-form eta of the existing
//! factorization machinery, so the result is a plain
//! [`Factorization`](crate::revised::Factorization) whose `ftran`/`btran` the
//! certifier reuses unchanged.
//!
//! No step scans the whole working matrix (Suhl & Suhl, "Computing sparse LU
//! factorizations for large-scale linear programming bases", 1990): an ordered set
//! of `(active count, column)` over the unprocessed columns yields the dependent
//! columns to drop and the [`CANDIDATE_COLS`] candidates from its front, and a
//! row-to-column index lists the columns the Jordan update must transform. A step
//! costs the candidates' entries, the pivot column, and the merge into each column
//! holding the pivot row, plus `O(log w)` per column whose count moves (`w` working
//! columns); columns are row-sorted, so pivot lookups are binary searches. The
//! pivot choices, their order and their tie-breaks are those of the plain
//! rescanning loop, which the tests keep as an oracle.
//!
//! Rank deficiency is handled the way the simplex does: structural columns whose
//! active entries are exhausted are dropped, and rows left unassigned at the end are
//! covered by artificial identity columns (`basis[row] ≥ n` — a certified solution
//! must carry *zero* in those rows).

use std::collections::BTreeSet;

use crate::revised::{Columns, Eta, Factorization};
use crate::scalar::Scalar;

/// How many of the sparsest active columns the pivot search examines per step
/// (Suhl-style bounded Markowitz search; beyond a handful the ordering quality gain
/// no longer pays for the scan). They are the first entries of the ordered
/// `(active count, column)` set, so taking them costs `O(log w + CANDIDATE_COLS)`,
/// not a sort of every unprocessed column.
const CANDIDATE_COLS: usize = 8;

/// Growth threshold for the exact simplex's incremental eta updates: a full
/// refactorization is worthwhile once the *weighted* eta size appended since the
/// last rebuild (non-zeros scaled by rational bit length, see
/// `crate::revised::Eta::weight`) exceeds this multiple of the basis fill itself,
/// because every FTRAN/BTRAN then spends most of its arithmetic on update debris
/// rather than the factorization proper. Weighting by bit length is what makes the
/// policy react to the dominant exact-arithmetic failure mode — fractions
/// compounding down a long eta chain while plain fill stays flat. The baseline is
/// floored at the row count so tiny near-identity factorizations (fill ≈ a handful
/// of entries) do not trigger rebuilds after every pivot.
const ETA_FILL_FACTOR: usize = 2;

/// Hard cap on etas accumulated between exact rebuilds: an absolute backstop that
/// bounds update-chain length even when the weighted-growth trigger stays quiet.
const ETA_COUNT_CAP: usize = 256;

/// Decides whether the exact simplex should replace its incrementally-updated
/// factorization (rank-1 eta appends per pivot) with a fresh Markowitz rebuild.
///
/// Exact arithmetic makes this purely a *cost* policy — the updated factorization is
/// exactly correct regardless (see the eta-update consistency fuzz in this module's
/// tests) — so the trigger is eta-file growth, not numerical drift: rebuild when the
/// appended weighted size exceeds [`ETA_FILL_FACTOR`] × the basis fill (floored at
/// `rows`), or when [`ETA_COUNT_CAP`] etas have accumulated since the last rebuild.
pub(crate) fn should_refactorize(
    etas_since: usize,
    eta_nnz_since: usize,
    base_fill: usize,
    rows: usize,
) -> bool {
    etas_since >= ETA_COUNT_CAP || eta_nnz_since > ETA_FILL_FACTOR * base_fill.max(rows)
}

/// One active column of the working matrix: sorted `(row, value)` non-zeros.
type SparseCol<S> = Vec<(usize, S)>;

/// Working copies of the distinct in-range preferred columns, in first-seen order,
/// with the column index each one stands for (`≥ n` for an artificial `e_{col−n}`).
fn working_columns<S: Scalar>(
    columns: &Columns<S>,
    basis_cols: &[usize],
) -> (Vec<SparseCol<S>>, Vec<usize>) {
    let m = columns.rows;
    let n = columns.cols.len();
    let mut work: Vec<SparseCol<S>> = Vec::new();
    let mut work_col_id: Vec<usize> = Vec::new();
    let mut seen = vec![false; n + m];
    for &col in basis_cols {
        if col >= n + m || seen[col] {
            continue;
        }
        seen[col] = true;
        let entries: SparseCol<S> = if col < n {
            columns.cols[col].clone()
        } else {
            vec![(col - n, S::one())]
        };
        work.push(entries);
        work_col_id.push(col);
    }
    (work, work_col_id)
}

/// Position of `row`'s entry in a row-sorted column, if it has one.
fn find_row<S>(col: &[(usize, S)], row: usize) -> Option<usize> {
    col.binary_search_by_key(&row, |(r, _)| *r).ok()
}

/// Factorizes the basis `{columns[j] : j ∈ basis_cols}` (deduplicated, in Markowitz
/// order) and pads uncovered rows with artificials. In the result, `basis[row]` is
/// the column assigned to `row`: a structural index, or `n + row'` for an
/// artificial filler; preferred columns that proved linearly dependent are absent.
pub(crate) fn factorize_markowitz<S: Scalar>(
    columns: &Columns<S>,
    basis_cols: &[usize],
) -> Factorization<S> {
    let m = columns.rows;
    let (mut work, work_col_id) = working_columns(columns, basis_cols);

    let mut factor = Factorization { etas: Vec::new(), basis: vec![usize::MAX; m] };
    let mut assigned = vec![false; m];
    let mut processed = vec![false; work.len()];

    // Active counts: `col_count[k]` = non-zeros of working column `k` in unassigned
    // rows; `row_count[i]` = non-zeros of row `i` across unprocessed working columns.
    // `row_cols[i]` lists every working column that has held a non-zero in row `i`:
    // an entry goes stale when exact cancellation removes that non-zero, and a column
    // refilled there afterwards is listed twice.
    let mut col_count: Vec<usize> = work.iter().map(Vec::len).collect();
    let mut row_count = vec![0usize; m];
    let mut row_cols: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (k, col) in work.iter().enumerate() {
        for (row, _) in col {
            row_count[*row] += 1;
            row_cols[*row].push(k);
        }
    }
    // The unprocessed columns ordered by `(col_count, k)`: the drops at its front,
    // the Markowitz candidates right after them.
    let mut active: BTreeSet<(usize, usize)> =
        col_count.iter().enumerate().map(|(k, &count)| (count, k)).collect();
    // `eliminated_at[j]` = the last step whose Jordan update transformed column `j`.
    let mut eliminated_at = vec![usize::MAX; work.len()];
    let mut merged: SparseCol<S> = Vec::new();

    for step in 0..work.len() {
        // Columns with no active entry are dependent on the ones already processed:
        // drop them now so the candidate scan never stalls on them.
        while let Some(&(0, k)) = active.first() {
            active.pop_first();
            processed[k] = true;
            for (row, _) in &work[k] {
                if !assigned[*row] {
                    row_count[*row] -= 1;
                }
            }
        }
        // Bounded Markowitz search: examine the `CANDIDATE_COLS` sparsest active
        // columns; within each, the unassigned row minimizing `row_count − 1`.
        let mut best: Option<(usize, usize, usize)> = None; // (cost, col k, row)
        for &(count, k) in active.iter().take(CANDIDATE_COLS) {
            for (row, _) in &work[k] {
                if assigned[*row] {
                    continue;
                }
                let cost = (count - 1) * (row_count[*row] - 1);
                let better = match best {
                    None => true,
                    Some((c, bk, br)) => {
                        cost < c || (cost == c && (k, *row) < (bk, br))
                    }
                };
                if better {
                    best = Some((cost, k, *row));
                }
                if cost == 0 {
                    break;
                }
            }
            if matches!(best, Some((0, ..))) {
                break;
            }
        }
        let Some((_, k, pivot_row)) = best else { break };

        // Build the eta from the pivot column's current (transformed) state. The
        // pivot was just selected from `work[k]`'s own entries, so the lookup is
        // infallible; a miss is treated like "no usable pivot" (rank deficiency)
        // rather than a panic.
        let Some(at) = find_row(&work[k], pivot_row) else { break };
        let pivot_value = work[k][at].1.clone();
        let others: Vec<(usize, S)> = work[k]
            .iter()
            .filter(|(row, _)| *row != pivot_row)
            .map(|(row, v)| (*row, v.clone()))
            .collect();
        let eta = Eta { pivot: pivot_row, pivot_value, others };

        // Retire the pivot column and row from the active counts.
        active.remove(&(col_count[k], k));
        processed[k] = true;
        for (row, _) in &work[k] {
            if !assigned[*row] {
                row_count[*row] -= 1;
            }
        }
        assigned[pivot_row] = true;
        factor.basis[pivot_row] = work_col_id[k];

        // Apply the eta to every other unprocessed column holding the pivot row
        // (Jordan elimination): x[pivot] := x[pivot]/p, then x[i] -= others[i] · x[pivot].
        // The row is assigned now, so its index list is never read again.
        for j in std::mem::take(&mut row_cols[pivot_row]) {
            if processed[j] || eliminated_at[j] == step {
                continue;
            }
            let col = &mut work[j];
            // A stale entry: the column's non-zero here cancelled.
            let Some(position) = find_row(col, pivot_row) else { continue };
            eliminated_at[j] = step;
            active.remove(&(col_count[j], j));
            let t = col[position].1.div(&eta.pivot_value);
            col[position].1 = t.clone();
            // The pivot row is now assigned, so this entry leaves the active counts.
            col_count[j] -= 1;
            if !eta.others.is_empty() {
                // Merge `col -= t · others` (both sorted by row).
                merged.clear();
                let (mut a, mut b) = (0usize, 0usize);
                while a < col.len() || b < eta.others.len() {
                    let next_a = col.get(a).map(|(row, _)| *row);
                    let next_b = eta.others.get(b).map(|(row, _)| *row);
                    match (next_a, next_b) {
                        (Some(ra), Some(rb)) if ra == rb => {
                            let value = col[a].1.sub(&eta.others[b].1.mul(&t));
                            if value.is_exactly_zero() {
                                // Exact cancellation: the entry leaves the matrix.
                                if !assigned[ra] {
                                    col_count[j] -= 1;
                                    row_count[ra] -= 1;
                                }
                            } else {
                                merged.push((ra, value));
                            }
                            a += 1;
                            b += 1;
                        }
                        (Some(ra), Some(rb)) if ra < rb => {
                            merged.push(col[a].clone());
                            a += 1;
                        }
                        (Some(_), None) => {
                            merged.push(col[a].clone());
                            a += 1;
                        }
                        (_, Some(rb)) => {
                            // Fill-in: a brand-new non-zero at row `rb`.
                            let value = eta.others[b].1.mul(&t).neg();
                            if !assigned[rb] {
                                col_count[j] += 1;
                                row_count[rb] += 1;
                                row_cols[rb].push(j);
                            }
                            merged.push((rb, value));
                            b += 1;
                        }
                        (None, None) => unreachable!(),
                    }
                }
                std::mem::swap(col, &mut merged);
            }
            active.insert((col_count[j], j));
        }

        factor.etas.push(eta);
    }

    pad_with_artificials(columns, &mut factor, &mut assigned);
    factor
}

/// Covers every row the elimination left unassigned with an artificial identity
/// column, transformed through the accumulated etas exactly like the simplex's
/// reinversion does.
fn pad_with_artificials<S: Scalar>(
    columns: &Columns<S>,
    factor: &mut Factorization<S>,
    assigned: &mut [bool],
) {
    let m = columns.rows;
    let n = columns.cols.len();
    let mut scratch = vec![S::zero(); m];
    for row in 0..m {
        if assigned[row] {
            continue;
        }
        let col = n + row;
        columns.scatter(col, &mut scratch);
        factor.ftran(&mut scratch);
        let pivot = (0..m).find(|&i| !assigned[i] && !scratch[i].is_exactly_zero());
        let Some(pivot_row) = pivot else {
            // Cannot happen for a genuine identity column, but stay defensive: leave
            // the row to a later artificial.
            continue;
        };
        let others: Vec<(usize, S)> = scratch
            .iter()
            .enumerate()
            .filter(|(i, v)| *i != pivot_row && !v.is_exactly_zero())
            .map(|(i, v)| (i, v.clone()))
            .collect();
        factor.etas.push(Eta {
            pivot: pivot_row,
            pivot_value: scratch[pivot_row].clone(),
            others,
        });
        factor.basis[pivot_row] = col;
        assigned[pivot_row] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::columns_from_dense;
    use dca_numeric::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    fn columns(matrix: &[Vec<Rational>]) -> Columns<Rational> {
        columns_from_dense(matrix, matrix.first().map_or(0, Vec::len))
    }

    /// The elimination loop `factorize_markowitz` replaced, kept as the oracle its
    /// indexed search must reproduce bit for bit: every step rescans all working
    /// columns for drops, sorts every unprocessed column to pick the candidates, and
    /// searches every unprocessed column for the pivot row.
    fn factorize_markowitz_reference<S: Scalar>(
        columns: &Columns<S>,
        basis_cols: &[usize],
    ) -> Factorization<S> {
        let m = columns.rows;
        let (mut work, work_col_id) = working_columns(columns, basis_cols);

        let mut factor = Factorization { etas: Vec::new(), basis: vec![usize::MAX; m] };
        let mut assigned = vec![false; m];
        let mut processed = vec![false; work.len()];

        // Active counts: `col_count[k]` = non-zeros of working column `k` in unassigned
        // rows; `row_count[i]` = non-zeros of row `i` across unprocessed working columns.
        let mut col_count: Vec<usize> = work.iter().map(Vec::len).collect();
        let mut row_count = vec![0usize; m];
        for col in &work {
            for (row, _) in col {
                row_count[*row] += 1;
            }
        }

        for _ in 0..work.len() {
            // Columns with no active entry are dependent on the ones already processed:
            // drop them now so the candidate scan never stalls on them.
            for k in 0..work.len() {
                if !processed[k] && col_count[k] == 0 {
                    processed[k] = true;
                    for (row, _) in &work[k] {
                        if !assigned[*row] {
                            row_count[*row] -= 1;
                        }
                    }
                }
            }
            // Bounded Markowitz search: examine the `CANDIDATE_COLS` sparsest active
            // columns; within each, the unassigned row minimizing `row_count − 1`.
            let mut candidates: Vec<usize> = (0..work.len()).filter(|&k| !processed[k]).collect();
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by_key(|&k| (col_count[k], k));
            candidates.truncate(CANDIDATE_COLS);
            let mut best: Option<(usize, usize, usize)> = None; // (cost, col k, row)
            for &k in &candidates {
                for (row, _) in &work[k] {
                    if assigned[*row] {
                        continue;
                    }
                    let cost = (col_count[k] - 1) * (row_count[*row] - 1);
                    let better = match best {
                        None => true,
                        Some((c, bk, br)) => {
                            cost < c || (cost == c && (k, *row) < (bk, br))
                        }
                    };
                    if better {
                        best = Some((cost, k, *row));
                    }
                    if cost == 0 {
                        break;
                    }
                }
                if matches!(best, Some((0, ..))) {
                    break;
                }
            }
            let Some((_, k, pivot_row)) = best else { break };

            // Build the eta from the pivot column's current (transformed) state. The
            // pivot was just selected from `work[k]`'s own entries, so the lookup is
            // infallible; a miss is treated like "no usable pivot" (rank deficiency)
            // rather than a panic.
            let pivot_entry = work[k]
                .iter()
                .find(|(row, _)| *row == pivot_row)
                .map(|(_, v)| v.clone());
            let Some(pivot_value) = pivot_entry else { break };
            let others: Vec<(usize, S)> = work[k]
                .iter()
                .filter(|(row, _)| *row != pivot_row)
                .map(|(row, v)| (*row, v.clone()))
                .collect();
            let eta = Eta { pivot: pivot_row, pivot_value, others };

            // Retire the pivot column and row from the active counts.
            processed[k] = true;
            for (row, _) in &work[k] {
                if !assigned[*row] {
                    row_count[*row] -= 1;
                }
            }
            assigned[pivot_row] = true;
            factor.basis[pivot_row] = work_col_id[k];

            // Apply the eta to every other unprocessed column (Jordan elimination):
            // x[pivot] := x[pivot]/p, then x[i] -= others[i] · x[pivot].
            for (j, col) in work.iter_mut().enumerate() {
                if processed[j] {
                    continue;
                }
                let Some(position) = col.iter().position(|(row, _)| *row == pivot_row) else {
                    continue;
                };
                let t = col[position].1.div(&eta.pivot_value);
                col[position].1 = t.clone();
                // The pivot row is now assigned, so this entry leaves the active counts.
                col_count[j] -= 1;
                if eta.others.is_empty() {
                    continue;
                }
                // Merge `col -= t · others` (both sorted by row).
                let mut merged: SparseCol<S> = Vec::with_capacity(col.len() + eta.others.len());
                let (mut a, mut b) = (0usize, 0usize);
                while a < col.len() || b < eta.others.len() {
                    let next_a = col.get(a).map(|(row, _)| *row);
                    let next_b = eta.others.get(b).map(|(row, _)| *row);
                    match (next_a, next_b) {
                        (Some(ra), Some(rb)) if ra == rb => {
                            let value = col[a].1.sub(&eta.others[b].1.mul(&t));
                            if value.is_exactly_zero() {
                                // Exact cancellation: the entry leaves the matrix.
                                if !assigned[ra] {
                                    col_count[j] -= 1;
                                    row_count[ra] -= 1;
                                }
                            } else {
                                merged.push((ra, value));
                            }
                            a += 1;
                            b += 1;
                        }
                        (Some(ra), Some(rb)) if ra < rb => {
                            merged.push(col[a].clone());
                            a += 1;
                        }
                        (Some(_), None) => {
                            merged.push(col[a].clone());
                            a += 1;
                        }
                        (_, Some(rb)) => {
                            // Fill-in: a brand-new non-zero at row `rb`.
                            let value = eta.others[b].1.mul(&t).neg();
                            if !assigned[rb] {
                                col_count[j] += 1;
                                row_count[rb] += 1;
                            }
                            merged.push((rb, value));
                            b += 1;
                        }
                        (None, None) => unreachable!(),
                    }
                }
                *col = merged;
            }

            factor.etas.push(eta);
        }

        pad_with_artificials(columns, &mut factor, &mut assigned);
        factor
    }

    /// xorshift64* with SplitMix64 seeding, the generator of `dca_ir::SmallRng`
    /// (which this crate does not depend on).
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Rng {
            let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            Rng(if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z })
        }

        fn below(&mut self, bound: usize) -> usize {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound as u64) as usize
        }

        /// A non-zero entry: from `{±1, ±2}` when `small` (so eliminations cancel
        /// exactly often), else a fraction with numerator up to 6 and denominator up
        /// to 4.
        fn entry(&mut self, small: bool) -> Rational {
            let (range, den) = if small { (2, 1) } else { (6, 1 + self.below(4) as i64) };
            let magnitude = 1 + self.below(range) as i64;
            r(if self.below(2) == 0 { magnitude } else { -magnitude }, den)
        }
    }

    /// The sparse column of a dense vector: ascending rows, exact zeros dropped.
    fn sparse(dense: &[Rational]) -> Vec<(usize, Rational)> {
        dense
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_exactly_zero())
            .map(|(row, v)| (row, v.clone()))
            .collect()
    }

    /// One grid case: a random sparse matrix of up to 60 rows (dense only up to 20)
    /// whose columns are random, combinations `s·a + t·b` (`s, t ∈ {±1, ±2}`) of
    /// earlier ones (rank deficiency, exact cancellation mid-elimination), or
    /// near-copies of an earlier one with one entry zeroed and one rewritten (a
    /// cancelled row that later eliminations refill); and a preferred list with
    /// duplicates, artificial indices `n..n+m` and out-of-range indices `≥ n+m`.
    fn grid_case(rng: &mut Rng) -> (Columns<Rational>, Vec<usize>) {
        let m = 1 + rng.below(60);
        let n = rng.below(2 * m + 2);
        let small = rng.below(2) == 0;
        let dense = m <= 20 && rng.below(3) == 0;
        let mut cols: Vec<Vec<(usize, Rational)>> = Vec::with_capacity(n);
        for j in 0..n {
            let mut col = vec![Rational::zero(); m];
            match rng.below(5) {
                0 | 1 if j >= 2 => {
                    for _ in 0..2 {
                        let (source, scale) = (rng.below(j), rng.entry(true));
                        for (row, value) in &cols[source] {
                            col[*row] = col[*row].add(&value.mul(&scale));
                        }
                    }
                }
                2 if j >= 1 => {
                    for (row, value) in &cols[rng.below(j)] {
                        col[*row] = value.clone();
                    }
                    col[rng.below(m)] = Rational::zero();
                    col[rng.below(m)] = rng.entry(small);
                }
                _ => {
                    let fill = if dense { 1 + rng.below(m) } else { 1 + rng.below(4.min(m)) };
                    for _ in 0..fill {
                        col[rng.below(m)] = rng.entry(small);
                    }
                }
            }
            cols.push(sparse(&col));
        }
        let cols = Columns { cols, rows: m };
        let preferred: Vec<usize> = if rng.below(3) == 0 {
            (0..n).collect()
        } else {
            (0..rng.below(n + m + 4)).map(|_| rng.below(n + m + 3)).collect()
        };
        (cols, preferred)
    }

    /// The indexed elimination makes the reference loop's pivot choices in the same
    /// order with the same tie-breaks: over a seeded grid of 4,000 sparse rational
    /// matrices, `basis` and every eta (pivot, pivot value, off-pivot entries in
    /// order) are equal entry by entry.
    #[test]
    fn indexed_search_matches_the_reference_loop_bit_for_bit() {
        for seed in 0..4000u64 {
            let mut rng = Rng::new(seed);
            let (cols, preferred) = grid_case(&mut rng);
            let fast = factorize_markowitz(&cols, &preferred);
            let slow = factorize_markowitz_reference(&cols, &preferred);
            assert_eq!(fast.basis, slow.basis, "seed {seed}: basis differs");
            assert_eq!(fast.etas.len(), slow.etas.len(), "seed {seed}: eta count differs");
            for (i, (a, b)) in fast.etas.iter().zip(&slow.etas).enumerate() {
                assert_eq!(a.pivot, b.pivot, "seed {seed}: eta {i} pivot differs");
                assert_eq!(a.pivot_value, b.pivot_value, "seed {seed}: eta {i} value differs");
                assert_eq!(a.others, b.others, "seed {seed}: eta {i} entries differ");
            }
        }
    }

    /// `B · ftran(e_i) = e_i` for every basis column: the factorization really is an
    /// inverse of the chosen basis.
    fn check_inverse(cols: &Columns<Rational>, lu: &Factorization<Rational>) {
        let m = cols.rows;
        let n = cols.cols.len();
        for j in 0..n {
            let mut d = vec![Rational::zero(); m];
            cols.scatter(j, &mut d);
            lu.ftran(&mut d);
            // Reconstruct B · d and compare with the original column.
            let mut reconstructed = vec![Rational::zero(); m];
            for (pos, &col) in lu.basis.iter().enumerate() {
                if d[pos].is_exactly_zero() {
                    continue;
                }
                if col < n {
                    for (row, value) in &cols.cols[col] {
                        reconstructed[*row] = reconstructed[*row].add(&value.mul(&d[pos]));
                    }
                } else {
                    reconstructed[col - n] = reconstructed[col - n].add(&d[pos]);
                }
            }
            let mut original = vec![Rational::zero(); m];
            cols.scatter(j, &mut original);
            assert_eq!(reconstructed, original, "column {j} does not reconstruct");
        }
    }

    /// Rows the factorization had to cover with artificial padding: every basis
    /// entry outside the preferred set is one.
    fn artificial_rows(lu: &Factorization<Rational>, preferred: &[usize]) -> usize {
        lu.basis.iter().filter(|col| !preferred.contains(col)).count()
    }

    /// Preferred columns that proved linearly dependent and were dropped.
    fn dropped_cols(lu: &Factorization<Rational>, preferred: &[usize]) -> usize {
        preferred.iter().filter(|col| !lu.basis.contains(col)).count()
    }

    #[test]
    fn factorizes_a_full_rank_basis_exactly() {
        let cols = columns(&[
            vec![r(2, 1), r(1, 1), r(0, 1)],
            vec![r(0, 1), r(1, 1), r(3, 1)],
            vec![r(1, 1), r(0, 1), r(1, 1)],
        ]);
        let lu = factorize_markowitz(&cols, &[0, 1, 2]);
        assert_eq!(artificial_rows(&lu, &[0, 1, 2]), 0);
        assert_eq!(dropped_cols(&lu, &[0, 1, 2]), 0);
        check_inverse(&cols, &lu);
        // ftran solves B x = b exactly: b = (3, 4, 2) → column sums check.
        let mut x = vec![r(3, 1), r(4, 1), r(2, 1)];
        lu.ftran(&mut x);
        let mut back = vec![Rational::zero(); 3];
        for (pos, &col) in lu.basis.iter().enumerate() {
            for (row, value) in &cols.cols[col] {
                back[*row] = back[*row].add(&value.mul(&x[pos]));
            }
        }
        assert_eq!(back, vec![r(3, 1), r(4, 1), r(2, 1)]);
    }

    #[test]
    fn dependent_columns_drop_and_artificials_pad() {
        // Column 1 = 2 · column 0; only one of them can pivot, the second row falls
        // back to an artificial.
        let cols = columns(&[
            vec![r(1, 1), r(2, 1)],
            vec![r(2, 1), r(4, 1)],
        ]);
        let lu = factorize_markowitz(&cols, &[0, 1]);
        assert_eq!(dropped_cols(&lu, &[0, 1]), 1);
        assert_eq!(artificial_rows(&lu, &[0, 1]), 1);
        check_inverse(&cols, &lu);
    }

    #[test]
    fn markowitz_prefers_sparse_pivots() {
        // A dense first column and a diagonal tail: the Markowitz order must pivot
        // the singleton columns first, so the dense column contributes exactly one
        // eta and total fill stays linear.
        let mut matrix = Vec::new();
        let size = 12usize;
        for i in 0..size {
            let mut row = vec![Rational::one()]; // dense column 0
            for j in 1..size {
                row.push(if i == j { r(3, 1) } else { Rational::zero() });
            }
            matrix.push(row);
        }
        let cols = columns(&matrix);
        let basis: Vec<usize> = (0..size).collect();
        let lu = factorize_markowitz(&cols, &basis);
        assert_eq!(artificial_rows(&lu, &basis), 0);
        check_inverse(&cols, &lu);
        // Singleton pivots produce 1-entry etas; only the dense column's eta is big.
        // Every entry is inline, so the weighted eta size is the plain non-zero count.
        let fill = lu.eta_nnz();
        assert!(fill <= 2 * size + size, "fill {fill} should stay linear in the dimension");
    }

    /// The simplex's incremental eta updates and a fresh Markowitz factorization are
    /// interchangeable: after every simulated pivot (`push_eta` on the transformed
    /// entering column), solving `B·x = b` through the updated eta file gives exactly
    /// the same per-column solution as refactorizing the current basis from scratch.
    /// This is the correctness contract behind [`should_refactorize`] being a pure
    /// *cost* policy — the fuzz drives 120 random pivots across 4 deterministic seeds
    /// and compares both `ftran` (primal) and `btran` (dual pricing) answers exactly.
    #[test]
    fn eta_updates_match_fresh_markowitz_factorization() {
        // xorshift-style LCG: deterministic, no external randomness.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        for seed in 0..4 {
            let m = 6 + seed as usize; // 6..=9 rows
            let n = 2 * m;
            // Sparse-ish random matrix with small rational entries.
            let mut matrix = vec![vec![Rational::zero(); n]; m];
            for row in matrix.iter_mut() {
                for value in row.iter_mut() {
                    if next() % 2 == 0 {
                        let num = next() % 7 - 3;
                        let den = next() % 3 + 1;
                        *value = r(num, den);
                    }
                }
            }
            let cols = columns(&matrix);
            // Start from the all-artificial basis (always nonsingular) and walk a
            // random pivot sequence, mirroring the simplex's update exactly:
            // d = B⁻¹·A_entering, replace the basis column at a row where d ≠ 0.
            let mut factor = Factorization {
                etas: Vec::new(),
                basis: (n..n + m).collect(),
            };
            let b: Vec<Rational> = (0..m).map(|i| r(next() % 9 - 4, i as i64 + 1)).collect();
            let costs: Vec<Rational> = (0..m).map(|_| r(next() % 5 - 2, 1)).collect();
            let mut pivots = 0;
            let mut attempts = 0;
            while pivots < 30 && attempts < 300 {
                attempts += 1;
                let entering = (next() as usize) % n;
                if factor.basis.contains(&entering) {
                    continue;
                }
                let mut d = vec![Rational::zero(); m];
                cols.scatter(entering, &mut d);
                factor.ftran(&mut d);
                // Any row with d ≠ 0 keeps the basis nonsingular; pick pseudo-randomly.
                let nonzero: Vec<usize> =
                    (0..m).filter(|&row| !d[row].is_exactly_zero()).collect();
                if nonzero.is_empty() {
                    continue; // dependent column: not a legal pivot
                }
                let leaving = nonzero[(next() as usize) % nonzero.len()];
                factor.basis[leaving] = entering;
                factor.push_eta(&d, leaving);
                pivots += 1;

                // Fresh factorization of the same basis set.
                let fresh = factorize_markowitz(&cols, &factor.basis);
                assert!(
                    artificial_rows(&fresh, &factor.basis) == 0
                        && dropped_cols(&fresh, &factor.basis) == 0,
                    "seed {seed}: pivoted basis must stay nonsingular"
                );
                // Primal: B x = b, compared per basis column (the two factorizations
                // may assign columns to different row positions).
                let mut via_eta = b.clone();
                factor.ftran(&mut via_eta);
                let mut via_fresh = b.clone();
                fresh.ftran(&mut via_fresh);
                for (pos, &col) in factor.basis.iter().enumerate() {
                    let fresh_pos = fresh
                        .basis
                        .iter()
                        .position(|&c| c == col)
                        .expect("same basis set");
                    assert_eq!(
                        via_eta[pos], via_fresh[fresh_pos],
                        "seed {seed} pivot {pivots}: primal solutions diverge on column {col}"
                    );
                }
                // Dual: y = c_B B⁻¹ with c permuted to each factorization's own row
                // assignment; the resulting y is basis-intrinsic and must agree.
                let cost_of = |col: usize| -> Rational {
                    // Deterministic per-column phase-2-style cost.
                    if col < n { costs[col % m].clone() } else { Rational::zero() }
                };
                let mut y_eta: Vec<Rational> =
                    factor.basis.iter().map(|&c| cost_of(c)).collect();
                factor.btran(&mut y_eta);
                let mut y_fresh: Vec<Rational> =
                    fresh.basis.iter().map(|&c| cost_of(c)).collect();
                fresh.btran(&mut y_fresh);
                assert_eq!(
                    y_eta, y_fresh,
                    "seed {seed} pivot {pivots}: dual vectors diverge"
                );
            }
            assert!(pivots >= 10, "seed {seed}: fuzz must exercise real pivots");
        }
    }

    #[test]
    fn btran_matches_ftran_duality() {
        let cols = columns(&[
            vec![r(1, 1), r(1, 1), r(0, 1), r(2, 1)],
            vec![r(0, 1), r(3, 1), r(1, 1), r(0, 1)],
            vec![r(2, 1), r(0, 1), r(0, 1), r(1, 1)],
            vec![r(0, 1), r(1, 1), r(1, 1), r(1, 1)],
        ]);
        let lu = factorize_markowitz(&cols, &[3, 0, 2, 1]);
        check_inverse(&cols, &lu);
        // y·A_j computed via btran equals c_B·(B⁻¹A_j) computed via ftran.
        let costs = vec![r(1, 1), r(-2, 1), r(0, 1), r(5, 1)];
        let mut y = costs.clone();
        lu.btran(&mut y);
        for j in 0..4 {
            let mut d = vec![Rational::zero(); 4];
            cols.scatter(j, &mut d);
            let via_btran = d
                .iter()
                .enumerate()
                .fold(Rational::zero(), |acc, (row, v)| acc.add(&y[row].mul(v)));
            cols.scatter(j, &mut d);
            lu.ftran(&mut d);
            let via_ftran = d
                .iter()
                .enumerate()
                .fold(Rational::zero(), |acc, (pos, v)| acc.add(&costs[pos].mul(v)));
            assert_eq!(via_btran, via_ftran, "duality breaks on column {j}");
        }
    }
}
