//! Sparse LU factorization of a simplex basis with Markowitz pivoting.
//!
//! The refinement LPs are extremely sparse (big-M indicator rows touch 2–3
//! structural columns, and most basis columns are unit logical columns), so
//! the basis matrix `B` is factorized as `P B Q = L U` by right-looking
//! Gaussian elimination where each pivot is chosen to minimise the
//! **Markowitz count** `(r_i - 1)(c_j - 1)` — the worst-case fill-in of the
//! elimination step — among entries that also pass a threshold test against
//! the largest magnitude in their column (stability). Unit columns and
//! singleton rows are eliminated with *zero* fill (and short-circuit the
//! pivot search — see [`LuFactors::factorize`]), so the typical refinement
//! basis factorizes in near-`O(nnz)` elimination work with
//! `nnz(L) + nnz(U)` close to `nnz(B)`.
//!
//! **Singleton index.** Most steps on a refinement basis eliminate a
//! singleton column, and the pivot rule takes the first one (in ascending
//! basis-slot order) whose entry is usable. Rather than rescanning every
//! slot from slot 0 at each step — `O(m²)` per factorization — the scratch
//! keeps a bitset with one bit per slot, set exactly when the slot is still
//! active and holds one entry. Every write to a column count or a done flag
//! re-derives that slot's bit, so the first usable singleton is found by
//! word scans over `m / 64` words, and it is the same `(slot, index)` the
//! full scan picks (builds with debug assertions check this at every step).
//! Steps without a usable singleton keep the bounded Markowitz scan.
//!
//! The factors support the two solves the revised simplex needs:
//!
//! * [`LuFactors::ftran`] — solve `B x = b` (entering column / basic values),
//! * [`LuFactors::btran`] — solve `Bᵀ y = c` (pricing / pivot rows),
//!
//! both in-place on a dense work vector, skipping zero positions so a sparse
//! right-hand side costs roughly the flops of its nonzero pattern.
//!
//! [`LuFactors`] is only a snapshot of one basis; pivot-by-pivot maintenance
//! (product-form eta updates, refactorization policy) lives in
//! [`crate::factor`].

use crate::factor::SparseMatrix;

use crate::tol::{
    LU_ABS_PIVOT_TOL as ABS_PIVOT_TOL, LU_DROP_TOL as DROP_TOL, LU_REL_PIVOT_TOL as REL_PIVOT_TOL,
};

/// How many of the sparsest active columns the pivot search inspects per
/// elimination step (Suhl-style bounded Markowitz search).
const SEARCH_COLS: usize = 4;

/// Sparse LU factors of a basis matrix `B` (`m × m`, given as `m` column
/// indices into a [`SparseMatrix`]), with row and column permutations chosen
/// by Markowitz pivoting.
///
/// Storage layout (all flattened, rebuilt in place by
/// [`factorize`](Self::factorize)):
///
/// * `L` is unit lower triangular in elimination order; column `k` holds the
///   multipliers of step `k` indexed by *original* row,
/// * `U` is upper triangular in elimination order; the column eliminated at
///   step `k` holds its above-diagonal entries indexed by *step*, and the
///   diagonal is the pivot sequence.
#[derive(Debug, Default)]
pub struct LuFactors {
    m: usize,
    /// Step -> original row eliminated at that step.
    pivot_rows: Vec<usize>,
    /// Step -> basis slot (position in the basis column list) eliminated.
    pivot_slots: Vec<usize>,
    /// Original row -> step at which it was eliminated.
    row_pos: Vec<usize>,
    /// Pivot values per step (the diagonal of `U`).
    pivots: Vec<f64>,
    // L columns per step: entries (original_row, multiplier).
    l_ptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    // U columns per step: entries (earlier_step, value).
    u_ptr: Vec<usize>,
    u_steps: Vec<usize>,
    u_vals: Vec<f64>,
    /// Dense scratch used by the solves (slot/step staging area).
    scratch: Vec<f64>,
}

/// Reusable working storage for [`LuFactors::factorize`]; keeping it outside
/// the factors lets a caller refactorize thousands of times without
/// re-allocating the elimination structures.
#[derive(Debug, Default)]
pub struct LuScratch {
    /// Active entries per basis slot: (original_row, value).
    cols: Vec<Vec<(usize, f64)>>,
    /// Per original row: slots whose column may contain it (superset; stale
    /// entries are skipped when consumed).
    row_slots: Vec<Vec<usize>>,
    /// Exact active-nonzero counts.
    row_count: Vec<usize>,
    col_count: Vec<usize>,
    row_done: Vec<bool>,
    col_done: Vec<bool>,
    /// Singleton index: bit `slot` is set exactly when the slot is active
    /// (`!col_done`) and `col_count == 1`. Kept in step with every
    /// `col_count` and `col_done` write via [`LuScratch::sync_singleton`].
    singletons: Vec<u64>,
    /// Dense index: position+1 of each row in the column currently being
    /// updated (0 = absent).
    pos_of_row: Vec<usize>,
    /// U columns under construction, per slot: entries (step, value).
    u_build: Vec<Vec<(usize, f64)>>,
}

impl LuScratch {
    /// Re-derive `slot`'s bit in the singleton index after its count or
    /// done flag changed.
    fn sync_singleton(&mut self, slot: usize) {
        let bit = 1u64 << (slot % 64);
        if !self.col_done[slot] && self.col_count[slot] == 1 {
            self.singletons[slot / 64] |= bit;
        } else {
            self.singletons[slot / 64] &= !bit;
        }
    }

    /// The live entry of singleton column `slot`: its entry on an active row
    /// with magnitude at least the absolute pivot tolerance, if any.
    fn live_singleton_entry(&self, slot: usize) -> Option<usize> {
        self.cols[slot]
            .iter()
            .position(|&(r, v)| !self.row_done[r] && v.abs() >= ABS_PIVOT_TOL)
    }

    /// The first singleton column in ascending slot order that has a live
    /// entry, found by word scans over the singleton index.
    fn first_live_singleton(&self) -> Option<(usize, usize)> {
        for (word_idx, &word) in self.singletons.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let slot = word_idx * 64 + bits.trailing_zeros() as usize;
                if let Some(idx) = self.live_singleton_entry(slot) {
                    return Some((slot, idx));
                }
                bits &= bits - 1;
            }
        }
        None
    }
}

impl LuFactors {
    /// Factorize the basis given by `basis` (slot -> column of `matrix`).
    /// Returns `false` when the basis is numerically or structurally singular
    /// (the factors are then unusable until the next successful call).
    pub fn factorize(
        &mut self,
        matrix: &SparseMatrix,
        basis: &[usize],
        ws: &mut LuScratch,
    ) -> bool {
        let m = matrix.num_rows();
        debug_assert_eq!(basis.len(), m);
        self.m = m;
        self.pivot_rows.clear();
        self.pivot_slots.clear();
        self.pivots.clear();
        self.row_pos.clear();
        self.row_pos.resize(m, usize::MAX);
        self.l_ptr.clear();
        self.l_ptr.push(0);
        self.l_rows.clear();
        self.l_vals.clear();
        self.scratch.resize(m, 0.0);

        // --- Load the working matrix. ---
        ws.cols.resize_with(m, Vec::new);
        ws.row_slots.resize_with(m, Vec::new);
        ws.u_build.resize_with(m, Vec::new);
        ws.row_count.clear();
        ws.row_count.resize(m, 0);
        ws.col_count.clear();
        ws.col_count.resize(m, 0);
        ws.row_done.clear();
        ws.row_done.resize(m, false);
        ws.col_done.clear();
        ws.col_done.resize(m, false);
        ws.singletons.clear();
        ws.singletons.resize(m.div_ceil(64), 0);
        ws.pos_of_row.clear();
        ws.pos_of_row.resize(m, 0);
        for slot in 0..m {
            ws.cols[slot].clear();
            ws.u_build[slot].clear();
        }
        for row in 0..m {
            ws.row_slots[row].clear();
        }
        for (slot, &col) in basis.iter().enumerate() {
            let (rows, vals) = matrix.column(col);
            for (&row, &val) in rows.iter().zip(vals) {
                if val == 0.0 {
                    continue;
                }
                ws.cols[slot].push((row, val));
                ws.row_slots[row].push(slot);
                ws.row_count[row] += 1;
            }
            ws.col_count[slot] = ws.cols[slot].len();
            ws.sync_singleton(slot);
            if ws.cols[slot].is_empty() {
                return false; // structurally singular: empty column
            }
        }
        if ws.row_count.contains(&0) {
            return false; // structurally singular: empty row
        }

        // --- Elimination: m Markowitz-pivoted steps. ---
        for step in 0..m {
            let Some((p_slot, p_idx)) = self.select_pivot(ws, m) else {
                return false; // no acceptable pivot: singular
            };
            let p_row = ws.cols[p_slot][p_idx].0;
            let p_val = ws.cols[p_slot][p_idx].1;
            self.pivot_rows.push(p_row);
            self.pivot_slots.push(p_slot);
            self.pivots.push(p_val);
            self.row_pos[p_row] = step;
            ws.row_done[p_row] = true;
            ws.col_done[p_slot] = true;
            ws.sync_singleton(p_slot);

            // L column: the pivot column's other active entries, scaled.
            let col = std::mem::take(&mut ws.cols[p_slot]);
            for &(row, val) in &col {
                if row == p_row || ws.row_done[row] {
                    continue;
                }
                self.l_rows.push(row);
                self.l_vals.push(val / p_val);
                ws.row_count[row] -= 1;
            }
            // lint: allow-panic(l_ptr starts as vec![0] and only ever grows)
            let l_start = *self.l_ptr.last().expect("l_ptr is never empty");
            let l_end = self.l_rows.len();
            self.l_ptr.push(l_end);
            ws.cols[p_slot] = col; // keep allocation (now logically dead)

            // Pivot row: walk the row's (possibly stale) slot list, record U
            // entries and remove them from the active columns.
            let row_slots = std::mem::take(&mut ws.row_slots[p_row]);
            let mut u_row: Vec<(usize, f64)> = Vec::with_capacity(row_slots.len());
            for &slot in &row_slots {
                if ws.col_done[slot] {
                    continue;
                }
                let Some(idx) = ws.cols[slot].iter().position(|&(r, _)| r == p_row) else {
                    continue; // stale
                };
                let (_, val) = ws.cols[slot].swap_remove(idx);
                ws.col_count[slot] -= 1;
                ws.sync_singleton(slot);
                u_row.push((slot, val));
                ws.u_build[slot].push((step, val));
            }
            ws.row_slots[p_row] = row_slots; // keep allocation

            // Rank-1 update: cols[j] -= l_col * u_j for every U-row entry.
            for &(slot, u_val) in &u_row {
                if u_val == 0.0 {
                    continue;
                }
                // Index the target column by row for the merge.
                for (idx, &(row, _)) in ws.cols[slot].iter().enumerate() {
                    ws.pos_of_row[row] = idx + 1;
                }
                for l_idx in l_start..l_end {
                    let row = self.l_rows[l_idx];
                    let delta = -self.l_vals[l_idx] * u_val;
                    let pos = ws.pos_of_row[row];
                    if pos == 0 {
                        ws.cols[slot].push((row, delta));
                        ws.pos_of_row[row] = ws.cols[slot].len();
                        ws.row_slots[row].push(slot);
                        ws.row_count[row] += 1;
                        ws.col_count[slot] += 1;
                        ws.sync_singleton(slot);
                    } else {
                        ws.cols[slot][pos - 1].1 += delta;
                    }
                }
                // Drop numerically cancelled entries and clear the index.
                let mut idx = 0;
                while idx < ws.cols[slot].len() {
                    let (row, val) = ws.cols[slot][idx];
                    ws.pos_of_row[row] = 0;
                    if val.abs() <= DROP_TOL {
                        ws.cols[slot].swap_remove(idx);
                        ws.col_count[slot] -= 1;
                        ws.row_count[row] -= 1;
                        ws.sync_singleton(slot);
                        // swap_remove moved an unvisited entry into idx; its
                        // pos_of_row entry is cleared when idx reaches it.
                    } else {
                        idx += 1;
                    }
                }
            }
        }

        // --- Flatten U in step order. ---
        self.u_ptr.clear();
        self.u_ptr.push(0);
        self.u_steps.clear();
        self.u_vals.clear();
        for step in 0..m {
            let slot = self.pivot_slots[step];
            for &(s, v) in &ws.u_build[slot] {
                self.u_steps.push(s);
                self.u_vals.push(v);
            }
            self.u_ptr.push(self.u_steps.len());
        }
        true
    }

    /// Markowitz pivot search: inspect up to [`SEARCH_COLS`] of the sparsest
    /// active columns and return the `(slot, index_in_column)` of the entry
    /// with the lowest Markowitz count that passes the stability threshold.
    ///
    /// A *singleton* column (count 1 — a unit logical column or a column
    /// already reduced to one entry, the common case on the refinement
    /// bases) wins outright: its pivot has Markowitz cost 0 and cannot be
    /// beaten. The first one with a live entry in ascending slot order is
    /// read off the singleton index in `O(m / 64)` word scans. Only steps
    /// without one pay the `O(active)` scan for the sparsest columns —
    /// bounded Markowitz, not strict O(nnz), which is fine at the basis sizes
    /// the refinement MILPs produce.
    fn select_pivot(&self, ws: &LuScratch, m: usize) -> Option<(usize, usize)> {
        let singleton = ws.first_live_singleton();
        #[cfg(debug_assertions)]
        {
            // The index must pick what a scan of every active slot picks.
            let scanned = (0..m)
                .filter(|&slot| !ws.col_done[slot] && ws.col_count[slot] == 1)
                .find_map(|slot| ws.live_singleton_entry(slot).map(|idx| (slot, idx)));
            debug_assert_eq!(singleton, scanned, "singleton index out of step");
        }
        if singleton.is_some() {
            return singleton;
        }

        // One pass collecting the SEARCH_COLS smallest column counts
        // (insertion into a fixed-size array). Every singleton left is
        // numerically dead and is skipped.
        let mut chosen: [usize; SEARCH_COLS] = [usize::MAX; SEARCH_COLS];
        let mut n_chosen = 0usize;
        for slot in 0..m {
            if ws.col_done[slot] || ws.col_count[slot] == 1 {
                continue;
            }
            let mut insert = n_chosen;
            while insert > 0 && ws.col_count[slot] < ws.col_count[chosen[insert - 1]] {
                insert -= 1;
            }
            if insert < SEARCH_COLS {
                let end = (n_chosen + 1).min(SEARCH_COLS);
                for k in (insert + 1..end).rev() {
                    chosen[k] = chosen[k - 1];
                }
                chosen[insert] = slot;
                n_chosen = end;
            }
        }

        // Best threshold-passing entry of one column, by Markowitz cost then
        // pivot magnitude, folded into `best`/`best_mag`.
        let mut best: Option<(usize, usize, usize)> = None; // (slot, idx, cost)
        let mut best_mag = 0.0f64;
        let mut scan_column = |slot: usize, best: &mut Option<(usize, usize, usize)>| {
            let col = &ws.cols[slot];
            let col_max = col
                .iter()
                .filter(|&&(r, _)| !ws.row_done[r])
                .map(|&(_, v)| v.abs())
                .fold(0.0f64, f64::max);
            if col_max < ABS_PIVOT_TOL {
                return;
            }
            let threshold = (col_max * REL_PIVOT_TOL).max(ABS_PIVOT_TOL);
            for (idx, &(row, val)) in col.iter().enumerate() {
                if ws.row_done[row] || val.abs() < threshold {
                    continue;
                }
                let cost = (ws.row_count[row] - 1) * (ws.col_count[slot] - 1);
                let better = match *best {
                    None => true,
                    Some((_, _, c)) => cost < c || (cost == c && val.abs() > best_mag),
                };
                if better {
                    *best = Some((slot, idx, cost));
                    best_mag = val.abs();
                }
            }
        };
        for &slot in &chosen[..n_chosen] {
            scan_column(slot, &mut best);
        }
        if best.is_none() {
            // None of the sparsest columns had a stable entry: widen the
            // search to every active column (rare).
            for slot in (0..m).filter(|&s| !ws.col_done[s]) {
                scan_column(slot, &mut best);
            }
        }
        best.map(|(slot, idx, _)| (slot, idx))
    }

    /// Number of rows/columns of the factorized basis.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Total stored nonzeros (`L` off-diagonals + `U` off-diagonals +
    /// pivots) — the fill-in health metric reported by the solver stats.
    pub fn nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len() + self.pivots.len()
    }

    /// Solve `B x = b` in place: `x` enters holding `b` indexed by row and
    /// leaves holding the solution indexed by **basis slot**.
    pub fn ftran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        // Forward: L z = P b, in elimination order over original rows.
        for step in 0..self.m {
            let z = x[self.pivot_rows[step]];
            if z != 0.0 {
                for idx in self.l_ptr[step]..self.l_ptr[step + 1] {
                    x[self.l_rows[idx]] -= self.l_vals[idx] * z;
                }
            }
        }
        // Backward: U w = z, scatter form (skips zero solution entries).
        for step in (0..self.m).rev() {
            let w = x[self.pivot_rows[step]] / self.pivots[step];
            self.scratch[self.pivot_slots[step]] = w;
            if w != 0.0 {
                for idx in self.u_ptr[step]..self.u_ptr[step + 1] {
                    x[self.pivot_rows[self.u_steps[idx]]] -= self.u_vals[idx] * w;
                }
            }
        }
        x.copy_from_slice(&self.scratch[..self.m]);
    }

    /// Solve `Bᵀ y = c` in place: `x` enters holding `c` indexed by **basis
    /// slot** and leaves holding the solution indexed by row.
    pub fn btran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        // Forward: Uᵀ t = Qᵀ c (gather over each U column's earlier steps).
        for step in 0..self.m {
            let mut acc = x[self.pivot_slots[step]];
            for idx in self.u_ptr[step]..self.u_ptr[step + 1] {
                acc -= self.u_vals[idx] * self.scratch[self.u_steps[idx]];
            }
            self.scratch[step] = acc / self.pivots[step];
        }
        // Backward: Lᵀ (P y) = t (gather; every referenced row position is a
        // later, already-final step).
        for step in (0..self.m).rev() {
            let mut acc = self.scratch[step];
            for idx in self.l_ptr[step]..self.l_ptr[step + 1] {
                acc -= self.l_vals[idx] * self.scratch[self.row_pos[self.l_rows[idx]]];
            }
            self.scratch[step] = acc;
        }
        for step in 0..self.m {
            x[self.pivot_rows[step]] = self.scratch[step];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::SparseMatrix;
    use crate::tol::{ASSERT_TIGHT_TOL, ASSERT_TOL};

    fn matrix_from_dense(dense: &[&[f64]]) -> SparseMatrix {
        let m = dense.len();
        let n = dense[0].len();
        let cols: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|j| {
                (0..m)
                    .filter(|&i| dense[i][j] != 0.0)
                    .map(|i| (i, dense[i][j]))
                    .collect()
            })
            .collect();
        SparseMatrix::from_columns(m, &cols)
    }

    #[test]
    fn factorize_and_solve_small() {
        let mat = matrix_from_dense(&[&[2.0, 1.0, 0.0], &[0.0, 0.0, 3.0], &[4.0, 0.0, 1.0]]);
        let basis = [0usize, 1, 2];
        let mut lu = LuFactors::default();
        let mut ws = LuScratch::default();
        assert!(lu.factorize(&mat, &basis, &mut ws));

        // B x = b with b = (3, 6, 9): solve and check by substitution.
        let b = [3.0, 6.0, 9.0];
        let mut x = b;
        lu.ftran(&mut x);
        #[allow(clippy::needless_range_loop)]
        for i in 0..3 {
            let mut acc = 0.0;
            for (slot, &col) in basis.iter().enumerate() {
                let (rows, vals) = mat.column(col);
                for (&r, &v) in rows.iter().zip(vals) {
                    if r == i {
                        acc += v * x[slot];
                    }
                }
            }
            assert!(
                (acc - b[i]).abs() < ASSERT_TIGHT_TOL,
                "row {i}: {acc} vs {}",
                b[i]
            );
        }

        // B^T y = c with c = (1, -2, 5).
        let c = [1.0, -2.0, 5.0];
        let mut y = c;
        lu.btran(&mut y);
        for (slot, &col) in basis.iter().enumerate() {
            let (rows, vals) = mat.column(col);
            let acc: f64 = rows.iter().zip(vals).map(|(&r, &v)| v * y[r]).sum();
            assert!((acc - c[slot]).abs() < ASSERT_TIGHT_TOL, "slot {slot}");
        }
    }

    /// Random bases shaped like the refinement ones: a share of unit
    /// (logical) columns plus a sparse nonsingular block that fills in
    /// during elimination, with rows and basis slots shuffled so singletons
    /// sit at arbitrary slots. Each is nonsingular by construction
    /// (`[I X; 0 A]` up to permutation, `A = L·U`); the solves must
    /// reproduce their right-hand sides, and in builds with debug assertions
    /// every pivot step cross-checks the singleton index against a full scan.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn random_sparse_bases_factorize_and_solve() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // A uniform draw in [0, 1).
        fn unit(next: &mut impl FnMut() -> u64) -> f64 {
            (next() >> 11) as f64 / (1u64 << 53) as f64
        }
        for _case in 0..300 {
            let m = 2 + (next() % 60) as usize;
            let units = (next() % (m as u64 + 1)) as usize;
            let block = m - units;
            let density = 0.05 + (next() % 40) as f64 / 100.0;

            // A = L·U over the block, sparse through L's and U's density.
            let mut l = vec![vec![0.0; block]; block];
            let mut u = vec![vec![0.0; block]; block];
            for i in 0..block {
                l[i][i] = 1.0;
                u[i][i] = 0.5 + 2.5 * unit(&mut next);
                for j in 0..block {
                    if j != i && unit(&mut next) < density {
                        let v = 4.0 * unit(&mut next) - 2.0;
                        if j < i {
                            l[i][j] = v;
                        } else {
                            u[i][j] = v;
                        }
                    }
                }
            }
            let mut rows: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                rows.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let mut cols: Vec<Vec<(usize, f64)>> =
                (0..units).map(|j| vec![(rows[j], 1.0)]).collect();
            for j in 0..block {
                let mut col = Vec::new();
                for row in rows.iter().take(units) {
                    if unit(&mut next) < density {
                        col.push((*row, 4.0 * unit(&mut next) - 2.0));
                    }
                }
                for i in 0..block {
                    let v: f64 = (0..block).map(|k| l[i][k] * u[k][j]).sum();
                    if v != 0.0 {
                        col.push((rows[units + i], v));
                    }
                }
                cols.push(col);
            }
            let mat = SparseMatrix::from_columns(m, &cols);
            let mut basis: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                basis.swap(i, (next() % (i as u64 + 1)) as usize);
            }

            let mut lu = LuFactors::default();
            let mut ws = LuScratch::default();
            assert!(
                lu.factorize(&mat, &basis, &mut ws),
                "nonsingular basis rejected"
            );
            let b: Vec<f64> = (0..m).map(|_| 10.0 * unit(&mut next) - 5.0).collect();
            let mut x = b.clone();
            lu.ftran(&mut x);
            let mut bx = vec![0.0; m];
            for (slot, &col) in basis.iter().enumerate() {
                mat.scatter_column(col, x[slot], &mut bx);
            }
            for (row, (&got, &want)) in bx.iter().zip(&b).enumerate() {
                assert!(
                    (got - want).abs() < ASSERT_TOL * (1.0 + want.abs()),
                    "ftran row {row}"
                );
            }
            let mut y = b.clone();
            lu.btran(&mut y);
            for (slot, &col) in basis.iter().enumerate() {
                let got = mat.column_dot(col, &y);
                assert!(
                    (got - b[slot]).abs() < ASSERT_TOL * (1.0 + b[slot].abs()),
                    "btran slot {slot}"
                );
            }
        }
    }

    #[test]
    fn singular_basis_rejected() {
        let mat = matrix_from_dense(&[&[1.0, 2.0, 0.0], &[2.0, 4.0, 0.0], &[0.0, 0.0, 1.0]]);
        // Columns 0 and 1 are linearly dependent.
        let mut lu = LuFactors::default();
        let mut ws = LuScratch::default();
        assert!(!lu.factorize(&mat, &[0, 1, 2], &mut ws));
    }

    #[test]
    fn zero_column_rejected() {
        let cols = vec![vec![(0usize, 1.0)], vec![]];
        let mat = SparseMatrix::from_columns(2, &cols);
        let mut lu = LuFactors::default();
        let mut ws = LuScratch::default();
        assert!(!lu.factorize(&mat, &[0, 1], &mut ws));
    }
}
