//! Interval-arithmetic bound propagation, incremental by row.
//!
//! The MILPs generated by `qr-core` are dominated by indicator ("big-M")
//! constraints that link the refinement decision variables to the tuple
//! selection, rank and top-k membership variables. Once the decision
//! variables are fixed by branching, these constraints *imply* the values of
//! almost every other variable. Propagating bounds at every branch-and-bound
//! node therefore fixes large parts of the problem cheaply, exactly the role
//! CPLEX's presolve/node-presolve plays for the paper's implementation.
//!
//! The propagator performs standard activity-based bound tightening: for a
//! constraint `Σ a_j x_j <= b` and a variable `x_k` with `a_k > 0`,
//! `x_k <= (b - minactivity_{j≠k}) / a_k`, and symmetrically for the other
//! sign and for `>=` / `==` constraints. Integer variable bounds are rounded.
//!
//! ## Dirty-row Gauss–Seidel
//!
//! A run is a sequence of passes (up to a pass limit). Each pass walks the
//! rows in ascending order; a row reads the bounds as they stand when it is
//! reached, so a tightening made by row `r` is seen by every later row of the
//! same pass and by the rows before `r` in the next pass. A pass that changes
//! nothing ends the run at a **fixpoint**.
//!
//! Rows are read from the [`LpWorkspace`]'s CSR matrix (structural columns
//! only, in ascending column order — the order of the model's `LinExpr`
//! terms), and the rows a variable appears in from its CSC column; the
//! propagator keeps no copy of the matrix. It keeps one dirty bit per row: a
//! pass processes only dirty rows, clearing the bit, and a bound change on
//! `x_j` sets the bit of every row containing `x_j` (the changing row
//! included).
//!
//! **Exactness.** Processing a row is a pure function of the bounds of its
//! own variables: it reads them, checks feasibility, and writes a bound only
//! when the implied one improves by more than `BOUND_TIGHTEN_TOL`. A row
//! whose bit is clear was last processed without changing anything, and none
//! of its variables has moved since, so processing it again would repeat the
//! same passing checks and write nothing. Skipping it therefore changes no
//! bound, no feasibility verdict and no pass's "changed" flag: bounds are
//! bit-identical to a full sweep, as are the pass count and the
//! `Infeasible` verdict.
//!
//! The same argument carries across branch-and-bound nodes. When a node's
//! run ends at a fixpoint, every row is clean with respect to its final
//! bounds; a child differs from them only in the branched variable, so the
//! child's run may start with only that variable's rows dirty (a **seed**).
//! A run that ends on the pass limit or on `Infeasible` leaves rows dirty
//! and seeds nothing; those children, the root, the rounding dive and nodes
//! restored from a checkpoint start from a full sweep (every row dirty).

use crate::model::{Model, Sense, VarType};
use crate::simplex::LpWorkspace;
use crate::tol::BOUND_TIGHTEN_TOL;
/// Feasibility tolerance for propagation (the same constant the simplex
/// uses, so the two can never disagree on what counts as feasible).
use crate::tol::FEAS_TOL as TOL;

/// Verdict of a propagation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PropagationResult {
    /// Bounds are consistent (possibly tightened).
    Consistent,
    /// Some constraint cannot be satisfied within the current bounds.
    Infeasible,
}

/// Outcome of one [`Propagator::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Propagation {
    pub(crate) result: PropagationResult,
    /// Passes started (the last one included, whether or not it finished).
    pub(crate) passes: usize,
    /// The last pass changed nothing: the bounds are a fixpoint, and a child
    /// differing from them in one variable may be seeded with that variable.
    pub(crate) fixpoint: bool,
}

/// A row's check found it unsatisfiable within the current bounds.
struct RowInfeasible;

/// The bound propagator of one solve: per-variable integrality and the
/// per-row dirty bits. The constraint rows themselves are read from the
/// solve's [`LpWorkspace`] at each run.
#[derive(Debug)]
pub(crate) struct Propagator {
    is_integer: Vec<bool>,
    /// One bit per row, set when the row must be processed.
    dirty: Vec<u64>,
    rows: usize,
}

impl Propagator {
    /// A propagator for `model` (whose workspace every run must be given).
    pub(crate) fn new(model: &Model) -> Self {
        let rows = model.num_constraints();
        Propagator {
            is_integer: model
                .variables()
                .iter()
                .map(|v| matches!(v.var_type, VarType::Integer | VarType::Binary))
                .collect(),
            dirty: vec![0; rows.div_ceil(64)],
            rows,
        }
    }

    /// Tighten `lower` / `upper` in place for at most `max_passes` passes.
    ///
    /// With `seed == None` the first pass processes every row. With
    /// `seed == Some(j)` it processes only the rows containing `x_j`; the
    /// caller promises that the bounds are those a previous run over this
    /// model left at a fixpoint, with at most `x_j`'s bounds changed since.
    pub(crate) fn run(
        &mut self,
        ws: &LpWorkspace,
        lower: &mut [f64],
        upper: &mut [f64],
        max_passes: usize,
        seed: Option<usize>,
    ) -> Propagation {
        match seed {
            None => {
                self.dirty.fill(!0);
                // Clear the last word's bits past the final row.
                if let Some(last) = self.dirty.last_mut() {
                    *last >>= (64 - self.rows % 64) % 64;
                }
            }
            Some(var) => {
                self.dirty.fill(0);
                self.mark_rows_of(ws, var);
            }
        }
        let mut passes = 0;
        while passes < max_passes {
            passes += 1;
            let mut changed = false;
            // Walk the dirty rows in ascending order. A bit set behind the
            // cursor (a row before the one being processed) waits for the
            // next pass; one set ahead of it is reached in this pass.
            let mut next = 0usize;
            while next < self.rows {
                let word = next / 64;
                let bits = self.dirty[word] & (!0u64 << (next % 64));
                if bits == 0 {
                    next = (word + 1) * 64;
                    continue;
                }
                let row = word * 64 + bits.trailing_zeros() as usize;
                self.dirty[word] &= !(1u64 << (row % 64));
                match self.process_row(ws, row, lower, upper) {
                    Ok(row_changed) => changed |= row_changed,
                    Err(RowInfeasible) => {
                        return Propagation {
                            result: PropagationResult::Infeasible,
                            passes,
                            fixpoint: false,
                        }
                    }
                }
                next = row + 1;
            }
            if !changed {
                return Propagation {
                    result: PropagationResult::Consistent,
                    passes,
                    fixpoint: true,
                };
            }
        }
        Propagation {
            result: PropagationResult::Consistent,
            passes,
            fixpoint: false,
        }
    }

    /// Set the dirty bit of every row containing structural column `var`.
    fn mark_rows_of(&mut self, ws: &LpWorkspace, var: usize) {
        for &row in ws.matrix.column(var).0 {
            self.dirty[row / 64] |= 1u64 << (row % 64);
        }
    }

    /// Check row `row` against the current bounds and tighten the bounds of
    /// its variables. Returns whether any bound moved.
    fn process_row(
        &mut self,
        ws: &LpWorkspace,
        row: usize,
        lower: &mut [f64],
        upper: &mut [f64],
    ) -> Result<bool, RowInfeasible> {
        let (cols, vals) = ws.structural_row(row);
        let rhs = ws.rhs[row];
        let sense = ws.senses[row];

        // Compute the minimum and maximum activity of the constraint.
        let mut min_act = 0.0f64;
        let mut max_act = 0.0f64;
        for (&j, &a) in cols.iter().zip(vals) {
            let (lo, up) = (lower[j], upper[j]);
            if a > 0.0 {
                min_act += a * lo;
                max_act += a * up;
            } else {
                min_act += a * up;
                max_act += a * lo;
            }
        }

        // Feasibility checks.
        let infeasible = match sense {
            Sense::Le => min_act > rhs + TOL,
            Sense::Ge => max_act < rhs - TOL,
            Sense::Eq => min_act > rhs + TOL || max_act < rhs - TOL,
        };
        if infeasible {
            return Err(RowInfeasible);
        }

        // Bound tightening per variable, against the activity of the other
        // terms as it stood when the row was reached.
        let mut changed = false;
        for (&idx, &a) in cols.iter().zip(vals) {
            let (lo, up) = (lower[idx], upper[idx]);
            let (rest_min, rest_max) = if a > 0.0 {
                (min_act - a * lo, max_act - a * up)
            } else {
                (min_act - a * up, max_act - a * lo)
            };

            let mut new_lo = lo;
            let mut new_up = up;
            let tighten_le = |bound: f64, new_lo: &mut f64, new_up: &mut f64| {
                // Σ a_j x_j <= bound
                if rest_min.is_finite() {
                    let implied = (bound - rest_min) / a;
                    if a > 0.0 {
                        if implied < *new_up {
                            *new_up = implied;
                        }
                    } else if implied > *new_lo {
                        *new_lo = implied;
                    }
                }
            };
            let tighten_ge = |bound: f64, new_lo: &mut f64, new_up: &mut f64| {
                // Σ a_j x_j >= bound
                if rest_max.is_finite() {
                    let implied = (bound - rest_max) / a;
                    if a > 0.0 {
                        if implied > *new_lo {
                            *new_lo = implied;
                        }
                    } else if implied < *new_up {
                        *new_up = implied;
                    }
                }
            };
            match sense {
                Sense::Le => tighten_le(rhs, &mut new_lo, &mut new_up),
                Sense::Ge => tighten_ge(rhs, &mut new_lo, &mut new_up),
                Sense::Eq => {
                    tighten_le(rhs, &mut new_lo, &mut new_up);
                    tighten_ge(rhs, &mut new_lo, &mut new_up);
                }
            }

            // Integrality rounding.
            if self.is_integer[idx] {
                if new_lo.is_finite() {
                    new_lo = (new_lo - TOL).ceil();
                }
                if new_up.is_finite() {
                    new_up = (new_up + TOL).floor();
                }
            }

            let mut moved = false;
            if new_lo > lo + BOUND_TIGHTEN_TOL {
                lower[idx] = new_lo;
                moved = true;
            }
            if new_up < up - BOUND_TIGHTEN_TOL {
                upper[idx] = new_up;
                moved = true;
            }
            if moved {
                changed = true;
                self.mark_rows_of(ws, idx);
            }
            if lower[idx] > upper[idx] + TOL {
                return Err(RowInfeasible);
            }
        }
        Ok(changed)
    }
}

/// A lower bound on the objective over the box `[lower, upper]`, ignoring the
/// constraints. Used as a cheap fallback bound when the LP is skipped.
pub fn box_objective_bound(model: &Model, lower: &[f64], upper: &[f64]) -> f64 {
    let mut bound = model.objective().constant_part();
    for (v, c) in model.objective().terms() {
        let idx = v.index();
        let contrib = if c >= 0.0 {
            c * lower[idx]
        } else {
            c * upper[idx]
        };
        bound += contrib;
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Model, VarId};
    use crate::tol::{ASSERT_GAP_TOL, ASSERT_TOL};
    use proptest::prelude::*;

    fn bounds_of(model: &Model) -> (Vec<f64>, Vec<f64>) {
        (
            model.variables().iter().map(|v| v.lower).collect(),
            model.variables().iter().map(|v| v.upper).collect(),
        )
    }

    /// One full-sweep run of a fresh propagator over `model`.
    fn propagate(
        model: &Model,
        lower: &mut [f64],
        upper: &mut [f64],
        max_passes: usize,
    ) -> PropagationResult {
        let ws = LpWorkspace::new(model).expect("valid test model");
        Propagator::new(model)
            .run(&ws, lower, upper, max_passes, None)
            .result
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fixing_cascades_through_equality() {
        // y = 3 x + 1 with x fixed to 2 -> y must be 7.
        let mut m = Model::new("t");
        let x = m.add_integer("x", 2.0, 2.0);
        let y = m.add_continuous("y", 0.0, 100.0);
        m.add_constraint(
            "link",
            LinExpr::term(y, 1.0) - LinExpr::term(x, 3.0),
            Sense::Eq,
            1.0,
        );
        let (mut lo, mut up) = bounds_of(&m);
        assert_eq!(
            propagate(&m, &mut lo, &mut up, 10),
            PropagationResult::Consistent
        );
        assert!((lo[y.index()] - 7.0).abs() < ASSERT_TOL);
        assert!((up[y.index()] - 7.0).abs() < ASSERT_TOL);
    }

    #[test]
    fn indicator_constraint_fixes_binary() {
        // Big-M style: s + 25*l >= 6.001 with s fixed to 4 -> l >= 0.08 -> l = 1.
        let mut m = Model::new("t");
        let s = m.add_continuous("s", 4.0, 4.0);
        let l = m.add_binary("l");
        m.add_constraint(
            "ind",
            LinExpr::term(s, 1.0) + LinExpr::term(l, 25.0),
            Sense::Ge,
            6.001,
        );
        let (mut lo, mut up) = bounds_of(&m);
        assert_eq!(
            propagate(&m, &mut lo, &mut up, 10),
            PropagationResult::Consistent
        );
        assert_eq!(lo[l.index()], 1.0);
    }

    #[test]
    fn infeasibility_detected() {
        let mut m = Model::new("t");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint(
            "c",
            LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0),
            Sense::Ge,
            3.0,
        );
        let (mut lo, mut up) = bounds_of(&m);
        assert_eq!(
            propagate(&m, &mut lo, &mut up, 10),
            PropagationResult::Infeasible
        );
    }

    #[test]
    fn integer_rounding() {
        let mut m = Model::new("t");
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", LinExpr::term(x, 2.0), Sense::Le, 7.0);
        let (mut lo, mut up) = bounds_of(&m);
        propagate(&m, &mut lo, &mut up, 10);
        assert_eq!(up[x.index()], 3.0);
    }

    #[test]
    fn box_bound_uses_right_ends() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 1.0, 2.0);
        let y = m.add_continuous("y", 3.0, 4.0);
        m.set_objective(LinExpr::term(x, 1.0) - LinExpr::term(y, 1.0) + LinExpr::constant(10.0));
        let (lo, up) = bounds_of(&m);
        // min = 10 + 1*1 - 1*4 = 7
        assert!((box_objective_bound(&m, &lo, &up) - 7.0).abs() < ASSERT_GAP_TOL);
    }

    #[test]
    fn no_false_infeasibility_on_loose_problem() {
        let mut m = Model::new("t");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint(
            "c1",
            LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0),
            Sense::Le,
            10.0,
        );
        m.add_constraint(
            "c2",
            LinExpr::term(x, 1.0) - LinExpr::term(y, 1.0),
            Sense::Ge,
            -5.0,
        );
        let (mut lo, mut up) = bounds_of(&m);
        assert_eq!(
            propagate(&m, &mut lo, &mut up, 20),
            PropagationResult::Consistent
        );
        // x is bounded above by 10 through c1.
        assert!(up[x.index()] <= 10.0 + ASSERT_GAP_TOL);
    }

    /// `x_{i+1} <= x_i` for i = 0..5, declared in *descending* row order, so a
    /// bound on `x_0` moves one link per pass: the full cascade takes five
    /// changing passes and a sixth that finds the fixpoint.
    fn backward_chain() -> (Model, Vec<VarId>) {
        let mut m = Model::new("chain");
        let x: Vec<VarId> = (0..6)
            .map(|i| m.add_integer(format!("x{i}"), 0.0, 10.0))
            .collect();
        for i in (0..5).rev() {
            m.add_constraint(
                format!("link{i}"),
                LinExpr::term(x[i + 1], 1.0) - LinExpr::term(x[i], 1.0),
                Sense::Le,
                0.0,
            );
        }
        (m, x)
    }

    #[test]
    fn exhausted_pass_limit_is_not_a_fixpoint() {
        let (m, x) = backward_chain();
        let ws = LpWorkspace::new(&m).expect("valid test model");
        let mut prop = Propagator::new(&m);
        let (mut lo, mut up) = bounds_of(&m);
        let root = prop.run(&ws, &mut lo, &mut up, 12, None);
        assert!(
            root.fixpoint,
            "the unbranched chain is already at a fixpoint"
        );

        // Branch x0 <= 3: five changing passes reach x5, a sixth confirms.
        up[x[0].index()] = 3.0;
        let (mut lo_cut, mut up_cut) = (lo.clone(), up.clone());
        let cut = prop.run(&ws, &mut lo_cut, &mut up_cut, 2, Some(x[0].index()));
        assert_eq!(
            cut,
            Propagation {
                result: PropagationResult::Consistent,
                passes: 2,
                fixpoint: false,
            }
        );
        assert_eq!(up_cut[x[2].index()], 3.0);
        assert_eq!(
            up_cut[x[3].index()],
            10.0,
            "the cascade stopped at the limit"
        );

        // Seeding from the exhausted bounds would skip the rows still dirty
        // at the cut (here with x0 as the seed, its bounds unchanged), so it
        // would disagree with a full sweep: this is why a run that ends on
        // the pass limit seeds no children.
        let (mut lo_seeded, mut up_seeded) = (lo_cut.clone(), up_cut.clone());
        let (mut lo_full, mut up_full) = (lo_cut, up_cut);
        let seeded = prop.run(&ws, &mut lo_seeded, &mut up_seeded, 12, Some(x[0].index()));
        let full = prop.run(&ws, &mut lo_full, &mut up_full, 12, None);
        assert!(full.fixpoint && seeded.fixpoint);
        assert_ne!(bits(&up_seeded), bits(&up_full));

        // Run to completion, the same branch cascades all the way.
        let full = prop.run(&ws, &mut lo, &mut up, 12, None);
        assert_eq!(full.passes, 6);
        assert!(full.fixpoint);
        assert_eq!(up[x[5].index()], 3.0);
    }

    #[test]
    fn seeded_run_reports_infeasible_like_a_full_sweep() {
        // x + y >= 1 and x + z >= 1 with y, z fixed at 0 force x = 1;
        // branching x <= 0 is infeasible on both rows of x.
        let mut m = Model::new("t");
        let x = m.add_binary("x");
        let y = m.add_integer("y", 0.0, 0.0);
        let z = m.add_integer("z", 0.0, 0.0);
        for (name, other) in [("a", y), ("b", z)] {
            m.add_constraint(
                name,
                LinExpr::term(x, 1.0) + LinExpr::term(other, 1.0),
                Sense::Ge,
                1.0,
            );
        }
        let ws = LpWorkspace::new(&m).expect("valid test model");
        let mut prop = Propagator::new(&m);
        let (mut lo, mut up) = bounds_of(&m);
        assert!(prop.run(&ws, &mut lo, &mut up, 12, None).fixpoint);
        assert_eq!(lo[x.index()], 1.0);

        lo[x.index()] = 0.0;
        up[x.index()] = 0.0;
        let (mut lo_full, mut up_full) = (lo.clone(), up.clone());
        let seeded = prop.run(&ws, &mut lo, &mut up, 12, Some(x.index()));
        let full = prop.run(&ws, &mut lo_full, &mut up_full, 12, None);
        assert_eq!(seeded, full);
        assert_eq!(
            seeded,
            Propagation {
                result: PropagationResult::Infeasible,
                passes: 1,
                fixpoint: false,
            }
        );
    }

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
        fn pick<T: Copy>(&mut self, options: &[T]) -> T {
            options[self.below(options.len())]
        }
    }

    /// A random small MILP in the shape of the refinement models: binaries,
    /// small integers and continuous variables (some unbounded above), tied
    /// by big-M indicator rows, cardinality rows and equality links.
    fn random_big_m_model(rng: &mut XorShift) -> Model {
        let mut m = Model::new("random");
        let n = 4 + rng.below(9);
        let vars: Vec<VarId> = (0..n)
            .map(|i| match rng.below(4) {
                0 | 1 => m.add_binary(format!("b{i}")),
                2 => m.add_integer(format!("z{i}"), 0.0, rng.pick(&[3.0, 5.0])),
                _ => m.add_continuous(format!("s{i}"), 0.0, rng.pick(&[4.0, 10.0, f64::INFINITY])),
            })
            .collect();
        let rows = 3 + rng.below(10);
        for r in 0..rows {
            let width = 2 + rng.below(3);
            let mut expr = LinExpr::zero();
            for _ in 0..width {
                let coeff = rng.pick(&[1.0, -1.0, 2.5, -0.5, 25.0, -25.0, 100.0]);
                expr.add_term(vars[rng.below(n)], coeff);
            }
            let sense = rng.pick(&[Sense::Le, Sense::Ge, Sense::Eq, Sense::Le]);
            let rhs = rng.pick(&[0.0, 1.0, 2.0, 3.5, 6.001, -1.0, 24.0]);
            m.add_constraint(format!("r{r}"), expr, sense, rhs);
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// From a fixpoint, branch one random variable and propagate twice:
        /// seeded with the branched variable, and as a full sweep. The two
        /// runs must agree on verdict, pass count and fixpoint, and leave
        /// bit-identical bounds — through a chain of up to four branchings,
        /// each seeded from the previous seeded run, under pass limits small
        /// enough that some runs exhaust them.
        #[test]
        fn seeded_run_matches_full_sweep(seed in 1u64..u64::MAX, max_passes in 1usize..8) {
            let mut rng = XorShift(seed);
            let model = random_big_m_model(&mut rng);
            let ws = LpWorkspace::new(&model).expect("valid random model");
            let mut prop = Propagator::new(&model);
            let (mut lo, mut up) = bounds_of(&model);
            let root = prop.run(&ws, &mut lo, &mut up, 50, None);
            prop_assume!(root.fixpoint);
            for _depth in 0..4 {
                let j = rng.below(model.num_variables());
                if lo[j] == up[j] {
                    break;
                }
                let finite_up = if up[j].is_finite() { up[j] } else { lo[j] + 8.0 };
                let cut = ((lo[j] + finite_up) / 2.0).floor();
                if rng.below(2) == 0 {
                    up[j] = cut.max(lo[j]);
                } else {
                    lo[j] = (cut + 1.0).min(finite_up);
                }
                let (mut lo_full, mut up_full) = (lo.clone(), up.clone());
                let seeded = prop.run(&ws, &mut lo, &mut up, max_passes, Some(j));
                let full = prop.run(&ws, &mut lo_full, &mut up_full, max_passes, None);
                prop_assert_eq!(seeded, full);
                prop_assert_eq!(bits(&lo), bits(&lo_full));
                prop_assert_eq!(bits(&up), bits(&up_full));
                if !seeded.fixpoint {
                    break;
                }
            }
        }
    }
}
