//! The answer check, run outside the timed interval.
//!
//! Every returned refinement is re-run through `qr_relation::evaluate` on
//! the database version the operation saw, and its deviation is recounted
//! from the plain query output, independently of the provenance model and
//! the MILP. That count must agree with `exact_deviation` and stay within ε.
//! The distance is recomputed with `exact_distance` and must equal the
//! reported one. A proven answer on unmodified data must also match the
//! golden value stored in `perfbench/golden.tsv`.

use crate::requests::Spec;
use crate::run::Outcome;
use crate::trace::Tracer;
use qr_core::{exact_deviation, exact_distance, AnnotatedSnapshot, ConstraintSet};
use qr_provenance::PredicateAssignment;
use qr_relation::SpjQuery;
use std::collections::HashMap;
use std::sync::Arc;

/// Agreement tolerance between two computations of one deviation/distance.
const TOL: f64 = 1e-6;

/// The expected result of a proven request on unmodified data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Golden {
    /// An optimal refinement at this distance.
    Distance(f64),
    /// Proven: no refinement within ε exists.
    NoRefinement,
}

/// Golden values keyed by (dataset key, request label).
#[derive(Debug, Default)]
pub struct GoldenTable(HashMap<(String, String), Golden>);

impl GoldenTable {
    /// The table committed with the benchmark.
    pub fn committed() -> Self {
        Self::parse(include_str!("../golden.tsv"))
    }

    /// Parse `dataset<TAB>label<TAB>distance|none` lines (`#` comments).
    pub fn parse(text: &str) -> Self {
        let mut table = HashMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let cols: Vec<&str> = line.split('\t').collect();
            let golden = match cols.get(2) {
                Some(&"none") => Golden::NoRefinement,
                Some(d) => Golden::Distance(d.parse().expect("golden distance is a number")),
                None => panic!("golden line `{line}` has fewer than 3 columns"),
            };
            table.insert((cols[0].to_string(), cols[1].to_string()), golden);
        }
        GoldenTable(table)
    }

    /// The golden value of a request, if one is stored.
    pub fn get(&self, dataset: &str, label: &str) -> Option<Golden> {
        self.0
            .get(&(dataset.to_string(), label.to_string()))
            .copied()
    }
}

/// One operation's answer, kept for the check.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Key of the dataset (see [`crate::requests::Data::key`]).
    pub dataset: String,
    /// The database version and annotations the operation ran against.
    pub snapshot: Arc<AnnotatedSnapshot>,
    /// The request.
    pub spec: Spec,
    /// Its constraint set.
    pub constraints: ConstraintSet,
    /// `k*` of the constraint set.
    pub k_star: usize,
    /// The returned refinement, if any.
    pub assignment: Option<PredicateAssignment>,
    /// The distance the program reported with it, if it reported one.
    pub reported_distance: Option<f64>,
    /// Whether the program proved its outcome (optimal or infeasible).
    pub proven: bool,
    /// Whether the operation ran on unmodified data.
    pub base: bool,
    /// The golden value to compare a proven outcome with (only for
    /// operations on unmodified data).
    pub golden: Option<Golden>,
}

/// Verdict of one check: the recomputed distance of the returned refinement
/// (if any), or why the answer is wrong.
pub type Verdict = Result<Option<f64>, String>;

/// Check one answer against the original `query`.
pub fn check(answer: &Answer, query: &SpjQuery, tracer: &mut Tracer) -> Verdict {
    let Some(assignment) = &answer.assignment else {
        return match (answer.proven, answer.golden) {
            (true, Some(Golden::Distance(d))) => Err(format!(
                "{}: proven infeasible, golden distance {d}",
                answer.spec.label()
            )),
            _ => Ok(None),
        };
    };
    let label = answer.spec.label();
    let annotated = answer.snapshot.annotated();
    let refined = assignment.apply_to(query);

    let span = tracer.begin("relation.eval", None, 0);
    let output = qr_relation::evaluate(answer.snapshot.db(), &refined);
    tracer.end(span);
    let output = output.map_err(|e| format!("{label}: refined query fails to evaluate: {e}"))?;
    if output.len() < answer.k_star {
        return Err(format!(
            "{label}: refined query returns {} rows, fewer than k* = {}",
            output.len(),
            answer.k_star
        ));
    }
    let counts: Vec<usize> = answer
        .constraints
        .constraints()
        .iter()
        .map(|c| {
            output
                .rows()
                .iter()
                .take(c.k)
                .filter(|row| c.group.matches(output.schema(), row))
                .count()
        })
        .collect();
    let deviation = answer.constraints.deviation(&counts);
    let (provenance_deviation, _) = exact_deviation(annotated, &answer.constraints, assignment);
    if (deviation - provenance_deviation).abs() > TOL {
        return Err(format!(
            "{label}: deviation {deviation} from the query output, {provenance_deviation} from provenance"
        ));
    }
    if deviation > answer.spec.epsilon + TOL {
        return Err(format!("{label}: deviation {deviation} exceeds ε"));
    }

    let distance = exact_distance(
        answer.spec.distance,
        annotated,
        query,
        assignment,
        answer.k_star,
    );
    if let Some(reported) = answer.reported_distance {
        if (reported - distance).abs() > TOL {
            return Err(format!(
                "{label}: reported distance {reported}, exact {distance}"
            ));
        }
    }
    if answer.proven {
        match answer.golden {
            Some(Golden::Distance(g)) if (g - distance).abs() > TOL => {
                return Err(format!("{label}: distance {distance}, golden {g}"));
            }
            Some(Golden::NoRefinement) => {
                return Err(format!("{label}: refined at {distance}, golden has none"));
            }
            _ => {}
        }
    }
    Ok(Some(distance))
}

/// Check a pass's answers and record the verdicts: a failure, or the
/// recomputed distance (of answers on unmodified data, so that
/// `distance_mean` does not depend on the order of operations). `query`
/// gives the original query of a dataset key.
pub fn check_pass<'a>(answers: &[Answer], query: impl Fn(&str) -> &'a SpjQuery, out: &mut Outcome) {
    for answer in answers {
        match check(answer, query(&answer.dataset), &mut out.tracer) {
            Ok(Some(distance)) if answer.base => out.distance(
                format!("{}:{}", answer.dataset, answer.spec.label()),
                distance,
            ),
            Ok(_) => {}
            Err(why) => out.fail(why),
        }
        out.checked += 1;
    }
}
