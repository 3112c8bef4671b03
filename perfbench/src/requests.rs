//! The request vocabulary shared by every workload: datasets, constraint
//! families, and the conversion of a request into a `qr-core` request or a
//! `qr-server` wire line.

use qr_core::{BoundType, ConstraintSet, DistanceMeasure, OptimizationConfig, RefinementRequest};
use qr_datagen::{DatasetId, Workload};
use qr_milp::SolverOptions;
use std::time::Duration;

/// Seed of every generated dataset. It matches the seed the server's session
/// pool uses, so in-process and over-the-wire requests see the same data.
pub const DATA_SEED: u64 = 20240317;

/// Safety net on every in-process solve. No screened request comes near it;
/// a solve that stops on it is counted as not ok.
pub const TIME_LIMIT: Duration = Duration::from_secs(60);

/// A constraint family of Table 6, parameterised by `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Constraint `i` alone (the paper's default is `i = 1`).
    Single(usize, usize),
    /// Constraints (1) and (2) as lower bounds `k/3` (Figure 7, `C_L`).
    Lower(usize),
    /// Constraint (1) as a lower and (2) as an upper bound (Figure 7, `C_M`).
    Mixed(usize),
}

impl Family {
    /// The constraint set of this family on a workload.
    pub fn constraints(self, workload: &Workload) -> ConstraintSet {
        match self {
            Family::Single(i, k) => ConstraintSet::new().with(workload.constraint(i, k)),
            Family::Lower(k) => workload.lower_bound_pair(k),
            Family::Mixed(k) => workload.mixed_pair(k),
        }
    }

    /// Short label, e.g. `c1k10`, `lowk10`, `mixk10`.
    pub fn label(self) -> String {
        match self {
            Family::Single(i, k) => format!("c{i}k{k}"),
            Family::Lower(k) => format!("lowk{k}"),
            Family::Mixed(k) => format!("mixk{k}"),
        }
    }
}

/// The dataset a request runs against and its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// A dataset at its default size (the size the server serves).
    Default(DatasetId),
    /// Astronauts with `n` rows.
    Astronauts(usize),
}

impl Data {
    /// Generate the workload (database + Table 6 query).
    pub fn workload(self) -> Workload {
        match self {
            Data::Default(id) => Workload::new(id, DATA_SEED),
            Data::Astronauts(n) => Workload::astronauts(n, DATA_SEED),
        }
    }

    /// The dataset's key in the golden table, e.g. `meps`, `astronauts180`.
    pub fn key(self) -> String {
        match self {
            Data::Astronauts(n) => format!("astronauts{n}"),
            Data::Default(_) => self.wire_name().to_string(),
        }
    }

    /// The dataset name the server's wire protocol uses.
    pub fn wire_name(self) -> &'static str {
        match self {
            Data::Default(DatasetId::Astronauts) | Data::Astronauts(_) => "astronauts",
            Data::Default(DatasetId::LawStudents) => "law_students",
            Data::Default(DatasetId::Meps) => "meps",
            Data::Default(DatasetId::Tpch) => "tpch",
        }
    }

    /// The relation single-row writes go to.
    pub fn main_relation(self) -> &'static str {
        match self {
            Data::Default(DatasetId::Astronauts) | Data::Astronauts(_) => "Astronauts",
            Data::Default(DatasetId::LawStudents) => "LawStudents",
            Data::Default(DatasetId::Meps) => "MEPS",
            Data::Default(DatasetId::Tpch) => "Orders",
        }
    }
}

/// One refinement request, as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Constraint family.
    pub family: Family,
    /// Distance measure.
    pub distance: DistanceMeasure,
    /// Maximum deviation ε.
    pub epsilon: f64,
    /// Node cap; `None` leaves the solver's default (as the server does).
    pub max_nodes: Option<usize>,
}

impl Spec {
    /// A short, stable label, e.g. `c1k10/QD/0.5`.
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.family.label(), self.distance, self.epsilon)
    }

    /// Solver options: the node cap, and the time limit as a safety net.
    pub fn solver_options(&self) -> SolverOptions {
        let mut options = SolverOptions {
            time_limit: Some(TIME_LIMIT),
            ..SolverOptions::default()
        };
        if let Some(cap) = self.max_nodes {
            options.max_nodes = cap;
        }
        options
    }

    /// The `qr-core` request (all optimizations on).
    pub fn request(&self, workload: &Workload) -> RefinementRequest {
        RefinementRequest::new()
            .with_constraints(self.family.constraints(workload))
            .with_epsilon(self.epsilon)
            .with_distance(self.distance)
            .with_optimizations(OptimizationConfig::all())
            .with_solver_options(self.solver_options())
    }

    /// The server's `solve` line for this request.
    pub fn wire_line(&self, data: Data, workload: &Workload, id: u64) -> String {
        let constraints: Vec<String> = self
            .family
            .constraints(workload)
            .constraints()
            .iter()
            .map(|c| {
                let (attribute, value) = &c.group.conditions()[0];
                let bound = match c.bound {
                    BoundType::Lower => "at_least",
                    BoundType::Upper => "at_most",
                };
                format!(
                    r#"{{"attribute":"{attribute}","value":"{}","k":{},"n":{},"bound":"{bound}"}}"#,
                    value, c.k, c.n
                )
            })
            .collect();
        format!(
            r#"{{"op":"solve","id":{id},"dataset":"{}","epsilon":{},"distance":"{}","constraints":[{}]}}"#,
            data.wire_name(),
            self.epsilon,
            self.distance,
            constraints.join(",")
        )
    }
}
