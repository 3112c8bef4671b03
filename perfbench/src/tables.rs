//! The screened request tables of each workload.
//!
//! Every request here was solved once, cold, with `src/bin/screen.rs`: each
//! proves optimal (or infeasible), takes the identity fast path, or stops on
//! its node cap. None comes near a time limit, so a run repeats the same
//! work from the same seed. The requests left out are the ones that ended
//! on a time limit when screened (for example MEPS and Law Students at
//! small ε with `k = 30`, and almost every Astronauts request at full size).

use crate::requests::{Data, Family, Spec};
use qr_core::DistanceMeasure::{self, JaccardTopK as Jac, Predicate as Qd};
use qr_datagen::DatasetId;

/// `tree-search`: the fig3 bench-size Astronauts instance, all
/// optimizations. All five requests prove optimal after 600 to 2,600 nodes
/// of small warm LPs. (The fig3 requests QD ε = 0.5 and JAC ε = 0.25 take
/// 3.3 s and 6.4 s; a 10 s pass leaves too few passes per run for a steady
/// median over passes, so the pass uses requests of 0.4 to 2 s.)
const TREE_SEARCH_DATA: Data = Data::Astronauts(180);

/// Node cap of the `tree-search` requests: far above what they need, so a
/// change that stops them proving ends on a node count, never on the clock.
const TREE_SEARCH_NODE_CAP: usize = 20_000;

/// The `tree-search` requests.
pub fn tree_search() -> Vec<(Data, Spec)> {
    [
        (1, 10, Qd, 0.7),
        (1, 10, Jac, 0.3),
        (1, 10, Jac, 0.5),
        (1, 10, Jac, 0.7),
        (1, 5, Jac, 0.3),
    ]
    .into_iter()
    .map(|(constraint, k, distance, epsilon)| {
        let spec = Spec {
            family: Family::Single(constraint, k),
            distance,
            epsilon,
            max_nodes: Some(TREE_SEARCH_NODE_CAP),
        };
        (TREE_SEARCH_DATA, spec)
    })
    .collect()
}

/// `large-lp`: constraint (3), k* = 10, ε = 0 on the default-size Law
/// Students (451 × 804 model) and MEPS (782 × 1,409) data, capped at a few
/// nodes. Each request is dominated by one or two LPs of thousands of pivots.
/// The caps sit just below a cliff: MEPS/QD at 2 nodes takes 33,000 pivots
/// (18 s) instead of 1,412.
pub fn large_lp() -> Vec<(Data, Spec)> {
    let c3 = |distance, max_nodes| Spec {
        family: Family::Single(3, 10),
        distance,
        epsilon: 0.0,
        max_nodes: Some(max_nodes),
    };
    vec![
        (Data::Default(DatasetId::LawStudents), c3(Qd, 20)),
        (Data::Default(DatasetId::Meps), c3(Qd, 1)),
        (Data::Default(DatasetId::Meps), c3(Jac, 3)),
    ]
}

/// The datasets of `live-session`.
pub const LIVE_DATA: [Data; 3] = [
    Data::Default(DatasetId::LawStudents),
    Data::Default(DatasetId::Meps),
    Data::Default(DatasetId::Tpch),
];

/// The datasets of `server-loopback` (every full-size dataset the server
/// serves).
pub const SERVER_DATA: [Data; 4] = [
    Data::Default(DatasetId::LawStudents),
    Data::Default(DatasetId::Meps),
    Data::Default(DatasetId::Tpch),
    Data::Default(DatasetId::Astronauts),
];

/// Node cap of `live-session` requests: the screened TPC-H solves need at
/// most ~100 nodes; the cap bounds them should a write make one harder.
pub const LIVE_NODE_CAP: usize = 2_000;

/// Smallest ε of a `live-session` request. Writes change that workload's
/// data, and ε = 0 (exact satisfaction) is where one single-row write can
/// turn a fast-path answer into a root LP that runs into the time limit: on
/// Law Students, the lower pair at ε = 0 stops on the limit after 2 of the
/// 64 writes that change the top-30 output (one, raising a GPA of 3.9 out of
/// the query's range, took 45,230 pivots and 60 s; `live-session --seed 2`
/// reached it in its 14th pass). The screen's write section shows every
/// request at ε ≥ 0.2 ending within 190 ms after every such write.
pub const LIVE_MIN_EPSILON: f64 = 0.2;

/// The `live-session` request pool of a dataset.
pub fn live_pool(data: Data) -> Vec<Spec> {
    let mut specs = pool(data, Some(LIVE_NODE_CAP));
    specs.retain(|spec| spec.epsilon + 1e-9 >= LIVE_MIN_EPSILON);
    specs
}

/// Constraint families per dataset, with the smallest ε screened in. Where
/// smaller ε ended on a time limit, the floor keeps a margin of 0.2 above the
/// first ε that passed, so that a single-row write cannot push a request back
/// over the edge.
fn families(data: Data) -> &'static [(Family, f64)] {
    match data {
        Data::Default(DatasetId::LawStudents) => &[
            (Family::Single(1, 10), 0.0),
            (Family::Single(1, 30), 0.5),
            (Family::Lower(10), 0.0),
            (Family::Mixed(10), 0.0),
        ],
        Data::Default(DatasetId::Meps) => &[
            (Family::Single(1, 10), 0.4),
            (Family::Single(1, 30), 0.6),
            (Family::Lower(10), 0.0),
            (Family::Mixed(10), 0.0),
        ],
        Data::Default(DatasetId::Tpch) => &[
            (Family::Single(1, 10), 0.0),
            (Family::Single(1, 30), 0.0),
            (Family::Lower(10), 0.0),
            (Family::Mixed(10), 0.0),
        ],
        // Full-size Astronauts proves nothing quickly; only the identity
        // fast path is safe (read-only, so no margin is needed).
        Data::Default(DatasetId::Astronauts) | Data::Astronauts(_) => &[
            (Family::Single(1, 10), 0.8),
            (Family::Lower(10), 0.4),
            (Family::Mixed(10), 0.5),
        ],
    }
}

/// The request pool of a dataset: its families × {QD, JAC} × ε in
/// `{0, 0.2, 0.4, 0.6, 0.8}` from the family's floor. (The grid is coarse
/// to keep a pass short: the more passes a run has, the steadier its
/// median over passes.)
pub fn pool(data: Data, max_nodes: Option<usize>) -> Vec<Spec> {
    let mut specs = Vec::new();
    for &(family, floor) in families(data) {
        for distance in [Qd, Jac] {
            for fifth in 0..5u32 {
                let epsilon = f64::from(fifth) / 5.0;
                if epsilon + 1e-9 >= floor {
                    specs.push(Spec {
                        family,
                        distance,
                        epsilon,
                        max_nodes,
                    });
                }
            }
        }
    }
    specs
}

/// A cheap request used to warm up a dataset during set-up: ε = 1, which
/// the identity fast path answers on the default-size data, capped at the
/// root node where it does not.
pub fn warm_up() -> Spec {
    Spec {
        family: Family::Single(1, 10),
        distance: DistanceMeasure::Predicate,
        epsilon: 1.0,
        max_nodes: Some(1),
    }
}
