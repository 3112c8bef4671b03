//! `tree-search` and `large-lp`: single-threaded solves driven straight
//! through `qr_core::build_model` and `qr_milp::Solver::solve_with_control`.
//!
//! A pass solves every request of the workload once, in a seeded order; a
//! run measures whole passes. Every request is deterministic (proven or
//! node-capped), so each pass repeats the same work and the per-request
//! work counts form the run's fingerprint.

use crate::calibrate::{Calibration, HostSpeed, InSolve};
use crate::check::{check_pass, Answer, GoldenTable};
use crate::measure::Rng;
use crate::requests::{Data, Spec};
use crate::run::{set_up_repeatedly, Config, Outcome, Pass, PassStart, APPLY_PROBE};
use crate::tables;
use crate::trace::OP;
use crate::writes::Writer;
use qr_core::{build_model, ConstraintSet, OptimizationConfig, RefinementSession};
use qr_datagen::Workload;
use qr_milp::{SolveControl, SolveStatus, Solver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One dataset of the workload, set up.
struct Prepared {
    data: Data,
    workload: Workload,
    session: RefinementSession,
}

/// One request, with its constraint set built ahead of timing.
struct Request {
    dataset: usize,
    spec: Spec,
    constraints: ConstraintSet,
}

/// Build the sessions of `datas` and warm each up with one request.
fn set_up(datas: &[Data]) -> Vec<Prepared> {
    datas
        .iter()
        .map(|&data| {
            let workload = data.workload();
            let session = RefinementSession::new(workload.db.clone(), workload.query.clone())
                .expect("the workload annotates");
            session
                .solve(&tables::warm_up().request(&workload))
                .expect("the warm-up request solves");
            Prepared {
                data,
                workload,
                session,
            }
        })
        .collect()
}

/// Run a workload of direct solves: `tables::tree_search()` or
/// `tables::large_lp()`.
pub fn run(cfg: &Config, specs: &[(Data, Spec)]) -> Outcome {
    let mut datas: Vec<Data> = Vec::new();
    for (data, _) in specs {
        if !datas.contains(data) {
            datas.push(*data);
        }
    }

    let mut out = Outcome::default();
    let calibration = Arc::new(Calibration::new());
    let prepared = set_up_repeatedly(
        &calibration,
        &mut out,
        || (set_up(&datas), Duration::ZERO),
        drop,
    );
    for p in &prepared {
        let stats = p.session.setup_stats();
        out.annotate_ms += stats.annotation_time.as_secs_f64() * 1e3;
        out.tuples += stats.tuples;
        out.lineage_classes += stats.lineage_classes;
    }
    let requests: Vec<Request> = specs
        .iter()
        .map(|(data, spec)| {
            let dataset = datas.iter().position(|d| d == data).expect("listed");
            Request {
                dataset,
                spec: *spec,
                constraints: spec.family.constraints(&prepared[dataset].workload),
            }
        })
        .collect();

    let golden = GoldenTable::committed();
    let mut rng = Rng::new(cfg.seed, 1);
    let mut writer = Writer::new(prepared[0].data, cfg.seed, 100);
    let mut request_id = 0u64;
    let started = Instant::now();
    while !cfg.done(started, out.passes.len()) {
        let mut pass = Pass::new(cfg.traced(out.passes.len()));
        out.tracer.set_enabled(pass.traced);
        let mut answers: Vec<Answer> = Vec::new();
        let mut speed = HostSpeed::new(&calibration);
        let start = PassStart::now();
        // A host sample before each solve and after the last, and in
        // untraced passes samples inside each solve: each solve is scaled by
        // the samples around and inside it.
        let mut timed = Vec::new();
        for &r in &rng.shuffled(&(0..requests.len()).collect::<Vec<_>>()) {
            let mark = speed.sample();
            request_id += 1;
            let sampler = (!pass.traced).then(|| Arc::new(InSolve::new(Arc::clone(&calibration))));
            let latency = solve(
                &requests[r],
                &prepared,
                &golden,
                request_id,
                sampler.clone(),
                &mut pass,
                &mut out,
                &mut answers,
            );
            let (inside, spent) = sampler.map(|s| s.taken()).unwrap_or_default();
            speed.absorb(&inside, spent);
            timed.extend(latency.map(|latency| (latency.saturating_sub(spent), mark, inside)));
        }
        speed.sample();
        for (latency, mark, inside) in timed {
            pass.solved(latency, speed.factor_with(mark, &inside));
        }
        pass.finish(start, speed.spent, speed.mean_factor());
        out.tracer.set_enabled(cfg.trace);

        // The stream has no writes: time a probe of single-row writes on
        // the first session. It writes and restores rows in pairs, so the
        // next pass sees the same data.
        let session = &prepared[0].session;
        let mark = speed.mark();
        let mut probe = Vec::with_capacity(APPLY_PROBE);
        for _ in 0..APPLY_PROBE {
            let write = writer.next(session);
            let start = Instant::now();
            session.apply(vec![write]).expect("the probe write applies");
            probe.push(start.elapsed());
        }
        speed.sample();
        let factor = speed.factor(mark);
        pass.apply_ms = probe
            .iter()
            .map(|latency| latency.as_secs_f64() * 1e3 * factor)
            .collect();
        let query = |key: &str| {
            let p = prepared.iter().find(|p| p.data.key() == key);
            p.expect("every answer names a prepared dataset")
                .session
                .query()
        };
        check_pass(&answers, query, &mut out);
        out.passes.push(pass);
    }
    out
}

/// One timed solve, observed by `sampler` if given; returns its latency if
/// it completed (the caller records it in the pass once the host sample
/// after it is taken).
#[allow(clippy::too_many_arguments)]
fn solve(
    request: &Request,
    prepared: &[Prepared],
    golden: &GoldenTable,
    request_id: u64,
    sampler: Option<Arc<InSolve>>,
    pass: &mut Pass,
    out: &mut Outcome,
    answers: &mut Vec<Answer>,
) -> Option<Duration> {
    let p = &prepared[request.dataset];
    let spec = &request.spec;
    let snapshot = p.session.snapshot();
    out.attempted += 1;

    let tracer = &mut out.tracer;
    let op = tracer.begin(OP, None, request_id);
    let start = Instant::now();
    let span = tracer.begin("core.build", op, request_id);
    let built = build_model(
        snapshot.annotated(),
        &request.constraints,
        spec.epsilon,
        spec.distance,
        &OptimizationConfig::all(),
    );
    tracer.end(span);
    let built = match built {
        Ok(built) => built,
        Err(e) => {
            tracer.end(op);
            out.fail(format!("{}: model build failed: {e}", spec.label()));
            return None;
        }
    };
    let span = tracer.begin("milp.solve", op, request_id);
    let mut control = SolveControl::new();
    if let Some(sampler) = sampler {
        control = control.with_observer(sampler);
    }
    let solution = Solver::new(spec.solver_options()).solve_with_control(&built.model, &control);
    tracer.end(span);
    let latency = start.elapsed();
    tracer.end(op);

    let solution = match solution {
        Ok(solution) => solution,
        Err(e) => {
            out.fail(format!("{}: solve failed: {e}", spec.label()));
            return None;
        }
    };
    pass.counts.solves += 1;
    pass.counts.models += 1;
    pass.counts.vars += built.model.num_variables();
    pass.counts.rows += built.model.num_constraints();
    pass.counts.add_milp(&solution.stats);
    let s = &solution.stats;
    out.fingerprint(
        &format!("{}:{}", p.data.key(), spec.label()),
        [
            s.nodes,
            s.lp_solves,
            s.simplex_iterations,
            s.refactorizations,
        ],
    );

    let cap = spec.solver_options().max_nodes;
    let proven = matches!(
        solution.status,
        SolveStatus::Optimal | SolveStatus::Infeasible
    );
    let node_capped = matches!(
        solution.status,
        SolveStatus::Feasible | SolveStatus::LimitReached
    ) && s.nodes >= cap;
    if !proven && !node_capped {
        out.fail(format!(
            "{}: ended {:?} after {} of {cap} nodes (time limit)",
            spec.label(),
            solution.status,
            s.nodes
        ));
        return None;
    }
    answers.push(Answer {
        dataset: p.data.key(),
        snapshot: Arc::clone(&snapshot),
        spec: *spec,
        constraints: request.constraints.clone(),
        k_star: built.k_star,
        assignment: solution
            .status
            .has_solution()
            .then(|| built.extract_assignment(&solution.values)),
        reported_distance: None,
        proven,
        base: true,
        golden: golden.get(&p.data.key(), &spec.label()),
    });
    Some(latency)
}
