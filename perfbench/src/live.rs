//! `live-session`: one thread drives three cached sessions (Law Students,
//! MEPS, TPC-H at default size) with reads and single-row writes through
//! `RefinementSession::solve` and `RefinementSession::apply`.
//!
//! A pass asks every screened request of every dataset once, fresh, in
//! seeded rounds. A round belongs to one dataset: six fresh solves, one
//! repeat of one of them (a solution-cache hit), then one write, which moves
//! the session to a new version and so invalidates its cache. That is 7
//! solves to 1 write. A run measures whole passes, so every run does the
//! same multiset of operations whatever the seed.

use crate::calibrate::{Calibration, HostSpeed};
use crate::check::{check_pass, Answer, GoldenTable};
use crate::measure::Rng;
use crate::requests::{Data, Spec};
use crate::run::{set_up_repeatedly, Config, Outcome, Pass, PassStart};
use crate::tables;
use crate::trace::OP;
use crate::writes::Writer;
use qr_core::{RefinementRequest, RefinementSession};
use std::time::{Duration, Instant};

/// Solution-cache capacity of each session: the capacity the server gives
/// its pooled sessions.
const CACHE_CAPACITY: usize = 64;

/// Fresh solves per round.
const ROUND_FRESH: usize = 6;

/// One dataset of the workload, set up.
struct Dataset {
    data: Data,
    session: RefinementSession,
    requests: Vec<(Spec, RefinementRequest)>,
    writer: Writer,
}

/// One operation of a round.
#[derive(Debug, Clone, Copy)]
enum Op {
    Solve(usize),
    Write,
}

fn set_up(seed: u64) -> Vec<Dataset> {
    tables::LIVE_DATA
        .iter()
        .enumerate()
        .map(|(i, &data)| {
            let workload = data.workload();
            let session = RefinementSession::new(workload.db.clone(), workload.query.clone())
                .expect("the workload annotates")
                .with_solution_cache(CACHE_CAPACITY);
            session
                .solve(&tables::warm_up().request(&workload))
                .expect("the warm-up request solves");
            let requests = tables::live_pool(data)
                .into_iter()
                .map(|spec| (spec, spec.request(&workload)))
                .collect();
            Dataset {
                data,
                session,
                requests,
                writer: Writer::new(data, seed, 10 + i as u64),
            }
        })
        .collect()
}

/// The rounds of one pass: (dataset, operations).
fn rounds(rng: &mut Rng, datasets: &[Dataset]) -> Vec<(usize, Vec<Op>)> {
    let mut rounds = Vec::new();
    for (d, dataset) in datasets.iter().enumerate() {
        let order = rng.shuffled(&(0..dataset.requests.len()).collect::<Vec<_>>());
        for chunk in order.chunks(ROUND_FRESH) {
            let mut ops: Vec<Op> = chunk.iter().map(|&r| Op::Solve(r)).collect();
            let source = rng.below(chunk.len());
            let at = source + 1 + rng.below(chunk.len() - source);
            ops.insert(at, Op::Solve(chunk[source]));
            ops.push(Op::Write);
            rounds.push((d, ops));
        }
    }
    rng.shuffled(&rounds)
}

/// Run `live-session`.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let calibration = Calibration::new();
    let mut datasets = set_up_repeatedly(
        &calibration,
        &mut out,
        || (set_up(cfg.seed), Duration::ZERO),
        drop,
    );
    for d in &datasets {
        let stats = d.session.setup_stats();
        out.annotate_ms += stats.annotation_time.as_secs_f64() * 1e3;
        out.tuples += stats.tuples;
        out.lineage_classes += stats.lineage_classes;
    }

    let golden = GoldenTable::committed();
    let mut rng = Rng::new(cfg.seed, 2);
    let mut request_id = 0u64;
    let started = Instant::now();
    while !cfg.done(started, out.passes.len()) {
        let mut pass = Pass::new(cfg.traced(out.passes.len()));
        out.tracer.set_enabled(pass.traced);
        let mut answers: Vec<Answer> = Vec::new();
        let mut speed = HostSpeed::new(&calibration);
        let start = PassStart::now();
        // A host sample before each round and after the last: each
        // operation is scaled by the samples on either side of its round.
        let mut timed = Vec::new();
        for (d, ops) in rounds(&mut rng, &datasets) {
            let mark = speed.sample();
            for op in ops {
                request_id += 1;
                let latency = match op {
                    Op::Solve(r) => solve(
                        &datasets[d],
                        r,
                        &golden,
                        request_id,
                        &mut pass,
                        &mut out,
                        &mut answers,
                    )
                    .map(|latency| (latency, false)),
                    Op::Write => write(&mut datasets[d], request_id, &mut pass, &mut out)
                        .map(|latency| (latency, true)),
                };
                timed.extend(latency.map(|(latency, is_write)| (latency, is_write, mark)));
            }
        }
        speed.sample();
        for (latency, is_write, mark) in timed {
            if is_write {
                pass.wrote(latency, speed.factor(mark));
            } else {
                pass.solved(latency, speed.factor(mark));
            }
        }
        pass.finish(start, speed.spent, speed.mean_factor());
        out.tracer.set_enabled(cfg.trace);
        let query = |key: &str| {
            let d = datasets.iter().find(|d| d.data.key() == key);
            d.expect("every answer names a dataset").session.query()
        };
        check_pass(&answers, query, &mut out);
        out.passes.push(pass);
    }
    out
}

/// One timed solve; returns its latency if it completed.
fn solve(
    dataset: &Dataset,
    r: usize,
    golden: &GoldenTable,
    request_id: u64,
    pass: &mut Pass,
    out: &mut Outcome,
    answers: &mut Vec<Answer>,
) -> Option<Duration> {
    let (spec, request) = &dataset.requests[r];
    out.attempted += 1;
    let tracer = &mut out.tracer;
    let op = tracer.begin(OP, None, request_id);
    let start = Instant::now();
    let span = tracer.begin("core.solve", op, request_id);
    let result = dataset.session.solve(request);
    tracer.end(span);
    let latency = start.elapsed();
    tracer.end(op);

    let result = match result {
        Ok(result) => result,
        Err(e) => {
            out.fail(format!(
                "{}:{}: solve failed: {e}",
                dataset.data.key(),
                spec.label()
            ));
            return None;
        }
    };
    let s = &result.stats;
    tracer.child_from_stats("core.build", span, Duration::ZERO, s.model_build_time);
    tracer.child_from_stats("milp.solve", span, s.model_build_time, s.solver_time);
    let proven = result.outcome.is_proven_terminal();
    let fastpath = proven && s.cache_hits == 0 && s.lp_solves == 0 && s.nodes == 0;
    pass.counts.add_session(s, fastpath);

    let cap = spec.solver_options().max_nodes;
    if !proven && (s.interrupted || s.nodes < cap) {
        out.fail(format!(
            "{}:{}: stopped after {} of {cap} nodes, {} LPs, {} pivots, {:?} (time limit; \
             cache warm start: {}, unmodified data: {})",
            dataset.data.key(),
            spec.label(),
            s.nodes,
            s.lp_solves,
            s.simplex_iterations,
            s.solver_time,
            s.cache_warm_starts > 0,
            dataset.writer.is_base()
        ));
        return None;
    }
    let refined = result.outcome.refined();
    answers.push(Answer {
        dataset: dataset.data.key(),
        snapshot: dataset.session.snapshot(),
        spec: *spec,
        constraints: request.constraints.clone(),
        k_star: request.constraints.k_star(),
        assignment: refined.map(|r| r.assignment.clone()),
        reported_distance: refined.map(|r| r.distance),
        proven,
        base: dataset.writer.is_base(),
        golden: if dataset.writer.is_base() {
            golden.get(&dataset.data.key(), &spec.label())
        } else {
            None
        },
    });
    Some(latency)
}

/// One timed single-row write; returns its latency if it applied.
fn write(
    dataset: &mut Dataset,
    request_id: u64,
    pass: &mut Pass,
    out: &mut Outcome,
) -> Option<Duration> {
    let mutation = dataset.writer.next(&dataset.session);
    let repairs_before = dataset.session.setup_stats().delta_annotations;
    out.attempted += 1;
    let tracer = &mut out.tracer;
    let op = tracer.begin(OP, None, request_id);
    let start = Instant::now();
    let span = tracer.begin("provenance.apply", op, request_id);
    let applied = dataset.session.apply(vec![mutation]);
    tracer.end(span);
    let latency = start.elapsed();
    tracer.end(op);
    if let Err(e) = applied {
        out.fail(format!("write failed: {e}"));
        return None;
    }
    pass.counts.applies += 1;
    pass.counts.delta_repairs += dataset.session.setup_stats().delta_annotations - repairs_before;
    Some(latency)
}
