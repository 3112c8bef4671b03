//! Screen every request of the benchmark's tables: solve each once, cold,
//! on the generated data, check the answer, and report how it ended, its
//! work counts and its time on stderr. Proven answers are printed on stdout
//! as `perfbench/golden.tsv` lines.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml --bin screen > perfbench/golden.tsv`
//!
//! A request that ends on a time limit is reported as `TIMELIMIT`: it must
//! be taken out of `src/tables.rs` before the tables are used.
//!
//! A second section screens the `live-session` requests against the data
//! that workload's writes can produce. For every row of each dataset's main
//! relation and both directions of its write, it applies the write and, if
//! the write changes the query's top-30 output (the ranks every constraint
//! counts in), solves every request of the dataset's pool after it with a
//! short time limit. A request of the live pool that stops on that limit
//! fails the screen; requests below the pool's ε floor are reported for
//! comparison.

use perfbench::check::{check, Answer};
use perfbench::requests::{Data, Spec};
use perfbench::tables;
use perfbench::trace::Tracer;
use perfbench::writes;
use qr_core::{Mutation, RefinementOutcome, RefinementSession};
use qr_milp::SolverOptions;
use qr_relation::{Row, SpjQuery};
use std::time::{Duration, Instant};

/// The deepest rank any constraint of the tables counts (k = 30).
const TOP: usize = 30;

/// Time limit of a solve in the write section: a live-session solve takes
/// milliseconds, so one that reaches this is near the edge.
const WRITE_TIME_LIMIT: Duration = Duration::from_secs(2);

fn main() {
    let mut groups: Vec<(Data, Vec<Spec>)> = Vec::new();
    for (data, spec) in tables::tree_search().into_iter().chain(tables::large_lp()) {
        groups.push((data, vec![spec]));
    }
    for data in tables::SERVER_DATA {
        // The server's pool; the live-session pool is the same requests with
        // a node cap, which they stay below.
        groups.push((data, tables::pool(data, None)));
    }
    println!("# dataset\trequest\tdistance of the proven answer (`none`: proven infeasible)");
    println!("# generated by src/bin/screen.rs");
    let mut tracer = Tracer::new(false);
    let mut bad = 0;
    for (data, specs) in groups {
        let workload = data.workload();
        let session = RefinementSession::new(workload.db.clone(), workload.query.clone())
            .expect("the workload annotates");
        for spec in specs {
            let request = spec.request(&workload);
            let start = Instant::now();
            let result = session.solve(&request).expect("the request solves");
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let s = &result.stats;
            let proven = result.outcome.is_proven_terminal();
            let ended = match &result.outcome {
                _ if proven && s.lp_solves == 0 && result.outcome.is_refined() => "fastpath",
                _ if proven => "proven",
                _ if s.nodes >= spec.solver_options().max_nodes => "nodecap",
                _ => "TIMELIMIT",
            };
            let refined = result.outcome.refined();
            let answer = Answer {
                dataset: data.key(),
                snapshot: session.snapshot(),
                spec,
                constraints: request.constraints.clone(),
                k_star: request.constraints.k_star(),
                assignment: refined.map(|r| r.assignment.clone()),
                reported_distance: refined.map(|r| r.distance),
                proven,
                base: true,
                golden: None,
            };
            let verdict = check(&answer, session.query(), &mut tracer);
            if ended == "TIMELIMIT" || verdict.is_err() {
                bad += 1;
            }
            eprintln!(
                "{}\t{}\t{ended}\tnodes={}\tlps={}\tpivots={}\trefactor={}\t{ms:.1}ms\tcheck={verdict:?}",
                data.key(),
                spec.label(),
                s.nodes,
                s.lp_solves,
                s.simplex_iterations,
                s.refactorizations,
            );
            if proven {
                let value = match &result.outcome {
                    RefinementOutcome::Refined(r) => r.distance.to_string(),
                    _ => "none".to_string(),
                };
                println!("{}\t{}\t{value}", data.key(), spec.label());
            }
        }
    }
    bad += screen_writes();
    if bad > 0 {
        eprintln!("{bad} request(s) ended on a time limit or failed the check");
        std::process::exit(1);
    }
}

/// The query's top-[`TOP`] output rows on the session's current data.
fn top(session: &RefinementSession, query: &SpjQuery) -> Vec<Row> {
    let output =
        qr_relation::evaluate(session.snapshot().db(), query).expect("the query evaluates");
    output.rows().iter().take(TOP).cloned().collect()
}

/// The write section; returns the number of live-pool requests that
/// stopped on the time limit after some write.
fn screen_writes() -> usize {
    let mut bad = 0;
    for &data in &tables::LIVE_DATA {
        let workload = data.workload();
        let session = RefinementSession::new(workload.db.clone(), workload.query.clone())
            .expect("the workload annotates");
        let live = tables::live_pool(data);
        let specs = tables::pool(data, Some(tables::LIVE_NODE_CAP));
        let options = SolverOptions {
            time_limit: Some(WRITE_TIME_LIMIT),
            max_nodes: tables::LIVE_NODE_CAP,
            ..SolverOptions::default()
        };
        let requests: Vec<_> = specs
            .iter()
            .map(|spec| spec.request(&workload).with_solver_options(options.clone()))
            .collect();
        let base = top(&session, &workload.query);
        let relation = data.main_relation();
        let rows = session
            .snapshot()
            .db()
            .get(relation)
            .expect("main relation")
            .len();
        // Per request: writes after which it stopped on the limit, and its
        // slowest solve.
        let mut stopped = vec![0usize; specs.len()];
        let mut slowest = vec![Duration::ZERO; specs.len()];
        let mut moving = 0;
        for index in 0..rows {
            for up in [true, false] {
                let snapshot = session.snapshot();
                let table = snapshot.db().get(relation).expect("main relation");
                let (id, original, changed) = writes::change(data, table, index, up);
                session
                    .apply(vec![Mutation::update(relation, vec![(id, changed)])])
                    .expect("the write applies");
                if top(&session, &workload.query) != base {
                    moving += 1;
                    for (r, request) in requests.iter().enumerate() {
                        let start = Instant::now();
                        let result = session.solve(request).expect("the request solves");
                        slowest[r] = slowest[r].max(start.elapsed());
                        let s = &result.stats;
                        if !result.outcome.is_proven_terminal() && s.nodes < tables::LIVE_NODE_CAP {
                            stopped[r] += 1;
                        }
                    }
                }
                session
                    .apply(vec![Mutation::update(relation, vec![(id, original)])])
                    .expect("the restore applies");
            }
        }
        for (r, spec) in specs.iter().enumerate() {
            let in_pool = live.contains(spec);
            if in_pool && stopped[r] > 0 {
                bad += 1;
            }
            eprintln!(
                "writes\t{}\t{}\t{}\tstopped on the limit after {} of {moving} top-changing writes (of {})\tslowest {:.1}ms",
                data.key(),
                spec.label(),
                if in_pool { "live pool" } else { "below the floor" },
                stopped[r],
                2 * rows,
                slowest[r].as_secs_f64() * 1e3,
            );
        }
    }
    bad
}
