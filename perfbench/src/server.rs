//! `server-loopback`: an in-process `qr-server` with its default
//! configuration (2 workers, 4 pooled sessions, 64-entry solution caches),
//! driven over loopback TCP by 2 closed-loop connections.
//!
//! A pass deals every screened request of the four full-size datasets
//! alternately to the two connections, so both do the same amount of work,
//! and the connections start each pass together. A fixed third of the
//! requests is sent a second time right after the connection's next
//! request, and the session's cache answers the repeat. Otherwise a request
//! is sent once per pass, and the writes between passes move every session
//! to a new version, so fresh requests never hit the cache.

use crate::calibrate::{Calibration, HostSpeed};
use crate::check::{Golden, GoldenTable};
use crate::measure::Rng;
use crate::requests::Spec;
use crate::run::{
    set_up_repeatedly, Config, Counts, Outcome, Pass, PassStart, ServerCounts, APPLY_PROBE,
};
use crate::tables;
use crate::trace::{Tracer, OP};
use crate::writes::Writer;
use qr_datagen::Workload;
use qr_server::{Json, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

/// Every third request of each dataset's pool (in table order) is repeated
/// in every pass. The repeated set is fixed, not drawn per pass, so every
/// pass sends the same multiset of requests with the same cache hits, and
/// the latency percentiles do not move with how many cheap repeats a pass
/// happened to draw.
const REPEAT_EVERY: usize = 3;

/// Closed-loop client connections.
const CONNECTIONS: usize = 2;

/// Requests a connection sends between two samples of the host's speed.
const SAMPLE_EVERY: usize = 8;

/// Agreement tolerance for wire answers (values are rendered as JSON).
const TOL: f64 = 1e-6;

/// One client-side record of a request.
struct Reply {
    dataset: usize,
    spec: Spec,
    latency: Duration,
    /// The factor that scales `latency` to the reference speed.
    factor: f64,
    response: Result<Json, String>,
}

/// One request to send: (dataset, spec, wire line, whether it is repeated).
type Outgoing = (usize, Spec, Arc<str>, bool);

/// The requests of one pass for each connection: every request of every
/// pool once, fresh, dealt alternately to the two connections so their work
/// balances, each in a seeded order; a repeated request is sent again after
/// the connection's next fresh request.
fn pass_requests(rng: &mut Rng, pools: &[Vec<Outgoing>]) -> Vec<Vec<Outgoing>> {
    let mut dealt: Vec<Vec<Outgoing>> = vec![Vec::new(); CONNECTIONS];
    for pool in pools {
        for (i, request) in rng.shuffled(pool).into_iter().enumerate() {
            dealt[i % CONNECTIONS].push(request);
        }
    }
    dealt
        .into_iter()
        .map(|requests| {
            let mut out = Vec::new();
            let mut pending: Option<Outgoing> = None;
            for request in rng.shuffled(&requests) {
                out.push(request.clone());
                out.extend(pending.take());
                if request.3 {
                    pending = Some(request);
                }
            }
            out.extend(pending);
            out
        })
        .collect()
}

/// A blocking line-oriented connection.
struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("the server accepts");
        writer.set_nodelay(true).expect("TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("the socket clones"));
        Connection { writer, reader }
    }

    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        Json::parse(response.trim()).map_err(|e| format!("bad response: {}", e.message))
    }
}

/// Start a server and warm every dataset up with one request (which builds
/// its pooled session). Also returns the time until the server accepted the
/// connection, which is not set-up work: the accept loop polls every 25 ms,
/// so that wait is uniform in 0-25 ms whatever the program does.
fn set_up(warm_ups: &[String]) -> (ServerHandle, Duration) {
    let handle = qr_server::start(ServerConfig::default()).expect("the server starts");
    let accepted = Instant::now();
    let mut connection = Connection::open(handle.addr());
    let ping = connection
        .call(r#"{"op":"ping"}"#)
        .expect("the server answers a ping");
    assert_eq!(
        ping.get("ok").and_then(Json::as_bool),
        Some(true),
        "ping failed"
    );
    let accepted = accepted.elapsed();
    for line in warm_ups {
        let response = connection
            .call(line)
            .expect("the warm-up request is answered");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "warm-up failed"
        );
    }
    (handle, accepted)
}

fn metric(metrics: &Json, block: &str, name: &str) -> f64 {
    metrics
        .get(block)
        .and_then(|b| b.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Run `server-loopback`.
pub fn run(cfg: &Config) -> Outcome {
    // Render every wire line once; the client keeps no copy of the data.
    let (pools, warm_ups) = {
        let workloads: Vec<Workload> = tables::SERVER_DATA.iter().map(|d| d.workload()).collect();
        let mut id = 0;
        let pools: Vec<Vec<Outgoing>> = tables::SERVER_DATA
            .iter()
            .enumerate()
            .map(|(d, &data)| {
                let pool = tables::pool(data, None).into_iter().enumerate();
                let pool = pool.map(|(i, spec)| {
                    id += 1;
                    let line = Arc::from(spec.wire_line(data, &workloads[d], id));
                    (d, spec, line, i % REPEAT_EVERY == 0)
                });
                pool.collect()
            })
            .collect();
        let warm_ups: Vec<String> = tables::SERVER_DATA
            .iter()
            .zip(&workloads)
            .map(|(&data, workload)| tables::warm_up().wire_line(data, workload, 0))
            .collect();
        (pools, warm_ups)
    };
    let mut out = Outcome::default();
    let calibration = Calibration::new();
    let handle = set_up_repeatedly(
        &calibration,
        &mut out,
        || set_up(&warm_ups),
        ServerHandle::join,
    );
    let addr = handle.addr();
    for data in tables::SERVER_DATA {
        let session = handle
            .shared()
            .pool
            .get_or_build(data.wire_name())
            .expect("the session is pooled");
        let stats = session.setup_stats();
        out.annotate_ms += stats.annotation_time.as_secs_f64() * 1e3;
        out.tuples += stats.tuples;
        out.lineage_classes += stats.lineage_classes;
    }

    let mut control = Connection::open(addr);
    let mut rng = Rng::new(cfg.seed, 20);
    let sessions: Vec<_> = tables::SERVER_DATA
        .iter()
        .map(|data| {
            handle
                .shared()
                .pool
                .get_or_build(data.wire_name())
                .expect("the session is pooled")
        })
        .collect();
    let mut writers: Vec<Writer> = tables::SERVER_DATA
        .iter()
        .enumerate()
        .map(|(i, &data)| Writer::new(data, cfg.seed, 200 + i as u64))
        .collect();
    let golden = GoldenTable::committed();
    // The client threads live for the whole run (one connection each) and
    // start every pass together with the main thread.
    let barrier = Barrier::new(CONNECTIONS + 1);
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<(usize, Vec<Reply>, Tracer, Duration, f64)>();
        let clients: Vec<mpsc::Sender<(Vec<Outgoing>, Tracer, u64)>> = (0..CONNECTIONS)
            .map(|c| {
                let (work_tx, work_rx) = mpsc::channel::<(Vec<Outgoing>, Tracer, u64)>();
                let (barrier, done_tx, calibration) = (&barrier, done_tx.clone(), &calibration);
                scope.spawn(move || {
                    let mut connection = Connection::open(addr);
                    for (requests, mut tracer, first_id) in work_rx {
                        barrier.wait();
                        // A host sample before every SAMPLE_EVERY requests
                        // and after the last; each request is scaled by the
                        // samples on either side of it.
                        let mut speed = HostSpeed::new(calibration);
                        let mut replies: Vec<(Reply, usize)> = Vec::new();
                        for (i, request) in requests.into_iter().enumerate() {
                            if i % SAMPLE_EVERY == 0 {
                                speed.sample();
                            }
                            let id = first_id + i as u64;
                            replies.push((
                                call(&mut connection, &mut tracer, id, request),
                                speed.mark(),
                            ));
                        }
                        speed.sample();
                        let replies = replies
                            .into_iter()
                            .map(|(reply, mark)| Reply {
                                factor: speed.factor(mark),
                                ..reply
                            })
                            .collect();
                        let summary = (c, replies, tracer, speed.spent, speed.mean_factor());
                        done_tx
                            .send(summary)
                            .expect("the main thread collects every pass");
                    }
                });
                work_tx
            })
            .collect();
        let started = Instant::now();
        let mut next_id = 0u64;
        while !cfg.done(started, out.passes.len()) {
            let mut pass = Pass::new(cfg.traced(out.passes.len()));
            out.tracer.set_enabled(pass.traced);
            let before = control.call(r#"{"op":"metrics"}"#).expect("metrics");
            let requests = pass_requests(&mut rng, &pools);
            for (c, (client, requests)) in clients.iter().zip(requests).enumerate() {
                let first_id = next_id + c as u64 * 1_000_000;
                client
                    .send((requests, out.tracer.fork(), first_id))
                    .expect("the client thread runs");
            }
            barrier.wait();
            let start = PassStart::now();
            let mut results: Vec<(usize, Vec<Reply>, Tracer, Duration, f64)> = (0..CONNECTIONS)
                .map(|_| done_rx.recv().expect("a client thread panicked"))
                .collect();
            results.sort_by_key(|result| result.0);
            let spent = results.iter().map(|result| result.3).sum();
            let factor = results.iter().map(|result| result.4).sum::<f64>() / CONNECTIONS as f64;
            pass.finish(start, spent, factor);
            pass.concurrency = CONNECTIONS;
            next_id += 2_000_000;
            out.tracer.set_enabled(cfg.trace);
            let after = control.call(r#"{"op":"metrics"}"#).expect("metrics");
            let diff = |block: &str, name: &str| {
                metric(&after, block, name) - metric(&before, block, name)
            };

            let mut rtt_ms = 0.0;
            let mut fastpath = 0;
            let mut replies = Vec::new();
            for (_, thread_replies, tracer, _, _) in results {
                out.tracer.merge(tracer);
                for reply in thread_replies {
                    rtt_ms += reply.latency.as_secs_f64() * 1e3;
                    pass.solved(reply.latency, reply.factor);
                    if let Ok(response) = &reply.response {
                        let stat = |n: &str| {
                            let stats = response.get("stats");
                            stats
                                .and_then(|s| s.get(n))
                                .and_then(Json::as_f64)
                                .unwrap_or(0.0)
                        };
                        fastpath +=
                            usize::from(stat("model_build_ms") > 0.0 && stat("lp_solves") == 0.0);
                    }
                    replies.push(reply);
                }
            }
            pass.counts = Counts {
                solves: diff("solver", "solves") as usize,
                nodes: diff("solver", "nodes") as usize,
                lp_solves: diff("solver", "lp_solves") as usize,
                pivots: diff("solver", "simplex_iterations") as usize,
                refactorizations: diff("solver", "refactorizations") as usize,
                warm_lps: diff("solver", "warm_lp_solves") as usize,
                cache_hits: diff("solver", "cache_hits") as usize,
                cache_warm: diff("solver", "cache_warm_starts") as usize,
                fastpath,
                ..Counts::default()
            };
            pass.server = Some(ServerCounts {
                completed: diff("server", "completed"),
                shed: diff("server", "shed"),
                queue_wait_ms: diff("latency", "queue_wait_ms"),
                solve_ms: diff("latency", "solve_ms"),
                rtt_ms,
            });

            // The wire is read-only: between passes, time a probe of
            // single-row writes on the first pooled session, and write and
            // restore one row of every other session. The writes restore
            // every row they change, and the version bumps empty every
            // session's cache, so each pass starts from the same state.
            let mut speed = HostSpeed::new(&calibration);
            let mut probe = Vec::with_capacity(APPLY_PROBE);
            for (i, (session, writer)) in sessions.iter().zip(&mut writers).enumerate() {
                let writes = if i == 0 { APPLY_PROBE } else { 2 };
                if i == 0 {
                    speed.sample();
                }
                for _ in 0..writes {
                    let write = writer.next(session);
                    let start = Instant::now();
                    session.apply(vec![write]).expect("the probe write applies");
                    if i == 0 {
                        probe.push(start.elapsed());
                    }
                }
                if i == 0 {
                    speed.sample();
                }
            }
            let factor = speed.factor(0);
            pass.apply_ms = probe
                .iter()
                .map(|latency| latency.as_secs_f64() * 1e3 * factor)
                .collect();

            for reply in &replies {
                out.attempted += 1;
                let data = tables::SERVER_DATA[reply.dataset];
                match check_reply(reply, golden.get(&data.key(), &reply.spec.label())) {
                    Ok(Some(distance)) => {
                        out.distance(format!("{}:{}", data.key(), reply.spec.label()), distance)
                    }
                    Ok(None) => {}
                    Err(why) => out.fail(why),
                }
                out.checked += 1;
            }
            out.passes.push(pass);
        }
    });
    drop(control);
    handle.join();
    out
}

/// One timed round trip.
fn call(connection: &mut Connection, tracer: &mut Tracer, id: u64, request: Outgoing) -> Reply {
    let (dataset, spec, line, _) = request;
    let op = tracer.begin(OP, None, id);
    let start = Instant::now();
    let span = tracer.begin("server.rtt", op, id);
    let response = connection.call(&line);
    tracer.end(span);
    let latency = start.elapsed();
    tracer.end(op);
    if let Ok(response) = &response {
        let stat = |n: &str| {
            let ms = response
                .get("stats")
                .and_then(|s| s.get(n))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            Duration::from_secs_f64(ms.max(0.0) / 1e3)
        };
        let solve = tracer.child_from_stats("core.solve", span, Duration::ZERO, stat("total_ms"));
        tracer.child_from_stats("core.build", solve, Duration::ZERO, stat("model_build_ms"));
        tracer.child_from_stats(
            "milp.solve",
            solve,
            stat("model_build_ms"),
            stat("solver_ms"),
        );
    }
    Reply {
        dataset,
        spec,
        latency,
        factor: 1.0,
        response,
    }
}

/// Check one wire answer: proven, within ε, and at the golden
/// distance of the screened request. (The wire carries the refinement as
/// SQL text, which the relation layer cannot parse back, so the in-process
/// workloads carry the re-evaluation check.)
fn check_reply(reply: &Reply, golden: Option<Golden>) -> Result<Option<f64>, String> {
    let label = format!(
        "{}:{}",
        tables::SERVER_DATA[reply.dataset].key(),
        reply.spec.label()
    );
    let response = reply
        .response
        .as_ref()
        .map_err(|e| format!("{label}: {e}"))?;
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{label}: error response {}", response.render()));
    }
    let golden = golden.ok_or_else(|| format!("{label}: no golden value"))?;
    match (response.get("outcome").and_then(Json::as_str), golden) {
        (Some("no_refinement"), Golden::NoRefinement) => Ok(None),
        (Some("refined"), Golden::Distance(expected)) => {
            let refined = response.get("refined");
            let field = |n: &str| {
                let value = refined.and_then(|r| r.get(n)).and_then(Json::as_f64);
                value.ok_or_else(|| format!("{label}: no `{n}` in the answer"))
            };
            let (deviation, distance) = (field("deviation")?, field("distance")?);
            if refined
                .and_then(|r| r.get("proven_optimal"))
                .and_then(Json::as_bool)
                != Some(true)
            {
                return Err(format!("{label}: not proven optimal"));
            }
            if deviation > reply.spec.epsilon + TOL {
                return Err(format!("{label}: deviation {deviation} exceeds ε"));
            }
            if (distance - expected).abs() > TOL {
                return Err(format!("{label}: distance {distance}, golden {expected}"));
            }
            Ok(Some(distance))
        }
        (outcome, golden) => Err(format!("{label}: outcome {outcome:?}, golden {golden:?}")),
    }
}
