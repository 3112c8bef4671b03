//! What every workload shares: the run configuration, the per-run record,
//! and the assembly of the metrics printed on the last line.

use crate::calibrate::{Calibration, HostSpeed, REFERENCE};
use crate::measure::{median, percentile, process_cpu};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 11;

/// Single-row writes timed after each pass by workloads whose stream has no
/// writes of its own (`apply_p50_ms` there is this probe). Even, so the
/// probe restores every row it changes.
pub const APPLY_PROBE: usize = 60;

/// Command-line configuration of one run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Measured time; a run ends at the first pass boundary after it.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Passes a run makes at least, however short `seconds` is.
    pub min_passes: usize,
}

impl Config {
    /// Whether the run should stop after `passes` passes started at
    /// `started`. A traced run alternates untraced and traced passes (their
    /// throughputs give the tracing overhead), so it runs at least two.
    pub fn done(&self, started: Instant, passes: usize) -> bool {
        let min_passes = if self.trace { 2 } else { 1 };
        started.elapsed().as_secs_f64() >= self.seconds && passes >= self.min_passes.max(min_passes)
    }

    /// Whether pass number `pass` (from 0) is traced.
    pub fn traced(&self, pass: usize) -> bool {
        self.trace && pass % 2 == 1
    }
}

/// Work counts summed over the operations of a pass.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Solve operations.
    pub solves: usize,
    /// Solves that ran branch-and-bound (at least one LP).
    pub milp_solves: usize,
    /// Branch-and-bound nodes.
    pub nodes: usize,
    /// LP solves.
    pub lp_solves: usize,
    /// Simplex pivots.
    pub pivots: usize,
    /// Basis refactorizations.
    pub refactorizations: usize,
    /// Warm-started LP solves.
    pub warm_lps: usize,
    /// Sum over MILP solves of `lu_nnz / matrix_nnz`.
    pub fill_ratio_sum: f64,
    /// Models built.
    pub models: usize,
    /// Sum of model variables.
    pub vars: usize,
    /// Sum of model rows.
    pub rows: usize,
    /// Solves answered by the identity fast path.
    pub fastpath: usize,
    /// Solves answered from the solution cache.
    pub cache_hits: usize,
    /// Solves warm-started from a cached neighbour.
    pub cache_warm: usize,
    /// Writes applied.
    pub applies: usize,
    /// Writes repaired incrementally (the rest rebuilt in full).
    pub delta_repairs: usize,
}

impl Counts {
    /// Add another pass's counts.
    pub fn merge(&mut self, other: &Counts) {
        let Counts {
            solves,
            milp_solves,
            nodes,
            lp_solves,
            pivots,
            refactorizations,
            warm_lps,
            fill_ratio_sum,
            models,
            vars,
            rows,
            fastpath,
            cache_hits,
            cache_warm,
            applies,
            delta_repairs,
        } = other;
        self.solves += solves;
        self.milp_solves += milp_solves;
        self.nodes += nodes;
        self.lp_solves += lp_solves;
        self.pivots += pivots;
        self.refactorizations += refactorizations;
        self.warm_lps += warm_lps;
        self.fill_ratio_sum += fill_ratio_sum;
        self.models += models;
        self.vars += vars;
        self.rows += rows;
        self.fastpath += fastpath;
        self.cache_hits += cache_hits;
        self.cache_warm += cache_warm;
        self.applies += applies;
        self.delta_repairs += delta_repairs;
    }

    /// Fold in one MILP solve's statistics.
    pub fn add_milp(&mut self, s: &qr_milp::solution::SolveStats) {
        if s.lp_solves > 0 {
            self.milp_solves += 1;
            self.fill_ratio_sum += s.lu_fill_ratio();
        }
        self.nodes += s.nodes;
        self.lp_solves += s.lp_solves;
        self.pivots += s.simplex_iterations;
        self.refactorizations += s.refactorizations;
        self.warm_lps += s.warm_lp_solves;
    }

    /// Fold in one session solve's statistics.
    pub fn add_session(&mut self, s: &qr_core::RefinementStats, fastpath: bool) {
        self.solves += 1;
        if s.lp_solves > 0 {
            self.milp_solves += 1;
            if s.matrix_nnz > 0 {
                self.fill_ratio_sum += s.lu_nnz as f64 / s.matrix_nnz as f64;
            }
        }
        self.nodes += s.nodes;
        self.lp_solves += s.lp_solves;
        self.pivots += s.simplex_iterations;
        self.refactorizations += s.refactorizations;
        self.warm_lps += s.warm_lp_solves;
        if s.cache_hits == 0 {
            self.models += 1;
            self.vars += s.num_variables;
            self.rows += s.num_constraints;
        }
        self.fastpath += usize::from(fastpath);
        self.cache_hits += s.cache_hits;
        self.cache_warm += s.cache_warm_starts;
    }
}

/// Server-side counters over a pass, from the `metrics` op.
#[derive(Debug, Clone, Default)]
pub struct ServerCounts {
    /// Requests that completed.
    pub completed: f64,
    /// Requests shed by admission control.
    pub shed: f64,
    /// Summed queue wait (ms).
    pub queue_wait_ms: f64,
    /// Summed worker solve time (ms).
    pub solve_ms: f64,
    /// Summed round-trip time seen by the clients (ms).
    pub rtt_ms: f64,
}

impl ServerCounts {
    /// Add another pass's counters.
    pub fn merge(&mut self, other: &ServerCounts) {
        self.completed += other.completed;
        self.shed += other.shed;
        self.queue_wait_ms += other.queue_wait_ms;
        self.solve_ms += other.solve_ms;
        self.rtt_ms += other.rtt_ms;
    }
}

/// One measured pass of a run: the workload's fixed multiset of
/// operations, in a seeded order. Times other than `wall` are scaled to the
/// reference host speed (see [`crate::calibrate`]).
#[derive(Debug)]
pub struct Pass {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Wall time, as measured (for the run record).
    pub wall: Duration,
    /// Process CPU time, less the time spent sampling the host's speed.
    pub cpu: Duration,
    /// Operations completed.
    pub ops: usize,
    /// Operations in flight at once: 1, or the server's connections.
    pub concurrency: usize,
    /// Sum of the operations' scaled latencies (ms).
    pub op_ms: f64,
    /// Per-solve scaled latencies (ms).
    pub solve_ms: Vec<f64>,
    /// Per-write scaled latencies (ms): the stream's writes, or the probe's.
    pub apply_ms: Vec<f64>,
    /// Reference speed over the pass's mean measured speed.
    pub factor: f64,
    /// Work counts.
    pub counts: Counts,
    /// Server counters (server workload only).
    pub server: Option<ServerCounts>,
}

/// The clock readings at the start of a pass.
#[derive(Debug, Clone, Copy)]
pub struct PassStart {
    wall: Instant,
    cpu: Duration,
}

impl PassStart {
    /// Read the clocks now.
    pub fn now() -> Self {
        PassStart {
            wall: Instant::now(),
            cpu: process_cpu(),
        }
    }
}

impl Pass {
    /// An empty pass.
    pub fn new(traced: bool) -> Self {
        Pass {
            traced,
            wall: Duration::ZERO,
            cpu: Duration::ZERO,
            ops: 0,
            concurrency: 1,
            op_ms: 0.0,
            solve_ms: Vec::new(),
            apply_ms: Vec::new(),
            factor: 1.0,
            counts: Counts::default(),
            server: None,
        }
    }

    /// Record a completed solve and its latency, measured at `factor` (see
    /// [`HostSpeed::factor`]).
    pub fn solved(&mut self, latency: Duration, factor: f64) {
        let ms = latency.as_secs_f64() * 1e3 * factor;
        self.ops += 1;
        self.op_ms += ms;
        self.solve_ms.push(ms);
    }

    /// Record a completed write of the stream.
    pub fn wrote(&mut self, latency: Duration, factor: f64) {
        let ms = latency.as_secs_f64() * 1e3 * factor;
        self.ops += 1;
        self.op_ms += ms;
        self.apply_ms.push(ms);
    }

    /// Stop the pass's clocks. `spent` is the time the pass spent sampling
    /// the host's speed (taken off its CPU time), and `factor` the pass's
    /// mean speed factor.
    pub fn finish(&mut self, start: PassStart, spent: Duration, factor: f64) {
        self.wall = start.wall.elapsed();
        self.cpu = process_cpu()
            .saturating_sub(start.cpu)
            .saturating_sub(spent);
        self.factor = factor;
    }

    /// Operations per second at the reference speed.
    pub fn throughput(&self) -> f64 {
        (self.concurrency * self.ops) as f64 * 1e3 / self.op_ms.max(1e-9)
    }

    /// Scaled process CPU time per operation (ms).
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e3 * self.factor / self.ops.max(1) as f64
    }

    /// Mean measured kernel time (ms): the host's speed during the pass.
    pub fn host_ms(&self) -> f64 {
        REFERENCE.as_secs_f64() * 1e3 / self.factor
    }
}

/// Set a workload up [`SETUP_REPS`] times, each time scaled to the reference
/// speed by host samples on either side, and keep the last set-up. Each
/// earlier set-up is torn down before the next one starts, so only one is
/// ever resident. `set_up` returns the set-up and any time inside it that
/// was spent waiting rather than setting up, which is not counted.
pub fn set_up_repeatedly<T>(
    calibration: &Calibration,
    out: &mut Outcome,
    mut set_up: impl FnMut() -> (T, Duration),
    mut tear_down: impl FnMut(T),
) -> T {
    let mut speed = HostSpeed::new(calibration);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            tear_down(previous);
        }
        let mark = speed.sample();
        let start = Instant::now();
        let (set, waited) = set_up();
        let elapsed = start.elapsed().saturating_sub(waited).as_secs_f64();
        last = Some(set);
        speed.sample();
        out.setup_raw_s.push(elapsed);
        out.setup_s.push(elapsed * speed.factor(mark));
    }
    last.expect("SETUP_REPS > 0")
}

/// Work counts of one request: nodes, LPs, pivots, refactorizations.
pub type Work = [usize; 4];

/// The record of a whole run.
#[derive(Debug)]
pub struct Outcome {
    /// Time of each set-up repetition, scaled to the reference speed.
    pub setup_s: Vec<f64>,
    /// Time of each set-up repetition, as measured.
    pub setup_raw_s: Vec<f64>,
    /// The measured passes.
    pub passes: Vec<Pass>,
    /// Operations attempted (timed solves and writes).
    pub attempted: usize,
    /// Operations that failed, stopped on a time limit, or failed the check.
    pub failed: usize,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// Distance of the first answer on unmodified data of each distinct
    /// request.
    pub distances: BTreeMap<String, f64>,
    /// Work counts per request, where the workload's counts must repeat.
    pub fingerprint: BTreeMap<String, Work>,
    /// Whether every repetition of a request repeated its work counts (a
    /// repetition that did not is also counted as failed).
    pub fingerprint_stable: bool,
    /// Full annotation time of the workload's sessions at set-up (ms).
    pub annotate_ms: f64,
    /// Tuples of `~Q(D)` over the workload's sessions.
    pub tuples: usize,
    /// Lineage classes over the workload's sessions.
    pub lineage_classes: usize,
    /// Answers re-evaluated by the check.
    pub checked: usize,
    /// The spans.
    pub tracer: Tracer,
}

impl Default for Outcome {
    /// An empty record (tracing starts off; each workload turns it on for
    /// its traced passes).
    fn default() -> Self {
        Outcome {
            setup_s: Vec::new(),
            setup_raw_s: Vec::new(),
            passes: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            distances: BTreeMap::new(),
            fingerprint: BTreeMap::new(),
            fingerprint_stable: true,
            annotate_ms: 0.0,
            tuples: 0,
            lineage_classes: 0,
            checked: 0,
            tracer: Tracer::new(false),
        }
    }
}

impl Outcome {
    /// Count a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// Record the work counts of a request; a later repetition that does
    /// not match fails.
    pub fn fingerprint(&mut self, label: &str, work: Work) {
        match self.fingerprint.get(label) {
            Some(first) if *first != work => {
                let why = format!("{label}: work counts {work:?}, first repetition {first:?}");
                self.fingerprint_stable = false;
                self.fail(why);
            }
            Some(_) => {}
            None => {
                self.fingerprint.insert(label.to_string(), work);
            }
        }
    }

    /// Record a checked distance of an answer on unmodified data; the first
    /// such answer of a request counts.
    pub fn distance(&mut self, key: String, distance: f64) {
        self.distances.entry(key).or_insert(distance);
    }

    /// The median of `metric` over the passes traced (or not).
    fn median_over(&self, traced: bool, metric: impl Fn(&Pass) -> f64) -> f64 {
        let values: Vec<f64> = self
            .passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(metric)
            .collect();
        median(&values)
    }

    /// The end-to-end metrics: (name, value, unit). Time metrics are
    /// computed within each untraced pass, at the reference speed, and the
    /// median over the passes is reported.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let distance_mean = if self.distances.is_empty() {
            0.0
        } else {
            self.distances.values().sum::<f64>() / self.distances.len() as f64
        };
        let untraced = |metric: fn(&Pass) -> f64| self.median_over(false, metric);
        vec![
            ("setup_s", median(&self.setup_s), "s"),
            ("throughput_ops", untraced(Pass::throughput), "1/s"),
            (
                "latency_p50_ms",
                untraced(|p| percentile(&p.solve_ms, 0.5)),
                "ms",
            ),
            (
                "latency_p90_ms",
                untraced(|p| percentile(&p.solve_ms, 0.9)),
                "ms",
            ),
            (
                "apply_p50_ms",
                untraced(|p| percentile(&p.apply_ms, 0.5)),
                "ms",
            ),
            ("cpu_ms_per_op", untraced(Pass::cpu_ms_per_op), "ms"),
            ("ok_share", self.ok_share(), "share"),
            ("distance_mean", distance_mean, "distance"),
            ("peak_rss_mb", crate::measure::peak_rss_mb(), "MiB"),
        ]
    }

    /// Share of attempted operations that completed, did not stop on a time
    /// limit and passed the check.
    pub fn ok_share(&self) -> f64 {
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted.max(1) as f64
    }

    /// The per-layer metrics, over the traced passes: (name, value, unit).
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let traced: Vec<&Pass> = self.passes.iter().filter(|p| p.traced).collect();
        let mut c = Counts::default();
        let mut server = ServerCounts::default();
        let mut ops = 0;
        for p in &traced {
            c.merge(&p.counts);
            if let Some(s) = &p.server {
                server.merge(s);
            }
            ops += p.ops;
        }
        let (layers, _) = self.tracer.layer_self_times();
        let (by_name, _) = self.tracer.self_time_by_name();
        let ms = |d: Option<&Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e3);
        let per = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 };
        let milp_ms = ms(by_name.get("milp.solve"));
        let requests = server.completed + server.shed;
        let server_rtt = per(server.rtt_ms, requests as usize);
        let server_queue = per(server.queue_wait_ms, requests as usize);
        let server_solve = per(server.solve_ms, requests as usize);
        let coverage = {
            let (layers, ops_time) = self.tracer.layer_self_times();
            let bench = layers.get("bench").copied().unwrap_or_default();
            if ops_time.is_zero() {
                0.0
            } else {
                1.0 - bench.as_secs_f64() / ops_time.as_secs_f64()
            }
        };
        let overhead = 1.0
            - self.median_over(true, Pass::throughput) / self.median_over(false, Pass::throughput);
        vec![
            ("milp.solve_ms", per(milp_ms, ops), "ms"),
            ("milp.nodes", per(c.nodes as f64, c.solves), "count"),
            ("milp.lp_solves", per(c.lp_solves as f64, c.solves), "count"),
            ("milp.pivots", per(c.pivots as f64, c.solves), "count"),
            (
                "milp.pivots_per_lp",
                per(c.pivots as f64, c.lp_solves),
                "count",
            ),
            (
                "milp.refactorizations",
                per(c.refactorizations as f64, c.solves),
                "count",
            ),
            (
                "milp.refactor_per_lp",
                per(c.refactorizations as f64, c.lp_solves),
                "count",
            ),
            ("milp.us_per_pivot", per(milp_ms * 1e3, c.pivots), "us"),
            (
                "milp.warm_lp_share",
                per(c.warm_lps as f64, c.lp_solves),
                "share",
            ),
            (
                "milp.lu_fill_ratio",
                per(c.fill_ratio_sum, c.milp_solves),
                "ratio",
            ),
            (
                "core.build_ms",
                per(ms(by_name.get("core.build")), ops),
                "ms",
            ),
            (
                "core.solve_self_ms",
                per(ms(by_name.get("core.solve")), ops),
                "ms",
            ),
            ("core.vars", per(c.vars as f64, c.models), "count"),
            ("core.rows", per(c.rows as f64, c.models), "count"),
            (
                "core.fastpath_share",
                per(c.fastpath as f64, c.solves),
                "share",
            ),
            (
                "core.cache_hit_share",
                per(c.cache_hits as f64, c.solves),
                "share",
            ),
            (
                "core.cache_warm_share",
                per(c.cache_warm as f64, c.solves),
                "share",
            ),
            ("provenance.annotate_ms", self.annotate_ms, "ms"),
            (
                "provenance.apply_ms",
                per(ms(layers.get("provenance")), c.applies),
                "ms",
            ),
            (
                "provenance.delta_share",
                per(c.delta_repairs as f64, c.applies),
                "share",
            ),
            ("provenance.tuples", self.tuples as f64, "count"),
            (
                "provenance.lineage_classes",
                self.lineage_classes as f64,
                "count",
            ),
            (
                "relation.eval_ms",
                per(
                    self.tracer.total("relation.eval").as_secs_f64() * 1e3,
                    self.checked,
                ),
                "ms",
            ),
            ("server.rtt_ms", server_rtt, "ms"),
            ("server.queue_wait_ms", server_queue, "ms"),
            ("server.solve_ms", server_solve, "ms"),
            (
                "server.overhead_ms",
                server_rtt - server_queue - server_solve,
                "ms",
            ),
            (
                "server.shed_share",
                per(server.shed, requests as usize),
                "share",
            ),
            (
                "server.cache_hit_share",
                per(c.cache_hits as f64, c.solves),
                "share",
            ),
            ("bench.self_ms", per(ms(layers.get("bench")), ops), "ms"),
            ("trace.coverage", coverage, "share"),
            ("trace.overhead_share", overhead, "share"),
            ("trace.ops", ops as f64, "count"),
        ]
    }
}

/// Render `{"name": {"value": v, "unit": u}, ...}`.
pub fn render_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repetition_with_other_work_counts_fails() {
        let mut out = Outcome::default();
        out.fingerprint("r", [1, 2, 3, 4]);
        out.fingerprint("r", [1, 2, 3, 4]);
        assert!(out.fingerprint_stable);
        assert_eq!(out.failed, 0);
        out.fingerprint("r", [1, 2, 4, 4]);
        assert!(!out.fingerprint_stable);
        assert_eq!(out.failed, 1);
    }
}
