//! In-memory spans recorded by the benchmark around each call into a layer.
//!
//! A span has a name (`<layer>.<call>`), a start and end, the span that
//! caused it, and the id of the request it belongs to. Spans stay in memory
//! and are written out when the run ends. With tracing off every call is a
//! no-op, so untraced runs read no clocks for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<SpanId>,
    request: u64,
}

/// Name of the root span of every timed operation.
pub const OP: &str = "bench.op";

/// A span recorder. Disabled recorders keep nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// An empty recorder with the same clock origin, for another thread;
    /// fold it back with [`Tracer::merge`].
    pub fn fork(&self) -> Self {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Start or stop recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Open a span now.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Record a child span of `parent` whose duration a layer measured and
    /// reported in its own statistics (for work done inside one call, such
    /// as the model build inside a session solve). It is placed at `offset`
    /// from the parent's start.
    pub fn child_from_stats(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        offset: Duration,
        duration: Duration,
    ) -> Option<SpanId> {
        let p = parent?;
        let start = self.spans[p].start + offset;
        let request = self.spans[p].request;
        self.spans.push(Span {
            name,
            start,
            end: start + duration,
            parent: Some(p),
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Append another thread's spans.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Self time per span name, over the spans under timed operations,
    /// together with the operations' total wall time.
    pub fn self_time_by_name(&self) -> (BTreeMap<&'static str, Duration>, Duration) {
        let own = self.self_times();
        let mut under_op: Vec<bool> = Vec::with_capacity(self.spans.len());
        let mut names: BTreeMap<&'static str, Duration> = BTreeMap::new();
        let mut ops = Duration::ZERO;
        for (i, s) in self.spans.iter().enumerate() {
            let timed = match s.parent {
                None => s.name == OP,
                Some(p) => under_op[p],
            };
            under_op.push(timed);
            if !timed {
                continue;
            }
            if s.parent.is_none() {
                ops += s.end - s.start;
            }
            *names.entry(s.name).or_default() += own[i];
        }
        (names, ops)
    }

    /// Self time per layer (the span name up to its first `.`), over the
    /// spans under timed operations, together with the operations' total
    /// wall time.
    pub fn layer_self_times(&self) -> (BTreeMap<&'static str, Duration>, Duration) {
        let (names, ops) = self.self_time_by_name();
        let mut layers: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (name, time) in names {
            let layer = name.split('.').next().unwrap_or(name);
            *layers.entry(layer).or_default() += time;
        }
        (layers, ops)
    }

    /// Total duration of the root spans named `name` (for spans outside
    /// timed operations, such as the answer check).
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_us":{:.3},"end_us":{:.3},"parent":{parent},"request":{}}}"#,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let op = t.begin(OP, None, 1);
        t.child_from_stats("milp.solve", op, Duration::ZERO, Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        t.end(op);
        t.spans[1].end = t.spans[0].end; // the child covers the whole op
        t.spans[1].start = t.spans[0].start;
        let (layers, ops) = t.layer_self_times();
        assert_eq!(layers["bench"], Duration::ZERO);
        assert_eq!(layers["milp"], ops);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.begin(OP, None, 1);
        t.end(op);
        assert!(op.is_none());
        assert!(t.layer_self_times().0.is_empty());
    }
}
