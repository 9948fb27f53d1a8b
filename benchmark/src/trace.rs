//! In-memory spans, recorded only by benchmark code around its calls
//! into the crates. Nothing is written until the last timer has stopped;
//! [`Tracer::write_jsonl`] then flushes one JSON object per span.
//!
//! The tree per traced run is
//! `workload → repetition → round` (rounds come from the `on_round`
//! observers of the streaming entry points) and
//! `workload → replay → one span per layer call batch`. A span's self
//! time is its duration minus the part its children cover.

use std::io::Write;
use std::time::Instant;

/// Identifies a recorded span; `SpanId::ROOT` is "no parent".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(u32);

impl SpanId {
    pub const ROOT: SpanId = SpanId(0);
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Id of the parent span (ids are 1-based positions in recording
    /// order), 0 for none.
    pub parent: u32,
    pub name: &'static str,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, in the unit its name implies (rounds,
    /// frames, expansions, …).
    pub count: u64,
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; [`Tracer::close`] ends it.
    pub fn open(&mut self, parent: SpanId, name: &'static str, rep: u32) -> SpanId {
        let start = self.now_ns();
        self.record(parent, name, rep, start, start, 0)
    }

    pub fn close(&mut self, id: SpanId, count: u64) {
        let end = self.now_ns();
        let span = &mut self.spans[id.0 as usize - 1];
        span.end_ns = end;
        span.count = count;
    }

    /// Records a finished span from explicit stamps.
    pub fn record(
        &mut self,
        parent: SpanId,
        name: &'static str,
        rep: u32,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> SpanId {
        self.spans.push(Span {
            parent: parent.0,
            name,
            rep,
            start_ns,
            end_ns,
            count,
        });
        SpanId(self.spans.len() as u32)
    }

    /// Times `f` as a child span of `parent` and returns its result with
    /// the span's duration in nanoseconds.
    pub fn time<R>(
        &mut self,
        parent: SpanId,
        name: &'static str,
        count: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(parent, name, 0);
        let out = f();
        self.close(id, count);
        let span = &self.spans[id.0 as usize - 1];
        (out, (span.end_ns - span.start_ns) as f64)
    }

    /// One JSON object per line, in recording order.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        for (id, (s, own)) in (1..).zip(self.spans.iter().zip(self_ns)) {
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"workload\":\"{workload}\",\
                 \"rep\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{},\"self_ns\":{own}}}",
                s.parent, s.name, s.rep, s.start_ns, s.end_ns, s.count
            )?;
        }
        Ok(())
    }
}

/// Self time per span: duration minus the summed durations of its direct
/// children (children never overlap each other — one driver thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != 0 {
            let p = s.parent as usize - 1;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::default();
        let w = t.record(SpanId::ROOT, "workload", 0, 0, 1000, 1);
        let r = t.record(w, "repetition", 0, 100, 900, 2);
        t.record(r, "round", 0, 100, 400, 1);
        t.record(r, "round", 0, 400, 850, 1);
        assert_eq!(self_times(&t.spans), vec![200, 50, 300, 450]);
        let total: u64 = self_times(&t.spans).iter().sum();
        assert_eq!(total, 1000, "self times partition the root span");
    }

    #[test]
    fn spans_flush_as_one_json_object_per_line() {
        let mut t = Tracer::default();
        let w = t.open(SpanId::ROOT, "workload", 0);
        let ((), ns) = t.time(w, "replay", 3, || {});
        t.close(w, 1);
        assert!(ns >= 0.0);
        let mut buf = Vec::new();
        t.write_jsonl("sim-ra-n1024", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":1,\"parent\":0,\"name\":\"workload\""));
        assert!(lines[1].contains("\"parent\":1,\"name\":\"replay\""));
        assert!(lines[1].contains("\"count\":3"));
        for l in lines {
            ftss::telemetry::parse_json(l).expect("every line parses");
        }
    }
}
