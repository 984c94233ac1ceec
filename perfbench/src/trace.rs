//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its own calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. A span has a name, start, end, parent and request id. A
//! layer's self time is its span minus the time its child spans cover.
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// One thread's spans. Spans on one thread nest strictly.
pub struct Tracer {
    thread: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin` (shared by every
    /// thread of a run so their spans line up).
    pub fn new(thread: &'static str, origin: Instant) -> Tracer {
        Tracer { thread, origin, spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, req: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one; returns its
    /// duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        let end = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a span; returns its result and the span's id.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, usize) {
        let id = self.open(name, req);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Duration of span `id`, in ns.
    pub fn dur_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Adds a child of the closed span `parent` for work the program timed
    /// itself (such as `QueryStats::merge_ns`), placed at the parent's end.
    pub fn inner(&mut self, parent: usize, name: &'static str, dur_ns: u64) {
        let p = &self.spans[parent];
        let dur_ns = dur_ns.min(p.end_ns - p.start_ns);
        let span = Span {
            name,
            start_ns: p.end_ns - dur_ns,
            end_ns: p.end_ns,
            parent: Some(parent),
            req: p.req,
        };
        self.spans.push(span);
    }

    /// Self time of every span, in ns, grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            out.entry(s.name).or_default().push(own as f64);
        }
        out
    }

    /// Appends this thread's spans to `out` as JSON lines.
    pub fn write_jsonl(&self, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"thread\":\"{}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                self.thread, s.name, s.start_ns, s.end_ns, s.req
            );
        }
    }
}

/// Self times of all `tracers`, merged by span name.
pub fn self_times(tracers: &[Tracer]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for t in tracers {
        for (name, v) in t.self_times() {
            out.entry(name).or_default().extend(v);
        }
    }
    out
}
