//! In-memory spans recorded from outside the library: each span times one
//! call into a layer's public API. Spans of one op share its id, and a
//! span's parent is either the span whose interval encloses it or, for a
//! *probe*, the bundle call it decomposes: a call that bundles several
//! layers is timed whole, then its parts are re-run through their own
//! public calls on the same input and attached as its children. Either
//! way a span's self time is its duration minus its children's durations,
//! so a bundle's self time is the remainder its parts do not explain.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
    /// The kind of that op (`val`, `page`, `probe.write`, …).
    pub kind: &'static str,
    /// How many calls the span covers: 1, except for a leaf-level call
    /// repeated inside a walk, which is summed into one span.
    pub calls: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder. Spans stay in memory until the run ends.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    kind: &'static str,
    counters: BTreeMap<String, (f64, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            kind: "",
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Starts attributing spans to op `op` of kind `kind`.
    pub fn begin_op(&mut self, op: u64, kind: &'static str) {
        debug_assert!(self.stack.is_empty(), "an op began inside a span");
        self.op = op;
        self.kind = kind;
    }

    /// Opens a span under the current parent and makes it the current
    /// parent.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.stack.last().copied(),
            op: self.op,
            kind: self.kind,
            calls: 1,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Runs `f` with the closed span `id` as the current parent: the spans
    /// `f` records are probes that decompose `id`.
    pub fn under<T>(&mut self, id: usize, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.stack.push(id);
        let out = f(self);
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "probe scope left a span open");
        out
    }

    /// Names a span after the fact (e.g. a checkout, once its lease tells
    /// whether it was a hit, a patch or a build).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Records `calls` calls that together took `total_ns`, measured inside
    /// the current parent span, as one child span of it.
    pub fn add_summed(&mut self, name: &'static str, total_ns: u64, calls: u64) {
        let parent = *self.stack.last().expect("a summed span needs a parent");
        let start = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + total_ns,
            parent: Some(parent),
            op: self.op,
            kind: self.kind,
            calls,
        });
    }

    /// Adds one sample to the counter `name` (reported as a mean).
    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        let slot = self.counters.entry(name.into()).or_insert((0.0, 0));
        slot.0 += value;
        slot.1 += 1;
    }

    /// Every counter as `(name, sum, samples)`.
    pub fn counters(&self) -> impl Iterator<Item = (&str, f64, u64)> {
        self.counters.iter().map(|(k, &(s, n))| (k.as_str(), s, n))
    }

    /// The spans as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"kind\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"calls\":{}}}",
                s.op, s.kind, s.name, s.start_ns, s.end_ns, s.calls
            );
        }
        out
    }
}

/// Self time of every span: its duration minus its children's durations.
/// Signed, because a probe run on its own can take longer than the share
/// of the bundle it decomposes.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur_ns() as i64;
        }
    }
    out
}

/// Per op kind: the number of ops and, per span name, the summed self
/// time. Op roots are the spans without a parent.
pub type SelfTable = BTreeMap<&'static str, (u64, BTreeMap<&'static str, i64>)>;

pub fn self_time_table(spans: &[Span]) -> SelfTable {
    let selfs = self_times(spans);
    let mut table = SelfTable::new();
    for (s, &st) in spans.iter().zip(&selfs) {
        let entry = table.entry(s.kind).or_default();
        if s.parent.is_none() {
            entry.0 += 1;
        }
        *entry.1.entry(s.name).or_insert(0) += st;
    }
    table
}

/// Per span name: summed duration, summed self time and summed calls.
pub fn per_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, i64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, i64, u64)> = BTreeMap::new();
    for (s, &st) in spans.iter().zip(&selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += s.dur_ns();
        e.1 += st;
        e.2 += s.calls;
    }
    out
}
