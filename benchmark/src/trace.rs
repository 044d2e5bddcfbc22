//! In-memory spans around the calls into each layer.
//!
//! The benchmark measures the layers from outside: every span is opened
//! and closed by benchmark code around a call into a public function of
//! one of the repository's crates. A span's name is `<layer>.<what>`,
//! where the layer is the crate name (`sim`, `compiler`, `isa`, `energy`,
//! `workloads`, `bow`, `util`, `server`), `bench` for the benchmark's
//! own driver code, or `probe` for a root around direct layer calls that
//! are not part of a pass. Spans are kept in memory and written out after the
//! last timed section.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. `parent` is 0 for a root span; ids start at 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Position in the trace, from 1.
    pub id: u32,
    /// Id of the enclosing span, 0 for none.
    pub parent: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count, total and self time of every span sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus their direct children's.
    pub self_ns: u64,
}

/// Records spans; single-threaded, one per traced section.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records `f` as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.scope(name, |_| f())
    }

    /// Records `f` as a span that may open child spans through the
    /// tracer it is handed.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.now_ns();
        out
    }

    /// Records `f` as a leaf span and also returns its duration in ns.
    pub fn timed_leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let out = self.leaf(name, f);
        let span = self.spans.last().expect("the leaf was just recorded");
        (out, span.duration_ns())
    }

    /// How many spans are open. With [`unwind_to`](Tracer::unwind_to),
    /// lets a caller that catches a panic inside a span close what the
    /// panic left open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes, as of now, every span opened since [`depth`](Tracer::depth)
    /// returned `depth`. A no-op when nothing panicked.
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.now_ns();
        for id in self.open.drain(depth..) {
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// Writes the trace as one JSON document: the per-name summary, the
    /// per-layer self times, then every span.
    ///
    /// # Errors
    ///
    /// Propagates the writer's error.
    pub fn write_json(&self, workload: &str, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "{{\"workload\":\"{workload}\",\"unit\":\"ns\",")?;
        writeln!(out, "\"summary\":{{")?;
        let totals = self.totals();
        for (i, (name, t)) in totals.iter().enumerate() {
            let sep = if i + 1 == totals.len() { "" } else { "," };
            writeln!(
                out,
                "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}{sep}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        writeln!(out, "}},\n\"layer_self_ns\":{{")?;
        let layers = layer_self_ns(&totals);
        for (i, (layer, ns)) in layers.iter().enumerate() {
            let sep = if i + 1 == layers.len() { "" } else { "," };
            writeln!(out, "\"{layer}\":{ns}{sep}")?;
        }
        writeln!(out, "}},\n\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")
    }
}

/// Per-name totals of a span list. A span's self time is its duration
/// minus the durations of its direct children.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        child_ns[s.parent as usize] += s.duration_ns();
    }
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[s.id as usize]);
    }
    by_name
}

/// The layer of a span name: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time summed per layer.
pub fn layer_self_ns<'a>(totals: &BTreeMap<&'a str, NameTotals>) -> BTreeMap<&'a str, u64> {
    let mut layers = BTreeMap::new();
    for (name, t) in totals {
        *layers.entry(layer_of(name)).or_insert(0) += t.self_ns;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // pass [0,100] > cell [10,90] > {prep [10,30], run [30,80] > mem [40,50]}
        let spans = [
            span("bench.pass", 1, 0, 0, 100),
            span("bench.cell", 2, 1, 10, 90),
            span("compiler.prep", 3, 2, 10, 30),
            span("sim.run", 4, 2, 30, 80),
            span("mem.access", 5, 4, 40, 50),
        ];
        let t = totals(&spans);
        assert_eq!(t["bench.pass"].self_ns, 20);
        assert_eq!(t["bench.cell"].self_ns, 80 - 20 - 50);
        assert_eq!(t["compiler.prep"].self_ns, 20);
        // Only the direct child is subtracted from `sim.run`.
        assert_eq!(t["sim.run"].self_ns, 40);
        assert_eq!(t["mem.access"].self_ns, 10);
        // Self times of a properly nested trace add up to the root.
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 100);
        let layers = layer_self_ns(&t);
        assert_eq!(layers["bench"], 30);
        assert_eq!(layers["sim"], 40);
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = [
            span("bench.pass", 1, 0, 0, 50),
            span("sim.run", 2, 1, 0, 20),
            span("sim.run", 3, 1, 20, 45),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["sim.run"],
            NameTotals {
                count: 2,
                total_ns: 45,
                self_ns: 45
            }
        );
        assert_eq!(t["bench.pass"].self_ns, 5);
    }

    #[test]
    fn scopes_nest_and_leaves_attach_to_the_open_span() {
        let mut tr = Tracer::new();
        let v = tr.scope("bench.pass", |tr| {
            tr.leaf("sim.run", || 1) + tr.scope("bench.cell", |tr| tr.leaf("sim.run", || 2))
        });
        assert_eq!(v, 3);
        let parents: Vec<(&str, u32)> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("bench.pass", 0),
                ("sim.run", 1),
                ("bench.cell", 1),
                ("sim.run", 3)
            ]
        );
        for s in tr.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
        let mut doc = Vec::new();
        tr.write_json("w", &mut doc).expect("write to a Vec");
        let parsed = bow_util::parse_json(std::str::from_utf8(&doc).expect("utf-8"))
            .expect("the trace file is valid JSON");
        assert_eq!(parsed.req_arr("spans").expect("spans").len(), 4);
    }
}
