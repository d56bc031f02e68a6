//! Spans recorded from the benchmark's own files, around its calls into
//! each layer's public functions. A span has a name (the layer), a start,
//! an end, the span that caused it and the id of the op it belongs to.
//! Spans stay in memory and are written out when the run ends.
//!
//! A tracer that is off records nothing and reads no clock, so the same
//! staged code serves the traced and the untraced replay; the difference
//! between the two is the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// The root span of every op.
pub const OP: &str = "op";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Open(u32);

impl Tracer {
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Open the root span of op number `op`.
    pub fn begin_op(&mut self, op: u32) -> Open {
        self.op = op;
        self.begin(OP)
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(index);
        Open(index)
    }

    pub fn end(&mut self, handle: Open) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop().expect("end without begin");
        assert_eq!(top, handle.0, "spans must close innermost first");
        self.spans[top as usize].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Per span name: how many, and their summed self time — duration
    /// minus the part their child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.duration_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns().saturating_sub(children);
        }
        by_name
    }

    /// The share of the root spans' time that named child spans account
    /// for: 1 − (root self time ÷ root duration).
    pub fn coverage(&self) -> f64 {
        let root_total: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(Span::duration_ns)
            .sum();
        let root_self = self.self_times().get(OP).map_or(0, |(_, ns)| *ns);
        if root_total == 0 {
            return 0.0;
        }
        1.0 - root_self as f64 / root_total as f64
    }

    /// The spans as one JSON document, one array row per span:
    /// `[name, op, parent, start_ns, end_ns]`, parent −1 for a root.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 48 + 128);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"columns\":[\"name\",\"op\",\"parent\",\"start_ns\",\"end_ns\"],\"spans\":["
        );
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            let _ = write!(
                out,
                "\n[\"{}\",{},{},{},{}]",
                span.name, span.op, parent, span.start_ns, span.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_follows() {
        let mut t = Tracer::on();
        let op = t.begin_op(7);
        let a = t.begin("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.end(op);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].name, spans[1].op, spans[1].parent), ("a", 7, 0));
        let times = t.self_times();
        assert_eq!(times["a"].1, spans[1].duration_ns());
        assert_eq!(times[OP].1, spans[0].duration_ns() - spans[1].duration_ns());
        assert!(t.coverage() > 0.9, "{}", t.coverage());
        assert!(t.to_json("w", 1).contains("[\"a\",7,0,"));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let op = t.begin_op(0);
        let a = t.begin("a");
        t.end(a);
        t.end(op);
        assert!(t.spans().is_empty());
        assert_eq!(t.coverage(), 0.0);
    }
}
