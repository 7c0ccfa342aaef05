//! The bench's own span recorder: spans `(name, start, end, parent, frame)`
//! go into a vector allocated before any baseline is taken and are written
//! as Chrome trace JSON when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// The frame the span belongs to: spans of one frame share it.
    pub frame: u32,
}

#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

pub struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, frame: u32) -> SpanId {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            frame,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now();
        let popped = self.open.pop();
        assert_eq!(popped, Some(id.0), "spans must close innermost first");
        let s = &mut self.spans[id.0 as usize];
        s.end_ns = end_ns;
        end_ns - s.start_ns
    }

    /// Records a child whose duration the product reported (a
    /// `PhaseTimers` delta) but whose position inside `parent` is unknown
    /// from outside; it is drawn at the parent's start.
    pub fn child_of(&mut self, parent: SpanId, name: &'static str, dur_ns: u64) {
        let p = self.spans[parent.0 as usize];
        self.spans.push(SpanRec {
            name,
            start_ns: p.start_ns,
            end_ns: p.start_ns + dur_ns.min(p.end_ns - p.start_ns),
            parent: parent.0,
            frame: p.frame,
        });
    }

    /// Self time per span name: a span's duration minus the part its
    /// children cover, summed, with the span count.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(*c);
            e.1 += 1;
        }
        out
    }

    /// Total duration of the spans called `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
    /// events in microseconds; root spans on lane 0, children one lane
    /// deeper than their parent.
    pub fn chrome_json(&self) -> String {
        let mut depth = vec![0u32; self.spans.len()];
        let mut out = String::with_capacity(self.spans.len() * 96 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != NO_PARENT {
                depth[i] = depth[s.parent as usize] + 1;
            }
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"frame\":{},\"parent\":{}}}}}",
                s.name,
                depth[i],
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.frame,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    s.parent as i64
                },
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
