//! Harness-side spans: one per call into a layer, held in memory and written
//! out when the traced pass ends. Spans inside `crates/` are a later change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub request_id: u32,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses later ones (close it with [`Tracer::close`]).
    pub fn open(&mut self, name: &'static str, request_id: u32, parent: SpanId) -> SpanId {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        request_id: u32,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            request_id,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Self time of every span, nanoseconds: its duration minus the part
    /// its child spans cover.
    pub fn self_ns(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] -= (s.end_ns - s.start_ns) as f64;
            }
        }
        own
    }

    /// Writes every span as one JSON array; `classes[request_id]` is the
    /// request class a span belongs to.
    pub fn write_json(&self, path: &Path, classes: &[&str]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request_id\":{},\"class\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.name, s.request_id, classes[s.request_id as usize], s.start_ns, s.end_ns
            )?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}
