//! In-memory spans (name, start, end, parent), written out when the run
//! ends. Times are nanoseconds since the run's epoch.

use crate::report::jstr;
use std::io::Write;
use std::time::Instant;

pub type SpanId = u64;

struct Span {
    id: SpanId,
    parent: SpanId,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    rows: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            rows: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span under `parent` (0 = a root) and return its id.
    pub fn add(&mut self, name: &str, parent: SpanId, start: Instant, end: Instant) -> SpanId {
        let id = self.rows.len() as SpanId + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.rows.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Move a span's end (a parent opened before its children ran).
    pub fn extend_end(&mut self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(s) = self.rows.get_mut(id as usize - 1) {
            s.end_ns = end_ns;
        }
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.rows {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                jstr(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}
