//! Spans recorded from the benchmark's own files around its calls into
//! each layer, kept in memory and written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval: a call into a layer, or a whole request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `client.send` or `engine.verb`.
    pub name: &'static str,
    /// The wire id of the request the span belongs to.
    pub request: String,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// An in-memory span recorder. Each thread owns one; `lane` keeps their
/// span ids disjoint.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    next_id: u64,
    /// Spans recorded so far, in completion order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// A recorder whose times count from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant, lane: u64) -> Trace {
        Trace {
            epoch,
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Allocates a span id ahead of recording, so children can name a
    /// parent that is still open.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under `parent`, returning its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: &str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, request, parent, start, end);
        id
    }

    /// Records a finished span under an id from [`Trace::reserve`].
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        request: &str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            request: request.to_owned(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }
}

/// Writes every span as one JSON object per line.
///
/// # Errors
///
/// When the file cannot be written.
pub fn write_spans(path: &Path, traces: &[&Trace]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in traces.iter().flat_map(|t| &t.spans) {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.id, span.parent, span.name, span.request, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_parents_and_lanes_apart() {
        let epoch = Instant::now();
        let mut a = Trace::new(epoch, 0);
        let mut b = Trace::new(epoch, 1);
        let root = a.reserve();
        let t0 = epoch + Duration::from_micros(10);
        let t1 = epoch + Duration::from_micros(30);
        let child = a.record("client.send", "r1", root, t0, t1);
        a.record_as(root, "request", "r1", 0, t0, t1);
        let other = b.record("client.send", "r2", 0, t0, t1);
        assert_ne!(child, other);
        assert_eq!(a.spans[0].parent, root);
        assert_eq!(a.spans[0].end_ns - a.spans[0].start_ns, 20_000);
        assert_eq!(a.spans[1].name, "request");
        assert_eq!(a.spans[1].seconds(), 20e-6);
    }
}
