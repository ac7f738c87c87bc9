//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, the request (op) id it belongs to, its parent
//! span and its start and end, in nanoseconds since the run's epoch.
//! Spans are kept in memory per client thread and written out as JSON
//! lines when the run ends. The parent links follow the layering, not
//! the clock: the benchmark calls each lower layer directly after the
//! front-door call returns, so a child span never nests inside its
//! parent in time. A layer's self time is its span minus the span of
//! the layer below it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique span id.
    pub id: u64,
    /// Request (op) id shared by every span of one op.
    pub request: u64,
    /// Parent span id; `None` for the op's root span.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `store.put`.
    pub name: &'static str,
    /// Start, ns since the run epoch.
    pub start_ns: u64,
    /// End, ns since the run epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The span buffer of one client thread.
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    /// Spans in the order they were closed.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A buffer whose ids cannot collide with other threads' buffers.
    pub fn new(epoch: Instant, thread: u64) -> SpanLog {
        SpanLog {
            epoch,
            next_id: (thread << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Reserve an id for a span that will be pushed once it ends (so
    /// children can name it as their parent first).
    pub fn alloc(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a finished span under a reserved id.
    pub fn push(
        &mut self,
        id: u64,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            request,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Run `f` inside a new span and return its result and the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.alloc();
        let start = Instant::now();
        let out = f();
        self.push(id, name, request, parent, start, Instant::now());
        (out, id)
    }
}

/// Spans grouped by request id, in request order.
pub fn by_request(spans: &[Span]) -> BTreeMap<u64, Vec<&Span>> {
    let mut out: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        out.entry(s.request).or_default().push(s);
    }
    out
}

/// Check that the spans of every request form one tree: exactly one
/// root, every parent present in the same request, end ≥ start.
pub fn check_well_formed(spans: &[Span]) -> Result<(), String> {
    for (request, group) in by_request(spans) {
        let roots = group.iter().filter(|s| s.parent.is_none()).count();
        if roots != 1 {
            return Err(format!("request {request} has {roots} root spans"));
        }
        for s in &group {
            if s.end_ns < s.start_ns {
                return Err(format!(
                    "span {} of request {request} ends before it starts",
                    s.name
                ));
            }
            if let Some(p) = s.parent {
                if !group.iter().any(|q| q.id == p) {
                    return Err(format!(
                        "span {} of request {request} has a foreign parent",
                        s.name
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"request\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
