//! In-memory spans around the benchmark's calls into the public `cpcf` API.
//!
//! A span is opened just before a call and closed just after it, with the
//! counters the call returned attached as arguments. Spans nest (variant →
//! parse / analyze, pass → store.open / store.flush) and every span records
//! its parent and the pass it belongs to. Nothing is written while the
//! benchmark measures; [`Trace::write_chrome`] writes the spans out at the
//! end, as Chrome trace-event JSON (`chrome://tracing`, Perfetto).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer boundary: `pass`, `variant`, `parse`, `analyze`,
    /// `store.open` or `store.flush`.
    pub name: &'static str,
    /// Free-form label, e.g. the program and variant of a `variant` span.
    pub label: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The timed pass this span belongs to.
    pub pass: usize,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Nanoseconds since the trace origin.
    pub end_ns: u64,
    /// Counters attached when the span closed.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// The attached counter `name`, or 0.
    pub fn arg(&self, name: &str) -> f64 {
        self.args
            .iter()
            .find(|(key, _)| *key == name)
            .map_or(0.0, |(_, value)| *value)
    }
}

/// The span recorder. When disabled, `begin` and `end` do nothing.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    pass: usize,
    origin: Instant,
    stack: Vec<usize>,
    /// Every span recorded so far, in opening order.
    pub spans: Vec<Span>,
}

/// A handle to an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Trace {
    /// A disabled recorder whose clock starts now.
    pub fn new() -> Self {
        Trace {
            enabled: false,
            pass: 0,
            origin: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off and tags later spans with `pass`.
    pub fn set_pass(&mut self, pass: usize, enabled: bool) {
        self.pass = pass;
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, label: impl FnOnce() -> String) -> SpanId {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            label: label(),
            parent: self.stack.last().copied(),
            pass: self.pass,
            start_ns: self.now_ns(),
            end_ns: 0,
            args: Vec::new(),
        });
        self.stack.push(index);
        Some(index)
    }

    /// Closes `span` (and any span a panic left open inside it) and
    /// attaches `args`.
    pub fn end(&mut self, span: SpanId, args: impl FnOnce() -> Vec<(&'static str, f64)>) {
        let Some(index) = span else {
            return;
        };
        let now = self.now_ns();
        while let Some(open) = self.stack.pop() {
            self.spans[open].end_ns = now;
            if open == index {
                break;
            }
        }
        self.spans[index].args = args();
    }

    /// Writes every span as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{index},\"parent\":{},\"pass\":{},\"label\":\"{}\"",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.pass,
                span.label.replace(['"', '\\'], "_"),
            );
            for (key, value) in &span.args {
                let _ = write!(out, ",\"{key}\":{value}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
