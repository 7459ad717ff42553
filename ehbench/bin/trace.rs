//! In-memory span recorder for the traced pass.
//!
//! The benchmark wraps a span around each call it makes into a crate's
//! public API. Spans are kept in a thread-local vector (the benchmark
//! drives the library from one thread; the library's own worker
//! threads never touch the recorder) and written out once, when the
//! benchmark ends. When recording is off, [`span`] costs one
//! thread-local flag read.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span: a call into a layer, with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `core.campaign`.
    pub name: &'static str,
    /// Traced iteration the span belongs to (0 for probes).
    pub iteration: usize,
    /// Start and end, in ns since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iteration: usize,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording; spans from now on are kept.
pub fn enable() {
    RECORDER.with(|r| {
        r.borrow_mut().get_or_insert_with(|| Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: 0,
        });
    });
    ENABLED.with(|e| e.set(true));
}

/// Stops recording; recorded spans are kept.
pub fn disable() {
    ENABLED.with(|e| e.set(false));
}

/// Tags the spans that follow with a traced-iteration number.
pub fn set_iteration(iteration: usize) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.iteration = iteration;
        }
    });
}

/// Runs `f` inside a span named `name` (a no-op wrapper when recording
/// is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ENABLED.with(|e| e.get()) {
        return f();
    }
    let id = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recorder exists while enabled");
        let id = rec.spans.len();
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            id,
            parent: rec.stack.last().copied(),
            name,
            iteration: rec.iteration,
            start_ns,
            end_ns: start_ns,
        });
        rec.stack.push(id);
        id
    });
    let out = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recorder exists while enabled");
        rec.spans[id].end_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.stack.pop();
    });
    out
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map_or(Vec::new(), |rec| rec.spans.clone())
    })
}

/// Self time of each span: its duration minus the part of it that its
/// child spans cover (children of one span never overlap, because the
/// recorder is single-threaded).
pub fn self_times_s(spans: &[Span]) -> Vec<f64> {
    let mut self_s: Vec<f64> = spans.iter().map(Span::duration_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_s[p] -= s.duration_s();
        }
    }
    self_s
}

/// Total self time per span name, over the spans `keep` selects.
pub fn self_time_by_name(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, f64> {
    let self_s = self_times_s(spans);
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_s) {
        if keep(s) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
    }
    out
}

/// Writes the spans as JSON lines: one object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let self_s = self_times_s(spans);
    let mut text = String::new();
    for (s, self_s) in spans.iter().zip(self_s) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"iteration\":{},\"start_ns\":{},\"end_ns\":{},\"self_s\":{}}}",
            s.id, parent, s.name, s.iteration, s.start_ns, s.end_ns, self_s
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
