//! Spans recorded by the benchmark around each call it makes into a layer
//! of the program. Spans stay in memory and are written out when the run
//! ends; with tracing off, `span` is one thread-local flag test.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    op: u64,
}

struct Tracer {
    on: bool,
    origin: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        origin: Instant::now(),
        op: 0,
        open: Vec::new(),
        spans: Vec::new(),
    });
}

pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Start a new op: later spans carry its id.
pub fn next_op() {
    TRACER.with(|t| t.borrow_mut().op += 1);
}

/// Run `f` inside a span named after the layer call it wraps.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let start = t.origin.elapsed().as_secs_f64() * 1e6;
        let parent = t.open.last().copied();
        let op = t.op;
        t.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        let idx = t.spans.len() - 1;
        t.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = t.origin.elapsed().as_secs_f64() * 1e6;
            t.spans[idx].end = end;
            t.open.pop();
        });
    }
    out
}

/// Per-layer self time (span time minus the time its child spans cover)
/// and call counts, keyed by span name.
pub fn self_times() -> BTreeMap<&'static str, (f64, u64)> {
    TRACER.with(|t| {
        let t = t.borrow();
        let mut child = vec![0.0f64; t.spans.len()];
        for s in &t.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (i, s) in t.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end - s.start) - child[i];
            e.1 += 1;
        }
        out
    })
}

/// Write every span as a tab-separated line:
/// `id  parent  op  name  start_us  end_us`.
pub fn write(path: &std::path::Path) -> std::io::Result<()> {
    let text = TRACER.with(|t| {
        let t = t.borrow();
        let mut out = String::from("id\tparent\top\tname\tstart_us\tend_us\n");
        for (i, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{:.3}\t{:.3}",
                s.op, s.name, s.start, s.end
            );
        }
        out
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
