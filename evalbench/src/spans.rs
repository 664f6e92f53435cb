//! In-memory span recorder for traced runs.
//!
//! The benchmark wraps each call it makes into a crate's public API in
//! a span: name, start, end, parent span and the instance or job id it
//! belongs to. Spans nest through a per-thread stack, so a learner
//! call made inside `CegarSolver::solve` on the same thread becomes a
//! child of the solve span. Nothing is written until the run ends.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Layer-qualified call name, e.g. `core.solve`.
    pub name: &'static str,
    /// Instance index (solver workloads) or job id (serve).
    pub item: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// `false` when the call returned an error.
    pub ok: bool,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans from every thread of the run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `ok` classifies its result.
    pub fn record<T>(
        &self,
        name: &'static str,
        item: u64,
        ok: impl FnOnce(&T) -> bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            item,
            start_ns,
            end_ns,
            ok: ok(&out),
        };
        self.spans.lock().unwrap().push(span);
        out
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().unwrap())
    }
}

/// Times `f`, recording a span when a tracer is attached. Returns the
/// result and the elapsed seconds (measured in both modes, so
/// end-to-end numbers never depend on whether tracing is on).
pub fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    item: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = match tracer {
        Some(t) => t.record(name, item, |_| true, f),
        None => f(),
    };
    (out, start.elapsed().as_secs_f64())
}

/// Sum of the durations of spans named `name`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Number of spans named `name`, and how many of them failed.
pub fn count(spans: &[Span], name: &str) -> (u64, u64) {
    let named = spans.iter().filter(|s| s.name == name);
    named.fold((0, 0), |(n, bad), s| (n + 1, bad + u64::from(!s.ok)))
}

/// Sum over spans named `parent` of their duration minus the time
/// covered by their direct children (children never overlap on one
/// thread, so their durations add up).
pub fn self_secs(spans: &[Span], parent: &str) -> f64 {
    use std::collections::HashMap;
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)))
        .sum::<u64>() as f64
        * 1e-9
}

/// Checks that every child span lies inside its parent and carries
/// the parent's item; returns a description of the first violation.
pub fn check_nesting(spans: &[Span]) -> Option<String> {
    use std::collections::HashMap;
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        let Some(pid) = s.parent else { continue };
        let Some(p) = by_id.get(&pid) else {
            return Some(format!(
                "span {} ({}) has unknown parent {pid}",
                s.id, s.name
            ));
        };
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.item != p.item {
            return Some(format!(
                "span {} ({}) [{}, {}] item {} escapes parent {} ({}) [{}, {}] item {}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                s.item,
                p.id,
                p.name,
                p.start_ns,
                p.end_ns,
                p.item
            ));
        }
    }
    None
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"item\":{},\"start_ns\":{},\"end_ns\":{},\"ok\":{}}}",
            s.id, parent, s.name, s.item, s.start_ns, s.end_ns, s.ok
        )?;
    }
    out.flush()
}
