//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer
//! of the program: name, start, end, the span that was open on the same
//! thread when it started (its parent), and the workload id. Spans stay in
//! memory until the run ends; [`write_jsonl`] then writes them out and
//! [`self_times`] gives each span name's self time (duration minus the
//! part its child spans cover). With tracing off a span is one relaxed
//! atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static WORKLOAD: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());
/// Spans per buffer chunk. A full chunk is kept and a new one started,
/// so recording never copies earlier spans.
const CHUNK: usize = 1 << 16;
static COUNTS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// One recorded span. Times are nanoseconds since the process's trace
/// origin; `parent` is 0 for a root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u32,
    /// Id of the enclosing span on the same thread, or 0.
    pub parent: u32,
    /// Layer call name, e.g. `core.fbox.top_k`.
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// Recording thread (dense, from 0).
    pub thread: u32,
    /// Workload id ([`set_workload`]).
    pub workload: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the trace origin.
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Turns recording on or off.
pub fn enable(on: bool) {
    origin();
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Tags every later span with `id`.
pub fn set_workload(id: u32) {
    WORKLOAD.store(id, Ordering::Relaxed);
}

/// This thread's id in recorded spans.
pub fn thread_id() -> u32 {
    THREAD.with(|t| *t)
}

/// Runs `f` inside a span named `name` (recorded only while enabled).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let span = Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        thread: thread_id(),
        workload: WORKLOAD.load(Ordering::Relaxed),
    };
    let mut chunks = SPANS.lock().expect("span buffer poisoned");
    match chunks.last_mut() {
        Some(chunk) if chunk.len() < CHUNK => chunk.push(span),
        _ => {
            let mut chunk = Vec::with_capacity(CHUNK);
            chunk.push(span);
            chunks.push(chunk);
        }
    }
    drop(chunks);
    out
}

/// Adds `n` to the named count (recorded only while enabled).
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        *COUNTS.lock().expect("count table poisoned").entry(name).or_insert(0) += n;
    }
}

/// Takes every recorded span and count, leaving the buffers empty.
pub fn drain() -> (Vec<Span>, BTreeMap<&'static str, u64>) {
    let spans = std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned")).concat();
    let counts = std::mem::take(&mut *COUNTS.lock().expect("count table poisoned"));
    (spans, counts)
}

/// Per-name totals: calls, total duration and self time (ns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time their direct children cover.
    pub self_ns: u64,
}

/// Self time per span name. Children of one span run on its thread, one
/// after another, so their durations add up to the part they cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_insert(0) += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Share of `[from_ns, to_ns)` that no root span on `thread` covers.
pub fn uncovered_share(spans: &[Span], thread: u32, from_ns: u64, to_ns: u64) -> f64 {
    let mut roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.thread == thread)
        .map(|s| (s.start_ns.max(from_ns), s.end_ns.min(to_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    roots.sort_unstable();
    let (mut covered, mut reach) = (0u64, from_ns);
    for (a, b) in roots {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    let wall = to_ns.saturating_sub(from_ns).max(1);
    1.0 - covered as f64 / wall as f64
}

/// Writes one JSON object per span, one per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{},\"workload\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.thread, s.workload
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, start_ns, end_ns, thread: 0, workload: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [sp(1, 0, "a", 0, 100), sp(2, 1, "b", 10, 40), sp(3, 2, "c", 20, 30)];
        let t = self_times(&spans);
        assert_eq!(t["a"].self_ns, 70);
        assert_eq!(t["b"].self_ns, 20);
        assert_eq!(t["c"].self_ns, 10);
        assert_eq!(t["a"].total_ns, 100);
    }

    #[test]
    fn uncovered_counts_gaps_between_roots() {
        let spans = [sp(1, 0, "a", 10, 30), sp(2, 0, "b", 20, 50), sp(3, 1, "c", 0, 100)];
        assert!((uncovered_share(&spans, 0, 0, 100) - 0.6).abs() < 1e-12);
    }
}
