//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around the calls
//! it makes into the program's public entry points. Each span carries its
//! name, start and end (nanoseconds since the recorder's epoch), the span
//! that caused it (the innermost open span on the same thread) and the
//! root op it belongs to, so spans of one op share an identifier. Spans
//! stay in memory and are written out once, when the run ends.
//!
//! When tracing is off, [`span`] is one relaxed load plus the call itself.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Causing span (0 = none).
    pub parent: u64,
    /// Root span of the op this span belongs to (its own id for a root).
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open spans on this thread: (id, op id).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn recording on or off (between phases, never inside a span).
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, op) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (parent, op) = s.last().copied().unwrap_or((0, id));
        s.push((id, op));
        (parent, op)
    });
    let start_ns = now_ns();
    let r = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    SPANS.lock().expect("span buffer poisoned").push(Span {
        id,
        parent,
        op,
        name,
        start_ns,
        end_ns,
    });
    r
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span buffer poisoned").clone()
}

/// Mean duration in ms of the spans named `name` (NaN when none).
pub fn mean_ms(name: &str) -> f64 {
    let spans = SPANS.lock().expect("span buffer poisoned");
    let (n, ns) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(n, ns), s| (n + 1, ns + s.dur_ns()));
    ns as f64 / 1e6 / n as f64
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children of one parent never overlap, since a
/// span's children run on the parent's own thread).
pub fn self_times(spans: &[Span]) -> Vec<(u64, &'static str, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            (s.op, s.name, s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)))
        })
        .collect()
}

/// The layer a span name belongs to: `core.<module>` for the editor core,
/// the crate name otherwise (`runtime.lower` → `runtime`).
pub fn layer_of(name: &str) -> &str {
    let mut parts = name.splitn(3, '.');
    let first = parts.next().unwrap_or(name);
    match (first, parts.next()) {
        ("core", Some(m)) => &name[..first.len() + 1 + m.len()],
        _ => first,
    }
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    let spans = spans();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
