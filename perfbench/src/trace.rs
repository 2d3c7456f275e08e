//! In-memory spans recorded around calls into each layer's public
//! surface, written out as JSON Lines when the run ends.

use crate::json::J;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Marks "no region" / "no parent".
pub const NONE: u64 = 0;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never [`NONE`]).
    pub id: u64,
    /// What was called (`put`, `body`, `offload`, `encode`, ...).
    pub name: &'static str,
    /// Layer the call entered (`storage`, `kernels`, `core`, ...).
    pub layer: &'static str,
    /// Region the call served, [`NONE`] outside any region.
    pub region: u64,
    /// Enclosing span, [`NONE`] for roots.
    pub parent: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Payload bytes the call moved or processed.
    pub bytes: u64,
    /// Offload phase (store ops) or sub-kind; empty when none applies.
    pub phase: &'static str,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// `(start, end)` pair for interval arithmetic.
    pub fn interval(&self) -> (u64, u64) {
        (self.start_ns, self.end_ns)
    }

    /// One JSON Lines record.
    pub fn to_json(&self) -> J {
        J::obj([
            ("id", J::Int(self.id)),
            ("name", J::Str(self.name.into())),
            ("layer", J::Str(self.layer.into())),
            ("region", J::Int(self.region)),
            ("parent", J::Int(self.parent)),
            ("start_ns", J::Int(self.start_ns)),
            ("end_ns", J::Int(self.end_ns)),
            ("bytes", J::Int(self.bytes)),
            ("phase", J::Str(self.phase.into())),
        ])
    }
}

/// Span sink shared by every probe of one run. While disabled, probes
/// pay one relaxed load and record nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    /// Region and parent span that store-op spans attach to.
    region: AtomicU64,
    parent: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            region: AtomicU64::new(NONE),
            parent: AtomicU64::new(NONE),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Attach spans recorded without an explicit region (store ops) to
    /// `region` under `parent`; `(NONE, NONE)` detaches them.
    pub fn enter(&self, region: u64, parent: u64) {
        self.region.store(region, Ordering::Relaxed);
        self.parent.store(parent, Ordering::Relaxed);
    }

    /// The `(region, parent)` pair set by [`Tracer::enter`].
    pub fn current(&self) -> (u64, u64) {
        (
            self.region.load(Ordering::Relaxed),
            self.parent.load(Ordering::Relaxed),
        )
    }

    /// Store a finished span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Every span recorded so far, sorted by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span sink poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Render spans as JSON Lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&s.to_json().line());
        out.push('\n');
    }
    out
}
