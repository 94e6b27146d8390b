//! The benchmark's span recorder.
//!
//! Spans are recorded around the benchmark's own calls into each crate's
//! public functions, and the spans the program already emits (build,
//! forward, backward, optimizer, simulate, replay, campaign) are folded in
//! from `gnnmark_telemetry::take_host_trace`. Both use the telemetry clock,
//! so one timeline holds them. Each span keeps its name, layer, start, end,
//! parent and job id; parents are recovered by interval containment on the
//! span's thread, and a span without a job id inherits its parent's, so
//! all spans of one job share an id. Spans stay in memory until the run
//! ends and are then written out as one JSON file.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_JOB: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`Workload::run_epoch`, `forward`, `GET /jobs/:id`…).
    pub name: Cow<'static, str>,
    /// The layer the call belongs to.
    pub layer: &'static str,
    /// Telemetry lane (one per thread).
    pub lane: usize,
    /// Start, ns on the telemetry clock.
    pub start_ns: u64,
    /// End, ns on the telemetry clock.
    pub end_ns: u64,
    /// Job id; 0 until inherited from the parent.
    pub job: u64,
    /// Workload label of the job ("" when not tied to one workload).
    pub kind: &'static str,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Turns recording on or off, together with the program's own spans and
/// the tensor pool's per-worker busy-time accounting.
pub fn set_enabled(on: bool) {
    gnnmark_telemetry::set_enabled(on);
    gnnmark_tensor::par::set_worker_tracking(on);
    ON.store(on, Ordering::SeqCst);
}

/// A fresh job id.
pub fn next_job() -> u64 {
    NEXT_JOB.fetch_add(1, Ordering::Relaxed)
}

/// An open span; records itself when dropped. Inert while recording is off.
#[must_use = "a span measures the region it is alive for"]
pub struct Guard(Option<Span>);

/// Opens a span around a call.
pub fn span(
    name: impl Into<Cow<'static, str>>,
    layer: &'static str,
    job: u64,
    kind: &'static str,
) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard(None);
    }
    Guard(Some(Span {
        name: name.into(),
        layer,
        lane: gnnmark_telemetry::lane(),
        start_ns: gnnmark_telemetry::now_ns(),
        end_ns: 0,
        job,
        kind,
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut s) = self.0.take() {
            s.end_ns = gnnmark_telemetry::now_ns();
            SPANS.lock().expect("span sink poisoned").push(s);
        }
    }
}

/// The layer of a span the program emits itself.
fn program_layer(name: &str) -> &'static str {
    match name {
        "forward" | "backward" | "optimizer" => "autograd",
        "simulate" | "replay" => "gpusim",
        "step" | "sample" | "build" | "epoch" => "workloads",
        n if n.starts_with("campaign:") || n.starts_with("train:") => "serve",
        n if n.starts_with("workload:") || n.starts_with("infer:") => "workloads",
        _ => "other",
    }
}

/// A span placed in the call tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// The span.
    pub span: Span,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Duration not covered by child spans, ns.
    pub self_ns: u64,
}

/// Every span recorded so far — the benchmark's and the program's —
/// arranged into a call tree.
pub fn take() -> Vec<Node> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span sink poisoned"));
    for e in gnnmark_telemetry::take_host_trace().events {
        if e.instant {
            continue;
        }
        spans.push(Span {
            layer: program_layer(&e.name),
            name: e.name,
            lane: e.lane,
            start_ns: e.start_ns,
            end_ns: e.start_ns + e.dur_ns,
            job: 0,
            kind: "",
        });
    }
    // Outer spans first: by thread, then start, then longest first.
    spans.sort_by_key(|s| (s.lane, s.start_ns, std::cmp::Reverse(s.end_ns)));
    let mut nodes: Vec<Node> = Vec::with_capacity(spans.len());
    let mut stack: Vec<usize> = Vec::new();
    for span in spans {
        while let Some(&top) = stack.last() {
            let t = &nodes[top].span;
            if t.lane == span.lane && span.start_ns >= t.start_ns && span.end_ns <= t.end_ns {
                break;
            }
            stack.pop();
        }
        let parent = stack.last().copied();
        let mut span = span;
        if let Some(p) = parent {
            if span.job == 0 {
                span.job = nodes[p].span.job;
            }
            if span.kind.is_empty() {
                span.kind = nodes[p].span.kind;
            }
        }
        let i = nodes.len();
        nodes.push(Node {
            self_ns: span.dur_ns(),
            span,
            parent,
        });
        if let Some(p) = parent {
            nodes[p].self_ns = nodes[p].self_ns.saturating_sub(nodes[i].span.dur_ns());
        }
        stack.push(i);
    }
    nodes
}

/// Sum of span durations, ms, over spans matching a predicate.
pub fn total_ms(nodes: &[Node], pred: impl Fn(&Span) -> bool) -> f64 {
    nodes
        .iter()
        .filter(|n| pred(&n.span))
        .map(|n| n.span.dur_ns() as f64 / 1e6)
        .sum()
}

/// Self time per layer, ms.
pub fn self_ms_by_layer(nodes: &[Node]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for n in nodes {
        *out.entry(n.span.layer).or_insert(0.0) += n.self_ns as f64 / 1e6;
    }
    out
}

/// Writes the call tree as JSON.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write(path: &std::path::Path, nodes: &[Node]) -> std::io::Result<()> {
    let mut s = String::with_capacity(nodes.len() * 160 + 32);
    s.push_str("{\"spans\":[\n");
    for (i, n) in nodes.iter().enumerate() {
        let sp = &n.span;
        let parent = n.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{}{{\"id\":{i},\"parent\":{parent},\"job\":{},\"kind\":\"{}\",\"layer\":\"{}\",\
             \"name\":\"{}\",\"lane\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            if i == 0 { "" } else { ",\n" },
            sp.job,
            sp.kind,
            sp.layer,
            gnnmark_telemetry::export::json_escape(&sp.name),
            sp.lane,
            sp.start_ns,
            sp.end_ns,
            n.self_ns,
        );
    }
    s.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}
