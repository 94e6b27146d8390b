//! What every workload reports: timed passes, end-to-end metrics, the
//! repeat check, and the per-layer metrics read off a traced phase.

use gnnmark_workloads::WorkloadKind;
use std::collections::BTreeMap;

use crate::refclock::RefClock;
use crate::stats::{median, tail};
use crate::trace::{self, Node};

/// Passes a phase runs at least, so every median has three samples.
pub const MIN_PASSES: usize = 3;

/// How many passes (or jobs) a phase of about `seconds` runs, given the
/// nominal time of one in reference seconds. Fixing the count up front, not
/// stopping on a clock, makes every run of a workload measure the same
/// work, so its medians and tails always rank the same samples.
pub fn count_for(seconds: f64, nominal_s: f64, min: usize) -> usize {
    ((seconds / nominal_s).round() as usize).max(min)
}

/// Modeled work of a pass: the counts that must repeat exactly between two
/// runs of the same inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Kernels simulated.
    pub kernels: u64,
    /// Modeled L1 accesses.
    pub l1_accesses: u64,
    /// Modeled warp-level memory instructions.
    pub warp_ops: u64,
}

impl Counts {
    /// Adds one workload's digest counts.
    pub fn add(&mut self, d: &crate::check::Digest) {
        self.kernels += d.kernels;
        self.l1_accesses += d.l1_accesses;
        self.warp_ops += d.warp_ops;
    }
}

/// One pass over a workload's job list. Every time is in reference
/// seconds (see [`crate::refclock`]).
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// The timed part of the pass, s.
    pub wall_s: f64,
    /// The same on the wall clock, probes left out, s (printed, not a
    /// metric).
    pub wall_clock_s: f64,
    /// Set-up done inside the pass (workload builds), s; 0 when none.
    pub setup_s: f64,
    /// Each job's latency, s.
    pub jobs_s: Vec<f64>,
    /// Each request's latency, ms (reported as the pass's mean).
    pub requests_ms: Vec<f64>,
    /// Modeled work done.
    pub counts: Counts,
    /// Jobs attempted.
    pub attempted: u64,
    /// One line per failed job or failed check.
    pub failures: Vec<String>,
}

impl Pass {
    /// Ends the timed phase.
    pub fn stop(&mut self, clock: RefClock) {
        let timed = clock.stop();
        self.wall_s = timed.ref_s;
        self.wall_clock_s = timed.raw_s;
    }
}

/// Runs `n` passes.
pub fn run_phase(n: usize, mut pass: impl FnMut() -> Pass) -> Vec<Pass> {
    (0..n).map(|_| pass()).collect()
}

/// Failure lines for passes whose modeled counts differ from the first
/// pass: both ran on the same inputs, so they must have done the same work.
pub fn repeat_check(passes: &[Pass]) -> Vec<String> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    passes
        .iter()
        .enumerate()
        .filter(|(_, p)| p.counts != first.counts)
        .map(|(i, p)| {
            format!(
                "repeat check: pass {i} did different modeled work ({:?}) than pass 0 ({:?})",
                p.counts, first.counts
            )
        })
        .collect()
}

/// A run's result: the operations attempted and failed, and its metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (jobs) attempted.
    pub attempted: u64,
    /// One line per failed operation or failed check.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable notes printed before the result line (sample counts).
    pub notes: Vec<String>,
    /// The traced phase's call tree (empty for untraced runs).
    pub trace: Vec<Node>,
}

impl Report {
    /// Folds a phase's jobs and failures into the report.
    pub fn absorb(&mut self, passes: &[Pass]) {
        for p in passes {
            self.attempted += p.attempted;
            self.failures.extend(p.failures.iter().cloned());
        }
        self.failures.extend(repeat_check(passes));
    }

    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Job and request latency metrics with their sample counts.
    pub fn latencies(&mut self, jobs_s: &[f64], requests_ms: &[f64]) {
        let jt = tail(jobs_s);
        let rt = tail(requests_ms);
        self.set("job_p50_s", median(jobs_s));
        self.set("job_tail_s", jt.value);
        self.set("request_p50_ms", median(requests_ms));
        self.set("request_tail_ms", rt.value);
        self.notes.push(format!(
            "jobs: n={} tail=p{:.1}; requests: n={} tail=p{:.1}",
            jobs_s.len(),
            jt.level * 100.0,
            requests_ms.len(),
            rt.level * 100.0
        ));
    }

    /// The end-to-end metrics of a pass-based workload.
    pub fn end_to_end(&mut self, passes: &[Pass], setups_s: &[f64]) {
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        self.set("wall_s", median(&walls));
        self.set("setup_s", median(setups_s));
        self.set("peak_rss_mb", peak_rss_mb(None));
        let jobs: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.jobs_s.iter().copied())
            .collect();
        // One request sample per pass: the pass's mean request latency. The
        // requests of a pass come from nine models whose order by latency
        // changes with the dataset seed, so a median over single requests
        // would jump from one model's latency to another's between seeds.
        let reqs: Vec<f64> = passes
            .iter()
            .map(|p| p.requests_ms.iter().sum::<f64>() / p.requests_ms.len().max(1) as f64)
            .collect();
        self.latencies(&jobs, &reqs);
        let clock: Vec<f64> = passes.iter().map(|p| p.wall_clock_s).collect();
        self.notes.push(format!(
            "passes: n={} walls_s={walls:.3?} (wall clock {clock:.3?}); setups: n={} setups_s={setups_s:.3?}",
            passes.len(),
            setups_s.len()
        ));
    }

    /// The layer metrics every pass-based workload reads off its traced
    /// phase. Timings are per pass.
    pub fn layers_from_trace(&mut self, nodes: &[Node], traced: &[Pass]) {
        let per = 1.0 / traced.len().max(1) as f64;
        let by_name = |name: &str| trace::total_ms(nodes, |s| s.name == name) * per;
        let is_sim = |s: &trace::Span| s.layer == "gpusim";
        self.set("workloads.build_ms", by_name("WorkloadKind::build_mode"));
        let infer_jobs =
            trace::total_ms(nodes, |s| s.layer == "job" && s.name.starts_with("infer:")) * per;
        self.set("workloads.infer_ms", infer_jobs);
        for kind in WorkloadKind::ALL {
            let epochs: Vec<f64> = nodes
                .iter()
                .filter(|n| n.span.name == "Workload::run_epoch" && n.span.kind == kind.label())
                .map(|n| n.span.dur_ns() as f64 / 1e6)
                .collect();
            self.set(
                format!("workloads.epoch_ms.{}", kind.label()),
                median(&epochs),
            );
            self.set(
                format!("gpusim.simulate_ms.{}", kind.label()),
                trace::total_ms(nodes, |s| is_sim(s) && s.kind == kind.label()) * per,
            );
        }
        // Training emits `forward` spans; inference is one tape-free forward
        // per `Workload::infer` call.
        self.set(
            "autograd.forward_ms",
            by_name("forward") + by_name("Workload::infer"),
        );
        self.set("autograd.backward_ms", by_name("backward"));
        self.set("autograd.optimizer_ms", by_name("optimizer"));
        self.set("profiler.finish_ms", by_name("ProfileSession::finish"));
        self.set("profiler.replay_ms", by_name("replay_profile"));
        self.set("serve.cache_load_ms", by_name("StreamCache::load"));

        let sim_ms = trace::total_ms(nodes, is_sim) * per;
        let busy_ms = trace::total_ms(nodes, |s| s.layer == "job") * per;
        let counts = traced.first().map(|p| p.counts).unwrap_or_default();
        self.set("gpusim.simulate_ms", sim_ms);
        self.set("gpusim.kernels", counts.kernels as f64);
        self.set("gpusim.l1_accesses", counts.l1_accesses as f64);
        self.set("gpusim.warp_ops", counts.warp_ops as f64);
        self.set(
            "gpusim.ns_per_kernel",
            ratio(sim_ms * 1e6, counts.kernels as f64),
        );
        self.set(
            "gpusim.ns_per_l1_access",
            ratio(sim_ms * 1e6, counts.l1_accesses as f64),
        );
        self.set("gpusim.simulate_share", ratio(sim_ms, busy_ms));
        let selfs = self.self_times(nodes, per);
        // Time inside jobs spent in no layer call: the glue between calls.
        self.set(
            "core.overhead_ms",
            selfs.get("job").copied().unwrap_or(0.0) * per,
        );
    }

    /// Per-layer self time; returns every layer's total self time, ms.
    pub fn self_times(&mut self, nodes: &[Node], per: f64) -> BTreeMap<&'static str, f64> {
        let selfs = trace::self_ms_by_layer(nodes);
        for layer in SELF_LAYERS {
            self.set(
                format!("{layer}.self_ms"),
                selfs.get(layer).copied().unwrap_or(0.0) * per,
            );
        }
        selfs
    }

    /// Tensor-pool, parallel-pool and tape counters accumulated over a
    /// traced phase of `passes` passes.
    pub fn tensor_counters(
        &mut self,
        pool: gnnmark_tensor::pool::PoolStats,
        tape_nodes: u64,
        passes: usize,
    ) {
        let per = 1.0 / passes.max(1) as f64;
        self.set("tensor.pool_hit_rate", pool.hit_rate());
        self.set(
            "tensor.pool_acquires",
            (pool.hits + pool.misses) as f64 * per,
        );
        let busy = gnnmark_tensor::par::worker_busy_ns();
        let max = busy.iter().copied().max().unwrap_or(0) as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len().max(1) as f64;
        self.set("tensor.par_imbalance", ratio(max, mean));
        self.set("autograd.tape_nodes", tape_nodes as f64 * per);
    }
}

/// Layers whose self time is reported as `<layer>.self_ms`.
pub const SELF_LAYERS: [&str; 6] = [
    "workloads",
    "autograd",
    "gpusim",
    "profiler",
    "serve",
    "http",
];

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Peak resident set (VmHWM) of a process (this one when `None`), MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
