//! `train-small` and `infer-minibatch`: the nine workloads trained (or run
//! forward-only) in-process.
//!
//! A pass builds all nine workloads (set-up), then runs one job per
//! workload (the timed phase), always in the same order: the order decides
//! what the tensor pool and allocator hold when each job starts, so a
//! seeded order would spread the figures by order, not by work. A training job is what
//! `gnnmark suite --scale small` does per workload: two epochs, the quality
//! metric, and the profile. An inference job is what
//! `gnnmark infer --mode minibatch` does: 32 batch-1 steps and 8 batched
//! steps, tape-free. Set-up and the timed phase are both timed on the
//! reference clock ([`crate::refclock`]), ticking between builds, epochs
//! and inference steps.

use std::time::Instant;

use gnnmark_autograd::{tape_nodes_recorded, NoGradGuard};
use gnnmark_gpusim::DeviceSpec;
use gnnmark_profiler::{ProfileSession, WorkloadProfile};
use gnnmark_workloads::{InferBatch, MinibatchConfig, Scale, TrainMode, Workload, WorkloadKind};

use crate::check::{Digest, Reference, Section};
use crate::inputs::Inputs;
use crate::refclock::RefClock;
use crate::run::Pass;
use crate::trace;

/// Epochs a training job runs (the `small` suite default).
pub const EPOCHS: usize = 2;
/// Batch-1 inference steps per job (`gnnmark infer` default `--requests`).
pub const BATCH1_STEPS: usize = 32;
/// Batched inference steps per job (`gnnmark infer` default).
pub const BATCHED_STEPS: usize = 8;

/// Which of the two in-process workloads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full-graph training.
    Train,
    /// Mini-batch forward-only inference.
    Infer,
}

impl Mode {
    /// The training mode the workloads are built in.
    pub fn train_mode(self) -> TrainMode {
        match self {
            Mode::Train => TrainMode::FullGraph,
            Mode::Infer => TrainMode::Minibatch(MinibatchConfig::default()),
        }
    }

    fn section(self) -> Section {
        match self {
            Mode::Train => Section::Train,
            Mode::Infer => Section::Infer,
        }
    }
}

/// What one job produced: the profile, losses and the other modeled values
/// its digest covers.
struct JobOutput {
    profile: WorkloadProfile,
    losses: Vec<f64>,
    extra: Vec<f64>,
}

/// Runs one pass and checks every job's outputs against the reference.
pub fn pass(mode: Mode, inputs: &Inputs, reference: &Reference) -> Pass {
    let mut pass = Pass::default();
    let train_mode = mode.train_mode();
    let mut clock = RefClock::start();
    let mut built = Vec::with_capacity(WorkloadKind::ALL.len());
    for kind in WorkloadKind::ALL {
        let job = trace::next_job();
        let w = {
            let _s = trace::span("WorkloadKind::build_mode", "workloads", job, kind.label());
            kind.build_mode(Scale::Small, inputs.dataset_seed, &train_mode)
        };
        built.push((kind, job, w));
        clock.tick();
    }
    pass.setup_s = clock.stop().ref_s;

    let mut clock = RefClock::start();
    let mut outputs = Vec::with_capacity(built.len());
    for (kind, job, w) in built {
        pass.attempted += 1;
        let first = pass.requests_ms.len();
        let out = {
            let name = match mode {
                Mode::Train => format!("train:{}", kind.label()),
                Mode::Infer => format!("infer:{}", kind.label()),
            };
            let _j = trace::span(name, "job", job, kind.label());
            w.map_err(|e| e.to_string()).and_then(|mut w| match mode {
                Mode::Train => train_job(kind, job, w.as_mut(), &mut clock, &mut pass.requests_ms),
                Mode::Infer => infer_job(kind, job, w.as_mut(), &mut clock, &mut pass.requests_ms),
            })
        };
        outputs.push((kind, out));
        // The job's requests (epochs or inference steps) were timed on the
        // wall clock; they take the factor of the lap the job ran in.
        let factor = clock.lap().factor();
        pass.requests_ms[first..]
            .iter_mut()
            .for_each(|r| *r *= factor);
    }
    pass.stop(clock);
    // The job is the whole pass — one `gnnmark suite` or `gnnmark infer`
    // run. Per-workload times would make the median hop between workloads
    // of similar size, and which workloads those are changes with the
    // dataset seed.
    pass.jobs_s.push(pass.setup_s + pass.wall_s);

    for (kind, out) in outputs {
        match out {
            Ok(o) => {
                let d = Digest::of(&o.profile, &o.losses, &o.extra);
                pass.counts.add(&d);
                if let Err(e) =
                    reference.check(inputs.dataset_seed, mode.section(), kind.label(), &d)
                {
                    pass.failures.push(e);
                }
            }
            Err(e) => pass.failures.push(format!("{}: {e}", kind.label())),
        }
    }
    pass
}

fn train_job(
    kind: WorkloadKind,
    job: u64,
    w: &mut dyn Workload,
    clock: &mut RefClock,
    requests_ms: &mut Vec<f64>,
) -> Result<JobOutput, String> {
    let label = kind.label();
    let mut session = ProfileSession::new(label, DeviceSpec::v100());
    let mut losses = Vec::with_capacity(EPOCHS);
    for _ in 0..EPOCHS {
        let t = Instant::now();
        let loss = {
            let _s = trace::span("Workload::run_epoch", "workloads", job, label);
            w.run_epoch(&mut session)
        };
        requests_ms.push(t.elapsed().as_secs_f64() * 1e3);
        clock.tick();
        losses.push(loss.map_err(|e| e.to_string())?);
    }
    let quality = {
        let _s = trace::span("Workload::quality", "workloads", job, label);
        w.quality().map_err(|e| e.to_string())?
    };
    let profile = {
        let _s = trace::span("ProfileSession::finish", "profiler", job, label);
        session.finish()
    };
    Ok(JobOutput {
        profile,
        losses,
        extra: quality.map(|(_, v)| v).into_iter().collect(),
    })
}

fn infer_job(
    kind: WorkloadKind,
    job: u64,
    w: &mut dyn Workload,
    clock: &mut RefClock,
    requests_ms: &mut Vec<f64>,
) -> Result<JobOutput, String> {
    let label = kind.label();
    let mut session = ProfileSession::new(label, DeviceSpec::v100());
    let nodes_before = tape_nodes_recorded();
    let _no_grad = NoGradGuard::new();
    let mut losses = Vec::with_capacity(BATCH1_STEPS + BATCHED_STEPS);
    let mut modeled_ns = Vec::with_capacity(BATCH1_STEPS + BATCHED_STEPS);
    for (batch, steps) in [
        (InferBatch::Single, BATCH1_STEPS),
        (InferBatch::Full, BATCHED_STEPS),
    ] {
        for _ in 0..steps {
            let before = session.modeled_time_ns();
            let t = Instant::now();
            session.begin_step();
            let loss = {
                let _s = trace::span("Workload::infer", "workloads", job, label);
                w.infer(batch)
            };
            let loss = loss.map_err(|e| e.to_string())?;
            session.end_step();
            requests_ms.push(t.elapsed().as_secs_f64() * 1e3);
            modeled_ns.push(session.modeled_time_ns() - before);
            losses.push(loss);
            clock.tick();
        }
    }
    let tape_nodes = tape_nodes_recorded() - nodes_before;
    if tape_nodes != 0 {
        return Err(format!(
            "forward-only inference recorded {tape_nodes} tape nodes"
        ));
    }
    let profile = {
        let _s = trace::span("ProfileSession::finish", "profiler", job, label);
        session.finish()
    };
    Ok(JobOutput {
        profile,
        losses,
        extra: modeled_ns,
    })
}

/// Reference digests of one dataset seed, computed through the library's
/// own suite and inference entry points (not this module's loops, so a
/// blessed reference also checks that the benchmark drives the workloads
/// exactly as the CLI does).
pub fn bless_digests(
    mode: Mode,
    dataset_seed: u64,
) -> gnnmark::Result<Vec<(WorkloadKind, Digest, Option<gnnmark_gpusim::CapturedRun>)>> {
    let mut suite = gnnmark::suite::SuiteConfig::small();
    suite.seed = dataset_seed;
    suite.mode = mode.train_mode();
    let mut out = Vec::new();
    for kind in WorkloadKind::ALL {
        match mode {
            Mode::Train => {
                let (art, run) = gnnmark::suite::run_workload_captured(kind, &suite)?;
                let extra: Vec<f64> = art.quality.map(|(_, v)| v).into_iter().collect();
                out.push((
                    kind,
                    Digest::of(&art.profile, &art.losses, &extra),
                    Some(run),
                ));
            }
            Mode::Infer => {
                let mut cfg = gnnmark::infer::InferConfig::new(suite.clone());
                cfg.batch1_steps = BATCH1_STEPS;
                cfg.batched_steps = BATCHED_STEPS;
                let art = gnnmark::infer::run_infer_workload(kind, &cfg)?;
                let extra: Vec<f64> = art
                    .batch1_latency_ns
                    .iter()
                    .chain(&art.batched_step_ns)
                    .copied()
                    .collect();
                out.push((kind, Digest::of(&art.profile, &art.losses, &extra), None));
            }
        }
    }
    Ok(out)
}
