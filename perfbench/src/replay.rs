//! `replay-sweep`: the nine captured training streams replayed under the
//! four device configs from a warm replay cache, on one thread.
//!
//! Set-up is the cold capture: training all nine workloads once and
//! storing their streams, the training a first `gnnmark sweep` over them
//! pays. Both are timed on the reference clock ([`crate::refclock`]),
//! ticking between workloads and between cells.

use std::path::Path;

use gnnmark::infer::ExecPhase;
use gnnmark_serve::{CacheKey, StreamCache};
use gnnmark_tensor::half::Precision;
use gnnmark_workloads::{Scale, TrainMode, WorkloadKind};

use crate::check::{Digest, Reference, Section};
use crate::inputs::{Inputs, DEVICES};
use crate::refclock::RefClock;
use crate::run::Pass;
use crate::suite::EPOCHS;
use crate::trace;

/// The cache key of a workload's training stream.
pub fn key(kind: WorkloadKind, dataset_seed: u64) -> CacheKey {
    CacheKey {
        workload: kind,
        scale: Scale::Small,
        seed: dataset_seed,
        epochs: EPOCHS,
        precision: Precision::Fp32,
        mode: TrainMode::FullGraph,
        phase: ExecPhase::Train,
    }
}

/// Cold capture into an empty cache directory: trains every workload once
/// and stores its stream. Returns the reference seconds it took, or the
/// failures.
///
/// The trainings run one after another: two at once would make the peak
/// resident set depend on which pair happened to overlap.
pub fn capture(dir: &Path, inputs: &Inputs) -> Result<f64, Vec<String>> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = StreamCache::new(dir);
    let mut clock = RefClock::start();
    let mut failures = Vec::new();
    for kind in WorkloadKind::ALL {
        let job = trace::next_job();
        {
            let _s = trace::span("StreamCache::get_or_train", "serve", job, kind.label());
            if let Err(e) = cache.get_or_train(&key(kind, inputs.dataset_seed)) {
                failures.push(format!("capture {}: {e}", kind.label()));
            }
        }
        clock.tick();
    }
    let secs = clock.stop().ref_s;
    if failures.is_empty() {
        Ok(secs)
    } else {
        Err(failures)
    }
}

/// Total bytes of the cache's stream files.
pub fn cache_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One sweep pass over a warm cache, in the two phases a campaign runs:
/// every workload's stream is loaded and decoded, then every (workload,
/// config) cell is replayed. A job is one cell; a request is one stream
/// load, and each is a lap of the reference clock. Cells run in a fixed
/// workload-major order on one thread: on two, the wall time would also
/// measure how evenly the last cells land, and the reference clock probes
/// the thread it runs on.
///
/// The replay on the capture device must reproduce the live training
/// profile, so it is checked against the `train` reference; the other
/// configs against their `replay` reference.
pub fn pass(cache: &StreamCache, inputs: &Inputs, reference: &Reference) -> Pass {
    let mut pass = Pass::default();
    let mut clock = RefClock::start();
    let mut loaded = Vec::with_capacity(WorkloadKind::ALL.len());
    for kind in WorkloadKind::ALL {
        let job = trace::next_job();
        let run = {
            let _j = trace::span(
                format!("job:{}/load", kind.label()),
                "job",
                job,
                kind.label(),
            );
            let _s = trace::span("StreamCache::load", "serve", job, kind.label());
            cache.load(&key(kind, inputs.dataset_seed))
        };
        pass.requests_ms.push(clock.lap().ref_s * 1e3);
        if run.is_none() {
            pass.failures.push(format!(
                "{}: stream missing from the warm cache",
                kind.label()
            ));
        }
        loaded.push((kind, job, run));
    }

    for (kind, job, run) in &loaded {
        let Some(run) = run else { continue };
        let label = kind.label();
        let extra: Vec<f64> = run.meta.quality.map(|(_, v)| v).into_iter().collect();
        for dev in DEVICES {
            let profile = {
                let _j = trace::span(format!("job:{label}/{}", dev.name), "job", *job, label);
                let _s = trace::span("replay_profile", "profiler", *job, label);
                gnnmark_profiler::replay_profile(label, dev.spec(), &run.stream)
            };
            pass.attempted += 1;
            let d = Digest::of(&profile, &run.meta.losses, &extra);
            drop(profile);
            let checked = if dev.name == DEVICES[0].name {
                reference.check(inputs.dataset_seed, Section::Train, label, &d)
            } else {
                reference.check(
                    inputs.dataset_seed,
                    Section::Replay,
                    &format!("{label}/{}", dev.name),
                    &d,
                )
            };
            pass.counts.add(&d);
            if let Err(e) = checked {
                pass.failures.push(e);
            }
            pass.jobs_s.push(clock.lap().ref_s);
        }
    }
    pass.stop(clock);
    pass
}
