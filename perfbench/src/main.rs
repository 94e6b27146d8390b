//! The repository benchmark: four workloads, their end-to-end metrics, and
//! a traced run that splits the same work across the layers.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --bless        # rewrite reference.txt after an intended change
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. See `perfbench/README.md` for what each workload and metric
//! covers.

mod check;
mod inputs;
mod refclock;
mod replay;
mod run;
mod serve;
mod stats;
mod suite;
mod trace;

use std::path::{Path, PathBuf};

use gnnmark_workloads::WorkloadKind;

use check::{Blessing, Reference, Section};
use inputs::Inputs;
use run::{repeat_check, run_phase, Pass, Report};
use stats::median;
use suite::Mode;

const USAGE: &str =
    "usage: perfbench --workload train-small|infer-minibatch|replay-sweep|serve-jobs \
--seed N --seconds S --trace 0|1\n       perfbench --bless";

/// The workloads, by name.
const WORKLOADS: [&str; 4] = [
    "train-small",
    "infer-minibatch",
    "replay-sweep",
    "serve-jobs",
];

/// End-to-end metrics and units, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
];

/// Per-layer metrics and units, printed with `--trace 1`. A layer a
/// workload does not exercise reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("workloads.build_ms", "ms");
    for k in WorkloadKind::ALL {
        add(&format!("workloads.epoch_ms.{}", k.label()), "ms");
    }
    add("workloads.infer_ms", "ms");
    add("autograd.forward_ms", "ms");
    add("autograd.backward_ms", "ms");
    add("autograd.optimizer_ms", "ms");
    add("autograd.tape_nodes", "count");
    add("tensor.pool_hit_rate", "ratio");
    add("tensor.pool_acquires", "count");
    add("tensor.par_imbalance", "ratio");
    add("gpusim.simulate_ms", "ms");
    for k in WorkloadKind::ALL {
        add(&format!("gpusim.simulate_ms.{}", k.label()), "ms");
    }
    add("gpusim.kernels", "count");
    add("gpusim.l1_accesses", "count");
    add("gpusim.warp_ops", "count");
    add("gpusim.ns_per_kernel", "ns");
    add("gpusim.ns_per_l1_access", "ns");
    add("gpusim.simulate_share", "ratio");
    add("profiler.replay_ms", "ms");
    add("profiler.finish_ms", "ms");
    add("serve.cache_load_ms", "ms");
    add("serve.cache_bytes", "bytes");
    add("serve.campaign_ms", "ms");
    add("serve.queue_wait_ms", "ms");
    add("serve.job_overhead_ms", "ms");
    add("serve.post_ms", "ms");
    add("serve.status_ms", "ms");
    add("serve.artifact_ms", "ms");
    add("serve.polls_per_job", "count");
    add("serve.wal_bytes_per_job", "bytes");
    add("report.render_ms", "ms");
    add("core.overhead_ms", "ms");
    add("telemetry.overhead_frac", "ratio");
    for layer in run::SELF_LAYERS {
        add(&format!("{layer}.self_ms"), "ms");
    }
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds needs a positive number")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("--daemon") => serve::daemon_main(&argv[1..]),
        Some("--bless") => bless(),
        _ => match parse_args(&argv) {
            Ok(args) => bench(&args),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

fn bench(args: &Args) -> i32 {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    gnnmark_tensor::par::set_threads(threads);
    let inputs = Inputs::from_seed(args.seed);
    let work =
        PathBuf::from(".perfbench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let reference = Reference::load();
    let mut report = Report::default();
    match args.workload.as_str() {
        "train-small" => {
            timed_phases(args, &mut report, None, &mut || {
                suite::pass(Mode::Train, &inputs, &reference)
            });
        }
        "infer-minibatch" => {
            timed_phases(args, &mut report, None, &mut || {
                suite::pass(Mode::Infer, &inputs, &reference)
            });
        }
        "replay-sweep" => replay_sweep(args, &inputs, &reference, &work, &mut report),
        _ => serve::run(&work, &inputs, args.seconds, args.trace, &mut report),
    }
    let _ = std::fs::remove_dir_all(&work);
    if args.trace {
        let path = PathBuf::from(".perfbench_out")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match trace::write(&path, &report.trace) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                report.trace.len(),
                path.display()
            ),
            Err(e) => report
                .failures
                .push(format!("writing {}: {e}", path.display())),
        }
    }
    print_result(args, &inputs, &report)
}

/// A pass-based workload: an untraced phase gives the end-to-end metrics;
/// with tracing, a second, traced phase gives the per-layer metrics.
/// `setups` are set-up times taken before the phase; without them, the
/// set-up done inside each pass is used.
fn timed_phases(
    args: &Args,
    report: &mut Report,
    setups: Option<&[f64]>,
    pass: &mut dyn FnMut() -> Pass,
) {
    let n = passes_for(&args.workload, args.seconds);
    let passes = run_phase(n, &mut *pass);
    report.absorb(&passes);
    let setups = setups.map_or_else(
        || passes.iter().map(|p| p.setup_s).collect(),
        <[f64]>::to_vec,
    );
    report.end_to_end(&passes, &setups);
    if !args.trace {
        return;
    }
    gnnmark_tensor::pool::reset_global_stats();
    gnnmark_tensor::par::reset_worker_busy();
    let tape_before = gnnmark_autograd::tape_nodes_recorded();
    trace::set_enabled(true);
    let traced = run_phase(n, &mut *pass);
    trace::set_enabled(false);
    let tape_nodes = gnnmark_autograd::tape_nodes_recorded() - tape_before;
    report.absorb(&traced);
    report
        .failures
        .extend(repeat_check(&[passes[0].clone(), traced[0].clone()]));
    let nodes = trace::take();
    report.layers_from_trace(&nodes, &traced);
    report.tensor_counters(
        gnnmark_tensor::pool::global_stats(),
        tape_nodes,
        traced.len(),
    );
    let wall = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    report.set(
        "telemetry.overhead_frac",
        wall(&traced) / wall(&passes) - 1.0,
    );
    report.trace = nodes;
}

/// Passes a phase of about `seconds` runs (see [`run::count_for`]), from
/// the nominal reference seconds of one pass. `replay-sweep` runs at least
/// four: its passes are long, and the median of three spread by 0.09
/// across ten seeds.
fn passes_for(workload: &str, seconds: f64) -> usize {
    let (nominal_s, min) = match workload {
        "train-small" => (3.8, run::MIN_PASSES),
        "infer-minibatch" => (2.0, run::MIN_PASSES),
        _ => (5.7, 4),
    };
    run::count_for(seconds, nominal_s, min)
}

/// `replay-sweep`: set up (cold capture) three times, keep the last cache,
/// then sweep it.
fn replay_sweep(
    args: &Args,
    inputs: &Inputs,
    reference: &Reference,
    work: &Path,
    report: &mut Report,
) {
    let mut setups = Vec::new();
    let mut dir = PathBuf::new();
    for i in 0..3 {
        dir = work.join(format!("cache{i}"));
        match replay::capture(&dir, inputs) {
            Ok(secs) => setups.push(secs),
            Err(f) => {
                report.attempted += 1;
                report.failures.extend(f);
                return;
            }
        }
    }
    let cache = gnnmark_serve::StreamCache::new(&dir);
    timed_phases(args, report, Some(&setups), &mut || {
        replay::pass(&cache, inputs, reference)
    });
    if args.trace {
        report.set("serve.cache_bytes", replay::cache_bytes(&dir) as f64);
    }
}

fn print_result(args: &Args, inputs: &Inputs, report: &Report) -> i32 {
    let catalog: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_string(), *u))
            .collect()
    };
    println!(
        "workload {} seed {} (dataset seed {}), {} s per phase, trace {}",
        args.workload,
        args.seed,
        inputs.dataset_seed,
        args.seconds,
        u8::from(args.trace)
    );
    let failed = (report.failures.len() as u64).min(report.attempted.max(1));
    let attempted = report.attempted.max(1);
    println!(
        "failed_frac {} ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    for note in &report.notes {
        println!("{note}");
    }
    let mut metrics = Vec::with_capacity(catalog.len());
    for (name, unit) in &catalog {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        // `+ 0.0` prints an empty sum (-0.0) as 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        println!("{name} {value} {unit}");
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    for f in report.failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    i32::from(!correct)
}

/// Rewrites `reference.txt` from the library's own suite, inference and
/// replay entry points, for every dataset seed a benchmark seed can map to.
fn bless() -> i32 {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    gnnmark_tensor::par::set_threads(threads);
    let mut out = Blessing::default();
    for seed in inputs::reference_dataset_seeds() {
        eprintln!("blessing dataset seed {seed}");
        let train = match suite::bless_digests(Mode::Train, seed) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: training: {e}");
                return 1;
            }
        };
        for (kind, digest, run) in train {
            out.add(seed, Section::Train, kind.label(), &digest);
            let run = run.expect("training digests carry their captured run");
            let extra: Vec<f64> = run.meta.quality.map(|(_, v)| v).into_iter().collect();
            for dev in inputs::DEVICES {
                let p = gnnmark_profiler::replay_profile(kind.label(), dev.spec(), &run.stream);
                let d = check::Digest::of(&p, &run.meta.losses, &extra);
                if dev.name == inputs::DEVICES[0].name {
                    if d != digest {
                        eprintln!(
                            "error: {} replay on the capture device differs from live training",
                            kind.label()
                        );
                        return 1;
                    }
                } else {
                    out.add(
                        seed,
                        Section::Replay,
                        &format!("{}/{}", kind.label(), dev.name),
                        &d,
                    );
                }
            }
        }
        match suite::bless_digests(Mode::Infer, seed) {
            Ok(infer) => {
                for (kind, digest, _) in infer {
                    out.add(seed, Section::Infer, kind.label(), &digest);
                }
            }
            Err(e) => {
                eprintln!("error: inference: {e}");
                return 1;
            }
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");
    match std::fs::write(path, out.finish()) {
        Ok(()) => {
            eprintln!("wrote {path}");
            0
        }
        Err(e) => {
            eprintln!("error: writing {path}: {e}");
            1
        }
    }
}
