//! `serve-jobs`: a closed loop of two clients against a `gnnmark serve`
//! daemon with a warm replay cache and default flags.
//!
//! The daemon is this binary re-executed with `--daemon`, which runs
//! `gnnmark_serve::serve` with `ServeConfig::default()` apart from its
//! address and directories — the same daemon `gnnmark serve` starts. Each
//! client submits a replay job for the next workload and device of the
//! seed's rotation, polls its status every [`POLL`], and once it is done
//! fetches `merged.json` and `/jobs/N/report`; only then does it submit
//! again. A run serves at least one lap over the nine workloads, so every
//! seed exercises the same mix of job sizes. The request latencies are the
//! status polls — the reads that run beside the jobs; artifact and report
//! fetches have their own per-layer metrics. After the loop every served
//! `merged.json` is compared with an in-process `run_campaign` of the same
//! job spec.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gnnmark_serve::campaign::CampaignOptions;
use gnnmark_serve::{run_campaign, CampaignSpec, StreamCache};
use gnnmark_telemetry::export::parse_json;
use gnnmark_workloads::WorkloadKind;

use crate::inputs::{Device, Inputs};
use crate::replay;
use crate::run::{peak_rss_mb, Report};
use crate::stats::median;
use crate::suite::EPOCHS;
use crate::trace;

/// Concurrent clients (the container's core count).
pub const CLIENTS: usize = 2;
/// Status poll interval. Polls go out on a fixed schedule from the
/// submission, not a fixed sleep after each reply: the daemon's accept loop
/// sleeps 20 ms when idle, and sleeping after each reply would lock the
/// polls to one phase of that loop, making every read wait the same and
/// the tail hinge on rare phase slips. 47 ms is coprime with 20 ms, so the
/// schedule samples every phase.
pub const POLL: Duration = Duration::from_millis(47);
/// Nominal submit-to-done time of one job when jobs do not queue.
pub const NOMINAL_JOB_S: f64 = 3.4;
/// A job that is not done after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// A running daemon; killed and reaped when dropped.
pub struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts a daemon over `cache` with its store and results under `dir`,
    /// and waits until it answers `/healthz`.
    pub fn start(dir: &Path, cache: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("daemon dir: {e}"))?;
        let log_path = dir.join("daemon.log");
        let log = std::fs::File::create(&log_path).map_err(|e| format!("daemon log: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let child = Command::new(exe)
            .arg("--daemon")
            .arg(cache)
            .arg(dir.join("store"))
            .arg(dir.join("results"))
            .env_remove("GNNMARK_FAULT")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(30) {
            let text = std::fs::read_to_string(&log_path).unwrap_or_default();
            if let Some(rest) = text.split("listening on http://").nth(1) {
                daemon.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                if matches!(http(&daemon.addr, "GET", "/healthz", ""), Ok((200, _))) {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up ({status}): {text}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not come up within 30 s".to_string())
    }

    /// Peak resident set of the daemon process, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(Some(self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Entry point of `perfbench --daemon CACHE STORE RESULTS`.
pub fn daemon_main(args: &[String]) -> i32 {
    let [cache, store, results] = args else {
        eprintln!("usage: perfbench --daemon CACHE STORE RESULTS");
        return 2;
    };
    let cfg = gnnmark_serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: PathBuf::from(cache),
        results_dir: PathBuf::from(results),
        store_dir: PathBuf::from(store),
        ..gnnmark_serve::ServeConfig::default()
    };
    match gnnmark_serve::serve(&cfg) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("daemon: {e}");
            1
        }
    }
}

/// One HTTP/1.1 request; returns the status and body.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("{method} {path}: connect: {e}"))?;
    let timeout = Some(Duration::from_secs(30));
    let _ = s.set_read_timeout(timeout);
    let _ = s.set_write_timeout(timeout);
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("{method} {path}: write: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: read: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: malformed response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status code"))?;
    Ok((status, body.to_string()))
}

/// One served job as a client saw it.
struct ServedJob {
    id: u64,
    kind: WorkloadKind,
    device: Device,
    latency_s: f64,
    queue_wait_s: f64,
    polls: u64,
    merged: String,
}

/// Request latencies by route, ms.
#[derive(Default)]
struct Latencies {
    post: Vec<f64>,
    status: Vec<f64>,
    artifact: Vec<f64>,
    report: Vec<f64>,
}

/// A timed request, traced as a span of the `http` layer.
fn timed(
    addr: &str,
    method: &str,
    path: &str,
    route: &'static str,
    body: &str,
    job: u64,
    into: &mut Vec<f64>,
) -> Result<String, String> {
    let t = Instant::now();
    let res = {
        let _s = trace::span(route, "http", job, "");
        http(addr, method, path, body)
    };
    into.push(t.elapsed().as_secs_f64() * 1e3);
    match res {
        Ok((200 | 202, body)) => Ok(body),
        Ok((code, body)) => Err(format!("{route}: HTTP {code}: {body}")),
        Err(e) => Err(e),
    }
}

fn served_job(
    addr: &str,
    inputs: &Inputs,
    n: usize,
    lat: &mut Latencies,
) -> Result<ServedJob, String> {
    let (kind, device) = inputs.served_job(n);
    let job = trace::next_job();
    let _j = trace::span(format!("job:{}", kind.label()), "job", job, kind.label());
    let body = format!(
        "{{\"workload\":\"{}\",\"scale\":\"small\",\"seed\":{},\"epochs\":{EPOCHS},{}}}",
        kind.label(),
        inputs.dataset_seed,
        device.job_body_fields()
    );
    let submitted = Instant::now();
    let reply = timed(
        addr,
        "POST",
        "/jobs",
        "POST /jobs",
        &body,
        job,
        &mut lat.post,
    )?;
    let id = parse_json(&reply)
        .ok()
        .and_then(|v| v.get("id").and_then(|x| x.as_u64()))
        .ok_or_else(|| format!("POST /jobs: no id in {reply}"))?;
    let mut polls = 0;
    let mut queue_wait_s = None;
    loop {
        // The next slot of the schedule that is still ahead.
        let slots = submitted.elapsed().as_nanos() / POLL.as_nanos() + 1;
        let due = submitted + POLL * u32::try_from(slots).unwrap_or(u32::MAX);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let status = timed(
            addr,
            "GET",
            &format!("/jobs/{id}"),
            "GET /jobs/:id",
            "",
            job,
            &mut lat.status,
        )?;
        polls += 1;
        let state = parse_json(&status)
            .ok()
            .and_then(|v| v.get("state").and_then(|s| s.as_str().map(str::to_string)))
            .unwrap_or_default();
        if state != "queued" && queue_wait_s.is_none() {
            queue_wait_s = Some(submitted.elapsed().as_secs_f64());
        }
        match state.as_str() {
            "done" => break,
            "failed" => return Err(format!("job {id} failed: {status}")),
            _ if submitted.elapsed() > JOB_TIMEOUT => {
                return Err(format!("job {id} not done after {JOB_TIMEOUT:?}"))
            }
            _ => {}
        }
    }
    let latency_s = submitted.elapsed().as_secs_f64();
    let merged = timed(
        addr,
        "GET",
        &format!("/jobs/{id}/artifacts/merged.json"),
        "GET /jobs/:id/artifacts/:name",
        "",
        job,
        &mut lat.artifact,
    )?;
    timed(
        addr,
        "GET",
        &format!("/jobs/{id}/report"),
        "GET /jobs/:id/report",
        "",
        job,
        &mut lat.report,
    )?;
    Ok(ServedJob {
        id,
        kind,
        device,
        latency_s,
        queue_wait_s: queue_wait_s.unwrap_or(latency_s),
        polls,
        merged,
    })
}

/// What one closed-loop phase measured.
pub struct Phase {
    jobs: Vec<ServedJob>,
    lat: Latencies,
    failures: Vec<String>,
    attempted: u64,
    wall_s: f64,
}

impl Phase {
    /// Wall-clock per completed job: the loop's wall over the jobs it
    /// completed, i.e. the inverse of the closed loop's throughput.
    pub fn wall_per_job_s(&self) -> f64 {
        self.wall_s / self.jobs.len().max(1) as f64
    }
}

/// Runs the closed loop: the clients submit jobs `first..first + count`
/// between them, each waiting for its job before submitting the next.
pub fn closed_loop(daemon: &Daemon, inputs: &Inputs, first: usize, count: usize) -> Phase {
    let next = AtomicUsize::new(first);
    let out = Mutex::new(Phase {
        jobs: Vec::new(),
        lat: Latencies::default(),
        failures: Vec::new(),
        attempted: 0,
        wall_s: 0.0,
    });
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut lat = Latencies::default();
                let mut jobs = Vec::new();
                let mut failures = Vec::new();
                let mut attempted = 0;
                loop {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    if n >= first + count {
                        break;
                    }
                    attempted += 1;
                    match served_job(&daemon.addr, inputs, n, &mut lat) {
                        Ok(j) => jobs.push(j),
                        Err(e) => failures.push(e),
                    }
                }
                let mut o = out.lock().expect("phase results poisoned");
                o.jobs.extend(jobs);
                o.failures.extend(failures);
                o.attempted += attempted;
                o.lat.post.extend(lat.post);
                o.lat.status.extend(lat.status);
                o.lat.artifact.extend(lat.artifact);
                o.lat.report.extend(lat.report);
            });
        }
    });
    let mut phase = out.into_inner().expect("phase results poisoned");
    phase.wall_s = t0.elapsed().as_secs_f64();
    phase.jobs.sort_by_key(|j| j.id);
    phase
}

/// Runs every served job's spec in-process and compares `merged.json`
/// byte for byte. Returns each job's in-process campaign time, ms, and
/// its cache-load time, ms.
fn check_in_process(phase: &mut Phase, cache: &StreamCache, inputs: &Inputs) -> Vec<(f64, f64)> {
    let opts = CampaignOptions::default();
    let mut times = Vec::with_capacity(phase.jobs.len());
    for j in &phase.jobs {
        let label = j.kind.label();
        let job = trace::next_job();
        let text = format!(
            r#"{{"name":"job-{}","scale":"small","seed":{},"epochs":{EPOCHS},"workloads":["{label}"],"configs":[{}]}}"#,
            j.id,
            inputs.dataset_seed,
            j.device.job_config_json()
        );
        let t = Instant::now();
        let loaded = {
            let _s = trace::span("StreamCache::load", "serve", job, label);
            cache
                .load(&replay::key(j.kind, inputs.dataset_seed))
                .is_some()
        };
        let load_ms = t.elapsed().as_secs_f64() * 1e3;
        if !loaded {
            phase.failures.push(format!(
                "job {}: {label} stream missing from the cache",
                j.id
            ));
        }
        let t = Instant::now();
        let outcome = CampaignSpec::parse(&text).and_then(|spec| {
            let _s = trace::span("run_campaign", "serve", job, label);
            run_campaign(&spec, cache, &opts)
        });
        times.push((t.elapsed().as_secs_f64() * 1e3, load_ms));
        match outcome {
            Ok(out) if out.merged_json == j.merged => {}
            Ok(_) => phase.failures.push(format!(
                "job {} ({label} on {}): served merged.json differs from the in-process campaign",
                j.id, j.device.name
            )),
            Err(e) => phase
                .failures
                .push(format!("job {}: in-process campaign: {e}", j.id)),
        }
    }
    times
}

/// Bytes in the store's write-ahead log and snapshot.
fn wal_bytes(store: &Path) -> u64 {
    ["wal.log", "snapshot.json"]
        .iter()
        .filter_map(|f| std::fs::metadata(store.join(f)).ok())
        .map(|m| m.len())
        .sum()
}

/// Set-up: cold capture into a fresh cache, then a fresh daemon over it.
/// The capture is compute and counts in reference seconds; the daemon's
/// start is mostly waiting, and counts on the wall clock.
fn set_up(dir: &Path, inputs: &Inputs) -> Result<(Daemon, f64), Vec<String>> {
    let _ = std::fs::remove_dir_all(dir);
    let capture_s = replay::capture(&dir.join("cache"), inputs)?;
    let t0 = Instant::now();
    let daemon = Daemon::start(&dir.join("daemon"), &dir.join("cache")).map_err(|e| vec![e])?;
    Ok((daemon, capture_s + t0.elapsed().as_secs_f64()))
}

/// The whole `serve-jobs` run.
pub fn run(work: &Path, inputs: &Inputs, seconds: f64, traced: bool, report: &mut Report) {
    // Set up three times and keep the last daemon; the median is setup_s.
    let mut setups = Vec::new();
    let mut daemon: Option<(Daemon, PathBuf)> = None;
    for i in 0..3 {
        drop(daemon.take()); // stop the previous daemon first
        match set_up(&work.join(format!("setup{i}")), inputs) {
            Ok((d, secs)) => {
                setups.push(secs);
                daemon = Some((d, work.join(format!("setup{i}"))));
            }
            Err(f) => {
                report.attempted += 1;
                report.failures.extend(f);
                return;
            }
        }
    }
    let (daemon, dir) = daemon.expect("three set-ups ran");
    let cache = StreamCache::new(dir.join("cache"));

    let jobs = crate::run::count_for(seconds, NOMINAL_JOB_S, WorkloadKind::ALL.len());
    let mut untraced = closed_loop(&daemon, inputs, 0, jobs);
    let wal = wal_bytes(&dir.join("daemon/store"));
    let daemon_rss = daemon.peak_rss_mb();
    check_in_process(&mut untraced, &cache, inputs);
    report.attempted += untraced.attempted;
    report.failures.append(&mut untraced.failures);
    report.set("wall_s", untraced.wall_per_job_s());
    report.set("setup_s", median(&setups));
    // The largest peak of the benchmark's processes: the cold capture in
    // this one, or the daemon.
    report.set("peak_rss_mb", daemon_rss.max(peak_rss_mb(None)));
    report
        .notes
        .push(format!("daemon peak_rss_mb {daemon_rss}"));
    let latencies: Vec<f64> = untraced.jobs.iter().map(|j| j.latency_s).collect();
    report.latencies(&latencies, &untraced.lat.status);
    report.notes.push(format!(
        "setups: n={}; jobs completed: {}",
        setups.len(),
        untraced.jobs.len()
    ));
    if !traced {
        return;
    }

    trace::set_enabled(true);
    let mut tr = closed_loop(&daemon, inputs, jobs, jobs);
    let times = check_in_process(&mut tr, &cache, inputs);
    trace::set_enabled(false);
    report.attempted += tr.attempted;
    report.failures.append(&mut tr.failures);
    let nodes = trace::take();
    report.self_times(&nodes, 1.0 / tr.jobs.len().max(1) as f64);
    let campaign_ms: Vec<f64> = times.iter().map(|t| t.0).collect();
    let overhead_ms: Vec<f64> = tr
        .jobs
        .iter()
        .zip(&times)
        .map(|(j, t)| j.latency_s * 1e3 - t.0)
        .collect();
    let jobs = tr.jobs.len().max(1) as f64;
    report.set("serve.campaign_ms", median(&campaign_ms));
    report.set("serve.job_overhead_ms", median(&overhead_ms));
    report.set(
        "serve.queue_wait_ms",
        median(
            &tr.jobs
                .iter()
                .map(|j| j.queue_wait_s * 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    report.set(
        "serve.cache_load_ms",
        median(&times.iter().map(|t| t.1).collect::<Vec<_>>()),
    );
    report.set(
        "serve.cache_bytes",
        replay::cache_bytes(&dir.join("cache")) as f64,
    );
    report.set("serve.post_ms", median(&tr.lat.post));
    report.set("serve.status_ms", median(&tr.lat.status));
    report.set("serve.artifact_ms", median(&tr.lat.artifact));
    report.set("report.render_ms", median(&tr.lat.report));
    report.set(
        "serve.polls_per_job",
        tr.jobs.iter().map(|j| j.polls as f64).sum::<f64>() / jobs,
    );
    report.set(
        "serve.wal_bytes_per_job",
        wal as f64 / untraced.attempted.max(1) as f64,
    );
    report.set(
        "telemetry.overhead_frac",
        tr.wall_per_job_s() / untraced.wall_per_job_s() - 1.0,
    );
    report.trace = nodes;
}
