//! Dependency-free HTTP/1.1 serving front-end over the durable job
//! store.
//!
//! A single-threaded accept loop on `std::net::TcpListener` plus one
//! background worker that claims jobs out of the WAL-backed
//! [`JobStore`] via lock-file [leases](crate::lease). Any number of
//! `gnnmark serve --store <dir>` processes may share one store: job ids
//! are allocated under the store's cross-process mutex, claims are
//! arbitrated by lease files, and a worker that stops heartbeating loses
//! its lease so the job is re-queued and retried elsewhere.
//!
//! | Method | Path                        | Meaning                                  |
//! |--------|-----------------------------|------------------------------------------|
//! | GET    | `/healthz`                  | liveness probe (`ok`)                    |
//! | GET    | `/metrics`                  | Prometheus text exposition               |
//! | GET    | `/dashboard`                | live HTML fleet dashboard                |
//! | GET    | `/jobs`                     | all jobs, id-ordered JSON array          |
//! | POST   | `/jobs`                     | submit one replay job (JSON body)        |
//! | POST   | `/campaigns`                | submit a campaign spec (JSON body)       |
//! | GET    | `/jobs/<id>`                | job status JSON                          |
//! | GET    | `/jobs/<id>/report`         | HTML characterization report             |
//! | GET    | `/jobs/<id>/artifacts`      | artifact name list JSON                  |
//! | GET    | `/jobs/<id>/artifacts/<n>`  | one artifact body (CSV or JSON)          |
//!
//! A single job body is a one-workload, one-config campaign written
//! flat: `{"workload": "TLSTM", "scale": "test", "seed": 42,
//! "epochs": 1, "device": "v100", "l1_kb": 64, ...}` — it goes through
//! the same replay cache, so resubmitting an identical job never
//! retrains.
//!
//! No timer sits on the request or job path: the accept loop blocks in
//! `accept`, and a job's lease heartbeat (every `ttl / 3`) stops the
//! moment its campaign returns, so the job is `done` when its replay ends.
//!
//! On SIGINT/SIGTERM (`gnnmark::shutdown`) the daemon keeps serving
//! reads — status polls, artifact fetches, `/healthz`, `/metrics` — but
//! answers new submissions with `503` + `Retry-After` while the worker
//! finishes its in-flight job; one loopback connection to its own address
//! then wakes `accept`. Still-queued jobs stay `queued` in the durable
//! store and are picked up by a peer or the next restart; the drain hook
//! compacts the WAL and a final metrics snapshot is written next to the
//! results before the daemon returns.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gnnmark::shutdown;
use gnnmark_telemetry::export::{metrics_prometheus, parse_json, JsonValue};
use gnnmark_telemetry::metrics;

use crate::cache::StreamCache;
use crate::campaign::{run_campaign, CampaignOptions};
use crate::lease::{Lease, LeaseManager};
use crate::spec::CampaignSpec;
use crate::store::{json_escape, JobStore, StoredJob};

/// Times a worker-killed job may be re-queued before failing terminally.
const MAX_REQUEUES: u64 = 3;

/// Largest request body accepted; a larger `Content-Length` gets `413`.
const MAX_BODY: usize = 4 << 20;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:8642`.
    pub addr: String,
    /// Replay-cache directory.
    pub cache_dir: PathBuf,
    /// Directory the shutdown metrics snapshot is written under.
    pub results_dir: PathBuf,
    /// Worker threads per campaign.
    pub workers: usize,
    /// Durable job store directory (WAL, snapshot, leases, artifacts).
    /// Point several daemons at the same directory to scale out.
    pub store_dir: PathBuf,
    /// Worker identity for lease claims; empty = `worker-<pid>`.
    pub worker_id: String,
    /// Lease TTL: a worker that misses heartbeats for this long loses
    /// its in-flight job to a peer (or its own restart).
    pub lease_ttl: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8642".to_string(),
            cache_dir: PathBuf::from("results/serve/cache"),
            results_dir: PathBuf::from("results/serve"),
            workers: 2,
            store_dir: PathBuf::from("results/serve/store"),
            worker_id: String::new(),
            lease_ttl: Duration::from_secs(10),
        }
    }
}

struct Daemon {
    store: Arc<JobStore>,
    leases: LeaseManager,
    cache: StreamCache,
    opts: CampaignOptions,
    /// Set once shutdown is requested: submissions get `503 Retry-After`
    /// while reads keep flowing.
    draining: AtomicBool,
}

impl Daemon {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || shutdown::requested()
    }

    /// Validates and durably submits a campaign spec body. The spec text
    /// itself is what's persisted — recovery re-parses it.
    fn submit_campaign(&self, body: &str) -> Result<u64, String> {
        let spec = CampaignSpec::parse(body)?;
        self.store
            .submit_with(|_id| (spec.name.clone(), body.to_string()))
            .map_err(|e| format!("store append failed: {e}"))
    }

    /// Validates and durably submits a flat single-job body.
    fn submit_single(&self, v: &JsonValue) -> Result<u64, String> {
        single_job_spec(v, 0)?; // validate before allocating an id
        self.store
            .submit_with(|id| {
                let text = single_job_spec_json(v, id);
                (format!("job-{id}"), text)
            })
            .map_err(|e| format!("store append failed: {e}"))
    }

    /// Worker loop: recover dead peers' jobs, claim the next queued job
    /// under a lease, run it, and durably record the outcome. Exits once
    /// shutdown is requested and the in-flight job (if any) finished.
    fn work(&self) {
        loop {
            if shutdown::requested() {
                return;
            }
            let _ = self.store.refresh();
            let _ = self
                .store
                .recover_dead(MAX_REQUEUES, |id| self.leases.is_dead(id));
            let Some(job) = self.store.next_queued() else {
                std::thread::sleep(Duration::from_millis(25));
                continue;
            };
            match self.leases.try_claim(job.id) {
                Ok(Some(lease)) => {
                    if self
                        .store
                        .record_claim(job.id, self.leases.worker_id())
                        .is_err()
                    {
                        lease.release();
                        continue;
                    }
                    self.run_job(&job, lease);
                }
                // Lost the claim race (or a transient fs error): another
                // worker owns it; wait for the claim record to land.
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Runs one claimed job under a heartbeat thread and records the
    /// outcome — but only if the lease is still ours, so a worker that
    /// stalled past its TTL defers to whichever peer stole the job.
    fn run_job(&self, job: &StoredJob, lease: Lease) {
        metrics::counter_add("gnnmark_serve_jobs_started_total", 1);
        let worker = self.leases.worker_id().to_string();
        let id = job.id;
        let spec = match CampaignSpec::parse(&job.spec_json) {
            Ok(spec) => spec,
            Err(e) => {
                let _ = self
                    .store
                    .record_failed(id, &worker, &format!("invalid stored spec: {e}"), 0, 0);
                lease.release();
                return;
            }
        };

        let mut opts = self.opts.clone();
        {
            let store = Arc::clone(&self.store);
            opts.progress = Some(Arc::new(move |msg: &str| {
                let _ = store.record_progress(id, msg);
            }));
        }
        // Heartbeat every third of the TTL until the campaign returns:
        // `_stop` drops with it, which wakes the heartbeat thread at once.
        let tick = (self.leases.ttl() / 3).max(Duration::from_millis(50));
        let result = std::thread::scope(|s| {
            let (_stop, stopped) = mpsc::channel::<()>();
            let lease = &lease;
            s.spawn(move || {
                while stopped.recv_timeout(tick) == Err(RecvTimeoutError::Timeout) {
                    if !lease.heartbeat().unwrap_or(false) {
                        return; // lease lost — the thief owns the job now
                    }
                }
            });
            run_campaign(&spec, &self.cache, &opts)
        });

        match result {
            Ok(out) => {
                let rel = format!("jobs/job-{id}");
                let result_dir = format!("{rel}/{}", spec.name);
                let written = out.write_to(&self.store.dir().join(&rel));
                let mut artifacts = vec!["merged.json".to_string()];
                for (config, file, _) in out.figure_csvs() {
                    artifacts.push(format!("{config}/{file}"));
                }
                if !lease.still_held() {
                    // Stolen mid-run: the thief records completion; ours
                    // would be dropped by first-done-wins anyway.
                    metrics::counter_add("gnnmark_serve_jobs_abandoned_total", 1);
                } else if let Err(e) = written {
                    let _ = self.store.record_failed(
                        id,
                        &worker,
                        &format!("writing artifacts failed: {e}"),
                        out.attempts,
                        out.faults_injected,
                    );
                } else if out.complete() {
                    let _ = self.store.record_done(
                        id,
                        &worker,
                        &result_dir,
                        &artifacts,
                        out.attempts,
                        out.faults_injected,
                    );
                } else {
                    let _ = self.store.record_failed(
                        id,
                        &worker,
                        &out.failures.join("; "),
                        out.attempts,
                        out.faults_injected,
                    );
                }
            }
            Err(e) => {
                if lease.still_held() {
                    let _ = self.store.record_failed(id, &worker, &e, 0, 0);
                }
            }
        }
        lease.release();
        metrics::counter_add("gnnmark_serve_jobs_finished_total", 1);
    }
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
    /// `Retry-After` seconds (drain-mode 503s).
    retry_after: Option<u64>,
}

impl Response {
    fn new(status: u16, content_type: &'static str, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type,
            body: body.into(),
            retry_after: None,
        }
    }

    fn json(status: u16, body: String) -> Response {
        Self::new(status, "application/json", body)
    }

    fn text(status: u16, body: impl Into<String>) -> Response {
        Self::new(status, "text/plain; charset=utf-8", body)
    }

    fn html(status: u16, body: String) -> Response {
        Self::new(status, "text/html; charset=utf-8", body)
    }

    fn error(status: u16, msg: &str) -> Response {
        Self::json(
            status,
            format!("{{\"error\":\"{}\"}}", msg.replace('"', "'")),
        )
    }

    /// Drain-mode refusal for new submissions: clients should retry
    /// against a peer worker or after the restart.
    fn unavailable() -> Response {
        let mut r = Self::error(503, "draining: submissions refused, retry later");
        r.retry_after = Some(5);
        r
    }
}

/// The flat single-job body expanded into campaign-spec JSON text (this
/// exact text is persisted in the job store and re-parsed on recovery).
fn single_job_spec_json(v: &JsonValue, id: u64) -> String {
    let workload = v.get("workload").and_then(|x| x.as_str()).unwrap_or("");
    let scale = v.get("scale").and_then(|x| x.as_str()).unwrap_or("test");
    let seed = v.get("seed").and_then(|x| x.as_u64()).unwrap_or(42);
    let epochs = v.get("epochs").and_then(|x| x.as_u64()).unwrap_or(1);
    // Execution phase: `"kind":"infer"` submits a forward-only inference
    // job (the spec parser validates the value; `epochs` then doubles as
    // the batched-step count).
    let kind = v
        .get("kind")
        .and_then(|x| x.as_str())
        .map(|k| format!(",\"kind\":\"{k}\""))
        .unwrap_or_default();
    let device = v.get("device").and_then(|x| x.as_str()).unwrap_or("v100");
    let mut cfg = format!("{{\"name\":\"{device}\",\"device\":\"{device}\"");
    for key in ["l1_kb", "nvlink_gbps", "gpus"] {
        if let Some(x) = v.get(key).and_then(|x| x.as_f64()) {
            cfg.push_str(&format!(",\"{key}\":{x}"));
        }
    }
    if let Some(true) = v.get("half_precision").and_then(|x| x.as_bool()) {
        cfg.push_str(",\"half_precision\":true");
    }
    cfg.push('}');
    format!(
        r#"{{"name":"job-{id}","scale":"{scale}","seed":{seed},"epochs":{epochs}{kind},
            "workloads":["{workload}"],"configs":[{cfg}]}}"#
    )
}

/// Turns a flat single-job JSON body into a one-config campaign spec.
fn single_job_spec(v: &JsonValue, id: u64) -> Result<CampaignSpec, String> {
    if v.get("workload").and_then(|x| x.as_str()).is_none() {
        return Err("missing field \"workload\"".to_string());
    }
    CampaignSpec::parse(&single_job_spec_json(v, id))
}

fn job_status_json(job: &StoredJob) -> String {
    let detail = if job.detail.is_empty() {
        String::new()
    } else {
        format!(",\"detail\":\"{}\"", json_escape(&job.detail))
    };
    let worker = job
        .worker
        .as_deref()
        .map_or("null".to_string(), |w| format!("\"{}\"", json_escape(w)));
    format!(
        "{{\"id\":{},\"campaign\":\"{}\",\"state\":\"{}\",\"artifacts\":{},\
         \"worker\":{worker},\"attempts\":{},\"requeues\":{},\"faults\":{},\
         \"progress\":\"{}\"{detail}}}",
        job.id,
        json_escape(&job.name),
        job.state.label(),
        job.artifacts.len(),
        job.attempts,
        job.requeues,
        job.faults_injected,
        json_escape(&job.progress),
    )
}

fn handle(daemon: &Daemon, method: &str, path: &str, body: &str) -> Response {
    match (method, path) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => Response::new(
            200,
            "text/plain; version=0.0.4",
            metrics_prometheus(&metrics::snapshot()),
        ),
        ("GET", "/dashboard") => {
            let _ = daemon.store.refresh();
            Response::html(
                200,
                crate::dashboard::dashboard_page(
                    &daemon.store.jobs(),
                    daemon.draining(),
                    daemon.leases.worker_id(),
                ),
            )
        }
        ("GET", "/jobs") => {
            let _ = daemon.store.refresh();
            let rows: Vec<String> = daemon
                .store
                .jobs()
                .iter()
                .map(job_status_json)
                .collect();
            Response::json(200, format!("[{}]", rows.join(",")))
        }
        ("POST", "/jobs") => {
            if daemon.draining() {
                return Response::unavailable();
            }
            let v = match parse_json(body) {
                Ok(v) => v,
                Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
            };
            match daemon.submit_single(&v) {
                Ok(id) => Response::json(202, format!("{{\"id\":{id}}}")),
                Err(e) => Response::error(400, &e),
            }
        }
        ("POST", "/campaigns") => {
            if daemon.draining() {
                return Response::unavailable();
            }
            match daemon.submit_campaign(body) {
                Ok(id) => Response::json(202, format!("{{\"id\":{id}}}")),
                Err(e) => Response::error(400, &e),
            }
        }
        ("GET", p) if p.starts_with("/jobs/") => {
            let rest = &p["/jobs/".len()..];
            let (id_s, tail) = match rest.find('/') {
                Some(i) => (&rest[..i], &rest[i + 1..]),
                None => (rest, ""),
            };
            let Ok(id) = id_s.parse::<u64>() else {
                return Response::error(400, "job id must be an integer");
            };
            let _ = daemon.store.refresh();
            let Some(job) = daemon.store.job(id) else {
                return Response::error(404, "no such job");
            };
            match tail {
                "" => Response::json(200, job_status_json(&job)),
                "report" => match crate::dashboard::job_report_page(&job, &daemon.cache) {
                    Ok(html) => Response::html(200, html),
                    Err(e) => Response::error(500, &e),
                },
                "artifacts" => {
                    let names: Vec<String> = job
                        .artifacts
                        .iter()
                        .map(|n| format!("\"{}\"", json_escape(n)))
                        .collect();
                    Response::json(200, format!("[{}]", names.join(",")))
                }
                name => {
                    let name = name.strip_prefix("artifacts/").unwrap_or(name);
                    // Only names the completing worker recorded are
                    // servable — the WAL record is the whitelist, so no
                    // request path ever escapes the store directory.
                    let (Some(result_dir), true) =
                        (&job.result_dir, job.artifacts.iter().any(|n| n == name))
                    else {
                        return Response::error(404, "no such artifact");
                    };
                    let path = daemon.store.dir().join(result_dir).join(name);
                    match std::fs::read_to_string(&path) {
                        Ok(body) if name.ends_with(".json") => Response::json(200, body),
                        Ok(body) => Response::new(200, "text/csv", body),
                        Err(_) => Response::error(404, "artifact missing on disk"),
                    }
                }
            }
        }
        _ => Response::error(404, "unknown route"),
    }
}

/// Collapses a request path onto a fixed route label so the per-route
/// latency histograms stay bounded-cardinality no matter what ids or
/// artifact names clients ask for.
fn route_label(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("GET", "/healthz") => "GET /healthz",
        ("GET", "/metrics") => "GET /metrics",
        ("GET", "/dashboard") => "GET /dashboard",
        ("GET", "/jobs") => "GET /jobs",
        ("POST", "/jobs") => "POST /jobs",
        ("POST", "/campaigns") => "POST /campaigns",
        ("GET", p) if p.starts_with("/jobs/") => {
            let rest = &p["/jobs/".len()..];
            match rest.find('/').map(|i| &rest[i + 1..]) {
                None => "GET /jobs/:id",
                Some("report") => "GET /jobs/:id/report",
                Some("artifacts") => "GET /jobs/:id/artifacts",
                Some(_) => "GET /jobs/:id/artifacts/:name",
            }
        }
        _ => "other",
    }
}

/// Reads one HTTP/1.1 request: `(method, path, body)`. A body declared
/// over [`MAX_BODY`] is an [`ErrorKind::FileTooLarge`] error.
fn read_request(stream: &mut TcpStream) -> std::io::Result<(String, String, String)> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 {
            break;
        }
        let h = h.trim();
        if h.is_empty() {
            break;
        }
        if let Some(v) = h
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse::<usize>().ok())
        {
            if v > MAX_BODY {
                return Err(ErrorKind::FileTooLarge.into()); // body left unread
            }
            content_length = v;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((method, path, String::from_utf8_lossy(&body).into_owned()))
}

fn write_response(stream: &mut TcpStream, r: &Response) -> std::io::Result<()> {
    let reason = match r.status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let retry = r
        .retry_after
        .map_or(String::new(), |s| format!("Retry-After: {s}\r\n"));
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{}",
        r.status,
        reason,
        r.content_type,
        r.body.len(),
        retry,
        r.body
    )?;
    stream.flush()
}

/// One accepted connection: enforce read/write deadlines so a stalled
/// client can't pin a server thread, answer `408` when the request never
/// arrives and `413` when its body is over [`MAX_BODY`], and record
/// per-status counters plus a latency histogram.
fn handle_connection(daemon: &Daemon, stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let started = Instant::now();
    let (route, resp) = match read_request(stream) {
        Ok((method, path, body)) => (
            route_label(&method, &path),
            handle(daemon, &method, &path, &body),
        ),
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
            metrics::counter_add("gnnmark_serve_read_timeouts_total", 1);
            ("timeout", Response::error(408, "timed out reading request"))
        }
        Err(e) if e.kind() == ErrorKind::FileTooLarge => {
            ("other", Response::error(413, "request body over 4 MiB"))
        }
        Err(_) => return, // client went away mid-request
    };
    metrics::counter_add(
        &format!(
            "gnnmark_serve_responses_total{{status=\"{}\"}}",
            resp.status
        ),
        1,
    );
    metrics::observe(
        "gnnmark_serve_request_seconds",
        started.elapsed().as_secs_f64(),
    );
    // Fixed-boundary per-route histogram: the dashboard's SLO panel and
    // `gnnmark loadtest` quantiles both read these exact buckets.
    metrics::observe_bucketed(
        &format!("gnnmark_serve_route_seconds{{route=\"{route}\"}}"),
        started.elapsed().as_secs_f64(),
        metrics::LATENCY_BUCKETS_S,
    );
    let _ = write_response(stream, &resp);
}

/// Runs the daemon until SIGINT/SIGTERM (or [`shutdown::request`] from
/// another thread, which is how tests stop it). On startup, replays the
/// store's WAL and re-queues jobs whose workers died mid-flight.
///
/// # Errors
/// Propagates socket errors from binding the listen address and
/// filesystem errors from opening the store.
pub fn serve(cfg: &ServeConfig) -> std::io::Result<()> {
    shutdown::install();
    let listener = TcpListener::bind(&cfg.addr)?;
    let local = listener.local_addr()?;

    let store = Arc::new(JobStore::open(&cfg.store_dir)?);
    let worker_id = if cfg.worker_id.is_empty() {
        format!("worker-{}", std::process::id())
    } else {
        cfg.worker_id.clone()
    };
    let leases = LeaseManager::new(&cfg.store_dir, worker_id, cfg.lease_ttl);
    let recovered = store.recover_dead(MAX_REQUEUES, |id| leases.is_dead(id))?;
    if !recovered.is_empty() {
        eprintln!(
            "gnnmark-serve: re-queued {} job(s) from dead workers: {recovered:?}",
            recovered.len()
        );
    }
    {
        // Final WAL flush on drain: fold the log into a fresh snapshot so
        // the next open replays nothing.
        let store = Arc::clone(&store);
        shutdown::on_drain(move || {
            let _ = store.compact();
        });
    }

    let daemon = Arc::new(Daemon {
        store,
        leases,
        cache: StreamCache::new(&cfg.cache_dir),
        opts: {
            let mut opts = CampaignOptions {
                workers: cfg.workers,
                ..CampaignOptions::default()
            };
            // `GNNMARK_FAULT` drills daemon job workers like any suite run;
            // injected faults are counted into the durable job record.
            opts.resilience = opts
                .resilience
                .clone()
                .with_faults(gnnmark::resilience::FaultPlan::from_env());
            opts
        },
        draining: AtomicBool::new(false),
    });
    let worker = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || daemon.work())
    };
    // Drain supervisor: the signal handler only flips a flag, so poll it and
    // announce the drain at once, even mid-job. Once the worker returns, one
    // loopback connection wakes the blocking accept below.
    let worker_done = Arc::new(AtomicBool::new(false));
    let supervisor = {
        let (daemon, done) = (Arc::clone(&daemon), Arc::clone(&worker_done));
        let wake: SocketAddr = match local.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => (Ipv4Addr::LOCALHOST, local.port()).into(),
            IpAddr::V6(ip) if ip.is_unspecified() => (Ipv6Addr::LOCALHOST, local.port()).into(),
            _ => local,
        };
        std::thread::spawn(move || {
            while !shutdown::requested() {
                std::thread::sleep(Duration::from_millis(25));
            }
            daemon.draining.store(true, Ordering::SeqCst);
            eprintln!("gnnmark-serve: shutdown requested, draining");
            let _ = worker.join();
            done.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(wake);
        })
    };
    eprintln!(
        "gnnmark-serve [{}] listening on http://{local} (store: {})",
        daemon.leases.worker_id(),
        cfg.store_dir.display()
    );

    // Accept loop. While draining, reads are still served and submissions
    // get 503 until the supervisor's wake-up connection arrives.
    for stream in listener.incoming() {
        if worker_done.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = stream?;
        let daemon = Arc::clone(&daemon);
        // One thread per connection; requests are tiny and
        // Connection: close keeps lifetimes bounded.
        std::thread::spawn(move || handle_connection(&daemon, &mut stream));
    }

    let _ = supervisor.join();
    shutdown::run_drain_hooks();
    std::fs::create_dir_all(&cfg.results_dir)?;
    std::fs::write(
        cfg.results_dir.join("final_metrics.prom"),
        metrics_prometheus(&metrics::snapshot()),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_daemon(tag: &str) -> Daemon {
        let root = std::env::temp_dir().join(format!(
            "gnnmark_http_unit_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store_dir = root.join("store");
        Daemon {
            store: Arc::new(JobStore::open(&store_dir).unwrap()),
            leases: LeaseManager::new(&store_dir, "unit", Duration::from_secs(10)),
            cache: StreamCache::new(root.join("cache")),
            opts: CampaignOptions::default(),
            draining: AtomicBool::new(false),
        }
    }

    #[test]
    fn routes_respond() {
        let daemon = test_daemon("routes");
        assert_eq!(handle(&daemon, "GET", "/healthz", "").status, 200);
        assert_eq!(handle(&daemon, "GET", "/metrics", "").status, 200);
        assert_eq!(handle(&daemon, "GET", "/nope", "").status, 404);
        assert_eq!(handle(&daemon, "GET", "/jobs/0", "").status, 404);
        assert_eq!(handle(&daemon, "POST", "/jobs", "not json").status, 400);
        assert_eq!(
            handle(&daemon, "POST", "/jobs", r#"{"workload":"NOPE"}"#).status,
            400
        );
        assert_eq!(
            handle(&daemon, "POST", "/campaigns", r#"{"name":"x"}"#).status,
            400
        );
        // A valid submission is durably queued (no worker runs here, so
        // it stays queued — status is readable immediately).
        let r = handle(&daemon, "POST", "/jobs", r#"{"workload":"TLSTM"}"#);
        assert_eq!(r.status, 202);
        assert!(r.body.contains("\"id\":0"));
        let st = handle(&daemon, "GET", "/jobs/0", "");
        assert_eq!(st.status, 200);
        assert!(st.body.contains("\"state\":\"queued\""), "{}", st.body);
        let listing = handle(&daemon, "GET", "/jobs", "");
        assert_eq!(listing.status, 200);
        assert!(listing.body.contains("\"id\":0"), "{}", listing.body);
        let _ = std::fs::remove_dir_all(daemon.store.dir().parent().unwrap());
    }

    #[test]
    fn job_kind_field_selects_the_inference_phase() {
        let daemon = test_daemon("kind");
        // Unknown kinds are rejected at submission, not at run time.
        assert_eq!(
            handle(&daemon, "POST", "/jobs", r#"{"workload":"TLSTM","kind":"predict"}"#)
                .status,
            400
        );
        let r = handle(
            &daemon,
            "POST",
            "/jobs",
            r#"{"workload":"TLSTM","kind":"infer"}"#,
        );
        assert_eq!(r.status, 202);
        let job = daemon.store.job(0).unwrap();
        assert!(job.spec_json.contains("\"kind\":\"infer\""), "{}", job.spec_json);
        let spec = CampaignSpec::parse(&job.spec_json).unwrap();
        assert_eq!(spec.phase, gnnmark::infer::ExecPhase::Infer);
        let _ = std::fs::remove_dir_all(daemon.store.dir().parent().unwrap());
    }

    #[test]
    fn submissions_survive_a_new_store_handle() {
        let daemon = test_daemon("durable");
        let r = handle(
            &daemon,
            "POST",
            "/jobs",
            r#"{"workload":"TLSTM","device":"a100"}"#,
        );
        assert_eq!(r.status, 202);
        // A second handle on the same directory — the restart code path —
        // sees the job without any in-memory state.
        let reopened = JobStore::open(daemon.store.dir()).unwrap();
        let job = reopened.job(0).expect("job must be durable");
        assert_eq!(job.name, "job-0");
        assert!(job.spec_json.contains("\"workloads\":[\"TLSTM\"]"));
        let _ = std::fs::remove_dir_all(daemon.store.dir().parent().unwrap());
    }

    #[test]
    fn draining_rejects_submissions_but_serves_reads() {
        let daemon = test_daemon("drain");
        let r = handle(&daemon, "POST", "/jobs", r#"{"workload":"TLSTM"}"#);
        assert_eq!(r.status, 202);
        daemon.draining.store(true, Ordering::SeqCst);
        let refused = handle(&daemon, "POST", "/jobs", r#"{"workload":"TLSTM"}"#);
        assert_eq!(refused.status, 503);
        assert_eq!(refused.retry_after, Some(5), "503 must carry Retry-After");
        assert_eq!(
            handle(&daemon, "POST", "/campaigns", "{}").status,
            503,
            "campaign submissions are refused too"
        );
        // Reads keep working for clients polling in-flight jobs.
        assert_eq!(handle(&daemon, "GET", "/healthz", "").status, 200);
        assert_eq!(handle(&daemon, "GET", "/jobs/0", "").status, 200);
        assert_eq!(handle(&daemon, "GET", "/jobs", "").status, 200);
        assert_eq!(handle(&daemon, "GET", "/metrics", "").status, 200);
        // The dashboard keeps serving too, and shows the drain state.
        let dash = handle(&daemon, "GET", "/dashboard", "");
        assert_eq!(dash.status, 200);
        assert!(dash.body.contains("draining"), "dashboard surfaces drain state");
        assert_eq!(handle(&daemon, "GET", "/jobs/0/report", "").status, 200);
        let _ = std::fs::remove_dir_all(daemon.store.dir().parent().unwrap());
    }

    #[test]
    fn dashboard_and_job_report_routes_serve_html() {
        let daemon = test_daemon("dash");
        let dash = handle(&daemon, "GET", "/dashboard", "");
        assert_eq!(dash.status, 200);
        assert_eq!(dash.content_type, "text/html; charset=utf-8");
        assert!(dash.body.starts_with("<!DOCTYPE html>"));
        assert!(dash.body.contains("No jobs submitted yet"));
        // A report on a job that does not exist is a 404, not a blank page.
        assert_eq!(handle(&daemon, "GET", "/jobs/0/report", "").status, 404);
        assert_eq!(handle(&daemon, "POST", "/jobs", r#"{"workload":"TLSTM"}"#).status, 202);
        let rep = handle(&daemon, "GET", "/jobs/0/report", "");
        assert_eq!(rep.status, 200);
        assert_eq!(rep.content_type, "text/html; charset=utf-8");
        assert!(rep.body.contains("id=\"sec-job\""), "{}", rep.body);
        // The fleet table now links to the job's report.
        let dash = handle(&daemon, "GET", "/dashboard", "");
        assert!(dash.body.contains("href=\"/jobs/0/report\""));
        let _ = std::fs::remove_dir_all(daemon.store.dir().parent().unwrap());
    }

    #[test]
    fn content_types_match_bodies() {
        let daemon = test_daemon("ctype");
        let expect = [
            ("/healthz", "text/plain; charset=utf-8"),
            ("/metrics", "text/plain; version=0.0.4"),
            ("/jobs", "application/json"),
            ("/dashboard", "text/html; charset=utf-8"),
        ];
        for (path, ctype) in expect {
            assert_eq!(handle(&daemon, "GET", path, "").content_type, ctype, "{path}");
        }
        // Errors are JSON envelopes.
        assert_eq!(
            handle(&daemon, "GET", "/nope", "").content_type,
            "application/json"
        );
        let _ = std::fs::remove_dir_all(daemon.store.dir().parent().unwrap());
    }

    #[test]
    fn oversized_body_gets_413_without_being_read() {
        let daemon = test_daemon("413");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // Headers only: a server that waited for the body would answer 408
        // after its read deadline instead.
        let len = MAX_BODY + 1;
        write!(client, "POST /jobs HTTP/1.1\r\nContent-Length: {len}\r\n\r\n").unwrap();
        let (mut conn, _) = listener.accept().unwrap();
        let started = Instant::now();
        handle_connection(&daemon, &mut conn);
        drop(conn);
        assert!(started.elapsed() < Duration::from_secs(4), "the body was waited for");
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 413 Payload Too Large\r\n"), "{reply}");
        assert!(daemon.store.jobs().is_empty(), "nothing was submitted");
        let _ = std::fs::remove_dir_all(daemon.store.dir().parent().unwrap());
    }

    #[test]
    fn route_labels_collapse_ids_and_names() {
        assert_eq!(route_label("GET", "/jobs/17"), "GET /jobs/:id");
        assert_eq!(route_label("GET", "/jobs/17/report"), "GET /jobs/:id/report");
        assert_eq!(route_label("GET", "/jobs/17/artifacts"), "GET /jobs/:id/artifacts");
        assert_eq!(
            route_label("GET", "/jobs/17/artifacts/v100/figure7.csv"),
            "GET /jobs/:id/artifacts/:name"
        );
        assert_eq!(route_label("GET", "/dashboard"), "GET /dashboard");
        assert_eq!(route_label("DELETE", "/jobs/17"), "other");
    }

    #[test]
    fn single_job_body_expands_to_one_config_campaign() {
        let v = parse_json(
            r#"{"workload":"TLSTM","device":"a100","gpus":4,"half_precision":true}"#,
        )
        .unwrap();
        let spec = single_job_spec(&v, 7).unwrap();
        assert_eq!(spec.name, "job-7");
        assert_eq!(spec.workloads.len(), 1);
        assert_eq!(spec.configs.len(), 1);
        assert_eq!(spec.configs[0].gpus, 4);
        assert!(spec.configs[0].half_precision);
    }
}
