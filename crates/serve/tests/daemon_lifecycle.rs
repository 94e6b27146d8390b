//! Job and drain timing of the daemon over a real loopback socket: a job
//! is `done` as soon as its campaign returns, whatever the lease TTL; a job
//! that outlives its TTL keeps its lease by heartbeating; and a drain
//! finishes the in-flight job before `serve` returns.
//!
//! Every test runs a whole daemon in this process and stops it through the
//! process-wide shutdown flag, so the tests take turns on one lock.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gnnmark::infer::ExecPhase;
use gnnmark::shutdown;
use gnnmark_serve::{serve, CacheKey, JobState, JobStore, ServeConfig, StreamCache};
use gnnmark_telemetry::metrics;
use gnnmark_tensor::half::Precision;
use gnnmark_workloads::{Scale, TrainMode, WorkloadKind};

static DAEMON: Mutex<()> = Mutex::new(());

/// A daemon serving on its own thread.
struct Daemon {
    cfg: ServeConfig,
    returned: mpsc::Receiver<std::io::Result<()>>,
    _turn: MutexGuard<'static, ()>,
}

impl Daemon {
    /// Starts a daemon with a fresh store and cache and waits until it
    /// answers `/healthz`.
    fn start(tag: &str, lease_ttl: Duration) -> Daemon {
        let turn = DAEMON.lock().unwrap_or_else(|e| e.into_inner());
        shutdown::reset_for_tests();
        let dir =
            std::env::temp_dir().join(format!("gnnmark_lifecycle_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A free port: bind port 0 and release it.
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap()
            .to_string();
        let cfg = ServeConfig {
            addr,
            cache_dir: dir.join("cache"),
            results_dir: dir.join("results"),
            store_dir: dir.join("store"),
            worker_id: format!("lifecycle-{tag}"),
            lease_ttl,
            ..ServeConfig::default()
        };
        let (tx, returned) = mpsc::channel();
        {
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let _ = tx.send(serve(&cfg));
            });
        }
        let daemon = Daemon {
            cfg,
            returned,
            _turn: turn,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while request(&daemon.cfg.addr, "GET", "/healthz", "").0 != 200 {
            assert!(Instant::now() < deadline, "daemon never answered /healthz");
            std::thread::sleep(Duration::from_millis(10));
        }
        daemon
    }

    fn dir(&self) -> PathBuf {
        self.cfg.store_dir.parent().unwrap().to_path_buf()
    }

    /// Polls `/jobs/<id>` until its state is `done`; panics on `failed`
    /// or after `within`.
    fn wait_done(&self, id: u64, within: Duration) -> Duration {
        let started = Instant::now();
        loop {
            let (status, _, body) = request(&self.cfg.addr, "GET", &format!("/jobs/{id}"), "");
            assert_eq!(status, 200, "{body}");
            if body.contains("\"state\":\"done\"") {
                return started.elapsed();
            }
            assert!(!body.contains("\"state\":\"failed\""), "job failed: {body}");
            assert!(
                started.elapsed() < within,
                "job not done after {within:?}: {body}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Requests shutdown (if the test has not yet), waits for `serve` to
    /// return and checks the drain wrote its final metrics snapshot.
    /// Returns how long `serve` took to return.
    fn stop(&self, within: Duration) -> Duration {
        let started = Instant::now();
        shutdown::request();
        let returned = self.returned.recv_timeout(within);
        let took = started.elapsed();
        shutdown::reset_for_tests();
        returned
            .unwrap_or_else(|_| panic!("serve did not return within {within:?}"))
            .expect("serve failed");
        assert!(
            self.cfg.results_dir.join("final_metrics.prom").is_file(),
            "drain must flush a final metrics snapshot"
        );
        took
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.dir());
    }
}

/// One HTTP/1.1 request: status, head and body.
fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return (0, String::new(), String::new());
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let (head, body) = reply.split_once("\r\n\r\n").unwrap_or((&reply, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, head.to_string(), body.to_string())
}

fn counter(name: &str) -> u64 {
    metrics::get(name).map_or(0, |m| m.as_counter())
}

/// A 60 s lease TTL heartbeats every 20 s. A job that replays in
/// milliseconds must be `done` long before the first tick.
#[test]
fn job_is_done_when_its_campaign_returns_not_at_a_heartbeat_tick() {
    let daemon = Daemon::start("tick", Duration::from_secs(60));
    let (status, _, body) = request(&daemon.cfg.addr, "POST", "/jobs", r#"{"workload":"TLSTM"}"#);
    assert_eq!(status, 202, "{body}");
    daemon.wait_done(0, Duration::from_secs(10));
    daemon.stop(Duration::from_secs(10));
}

/// A job that runs several TTLs long keeps its lease by heartbeating: it
/// is never re-queued and completes exactly once.
#[test]
fn job_longer_than_its_lease_ttl_keeps_the_lease() {
    let ttl = Duration::from_millis(150);
    let daemon = Daemon::start("long", ttl);
    let heartbeats = counter("gnnmark_lease_heartbeats_total");
    // A cold small-scale STGCN trains, then replays: about a second.
    let (status, _, body) = request(
        &daemon.cfg.addr,
        "POST",
        "/jobs",
        r#"{"workload":"STGCN","scale":"small"}"#,
    );
    assert_eq!(status, 202, "{body}");
    let took = daemon.wait_done(0, Duration::from_secs(120));
    assert!(
        took > 2 * ttl,
        "the job ({took:?}) must outlive the {ttl:?} TTL"
    );
    assert!(
        counter("gnnmark_lease_heartbeats_total") > heartbeats,
        "the job ran {took:?} without a heartbeat"
    );
    let job = JobStore::open(&daemon.cfg.store_dir)
        .unwrap()
        .job(0)
        .unwrap();
    assert_eq!(job.state, JobState::Done, "{job:?}");
    assert_eq!(job.requeues, 0, "{job:?}");
    assert_eq!(job.worker.as_deref(), Some("lifecycle-long"));
    // Read the log before the drain compacts it into the snapshot.
    let records = JobStore::dump_raw_records(&daemon.cfg.store_dir).unwrap();
    let done = records
        .iter()
        .filter(|r| r.contains("\"type\":\"done\"") && r.contains("\"id\":0,"))
        .count();
    assert_eq!(done, 1, "exactly one done record:\n{records:#?}");
    daemon.stop(Duration::from_secs(10));
}

/// Shutdown while a job replays: submissions get 503 with `Retry-After`,
/// reads keep flowing, the in-flight job still completes, and `serve`
/// then returns with the final metrics snapshot written.
#[test]
fn drain_finishes_the_in_flight_job_then_returns() {
    let daemon = Daemon::start("drain", ServeConfig::default().lease_ttl);
    // Warm the cache so the job's only long phase is its replay (about
    // 0.4 s): the campaign skips phases that start after shutdown.
    let key = CacheKey {
        workload: WorkloadKind::Stgcn,
        scale: Scale::Small,
        seed: 42,
        epochs: 1,
        precision: Precision::Fp32,
        mode: TrainMode::FullGraph,
        phase: ExecPhase::Train,
    };
    StreamCache::new(&daemon.cfg.cache_dir)
        .get_or_train(&key)
        .unwrap();
    let addr = daemon.cfg.addr.clone();
    let (status, _, body) = request(
        &addr,
        "POST",
        "/jobs",
        r#"{"workload":"STGCN","scale":"small"}"#,
    );
    assert_eq!(status, 202, "{body}");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, _, body) = request(&addr, "GET", "/jobs/0", "");
        if body.contains("\"progress\":\"replay") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "job never reached its replay: {body}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // The campaign checks the shutdown flag just before its one replay
    // starts; the daemon offers no hook to wait on, so give the replay a
    // tenth of a second to get under way, then drain.
    std::thread::sleep(Duration::from_millis(100));
    shutdown::request();
    let (_, _, body) = request(&addr, "GET", "/jobs/0", "");
    assert!(
        body.contains("\"state\":\"running\""),
        "not in flight: {body}"
    );

    let (status, head, _) = request(&addr, "POST", "/jobs", r#"{"workload":"TLSTM"}"#);
    assert_eq!(status, 503, "{head}");
    assert!(head.contains("Retry-After: "), "{head}");
    assert_eq!(request(&addr, "GET", "/healthz", "").0, 200);

    // `serve` returns as soon as the job is recorded, so a status poll
    // would race the listener's close: read the outcome from the store.
    daemon.stop(Duration::from_secs(30));
    let job = JobStore::open(&daemon.cfg.store_dir)
        .unwrap()
        .job(0)
        .unwrap();
    assert_eq!(job.state, JobState::Done, "{job:?}");
    assert!(job.artifacts.iter().any(|a| a == "merged.json"), "{job:?}");
}

/// With no job and no client, `serve` returns promptly once shutdown is
/// requested: the blocking accept is woken, not left waiting for a client.
#[test]
fn idle_daemon_returns_promptly_after_shutdown() {
    let daemon = Daemon::start("idle", ServeConfig::default().lease_ttl);
    let took = daemon.stop(Duration::from_secs(10));
    assert!(
        took < Duration::from_secs(2),
        "serve took {took:?} to return"
    );
}
