//! `gnnmark serve` under SIGTERM with no client connected: the drain is
//! announced at once, not at the next connection, and the daemon exits
//! 130 with its final metrics snapshot written.

#![cfg(unix)]

use std::net::TcpListener;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Waits until the file at `log` contains `needle`; panics after `within`.
fn wait_for_line(log: &Path, needle: &str, within: Duration) {
    let started = Instant::now();
    loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        if text.contains(needle) {
            return;
        }
        assert!(
            started.elapsed() < within,
            "no `{needle}` after {within:?}:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn sigterm_drains_an_idle_daemon_without_a_connection() {
    let dir = std::env::temp_dir().join(format!("gnnmark_drain_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A free port: bind port 0 and release it.
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .unwrap()
        .to_string();
    let log = dir.join("serve.log");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_gnnmark"))
        .args(["serve", "--addr", &addr])
        .arg("--store")
        .arg(dir.join("store"))
        .arg("--cache")
        .arg(dir.join("cache"))
        .arg("--out")
        .arg(dir.join("out"))
        .stdout(Stdio::null())
        .stderr(std::fs::File::create(&log).unwrap())
        .spawn()
        .expect("gnnmark serve starts");
    wait_for_line(&log, "listening on", Duration::from_secs(30));

    let killed = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(killed.success());
    wait_for_line(&log, "shutdown requested, draining", Duration::from_secs(5));

    let started = Instant::now();
    let status = loop {
        if let Some(status) = daemon.try_wait().unwrap() {
            break status;
        }
        if started.elapsed() > Duration::from_secs(10) {
            let _ = daemon.kill();
            panic!("daemon still running 10 s after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(status.code(), Some(130), "a drained daemon exits 130");
    assert!(dir.join("out/final_metrics.prom").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}
