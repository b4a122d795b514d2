//! One writer per store directory, at the daemon: a second `freephish-extd
//! serve --store DIR` is refused at start-up while the first keeps
//! serving, and a SIGKILLed owner's successor opens `DIR` and serves every
//! `ADD` the owner acknowledged.

#[allow(dead_code)] // this suite needs only the spawn helper
mod common;

use common::Daemon;
use freephish_core::extension::{Verdict, VerdictClient};
use freephish_store::testutil::TempDir;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn serve_args(dir: &str) -> [&str; 7] {
    ["serve", "--port", "0", "--ops-port", "0", "--store", dir]
}

/// Run `freephish-extd <args>`, which must exit at start-up, and collect
/// what it printed. One still running after 10 s is killed and fails the
/// test, so a daemon that wrongly starts cannot hang the suite.
fn run_to_exit(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_freephish-extd"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn freephish-extd");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll freephish-extd").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("freephish-extd {args:?} is still running; it should have exited");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child
        .wait_with_output()
        .expect("collect freephish-extd output")
}

/// Acknowledged `ADD`s of `n` distinct URLs, each with its own score.
fn add_all(daemon: &Daemon, n: usize) -> Vec<(String, f64)> {
    let client = VerdictClient::new(daemon.serve);
    (0..n)
        .map(|i| {
            let url = format!("https://acked{i}.weebly.com/login");
            let score = 0.9 + i as f64 * 1e-6;
            client.add(&url, score).expect("ADD acknowledged");
            (url, score)
        })
        .collect()
}

/// Every acknowledged URL is served PHISHING with its score's bits, over
/// the binary `CHECKN` wire (the line protocol rounds scores).
fn assert_served(daemon: &Daemon, acked: &[(String, f64)]) {
    let urls: Vec<String> = acked.iter().map(|(url, _)| url.clone()).collect();
    let verdicts = VerdictClient::new(daemon.serve)
        .check_batch_strict(&urls)
        .expect("CHECKN answered");
    for ((url, score), verdict) in acked.iter().zip(verdicts) {
        match verdict {
            Verdict::Phishing(s) => assert_eq!(s.to_bits(), score.to_bits(), "{url}"),
            other => panic!("{url} was acknowledged and is now {other:?}"),
        }
    }
}

#[test]
fn a_second_daemon_on_a_directory_is_refused_while_the_first_serves() {
    let store = TempDir::new("extd-second-writer");
    let dir = store.path().to_str().expect("utf-8 temp path");
    let first = Daemon::spawn(&serve_args(dir));
    let acked = add_all(&first, 4);

    let second = run_to_exit(&serve_args(dir));
    // 75 (EX_TEMPFAIL) is the daemon's documented "directory busy" code.
    assert_eq!(second.status.code(), Some(75), "{second:?}");
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(
        stderr.contains(dir),
        "refusal does not name {dir}: {stderr}"
    );
    assert!(
        stderr.starts_with("freephish-extd: ") && !stderr.contains("Custom {"),
        "refusal is not a plain message: {stderr}"
    );
    assert!(
        !String::from_utf8_lossy(&second.stdout).contains("listening on"),
        "the refused daemon served"
    );

    assert_served(&first, &acked);
}

#[test]
fn a_killed_owners_successor_serves_every_acknowledged_add() {
    let store = TempDir::new("extd-successor");
    let dir = store.path().to_str().expect("utf-8 temp path");
    let first = Daemon::spawn(&serve_args(dir));
    let acked = add_all(&first, 16);
    // SIGKILL: no drain and no flush; the kernel releases the lock.
    drop(first);

    let successor = Daemon::spawn(&serve_args(dir));
    assert_served(&successor, &acked);
}

#[test]
fn the_retired_rate_cap_flag_is_a_usage_error() {
    let out = run_to_exit(&["serve", "--rate-cap", "8000"]);
    assert_eq!(out.status.code(), Some(64), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: freephish-extd serve"), "{stderr}");
    assert!(
        !stderr.contains("--rate-cap"),
        "usage still offers the flag"
    );
}
