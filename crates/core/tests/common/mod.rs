//! Helpers for the tests that spawn the `freephish-extd` binary.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A spawned daemon and the two addresses it printed, killed and reaped
/// on every exit path.
pub struct Daemon {
    child: Child,
    /// Where it serves the verdict wire.
    pub serve: SocketAddr,
    /// Where it serves the ops plane.
    pub ops: SocketAddr,
}

impl Daemon {
    /// Run `freephish-extd <args>` (which must include `--ops-port`) and
    /// wait for its `listening on` and `ops plane on` lines.
    pub fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_freephish-extd"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn freephish-extd");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let (mut serve, mut ops) = (None, None);
        while serve.is_none() || ops.is_none() {
            let Some(line) = lines.next() else {
                let _ = child.kill();
                panic!("daemon exited during start-up");
            };
            let line = line.expect("read daemon stdout");
            serve = serve.or_else(|| addr_after(&line, "listening on "));
            ops = ops.or_else(|| addr_after(&line, "ops plane on http://"));
        }
        // Keep draining stdout so the daemon never blocks on a full pipe.
        std::thread::spawn(move || lines.for_each(drop));
        Daemon {
            child,
            serve: serve.unwrap(),
            ops: ops.unwrap(),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Retry `probe` every 20 ms until it yields a value, for up to a minute.
pub fn poll_until<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The first whitespace-separated token after `prefix` in `line`.
fn addr_after(line: &str, prefix: &str) -> Option<SocketAddr> {
    let rest = line.split(prefix).nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

/// An unlabelled counter's value in a Prometheus text scrape.
pub fn counter(metrics: &str, name: &str) -> Option<u64> {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}
