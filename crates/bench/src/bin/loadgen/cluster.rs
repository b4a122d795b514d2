//! The `--cluster` phase: a live multi-process verdict cluster on this
//! host, behind the `cluster_replication_lag` and `cluster_failover`
//! keys of `BENCH_PIPELINE.json`.
//!
//! An in-process primary WAL (plus its replication source) feeds two
//! spawned `freephish-extd` follower processes, and an in-process
//! consistent-hash router scatters CHECKN load across them. One follower
//! is SIGKILLed mid-load, traffic fails over along the ring, the primary
//! keeps appending, and the node restarts on its own directory. The
//! restart must resume from its recovered `(segment, offset)` cursor (a
//! `mode=resume` session, no `RESET` bootstrap, shipped-records delta far
//! below the full history) and after catch-up every journaled verdict
//! must be served as a hit.

use crate::env_usize;
use freephish_cluster::{ReplicationSource, Router, RouterConfig, SourceConfig};
use freephish_core::extension::VerdictClient;
use freephish_core::journal::{encode_event, AddEvent, RunEvent};
use freephish_serve::http_get;
use freephish_store::testutil::TempDir;
use freephish_store::{Store, StoreOptions};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Small segments so the history spans many completed segments — the
/// resume-without-reshipping proof needs segment boundaries to cross.
const SEGMENT_BYTES: u64 = 16 * 1024;
/// Verdicts seeded into the primary WAL before any follower starts.
const SEED_VERDICTS: usize = 4096;
/// Verdicts appended while the killed follower is down.
const DELTA_VERDICTS: usize = 512;

/// One spawned follower daemon. Killed (SIGKILL) on drop so a panicking
/// phase never leaves orphan processes behind.
struct Node {
    child: Child,
    addr: SocketAddr,
    ops: SocketAddr,
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `freephish-extd serve --replicate-from` on `dir` and parse its
/// serve + ops addresses off stdout.
fn spawn_node(extd: &Path, dir: &Path, source: SocketAddr) -> Node {
    let mut cmd = Command::new(extd);
    cmd.arg("serve")
        .arg("--store")
        .arg(dir)
        .arg("--replicate-from")
        .arg(source.to_string())
        .arg("--ops-port")
        .arg("0")
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().unwrap_or_else(|e| {
        panic!(
            "spawn {}: {e} (run scripts/bench.sh, which builds freephish-extd first)",
            extd.display()
        )
    });
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut addr: Option<SocketAddr> = None;
    let mut ops: Option<SocketAddr> = None;
    let deadline = Instant::now() + Duration::from_secs(30);
    while addr.is_none() || ops.is_none() {
        assert!(Instant::now() < deadline, "follower startup timed out");
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read follower stdout");
        assert!(n > 0, "follower exited during startup");
        if let Some(rest) = line.split("listening on ").nth(1) {
            let tok = rest.split_whitespace().next().unwrap_or_default();
            addr = Some(tok.parse().expect("parse follower serve addr"));
        } else if let Some(rest) = line.split("ops plane on http://").nth(1) {
            let tok = rest.trim();
            ops = Some(tok.parse().expect("parse follower ops addr"));
        }
    }
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = std::io::sink();
        let _ = std::io::copy(&mut reader, &mut sink);
    });
    Node {
        child,
        addr: addr.expect("serve addr"),
        ops: ops.expect("ops addr"),
    }
}

/// Block until the node's `/readyz` goes 200 — for a follower that means
/// index published, replication caught up, and the journal ingested.
fn wait_ready(ops: SocketAddr, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok((200, _)) = http_get(ops, "/readyz") {
            return;
        }
        assert!(Instant::now() < deadline, "{what} never became ready");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The primary's seeded verdict set plus a mixed query pool (half known
/// phishing, half never-seen), mirroring the single-node phases.
fn cluster_pool() -> (Vec<String>, Arc<Vec<String>>) {
    let known: Vec<String> = (0..SEED_VERDICTS)
        .map(|i| format!("https://cphish{i}.weebly.com/login"))
        .collect();
    let pool: Vec<String> = known
        .iter()
        .cloned()
        .chain((0..SEED_VERDICTS).map(|i| format!("https://cclean{i}.wixsite.com/home")))
        .collect();
    (known, Arc::new(pool))
}

fn append_verdicts(store: &mut Store, urls: &[String]) {
    for url in urls {
        let ev = RunEvent::Add(AddEvent {
            url: url.clone(),
            score: 0.93,
        });
        store.append(&encode_event(&ev)).expect("primary append");
    }
    store.sync().expect("primary sync");
}

/// Closed-loop router load from `conns` worker threads until `stop_at`.
/// Returns (ok, err) URL counts.
fn drive_router(
    router: &Router,
    pool: &Arc<Vec<String>>,
    conns: usize,
    batch: usize,
    stop_at: Instant,
) -> (u64, u64) {
    let ok = Arc::new(AtomicU64::new(0));
    let err = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for tid in 0..conns {
            let mut client = router.client();
            let pool = pool.clone();
            let (ok, err) = (ok.clone(), err.clone());
            scope.spawn(move || {
                let mut i = tid.wrapping_mul(7919);
                while Instant::now() < stop_at {
                    let frame: Vec<String> = (0..batch)
                        .map(|k| pool[(i + k) % pool.len()].clone())
                        .collect();
                    i += batch;
                    for r in client.check_batch(&frame) {
                        match r {
                            Ok(_) => ok.fetch_add(1, Ordering::Relaxed),
                            Err(_) => err.fetch_add(1, Ordering::Relaxed),
                        };
                    }
                }
            });
        }
    });
    (ok.load(Ordering::SeqCst), err.load(Ordering::SeqCst))
}

fn spawn_fleet(extd: &Path, source: SocketAddr, n: usize) -> (Vec<TempDir>, Vec<Node>) {
    let dirs: Vec<TempDir> = (0..n)
        .map(|i| TempDir::new(&format!("loadgen-cluster-follower-{i}")))
        .collect();
    let nodes: Vec<Node> = dirs
        .iter()
        .map(|d| spawn_node(extd, d.path(), source))
        .collect();
    for node in &nodes {
        wait_ready(node.ops, "follower");
    }
    (dirs, nodes)
}

fn router_over(nodes: &[Node]) -> Router {
    Router::new(
        nodes.iter().map(|n| n.addr).collect(),
        RouterConfig {
            ops_addrs: nodes.iter().map(|n| Some(n.ops)).collect(),
            health_period: Duration::from_millis(100),
            ..RouterConfig::default()
        },
    )
}

/// Counter shorthand against a metrics snapshot.
fn ctr(snap: &freephish_obs::MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    snap.counter(name, labels)
}

pub fn cluster_phase(secs: f64, batch: usize) -> serde_json::Value {
    let conns = env_usize("FREEPHISH_CLUSTER_CONNS", 8);
    let extd = std::env::current_exe()
        .expect("current exe")
        .parent()
        .expect("exe dir")
        .join("freephish-extd");
    assert!(
        extd.exists(),
        "{} not built; scripts/bench.sh builds it before the cluster phase",
        extd.display()
    );

    // The primary: a WAL seeded with the known verdicts, served to
    // followers by an in-process replication source. Small segments so
    // the history spans many completed segments.
    let primary_dir = TempDir::new("loadgen-cluster-primary");
    let (mut store, _) = Store::open_with(
        primary_dir.path(),
        StoreOptions {
            segment_max_bytes: SEGMENT_BYTES,
        },
        None,
    )
    .expect("open primary store");
    let (known, pool) = cluster_pool();
    append_verdicts(&mut store, &known);
    let mut source = ReplicationSource::start_with(primary_dir.path(), SourceConfig::default())
        .expect("start replication source");
    let src_addr = source.addr();
    println!(
        "  cluster: primary seeded with {} verdicts, {conns} router conns, batch {batch}",
        known.len()
    );

    // --- Failover: kill a follower mid-load, prove zero lost verdicts ------
    let (dirs, mut nodes) = spawn_fleet(&extd, src_addr, 2);
    let mut router = router_over(&nodes);
    let load_secs = secs.max(1.0);
    let t0 = Instant::now();
    let kill_after = Duration::from_secs_f64(load_secs * 0.3);
    let (ok, err) = std::thread::scope(|scope| {
        let killer = scope.spawn(|| {
            std::thread::sleep(kill_after);
            // SIGKILL: no drain, no flush — the torn-tail recovery path.
            let _ = nodes[0].child.kill();
            let _ = nodes[0].child.wait();
        });
        let counts = drive_router(
            &router,
            &pool,
            conns,
            batch,
            t0 + Duration::from_secs_f64(load_secs),
        );
        killer.join().expect("killer thread");
        counts
    });
    let routed = ok + err;
    println!(
        "  cluster failover: {ok}/{routed} urls answered across the kill \
         ({err} transient failures)"
    );
    assert!(ok > 0, "failover phase routed nothing");

    // While node 0 is down, the primary moves on.
    let delta: Vec<String> = (0..DELTA_VERDICTS)
        .map(|i| format!("https://cdelta{i}.weebly.com/login"))
        .collect();
    append_verdicts(&mut store, &delta);
    // Let the surviving follower absorb the delta so the shipped-records
    // baseline below isolates the restarted node's traffic.
    wait_ready(nodes[1].ops, "surviving follower");
    let pre = source.metrics_snapshot();
    let shipped_before = ctr(&pre, "cluster_source_records_shipped_total", &[]);
    let resume_before = ctr(&pre, "cluster_source_sessions_total", &[("mode", "resume")]);
    let bootstrap_before = ctr(
        &pre,
        "cluster_source_sessions_total",
        &[("mode", "bootstrap")],
    );

    // Restart the killed node on its own directory and wait for catch-up.
    let restarted = spawn_node(&extd, dirs[0].path(), src_addr);
    wait_ready(restarted.ops, "restarted follower");
    let post = source.metrics_snapshot();
    let reshipped = ctr(&post, "cluster_source_records_shipped_total", &[]) - shipped_before;
    let resumed = ctr(
        &post,
        "cluster_source_sessions_total",
        &[("mode", "resume")],
    ) - resume_before;
    let bootstrapped = ctr(
        &post,
        "cluster_source_sessions_total",
        &[("mode", "bootstrap")],
    ) - bootstrap_before;
    let total_history = (known.len() + delta.len()) as u64;
    assert_eq!(
        bootstrapped, 0,
        "restart must resume from its cursor, not bootstrap from the first segment"
    );
    assert!(resumed >= 1, "restart must open a mode=resume session");
    // The resumed session ships the delta plus at most the torn tail of
    // the segment that was live at kill time — never completed segments.
    let reship_bound = DELTA_VERDICTS as u64 + 2 * (SEGMENT_BYTES / 32);
    assert!(
        reshipped <= reship_bound,
        "resume re-shipped {reshipped} records (bound {reship_bound}, \
         history {total_history}) — completed segments were re-shipped"
    );
    println!(
        "  cluster restart: mode=resume, {reshipped} records shipped to catch up \
         (history {total_history})"
    );

    // Zero lost verdicts: every verdict the primary ever journaled — the
    // seed set and the while-down delta — must be a hit on the restarted
    // replica itself. Readiness conditions are live samples, so the
    // index publisher can be one poll behind the replication cursor;
    // retry until the whole history is served or the deadline passes.
    let mut all: Vec<String> = known.clone();
    all.extend(delta.iter().cloned());
    let verify_deadline = Instant::now() + Duration::from_secs(30);
    let lost = loop {
        let client = VerdictClient::new(restarted.addr);
        let mut lost = 0usize;
        let mut sample = String::new();
        for chunk in all.chunks(512) {
            let verdicts = client
                .check_batch(chunk)
                .expect("verify batch against restarted follower");
            for (url, v) in chunk.iter().zip(verdicts) {
                match v {
                    Ok(v) if v.is_phishing() => {}
                    other => {
                        lost += 1;
                        if sample.is_empty() {
                            sample = format!("{url}: {other:?}");
                        }
                    }
                }
            }
        }
        if lost == 0 || Instant::now() >= verify_deadline {
            if lost > 0 {
                println!("    LOST e.g. {sample}");
            }
            break lost;
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    assert_eq!(
        lost, 0,
        "{lost} journaled verdicts not served by the restarted follower"
    );
    println!(
        "  cluster verify: {} journaled verdicts re-served after catch-up, 0 lost",
        all.len()
    );

    // Replication-lag record, straight off the restarted node's scrape.
    let (code, varz_body) = http_get(restarted.ops, "/varz").expect("scrape restarted node");
    assert_eq!(code, 200);
    let varz: serde_json::Value = serde_json::from_str(&varz_body).expect("/varz JSON");
    let cluster_replication_lag = serde_json::json!({
        "lag_segments": varz["gauges"]["cluster_replication_lag_segments"],
        "lag_bytes": varz["gauges"]["cluster_replication_lag_bytes"],
        "records_applied": varz["counters"]["cluster_replication_records_applied_total"],
        "crc_failures": varz["counters"]["cluster_replication_crc_failures_total"],
        "catchup_seconds": varz["histograms"]["cluster_follower_catchup_seconds"],
    });
    let cluster_failover = serde_json::json!({
        "urls_routed_across_kill": routed,
        "urls_answered_across_kill": ok,
        "transient_failures_across_kill": err,
        "delta_verdicts_while_down": DELTA_VERDICTS,
        "restart_session_mode": "resume",
        "restart_records_reshipped": reshipped,
        "journaled_verdicts_verified": all.len(),
        "lost_verdicts": 0,
    });

    router.shutdown();
    drop(restarted);
    drop(nodes);
    drop(dirs);
    source.shutdown();
    drop(store);

    serde_json::json!({
        "cluster_replication_lag": cluster_replication_lag,
        "cluster_failover": cluster_failover,
    })
}
