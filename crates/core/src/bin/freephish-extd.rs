//! `freephish-extd` — the FreePhish verdict daemon and its client.
//!
//! The deployable form of the paper's browser extension backend: a TCP
//! service answering `CHECK <url>` queries (and accepting `ADD <url>
//! <score>` updates), plus a client subcommand for scripting and for
//! wiring into a browser proxy.
//!
//! ```text
//! freephish-extd serve [--port N] [--blocklist FILE] [--store DIR]
//!                      [--index-file FILE] [--rebake-secs N] [--ops-port N]
//!                      [--classify-on-miss] [--rate-cap N]
//!                      [--replication-port N] [--replicate-from ADDR]
//!     Serve verdicts on 127.0.0.1:N (default: an ephemeral port).
//!     FILE holds one `<url> [score]` per line ('#' comments allowed);
//!     malformed lines are skipped with a warning. With --store DIR the
//!     daemon serves that journal directory instead, as one store-backed
//!     node: verdicts hot-reload as records land in DIR, and an ADD is
//!     durably journaled (append + fsync) before its OK. Where it is
//!     journaled depends only on who writes DIR's main WAL, which the
//!     cluster flags below say: by default another process (the
//!     pipeline) does, and ADDs go to the daemon's own store at
//!     DIR/extd-adds. Serving is the freephish-serve poll-loop engine:
//!     line and binary CHECKN protocols on one port, backpressure and
//!     BUSY load shedding. With --classify-on-miss the daemon mounts the
//!     tiered resolver in front of the lookup: a URL-lexical pre-filter
//!     serves confident-safe misses inline, the residue is classified
//!     off the serve path as microbatches, and inline phishing verdicts
//!     are journaled through the store (with --store, durably — a
//!     restart recovers them with zero re-classification). Models train
//!     on a background thread at startup. With --ops-port N the daemon also mounts the ops plane on
//!     127.0.0.1:N: GET /metrics (Prometheus text, including the
//!     resolver_* tier series), /varz (JSON), /healthz, /readyz, /events
//!     and /traces/slow. /readyz reports 503 until the serving index has
//!     published its first generation, the journal tail is caught up
//!     (with --store), and the classifier is warm (with
//!     --classify-on-miss). Ctrl-C / SIGTERM drains connections, flushes
//!     the store, and exits 0.
//!
//!     Scale flags (both need --store): --index-file FILE mmaps a baked
//!     verdict index (DESIGN.md §15) as the serving baseline — a node
//!     carrying millions of entries restarts in milliseconds, replaying
//!     only the journal suffix past the bake's cursor; live entries
//!     shadow baked ones bit-identically. --rebake-secs N re-bakes the
//!     journal into FILE (default: DIR/verdicts.mapidx) every N seconds
//!     on the serve loop — temp file + atomic rename, then an in-process
//!     baseline swap.
//!
//!     Cluster flags: --rate-cap N sheds check traffic past N URLs/sec
//!     with BUSY (a per-replica QoS quota). N must be positive — the
//!     cap is off when the flag is absent.
//!     --replication-port N makes this daemon the cluster primary
//!     (DESIGN.md §14): it is the single writer of --store DIR — wire
//!     ADDs (and inline classify-on-miss verdicts) are journaled
//!     straight into the main WAL, durable before OK — and ships that
//!     WAL to follower replicas on 127.0.0.1:N, so followers receive
//!     every verdict the primary admits. Do not point it at a directory
//!     another process is writing. --replicate-from ADDR turns this
//!     daemon into a read-only follower: a replication session mirrors
//!     the primary's WAL into --store DIR and is its only writer, so
//!     the node serves DIR as it grows, refuses ADDs, and reports ready
//!     only once caught up to the primary's tip.
//!
//! freephish-extd route [--port N] --backends ADDR,ADDR,...
//!                      [--backend-ops ADDR|-,...] [--ops-port N]
//!     Consistent-hash router front-end over `serve` backends: speaks
//!     the same line + BINARY verdict wire, scatters CHECKN batches by
//!     ring owner, gathers in order, fails over along the ring when a
//!     backend is down or shedding. --backend-ops lists each backend's
//!     ops address ("-" for none) for /readyz health probes; without
//!     one a bare TCP connect is probed. Read-only: ADDs are refused.
//!
//! freephish-extd check <addr> <url> [url...]
//!     Query a running daemon; exit code 2 if any URL is phishing,
//!     3 if any URL's shard failed (other URLs still print verdicts).
//! ```

use freephish_cluster::{
    Replica, ReplicaConfig, ReplicationSource, Router, RouterConfig, RouterServer, SourceConfig,
};
use freephish_core::extension::{UrlChecker, VerdictClient};
use freephish_core::resolver::{SyntheticFetcher, TieredResolver, TieredResolverConfig};
use freephish_core::verdictstore::{EventedStoreChecker, WriteRole};
use freephish_serve::{EventedServer, IndexPublisher, OpsServer, ServeConfig, ShardedIndex};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Signal-driven shutdown flag, set from `SIGINT` / `SIGTERM`.
///
/// The handler only does an atomic store — the one thing that is safe in
/// async-signal context — and the serve loop polls the flag. The `signal`
/// libc call is declared locally to keep the workspace dependency-free.
mod shutdown {
    use super::AtomicBool;
    use std::sync::atomic::Ordering;

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Install handlers for Ctrl-C and SIGTERM.
    pub fn install() {
        // SAFETY: `on_signal` has the C ABI and the `void (*)(int)` shape
        // `signal` expects, and lives for the whole program. It only stores
        // to a static atomic, which is async-signal-safe: it takes no lock,
        // allocates nothing and does no I/O, so it may interrupt any code.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    /// True once a shutdown signal has arrived.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// Parse a blocklist file: one `<url> [score]` per line, `#` comments.
/// Malformed lines (unparsable URL, unparsable or out-of-range score, or
/// trailing junk) are skipped with a warning rather than silently turned
/// into bogus entries.
fn load_blocklist(path: &str) -> std::io::Result<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(path)?;
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let url = parts.next().expect("non-empty line has a first token");
        if let Err(e) = freephish_urlparse::Url::parse(url) {
            freephish_obs::warn(
                "extd",
                format!(
                    "{path}:{}: skipping malformed URL {url:?}: {e:?}",
                    lineno + 1
                ),
            );
            continue;
        }
        let score = match parts.next() {
            None => 0.99,
            Some(raw) => match raw.parse::<f64>() {
                Ok(s) if (0.0..=1.0).contains(&s) => s,
                _ => {
                    freephish_obs::warn(
                        "extd",
                        format!(
                            "{path}:{}: skipping line with bad score {raw:?} (want 0..=1)",
                            lineno + 1
                        ),
                    );
                    continue;
                }
            },
        };
        if parts.next().is_some() {
            freephish_obs::warn(
                "extd",
                format!("{path}:{}: skipping line with trailing fields", lineno + 1),
            );
            continue;
        }
        entries.push((url.to_string(), score));
    }
    Ok(entries)
}

fn usage() -> ! {
    eprintln!(
        "usage: freephish-extd serve [--port N] [--blocklist FILE] [--store DIR] \
         [--index-file FILE] [--rebake-secs N] \
         [--ops-port N] [--classify-on-miss] [--rate-cap N] \
         [--replication-port N] [--replicate-from ADDR]"
    );
    eprintln!(
        "       freephish-extd route [--port N] --backends ADDR,ADDR,... \
         [--backend-ops ADDR|-,...] [--ops-port N]"
    );
    eprintln!("       freephish-extd check <addr> <url> [url...]");
    std::process::exit(64);
}

/// How often the serve loop wakes to poll the store and the shutdown flag.
const SERVE_POLL: Duration = Duration::from_millis(150);
/// How long shutdown waits for in-flight connections to finish.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// How long shutdown lets the classify queue finish its residue before
/// stopping the resolver (journaled verdicts are durable regardless).
const RESOLVER_DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

fn serve(args: &[String]) -> std::io::Result<()> {
    let mut entries = Vec::new();
    let mut port: u16 = 0;
    let mut ops_port: Option<u16> = None;
    let mut store_dir: Option<String> = None;
    let mut classify_on_miss = false;
    let mut rate_cap: u64 = 0;
    let mut index_file: Option<String> = None;
    let mut rebake_secs: u64 = 0;
    let mut replication_port: Option<u16> = None;
    let mut replicate_from: Option<SocketAddr> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rate-cap" => {
                i += 1;
                let raw = args.get(i).map(String::as_str).unwrap_or_else(|| usage());
                // A cap of zero (or below) would shed every request; the
                // way to disable the cap is to omit the flag.
                match raw.parse::<i64>() {
                    Ok(n) if n > 0 => rate_cap = n as u64,
                    _ => {
                        eprintln!(
                            "--rate-cap must be a positive integer (URLs/sec), got {raw:?}; \
                             omit the flag to disable the cap"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--index-file" => {
                i += 1;
                index_file = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--rebake-secs" => {
                i += 1;
                let raw = args.get(i).map(String::as_str).unwrap_or_else(|| usage());
                rebake_secs = raw.parse().unwrap_or_else(|_| usage());
                if rebake_secs == 0 {
                    eprintln!("--rebake-secs must be positive");
                    usage();
                }
            }
            "--replication-port" => {
                i += 1;
                let raw = args.get(i).map(String::as_str).unwrap_or_else(|| usage());
                replication_port = Some(raw.parse().unwrap_or_else(|_| usage()));
            }
            "--replicate-from" => {
                i += 1;
                let raw = args.get(i).map(String::as_str).unwrap_or_else(|| usage());
                replicate_from = Some(raw.parse().unwrap_or_else(|_| usage()));
            }
            "--ops-port" => {
                i += 1;
                let raw = args.get(i).map(String::as_str).unwrap_or_else(|| usage());
                ops_port = Some(raw.parse().unwrap_or_else(|_| usage()));
            }
            "--blocklist" => {
                i += 1;
                let path = args.get(i).map(String::as_str).unwrap_or_else(|| usage());
                entries = load_blocklist(path)?;
            }
            "--port" => {
                i += 1;
                let raw = args.get(i).map(String::as_str).unwrap_or_else(|| usage());
                port = raw.parse().unwrap_or_else(|_| usage());
            }
            "--store" => {
                i += 1;
                let dir = args.get(i).cloned().unwrap_or_else(|| usage());
                store_dir = Some(dir);
            }
            "--classify-on-miss" => classify_on_miss = true,
            _ => usage(),
        }
        i += 1;
    }

    if (index_file.is_some() || rebake_secs > 0) && store_dir.is_none() {
        eprintln!("--index-file and --rebake-secs need --store DIR (the journal to bake)");
        usage();
    }
    if (index_file.is_some() || rebake_secs > 0)
        && (replication_port.is_some() || replicate_from.is_some())
    {
        eprintln!("--index-file/--rebake-secs are incompatible with the replication modes");
        usage();
    }
    // Where re-bakes land: the explicit --index-file, or a default next
    // to the journal.
    let bake_path: Option<std::path::PathBuf> = match (&index_file, &store_dir) {
        (Some(f), _) => Some(f.into()),
        (None, Some(dir)) if rebake_secs > 0 => {
            Some(std::path::Path::new(dir).join("verdicts.mapidx"))
        }
        _ => None,
    };
    if replicate_from.is_some() {
        // The store dir belongs to the replication session, not to a
        // local journal writer, so none of the write-side options make
        // sense.
        if classify_on_miss || !entries.is_empty() || replication_port.is_some() {
            eprintln!(
                "--replicate-from is incompatible with --classify-on-miss, --blocklist \
                 and --replication-port"
            );
            usage();
        }
        if store_dir.is_none() {
            eprintln!("--replicate-from needs --store DIR for the replica directory");
            usage();
        }
    }
    if replication_port.is_some() && store_dir.is_none() {
        eprintln!("--replication-port needs --store DIR (the WAL to own and ship)");
        usage();
    }

    // With --store the lookup is the store-backed node, which hot-reloads
    // from DIR's journal; the cluster flags only say who writes that
    // journal, i.e. where the node's ADDs go. Without a store the static
    // index serves the blocklist as loaded.
    let role = if replicate_from.is_some() {
        WriteRole::ReadOnly
    } else if replication_port.is_some() {
        WriteRole::Owner
    } else {
        WriteRole::Sidecar
    };
    let static_len = entries.len();
    let mut store: Option<(Arc<EventedStoreChecker>, IndexPublisher)> = match &store_dir {
        Some(dir) => {
            // The baseline is optional at startup: before the first bake
            // exists the daemon simply replays the journal, and the first
            // --rebake-secs cycle creates the file.
            let base = match bake_path.as_deref() {
                Some(p) if p.exists() => Some(p),
                Some(p) if index_file.is_some() => {
                    freephish_obs::warn(
                        "extd",
                        format!("index file {} not found; serving from journal replay until the first bake", p.display()),
                    );
                    None
                }
                _ => None,
            };
            let node = Arc::new(EventedStoreChecker::open_as(dir, role, base)?);
            // One catch-up read so the node starts current — with a
            // baseline mounted it covers only the suffix past the bake's
            // cursor — then the blocklist, journaled like any other ADD.
            // A follower's directory is recovered by the replication
            // session first, so its reads start in the serve loop.
            let mut tail = node.publisher();
            if role != WriteRole::ReadOnly {
                tail.poll()?;
            }
            for (url, score) in std::mem::take(&mut entries) {
                node.add_durable(&url, score)?;
            }
            Some((node, tail))
        }
        None => None,
    };
    let lookup: Arc<dyn UrlChecker> = match &store {
        Some((node, _)) => node.clone(),
        None => {
            let index = ShardedIndex::with_default_shards();
            index.publish(entries);
            Arc::new(index)
        }
    };
    let dir = store_dir.as_deref().unwrap_or_default();

    // --replicate-from mirrors the primary's WAL into DIR; the node's
    // tail picks the replicated records up like any other append.
    let replica = replicate_from
        .map(|primary| Replica::start(primary, dir, ReplicaConfig::default()).map(Arc::new))
        .transpose()?;

    // --classify-on-miss mounts the tiered resolver in front of the
    // lookup. Models train on a background thread (readiness gates on it
    // below); snapshots come from the deterministic synthetic fetcher
    // until a real crawler is wired in. Inline phishing verdicts journal
    // through the lookup's `add` path — durable when it is store-backed.
    let resolver: Option<Arc<TieredResolver>> = classify_on_miss.then(|| {
        TieredResolver::bootstrap(
            lookup.clone(),
            Arc::new(SyntheticFetcher::new(0x0F_E7C4)),
            TieredResolverConfig::default(),
        )
    });
    let checker: Arc<dyn UrlChecker> = match &resolver {
        Some(r) => r.clone(),
        None => lookup.clone(),
    };

    // --replication-port serves DIR's WAL to follower replicas. The
    // owner-role node above is the directory's only writer, so the
    // journal keeps its single writer.
    let mut replication = match replication_port {
        Some(p) => {
            let source = ReplicationSource::start_with(
                dir,
                SourceConfig {
                    port: p,
                    ..SourceConfig::default()
                },
            )?;
            println!("replication source on {} (shipping {dir})", source.addr());
            Some(source)
        }
        None => None,
    };

    shutdown::install();
    let mut server = EventedServer::start_with(
        ServeConfig {
            port,
            rate_cap_urls_per_sec: rate_cap,
            ..ServeConfig::default()
        },
        checker.clone(),
    )?;
    match replicate_from {
        Some(primary) => println!(
            "freephish-extd follower listening on {} (replicating {primary} into {dir})",
            server.addr()
        ),
        None => println!(
            "freephish-extd listening on {}{}",
            server.addr(),
            if classify_on_miss {
                " (classify-on-miss)"
            } else {
                ""
            }
        ),
    }

    // With --store, readiness additionally requires the journal tail to
    // be caught up: true after every successful poll, false the moment
    // one fails. The flag starts true because the open above already did
    // one successful full read — except on a follower, which has not
    // read yet and is further gated on the replica having reached the
    // primary's tip. With --classify-on-miss readiness also requires the
    // classifier warm, and the scrape snapshot merges the resolver's
    // per-tier series.
    let follower = role == WriteRole::ReadOnly;
    let journal_ok = Arc::new(AtomicBool::new(!follower));
    let mut ops_server = match ops_port {
        Some(p) => {
            let mut cfg = server.ops_config();
            if let Some(r) = &replica {
                let caught = r.clone();
                cfg = cfg.with_ready_condition(
                    "replication_caught_up",
                    Arc::new(move || caught.caught_up()),
                );
                let snap = r.clone();
                cfg = cfg.with_snapshot_merge(Arc::new(move || snap.metrics_snapshot()));
            }
            if store.is_some() {
                let flag = journal_ok.clone();
                cfg = cfg.with_ready_condition(
                    if follower {
                        "replica_journal_ingested"
                    } else {
                        "store_journal_caught_up"
                    },
                    Arc::new(move || flag.load(Ordering::SeqCst)),
                );
            }
            if let Some(r) = &resolver {
                let warm = r.clone();
                cfg = cfg.with_ready_condition("classifier_warm", Arc::new(move || warm.is_warm()));
                let snap = r.clone();
                cfg = cfg.with_snapshot_merge(Arc::new(move || snap.metrics_snapshot()));
            }
            if let Some(src) = &replication {
                cfg = cfg.with_snapshot_merge(src.snapshot_fn());
            }
            let ops = OpsServer::start(p, cfg)?;
            println!(
                "ops plane on http://{}{}",
                ops.addr(),
                if follower {
                    ""
                } else {
                    " (/metrics /varz /healthz /readyz /events /traces/slow)"
                }
            );
            Some(ops)
        }
        None => None,
    };
    match (&store, role) {
        (Some((node, _)), WriteRole::Sidecar) => println!(
            "following store {dir} ({} known URLs, generation {})",
            node.len(),
            checker.generation()
        ),
        (Some(_), WriteRole::Owner) => {
            println!("primary WAL {dir} (generation {})", checker.generation())
        }
        (Some(_), WriteRole::ReadOnly) => {}
        (None, _) => println!("known phishing URLs: {static_len}"),
    }
    println!("press Ctrl-C to stop");

    let mut last_rebake = std::time::Instant::now();
    while !shutdown::requested() {
        std::thread::sleep(SERVE_POLL);
        let Some((node, tail)) = &mut store else {
            continue;
        };
        match tail.poll() {
            Ok(_) => journal_ok.store(true, Ordering::SeqCst),
            Err(e) => {
                journal_ok.store(false, Ordering::SeqCst);
                freephish_obs::warn("extd", format!("store reload failed: {e}"));
            }
        }
        if rebake_secs > 0 && last_rebake.elapsed().as_secs() >= rebake_secs {
            last_rebake = std::time::Instant::now();
            let out = bake_path.as_deref().expect("rebake implies a bake path");
            match node.rebake(out) {
                Ok(summary) => freephish_obs::info(
                    "extd",
                    format!(
                        "re-baked {} entries ({} bytes) into {}",
                        summary.entries,
                        summary.file_bytes,
                        out.display()
                    ),
                ),
                Err(e) => freephish_obs::warn("extd", format!("re-bake failed: {e}")),
            }
        }
    }

    println!("shutting down: draining connections");
    if let Some(ops) = ops_server.as_mut() {
        ops.shutdown();
    }
    if let Some(src) = replication.as_mut() {
        src.shutdown();
    }
    if let Some(r) = &replica {
        r.shutdown();
    }
    server.shutdown();
    if !server.drain(DRAIN_TIMEOUT) {
        freephish_obs::warn("extd", "drain timed out with connections still active");
    }
    if let Some(r) = &resolver {
        // Give the classify queue a bounded window to finish; anything
        // still queued is lost (by design — provisional answers were
        // already served, and journaled verdicts are already durable).
        if !r.drain(RESOLVER_DRAIN_TIMEOUT) {
            freephish_obs::warn("extd", "resolver queue not drained; dropping residue");
        }
        r.shutdown();
    }
    if let Some((node, _)) = &store {
        node.sync()?;
    }
    println!("bye");
    Ok(())
}

/// Parse a comma-separated address list; each entry must be `host:port`,
/// except that `allow_blank` lets `-` mean "no address for this slot".
fn parse_addr_list(raw: &str, allow_blank: bool) -> Vec<Option<SocketAddr>> {
    raw.split(',')
        .map(|s| {
            let s = s.trim();
            if allow_blank && s == "-" {
                return None;
            }
            Some(s.parse().unwrap_or_else(|_| usage()))
        })
        .collect()
}

fn route(args: &[String]) -> std::io::Result<()> {
    let mut port: u16 = 0;
    let mut ops_port: Option<u16> = None;
    let mut backends: Vec<SocketAddr> = Vec::new();
    let mut backend_ops: Vec<Option<SocketAddr>> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--port" => {
                i += 1;
                let raw = args.get(i).map(String::as_str).unwrap_or_else(|| usage());
                port = raw.parse().unwrap_or_else(|_| usage());
            }
            "--ops-port" => {
                i += 1;
                let raw = args.get(i).map(String::as_str).unwrap_or_else(|| usage());
                ops_port = Some(raw.parse().unwrap_or_else(|_| usage()));
            }
            "--backends" => {
                i += 1;
                let raw = args.get(i).map(String::as_str).unwrap_or_else(|| usage());
                backends = parse_addr_list(raw, false)
                    .into_iter()
                    .map(|a| a.expect("blank not allowed"))
                    .collect();
            }
            "--backend-ops" => {
                i += 1;
                let raw = args.get(i).map(String::as_str).unwrap_or_else(|| usage());
                backend_ops = parse_addr_list(raw, true);
            }
            _ => usage(),
        }
        i += 1;
    }
    if backends.is_empty() {
        eprintln!("route needs --backends with at least one address");
        usage();
    }
    if !backend_ops.is_empty() && backend_ops.len() != backends.len() {
        eprintln!("--backend-ops must list one address (or -) per backend");
        usage();
    }

    let n = backends.len();
    let router = Router::new(
        backends,
        RouterConfig {
            ops_addrs: backend_ops,
            ..RouterConfig::default()
        },
    );
    shutdown::install();
    let mut server = RouterServer::start(port, router)?;
    println!(
        "freephish-extd router listening on {} ({n} backends)",
        server.addr()
    );
    let mut ops_server = match ops_port {
        Some(p) => {
            let ops = OpsServer::start(p, server.ops_config())?;
            println!("ops plane on http://{}", ops.addr());
            Some(ops)
        }
        None => None,
    };
    println!("press Ctrl-C to stop");

    while !shutdown::requested() {
        std::thread::sleep(SERVE_POLL);
    }
    println!("shutting down");
    if let Some(ops) = ops_server.as_mut() {
        ops.shutdown();
    }
    server.shutdown();
    println!("bye");
    Ok(())
}

fn check(args: &[String]) -> std::io::Result<()> {
    let (addr, urls) = match args.split_first() {
        Some((a, rest)) if !rest.is_empty() => (a, rest),
        _ => usage(),
    };
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{e}")))?;
    let client = VerdictClient::new(addr);
    let urls: Vec<String> = urls.to_vec();
    // One connection, batched over the binary protocol.
    // Failures are per URL: a shed shard prints errors for its URLs while
    // the rest of the batch still gets verdicts.
    let verdicts = client.check_batch(&urls)?;
    let mut any_phish = false;
    let mut any_err = false;
    for (url, v) in urls.iter().zip(&verdicts) {
        match v {
            Ok(v) if v.is_phishing() => {
                println!("PHISHING  {url}");
                any_phish = true;
            }
            Ok(_) => println!("safe      {url}"),
            Err(msg) => {
                println!("error     {url}  ({msg})");
                any_err = true;
            }
        }
    }
    if any_phish {
        std::process::exit(2);
    }
    if any_err {
        std::process::exit(3);
    }
    Ok(())
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "serve" => serve(rest),
        Some((cmd, rest)) if cmd == "route" => route(rest),
        Some((cmd, rest)) if cmd == "check" => check(rest),
        _ => usage(),
    }
}
