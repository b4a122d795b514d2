//! The FreePhish browser-extension analogue.
//!
//! The paper ships FreePhish as a Chromium extension that intercepts
//! navigation and blocks known FWB phishing URLs (Figure 13). The
//! networked reproduction splits that into the verdict service —
//! [`freephish_serve::EventedServer`], backed by any [`UrlChecker`] — and
//! the extension side, which lives here:
//!
//! * a [`VerdictClient`] — a verdict cache so a page's subresources do
//!   not re-query, bounded connect, read and write timeouts, replies read
//!   through a buffer capped at one frame, one jittered retry for a
//!   failed connect or a shed (`BUSY`) request, the line protocol
//!   (`CHECK <url>\n` → `PHISHING <score>` / `SAFE <score>` /
//!   `ERROR <msg>`) for single checks, and a batched
//!   [`VerdictClient::check_batch`] over binary `CHECKN` frames;
//! * a [`NavigationGuard`] — the interception point: allow the navigation
//!   or serve the block page.
//!
//! The protocol vocabulary ([`Verdict`], [`UrlChecker`], [`Request`] and
//! the line codec) lives in `freephish-serve` and is re-exported here so
//! existing import paths keep working. The server's metrics are the
//! `serve_*` family; any client can scrape them over the wire with the
//! `STATS\n` command ([`VerdictClient::stats`]), which replies with one
//! line of compact JSON (`STATS <json>\n`).

use bytes::BytesMut;
use freephish_obs::sync::{lock, read, write};
use freephish_obs::{Counter, MetricsSnapshot, Registry};
use freephish_simclock::Rng64;
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

pub use freephish_serve::proto::{
    decode_request, decode_verdict, encode_verdict, Request, HANDSHAKE_LINE, HANDSHAKE_OK,
};
use freephish_serve::{read_bin_reply, read_line_buffered};
pub use freephish_serve::{BinReply, BinRequest, UrlChecker, Verdict, MAX_BATCH};

// ---------------------------------------------------------------------------
// Client + navigation guard
// ---------------------------------------------------------------------------

/// How long the client waits for a TCP connect before retrying.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// How long the client waits on a connected socket's read or write
/// before giving up, so a server that never answers cannot hang it.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

fn io_invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// The extension-side client with a verdict cache.
pub struct VerdictClient {
    addr: SocketAddr,
    cache: RwLock<HashMap<String, Verdict>>,
    cache_hits: Counter,
    cache_misses: Counter,
    registry: Registry,
    retries_connect: Arc<Counter>,
    retries_binary: Arc<Counter>,
    retries_line: Arc<Counter>,
    rng: Mutex<Rng64>,
}

impl VerdictClient {
    /// A client for the service at `addr`.
    pub fn new(addr: SocketAddr) -> VerdictClient {
        VerdictClient::with_seed(addr, 0x0BAD_5EED)
    }

    /// A client whose retry-backoff jitter stream is seeded explicitly, so
    /// simulations and tests stay deterministic.
    pub fn with_seed(addr: SocketAddr, seed: u64) -> VerdictClient {
        let registry = Registry::new();
        VerdictClient {
            addr,
            cache: RwLock::new(HashMap::new()),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            retries_connect: registry
                .counter("verdict_client_retries_total", &[("proto", "connect")]),
            retries_binary: registry
                .counter("verdict_client_retries_total", &[("proto", "binary")]),
            retries_line: registry.counter("verdict_client_retries_total", &[("proto", "line")]),
            registry,
            rng: Mutex::new(Rng64::new(seed)),
        }
    }

    /// One jittered backoff interval (5–25 ms, drawn from the client's
    /// seeded stream — deterministic under [`VerdictClient::with_seed`]).
    /// Connect failures and BUSY sheds on either wire protocol all wait
    /// the same way before their single retry.
    fn backoff(&self) -> Duration {
        Duration::from_millis(lock(&self.rng).range_u64(5, 25))
    }

    /// Connect with a bounded timeout; on failure, retry once after a
    /// jittered backoff. Reads and writes on the connection time out
    /// after [`IO_TIMEOUT`].
    fn connect(&self) -> std::io::Result<TcpStream> {
        let stream = match TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT) {
            Ok(s) => s,
            Err(first) => {
                self.retries_connect.inc();
                std::thread::sleep(self.backoff());
                TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT).map_err(|_| first)?
            }
        };
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(stream)
    }

    /// Check a URL, consulting the local cache first.
    pub fn check(&self, url: &str) -> std::io::Result<Verdict> {
        if let Some(v) = read(&self.cache).get(url) {
            self.cache_hits.inc();
            return Ok(*v);
        }
        self.cache_misses.inc();
        let request = format!("CHECK {url}\n");
        let mut stream = self.connect()?;
        let mut buf = BytesMut::new();
        stream.write_all(request.as_bytes())?;
        let mut line = read_line_buffered(&mut stream, &mut buf)?;
        if line == "BUSY" {
            // Shed under load (the in-flight budget): the same
            // single jittered retry as the other paths, on the same
            // connection. A second BUSY surfaces as the error below.
            self.retries_line.inc();
            std::thread::sleep(self.backoff());
            stream.write_all(request.as_bytes())?;
            line = read_line_buffered(&mut stream, &mut buf)?;
        }
        let verdict = decode_verdict(&line).map_err(io_invalid)?;
        write(&self.cache).insert(url.to_string(), verdict);
        Ok(verdict)
    }

    /// Check many URLs in as few round trips as possible. Cached verdicts
    /// are served locally; misses travel over one connection, batched
    /// through binary `CHECKN` frames (up to [`MAX_BATCH`] URLs each)
    /// after the `BINARY` handshake.
    ///
    /// Failure is per URL, not per batch: when the server sheds one
    /// `CHECKN` chunk with `BUSY` even after the jittered retry, only
    /// that chunk's slots come back as `Err` — the other chunks' verdicts
    /// are still delivered (and cached). The outer `io::Result` is
    /// reserved for connection-level failures (connect, transport, a
    /// refused handshake, protocol desync), where no partial answer
    /// exists.
    pub fn check_batch(&self, urls: &[String]) -> std::io::Result<Vec<Result<Verdict, String>>> {
        let mut out: Vec<Option<Result<Verdict, String>>> = vec![None; urls.len()];
        let mut miss_idx = Vec::new();
        {
            let cache = read(&self.cache);
            for (i, url) in urls.iter().enumerate() {
                match cache.get(url) {
                    Some(v) => {
                        self.cache_hits.inc();
                        out[i] = Some(Ok(*v));
                    }
                    None => {
                        self.cache_misses.inc();
                        miss_idx.push(i);
                    }
                }
            }
        }
        if !miss_idx.is_empty() {
            let misses: Vec<String> = miss_idx.iter().map(|&i| urls[i].clone()).collect();
            let verdicts = self.fetch_batch(&misses)?;
            let mut cache = write(&self.cache);
            for (&i, v) in miss_idx.iter().zip(verdicts) {
                if let Ok(v) = &v {
                    cache.insert(urls[i].clone(), *v);
                }
                out[i] = Some(v);
            }
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("every slot resolved"))
            .collect())
    }

    /// [`VerdictClient::check_batch`], failing the whole call if any URL
    /// failed — for callers that need all-or-nothing semantics.
    pub fn check_batch_strict(&self, urls: &[String]) -> std::io::Result<Vec<Verdict>> {
        self.check_batch(urls)?
            .into_iter()
            .map(|r| r.map_err(|msg| std::io::Error::new(std::io::ErrorKind::WouldBlock, msg)))
            .collect()
    }

    /// One connection, all of `urls`, over the binary protocol.
    ///
    /// Chunk-level failures (a `CHECKN` shard still shed after the retry,
    /// or answered with an explicit error) blast only that chunk's slots
    /// to `Err` and move on to the next chunk; the outer `io::Result`
    /// fires only when the connection itself is unusable.
    fn fetch_batch(&self, urls: &[String]) -> std::io::Result<Vec<Result<Verdict, String>>> {
        let mut stream = self.connect()?;
        let mut buf = BytesMut::new();
        stream.write_all(format!("{HANDSHAKE_LINE}\n").as_bytes())?;
        let handshake = read_line_buffered(&mut stream, &mut buf)?;
        if handshake != HANDSHAKE_OK {
            return Err(io_invalid(format!(
                "server refused the {HANDSHAKE_LINE} handshake: {handshake}"
            )));
        }
        let mut verdicts: Vec<Result<Verdict, String>> = Vec::with_capacity(urls.len());
        for batch in urls.chunks(MAX_BATCH) {
            let mut frame = BytesMut::new();
            freephish_serve::encode_bin_request(&mut frame, &BinRequest::CheckN(batch.to_vec()))
                .map_err(io_invalid)?;
            stream.write_all(&frame)?;
            let reply = match read_bin_reply(&mut stream, &mut buf)? {
                BinReply::Busy => {
                    // Shed under load: same single jittered retry as
                    // the other paths, re-sending the same frame on
                    // the same connection.
                    self.retries_binary.inc();
                    std::thread::sleep(self.backoff());
                    stream.write_all(&frame)?;
                    read_bin_reply(&mut stream, &mut buf)?
                }
                other => other,
            };
            match reply {
                BinReply::VerdictN(vs) if vs.len() == batch.len() => {
                    verdicts.extend(vs.into_iter().map(Ok))
                }
                BinReply::Busy => {
                    // This shard stayed shed through the retry; fail
                    // its URLs alone and keep going — the connection
                    // is still in sync for the next chunk.
                    verdicts.extend(batch.iter().map(|_| Err("server busy".to_string())));
                }
                BinReply::Error(msg) => {
                    verdicts.extend(batch.iter().map(|_| Err(msg.clone())));
                }
                other => return Err(io_invalid(format!("unexpected reply: {other:?}"))),
            }
        }
        Ok(verdicts)
    }

    /// Push a URL into the service's known set (`ADD <url> <score>\n` →
    /// `OK <generation>`). Invalidates the local cache entry for `url` so
    /// the next check sees the new verdict.
    pub fn add(&self, url: &str, score: f64) -> std::io::Result<u64> {
        let mut stream = self.connect()?;
        stream.write_all(format!("ADD {url} {score}\n").as_bytes())?;
        let line = read_line_buffered(&mut stream, &mut BytesMut::new())?;
        let generation = line
            .strip_prefix("OK ")
            .and_then(|g| g.parse().ok())
            .ok_or_else(|| io_invalid(format!("ADD refused: {line}")))?;
        write(&self.cache).remove(url);
        Ok(generation)
    }

    /// Scrape the server's metrics over the wire (`STATS\n` → one line of
    /// JSON, as produced by [`freephish_obs::to_json`]).
    pub fn stats(&self) -> std::io::Result<serde_json::Value> {
        let mut stream = self.connect()?;
        stream.write_all(b"STATS\n")?;
        let line = read_line_buffered(&mut stream, &mut BytesMut::new())?;
        let payload = line
            .strip_prefix("STATS ")
            .ok_or_else(|| io_invalid(format!("malformed STATS reply: {line:?}")))?;
        serde_json::from_str(payload).map_err(|e| io_invalid(e.to_string()))
    }

    /// Cached verdict count.
    pub fn cache_len(&self) -> usize {
        read(&self.cache).len()
    }

    /// Verdicts answered from the local cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.get()
    }

    /// Verdicts that needed a round trip to the service.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.get()
    }

    /// Requests that needed the one retry, across every path: failed
    /// connects plus BUSY sheds on the binary and line protocols. The
    /// per-path split is in [`VerdictClient::client_metrics`] under
    /// `verdict_client_retries_total{proto=connect|binary|line}`.
    pub fn retries(&self) -> u64 {
        self.retries_connect.get() + self.retries_binary.get() + self.retries_line.get()
    }

    /// Snapshot of the client's own metrics
    /// (`verdict_client_retries_total{proto=...}`).
    pub fn client_metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Fraction of checks answered locally; 0 when nothing was checked.
    pub fn cache_hit_ratio(&self) -> f64 {
        let (h, m) = (self.cache_hits.get(), self.cache_misses.get());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// Outcome of a navigation attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum Navigation {
    /// Proceed to the page.
    Allowed,
    /// Blocked; carries the block-page HTML (the Figure 13 interstitial).
    Blocked(String),
}

/// The interception point the extension installs.
pub struct NavigationGuard {
    client: VerdictClient,
}

impl NavigationGuard {
    /// Guard navigations using the verdict service at `addr`.
    pub fn new(addr: SocketAddr) -> NavigationGuard {
        NavigationGuard {
            client: VerdictClient::new(addr),
        }
    }

    /// Intercept a navigation. On service failure the navigation is
    /// allowed (fail-open, like the real extension).
    pub fn navigate(&self, url: &str) -> Navigation {
        match self.client.check(url) {
            Ok(v) if v.is_phishing() => Navigation::Blocked(block_page(url)),
            _ => Navigation::Allowed,
        }
    }
}

/// Render the block interstitial.
pub fn block_page(url: &str) -> String {
    format!(
        "<!DOCTYPE html><html><head><title>FreePhish — page blocked</title></head>\
         <body class=\"freephish-block\"><h1>⚠ Phishing page blocked</h1>\
         <p>FreePhish prevented navigation to <code>{url}</code>, which was \
         identified as a phishing attack hosted on a free website builder.</p>\
         <p>If you believe this is an error, you can report a false positive.</p>\
         </body></html>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use freephish_serve::{EventedServer, ShardedIndex};
    use std::io::{BufRead, BufReader, Read};
    use std::net::TcpListener;

    /// An index holding one known-phishing URL.
    fn seeded(url: &str, score: f64) -> Arc<ShardedIndex> {
        let index = ShardedIndex::with_default_shards();
        index.publish([(url.to_string(), score)]);
        Arc::new(index)
    }

    #[test]
    fn codec_round_trip() {
        let mut buf = BytesMut::from(&b"CHECK https://a.weebly.com/x\n"[..]);
        let req = decode_request(&mut buf).unwrap().unwrap();
        assert_eq!(req, Request::Check("https://a.weebly.com/x".into()));
        assert!(buf.is_empty());
    }

    #[test]
    fn codec_partial_then_complete() {
        let mut buf = BytesMut::from(&b"CHECK https://a.wee"[..]);
        assert_eq!(decode_request(&mut buf), Ok(None));
        buf.extend_from_slice(b"bly.com/\nCHECK https://b.weebly.com/\n");
        let r1 = decode_request(&mut buf).unwrap().unwrap();
        let r2 = decode_request(&mut buf).unwrap().unwrap();
        assert_eq!(r1, Request::Check("https://a.weebly.com/".into()));
        assert_eq!(r2, Request::Check("https://b.weebly.com/".into()));
        assert_eq!(decode_request(&mut buf), Ok(None));
    }

    #[test]
    fn codec_decodes_stats() {
        let mut buf = BytesMut::from(&b"STATS\n"[..]);
        assert_eq!(decode_request(&mut buf), Ok(Some(Request::Stats)));
        assert!(buf.is_empty());
        // CRLF tolerated, like CHECK.
        let mut buf2 = BytesMut::from(&b"STATS\r\n"[..]);
        assert_eq!(decode_request(&mut buf2), Ok(Some(Request::Stats)));
    }

    #[test]
    fn codec_decodes_add() {
        let mut buf = BytesMut::from(&b"ADD https://new.weebly.com/x 0.93\n"[..]);
        let req = decode_request(&mut buf).unwrap().unwrap();
        assert_eq!(req, Request::Add("https://new.weebly.com/x".into(), 0.93));
        // Missing score, bad score, out-of-range score: all rejected.
        for bad in [
            &b"ADD https://a.weebly.com/\n"[..],
            &b"ADD https://a.weebly.com/ nope\n"[..],
            &b"ADD https://a.weebly.com/ 1.5\n"[..],
        ] {
            let mut buf = BytesMut::from(bad);
            assert!(decode_request(&mut buf).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn add_over_the_wire_updates_verdicts() {
        let checker = Arc::new(ShardedIndex::with_default_shards());
        let server = EventedServer::start(checker.clone()).unwrap();
        let client = VerdictClient::new(server.addr());

        let url = "https://fresh.weebly.com/login";
        assert!(!client.check(url).unwrap().is_phishing());
        let generation = client.add(url, 0.91).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(checker.generation(), 1);
        // The client invalidated its cache entry, so the next check hits
        // the server and sees the addition.
        assert!(client.check(url).unwrap().is_phishing());
    }

    #[test]
    fn start_on_binds_requested_port() {
        // Grab a free port, release it, then ask the server for it
        // specifically.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = probe.local_addr().unwrap().port();
        drop(probe);
        let checker = Arc::new(ShardedIndex::with_default_shards());
        let server = match EventedServer::start_on(port, checker) {
            Ok(s) => s,
            Err(_) => return, // port raced away; nothing to assert
        };
        assert_eq!(server.addr().port(), port);
        let client = VerdictClient::new(server.addr());
        assert!(!client.check("https://x.weebly.com/").unwrap().is_phishing());
    }

    #[test]
    fn codec_rejects_malformed() {
        let mut buf = BytesMut::from(&b"FETCH x\n"[..]);
        assert!(decode_request(&mut buf).is_err());
        let mut buf2 = BytesMut::from(&b"CHECK \n"[..]);
        assert!(decode_request(&mut buf2).is_err());
        let mut buf3 = BytesMut::from(&b"\xff\xfe\n"[..]);
        assert!(decode_request(&mut buf3).is_err());
    }

    #[test]
    fn verdict_codec_round_trip() {
        for v in [Verdict::Phishing(0.97), Verdict::Safe(0.03)] {
            let line = encode_verdict(&v);
            let back = decode_verdict(&line).unwrap();
            match (v, back) {
                (Verdict::Phishing(a), Verdict::Phishing(b)) => assert!((a - b).abs() < 1e-3),
                (Verdict::Safe(a), Verdict::Safe(b)) => assert!((a - b).abs() < 1e-3),
                _ => panic!("verdict kind changed in transit"),
            }
        }
        assert!(decode_verdict("ERROR nope").is_err());
        assert!(decode_verdict("garbage").is_err());
    }

    #[test]
    fn server_client_end_to_end() {
        let checker = seeded("https://evil.weebly.com/", 0.98);
        let mut server = EventedServer::start(checker.clone()).unwrap();
        let client = VerdictClient::new(server.addr());

        assert_eq!(
            client.check("https://evil.weebly.com/").unwrap(),
            Verdict::Phishing(0.98)
        );
        assert_eq!(
            client.check("https://fine.weebly.com/").unwrap(),
            Verdict::Safe(0.0)
        );
        // Cache: second check does not need the server.
        assert_eq!(client.cache_len(), 2);
        server.shutdown();
        assert!(client
            .check("https://evil.weebly.com/")
            .unwrap()
            .is_phishing());
    }

    #[test]
    fn guard_blocks_and_allows() {
        let checker = seeded("https://bad.wixsite.com/login", 0.95);
        let server = EventedServer::start(checker).unwrap();
        let guard = NavigationGuard::new(server.addr());
        match guard.navigate("https://bad.wixsite.com/login") {
            Navigation::Blocked(html) => {
                assert!(html.contains("FreePhish"));
                assert!(html.contains("bad.wixsite.com"));
            }
            Navigation::Allowed => panic!("should block"),
        }
        assert_eq!(
            guard.navigate("https://ok.wixsite.com/"),
            Navigation::Allowed
        );
    }

    #[test]
    fn guard_fails_open_when_service_down() {
        let checker = Arc::new(ShardedIndex::with_default_shards());
        let mut server = EventedServer::start(checker).unwrap();
        let addr = server.addr();
        server.shutdown();
        drop(server);
        let guard = NavigationGuard::new(addr);
        // Service gone: navigation proceeds.
        assert_eq!(guard.navigate("https://x.weebly.com/"), Navigation::Allowed);
    }

    #[test]
    fn multiple_requests_per_connection() {
        let checker = seeded("https://p.weebly.com/", 0.9);
        let server = EventedServer::start(checker).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"CHECK https://p.weebly.com/\nCHECK https://s.weebly.com/\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut l1 = String::new();
        let mut l2 = String::new();
        reader.read_line(&mut l1).unwrap();
        reader.read_line(&mut l2).unwrap();
        assert!(l1.starts_with("PHISHING"));
        assert!(l2.starts_with("SAFE"));
    }

    #[test]
    fn client_retries_once_with_jittered_backoff() {
        // A port with nothing listening: both attempts fail, one retry per
        // connect.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let client = VerdictClient::with_seed(addr, 7);
        assert!(client.check("https://x.weebly.com/").is_err());
        assert_eq!(client.retries(), 1);
        assert!(client.check("https://x.weebly.com/").is_err());
        assert_eq!(client.retries(), 2);
        let snap = client.client_metrics();
        assert_eq!(
            snap.counter("verdict_client_retries_total", &[("proto", "connect")]),
            2
        );
        // Only the connect path retried; the wire-protocol counters are
        // untouched.
        assert_eq!(
            snap.counter("verdict_client_retries_total", &[("proto", "binary")]),
            0
        );
        assert_eq!(
            snap.counter("verdict_client_retries_total", &[("proto", "line")]),
            0
        );
    }

    /// A one-connection fake that sheds the first `sheds` check requests
    /// with BUSY and answers every later one safe — binary `CHECKN` frames
    /// after an accepted handshake, or bare `CHECK` lines.
    fn busy_server(binary: bool, sheds: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = BytesMut::new();
            let mut sheds_left = sheds;
            if binary {
                let hs = read_line_buffered(&mut stream, &mut buf).unwrap();
                assert_eq!(hs, HANDSHAKE_LINE);
                stream
                    .write_all(format!("{HANDSHAKE_OK}\n").as_bytes())
                    .unwrap();
                loop {
                    let req = loop {
                        if let Some(req) = freephish_serve::decode_bin_request(&mut buf).unwrap() {
                            break req;
                        }
                        let mut chunk = [0u8; 4096];
                        let n = stream.read(&mut chunk).unwrap();
                        if n == 0 {
                            return;
                        }
                        buf.extend_from_slice(&chunk[..n]);
                    };
                    let BinRequest::CheckN(urls) = req else {
                        panic!("expected CHECKN")
                    };
                    let mut frame = BytesMut::new();
                    let reply = if sheds_left > 0 {
                        sheds_left -= 1;
                        BinReply::Busy
                    } else {
                        BinReply::VerdictN(vec![Verdict::Safe(0.25); urls.len()])
                    };
                    freephish_serve::encode_bin_reply(&mut frame, &reply);
                    stream.write_all(&frame).unwrap();
                }
            } else {
                loop {
                    let line = match read_line_buffered(&mut stream, &mut buf) {
                        Ok(l) => l,
                        Err(_) => return,
                    };
                    assert!(line.starts_with("CHECK "), "got {line:?}");
                    if sheds_left > 0 {
                        sheds_left -= 1;
                        stream.write_all(b"BUSY\n").unwrap();
                    } else {
                        stream.write_all(b"SAFE 0.2500\n").unwrap();
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn binary_busy_shed_retries_once_and_recovers() {
        let addr = busy_server(true, 1);
        let client = VerdictClient::with_seed(addr, 11);
        let urls = vec![
            "https://a.weebly.com/".to_string(),
            "https://b.weebly.com/".to_string(),
        ];
        let verdicts = client.check_batch(&urls).unwrap();
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts.iter().all(|v| v.is_ok()));
        assert_eq!(client.retries(), 1);
        let snap = client.client_metrics();
        assert_eq!(
            snap.counter("verdict_client_retries_total", &[("proto", "binary")]),
            1
        );
        assert_eq!(
            snap.counter("verdict_client_retries_total", &[("proto", "line")]),
            0
        );
        // Verdicts were cached: a repeat is answered locally.
        let again = client.check_batch(&urls).unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(client.cache_hits(), 2);
    }

    #[test]
    fn line_busy_shed_retries_once_and_recovers() {
        let addr = busy_server(false, 1);
        let client = VerdictClient::with_seed(addr, 13);
        let verdict = client.check("https://a.weebly.com/").unwrap();
        assert_eq!(verdict, Verdict::Safe(0.25));
        assert_eq!(client.retries(), 1);
        let snap = client.client_metrics();
        assert_eq!(
            snap.counter("verdict_client_retries_total", &[("proto", "line")]),
            1
        );
        assert_eq!(
            snap.counter("verdict_client_retries_total", &[("proto", "binary")]),
            0
        );
    }

    #[test]
    fn line_busy_through_the_retry_is_an_error_and_the_guard_fails_open() {
        let client = VerdictClient::with_seed(busy_server(false, 2), 15);
        let err = client.check("https://a.weebly.com/").unwrap_err();
        assert_eq!(err.to_string(), "server busy");
        assert_eq!(client.retries(), 1);
        // The shed verdict was not cached as anything.
        assert_eq!(client.cache_len(), 0);
        let guard = NavigationGuard::new(busy_server(false, 2));
        assert_eq!(guard.navigate("https://a.weebly.com/"), Navigation::Allowed);
    }

    #[test]
    fn refused_binary_handshake_is_an_error_not_a_hang() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = BytesMut::new();
            let hs = read_line_buffered(&mut stream, &mut buf).unwrap();
            assert_eq!(hs, HANDSHAKE_LINE);
            stream
                .write_all(b"ERROR binary protocol not supported\n")
                .unwrap();
            // Hold the connection open: the client must give up on the
            // refusal itself, not on an EOF.
            let _ = read_line_buffered(&mut stream, &mut buf);
        });
        let client = VerdictClient::with_seed(addr, 23);
        let err = client
            .check_batch(&["https://a.weebly.com/".to_string()])
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("ERROR binary protocol not supported"),
            "{err}"
        );
        assert_eq!(client.cache_len(), 0);
    }

    #[test]
    fn shed_chunk_fails_its_urls_without_sinking_the_batch() {
        let addr = busy_server(true, 2);
        let client = VerdictClient::with_seed(addr, 17);
        // Two CHECKN chunks: the first (MAX_BATCH URLs) stays shed through
        // the retry, the second is answered.
        let urls: Vec<String> = (0..MAX_BATCH + 40)
            .map(|i| format!("https://site{i}.weebly.com/"))
            .collect();
        let verdicts = client.check_batch(&urls).unwrap();
        assert_eq!(verdicts.len(), urls.len());
        for v in &verdicts[..MAX_BATCH] {
            assert_eq!(v.as_ref().unwrap_err(), "server busy");
        }
        for v in &verdicts[MAX_BATCH..] {
            assert!(!v.as_ref().unwrap().is_phishing());
        }
        // Only delivered verdicts were cached; the shed URLs will be
        // refetched next time instead of serving a stale placeholder.
        assert_eq!(client.cache_len(), 40);
        // The strict wrapper surfaces the same partial failure as an error.
        let strict = VerdictClient::with_seed(busy_server(true, 2), 19);
        let err = strict.check_batch_strict(&urls[..1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }

    /// Run `call` against a server that accepts every connection, writes
    /// `reply` on it and never finishes a line; fail the test if `call`
    /// hangs.
    fn against_unanswering_server<T: Send + 'static>(
        reply: &[u8],
        call: impl FnOnce(SocketAddr) -> T + Send + 'static,
    ) -> T {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || call(addr));
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let mut held = Vec::new();
        while !client.is_finished() {
            assert!(std::time::Instant::now() < deadline, "the client call hung");
            match listener.accept() {
                Ok((mut stream, _)) => {
                    let _ = stream.write_all(reply);
                    held.push(stream);
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        client.join().expect("the client call panicked")
    }

    #[test]
    fn a_silent_server_is_an_error_not_a_hang() {
        let err = against_unanswering_server(b"", |addr| {
            VerdictClient::new(addr).check("https://a.weebly.com/")
        })
        .unwrap_err();
        let timed_out = [std::io::ErrorKind::WouldBlock, std::io::ErrorKind::TimedOut];
        assert!(timed_out.contains(&err.kind()), "{err}");
    }

    #[test]
    fn a_silent_server_fails_the_guard_open() {
        let nav = against_unanswering_server(b"", |addr| {
            NavigationGuard::new(addr).navigate("https://a.weebly.com/")
        });
        assert_eq!(nav, Navigation::Allowed);
    }

    #[test]
    fn a_reply_line_longer_than_a_frame_is_refused() {
        let endless = vec![b'x'; freephish_serve::proto::MAX_FRAME_PAYLOAD + 4096];
        let errors = against_unanswering_server(&endless, |addr| {
            let client = VerdictClient::new(addr);
            [
                client.check("https://a.weebly.com/").map(drop),
                client.stats().map(drop),
                client.add("https://a.weebly.com/", 0.9).map(drop),
            ]
        });
        for result in errors {
            let err = result.unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        }
    }
}
