//! Router end-to-end: real evented backends behind the consistent-hash
//! front-end — placement, in-order gather, failover on dead and
//! shedding nodes, and the router mounted on the serving engine as its
//! wire front door.

use bytes::BytesMut;
use freephish_cluster::{Router, RouterConfig};
use freephish_serve::proto::{
    decode_bin_reply, decode_bin_request, encode_bin_reply, encode_bin_request, read_bin_reply,
    read_line_buffered, BinReply, BinRequest, HANDSHAKE_LINE, HANDSHAKE_OK,
};
use freephish_serve::{EventedServer, Verdict};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn urls(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("https://victim{i}.000webhostapp.com/verify"))
        .collect()
}

/// A backend whose verdict score encodes its identity, so tests can
/// see which node answered.
fn tagged_backend(tag: f64) -> EventedServer {
    EventedServer::start(Arc::new(move |_url: &str| Verdict::Safe(tag))).expect("start backend")
}

fn quick_health() -> RouterConfig {
    RouterConfig {
        health_period: Duration::from_millis(50),
        ..RouterConfig::default()
    }
}

/// The router behind the serving engine, as `freephish-extd route`
/// mounts it.
fn front_door(router: Router) -> EventedServer {
    EventedServer::start(Arc::new(router)).expect("start router front door")
}

/// Backend addresses with nothing listening: every connect is refused.
fn dead_addrs(n: usize) -> Vec<SocketAddr> {
    (0..n)
        .map(|_| {
            let probe = TcpListener::bind("127.0.0.1:0").expect("bind");
            probe.local_addr().expect("addr")
        })
        .collect()
}

/// A client connection that fails a test instead of hanging it.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// A minimal backend that completes the binary handshake and answers
/// every request with `BUSY`, as a shedding node would.
fn busy_backend() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            std::thread::spawn(move || {
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                if reader.read_line(&mut line).is_err() || line.trim() != HANDSHAKE_LINE {
                    return;
                }
                writer
                    .write_all(format!("{HANDSHAKE_OK}\n").as_bytes())
                    .ok();
                let mut buf = BytesMut::new();
                let mut chunk = [0u8; 4096];
                loop {
                    while let Ok(Some(req)) = decode_bin_request(&mut buf) {
                        if matches!(req, BinRequest::Check(_) | BinRequest::CheckN(_)) {
                            let mut out = BytesMut::new();
                            encode_bin_reply(&mut out, &BinReply::Busy);
                            if writer.write_all(&out).is_err() {
                                return;
                            }
                        }
                    }
                    match reader.get_mut().read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn batches_scatter_by_ring_owner_and_gather_in_order() {
    let backends: Vec<EventedServer> = (0..3).map(|i| tagged_backend(i as f64)).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr()).collect();
    let router = Router::new(addrs, quick_health());
    let mut client = router.client();

    let batch = urls(120);
    let results = client.check_batch(&batch);
    assert_eq!(results.len(), batch.len());
    let mut owners_seen = [0usize; 3];
    for (url, res) in batch.iter().zip(&results) {
        let v = res.as_ref().expect("verdict");
        let owner = router.owner_of(url);
        assert_eq!(
            v.score(),
            owner as f64,
            "{url} routed off its ring owner {owner}"
        );
        owners_seen[owner] += 1;
    }
    assert!(
        owners_seen.iter().all(|&n| n > 0),
        "every backend should own part of the batch: {owners_seen:?}"
    );

    // Single checks route identically.
    for url in batch.iter().take(10) {
        let v = client.check_batch(std::slice::from_ref(url))[0]
            .clone()
            .expect("verdict");
        assert_eq!(v.score(), router.owner_of(url) as f64);
    }
    let m = router.metrics_snapshot();
    assert_eq!(m.counter("cluster_router_failovers_total", &[]), 0);
    assert_eq!(m.counter("cluster_router_urls_routed_total", &[]), 130);
}

/// More than `MAX_BATCH` URLs per shard means several pipelined
/// `CHECKN` frames per connection, whose replies may share one TCP
/// segment: every one must be gathered, none re-read from the wire.
#[test]
fn batches_spanning_several_frames_per_shard_gather_every_reply() {
    let backends: Vec<EventedServer> = (0..2).map(|i| tagged_backend(i as f64)).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr()).collect();
    let io_timeout = Duration::from_secs(2);
    let router = Router::new(
        addrs,
        RouterConfig {
            io_timeout,
            ..quick_health()
        },
    );
    let mut client = router.client();

    let batch = urls(2000);
    let started = std::time::Instant::now();
    let results = client.check_batch(&batch);
    let took = started.elapsed();
    assert_eq!(results.len(), batch.len());
    for (url, res) in batch.iter().zip(&results) {
        let v = res.as_ref().unwrap_or_else(|e| panic!("{url}: {e}"));
        assert_eq!(
            v.score(),
            router.owner_of(url) as f64,
            "{url} off its owner"
        );
    }
    let m = router.metrics_snapshot();
    assert_eq!(m.counter("cluster_router_failovers_total", &[]), 0);
    assert_eq!(m.counter("cluster_router_shard_errors_total", &[]), 0);
    assert!(
        took < io_timeout / 2,
        "gather waited on the wire for a reply it already had: {took:?}"
    );
}

#[test]
fn dead_backend_fails_over_to_ring_successors() {
    let mut backends: Vec<EventedServer> = (0..3).map(|i| tagged_backend(i as f64)).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr()).collect();
    let router = Router::new(addrs, quick_health());
    let mut client = router.client();

    // Kill node 0 outright.
    backends[0].shutdown();
    backends.remove(0);

    let batch = urls(90);
    let results = client.check_batch(&batch);
    let mut failed_over = 0;
    for (url, res) in batch.iter().zip(&results) {
        let v = res.as_ref().expect("verdict even with a dead node");
        assert_ne!(v.score(), 0.0, "{url} answered by the dead node");
        if router.owner_of(url) == 0 {
            failed_over += 1;
        }
    }
    assert!(failed_over > 0, "no urls owned by the dead node");
    let m = router.metrics_snapshot();
    assert!(m.counter("cluster_router_failovers_total", &[]) >= failed_over);

    // The prober eventually marks it down.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        if router
            .metrics_snapshot()
            .gauge("cluster_router_backends_unhealthy", &[])
            == 1
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("health prober never marked the dead backend unhealthy");
}

#[test]
fn shedding_backend_fails_over_per_shard() {
    // Node 0 sheds everything with BUSY; nodes 1 and 2 are healthy.
    let shed = busy_backend();
    let b1 = tagged_backend(1.0);
    let b2 = tagged_backend(2.0);
    let router = Router::new(vec![shed, b1.addr(), b2.addr()], quick_health());
    let mut client = router.client();

    let batch = urls(60);
    let results = client.check_batch(&batch);
    for (url, res) in batch.iter().zip(&results) {
        let v = res.as_ref().expect("verdict despite shedding");
        assert_ne!(v.score(), 0.0, "{url} answered by the shedding node");
    }
    let m = router.metrics_snapshot();
    assert!(m.counter("cluster_router_failovers_total", &[]) > 0);
    assert!(m.counter("cluster_router_shard_errors_total", &[]) == 0);
}

#[test]
fn router_server_speaks_line_and_binary_wire() {
    let backends: Vec<EventedServer> = (0..2).map(|i| tagged_backend(i as f64)).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr()).collect();
    let server = front_door(Router::new(addrs, quick_health()));

    // Line mode.
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"CHECK https://victim0.000webhostapp.com/verify\n")
        .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("SAFE "), "line reply: {line:?}");
    writer.write_all(b"ADD https://x.example 0.9\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("ERROR"),
        "router must refuse writes: {line:?}"
    );

    // Binary upgrade on a fresh connection.
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(format!("{HANDSHAKE_LINE}\n").as_bytes())
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), HANDSHAKE_OK);
    let batch = urls(30);
    let mut out = BytesMut::new();
    encode_bin_request(&mut out, &BinRequest::CheckN(batch.clone())).unwrap();
    writer.write_all(&out).unwrap();
    let mut buf = BytesMut::new();
    let mut chunk = [0u8; 4096];
    let reply = loop {
        if let Some(reply) = decode_bin_reply(&mut buf).unwrap() {
            break reply;
        }
        let n = reader.get_mut().read(&mut chunk).unwrap();
        assert!(n > 0, "router closed early");
        buf.extend_from_slice(&chunk[..n]);
    };
    let BinReply::VerdictN(vs) = reply else {
        panic!("expected VerdictN, got {reply:?}");
    };
    assert_eq!(vs.len(), batch.len());
    for (url, v) in batch.iter().zip(&vs) {
        assert!(v.score() == 0.0 || v.score() == 1.0, "{url}: {v:?}");
    }
}

#[test]
fn an_endless_line_is_refused_and_closed_not_buffered() {
    let backends: Vec<EventedServer> = (0..2).map(|i| tagged_backend(i as f64)).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr()).collect();
    let server = front_door(Router::new(addrs, quick_health()));
    let mut stream = connect(server.addr());
    let mut writer = stream.try_clone().expect("clone");
    // 2 MiB with no newline; the writer may be cut off by the close.
    let flood = std::thread::spawn(move || {
        let mut line = b"CHECK https://".to_vec();
        line.resize(2 << 20, b'a');
        let _ = writer.write_all(&line);
    });
    let mut buf = BytesMut::new();
    let reply = read_line_buffered(&mut stream, &mut buf).expect("a reply, not a hang");
    assert_eq!(reply, "ERROR request exceeds maximum size");
    let mut rest = [0u8; 64];
    assert!(
        matches!(stream.read(&mut rest), Ok(0) | Err(_)),
        "the front door keeps a connection it cannot parse"
    );
    flood.join().expect("flood thread");
}

#[test]
fn shutdown_and_drain_close_idle_client_connections() {
    let backends: Vec<EventedServer> = (0..2).map(|i| tagged_backend(i as f64)).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr()).collect();
    let mut server = front_door(Router::new(addrs, quick_health()));
    let mut stream = connect(server.addr());
    stream
        .write_all(b"CHECK https://victim0.000webhostapp.com/verify\n")
        .unwrap();
    let mut buf = BytesMut::new();
    let reply = read_line_buffered(&mut stream, &mut buf).expect("verdict line");
    assert!(reply.starts_with("SAFE "), "{reply:?}");
    // The connection is now idle; stopping the front door must close it.
    server.shutdown();
    assert!(
        server.drain(Duration::from_secs(5)),
        "workers did not drain"
    );
    let mut rest = [0u8; 64];
    assert_eq!(
        stream
            .read(&mut rest)
            .expect("EOF, not a blocked connection"),
        0
    );
}

#[test]
fn with_every_backend_down_each_request_gets_its_own_error() {
    let server = front_door(Router::new(dead_addrs(2), quick_health()));

    // Line mode: one CHECK, then two pipelined in one write, then an ADD.
    let mut stream = connect(server.addr());
    let mut buf = BytesMut::new();
    stream
        .write_all(b"CHECK https://victim0.000webhostapp.com/verify\n")
        .unwrap();
    assert_eq!(
        read_line_buffered(&mut stream, &mut buf).unwrap(),
        "ERROR no healthy backend"
    );
    stream
        .write_all(
            b"CHECK https://victim1.000webhostapp.com/verify\n\
              CHECK https://victim2.000webhostapp.com/verify\n",
        )
        .unwrap();
    for _ in 0..2 {
        assert_eq!(
            read_line_buffered(&mut stream, &mut buf).unwrap(),
            "ERROR no healthy backend"
        );
    }
    stream.write_all(b"ADD https://x.example 0.9\n").unwrap();
    assert_eq!(
        read_line_buffered(&mut stream, &mut buf).unwrap(),
        "ERROR router is read-only; send writes to the primary"
    );

    // Binary mode: a CHECKN with no live backend is one error frame.
    let mut stream = connect(server.addr());
    let mut buf = BytesMut::new();
    stream
        .write_all(format!("{HANDSHAKE_LINE}\n").as_bytes())
        .unwrap();
    assert_eq!(
        read_line_buffered(&mut stream, &mut buf).unwrap(),
        HANDSHAKE_OK
    );
    let mut out = BytesMut::new();
    encode_bin_request(&mut out, &BinRequest::CheckN(urls(5))).unwrap();
    stream.write_all(&out).unwrap();
    match read_bin_reply(&mut stream, &mut buf).unwrap() {
        BinReply::Error(msg) => assert_eq!(msg, "no healthy backend"),
        other => panic!("expected an error frame, got {other:?}"),
    }
}
