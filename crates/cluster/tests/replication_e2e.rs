//! End-to-end replication: a real `Store` primary, a real TCP
//! `ReplicationSource`, and `Replica` followers mirroring it — covering
//! bootstrap, live tailing, kill/reconnect resume without re-shipping,
//! torn-tail repair and forged-cursor demotion.

use freephish_cluster::wire::{decode_repl, encode_repl, ReplCursor, ReplFrame};
use freephish_cluster::{Replica, ReplicaConfig, ReplicationSource};
use freephish_store::segment::{parse_segment_name, scan_segment, segment_file_name};
use freephish_store::testutil::TempDir;
use freephish_store::{list_segments, Store, StoreOptions};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

fn wait_for(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

/// Everything durably in a directory: every WAL record across its
/// segments, in order.
fn read_dir_state(dir: &Path) -> Vec<Vec<u8>> {
    let mut records = Vec::new();
    for seg in list_segments(dir).expect("list segments") {
        let scan = scan_segment(&dir.join(segment_file_name(seg))).expect("scan");
        assert!(scan.header_ok, "segment {seg} header");
        records.extend(scan.records.into_iter().map(|r| r.payload));
    }
    records
}

fn small_segments() -> StoreOptions {
    StoreOptions {
        segment_max_bytes: 512,
    }
}

fn fast_replica() -> ReplicaConfig {
    ReplicaConfig {
        reconnect_backoff: Duration::from_millis(20),
        ..ReplicaConfig::default()
    }
}

#[test]
fn follower_bootstraps_then_tails_live_appends() {
    let primary_dir = TempDir::new("repl-primary");
    let replica_dir = TempDir::new("repl-follower");
    let (mut store, _) = Store::open_with(primary_dir.path(), small_segments(), None).unwrap();
    for i in 0..40 {
        store.append(format!("pre-{i}").as_bytes()).unwrap();
    }
    store.flush().unwrap();

    let source = ReplicationSource::start(primary_dir.path()).unwrap();
    let replica = Replica::start(source.addr(), replica_dir.path(), fast_replica()).unwrap();
    wait_for("initial catch-up", Duration::from_secs(10), || {
        replica.caught_up()
    });

    // Live appends, spanning at least one rotation.
    for i in 0..80 {
        store.append(format!("live-{i}").as_bytes()).unwrap();
        if i % 16 == 0 {
            store.flush().unwrap();
        }
    }
    store.flush().unwrap();
    wait_for("live tail catch-up", Duration::from_secs(10), || {
        replica.caught_up() && replica.records_applied() >= 120
    });

    let primary_records = read_dir_state(primary_dir.path());
    let replica_records = read_dir_state(replica_dir.path());
    assert_eq!(primary_records, replica_records);
    let m = replica.metrics_snapshot();
    assert_eq!(
        m.counter(
            "cluster_replication_sessions_total",
            &[("mode", "bootstrap")]
        ),
        1
    );
    assert_eq!(m.gauge("cluster_replication_lag_segments", &[]), 0);
}

#[test]
fn killed_follower_resumes_without_reshipping_completed_segments() {
    let primary_dir = TempDir::new("repl-resume-primary");
    let replica_dir = TempDir::new("repl-resume-follower");
    let (mut store, _) = Store::open_with(primary_dir.path(), small_segments(), None).unwrap();
    for i in 0..60 {
        store.append(format!("first-{i}").as_bytes()).unwrap();
    }
    store.flush().unwrap();

    let source = ReplicationSource::start(primary_dir.path()).unwrap();
    {
        let replica = Replica::start(source.addr(), replica_dir.path(), fast_replica()).unwrap();
        wait_for("first catch-up", Duration::from_secs(10), || {
            replica.caught_up()
        });
        // Replica dropped here: the follower dies with its cursor on disk.
    }
    // Let the source notice the dead session (its next TIP write
    // fails), so the shipped counter only moves for the new session.
    wait_for(
        "source to drop the session",
        Duration::from_secs(10),
        || {
            source
                .metrics_snapshot()
                .gauge("cluster_source_followers", &[])
                == 0
        },
    );

    let shipped_before = source
        .metrics_snapshot()
        .counter("cluster_source_records_shipped_total", &[]);
    assert!(shipped_before >= 60);
    for i in 0..25 {
        store.append(format!("second-{i}").as_bytes()).unwrap();
    }
    store.flush().unwrap();

    let replica = Replica::start(source.addr(), replica_dir.path(), fast_replica()).unwrap();
    wait_for("resume catch-up", Duration::from_secs(10), || {
        replica.caught_up() && replica.records_applied() >= 25
    });

    let primary_records = read_dir_state(primary_dir.path());
    let replica_records = read_dir_state(replica_dir.path());
    assert_eq!(primary_records, replica_records);
    assert_eq!(replica_records.len(), 85);

    // The resumed session shipped only the delta — completed segments
    // were not re-sent.
    let shipped_after = source
        .metrics_snapshot()
        .counter("cluster_source_records_shipped_total", &[]);
    assert_eq!(shipped_after - shipped_before, 25);
    assert_eq!(
        source
            .metrics_snapshot()
            .counter("cluster_source_sessions_total", &[("mode", "resume")]),
        1
    );
    assert_eq!(
        replica
            .metrics_snapshot()
            .counter("cluster_replication_sessions_total", &[("mode", "resume")]),
        1
    );
}

#[test]
fn torn_replica_tail_is_truncated_and_refetched() {
    let primary_dir = TempDir::new("repl-torn-primary");
    let replica_dir = TempDir::new("repl-torn-follower");
    let (mut store, _) = Store::open_with(primary_dir.path(), small_segments(), None).unwrap();
    for i in 0..30 {
        store.append(format!("rec-{i}").as_bytes()).unwrap();
    }
    store.flush().unwrap();

    let source = ReplicationSource::start(primary_dir.path()).unwrap();
    {
        let replica = Replica::start(source.addr(), replica_dir.path(), fast_replica()).unwrap();
        wait_for("catch-up before tear", Duration::from_secs(10), || {
            replica.caught_up()
        });
    }

    // Tear the replica's newest segment: append half a frame, as a
    // crash mid-write would.
    let mut segs: Vec<u32> = std::fs::read_dir(replica_dir.path())
        .unwrap()
        .filter_map(|e| parse_segment_name(&e.unwrap().file_name().to_string_lossy()))
        .collect();
    segs.sort_unstable();
    let tail = replica_dir
        .path()
        .join(segment_file_name(*segs.last().expect("segments exist")));
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&tail)
        .unwrap();
    f.write_all(&[0x55, 0x00, 0x00, 0x00, 0xde, 0xad]).unwrap();
    drop(f);

    for i in 0..10 {
        store.append(format!("post-{i}").as_bytes()).unwrap();
    }
    store.flush().unwrap();

    let replica = Replica::start(source.addr(), replica_dir.path(), fast_replica()).unwrap();
    wait_for("catch-up after tear", Duration::from_secs(10), || {
        replica.caught_up() && replica.records_applied() >= 10
    });
    let primary_records = read_dir_state(primary_dir.path());
    let replica_records = read_dir_state(replica_dir.path());
    assert_eq!(primary_records, replica_records);
}

#[test]
fn forged_cursor_is_demoted_to_bootstrap() {
    let primary_dir = TempDir::new("repl-forged");
    let (mut store, _) = Store::open_with(primary_dir.path(), small_segments(), None).unwrap();
    for i in 0..10 {
        store.append(format!("rec-{i}").as_bytes()).unwrap();
    }
    store.flush().unwrap();
    let source = ReplicationSource::start(primary_dir.path()).unwrap();

    // Speak the wire by hand: claim a cursor mid-record (offset 13 is
    // no record boundary). The source must not resume there.
    let mut stream = TcpStream::connect(source.addr()).unwrap();
    let mut buf = bytes::BytesMut::new();
    encode_repl(
        &mut buf,
        &ReplFrame::Hello(ReplCursor {
            segment: Some(0),
            offset: 13,
        }),
    )
    .unwrap();
    stream.write_all(&buf).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut inbuf = bytes::BytesMut::new();
    let mut chunk = [0u8; 4096];
    let first = loop {
        if let Some(frame) = decode_repl(&mut inbuf).unwrap() {
            break frame;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "source closed before first frame");
        inbuf.extend_from_slice(&chunk[..n]);
    };
    // A demoted session starts with RESET.
    assert!(
        matches!(first, ReplFrame::Reset { .. }),
        "expected bootstrap RESET, got {first:?}"
    );
    assert_eq!(
        source
            .metrics_snapshot()
            .counter("cluster_source_sessions_total", &[("mode", "bootstrap")]),
        1
    );
}
