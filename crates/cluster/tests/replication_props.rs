//! The replication invariant as a property: a follower is a prefix of its
//! primary, and once caught up it *is* the primary, file for file.
//!
//! Each case runs a primary `Store` with small segments (so they rotate)
//! behind a loopback `ReplicationSource`, and a `Replica` following it.
//! A drawn script appends records of random sizes and restarts the
//! follower; while the follower is down the primary may append, and the
//! follower's newest segment may be torn, or a segment between its first
//! and its newest deleted (a hole). After every step the follower
//! catches up, and then its segment files must equal the primary's byte
//! for byte. A restart whose recovered cursor is still a live segment of
//! the primary must resume there and re-ship exactly the records past
//! it.

use freephish_cluster::{Replica, ReplicaConfig, ReplicationSource, SourceConfig};
use freephish_simclock::prop::{check, Gen};
use freephish_store::segment::{parse_segment_name, scan_segment, segment_file_name};
use freephish_store::testutil::TempDir;
use freephish_store::{Store, StoreOptions};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How a stopped follower's newest segment is damaged.
#[derive(Debug, Clone, Copy)]
enum Tear {
    /// Half a frame appended, as a crash mid-write leaves.
    JunkTail,
    /// The last few bytes of the last record cut off.
    Chop(u64),
    /// One bit of the last record flipped.
    Flip(u64),
    /// A segment between the first and the newest deleted, as a lost
    /// directory entry leaves it; the draw picks which.
    Hole(u64),
}

#[derive(Debug)]
enum Step {
    /// Append records of these sizes while the follower runs.
    Append(Vec<usize>),
    /// Stop the follower; while it is down, append and optionally tear
    /// its tail; then start it again.
    Restart {
        appends: Vec<usize>,
        tear: Option<Tear>,
    },
}

fn sizes(g: &mut Gen) -> Vec<usize> {
    g.vec(0..12, |g| g.usize_in(1..160))
}

fn step(g: &mut Gen) -> Step {
    if g.usize_in(0..3) == 0 {
        Step::Restart {
            appends: sizes(g),
            tear: g.option(|g| match g.usize_in(0..4) {
                0 => Tear::JunkTail,
                1 => Tear::Chop(g.u64_in(1..64)),
                2 => Tear::Flip(g.u64()),
                _ => Tear::Hole(g.u64()),
            }),
        }
    } else {
        Step::Append(sizes(g))
    }
}

/// Every segment file in `dir`, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if parse_segment_name(&name).is_some() {
            if let Ok(bytes) = std::fs::read(dir.join(&name)) {
                out.insert(name, bytes);
            }
        }
    }
    out
}

fn segments(dir: &Path) -> Vec<u32> {
    let mut segs: Vec<u32> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| parse_segment_name(&e.unwrap().file_name().to_string_lossy()))
        .collect();
    segs.sort_unstable();
    segs
}

/// Where a follower resumes from its directory: the end of the valid
/// prefix of its newest segment, or of the segment before the first gap
/// in its indices when it has one (recovery drops what follows a hole).
fn recovered_cursor(dir: &Path) -> Option<(u32, u64)> {
    let segs = segments(dir);
    let seg = match segs.windows(2).find(|w| w[1] != w[0] + 1) {
        Some(before_gap) => before_gap[0],
        None => *segs.last()?,
    };
    let scan = scan_segment(&dir.join(segment_file_name(seg))).unwrap();
    Some((seg, scan.good_len))
}

/// Records of the primary that lie past `cursor` (all of them for `None`).
fn records_past(dir: &Path, cursor: Option<(u32, u64)>) -> u64 {
    let mut n = 0;
    for seg in segments(dir) {
        let scan = scan_segment(&dir.join(segment_file_name(seg))).unwrap();
        n += scan
            .records
            .iter()
            .filter(|r| cursor.is_none_or(|c| (seg, r.end_offset) > c))
            .count() as u64;
    }
    n
}

fn tear(dir: &Path, how: Tear) {
    let segs = segments(dir);
    if let Tear::Hole(pick) = how {
        // The segments with a neighbour on each side.
        let inner = segs
            .get(1..segs.len().saturating_sub(1))
            .unwrap_or_default();
        if !inner.is_empty() {
            let seg = inner[(pick % inner.len() as u64) as usize];
            std::fs::remove_file(dir.join(segment_file_name(seg))).unwrap();
        }
        return;
    }
    let Some(seg) = segs.last().copied() else {
        return;
    };
    let path = dir.join(segment_file_name(seg));
    let scan = scan_segment(&path).unwrap();
    let last = scan.records.last().map(|r| {
        let start = r.end_offset - r.payload.len() as u64 - 8;
        (start, r.end_offset)
    });
    match (how, last) {
        (Tear::Chop(k), Some((start, end))) => {
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(end - k.min(end - start)).unwrap();
        }
        (Tear::Flip(bit), Some((start, end))) => {
            let mut bytes = std::fs::read(&path).unwrap();
            let at = start + 4 + (bit / 8) % (end - start - 4);
            bytes[at as usize] ^= 1 << (bit % 8);
            std::fs::write(&path, bytes).unwrap();
        }
        _ => {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0x55, 0x00, 0x00, 0x00, 0xde, 0xad]).unwrap();
        }
    }
}

/// Set once a wait has timed out. The property is failing then, and the
/// shrinker's replays of it wait half a second instead of ten, so the
/// failure reports in minutes rather than hours.
static TIMED_OUT: AtomicBool = AtomicBool::new(false);

/// Poll `cond` until it holds; false if it did not in time.
fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
    let patience = match TIMED_OUT.load(Ordering::Relaxed) {
        true => Duration::from_millis(500),
        false => Duration::from_secs(10),
    };
    let deadline = Instant::now() + patience;
    while !cond() {
        if Instant::now() >= deadline {
            TIMED_OUT.store(true, Ordering::Relaxed);
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

struct Primary {
    store: Store,
    source: ReplicationSource,
    appended: u64,
}

impl Primary {
    fn append(&mut self, sizes: &[usize]) {
        for &n in sizes {
            let byte = (self.appended % 251) as u8;
            self.store.append(&vec![byte; n]).unwrap();
            self.appended += 1;
        }
        self.store.flush().unwrap();
    }

    fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.source.metrics_snapshot().counter(name, labels)
    }
}

/// Start a follower on `replica_dir` and wait until it has caught up with
/// the primary; check the session's mode and how many records it
/// shipped against what the follower's directory said before it started.
fn start_and_catch_up(primary: &Primary, primary_dir: &Path, replica_dir: &Path) -> Replica {
    let followers = || {
        let metrics = primary.source.metrics_snapshot();
        metrics.gauge("cluster_source_followers", &[])
    };
    assert!(wait_for(|| followers() == 0), "the previous session ended");
    let cursor = recovered_cursor(replica_dir);
    let resume = cursor.is_some_and(|(seg, _)| segments(primary_dir).contains(&seg));
    let expect_shipped = records_past(primary_dir, cursor.filter(|_| resume));
    let shipped = primary.counter("cluster_source_records_shipped_total", &[]);
    let mode = if resume { "resume" } else { "bootstrap" };
    let sessions = primary.counter("cluster_source_sessions_total", &[("mode", mode)]);

    let replica = Replica::start(
        primary.source.addr(),
        replica_dir,
        ReplicaConfig {
            reconnect_backoff: Duration::from_millis(10),
            ..ReplicaConfig::default()
        },
    )
    .unwrap();
    catch_up(primary_dir, &replica);
    assert_eq!(
        primary.counter("cluster_source_sessions_total", &[("mode", mode)]),
        sessions + 1,
        "a {mode} session from cursor {cursor:?}"
    );
    assert_eq!(
        primary.counter("cluster_source_records_shipped_total", &[]) - shipped,
        expect_shipped,
        "records shipped to a {mode} session from cursor {cursor:?}"
    );
    replica
}

/// Wait for the follower to report itself caught up and its files to
/// match the primary's, then compare.
fn catch_up(primary_dir: &Path, replica: &Replica) {
    let replica_dir = replica.dir();
    wait_for(|| replica.caught_up() && files(replica_dir) == files(primary_dir));
    let (want, got) = (files(primary_dir), files(replica_dir));
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "the follower holds the primary's files"
    );
    for (name, bytes) in &want {
        assert!(got[name] == *bytes, "{name} differs from the primary's");
    }
}

#[test]
fn a_caught_up_follower_equals_its_primary_byte_for_byte() {
    check(64, |g| {
        let primary_dir = TempDir::new("props-primary");
        let replica_dir = TempDir::new("props-follower");
        let opts = StoreOptions {
            segment_max_bytes: 256,
        };
        let (store, _) = Store::open_with(primary_dir.path(), opts, None).unwrap();
        let source = ReplicationSource::start_with(
            primary_dir.path(),
            SourceConfig {
                poll_interval: Duration::from_millis(5),
                ..SourceConfig::default()
            },
        )
        .unwrap();
        let mut primary = Primary {
            store,
            source,
            appended: 0,
        };
        primary.append(&sizes(g));
        let mut replica = start_and_catch_up(&primary, primary_dir.path(), replica_dir.path());

        for step in g.vec(1..8, step) {
            match step {
                Step::Append(sizes) => {
                    primary.append(&sizes);
                    catch_up(primary_dir.path(), &replica);
                }
                Step::Restart {
                    appends,
                    tear: damage,
                } => {
                    drop(replica);
                    primary.append(&appends);
                    if let Some(how) = damage {
                        tear(replica_dir.path(), how);
                    }
                    replica = start_and_catch_up(&primary, primary_dir.path(), replica_dir.path());
                }
            }
        }
    });
}
