//! Property tests for the recovery contract: whatever damage the tail of
//! the WAL takes — truncation at an arbitrary byte, bit flips anywhere —
//! recovery always yields a valid *prefix* of the appended records, and
//! the reopened store keeps working — across snapshots and reopens too.

use freephish_simclock::prop::{check, Gen};
use freephish_store::testutil::TempDir;
use freephish_store::{Store, StoreOptions};
use std::path::{Path, PathBuf};

fn small_segments() -> StoreOptions {
    StoreOptions {
        segment_max_bytes: 256,
        sync_every_append: false,
    }
}

fn write_all(dir: &Path, records: &[Vec<u8>]) {
    let (mut store, _) = Store::open_with(dir, small_segments(), None).unwrap();
    for r in records {
        store.append(r).unwrap();
    }
    store.sync().unwrap();
}

fn recover(dir: &Path) -> Vec<Vec<u8>> {
    let (_, rec) = Store::open(dir).unwrap();
    rec.records.into_iter().map(|(_, p)| p).collect()
}

fn segment_paths(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    paths.sort();
    paths
}

fn assert_prefix(got: &[Vec<u8>], want: &[Vec<u8>]) {
    assert!(got.len() <= want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w);
    }
}

fn records(g: &mut Gen) -> Vec<Vec<u8>> {
    g.vec(1..30, |g| g.vec(0..100, Gen::u8))
}

#[test]
fn truncation_always_recovers_a_prefix() {
    check(64, |g| {
        let (records, cut_fraction) = (records(g), g.f64_in(0.0..1.0));
        let dir = TempDir::new("prop-trunc");
        write_all(dir.path(), &records);
        let seg = segment_paths(dir.path()).pop().unwrap();
        let bytes = std::fs::read(&seg).unwrap();
        let cut = (bytes.len() as f64 * cut_fraction) as usize;
        std::fs::write(&seg, &bytes[..cut]).unwrap();

        assert_prefix(&recover(dir.path()), &records);

        // Recovery truncated the damage: the store accepts appends, and
        // a second open is clean and ends with them.
        let (mut store, rec) = Store::open(dir.path()).unwrap();
        assert!(!rec.torn_tail);
        store.append(b"after").unwrap();
        store.sync().unwrap();
        drop(store);
        let (_, rec) = Store::open(dir.path()).unwrap();
        assert!(!rec.torn_tail);
        assert_eq!(rec.records.last().unwrap().1, b"after");
    });
}

#[test]
fn tail_bit_flips_always_recover_a_prefix() {
    check(64, |g| {
        let records = records(g);
        let dir = TempDir::new("prop-flip");
        write_all(dir.path(), &records);
        let segs = segment_paths(dir.path());
        for (pos, bit) in g.vec(1..4, |g| (g.u16(), g.u64_in(0..8))) {
            let seg = &segs[pos as usize % segs.len()];
            let mut bytes = std::fs::read(seg).unwrap();
            if bytes.is_empty() {
                continue;
            }
            let at = pos as usize % bytes.len();
            bytes[at] ^= 1 << bit;
            std::fs::write(seg, &bytes).unwrap();
        }
        assert_prefix(&recover(dir.path()), &records);
    });
}

#[test]
fn snapshot_plus_wal_suffix_equals_full_history() {
    check(64, |g| {
        let (records, split_fraction) = (records(g), g.f64_in(0.0..1.0));
        let dir = TempDir::new("prop-snap");
        let split = ((records.len() as f64 * split_fraction) as usize).min(records.len());
        {
            let (mut store, _) = Store::open_with(dir.path(), small_segments(), None).unwrap();
            for r in &records[..split] {
                store.append(r).unwrap();
            }
            store.snapshot(&(split as u64).to_le_bytes()).unwrap();
            for r in &records[split..] {
                store.append(r).unwrap();
            }
            store.sync().unwrap();
        }
        let (_, rec) = Store::open(dir.path()).unwrap();
        let snap = rec.snapshot.expect("snapshot present");
        assert_eq!(
            u64::from_le_bytes(snap[..8].try_into().unwrap()),
            split as u64
        );
        let tail: Vec<Vec<u8>> = rec.records.into_iter().map(|(_, p)| p).collect();
        assert_eq!(&tail[..], &records[split..]);
    });
}

/// Four open–append–close cycles with snapshots at random points: every
/// reopen is clean, its snapshot counts the records it covers, and its
/// WAL holds exactly the records appended since.
#[test]
fn snapshot_cycles_preserve_state_across_reopens() {
    check(64, |g| {
        let dir = TempDir::new("prop-cycle");
        let mut all: Vec<Vec<u8>> = Vec::new();
        let mut since_snapshot = 0usize;
        let mut have_snapshot = false;
        for _cycle in 0..4 {
            let (mut store, rec) = Store::open_with(dir.path(), small_segments(), None).unwrap();
            assert!(!rec.torn_tail);
            if have_snapshot {
                let snap = rec.snapshot.expect("snapshot survives");
                let count = u64::from_le_bytes(snap[..8].try_into().unwrap()) as usize;
                assert_eq!(count, all.len() - since_snapshot);
            }
            let tail: Vec<Vec<u8>> = rec.records.into_iter().map(|(_, p)| p).collect();
            assert_eq!(tail, all[all.len() - since_snapshot..]);

            for payload in g.vec(0..30, |g| g.vec(0..60, Gen::u8)) {
                store.append(&payload).unwrap();
                all.push(payload);
                since_snapshot += 1;
                if g.usize_in(0..10) == 0 {
                    store.snapshot(&(all.len() as u64).to_le_bytes()).unwrap();
                    since_snapshot = 0;
                    have_snapshot = true;
                }
            }
            store.sync().unwrap();
        }
    });
}
