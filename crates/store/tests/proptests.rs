//! Property tests for the recovery contract: whatever damage the tail of
//! the WAL takes — truncation at an arbitrary byte, bit flips anywhere,
//! a zero-filled region — recovery always yields a valid *prefix* of the
//! appended records, and the reopened store keeps working. Zeros are
//! never records: a zeroed suffix recovers exactly the records before
//! it.

use freephish_simclock::prop::{check, Gen};
use freephish_store::segment::{segment_file_name, SEGMENT_HEADER_LEN, SEGMENT_MAGIC};
use freephish_store::testutil::TempDir;
use freephish_store::{Store, StoreOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

fn small_segments() -> StoreOptions {
    StoreOptions {
        segment_max_bytes: 256,
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
    g.vec(1..30, |g| g.vec(1..100, Gen::u8))
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
fn a_zeroed_suffix_recovers_exactly_the_records_before_it() {
    check(64, |g| {
        let (records, zeros) = (records(g), g.usize_in(1..600));
        let dir = TempDir::new("prop-zero-suffix");
        write_all(dir.path(), &records);
        // Zero everything from a record boundary (or a segment's header
        // end) onwards, and a little past the end, as a crash between a
        // size update and its data can leave it.
        let (_, intact) = Store::open(dir.path()).unwrap();
        let ends: Vec<(u32, u64)> = intact
            .records
            .iter()
            .map(|(pos, _)| (pos.segment, pos.end_offset))
            .collect();
        let mut cuts: Vec<(u32, u64)> = ends.clone();
        cuts.extend(ends.iter().map(|&(seg, _)| (seg, SEGMENT_HEADER_LEN)));
        let &(seg, cut) = g.pick(&cuts);
        let kept = ends.iter().filter(|&&end| end <= (seg, cut)).count();
        let path = dir.path().join(segment_file_name(seg));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(cut as usize);
        bytes.resize(bytes.len() + zeros, 0);
        std::fs::write(&path, &bytes).unwrap();

        let (_, rec) = Store::open(dir.path()).unwrap();
        assert!(rec.torn_tail);
        let got: Vec<Vec<u8>> = rec.records.into_iter().map(|(_, p)| p).collect();
        assert_eq!(
            got,
            records[..kept].to_vec(),
            "zeroed from {cut} of segment {seg}"
        );
    });
}

#[test]
fn an_all_zero_segment_holds_no_records() {
    check(64, |g| {
        let (records, zeros) = (records(g), g.usize_in(1..600));
        let dir = TempDir::new("prop-all-zero");
        write_all(dir.path(), &records);
        // The next segment, created and zero-filled but never written:
        // what a preallocating writer that crashed before its first
        // append leaves.
        let next = segment_paths(dir.path()).len() as u32;
        let mut f = std::fs::File::create(dir.path().join(segment_file_name(next))).unwrap();
        f.write_all(&SEGMENT_MAGIC).unwrap();
        f.write_all(&next.to_le_bytes()).unwrap();
        f.write_all(&vec![0; zeros]).unwrap();
        drop(f);

        let (mut store, rec) = Store::open(dir.path()).unwrap();
        assert!(rec.torn_tail);
        let got: Vec<Vec<u8>> = rec.records.into_iter().map(|(_, p)| p).collect();
        assert_eq!(got, records);
        store.append(b"after").unwrap();
        store.sync().unwrap();
        drop(store);
        let (_, rec) = Store::open(dir.path()).unwrap();
        assert!(!rec.torn_tail);
        assert_eq!(rec.records.len(), records.len() + 1);
    });
}
