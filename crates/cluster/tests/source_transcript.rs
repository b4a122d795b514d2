//! What a `ReplicationSource` sends a follower, frame by frame: a raw
//! TCP client says `HELLO` with a chosen cursor and decodes everything
//! up to the first `TIP`. The expected transcript is derived from the
//! primary's directory with the store's own scan, so these cases pin
//! the wire a session speaks — bootstrap, resume at a record boundary,
//! and the demotion of a forged offset.

use freephish_cluster::wire::{decode_repl, encode_repl, ReplCursor, ReplFrame};
use freephish_cluster::ReplicationSource;
use freephish_store::segment::{parse_segment_name, scan_segment, segment_file_name};
use freephish_store::testutil::TempDir;
use freephish_store::{Store, StoreOptions};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// One frame reduced to what a transcript compares: its kind, the
/// segment it names and the offset it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Seen {
    Reset { first_segment: u32 },
    Segment(u32),
    Record { segment: u32, end_offset: u64 },
    Tip { segment: u32, offset: u64 },
}

/// A primary of `records` small records over 256-byte segments, so the
/// WAL spans several segments.
fn primary(dir: &Path, records: usize) -> Store {
    let opts = StoreOptions {
        segment_max_bytes: 256,
    };
    let (mut store, _) = Store::open_with(dir, opts, None).unwrap();
    for i in 0..records {
        store
            .append(format!("record-{i:03}-{}", "x".repeat(i % 23)).as_bytes())
            .unwrap();
    }
    store.flush().unwrap();
    store
}

/// The live segments of `dir` with the end offset of each record.
fn live_segments(dir: &Path) -> Vec<(u32, Vec<u64>)> {
    let mut segs: Vec<u32> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| parse_segment_name(&e.unwrap().file_name().to_string_lossy()))
        .collect();
    segs.sort_unstable();
    segs.into_iter()
        .map(|seg| {
            let scan = scan_segment(&dir.join(segment_file_name(seg))).unwrap();
            assert!(scan.torn.is_none(), "segment {seg} is clean");
            (seg, scan.records.iter().map(|r| r.end_offset).collect())
        })
        .collect()
}

/// What the source should stream from `(segment, offset)` on: each
/// segment announced, then its records past the offset, then the tip.
fn expected_stream(dir: &Path, from: (u32, u64)) -> Vec<Seen> {
    let segs = live_segments(dir);
    let mut out = Vec::new();
    for (seg, ends) in &segs {
        if *seg < from.0 {
            continue;
        }
        out.push(Seen::Segment(*seg));
        for &end in ends {
            if *seg > from.0 || end > from.1 {
                out.push(Seen::Record {
                    segment: *seg,
                    end_offset: end,
                });
            }
        }
    }
    let (tip, _) = segs.last().unwrap();
    let len = std::fs::metadata(dir.join(segment_file_name(*tip)))
        .unwrap()
        .len();
    out.push(Seen::Tip {
        segment: *tip,
        offset: len,
    });
    out
}

/// Say `HELLO` with `cursor` and collect the frames up to the first TIP.
fn transcript(source: &ReplicationSource, cursor: ReplCursor) -> Vec<Seen> {
    let mut stream = TcpStream::connect(source.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = bytes::BytesMut::new();
    encode_repl(&mut out, &ReplFrame::Hello(cursor)).unwrap();
    stream.write_all(&out).unwrap();

    let mut seen = Vec::new();
    let mut inbuf = bytes::BytesMut::new();
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(frame) = decode_repl(&mut inbuf).unwrap() {
            seen.push(match frame {
                ReplFrame::Reset { first_segment } => Seen::Reset { first_segment },
                ReplFrame::Segment { index } => Seen::Segment(index),
                ReplFrame::Record {
                    segment,
                    end_offset,
                    ..
                } => Seen::Record {
                    segment,
                    end_offset,
                },
                ReplFrame::Tip { segment, offset } => {
                    seen.push(Seen::Tip { segment, offset });
                    return seen;
                }
                other => panic!("unexpected frame {other:?}"),
            });
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "source closed before the first TIP: {seen:?}");
        inbuf.extend_from_slice(&chunk[..n]);
    }
}

fn cursor(segment: Option<u32>, offset: u64) -> ReplCursor {
    ReplCursor { segment, offset }
}

#[test]
fn no_cursor_without_a_snapshot_resets_and_ships_every_segment() {
    let dir = TempDir::new("transcript-reset");
    let _store = primary(dir.path(), 40);
    let source = ReplicationSource::start(dir.path()).unwrap();
    let seen = transcript(&source, ReplCursor::empty());
    let mut want = vec![Seen::Reset { first_segment: 0 }];
    want.extend(expected_stream(dir.path(), (0, 0)));
    assert!(
        live_segments(dir.path()).len() > 2,
        "the WAL spans segments"
    );
    assert_eq!(seen, want);
}

#[test]
fn a_cursor_at_a_live_record_boundary_resumes_there() {
    let dir = TempDir::new("transcript-resume");
    let _store = primary(dir.path(), 40);
    let segs = live_segments(dir.path());
    let source = ReplicationSource::start(dir.path()).unwrap();

    // Mid-segment: the records past the cursor, nothing before it.
    let (seg, ends) = &segs[1];
    let at = ends[ends.len() / 2];
    let seen = transcript(&source, cursor(Some(*seg), at));
    assert_eq!(seen, expected_stream(dir.path(), (*seg, at)));

    // The end of a sealed segment: it is announced, then its successor.
    let (seg, ends) = &segs[0];
    let at = *ends.last().unwrap();
    let seen = transcript(&source, cursor(Some(*seg), at));
    assert_eq!(seen[..2], [Seen::Segment(*seg), Seen::Segment(seg + 1)]);
    assert_eq!(seen, expected_stream(dir.path(), (*seg, at)));
}

#[test]
fn a_forged_offset_inside_a_record_bootstraps_instead() {
    let dir = TempDir::new("transcript-forged");
    let _store = primary(dir.path(), 40);
    let segs = live_segments(dir.path());
    let source = ReplicationSource::start(dir.path()).unwrap();
    let (seg, ends) = &segs[1];
    let seen = transcript(&source, cursor(Some(*seg), ends[0] + 3));
    let mut want = vec![Seen::Reset { first_segment: 0 }];
    want.extend(expected_stream(dir.path(), (0, 0)));
    assert_eq!(seen, want);
}
