//! Property tests for the replication frame codec: round-trips over
//! arbitrary valid frames, torn-frame patience at every cut point,
//! single-bit-flip rejection of shipped records, forged-cursor
//! rejection, and the mid-segment resume arithmetic the source's
//! boundary check relies on.

use bytes::BytesMut;
use freephish_cluster::wire::{
    decode_repl, encode_repl, verify_record_frame, ReplCursor, ReplFrame,
};
use freephish_simclock::prop::{check, Gen};
use freephish_store::segment::{
    decode_frame, encode_frame_into, FRAME_OVERHEAD, SEGMENT_HEADER_LEN,
};

/// Decode the frames of `bytes` up to the first defect; true when one
/// stopped the scan.
fn scan(mut bytes: &[u8]) -> (Vec<Vec<u8>>, bool) {
    let mut frames = Vec::new();
    while !bytes.is_empty() {
        match decode_frame(bytes) {
            Ok((payload, len)) => {
                frames.push(payload.to_vec());
                bytes = &bytes[len..];
            }
            Err(_) => return (frames, true),
        }
    }
    (frames, false)
}

fn cursor(g: &mut Gen) -> ReplCursor {
    let seg = g.option(|g| (g.u32(), g.u64_in(SEGMENT_HEADER_LEN..u64::MAX)));
    ReplCursor {
        segment: seg.map(|(s, _)| s),
        offset: seg.map(|(_, o)| o).unwrap_or(0),
    }
}

fn wal_frame(g: &mut Gen) -> Vec<u8> {
    let payload = g.vec(0..200, Gen::u8);
    let mut frame = Vec::with_capacity(payload.len() + FRAME_OVERHEAD as usize);
    encode_frame_into(&mut frame, &payload);
    frame
}

fn frame(g: &mut Gen) -> ReplFrame {
    match g.usize_in(0..6) {
        0 => ReplFrame::Hello(cursor(g)),
        1 => ReplFrame::Reset {
            first_segment: g.u32(),
        },
        2 => ReplFrame::Segment { index: g.u32() },
        3 => {
            let (segment, frame, slack) = (g.u32(), wal_frame(g), g.u32());
            let end_offset = SEGMENT_HEADER_LEN + frame.len() as u64 + u64::from(slack);
            ReplFrame::Record {
                segment,
                end_offset,
                frame,
            }
        }
        4 => ReplFrame::Tip {
            segment: g.u32(),
            offset: g.u64(),
        },
        _ => ReplFrame::Error(g.string(" -~", 0..101)),
    }
}

#[test]
fn any_valid_frame_stream_round_trips() {
    check(256, |g| {
        let frames = g.vec(1..10, frame);
        let mut buf = BytesMut::new();
        for frame in &frames {
            encode_repl(&mut buf, frame).expect("valid frames encode");
        }
        let mut decoded = Vec::new();
        while let Some(frame) = decode_repl(&mut buf).expect("valid stream decodes") {
            decoded.push(frame);
        }
        assert!(buf.is_empty(), "decode must consume the whole stream");
        assert_eq!(decoded, frames);
    });
}

#[test]
fn torn_streams_wait_at_every_cut_without_consuming() {
    check(256, |g| {
        let (frames, cut_fraction) = (g.vec(1..6, frame), g.f64_in(0.0..1.0));
        let mut buf = BytesMut::new();
        for frame in &frames {
            encode_repl(&mut buf, frame).expect("encode");
        }
        let full = buf.to_vec();
        let cut = (full.len() as f64 * cut_fraction) as usize;
        let mut partial = BytesMut::from(&full[..cut]);
        // Drain complete frames; the torn remainder must wait, not error,
        // and must not be consumed.
        let mut complete = 0;
        while let Some(_frame) = decode_repl(&mut partial).expect("prefix of valid stream") {
            complete += 1;
        }
        assert!(complete <= frames.len());
        let leftover = partial.len();
        assert_eq!(decode_repl(&mut partial).expect("still waiting"), None);
        assert_eq!(partial.len(), leftover, "torn decode must not consume");
        // Feeding the missing suffix completes the stream exactly.
        partial.extend_from_slice(&full[cut..]);
        while let Some(_frame) = decode_repl(&mut partial).expect("completed stream") {
            complete += 1;
        }
        assert_eq!(complete, frames.len());
        assert!(partial.is_empty());
    });
}

#[test]
fn any_single_bit_flip_in_a_record_is_rejected() {
    check(256, |g| {
        let payload = g.vec(1..200, Gen::u8);
        let (flip_pos, flip_bit) = (g.u16(), g.u64_in(0..8));
        let mut frame = Vec::new();
        encode_frame_into(&mut frame, &payload);
        assert_eq!(
            verify_record_frame(&frame).expect("pristine frame verifies"),
            &payload[..]
        );
        let mut damaged = frame.clone();
        let at = flip_pos as usize % damaged.len();
        damaged[at] ^= 1 << flip_bit;
        assert!(
            verify_record_frame(&damaged).is_err(),
            "bit {flip_bit} at byte {at} went undetected"
        );
    });
}

#[test]
fn forged_cursors_are_rejected_at_encode_and_decode() {
    check(256, |g| {
        let (segment, offset) = (g.option(Gen::u32), g.u64());
        let cursor = ReplCursor { segment, offset };
        let consistent = match segment {
            Some(_) => offset >= SEGMENT_HEADER_LEN,
            None => offset == 0,
        };
        let mut buf = BytesMut::new();
        let encoded = encode_repl(&mut buf, &ReplFrame::Hello(cursor));
        assert_eq!(encoded.is_ok(), consistent);
        if consistent {
            let decoded = decode_repl(&mut buf).expect("decode").expect("complete");
            assert_eq!(decoded, ReplFrame::Hello(cursor));
        }
    });
}

#[test]
fn forged_record_end_offsets_are_rejected() {
    check(256, |g| {
        let (payload, short_by) = (g.vec(0..100, Gen::u8), g.u64_in(1..64));
        let mut frame = Vec::new();
        encode_frame_into(&mut frame, &payload);
        // An end offset that can't hold the record itself is a forgery.
        let minimum = SEGMENT_HEADER_LEN + frame.len() as u64;
        let forged = ReplFrame::Record {
            segment: 0,
            end_offset: minimum.saturating_sub(short_by),
            frame,
        };
        let mut buf = BytesMut::new();
        assert!(encode_repl(&mut buf, &forged).is_err());
    });
}

#[test]
fn resume_from_any_record_boundary_replays_exactly_the_suffix() {
    check(256, |g| {
        let payloads = g.vec(1..20, |g| g.vec(1..50, Gen::u8));
        let resume_at = g.u16();
        // Build a segment body the way the primary does and compute its
        // record boundaries, then check that resuming at any of them
        // yields exactly the records past that point — the invariant the
        // source's cursor validation and tail shipping both rely on.
        let mut body = Vec::new();
        let mut bounds = vec![0usize];
        for p in &payloads {
            encode_frame_into(&mut body, p);
            bounds.push(body.len());
        }
        let k = resume_at as usize % bounds.len();
        let (records, torn) = scan(&body[bounds[k]..]);
        assert!(!torn);
        assert_eq!(records, payloads[k..].to_vec());
        // A cut strictly inside a record is *not* a clean boundary: the
        // scan reports a defect rather than silently resyncing.
        if bounds[k] + 1 < body.len() && k < payloads.len() {
            let (_, mid_torn) = scan(&body[bounds[k] + 1..]);
            assert!(mid_torn || body[bounds[k] + 1..].is_empty());
        }
    });
}
