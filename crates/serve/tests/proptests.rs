//! Property tests over the binary frame codec — round trips for arbitrary
//! requests and replies, torn-frame waiting at every cut point, rejection
//! of oversized frames, decoder totality on arbitrary bytes, and decoders
//! that consume exactly one complete frame, decoded or refused — and over
//! the verdict index, whose every snapshot equals a two-level map model.

use bytes::BytesMut;
use freephish_mapidx::read::PROBE_LANE;
use freephish_mapidx::{IndexWriter, SnapshotIndex};
use freephish_serve::proto::{self, MAX_FRAME_PAYLOAD};
use freephish_serve::{
    decode_bin_reply, decode_bin_request, encode_bin_reply, encode_bin_request, BinReply,
    BinRequest, IndexSnapshot, ShardedIndex, UrlChecker, Verdict, MAX_BATCH,
};
use freephish_simclock::prop::{check, Gen};
use freephish_store::testutil::TempDir;
use std::collections::HashMap;

fn arb_url(g: &mut Gen) -> String {
    g.string("a-z0-9./:?=-", 1..81)
}

fn arb_verdict(g: &mut Gen) -> Verdict {
    if g.bool() {
        Verdict::Phishing(g.f64_in(0.0..1.0))
    } else {
        Verdict::Safe(g.f64_in(0.0..1.0))
    }
}

fn arb_bin_request(g: &mut Gen) -> BinRequest {
    match g.usize_in(0..4) {
        0 => BinRequest::Check(arb_url(g)),
        1 => BinRequest::CheckN(g.vec(0..20, arb_url)),
        2 => BinRequest::Add(arb_url(g), g.f64_in(0.0..1.0)),
        _ => BinRequest::Stats,
    }
}

fn arb_bin_reply(g: &mut Gen) -> BinReply {
    match g.usize_in(0..6) {
        0 => BinReply::Verdict(arb_verdict(g)),
        1 => BinReply::VerdictN(g.vec(0..20, arb_verdict)),
        2 => BinReply::Ok(g.u64()),
        3 => BinReply::Stats(g.string(" -~", 0..61)),
        4 => BinReply::Error(g.string(" -~", 0..61)),
        _ => BinReply::Busy,
    }
}

/// Every encodable request decodes back to itself, even when several
/// frames are pipelined into one buffer.
#[test]
fn request_frames_round_trip() {
    check(256, |g| {
        let reqs = g.vec(1..8, arb_bin_request);
        let mut buf = BytesMut::new();
        for r in &reqs {
            encode_bin_request(&mut buf, r).unwrap();
        }
        for r in &reqs {
            let got = decode_bin_request(&mut buf).unwrap().unwrap();
            assert_eq!(&got, r);
        }
        assert!(buf.is_empty());
    });
}

/// Every reply decodes back to itself (scores travel as exact f64 bits).
#[test]
fn reply_frames_round_trip() {
    check(256, |g| {
        let replies = g.vec(1..8, arb_bin_reply);
        let mut buf = BytesMut::new();
        for r in &replies {
            encode_bin_reply(&mut buf, r);
        }
        for r in &replies {
            let got = decode_bin_reply(&mut buf).unwrap().unwrap();
            assert_eq!(&got, r);
        }
        assert!(buf.is_empty());
    });
}

/// A frame cut at any byte boundary is torn, not an error, and the
/// decoder consumes nothing while waiting.
#[test]
fn torn_request_frames_wait() {
    check(256, |g| {
        let req = arb_bin_request(g);
        let mut full = BytesMut::new();
        encode_bin_request(&mut full, &req).unwrap();
        let cut = ((full.len() as f64) * g.f64_in(0.0..1.0)) as usize;
        if cut < full.len() {
            let mut partial = BytesMut::from(&full[..cut]);
            assert_eq!(decode_bin_request(&mut partial), Ok(None));
            assert_eq!(partial.len(), cut);
        }
    });
}

/// The request decoder never panics on arbitrary bytes; on a buffer
/// that does not start with the magic byte it errors (line-protocol
/// bytes can never be misread as a frame).
#[test]
fn request_decoder_total() {
    check(256, |g| {
        let data = g.vec(0..64, Gen::u8);
        let mut buf = BytesMut::from(&data[..]);
        let result = decode_bin_request(&mut buf);
        if let Some(&first) = data.first() {
            if first != proto::MAGIC {
                assert!(result.is_err());
            }
        } else {
            assert_eq!(result, Ok(None));
        }
    });
}

/// The reply decoder never panics on arbitrary bytes.
#[test]
fn reply_decoder_total() {
    check(256, |g| {
        let data = g.vec(0..64, Gen::u8);
        let _ = decode_bin_reply(&mut BytesMut::from(&data[..]));
    });
}

/// Frames declaring an oversized payload are rejected regardless of
/// opcode, before any payload bytes arrive.
#[test]
fn oversized_declared_payload_rejected() {
    check(256, |g| {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&[proto::MAGIC, g.u8()]);
        let extra = g.u64_in(1..1024) as u32;
        buf.extend_from_slice(&((MAX_FRAME_PAYLOAD as u32) + extra).to_le_bytes());
        assert!(decode_bin_request(&mut buf).is_err());
    });
}

/// Batches over MAX_BATCH are refused at encode time and, if forged
/// on the wire, at decode time.
#[test]
fn over_batch_rejected() {
    check(256, |g| {
        let count = g.u64_in(MAX_BATCH as u64 + 1..1 << 16) as u16;
        let urls: Vec<String> = (0..8).map(|i| format!("u{i}")).collect();
        let mut forged = BytesMut::new();
        // Re-encode a small legal batch, then forge the count field up.
        encode_bin_request(&mut forged, &BinRequest::CheckN(urls)).unwrap();
        let count_bytes = count.to_le_bytes();
        forged[6] = count_bytes[0];
        forged[7] = count_bytes[1];
        assert!(decode_bin_request(&mut forged).is_err());
    });
}

/// A buffer that often starts with a whole frame: an encoded request or
/// reply with one byte perhaps flipped, or the magic, an opcode (mostly
/// one the protocol knows), a short declared length and that many drawn
/// payload bytes; then sometimes cut short, sometimes followed by more.
fn arb_frame_bytes(g: &mut Gen) -> Vec<u8> {
    let mut buf = BytesMut::new();
    match g.usize_in(0..3) {
        0 => encode_bin_request(&mut buf, &arb_bin_request(g)).unwrap(),
        1 => encode_bin_reply(&mut buf, &arb_bin_reply(g)),
        _ => {
            let known = [0x01, 0x02, 0x03, 0x04, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86];
            let opcode = if g.bool() { *g.pick(&known) } else { g.u8() };
            let payload = g.vec(0..40, Gen::u8);
            buf.extend_from_slice(&[proto::MAGIC, opcode]);
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&payload);
        }
    }
    let mut data = buf.to_vec();
    if g.bool() {
        let at = g.usize_in(0..data.len());
        data[at] ^= 1 << g.usize_in(0..8);
    }
    match g.usize_in(0..3) {
        0 => data.truncate(g.usize_in(0..data.len() + 1)),
        1 => data.extend(g.vec(1..16, Gen::u8)),
        _ => {}
    }
    data
}

/// The length of the complete, well-framed frame at the front of `data`.
fn complete_frame(data: &[u8]) -> Option<usize> {
    if data.len() < proto::FRAME_HEADER || data[0] != proto::MAGIC {
        return None;
    }
    let len = u32::from_le_bytes(data[2..6].try_into().unwrap()) as usize;
    let frame = proto::FRAME_HEADER + len;
    (len <= MAX_FRAME_PAYLOAD && data.len() >= frame).then_some(frame)
}

/// Both decoders consume exactly the frame at the front of the buffer
/// when it is complete, whether it decoded or its payload was refused,
/// and nothing while it is torn or its framing is bad.
#[test]
fn decoders_consume_exactly_the_complete_frame() {
    check(1024, |g| {
        let data = arb_frame_bytes(g);
        let frame = complete_frame(&data);
        for reply in [false, true] {
            let mut buf = BytesMut::from(&data[..]);
            let decoded = match reply {
                false => decode_bin_request(&mut buf).map(|r| r.is_some()),
                true => decode_bin_reply(&mut buf).map(|r| r.is_some()),
            };
            let consumed = data.len() - buf.len();
            match (frame, decoded) {
                (Some(len), Ok(true) | Err(_)) => assert_eq!(consumed, len, "reply={reply}"),
                (None, Ok(false) | Err(_)) => assert_eq!(consumed, 0, "reply={reply}"),
                (Some(_), Ok(false)) => panic!("a complete frame read as torn (reply={reply})"),
                (None, Ok(true)) => panic!("decoded an incomplete frame (reply={reply})"),
            }
        }
    });
}

/// The index as a reader must see it: the delta's map over the base's.
struct TwoLevel {
    delta: HashMap<String, f64>,
    base: HashMap<String, f64>,
}

impl TwoLevel {
    fn get(&self, url: &str) -> Option<f64> {
        self.delta.get(url).or_else(|| self.base.get(url)).copied()
    }
}

/// Bake `entries` into a fresh file under `dir` and map it.
fn bake(dir: &TempDir, name: &str, entries: &HashMap<String, f64>) -> SnapshotIndex {
    let out = dir.path().join(name);
    let mut writer = IndexWriter::create(dir.path().join(format!("{name}.spill"))).unwrap();
    for (url, score) in entries {
        writer.add(url, *score).unwrap();
    }
    writer.finish(&out).unwrap();
    SnapshotIndex::open(&out).unwrap()
}

/// Every snapshot of one index equals "delta map over base map" at its
/// generation, slot for slot and bit for bit. Publishes — mostly a few
/// entries, so heads fill and fold, sometimes hundreds, beyond any
/// shard's head cap — are interleaved with base swaps, each a bake of a
/// drawn subset of the URLs known so far under fresh scores, so delta
/// entries shadow baked ones that differ. Snapshots taken at drawn points
/// are read after every later write, in frames of 0, 1, lane − 1, lane,
/// lane + 1 and 256 URLs drawn with repeats from the known URLs and from
/// URLs no level holds.
#[test]
fn every_snapshot_equals_the_delta_over_the_base_at_its_generation() {
    check(64, |g| {
        let dir = TempDir::new("prop-two-level");
        let index = ShardedIndex::new(4);
        let mut model = TwoLevel {
            delta: HashMap::new(),
            base: HashMap::new(),
        };
        let mut known: Vec<String> = Vec::new();
        let mut generation = 0;
        let mut snapshots: Vec<(IndexSnapshot, u64, TwoLevel)> = Vec::new();
        for step in 0..g.usize_in(1..48) {
            if g.usize_in(0..6) == 0 {
                let mut baked = HashMap::new();
                for url in &known {
                    if g.bool() {
                        baked.insert(url.clone(), g.f64_in(0.0..1.0));
                    }
                }
                // Some URLs only the base holds.
                for _ in 0..g.usize_in(0..20) {
                    let url = format!("https://b{}.weebly.com/", known.len());
                    known.push(url.clone());
                    baked.insert(url, g.f64_in(0.0..1.0));
                }
                generation = index.set_base(bake(&dir, &format!("b{step}.mapidx"), &baked));
                model.base = baked;
            } else {
                let size = if g.usize_in(0..10) < 7 {
                    g.usize_in(1..9)
                } else {
                    g.usize_in(1..300)
                };
                let mut batch = Vec::with_capacity(size);
                for _ in 0..size {
                    let url = if !known.is_empty() && g.usize_in(0..10) < 3 {
                        g.pick(&known).clone()
                    } else {
                        let url = format!("https://d{}.weebly.com/", known.len());
                        known.push(url.clone());
                        url
                    };
                    batch.push((url, g.f64_in(0.0..1.0)));
                }
                model.delta.extend(batch.iter().cloned());
                generation = index.publish(batch);
            }
            assert_eq!(index.generation(), generation);
            assert_eq!(index.len(), model.delta.len());
            assert_eq!(index.base_len(), model.base.len() as u64);
            if g.usize_in(0..4) == 0 {
                let at = TwoLevel {
                    delta: model.delta.clone(),
                    base: model.base.clone(),
                };
                snapshots.push((index.snapshot(), generation, at));
            }
        }
        snapshots.push((index.snapshot(), generation, model));

        let absent: Vec<String> = (0..32)
            .map(|i| format!("https://absent{i}.weebly.com/"))
            .collect();
        for (snap, generation, at) in &snapshots {
            assert_eq!(snap.generation(), *generation);
            for n in [0, 1, PROBE_LANE - 1, PROBE_LANE, PROBE_LANE + 1, 256] {
                let frame: Vec<&str> = (0..n)
                    .map(|_| match g.bool() && !known.is_empty() {
                        true => g.pick(&known).as_str(),
                        false => g.pick(&absent).as_str(),
                    })
                    .collect();
                let mut out = vec![None; n];
                snap.score_many(&frame, &mut out);
                for (slot, url) in frame.iter().enumerate() {
                    let want = at.get(url).map(f64::to_bits);
                    assert_eq!(out[slot].map(f64::to_bits), want, "{url} at {generation}");
                }
            }
        }
    });
}
