//! The replication wire protocol: length-prefixed frames shipping WAL
//! segments from a primary store to follower replicas.
//!
//! ```text
//! frame    := magic(0xFC) opcode(u8) len(u32 LE) payload(len bytes)
//! HELLO    (0x01): version(u16) flags(u8) segment(u32) offset(u64) — the
//!                  follower's resume cursor
//! RESET    (0x82): first_segment(u32) — bootstrap: the follower discards
//!                  its local segments; every segment from the first
//!                  follows
//! SEGMENT  (0x83): index(u32) — the records that follow belong to this
//!                  segment (sent before the first record of every
//!                  segment, including a resumed one)
//! RECORD   (0x84): segment(u32) end_offset(u64) frame — one raw WAL
//!                  frame (len, crc32, payload) ending at `end_offset`
//!                  within `segment`
//! TIP      (0x85): segment(u32) offset(u64) — the primary's current
//!                  append position, for lag accounting and liveness
//! ERROR    (0x86): UTF-8 message; the connection is finished
//! ```
//!
//! The frame layer is the verdict wire's own,
//! [`freephish_serve::proto::Framing`], run with this wire's magic byte
//! and payload cap ([`REPL_FRAMING`]); payload fields go through
//! `freephish_store`'s `PayloadReader` and `PayloadWriter`. Only the
//! opcode table above is this module's. The magic byte differs from the
//! verdict wire's `0xFB` so a frame aimed at the wrong port is rejected
//! on its first byte. Torn frames wait for more bytes ([`decode_repl`]
//! returns `Ok(None)` without consuming); structurally impossible frames
//! — oversized payloads, unknown opcodes, bytes left past a frame's
//! fields, cursors whose fields contradict each other — are hard errors
//! that close the connection, exactly like the verdict wire. Version 1 also shipped store snapshots, which stores no longer
//! write; its `HELLO` is refused as an unsupported version. Record
//! payload integrity is separate from framing:
//! [`verify_record_frame`] re-checks the WAL frame with the store's own
//! decoder so a follower never writes a byte the primary's checksum does
//! not vouch for.

use bytes::BytesMut;
use freephish_serve::proto::Framing;
use freephish_store::segment::{decode_frame, FRAME_OVERHEAD, MAX_RECORD_LEN, SEGMENT_HEADER_LEN};
use freephish_store::PayloadWriter;

/// First byte of every replication frame.
pub const REPL_MAGIC: u8 = 0xFC;
/// Protocol version carried in `HELLO`.
pub const REPL_VERSION: u16 = 2;
/// Hard cap on a frame's declared payload: the largest WAL record plus
/// the record frame's own overhead and this protocol's field prefixes.
pub const MAX_REPL_PAYLOAD: usize = MAX_RECORD_LEN as usize + FRAME_OVERHEAD as usize + 16;
/// The replication wire's framing.
pub const REPL_FRAMING: Framing = Framing {
    magic: REPL_MAGIC,
    max_payload: MAX_REPL_PAYLOAD,
};

const OP_HELLO: u8 = 0x01;
const OP_RESET: u8 = 0x82;
const OP_SEGMENT: u8 = 0x83;
const OP_RECORD: u8 = 0x84;
const OP_TIP: u8 = 0x85;
const OP_ERROR: u8 = 0x86;

const FLAG_HAS_SEGMENT: u8 = 0b01;
/// `HELLO` payload: version, flags, segment, offset.
const HELLO_LEN: usize = 15;

/// A follower's durable position in the primary's WAL: everything up to
/// (`segment`, `offset`) has been applied locally. A fresh follower sends
/// the empty cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplCursor {
    /// Last segment with locally applied bytes, if any.
    pub segment: Option<u32>,
    /// Bytes of that segment applied (including its 8-byte header);
    /// must be 0 when `segment` is `None`.
    pub offset: u64,
}

impl ReplCursor {
    /// The cursor of a follower with no local state.
    pub fn empty() -> ReplCursor {
        ReplCursor {
            segment: None,
            offset: 0,
        }
    }

    /// Structural validity: a segment cursor must point at or past the
    /// segment header, and a segment-less cursor has no offset. Forged
    /// or corrupted cursors that violate this are protocol errors.
    pub fn is_consistent(&self) -> bool {
        match self.segment {
            Some(_) => self.offset >= SEGMENT_HEADER_LEN,
            None => self.offset == 0,
        }
    }
}

/// One replication frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplFrame {
    /// Follower → primary: version + resume cursor.
    Hello(ReplCursor),
    /// Bootstrap: discard local segments; the primary's segments follow,
    /// starting at `first_segment`.
    Reset {
        /// The primary's first segment.
        first_segment: u32,
    },
    /// The records that follow belong to segment `index`.
    Segment {
        /// Segment index.
        index: u32,
    },
    /// One raw WAL frame of `segment`, ending at `end_offset`.
    Record {
        /// Segment the record belongs to.
        segment: u32,
        /// Byte offset just past this record's frame (a valid
        /// truncation point, and the follower's next cursor offset).
        end_offset: u64,
        /// The raw WAL frame: `len(u32 LE) crc32(u32 LE) payload`.
        frame: Vec<u8>,
    },
    /// The primary's current append position.
    Tip {
        /// Segment of the primary's tail.
        segment: u32,
        /// Its current length in bytes.
        offset: u64,
    },
    /// Protocol failure; the peer closes after sending this.
    Error(String),
}

/// Append the frame encoding of `frame` to `buf`. Inconsistent cursors
/// and oversized payloads are refused at encode time so a conforming
/// peer can never emit what decode would reject.
pub fn encode_repl(buf: &mut BytesMut, frame: &ReplFrame) -> Result<(), String> {
    // HELLO's is the largest fixed-size payload; a RECORD sizes its own.
    let mut payload = PayloadWriter::with_capacity(HELLO_LEN);
    let opcode = match frame {
        ReplFrame::Hello(cursor) => {
            if !cursor.is_consistent() {
                return Err(format!("inconsistent cursor: {cursor:?}"));
            }
            payload.put_u16(REPL_VERSION);
            payload.put_u8(cursor.segment.map_or(0, |_| FLAG_HAS_SEGMENT));
            payload.put_u32(cursor.segment.unwrap_or(0));
            payload.put_u64(cursor.offset);
            OP_HELLO
        }
        ReplFrame::Reset { first_segment } => {
            payload.put_u32(*first_segment);
            OP_RESET
        }
        ReplFrame::Segment { index } => {
            payload.put_u32(*index);
            OP_SEGMENT
        }
        ReplFrame::Record {
            segment,
            end_offset,
            frame,
        } => {
            if frame.len() < FRAME_OVERHEAD as usize {
                return Err(format!("record frame of {} bytes is torn", frame.len()));
            }
            if frame.len() + 12 > MAX_REPL_PAYLOAD {
                return Err(format!("record frame of {} exceeds frame cap", frame.len()));
            }
            if *end_offset < SEGMENT_HEADER_LEN + frame.len() as u64 {
                return Err(format!(
                    "end offset {end_offset} precedes the record itself"
                ));
            }
            payload = PayloadWriter::with_capacity(12 + frame.len());
            payload.put_u32(*segment);
            payload.put_u64(*end_offset);
            payload.put_raw(frame);
            OP_RECORD
        }
        ReplFrame::Tip { segment, offset } => {
            payload.put_u32(*segment);
            payload.put_u64(*offset);
            OP_TIP
        }
        ReplFrame::Error(msg) => {
            payload.put_raw(&msg.as_bytes()[..msg.len().min(1024)]);
            OP_ERROR
        }
    };
    REPL_FRAMING.put_frame(buf, opcode, &payload.into_bytes());
    Ok(())
}

/// Decode one complete replication frame off the front of `buf`, if
/// present.
pub fn decode_repl(buf: &mut BytesMut) -> Result<Option<ReplFrame>, String> {
    REPL_FRAMING.decode_frame(buf, |opcode, payload| {
        let frame = match opcode {
            OP_HELLO => {
                // The version comes first, so a peer of another version
                // is told so whatever its HELLO's length.
                let version = payload.get_u16()?;
                if version != REPL_VERSION {
                    return Err(format!("unsupported replication version {version}"));
                }
                let flags = payload.get_u8()?;
                if flags & !FLAG_HAS_SEGMENT != 0 {
                    return Err(format!("unknown HELLO flags 0x{flags:02x}"));
                }
                let segment = payload.get_u32()?;
                let cursor = ReplCursor {
                    segment: (flags & FLAG_HAS_SEGMENT != 0).then_some(segment),
                    offset: payload.get_u64()?,
                };
                if !cursor.is_consistent() {
                    return Err(format!("forged cursor: {cursor:?}"));
                }
                ReplFrame::Hello(cursor)
            }
            OP_RESET => ReplFrame::Reset {
                first_segment: payload.get_u32()?,
            },
            OP_SEGMENT => ReplFrame::Segment {
                index: payload.get_u32()?,
            },
            OP_RECORD => {
                let segment = payload.get_u32()?;
                let end_offset = payload.get_u64()?;
                let frame = payload.rest();
                if frame.len() < FRAME_OVERHEAD as usize {
                    return Err(format!("record frame of {} bytes is torn", frame.len()));
                }
                if end_offset < SEGMENT_HEADER_LEN + frame.len() as u64 {
                    return Err(format!("forged record end offset {end_offset}"));
                }
                ReplFrame::Record {
                    segment,
                    end_offset,
                    frame: frame.to_vec(),
                }
            }
            OP_TIP => ReplFrame::Tip {
                segment: payload.get_u32()?,
                offset: payload.get_u64()?,
            },
            OP_ERROR => ReplFrame::Error(String::from_utf8_lossy(payload.rest()).into_owned()),
            other => return Err(format!("unknown replication opcode 0x{other:02x}")),
        };
        payload.expect_end()?;
        Ok(frame)
    })
}

/// Verify a shipped WAL record frame end to end with the store's frame
/// decoder: the declared length must match the bytes on hand and the
/// CRC32 must vouch for the payload. Returns the payload slice on
/// success. This is the check that makes a follower's copy exactly as
/// trustworthy as the primary's own recovery scan.
pub fn verify_record_frame(frame: &[u8]) -> Result<&[u8], String> {
    match decode_frame(frame) {
        Ok((payload, len)) if len == frame.len() => Ok(payload),
        Ok((_, len)) => Err(format!(
            "record frame carries {} bytes past its end",
            frame.len() - len
        )),
        Err(torn) => Err(format!("shipped record rejected: {torn}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freephish_store::segment::encode_frame_into;

    fn roundtrip(frame: ReplFrame) -> ReplFrame {
        let mut buf = BytesMut::new();
        encode_repl(&mut buf, &frame).expect("encode");
        let got = decode_repl(&mut buf).expect("decode").expect("complete");
        assert!(buf.is_empty(), "decode consumed the whole frame");
        got
    }

    #[test]
    fn frames_round_trip() {
        let mut wal = Vec::new();
        encode_frame_into(&mut wal, b"payload");
        for frame in [
            ReplFrame::Hello(ReplCursor::empty()),
            ReplFrame::Hello(ReplCursor {
                segment: Some(7),
                offset: 99,
            }),
            ReplFrame::Reset { first_segment: 0 },
            ReplFrame::Segment { index: 4 },
            ReplFrame::Record {
                segment: 4,
                end_offset: 8 + wal.len() as u64,
                frame: wal.clone(),
            },
            ReplFrame::Tip {
                segment: 9,
                offset: 4096,
            },
            ReplFrame::Error("boom".to_string()),
        ] {
            assert_eq!(roundtrip(frame.clone()), frame);
        }
    }

    #[test]
    fn torn_frames_wait_without_consuming() {
        let mut buf = BytesMut::new();
        encode_repl(&mut buf, &ReplFrame::Segment { index: 1 }).unwrap();
        let full = buf.clone();
        for cut in 0..full.len() {
            let mut partial = BytesMut::from(&full[..cut]);
            let before = partial.len();
            assert_eq!(
                decode_repl(&mut partial).expect("torn is not an error"),
                None
            );
            assert_eq!(partial.len(), before, "torn decode must not consume");
        }
    }

    #[test]
    fn inconsistent_cursors_are_refused_both_ways() {
        let forged = ReplCursor {
            segment: Some(1),
            offset: 3, // inside the segment header: impossible
        };
        let mut buf = BytesMut::new();
        assert!(encode_repl(&mut buf, &ReplFrame::Hello(forged)).is_err());
        // Hand-build the same forged HELLO and check decode rejects it.
        let mut payload = [0u8; HELLO_LEN];
        payload[..2].copy_from_slice(&REPL_VERSION.to_le_bytes());
        payload[2] = FLAG_HAS_SEGMENT;
        payload[3..7].copy_from_slice(&1u32.to_le_bytes());
        payload[7..].copy_from_slice(&3u64.to_le_bytes());
        let mut raw = BytesMut::new();
        REPL_FRAMING.put_frame(&mut raw, OP_HELLO, &payload);
        assert!(decode_repl(&mut raw).is_err());
    }

    #[test]
    fn a_version_1_peer_is_refused() {
        // Version 1's HELLO: version, flags, snapshot sequence, segment,
        // offset.
        let mut payload = [0u8; 19];
        payload[..2].copy_from_slice(&1u16.to_le_bytes());
        let mut raw = BytesMut::new();
        REPL_FRAMING.put_frame(&mut raw, OP_HELLO, &payload);
        let err = decode_repl(&mut raw).unwrap_err();
        assert_eq!(err, "unsupported replication version 1");
        // Version 1's SNAPSHOT frame is no frame of this version.
        let mut raw = BytesMut::new();
        REPL_FRAMING.put_frame(&mut raw, 0x81, &[0; 8]);
        assert!(decode_repl(&mut raw).is_err());
    }

    #[test]
    fn record_checksums_are_verified() {
        let mut wal = Vec::new();
        encode_frame_into(&mut wal, b"checked payload");
        assert_eq!(verify_record_frame(&wal).unwrap(), b"checked payload");
        let mut flipped = wal.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert!(verify_record_frame(&flipped).is_err());
        let mut short = wal.clone();
        short.truncate(wal.len() - 1);
        assert!(verify_record_frame(&short).is_err());
    }

    #[test]
    fn wrong_magic_is_an_error() {
        let mut buf = BytesMut::from(&[0xFB, 0x01, 0, 0, 0, 0][..]);
        assert!(decode_repl(&mut buf).is_err());
    }
}
