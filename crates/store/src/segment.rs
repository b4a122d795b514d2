//! Segment files: the on-disk unit of the write-ahead log.
//!
//! A segment is `wal-<index>.log`: an 8-byte header (`FPWL` magic + the
//! segment index, little-endian) followed by length-prefixed,
//! CRC32-checksummed records:
//!
//! ```text
//! record := len:u32le | crc32(payload):u32le | payload[len]
//! ```
//!
//! A record holds at least one byte, so a zeroed region — whose frames
//! would read as `len 0, crc 0`, the checksum of nothing — is never a
//! record. Scanning validates every frame and reports the first defect — a
//! partial frame, an implausible length (zero or over
//! [`MAX_RECORD_LEN`]), or a checksum mismatch — as a *torn tail*
//! together with the byte offset of the last good record, so recovery can
//! truncate the file there and keep the valid prefix.

use crate::crc32::crc32;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"FPWL";
/// Header size: magic + segment index.
pub const SEGMENT_HEADER_LEN: u64 = 8;
/// Frame overhead per record: length + checksum.
pub const FRAME_OVERHEAD: u64 = 8;
/// Upper bound on a single record; larger lengths are treated as
/// corruption, not allocation requests.
pub const MAX_RECORD_LEN: u32 = 1 << 26;

/// File name of segment `index`.
pub fn segment_file_name(index: u32) -> String {
    format!("wal-{index:010}.log")
}

/// Parse a segment file name back to its index.
pub fn parse_segment_name(name: &str) -> Option<u32> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Append one framed record to `buf`.
pub fn encode_frame_into(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Why a scan stopped before the end of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Torn {
    /// Fewer bytes remain than a frame header or its declared payload.
    PartialFrame,
    /// The declared length is zero or exceeds [`MAX_RECORD_LEN`].
    BadLength(u32),
    /// The payload does not match its checksum.
    BadChecksum,
}

impl std::fmt::Display for Torn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Torn::PartialFrame => write!(f, "partial frame"),
            Torn::BadLength(n) => write!(f, "implausible record length {n}"),
            Torn::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

/// One record recovered from a segment.
#[derive(Debug, Clone)]
pub struct ScannedRecord {
    /// The record payload.
    pub payload: Vec<u8>,
    /// Byte offset just past this record's frame — a valid truncation
    /// point.
    pub end_offset: u64,
}

/// Result of scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// Segment index from the header.
    pub index: u32,
    /// Every record with a valid frame, in file order.
    pub records: Vec<ScannedRecord>,
    /// Offset just past the last good record (the header alone when no
    /// record is valid) — where a torn tail should be truncated.
    pub good_len: u64,
    /// The first defect found, if the file did not end cleanly.
    pub torn: Option<Torn>,
    /// Actual file length.
    pub file_len: u64,
    /// Whether the 8-byte header itself was intact.
    pub header_ok: bool,
}

/// Decode the frame at the start of `bytes`: its payload and the frame's
/// whole length. This is the one check every reader applies to a frame —
/// segment scans, tail polls, and a replica verifying a shipped record.
pub fn decode_frame(bytes: &[u8]) -> Result<(&[u8], usize), Torn> {
    let header = bytes
        .get(..FRAME_OVERHEAD as usize)
        .ok_or(Torn::PartialFrame)?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len == 0 || len > MAX_RECORD_LEN {
        return Err(Torn::BadLength(len));
    }
    let end = FRAME_OVERHEAD as usize + len as usize;
    let payload = bytes
        .get(FRAME_OVERHEAD as usize..end)
        .ok_or(Torn::PartialFrame)?;
    if crc32(payload) != crc {
        return Err(Torn::BadChecksum);
    }
    Ok((payload, end))
}

/// Decode frames from `bytes` starting at `offset`, up to the first
/// defect. Returns the records, the offset just past the last good one,
/// and the defect, if any. Shared by segment scans and tail polls.
pub(crate) fn scan_frames(
    bytes: &[u8],
    mut offset: usize,
) -> (Vec<ScannedRecord>, u64, Option<Torn>) {
    let mut records = Vec::new();
    let torn = loop {
        if offset == bytes.len() {
            break None; // clean end
        }
        match decode_frame(&bytes[offset..]) {
            Ok((payload, len)) => {
                offset += len;
                records.push(ScannedRecord {
                    payload: payload.to_vec(),
                    end_offset: offset as u64,
                });
            }
            Err(torn) => break Some(torn),
        }
    };
    (records, offset as u64, torn)
}

/// Whether `bytes` open with the header of segment `index`.
pub(crate) fn header_ok(bytes: &[u8], index: u32) -> bool {
    bytes.len() >= SEGMENT_HEADER_LEN as usize
        && bytes[..4] == SEGMENT_MAGIC
        && u32::from_le_bytes(bytes[4..8].try_into().unwrap()) == index
}

/// Scan one segment file, validating the header and every frame.
pub fn scan_segment(path: &Path) -> std::io::Result<SegmentScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let file_len = bytes.len() as u64;

    let index = parse_segment_name(
        path.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default(),
    )
    .unwrap_or(0);
    let header_ok = header_ok(&bytes, index);
    if !header_ok {
        return Ok(SegmentScan {
            index,
            records: Vec::new(),
            good_len: 0,
            torn: Some(Torn::PartialFrame),
            file_len,
            header_ok,
        });
    }
    let (records, good_len, torn) = scan_frames(&bytes, SEGMENT_HEADER_LEN as usize);
    Ok(SegmentScan {
        index,
        records,
        good_len,
        torn,
        file_len,
        header_ok,
    })
}

/// Buffered appender for the active segment. Appends accumulate in memory
/// until [`SegmentWriter::flush`] (write(2)) or [`SegmentWriter::sync`]
/// (write + fdatasync) — the store's fsync policy decides when to call
/// which.
#[derive(Debug)]
pub(crate) struct SegmentWriter {
    file: File,
    index: u32,
    /// Logical length: header + every appended frame (flushed or not).
    len: u64,
    buf: Vec<u8>,
}

impl SegmentWriter {
    /// Create segment `index` in `dir` and write its header (flushed, not
    /// yet fsynced).
    pub fn create(dir: &Path, index: u32) -> std::io::Result<SegmentWriter> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(segment_file_name(index)))?;
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
        header.extend_from_slice(&SEGMENT_MAGIC);
        header.extend_from_slice(&index.to_le_bytes());
        file.write_all(&header)?;
        Ok(SegmentWriter {
            file,
            index,
            len: SEGMENT_HEADER_LEN,
            buf: Vec::new(),
        })
    }

    /// Reopen an existing segment for appending at `len` (recovery has
    /// already truncated any torn tail).
    pub fn open_append(dir: &Path, index: u32, len: u64) -> std::io::Result<SegmentWriter> {
        let path = dir.join(segment_file_name(index));
        let mut file = OpenOptions::new().write(true).open(&path)?;
        file.seek(SeekFrom::Start(len))?;
        Ok(SegmentWriter {
            file,
            index,
            len,
            buf: Vec::new(),
        })
    }

    /// Append one framed record (buffered). Returns the frame size in
    /// bytes.
    pub fn append(&mut self, payload: &[u8]) -> u64 {
        let before = self.buf.len();
        encode_frame_into(&mut self.buf, payload);
        let framed = (self.buf.len() - before) as u64;
        self.len += framed;
        framed
    }

    /// Write buffered frames to the file (no fsync).
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Flush and fdatasync.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.flush()?;
        self.file.sync_data()
    }

    /// Logical length (header + all appended frames).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// This segment's index.
    pub fn index(&self) -> u32 {
        self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    #[test]
    fn names_round_trip() {
        assert_eq!(segment_file_name(7), "wal-0000000007.log");
        assert_eq!(parse_segment_name("wal-0000000007.log"), Some(7));
        assert_eq!(parse_segment_name("wal-0000000007.log.tmp"), None);
        assert_eq!(parse_segment_name("wal-x.log"), None);
    }

    #[test]
    fn write_scan_round_trip() {
        let dir = TempDir::new("segment-roundtrip");
        let mut w = SegmentWriter::create(dir.path(), 3).unwrap();
        w.append(b"first");
        w.append(&[0xAB; 300]);
        w.sync().unwrap();
        let scan = scan_segment(&dir.path().join(segment_file_name(3))).unwrap();
        assert!(scan.header_ok);
        assert_eq!(scan.torn, None);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].payload, b"first");
        assert_eq!(scan.records[1].payload, vec![0xAB; 300]);
        assert_eq!(scan.good_len, scan.file_len);
        assert_eq!(scan.good_len, w.len());
    }

    #[test]
    fn truncated_tail_detected_and_prefix_kept() {
        let dir = TempDir::new("segment-torn");
        let mut w = SegmentWriter::create(dir.path(), 0).unwrap();
        w.append(b"keep me");
        let keep_len = w.len();
        w.append(b"the torn one");
        w.sync().unwrap();
        let path = dir.path().join(segment_file_name(0));
        // Chop 3 bytes off the last frame.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();

        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].payload, b"keep me");
        assert_eq!(scan.good_len, keep_len);
        assert_eq!(scan.torn, Some(Torn::PartialFrame));
    }

    #[test]
    fn corrupt_payload_detected() {
        let dir = TempDir::new("segment-crc");
        let mut w = SegmentWriter::create(dir.path(), 0).unwrap();
        w.append(b"aaaa");
        w.append(b"bbbb");
        w.sync().unwrap();
        let path = dir.path().join(segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x40; // flip a bit in the second payload
        std::fs::write(&path, &bytes).unwrap();

        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.torn, Some(Torn::BadChecksum));
    }

    #[test]
    fn implausible_length_is_corruption_not_allocation() {
        let dir = TempDir::new("segment-len");
        let mut w = SegmentWriter::create(dir.path(), 0).unwrap();
        w.append(b"ok");
        w.sync().unwrap();
        let path = dir.path().join(segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4]);
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.torn, Some(Torn::BadLength(u32::MAX)));
    }

    #[test]
    fn bad_header_invalidates_file() {
        let dir = TempDir::new("segment-header");
        let path = dir.path().join(segment_file_name(0));
        std::fs::write(&path, b"NOPE\x00\x00\x00\x00").unwrap();
        let scan = scan_segment(&path).unwrap();
        assert!(!scan.header_ok);
        assert!(scan.records.is_empty());
        assert_eq!(scan.good_len, 0);
    }

    #[test]
    fn reopened_segment_appends_after_prefix() {
        let dir = TempDir::new("segment-reopen");
        let mut w = SegmentWriter::create(dir.path(), 1).unwrap();
        w.append(b"one");
        w.sync().unwrap();
        let len = w.len();
        drop(w);
        let mut w2 = SegmentWriter::open_append(dir.path(), 1, len).unwrap();
        w2.append(b"two");
        w2.sync().unwrap();
        let scan = scan_segment(&dir.path().join(segment_file_name(1))).unwrap();
        assert_eq!(scan.torn, None);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].payload, b"two");
    }
}
