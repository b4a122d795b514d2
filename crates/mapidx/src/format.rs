//! The on-disk layout of a baked verdict index, shared by the writer and
//! the mmap loader.
//!
//! One file, four sections, every integer little-endian:
//!
//! ```text
//! [header: 88 bytes]
//!   0  magic           u64   "FPMAPIDX"
//!   8  version         u32   = 2
//!  12  reserved        u32   = 0
//!  16  entry_count     u64
//!  24  bucket_count    u64   >= 1
//!  32  keyheap_len     u64
//!  40  reserved1       u32   = 0
//!  44  bake_segment    u32
//!  48  bake_offset     u64   (u64::MAX = no cursor recorded)
//!  56  body_sum        u64   checksum over records ∥ keyheap ∥ buckets
//!  64  total_len       u64   whole-file length
//!  72  reserved2       u64   = 0
//!  80  header_crc      u32   CRC32 of bytes 0..80
//!  84  pad             u32   = 0
//! [records: entry_count × 24 bytes]   key_hash u64 | key_off u32 | key_len u32 | score-bits u64
//! [keyheap: keyheap_len bytes]        concatenated key bytes
//! [buckets: (bucket_count + 1) × u32] prefix offsets into records
//! ```
//!
//! Records are sorted ascending by `(key_hash, key bytes)`. The bucket of
//! a hash is the multiply-shift range reduction `(hash × bucket_count)
//! >> 64`, which is monotone in the hash — so sorted records fall into
//! nondecreasing buckets and the bucket table is a plain prefix-sum:
//! bucket `b` covers `records[buckets[b] .. buckets[b + 1]]`.
//!
//! Integrity is two-level. The header carries its own CRC32; the three
//! body sections are folded through [`BodySum`], a 4-lane multiply-mix
//! digest that runs at memory bandwidth so verifying a multi-hundred-MB
//! index stays inside the millisecond restart budget. Neither is
//! cryptographic — the threat model is torn writes and bit rot, the same
//! one the WAL's CRC32 answers.
//!
//! A version-1 file's cursor also named a store snapshot, which stores no
//! longer write; the loader refuses it with [`IndexError::BadVersion`].

use freephish_store::crc32;
use freephish_store::tail::TailCursor;

/// File magic, "FPMAPIDX" read as a little-endian u64.
pub const MAGIC: u64 = u64::from_le_bytes(*b"FPMAPIDX");
/// Current format version.
pub const VERSION: u32 = 2;
/// Header length in bytes.
pub const HEADER_LEN: usize = 88;
/// Fixed record width in bytes.
pub const RECORD_LEN: usize = 24;
/// Width of one bucket-table offset.
pub const BUCKET_ENTRY_LEN: usize = 4;

/// Sentinel meaning "no cursor recorded" in `bake_offset`.
pub const NONE_U64: u64 = u64::MAX;

/// Why a file was refused by the loader. The loader never panics on
/// untrusted bytes: every defect maps to one of these.
#[derive(Debug)]
pub enum IndexError {
    /// Underlying I/O failure (open, stat, mmap).
    Io(std::io::Error),
    /// File shorter than the fixed header.
    TooSmall { len: u64 },
    /// First eight bytes are not the index magic.
    BadMagic(u64),
    /// Magic matched but the version is unknown.
    BadVersion(u32),
    /// Header CRC32 mismatch: the header itself is damaged.
    HeaderCrc { expected: u32, found: u32 },
    /// Header-declared geometry does not add up to the file's length
    /// (truncated file, or a header lying about its sections).
    LengthMismatch { expected: u64, found: u64 },
    /// Body checksum mismatch: a record, key, or bucket byte flipped.
    BodyChecksum { expected: u64, found: u64 },
    /// A structural invariant the header cannot express failed.
    Malformed(&'static str),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Io(e) => write!(f, "index i/o error: {e}"),
            IndexError::TooSmall { len } => {
                write!(
                    f,
                    "index file too small: {len} bytes < {HEADER_LEN}-byte header"
                )
            }
            IndexError::BadMagic(m) => write!(f, "not a mapidx file (magic {m:#018x})"),
            IndexError::BadVersion(v) => write!(f, "unsupported mapidx version {v}"),
            IndexError::HeaderCrc { expected, found } => {
                write!(
                    f,
                    "header CRC mismatch: expected {expected:#010x}, found {found:#010x}"
                )
            }
            IndexError::LengthMismatch { expected, found } => {
                write!(
                    f,
                    "file length {found} does not match header geometry {expected}"
                )
            }
            IndexError::BodyChecksum { expected, found } => {
                write!(
                    f,
                    "body checksum mismatch: expected {expected:#018x}, found {found:#018x}"
                )
            }
            IndexError::Malformed(what) => write!(f, "malformed index: {what}"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IndexError {
    fn from(e: std::io::Error) -> IndexError {
        IndexError::Io(e)
    }
}

/// FNV-1a 64-bit: the stable key hash. `DefaultHasher` is explicitly not
/// guaranteed stable across releases, and a file format must be.
#[inline]
pub fn key_hash(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Multiply-shift range reduction: maps a hash into `0..bucket_count`,
/// monotone in the hash (so hash-sorted records fill buckets in order).
#[inline]
pub fn bucket_of(hash: u64, bucket_count: u64) -> u64 {
    ((hash as u128 * bucket_count as u128) >> 64) as u64
}

const LANE_PRIME: u64 = 0x9e37_79b9_7f4a_7c15;

/// Streaming 4-lane multiply-mix digest over the body sections. Four
/// independent accumulators absorb 32 bytes per step so the multiply
/// latency chains overlap; the finalizer folds the lanes and the total
/// length. Detects any single bit flip and all truncations (length is
/// absorbed), at memory-bandwidth speed.
pub struct BodySum {
    lanes: [u64; 4],
    buf: [u8; 32],
    buffered: usize,
    len: u64,
}

impl Default for BodySum {
    fn default() -> BodySum {
        BodySum::new()
    }
}

impl BodySum {
    pub fn new() -> BodySum {
        BodySum {
            lanes: [
                0x6a09_e667_f3bc_c908,
                0xbb67_ae85_84ca_a73b,
                0x3c6e_f372_fe94_f82b,
                0xa54f_f53a_5f1d_36f1,
            ],
            buf: [0u8; 32],
            buffered: 0,
            len: 0,
        }
    }

    #[inline]
    fn absorb_block(&mut self, block: &[u8]) {
        debug_assert_eq!(block.len(), 32);
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().unwrap());
            *lane = (*lane ^ w).wrapping_mul(LANE_PRIME);
        }
    }

    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.buffered > 0 {
            let need = 32 - self.buffered;
            let take = need.min(bytes.len());
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < 32 {
                return; // input exhausted without completing the block
            }
            let block = self.buf;
            self.absorb_block(&block);
            self.buffered = 0;
        }
        let mut chunks = bytes.chunks_exact(32);
        for block in &mut chunks {
            self.absorb_block(block);
        }
        let rest = chunks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    pub fn finish(mut self) -> u64 {
        if self.buffered > 0 {
            // Zero-pad the tail; the absorbed length disambiguates it.
            for b in self.buf[self.buffered..].iter_mut() {
                *b = 0;
            }
            let block = self.buf;
            self.absorb_block(&block);
        }
        let mut h = self.len;
        for lane in self.lanes {
            h = (h ^ lane).wrapping_mul(LANE_PRIME);
            h ^= h >> 32;
        }
        h
    }
}

/// The decoded fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub entry_count: u64,
    pub bucket_count: u64,
    pub keyheap_len: u64,
    pub cursor: Option<TailCursor>,
    pub body_sum: u64,
    pub total_len: u64,
}

impl Header {
    /// Total file length this geometry implies.
    pub fn expected_len(&self) -> u64 {
        HEADER_LEN as u64
            + self.entry_count * RECORD_LEN as u64
            + self.keyheap_len
            + (self.bucket_count + 1) * BUCKET_ENTRY_LEN as u64
    }

    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        out[16..24].copy_from_slice(&self.entry_count.to_le_bytes());
        out[24..32].copy_from_slice(&self.bucket_count.to_le_bytes());
        out[32..40].copy_from_slice(&self.keyheap_len.to_le_bytes());
        let (seg, off) = self.cursor.map_or((0, NONE_U64), |c| (c.segment, c.offset));
        out[44..48].copy_from_slice(&seg.to_le_bytes());
        out[48..56].copy_from_slice(&off.to_le_bytes());
        out[56..64].copy_from_slice(&self.body_sum.to_le_bytes());
        out[64..72].copy_from_slice(&self.total_len.to_le_bytes());
        let crc = crc32(&out[..80]);
        out[80..84].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode and validate the fixed header (magic, version, CRC). The
    /// caller still has to check the geometry against the file length.
    pub fn decode(bytes: &[u8]) -> Result<Header, IndexError> {
        if bytes.len() < HEADER_LEN {
            return Err(IndexError::TooSmall {
                len: bytes.len() as u64,
            });
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        let magic = u64_at(0);
        if magic != MAGIC {
            return Err(IndexError::BadMagic(magic));
        }
        let version = u32_at(8);
        if version != VERSION {
            return Err(IndexError::BadVersion(version));
        }
        let expected = crc32(&bytes[..80]);
        let found = u32_at(80);
        if expected != found {
            return Err(IndexError::HeaderCrc { expected, found });
        }
        // The pad word sits outside the CRC'd range; pinning it to zero
        // keeps "any flipped header bit is detected" airtight.
        if u32_at(84) != 0 {
            return Err(IndexError::Malformed("nonzero header padding"));
        }
        let offset = u64_at(48);
        let cursor = (offset != NONE_U64).then(|| TailCursor {
            segment: u32_at(44),
            offset,
        });
        let header = Header {
            entry_count: u64_at(16),
            bucket_count: u64_at(24),
            keyheap_len: u64_at(32),
            cursor,
            body_sum: u64_at(56),
            total_len: u64_at(64),
        };
        if header.bucket_count == 0 {
            return Err(IndexError::Malformed("bucket_count is zero"));
        }
        if header.entry_count >= u32::MAX as u64 {
            return Err(IndexError::Malformed("entry_count exceeds u32 offsets"));
        }
        if header.bucket_count > 1 << 32 {
            return Err(IndexError::Malformed("bucket_count exceeds u32 offsets"));
        }
        Ok(header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_with_and_without_cursor() {
        for cursor in [
            None,
            Some(TailCursor {
                segment: 7,
                offset: 4096,
            }),
            Some(TailCursor {
                segment: 0,
                offset: 8,
            }),
        ] {
            let h = Header {
                entry_count: 42,
                bucket_count: 64,
                keyheap_len: 1234,
                cursor,
                body_sum: 0xdead_beef_cafe_f00d,
                total_len: 99_999,
            };
            let bytes = h.encode();
            assert_eq!(Header::decode(&bytes).unwrap(), h);
        }
    }

    #[test]
    fn a_version_1_header_is_refused() {
        let h = Header {
            entry_count: 1,
            bucket_count: 1,
            keyheap_len: 4,
            cursor: None,
            body_sum: 0,
            total_len: 124,
        };
        let mut bytes = h.encode();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&bytes[..80]);
        bytes[80..84].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Header::decode(&bytes),
            Err(IndexError::BadVersion(1))
        ));
    }

    #[test]
    fn header_crc_catches_any_flipped_bit() {
        let h = Header {
            entry_count: 10,
            bucket_count: 16,
            keyheap_len: 100,
            cursor: None,
            body_sum: 1,
            total_len: 500,
        };
        let good = h.encode();
        for bit in 0..(80 * 8) {
            let mut bad = good;
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                Header::decode(&bad).is_err(),
                "flip of bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn body_sum_is_chunking_invariant() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut whole = BodySum::new();
        whole.update(&data);
        for step in [1usize, 3, 7, 31, 32, 33, 100] {
            let mut pieced = BodySum::new();
            for chunk in data.chunks(step) {
                pieced.update(chunk);
            }
            let mut again = BodySum::new();
            again.update(&data);
            assert_eq!(pieced.finish(), again.finish(), "step {step}");
        }
    }

    #[test]
    fn body_sum_detects_flips_and_truncation() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let sum = |bytes: &[u8]| {
            let mut s = BodySum::new();
            s.update(bytes);
            s.finish()
        };
        let base = sum(&data);
        for pos in [0usize, 1, 31, 32, 1000, 4095] {
            let mut bad = data.clone();
            bad[pos] ^= 0x40;
            assert_ne!(sum(&bad), base, "flip at {pos} went undetected");
        }
        assert_ne!(sum(&data[..data.len() - 1]), base);
        let mut padded = data.clone();
        padded.push(0);
        assert_ne!(sum(&padded), base, "zero-extension must change the sum");
    }

    #[test]
    fn bucket_of_is_monotone_and_in_range() {
        let bc = 37u64;
        let mut last = 0;
        for h in (0..u64::MAX - 1000).step_by(usize::MAX / 513) {
            let b = bucket_of(h, bc);
            assert!(b < bc);
            assert!(b >= last, "bucket assignment must be monotone in hash");
            last = b;
        }
        assert_eq!(bucket_of(u64::MAX, bc), bc - 1);
    }
}
