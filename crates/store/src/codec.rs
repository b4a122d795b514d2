//! Little-endian byte codec helpers for typed record payloads.
//!
//! The store itself moves opaque `&[u8]` payloads; consumers (the pipeline
//! run journal, the verdict store) encode their typed events with these
//! helpers so every field has one canonical, bit-exact representation —
//! `f64`s travel as raw bits, never through decimal formatting, which is
//! what lets a resumed run reproduce byte-identical output. Both network
//! wires (`serve::proto`'s verdict frames and `cluster::wire`'s
//! replication frames) read and write their frame payloads with them too,
//! a call per field from another crate: hence `#[inline]`.

/// Append-only payload writer over a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// A fresh writer.
    #[inline]
    pub fn new() -> PayloadWriter {
        PayloadWriter { buf: Vec::new() }
    }

    /// A writer with pre-allocated capacity.
    #[inline]
    pub fn with_capacity(cap: usize) -> PayloadWriter {
        PayloadWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// One raw byte (record tags, enum discriminants).
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `u16`, little-endian.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its raw bit pattern (bit-exact round trip).
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// A length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Raw bytes with no length prefix.
    #[inline]
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// The encoded payload.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Decode error: the payload ended early or a field was malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for String {
    fn from(e: DecodeError) -> String {
        e.to_string()
    }
}

impl From<DecodeError> for std::io::Error {
    fn from(e: DecodeError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Cursor-style payload reader over a byte slice.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Read from the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError(format!(
                "need {n} bytes at offset {}, payload has {}",
                self.pos,
                self.buf.len()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// One raw byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// An `f64` from its raw bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// A length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError("non-utf8 string".into()))
    }

    /// Every byte not yet consumed.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the payload was consumed exactly.
    #[inline]
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError(format!("{} trailing bytes", self.remaining())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_field_kinds() {
        let mut w = PayloadWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.0);
        w.put_f64(f64::from_bits(0x7FF8_0000_0000_0001)); // a NaN payload
        w.put_str("https://a.weebly.com/ünïcode");
        w.put_raw(&[4, 5]);
        let bytes = w.into_bytes();

        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), 0x7FF8_0000_0000_0001);
        assert_eq!(r.get_str().unwrap(), "https://a.weebly.com/ünïcode");
        assert_eq!(r.take(1).unwrap(), &[4]);
        assert_eq!(r.rest(), &[5]);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncated_payload_errors_cleanly() {
        let mut w = PayloadWriter::new();
        w.put_str("hello");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = PayloadReader::new(&bytes[..cut]);
            assert!(r.get_str().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = PayloadWriter::new();
        w.put_u32(1);
        w.put_u8(0);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        r.get_u32().unwrap();
        assert!(r.expect_end().is_err());
    }
}
