//! The verdict wire protocols: the seed's line protocol and the batched
//! binary frame protocol.
//!
//! ## Line protocol
//!
//! One UTF-8, `\n`-terminated line per request — `CHECK <url>`,
//! `ADD <url> <score>`, `STATS`, plus the `BINARY` upgrade handshake —
//! answered by `PHISHING <score>` / `SAFE <score>` / `OK <generation>` /
//! `STATS <json>` / `ERROR <msg>` / `BUSY` lines.
//!
//! ## Binary frame protocol
//!
//! Length-prefixed frames supporting pipelining and *batched* checks:
//!
//! ```text
//! frame   := magic(0xFB) opcode(u8) len(u32 LE) payload(len bytes)
//! CHECK   (0x01): payload = url bytes (UTF-8)
//! CHECKN  (0x02): payload = count(u16 LE) then count × (len(u16 LE) url)
//! ADD     (0x03): payload = len(u16 LE) url score(f64 LE)
//! STATS   (0x04): payload empty
//! VERDICT (0x81): payload = kind(u8: 1 phishing, 0 safe) score(f64 LE)
//! VERDICTN(0x82): payload = count(u16 LE) then count × (kind score)
//! OK      (0x83): payload = generation(u64 LE)
//! STATSR  (0x84): payload = JSON bytes
//! ERROR   (0x85): payload = UTF-8 message
//! BUSY    (0x86): payload empty — request shed by admission control
//! ```
//!
//! The magic byte `0xFB` can never start a line-protocol request (those
//! begin with ASCII), so one port serves both: the evented server sniffs
//! the first buffered byte per frame. A client negotiates binary mode by
//! sending the line `BINARY\n`; an old line-only server answers `ERROR
//! ...`, which is the client's deterministic signal to fall back.
//!
//! Limits are part of the contract, not advisory: frames whose declared
//! payload exceeds [`MAX_FRAME_PAYLOAD`], batches over [`MAX_BATCH`]
//! URLs, URLs over [`MAX_URL_BYTES`] and bytes left past a frame's
//! fields are protocol errors. Torn (incomplete) frames simply wait for
//! more bytes.
//!
//! [`Framing`] is the one frame layer (encode, peek-or-wait,
//! decode-then-consume): the cluster's replication wire
//! (`freephish_cluster::wire`) runs on it too, with its own magic byte,
//! payload cap and opcode table, and both wires read and write payload
//! fields with `freephish_store`'s `PayloadReader` and `PayloadWriter`.
//!
//! Blocking clients — the extension's `VerdictClient`, the cluster
//! router's backend connections, load generators — upgrade a connection
//! with [`binary_handshake`] and read replies through
//! [`read_line_buffered`] and [`read_bin_reply`].

use crate::verdict::Verdict;
use bytes::BytesMut;
use freephish_store::{PayloadReader, PayloadWriter};
use std::io::{Read, Write};

/// First byte of every binary frame; never a valid line-protocol start.
pub const MAGIC: u8 = 0xFB;
/// Hard cap on a frame's declared payload length.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;
/// Maximum URLs in one `CHECKN` frame.
pub const MAX_BATCH: usize = 256;
/// Maximum bytes in one URL (the u16 length prefix's range).
pub const MAX_URL_BYTES: usize = u16::MAX as usize;
/// Bytes of frame header: magic + opcode + u32 length.
pub const FRAME_HEADER: usize = 6;
/// The line a client sends to negotiate binary mode.
pub const HANDSHAKE_LINE: &str = "BINARY";
/// The server's acceptance of the binary handshake.
pub const HANDSHAKE_OK: &str = "OK binary";

// ---------------------------------------------------------------------------
// Line protocol
// ---------------------------------------------------------------------------

/// Line-protocol request: `CHECK <url>`, `ADD <url> <score>`, `STATS`, or
/// the `BINARY` mode handshake.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Ask for a verdict on a URL.
    Check(String),
    /// Record a URL as known phishing with the given score.
    Add(String, f64),
    /// Ask for the server's metrics snapshot.
    Stats,
    /// Negotiate the binary frame protocol on this connection.
    Binary,
}

/// Parse one complete line out of the accumulation buffer, if available.
/// Returns `Ok(None)` when more bytes are needed; malformed lines are an
/// error carrying a message for the `ERROR` reply. Either way a complete
/// line is consumed, parsed where it lies.
pub fn decode_request(buf: &mut BytesMut) -> Result<Option<Request>, String> {
    let Some(pos) = buf.iter().position(|&b| b == b'\n') else {
        return Ok(None);
    };
    let request = parse_line(&buf[..pos]);
    buf.advance(pos + 1);
    request.map(Some)
}

fn parse_line(line: &[u8]) -> Result<Request, String> {
    let line = std::str::from_utf8(line).map_err(|_| "non-utf8 request".to_string())?;
    let line = line.trim_end_matches('\r');
    if line == "STATS" {
        return Ok(Request::Stats);
    }
    if line == HANDSHAKE_LINE {
        return Ok(Request::Binary);
    }
    match line.split_once(' ') {
        Some(("CHECK", url)) if !url.trim().is_empty() => {
            Ok(Request::Check(url.trim().to_string()))
        }
        Some(("ADD", rest)) => {
            let (url, score) = rest
                .trim()
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed request: {line:?}"))?;
            let score: f64 = score
                .parse()
                .map_err(|_| format!("bad score in {line:?}"))?;
            if url.is_empty() || !(0.0..=1.0).contains(&score) {
                return Err(format!("malformed request: {line:?}"));
            }
            Ok(Request::Add(url.to_string(), score))
        }
        _ => Err(format!("malformed request: {line:?}")),
    }
}

/// Encode a verdict reply line.
pub fn encode_verdict(v: &Verdict) -> String {
    match v {
        Verdict::Phishing(s) => format!("PHISHING {s:.4}\n"),
        Verdict::Safe(s) => format!("SAFE {s:.4}\n"),
    }
}

/// Parse a reply line into a verdict. `BUSY` (the shed response) and
/// `ERROR <msg>` both surface as errors.
pub fn decode_verdict(line: &str) -> Result<Verdict, String> {
    let line = line.trim();
    if line == "BUSY" {
        return Err("server busy".to_string());
    }
    match line.split_once(' ') {
        Some(("PHISHING", s)) => s
            .parse()
            .map(Verdict::Phishing)
            .map_err(|_| format!("bad score in {line:?}")),
        Some(("SAFE", s)) => s
            .parse()
            .map(Verdict::Safe)
            .map_err(|_| format!("bad score in {line:?}")),
        Some(("ERROR", msg)) => Err(msg.to_string()),
        _ => Err(format!("malformed reply: {line:?}")),
    }
}

// ---------------------------------------------------------------------------
// Binary frame protocol
// ---------------------------------------------------------------------------

/// A binary-protocol request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum BinRequest {
    /// Judge one URL.
    Check(String),
    /// Judge up to [`MAX_BATCH`] URLs in one frame.
    CheckN(Vec<String>),
    /// Record a URL as known phishing.
    Add(String, f64),
    /// Scrape the server's metrics.
    Stats,
}

/// A binary-protocol reply frame.
#[derive(Debug, Clone, PartialEq)]
pub enum BinReply {
    /// One verdict, answering `Check`.
    Verdict(Verdict),
    /// Batch verdicts, answering `CheckN`, in request order.
    VerdictN(Vec<Verdict>),
    /// `Add` accepted; carries the new generation.
    Ok(u64),
    /// Metrics snapshot JSON, answering `Stats`.
    Stats(String),
    /// The request was malformed or refused.
    Error(String),
    /// The request was shed by admission control; retry later.
    Busy,
}

const OP_CHECK: u8 = 0x01;
const OP_CHECKN: u8 = 0x02;
const OP_ADD: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_VERDICT: u8 = 0x81;
const OP_VERDICTN: u8 = 0x82;
const OP_OK: u8 = 0x83;
const OP_STATSR: u8 = 0x84;
const OP_ERROR: u8 = 0x85;
const OP_BUSY: u8 = 0x86;

/// One wire's framing: `magic | opcode u8 | len u32 LE | payload`, the
/// payload at most `max_payload` bytes. The verdict wire and the
/// cluster's replication wire share this one frame layer and differ only
/// in these two protocol constants; each keeps its own opcode table.
#[derive(Debug, Clone, Copy)]
pub struct Framing {
    /// First byte of every frame on the wire.
    pub magic: u8,
    /// Hard cap on a frame's declared payload length.
    pub max_payload: usize,
}

/// The verdict wire's framing.
const VERDICT_FRAMING: Framing = Framing {
    magic: MAGIC,
    max_payload: MAX_FRAME_PAYLOAD,
};

impl Framing {
    /// Append one frame carrying `payload` to `buf`.
    pub fn put_frame(self, buf: &mut BytesMut, opcode: u8, payload: &[u8]) {
        debug_assert!(payload.len() <= self.max_payload);
        let mut header = [0u8; FRAME_HEADER];
        header[0] = self.magic;
        header[1] = opcode;
        header[2..6].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&header);
        buf.extend_from_slice(payload);
    }

    /// The opcode and payload of the complete frame at the front of
    /// `buf`, borrowed where they lie. `Ok(None)` means the frame is still
    /// torn (incomplete); errors mean the stream is unrecoverable (a bad
    /// magic byte or an oversized declaration) and the connection should
    /// be closed.
    fn peek_frame(self, buf: &[u8]) -> Result<Option<(u8, &[u8])>, String> {
        if buf.is_empty() {
            return Ok(None);
        }
        if buf[0] != self.magic {
            return Err(format!("bad frame magic 0x{:02x}", buf[0]));
        }
        if buf.len() < FRAME_HEADER {
            return Ok(None);
        }
        let len = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]) as usize;
        if len > self.max_payload {
            return Err(format!(
                "frame payload of {len} exceeds {}",
                self.max_payload
            ));
        }
        Ok(buf
            .get(FRAME_HEADER..FRAME_HEADER + len)
            .map(|payload| (buf[1], payload)))
    }

    /// Decode the complete frame at the front of `buf` with `parse`, then
    /// consume it, whether its payload parsed or not. Framing errors and
    /// torn frames consume nothing.
    pub fn decode_frame<T>(
        self,
        buf: &mut BytesMut,
        parse: impl FnOnce(u8, &mut PayloadReader<'_>) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let Some((opcode, payload)) = self.peek_frame(buf)? else {
            return Ok(None);
        };
        let len = FRAME_HEADER + payload.len();
        let parsed = parse(opcode, &mut PayloadReader::new(payload));
        buf.advance(len);
        parsed.map(Some)
    }
}

fn put_url(payload: &mut PayloadWriter, url: &str) -> Result<(), String> {
    if url.len() > MAX_URL_BYTES {
        return Err(format!("url too long: {} bytes", url.len()));
    }
    payload.put_u16(url.len() as u16);
    payload.put_raw(url.as_bytes());
    Ok(())
}

fn put_verdict(payload: &mut PayloadWriter, v: &Verdict) {
    payload.put_u8(if v.is_phishing() { 1 } else { 0 });
    payload.put_f64(v.score());
}

/// Append the frame encoding of `req` to `buf`.
pub fn encode_bin_request(buf: &mut BytesMut, req: &BinRequest) -> Result<(), String> {
    let mut payload = PayloadWriter::new();
    let opcode = match req {
        BinRequest::Check(url) => {
            if url.len() > MAX_FRAME_PAYLOAD {
                return Err(format!("url too long: {} bytes", url.len()));
            }
            payload.put_raw(url.as_bytes());
            OP_CHECK
        }
        BinRequest::CheckN(urls) => {
            if urls.len() > MAX_BATCH {
                return Err(format!("batch of {} exceeds {MAX_BATCH}", urls.len()));
            }
            payload =
                PayloadWriter::with_capacity(2 + urls.iter().map(|u| 2 + u.len()).sum::<usize>());
            payload.put_u16(urls.len() as u16);
            for url in urls {
                put_url(&mut payload, url)?;
            }
            if payload.len() > MAX_FRAME_PAYLOAD {
                return Err("batch payload exceeds frame cap".to_string());
            }
            OP_CHECKN
        }
        BinRequest::Add(url, score) => {
            put_url(&mut payload, url)?;
            payload.put_f64(*score);
            OP_ADD
        }
        BinRequest::Stats => OP_STATS,
    };
    VERDICT_FRAMING.put_frame(buf, opcode, &payload.into_bytes());
    Ok(())
}

/// Append the frame encoding of `reply` to `buf`.
pub fn encode_bin_reply(buf: &mut BytesMut, reply: &BinReply) {
    let mut payload = PayloadWriter::new();
    let opcode = match reply {
        BinReply::Verdict(v) => {
            put_verdict(&mut payload, v);
            OP_VERDICT
        }
        BinReply::VerdictN(vs) => {
            payload = PayloadWriter::with_capacity(2 + 9 * vs.len());
            payload.put_u16(vs.len() as u16);
            vs.iter().for_each(|v| put_verdict(&mut payload, v));
            OP_VERDICTN
        }
        BinReply::Ok(generation) => {
            payload.put_u64(*generation);
            OP_OK
        }
        BinReply::Stats(json) => {
            payload.put_raw(json.as_bytes());
            OP_STATSR
        }
        BinReply::Error(msg) => {
            payload.put_raw(&msg.as_bytes()[..msg.len().min(MAX_FRAME_PAYLOAD)]);
            OP_ERROR
        }
        BinReply::Busy => OP_BUSY,
    };
    VERDICT_FRAMING.put_frame(buf, opcode, &payload.into_bytes());
}

fn get_url(payload: &mut PayloadReader<'_>) -> Result<String, String> {
    let len = payload.get_u16()? as usize;
    utf8_url(payload.take(len)?)
}

fn get_verdict(payload: &mut PayloadReader<'_>) -> Result<Verdict, String> {
    let kind = payload.get_u8()?;
    let score = payload.get_f64()?;
    match kind {
        1 => Ok(Verdict::Phishing(score)),
        0 => Ok(Verdict::Safe(score)),
        other => Err(format!("unknown verdict kind {other}")),
    }
}

fn utf8_url(raw: &[u8]) -> Result<String, String> {
    std::str::from_utf8(raw)
        .map(str::to_string)
        .map_err(|_| "non-utf8 url in frame".to_string())
}

/// Decode one complete request frame off the front of `buf`, if present.
/// Bytes left past a frame's fields refuse it.
pub fn decode_bin_request(buf: &mut BytesMut) -> Result<Option<BinRequest>, String> {
    VERDICT_FRAMING.decode_frame(buf, |opcode, payload| {
        let request = match opcode {
            OP_CHECK => {
                let url = utf8_url(payload.rest())?;
                if url.is_empty() {
                    return Err("empty url in CHECK frame".to_string());
                }
                BinRequest::Check(url)
            }
            OP_CHECKN => {
                let count = payload.get_u16()? as usize;
                if count > MAX_BATCH {
                    return Err(format!("batch of {count} exceeds {MAX_BATCH}"));
                }
                let mut urls = Vec::with_capacity(count);
                for _ in 0..count {
                    urls.push(get_url(payload)?);
                }
                BinRequest::CheckN(urls)
            }
            OP_ADD => {
                let url = get_url(payload)?;
                let score = payload.get_f64()?;
                if url.is_empty() || !(0.0..=1.0).contains(&score) {
                    return Err("malformed ADD frame".to_string());
                }
                BinRequest::Add(url, score)
            }
            OP_STATS => BinRequest::Stats,
            other => return Err(format!("unknown request opcode 0x{other:02x}")),
        };
        payload.expect_end()?;
        Ok(request)
    })
}

/// Decode one complete reply frame off the front of `buf`, if present.
/// Bytes left past a frame's fields refuse it.
pub fn decode_bin_reply(buf: &mut BytesMut) -> Result<Option<BinReply>, String> {
    VERDICT_FRAMING.decode_frame(buf, |opcode, payload| {
        let reply = match opcode {
            OP_VERDICT => BinReply::Verdict(get_verdict(payload)?),
            OP_VERDICTN => {
                let count = payload.get_u16()? as usize;
                if count > MAX_BATCH {
                    return Err(format!("verdict batch of {count} exceeds {MAX_BATCH}"));
                }
                let mut vs = Vec::with_capacity(count);
                for _ in 0..count {
                    vs.push(get_verdict(payload)?);
                }
                BinReply::VerdictN(vs)
            }
            OP_OK => BinReply::Ok(payload.get_u64()?),
            OP_STATSR => match std::str::from_utf8(payload.rest()) {
                Ok(json) => BinReply::Stats(json.to_string()),
                Err(_) => return Err("non-utf8 stats".to_string()),
            },
            OP_ERROR => BinReply::Error(String::from_utf8_lossy(payload.rest()).into_owned()),
            OP_BUSY => BinReply::Busy,
            other => return Err(format!("unknown reply opcode 0x{other:02x}")),
        };
        payload.expect_end()?;
        Ok(reply)
    })
}

// ---------------------------------------------------------------------------
// Blocking client reads
// ---------------------------------------------------------------------------

fn io_invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Append one `read(2)` worth of bytes to `buf`; EOF is an error, since
/// every caller is waiting for the rest of a reply.
fn read_more(stream: &mut impl Read, buf: &mut BytesMut) -> std::io::Result<()> {
    let mut chunk = [0u8; 4096];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed mid-reply",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

/// Read one `\n`-terminated line through a shared accumulation buffer, so
/// bytes belonging to a following binary frame are never lost to
/// read-ahead when a connection switches protocols. A line longer than
/// [`MAX_FRAME_PAYLOAD`] is an error, not a buffer that keeps growing.
pub fn read_line_buffered(stream: &mut impl Read, buf: &mut BytesMut) -> std::io::Result<String> {
    loop {
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let text = std::str::from_utf8(&buf[..pos])
                .map(|text| text.trim_end_matches('\r').to_string())
                .map_err(|_| io_invalid("non-utf8 reply"));
            buf.advance(pos + 1);
            return text;
        }
        if buf.len() > MAX_FRAME_PAYLOAD {
            return Err(io_invalid("reply line exceeds maximum size"));
        }
        read_more(stream, buf)?;
    }
}

/// Upgrade a fresh blocking connection to the binary protocol: send the
/// `BINARY` line and read the answer. Any answer but [`HANDSHAKE_OK`] is
/// an `InvalidData` error carrying the server's line. Returns the
/// connection's accumulation buffer, which keeps any frame bytes that
/// arrived behind the answer.
pub fn binary_handshake(stream: &mut (impl Read + Write)) -> std::io::Result<BytesMut> {
    stream.write_all(format!("{HANDSHAKE_LINE}\n").as_bytes())?;
    let mut buf = BytesMut::new();
    let answer = read_line_buffered(stream, &mut buf)?;
    if answer != HANDSHAKE_OK {
        return Err(io_invalid(format!(
            "server refused the {HANDSHAKE_LINE} handshake: {answer}"
        )));
    }
    Ok(buf)
}

/// Read one complete binary reply frame through the shared buffer.
pub fn read_bin_reply(stream: &mut impl Read, buf: &mut BytesMut) -> std::io::Result<BinReply> {
    loop {
        if let Some(reply) = decode_bin_reply(buf).map_err(io_invalid)? {
            return Ok(reply);
        }
        read_more(stream, buf)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_reads_keep_what_follows_a_line_and_refuse_an_endless_one() {
        // A handshake reply and the first frame in one segment: the line
        // reader must leave the frame's bytes for the frame reader.
        let mut wire = BytesMut::from(&b"OK binary\n"[..]);
        encode_bin_reply(&mut wire, &BinReply::Busy);
        let mut src: &[u8] = &wire;
        let mut buf = BytesMut::new();
        assert_eq!(read_line_buffered(&mut src, &mut buf).unwrap(), "OK binary");
        assert_eq!(read_bin_reply(&mut src, &mut buf).unwrap(), BinReply::Busy);
        let err = read_bin_reply(&mut src, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

        let endless = vec![b'a'; MAX_FRAME_PAYLOAD + 8192];
        let err = read_line_buffered(&mut &endless[..], &mut BytesMut::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn bin_request_round_trip() {
        let reqs = [
            BinRequest::Check("https://a.weebly.com/x".into()),
            BinRequest::CheckN(vec![
                "https://a.wix.com/".into(),
                "https://b.wix.com/".into(),
            ]),
            BinRequest::Add("https://evil.weebly.com/".into(), 0.93),
            BinRequest::Stats,
        ];
        let mut buf = BytesMut::new();
        for r in &reqs {
            encode_bin_request(&mut buf, r).unwrap();
        }
        for r in &reqs {
            let got = decode_bin_request(&mut buf).unwrap().unwrap();
            assert_eq!(&got, r);
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn bin_reply_round_trip() {
        let replies = [
            BinReply::Verdict(Verdict::Phishing(0.97)),
            BinReply::VerdictN(vec![Verdict::Safe(0.1), Verdict::Phishing(0.8)]),
            BinReply::Ok(42),
            BinReply::Stats("{\"a\":1}".into()),
            BinReply::Error("nope".into()),
            BinReply::Busy,
        ];
        let mut buf = BytesMut::new();
        for r in &replies {
            encode_bin_reply(&mut buf, r);
        }
        for r in &replies {
            let got = decode_bin_reply(&mut buf).unwrap().unwrap();
            assert_eq!(&got, r);
        }
        assert!(buf.is_empty());
    }

    /// `frame` with one more payload byte, its declared length to match.
    fn with_a_trailing_byte(frame: &BytesMut) -> BytesMut {
        let mut padded = frame.clone();
        padded.extend_from_slice(&[0]);
        let len = (padded.len() - FRAME_HEADER) as u32;
        padded[2..FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
        padded
    }

    #[test]
    fn bytes_past_a_frames_fields_are_refused() {
        let requests = [
            BinRequest::CheckN(vec!["https://a.wix.com/".into()]),
            BinRequest::Add("https://evil.weebly.com/".into(), 0.93),
            BinRequest::Stats,
        ];
        for req in &requests {
            let mut frame = BytesMut::new();
            encode_bin_request(&mut frame, req).unwrap();
            let mut buf = with_a_trailing_byte(&frame);
            assert!(decode_bin_request(&mut buf).is_err(), "{req:?}");
            assert!(buf.is_empty(), "a refused frame is consumed: {req:?}");
        }
        let replies = [
            BinReply::Verdict(Verdict::Phishing(0.97)),
            BinReply::VerdictN(vec![Verdict::Safe(0.1), Verdict::Phishing(0.8)]),
            BinReply::Ok(42),
            BinReply::Busy,
        ];
        for reply in &replies {
            let mut frame = BytesMut::new();
            encode_bin_reply(&mut frame, reply);
            let mut buf = with_a_trailing_byte(&frame);
            assert!(decode_bin_reply(&mut buf).is_err(), "{reply:?}");
            assert!(buf.is_empty(), "a refused frame is consumed: {reply:?}");
        }
    }

    #[test]
    fn torn_frames_wait_for_more_bytes() {
        let mut full = BytesMut::new();
        encode_bin_request(
            &mut full,
            &BinRequest::Check("https://a.weebly.com/".into()),
        )
        .unwrap();
        for cut in 0..full.len() {
            let mut partial = BytesMut::from(&full[..cut]);
            assert_eq!(decode_bin_request(&mut partial), Ok(None), "cut at {cut}");
            assert_eq!(partial.len(), cut, "torn decode must not consume");
        }
    }

    #[test]
    fn oversized_and_garbled_frames_rejected() {
        // Declared length over the cap.
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&[MAGIC, OP_CHECK]);
        buf.extend_from_slice(&((MAX_FRAME_PAYLOAD + 1) as u32).to_le_bytes());
        assert!(decode_bin_request(&mut buf).is_err());
        // Wrong magic.
        let mut buf2 = BytesMut::from(&b"CHECK x\n"[..]);
        assert!(decode_bin_request(&mut buf2).is_err());
        // Unknown opcode.
        let mut buf3 = BytesMut::new();
        buf3.extend_from_slice(&[MAGIC, 0x7f]);
        buf3.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode_bin_request(&mut buf3).is_err());
        // Batch over MAX_BATCH refused at encode time too.
        let huge: Vec<String> = (0..MAX_BATCH + 1).map(|i| format!("u{i}")).collect();
        let mut buf4 = BytesMut::new();
        assert!(encode_bin_request(&mut buf4, &BinRequest::CheckN(huge)).is_err());
    }

    #[test]
    fn handshake_line_decodes() {
        let mut buf = BytesMut::from(&b"BINARY\n"[..]);
        assert_eq!(decode_request(&mut buf), Ok(Some(Request::Binary)));
        assert_eq!(decode_verdict("BUSY"), Err("server busy".to_string()));
    }
}
