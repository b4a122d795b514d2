//! The verdict wire protocols: the seed's line protocol and the batched
//! binary frame protocol.
//!
//! ## Line protocol (PR 3 and earlier)
//!
//! One UTF-8, `\n`-terminated line per request — `CHECK <url>`,
//! `ADD <url> <score>`, `STATS`, plus the `BINARY` upgrade handshake —
//! answered by `PHISHING <score>` / `SAFE <score>` / `OK <generation>` /
//! `STATS <json>` / `ERROR <msg>` / `BUSY` lines.
//!
//! ## Binary frame protocol (this PR)
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
//! URLs, and URLs over [`MAX_URL_BYTES`] are protocol errors. Torn
//! (incomplete) frames simply wait for more bytes.
//!
//! Blocking clients — the extension's `VerdictClient`, the cluster
//! router's backend connections, load generators — read the handshake
//! line and binary replies through [`read_line_buffered`] and
//! [`read_bin_reply`].

use crate::verdict::Verdict;
use bytes::BytesMut;
use std::io::Read;

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

fn put_frame(buf: &mut BytesMut, opcode: u8, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD);
    let mut header = [0u8; FRAME_HEADER];
    header[0] = MAGIC;
    header[1] = opcode;
    header[2..6].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&header);
    buf.extend_from_slice(payload);
}

fn put_url(payload: &mut Vec<u8>, url: &str) -> Result<(), String> {
    if url.len() > MAX_URL_BYTES {
        return Err(format!("url too long: {} bytes", url.len()));
    }
    payload.extend_from_slice(&(url.len() as u16).to_le_bytes());
    payload.extend_from_slice(url.as_bytes());
    Ok(())
}

/// Append the frame encoding of `req` to `buf`.
pub fn encode_bin_request(buf: &mut BytesMut, req: &BinRequest) -> Result<(), String> {
    match req {
        BinRequest::Check(url) => {
            if url.len() > MAX_FRAME_PAYLOAD {
                return Err(format!("url too long: {} bytes", url.len()));
            }
            put_frame(buf, OP_CHECK, url.as_bytes());
        }
        BinRequest::CheckN(urls) => {
            if urls.len() > MAX_BATCH {
                return Err(format!("batch of {} exceeds {MAX_BATCH}", urls.len()));
            }
            let mut payload =
                Vec::with_capacity(2 + urls.iter().map(|u| 2 + u.len()).sum::<usize>());
            payload.extend_from_slice(&(urls.len() as u16).to_le_bytes());
            for url in urls {
                put_url(&mut payload, url)?;
            }
            if payload.len() > MAX_FRAME_PAYLOAD {
                return Err("batch payload exceeds frame cap".to_string());
            }
            put_frame(buf, OP_CHECKN, &payload);
        }
        BinRequest::Add(url, score) => {
            let mut payload = Vec::with_capacity(2 + url.len() + 8);
            put_url(&mut payload, url)?;
            payload.extend_from_slice(&score.to_le_bytes());
            put_frame(buf, OP_ADD, &payload);
        }
        BinRequest::Stats => put_frame(buf, OP_STATS, &[]),
    }
    Ok(())
}

/// Append the frame encoding of `reply` to `buf`.
pub fn encode_bin_reply(buf: &mut BytesMut, reply: &BinReply) {
    fn put_verdict(payload: &mut Vec<u8>, v: &Verdict) {
        payload.push(if v.is_phishing() { 1 } else { 0 });
        payload.extend_from_slice(&v.score().to_le_bytes());
    }
    match reply {
        BinReply::Verdict(v) => {
            let mut payload = Vec::with_capacity(9);
            put_verdict(&mut payload, v);
            put_frame(buf, OP_VERDICT, &payload);
        }
        BinReply::VerdictN(vs) => {
            let mut payload = Vec::with_capacity(2 + 9 * vs.len());
            payload.extend_from_slice(&(vs.len() as u16).to_le_bytes());
            for v in vs {
                put_verdict(&mut payload, v);
            }
            put_frame(buf, OP_VERDICTN, &payload);
        }
        BinReply::Ok(generation) => put_frame(buf, OP_OK, &generation.to_le_bytes()),
        BinReply::Stats(json) => put_frame(buf, OP_STATSR, json.as_bytes()),
        BinReply::Error(msg) => {
            let truncated = &msg.as_bytes()[..msg.len().min(MAX_FRAME_PAYLOAD)];
            put_frame(buf, OP_ERROR, truncated);
        }
        BinReply::Busy => put_frame(buf, OP_BUSY, &[]),
    }
}

/// The opcode and payload of the complete frame at the front of `buf`,
/// borrowed where they lie. `Ok(None)` means the frame is still torn
/// (incomplete); errors mean the stream is unrecoverable (oversized or
/// garbled framing) and the connection should be closed after an `ERROR`
/// reply.
fn peek_frame(buf: &[u8]) -> Result<Option<(u8, &[u8])>, String> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf[0] != MAGIC {
        return Err(format!("bad frame magic 0x{:02x}", buf[0]));
    }
    if buf.len() < FRAME_HEADER {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(format!(
            "frame payload of {len} exceeds {MAX_FRAME_PAYLOAD}"
        ));
    }
    Ok(buf
        .get(FRAME_HEADER..FRAME_HEADER + len)
        .map(|payload| (buf[1], payload)))
}

/// Decode the complete frame at the front of `buf` with `parse`, then
/// consume it, whether its payload parsed or not. Framing errors and torn
/// frames consume nothing.
fn decode_frame<T>(
    buf: &mut BytesMut,
    parse: impl FnOnce(u8, &mut Payload) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let Some((opcode, payload)) = peek_frame(buf)? else {
        return Ok(None);
    };
    let len = FRAME_HEADER + payload.len();
    let parsed = parse(opcode, &mut Payload(payload));
    buf.advance(len);
    parsed.map(Some)
}

/// A cursor over a frame's payload.
struct Payload<'a>(&'a [u8]);

impl<'a> Payload<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.0.len() < n {
            return Err(format!("truncated {what} in frame"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u16(&mut self) -> Result<u16, String> {
        let raw = self.take(2, "field")?;
        Ok(u16::from_le_bytes([raw[0], raw[1]]))
    }

    fn f64(&mut self) -> Result<f64, String> {
        let raw = self.take(8, "score")?;
        Ok(f64::from_le_bytes(raw.try_into().unwrap()))
    }

    fn url(&mut self) -> Result<String, String> {
        let len = self.u16()? as usize;
        let raw = self.take(len, "url")?;
        utf8_url(raw)
    }

    fn verdict(&mut self) -> Result<Verdict, String> {
        let kind = self.take(1, "verdict")?[0];
        let score = self.f64()?;
        match kind {
            1 => Ok(Verdict::Phishing(score)),
            0 => Ok(Verdict::Safe(score)),
            other => Err(format!("unknown verdict kind {other}")),
        }
    }
}

fn utf8_url(raw: &[u8]) -> Result<String, String> {
    std::str::from_utf8(raw)
        .map(str::to_string)
        .map_err(|_| "non-utf8 url in frame".to_string())
}

/// Decode one complete request frame off the front of `buf`, if present.
pub fn decode_bin_request(buf: &mut BytesMut) -> Result<Option<BinRequest>, String> {
    decode_frame(buf, |opcode, payload| match opcode {
        OP_CHECK => {
            let url = utf8_url(payload.0)?;
            if url.is_empty() {
                return Err("empty url in CHECK frame".to_string());
            }
            Ok(BinRequest::Check(url))
        }
        OP_CHECKN => {
            let count = payload.u16()? as usize;
            if count > MAX_BATCH {
                return Err(format!("batch of {count} exceeds {MAX_BATCH}"));
            }
            let mut urls = Vec::with_capacity(count);
            for _ in 0..count {
                urls.push(payload.url()?);
            }
            if !payload.0.is_empty() {
                return Err("trailing bytes in CHECKN frame".to_string());
            }
            Ok(BinRequest::CheckN(urls))
        }
        OP_ADD => {
            let url = payload.url()?;
            let score = payload.f64()?;
            if url.is_empty() || !(0.0..=1.0).contains(&score) {
                return Err("malformed ADD frame".to_string());
            }
            Ok(BinRequest::Add(url, score))
        }
        OP_STATS => Ok(BinRequest::Stats),
        other => Err(format!("unknown request opcode 0x{other:02x}")),
    })
}

/// Decode one complete reply frame off the front of `buf`, if present.
pub fn decode_bin_reply(buf: &mut BytesMut) -> Result<Option<BinReply>, String> {
    decode_frame(buf, |opcode, payload| match opcode {
        OP_VERDICT => Ok(BinReply::Verdict(payload.verdict()?)),
        OP_VERDICTN => {
            let count = payload.u16()? as usize;
            if count > MAX_BATCH {
                return Err(format!("verdict batch of {count} exceeds {MAX_BATCH}"));
            }
            let mut vs = Vec::with_capacity(count);
            for _ in 0..count {
                vs.push(payload.verdict()?);
            }
            Ok(BinReply::VerdictN(vs))
        }
        OP_OK => match <[u8; 8]>::try_from(payload.0) {
            Ok(raw) => Ok(BinReply::Ok(u64::from_le_bytes(raw))),
            Err(_) => Err("malformed OK frame".to_string()),
        },
        OP_STATSR => std::str::from_utf8(payload.0)
            .map(|json| BinReply::Stats(json.to_string()))
            .map_err(|_| "non-utf8 stats".to_string()),
        OP_ERROR => Ok(BinReply::Error(
            String::from_utf8_lossy(payload.0).into_owned(),
        )),
        OP_BUSY => Ok(BinReply::Busy),
        other => Err(format!("unknown reply opcode 0x{other:02x}")),
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
