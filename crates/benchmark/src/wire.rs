//! The client side of the verdict wire: one persistent loopback connection
//! speaking either protocol, split so one thread can write while another
//! reads.

use bytes::BytesMut;
use freephish_serve::{decode_bin_reply, BinReply, Verdict, HANDSHAKE_LINE, HANDSHAKE_OK};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A reply that takes longer than this counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    Binary,
    Line,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Frame(BinReply),
    /// A reply line without its newline.
    Line(String),
}

/// What the reply to a request must be.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A `VERDICTN` equal to this, URL for URL: the score bits of a
    /// `PHISHING`, `None` for `SAFE 0.0`.
    Verdicts(Arc<[Option<u64>]>),
    /// A `VERDICTN` of `total` verdicts that starts with `PHISHING` verdicts
    /// of these score bits; the rest may be any verdict scored in `0..=1`.
    KnownThenAny { known: Vec<u64>, total: usize },
    /// Exactly this line.
    Line(String),
    /// `OK <generation>`.
    LineOk,
}

fn matches_exact(verdict: &Verdict, expected: Option<u64>) -> bool {
    match (verdict, expected) {
        (Verdict::Phishing(score), Some(bits)) => score.to_bits() == bits,
        (Verdict::Safe(score), None) => *score == 0.0,
        _ => false,
    }
}

impl Expect {
    pub fn accepts(&self, reply: &Reply) -> bool {
        match (self, reply) {
            (Expect::Verdicts(expected), Reply::Frame(BinReply::VerdictN(got))) => {
                got.len() == expected.len()
                    && got
                        .iter()
                        .zip(expected.iter())
                        .all(|(v, e)| matches_exact(v, *e))
            }
            (Expect::KnownThenAny { known, total }, Reply::Frame(BinReply::VerdictN(got))) => {
                got.len() == *total
                    && got
                        .iter()
                        .zip(known)
                        .all(|(v, bits)| matches_exact(v, Some(*bits)))
                    && got[known.len()..]
                        .iter()
                        .all(|v| (0.0..=1.0).contains(&v.score()))
            }
            (Expect::Line(expected), Reply::Line(got)) => expected == got,
            (Expect::LineOk, Reply::Line(got)) => got
                .strip_prefix("OK ")
                .is_some_and(|generation| generation.parse::<u64>().is_ok()),
            _ => false,
        }
    }
}

/// The reading half of a connection.
pub struct Reader {
    stream: TcpStream,
    buf: BytesMut,
    protocol: Protocol,
}

impl Reader {
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }

    fn line(&mut self) -> io::Result<String> {
        loop {
            if let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
                let line = self.buf.split_to(end + 1);
                return String::from_utf8(line[..end].to_vec()).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "reply line is not UTF-8")
                });
            }
            self.fill()?;
        }
    }

    /// Blocks until one whole reply has arrived.
    pub fn receive(&mut self) -> io::Result<Reply> {
        match self.protocol {
            Protocol::Line => self.line().map(Reply::Line),
            Protocol::Binary => loop {
                match decode_bin_reply(&mut self.buf) {
                    Ok(Some(frame)) => return Ok(Reply::Frame(frame)),
                    Ok(None) => self.fill()?,
                    Err(msg) => return Err(io::Error::new(io::ErrorKind::InvalidData, msg)),
                }
            },
        }
    }
}

pub struct Connection {
    pub writer: TcpStream,
    pub reader: Reader,
}

impl Connection {
    pub fn open(addr: SocketAddr, protocol: Protocol) -> io::Result<Connection> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let stream = writer.try_clone()?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut conn = Connection {
            writer,
            reader: Reader {
                stream,
                buf: BytesMut::with_capacity(64 * 1024),
                protocol,
            },
        };
        if protocol == Protocol::Binary {
            conn.writer
                .write_all(format!("{HANDSHAKE_LINE}\n").as_bytes())?;
            let answer = conn.reader.line()?;
            if answer != HANDSHAKE_OK {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("handshake answered {answer:?}"),
                ));
            }
        }
        Ok(conn)
    }

    /// One request, one reply.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.writer.write_all(request)?;
        self.reader.receive()
    }
}
