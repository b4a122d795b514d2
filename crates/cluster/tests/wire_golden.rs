//! Golden bytes for both wires: one encoded frame of every opcode of the
//! verdict wire (`serve::proto`, magic `0xFB`) and of the replication
//! wire (`cluster::wire`, magic `0xFC`), spelled out as hex. The round-trip
//! properties cannot catch an encoder and a decoder that drift together;
//! these constants can, and each frame must also decode back to its value.

use bytes::BytesMut;
use freephish_cluster::wire::{decode_repl, encode_repl, ReplCursor, ReplFrame};
use freephish_serve::{
    decode_bin_reply, decode_bin_request, encode_bin_reply, encode_bin_request, BinReply,
    BinRequest, Verdict,
};
use freephish_store::segment::encode_frame_into;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn request(req: BinRequest) -> String {
    let mut buf = BytesMut::new();
    encode_bin_request(&mut buf, &req).expect("encodes");
    let bytes = hex(&buf);
    assert_eq!(decode_bin_request(&mut buf), Ok(Some(req)));
    assert!(buf.is_empty());
    bytes
}

fn reply(rep: BinReply) -> String {
    let mut buf = BytesMut::new();
    encode_bin_reply(&mut buf, &rep);
    let bytes = hex(&buf);
    assert_eq!(decode_bin_reply(&mut buf), Ok(Some(rep)));
    assert!(buf.is_empty());
    bytes
}

fn repl(frame: ReplFrame) -> String {
    let mut buf = BytesMut::new();
    encode_repl(&mut buf, &frame).expect("encodes");
    let bytes = hex(&buf);
    assert_eq!(decode_repl(&mut buf), Ok(Some(frame)));
    assert!(buf.is_empty());
    bytes
}

fn urls(n: usize) -> Vec<String> {
    [
        "https://a.wix.com/",
        "https://b.weebly.com/x",
        "http://c.io/",
    ][..n]
        .iter()
        .map(|u| u.to_string())
        .collect()
}

#[test]
fn verdict_wire_requests_are_byte_exact() {
    let cases = [
        (
            "CHECK",
            request(BinRequest::Check("https://a.weebly.com/x".into())),
            "fb011600000068747470733a2f2f612e776565626c792e636f6d2f78",
        ),
        ("CHECKN/0", request(BinRequest::CheckN(urls(0))), "fb02020000000000"),
        ("CHECKN/1", request(BinRequest::CheckN(urls(1))), "fb02160000000100120068747470733a2f2f612e7769782e636f6d2f"),
        ("CHECKN/3", request(BinRequest::CheckN(urls(3))), "fb023c0000000300120068747470733a2f2f612e7769782e636f6d2f160068747470733a2f2f622e776565626c792e636f6d2f780c00687474703a2f2f632e696f2f"),
        (
            "ADD",
            request(BinRequest::Add("https://evil.weebly.com/".into(), 0.93)),
            "fb0322000000180068747470733a2f2f6576696c2e776565626c792e636f6d2fc3f5285c8fc2ed3f",
        ),
        ("STATS", request(BinRequest::Stats), "fb0400000000"),
    ];
    for (name, got, want) in cases {
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn verdict_wire_replies_are_byte_exact() {
    let cases = [
        (
            "VERDICT",
            reply(BinReply::Verdict(Verdict::Phishing(0.97))),
            "fb8109000000010ad7a3703d0aef3f",
        ),
        (
            "VERDICTN",
            reply(BinReply::VerdictN(vec![
                Verdict::Safe(0.125),
                Verdict::Phishing(0.8),
            ])),
            "fb8214000000020000000000000000c03f019a9999999999e93f",
        ),
        (
            "OK",
            reply(BinReply::Ok(0x0102_0304_0506_0708)),
            "fb83080000000807060504030201",
        ),
        (
            "STATSR",
            reply(BinReply::Stats("{\"a\":1}".into())),
            "fb84070000007b2261223a317d",
        ),
        (
            "ERROR",
            reply(BinReply::Error("nope".into())),
            "fb85040000006e6f7065",
        ),
        ("BUSY", reply(BinReply::Busy), "fb8600000000"),
    ];
    for (name, got, want) in cases {
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn replication_wire_frames_are_byte_exact() {
    let mut wal = Vec::new();
    encode_frame_into(&mut wal, b"payload");
    let cases = [
        (
            "HELLO/empty",
            repl(ReplFrame::Hello(ReplCursor::empty())),
            "fc010f000000020000000000000000000000000000",
        ),
        (
            "HELLO/cursor",
            repl(ReplFrame::Hello(ReplCursor {
                segment: Some(7),
                offset: 0x1_0000_0063,
            })),
            "fc010f000000020001070000006300000001000000",
        ),
        (
            "RESET",
            repl(ReplFrame::Reset { first_segment: 3 }),
            "fc820400000003000000",
        ),
        (
            "SEGMENT",
            repl(ReplFrame::Segment { index: 0x0a0b }),
            "fc83040000000b0a0000",
        ),
        (
            "RECORD",
            repl(ReplFrame::Record {
                segment: 4,
                end_offset: 8 + wal.len() as u64,
                frame: wal.clone(),
            }),
            "fc841b00000004000000170000000000000007000000156a2c427061796c6f6164",
        ),
        (
            "TIP",
            repl(ReplFrame::Tip {
                segment: 9,
                offset: 4096,
            }),
            "fc850c000000090000000010000000000000",
        ),
        (
            "ERROR",
            repl(ReplFrame::Error("boom".into())),
            "fc8604000000626f6f6d",
        ),
    ];
    for (name, got, want) in cases {
        assert_eq!(got, want, "{name}");
    }
}
