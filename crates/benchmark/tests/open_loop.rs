//! The open loop must not omit the wait a stalled server imposes on the
//! requests that were due while it stalled.

use bytes::BytesMut;
use freephish_benchmark::loadgen::{open_loop, Client, Generator, Kind, Sent};
use freephish_benchmark::wire::{Connection, Expect, Protocol};
use freephish_serve::{EventedServer, UrlChecker, Verdict};
use std::sync::Arc;
use std::time::Duration;

const RATE: f64 = 2_000.0;
const STALL: Duration = Duration::from_millis(50);
/// The request that stalls the server, and how many are due while it does.
const STALL_AT: usize = 100;
const DUE_DURING_STALL: usize = 100;

struct Numbered(usize);

impl Generator for Numbered {
    fn next(&mut self, out: &mut BytesMut) -> Sent {
        let name = if self.0 == STALL_AT { "stall" } else { "quick" };
        out.clear();
        out.extend_from_slice(format!("CHECK https://{name}.weebly.com/{}\n", self.0).as_bytes());
        self.0 += 1;
        Sent {
            kind: Kind::Check,
            urls: 1,
            expect: Expect::Line("SAFE 0.0000".to_string()),
        }
    }
}

#[test]
fn a_server_stall_delays_every_request_due_during_it() {
    let checker: Arc<dyn UrlChecker> = Arc::new(|url: &str| {
        if url.contains("stall") {
            std::thread::sleep(STALL);
        }
        Verdict::Safe(0.0)
    });
    let server = EventedServer::start(checker).unwrap();
    let link = Connection::open(server.addr(), Protocol::Line).unwrap();
    let mut clients = [Client {
        link,
        generator: Numbered(0),
    }];
    let phase = open_loop(&mut clients, RATE, 0.3);

    // Nothing was held back or dropped: the schedule does not wait for replies.
    assert_eq!(
        (phase.sent, phase.failed, phase.samples.len()),
        (600, 0, 600)
    );
    let interval_us = 1e6 / RATE;
    let stall_us = STALL.as_secs_f64() * 1e6;
    for (k, sample) in phase
        .samples
        .iter()
        .enumerate()
        .skip(STALL_AT)
        .take(DUE_DURING_STALL)
    {
        // Due `k - STALL_AT` intervals into the stall, answered only after it.
        let still_stalled_us = stall_us - (k - STALL_AT) as f64 * interval_us;
        assert!(
            sample.latency_us >= still_stalled_us - 1.0,
            "request {k}, due {:.0} us into the stall, reports {:.0} us",
            (k - STALL_AT) as f64 * interval_us,
            sample.latency_us
        );
    }
    // And the stall is over long before the phase ends.
    assert!(
        phase.samples[500..]
            .iter()
            .map(|s| s.latency_us)
            .fold(f64::MAX, f64::min)
            < stall_us / 2.0
    );
}
