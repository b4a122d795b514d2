//! Open- and closed-loop load over persistent connections.
//!
//! An open-loop phase sends on a fixed schedule whatever the server does:
//! connection `c` of `n` sends its `k`-th request when request number
//! `k * n + c` of the whole phase is due. A writer thread per connection
//! sleeps until each due time and a reader thread takes replies as they
//! arrive, so a stalled server delays no send, and every latency is timed
//! from the due time, not from the write. A closed-loop phase keeps a fixed
//! number of requests in flight per connection.

use crate::host;
use crate::trace::{Tracer, Track};
use crate::wire::{Connection, Expect};
use bytes::BytesMut;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Check,
    Add,
}

/// What a generator says about the request it just wrote.
#[derive(Debug, Clone)]
pub struct Sent {
    pub kind: Kind,
    /// URLs the request carries.
    pub urls: u32,
    pub expect: Expect,
}

/// A connection's stream of requests: a pure function of the workload, the
/// seed and the connection number.
pub trait Generator: Send {
    /// Replaces the contents of `out` with the bytes of the next request.
    fn next(&mut self, out: &mut BytesMut) -> Sent;
}

pub struct Client<G> {
    pub link: Connection,
    pub generator: G,
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub conn: u16,
    pub kind: Kind,
    /// URLs the request carried.
    pub urls: u32,
    /// When the request was due (open loop) or written (closed loop), from
    /// the start of the phase.
    pub due_us: f64,
    pub latency_us: f64,
}

/// A phase counts the URLs it answered in windows of this length, so that a
/// rate can be reported as a median over windows, which one stalled window
/// moves little.
pub const WINDOW_S: f64 = 0.5;

#[derive(Debug)]
pub struct Phase {
    pub start: Instant,
    /// Answered requests, in send order within a connection.
    pub samples: Vec<Sample>,
    pub sent: u64,
    pub urls_answered: u64,
    /// URLs answered in each [`WINDOW_S`] of the phase, by the time the reply
    /// came in.
    pub window_urls: Vec<u64>,
    /// Requests lost, refused or answered wrongly.
    pub failed: u64,
    /// The latest any request was written after its due time.
    pub max_lag_us: f64,
    pub wall_s: f64,
    /// CPU time the whole process used during the phase.
    pub cpu_s: f64,
}

impl Phase {
    pub fn answered(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Ascending latencies of the answered requests of `kind`.
    pub fn latencies_us(&self, kind: Kind) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.latency_us)
            .collect();
        crate::stats::sort(&mut out);
        out
    }

    pub fn urls_per_s(&self) -> f64 {
        self.urls_answered as f64 / self.wall_s
    }

    /// URLs answered per second in each whole window of the phase.
    pub fn window_rates(&self) -> Vec<f64> {
        let whole = (self.wall_s / WINDOW_S) as usize;
        self.window_urls
            .iter()
            .take(whole)
            .map(|urls| *urls as f64 / WINDOW_S)
            .collect()
    }

    /// The answered requests in `n` windows of equal length, by the time the
    /// reply came in.
    pub fn windows(&self, n: usize) -> Vec<Vec<Sample>> {
        let width_us = self.wall_s * 1e6 / n as f64;
        let mut windows = vec![Vec::new(); n];
        for sample in &self.samples {
            let done_us = sample.due_us + sample.latency_us;
            windows[((done_us / width_us) as usize).min(n - 1)].push(*sample);
        }
        windows
    }
}

/// What one connection's threads hand back.
#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    sent: u64,
    urls_answered: u64,
    window_urls: Vec<u64>,
    failed: u64,
    max_lag_us: f64,
}

impl Tally {
    /// Counts a correct reply to a request of `urls` URLs that came in
    /// `since_start` into the phase.
    fn answered(&mut self, urls: u32, since_start: Duration) {
        self.urls_answered += u64::from(urls);
        let window = (since_start.as_secs_f64() / WINDOW_S) as usize;
        if self.window_urls.len() <= window {
            self.window_urls.resize(window + 1, 0);
        }
        self.window_urls[window] += u64::from(urls);
    }
}

fn collect(start: Instant, cpu_before: f64, tallies: Vec<Tally>) -> Phase {
    let mut phase = Phase {
        start,
        samples: Vec::new(),
        sent: 0,
        urls_answered: 0,
        window_urls: Vec::new(),
        failed: 0,
        max_lag_us: 0.0,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu_before,
    };
    for tally in tallies {
        phase.samples.extend(tally.samples);
        phase.sent += tally.sent;
        phase.urls_answered += tally.urls_answered;
        if phase.window_urls.len() < tally.window_urls.len() {
            phase.window_urls.resize(tally.window_urls.len(), 0);
        }
        for (sum, urls) in phase.window_urls.iter_mut().zip(&tally.window_urls) {
            *sum += urls;
        }
        phase.failed += tally.failed;
        phase.max_lag_us = phase.max_lag_us.max(tally.max_lag_us);
    }
    phase
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Sends `requests_per_s * seconds` requests, spread evenly over the
/// connections and over time.
pub fn open_loop<G: Generator>(
    clients: &mut [Client<G>],
    requests_per_s: f64,
    seconds: f64,
) -> Phase {
    let conns = clients.len();
    let per_conn = ((requests_per_s * seconds) as u64 / conns as u64).max(1);
    let cpu_before = host::cpu_seconds();
    let start = Instant::now();
    let tallies = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let Client { link, generator } = client;
                let (writer, reader) = (&mut link.writer, &mut link.reader);
                let (tx, rx) = mpsc::channel::<(Sent, Instant)>();
                let write = scope.spawn(move || {
                    let mut out = BytesMut::with_capacity(8 * 1024);
                    let (mut sent, mut max_lag) = (0u64, Duration::ZERO);
                    for k in 0..per_conn {
                        // The request is built before its due time, so
                        // building it delays nothing.
                        let meta = generator.next(&mut out);
                        let number = k * conns as u64 + c as u64;
                        let due = start + Duration::from_secs_f64(number as f64 / requests_per_s);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        max_lag = max_lag.max(Instant::now().saturating_duration_since(due));
                        if writer.write_all(&out).is_err() || tx.send((meta, due)).is_err() {
                            break;
                        }
                        sent += 1;
                    }
                    (sent, max_lag)
                });
                let read = scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut lost = false;
                    // The channel closes when the writer has sent its last.
                    for (meta, due) in rx {
                        let reply = if lost { None } else { reader.receive().ok() };
                        let now = Instant::now();
                        match reply {
                            Some(reply) if meta.expect.accepts(&reply) => {
                                tally.answered(meta.urls, now.saturating_duration_since(start));
                                tally.samples.push(Sample {
                                    conn: c as u16,
                                    kind: meta.kind,
                                    urls: meta.urls,
                                    due_us: micros(due.saturating_duration_since(start)),
                                    latency_us: micros(now.saturating_duration_since(due)),
                                });
                            }
                            Some(_) => tally.failed += 1,
                            // After one lost reply the stream cannot be
                            // matched to requests any more.
                            None => {
                                lost = true;
                                tally.failed += 1;
                            }
                        }
                    }
                    tally
                });
                (write, read)
            })
            .collect();
        handles
            .into_iter()
            .map(|(write, read)| {
                let (sent, max_lag) = write.join().expect("writer thread does not panic");
                let mut tally = read.join().expect("reader thread does not panic");
                tally.sent = sent;
                tally.max_lag_us = micros(max_lag);
                tally
            })
            .collect()
    });
    collect(start, cpu_before, tallies)
}

/// How long a closed-loop phase lasts.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Seconds(f64),
    /// This many requests on every connection.
    Requests(u64),
}

/// `depth` requests in flight per connection, the next sent when a reply is
/// in. With tracing on, every round trip is a `client.request` span. Only a
/// loop with one request in flight keeps per-request samples: a pipelined
/// request spends most of its time queued behind its own connection's
/// earlier ones, and a deep loop answers enough requests for the samples to
/// show in the process's memory.
pub fn closed_loop<G: Generator>(
    clients: &mut [Client<G>],
    until: Until,
    depth: usize,
    tracer: &Tracer,
) -> Phase {
    let cpu_before = host::cpu_seconds();
    let start = Instant::now();
    let tallies = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut out = BytesMut::with_capacity(8 * 1024);
                    let mut in_flight: VecDeque<(Sent, Instant)> = VecDeque::with_capacity(depth);
                    loop {
                        let done = match until {
                            Until::Seconds(s) => start.elapsed().as_secs_f64() >= s,
                            Until::Requests(n) => tally.sent >= n,
                        };
                        while !done && in_flight.len() < depth {
                            let meta = client.generator.next(&mut out);
                            let written = Instant::now();
                            if client.link.writer.write_all(&out).is_err() {
                                tally.failed += 1;
                                return tally;
                            }
                            tally.sent += 1;
                            in_flight.push_back((meta, written));
                        }
                        let Some((meta, written)) = in_flight.pop_front() else {
                            return tally;
                        };
                        let reply = client.link.reader.receive();
                        if tracer.enabled() {
                            tracer.record(
                                "client.request",
                                Track::Request,
                                written,
                                Instant::now(),
                            );
                        }
                        match reply {
                            Ok(reply) if meta.expect.accepts(&reply) => {
                                tally.answered(meta.urls, start.elapsed());
                                if depth == 1 {
                                    tally.samples.push(Sample {
                                        conn: c as u16,
                                        kind: meta.kind,
                                        urls: meta.urls,
                                        due_us: micros(written.saturating_duration_since(start)),
                                        latency_us: micros(written.elapsed()),
                                    });
                                }
                            }
                            Ok(_) => tally.failed += 1,
                            Err(_) => {
                                tally.failed += 1 + in_flight.len() as u64;
                                return tally;
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    collect(start, cpu_before, tallies)
}
