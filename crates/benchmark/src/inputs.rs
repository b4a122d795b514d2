//! Every input of every workload, as a pure function of the workload, the
//! seed and the sizing. URLs come from one [`ScaleWorld`] per run, whose site
//! `i` is a function of `(seed, i)`; the index ranges below keep the
//! populations apart.

use crate::loadgen::{Generator, Kind, Sent};
use crate::wire::Expect;
use bytes::BytesMut;
use freephish_core::scaleworld::{ScaleWorld, ScaleWorldConfig};
use freephish_serve::{encode_bin_request, BinRequest};
use freephish_simclock::Rng64;
use std::sync::Arc;

/// URLs in one `CHECKN` frame.
pub const BATCH: usize = 64;

/// Sites `0..n` are the known ones: baked into the index or published into
/// the delta.
const KNOWN_BASE: u64 = 0;
/// Never-baked URLs of the `hit_baked` pool.
const UNBAKED_BASE: u64 = 1 << 32;
/// URLs `line_mixed` adds, each once.
const ADDED_BASE: u64 = 1 << 33;
/// URLs `line_mixed` checks and nobody ever adds.
const UNKNOWN_BASE: u64 = 1 << 34;
/// The fixed pool of unknown URLs `miss_stream` repeats.
const REPEAT_BASE: u64 = 1 << 35;
/// The unbounded stream of URLs `miss_stream` sends once each.
const NEVER_BASE: u64 = 1 << 36;

/// How large a run is. `smoke` shrinks everything to run in well under a
/// second, for the schema test.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Entries baked into the `hit_baked` index.
    pub baked_entries: u64,
    /// URLs in the `hit_baked` query pool.
    pub pool_urls: usize,
    /// Entries of the in-memory delta of `line_mixed` and `miss_stream`.
    pub delta_entries: u64,
    /// Unknown URLs `line_mixed` draws checks from, and `miss_stream` repeats.
    pub unknown_pool: u64,
    /// Page bodies per class the `miss_stream` fetcher serves, and sites per
    /// class every model is trained on.
    pub corpus_per_class: usize,
    /// Campaign scale of `campaign_journaled`.
    pub campaign_scale: f64,
    /// Simulated days `campaign_journaled` covers per second of `--seconds`.
    pub campaign_days_per_second: f64,
    /// Fewest set-ups timed per run; `setup_s` is the median of them all.
    pub setups: usize,
    /// A set-up too short to time well once is repeated until this many
    /// seconds have gone into set-ups.
    pub setup_seconds: f64,
}

impl Sizing {
    pub const FULL: Sizing = Sizing {
        baked_entries: 1_000_000,
        pool_urls: 1 << 18,
        delta_entries: 65_536,
        unknown_pool: 65_536,
        corpus_per_class: 512,
        campaign_scale: 1.0,
        campaign_days_per_second: 7.5,
        setups: 3,
        setup_seconds: 1.0,
    };

    pub const SMOKE: Sizing = Sizing {
        baked_entries: 20_000,
        pool_urls: 1 << 11,
        delta_entries: 2_048,
        unknown_pool: 2_048,
        corpus_per_class: 64,
        campaign_scale: 0.02,
        campaign_days_per_second: 5.0,
        setups: 1,
        setup_seconds: 0.0,
    };
}

/// The world a run draws its URLs from.
pub fn world(workload: &str, seed: u64) -> ScaleWorld {
    let tag = workload
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
    ScaleWorld::new(ScaleWorldConfig {
        // Far more sites than any run touches: indices never wrap.
        sites: 1 << 40,
        seed: seed ^ tag.rotate_left(17),
        ..ScaleWorldConfig::default()
    })
}

/// FNV-1a, for input digests.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The site index a [`ScaleWorld`] URL was generated from: every site name
/// ends in `-<index in base 36>`.
pub fn index_of_url(url: &str) -> Option<u64> {
    let rest = url.strip_prefix("https://")?;
    // `https://<site>.<host>/` or `https://<host>/<prefix>/<site>`.
    let site = match rest.strip_suffix('/') {
        Some(host) => host.split('.').next()?,
        None => rest.rsplit('/').next()?,
    };
    u64::from_str_radix(site.rsplit('-').next()?, 36).ok()
}

/// Pre-encoded `CHECKN` frames over the `hit_baked` pool, with the verdicts
/// each must get.
pub struct FrameRing {
    frames: Vec<Vec<u8>>,
    expected: Vec<Arc<[Option<u64>]>>,
}

impl FrameRing {
    /// Half of the pool's URLs are baked entries drawn uniformly by index,
    /// half were never baked; they are mixed within every frame.
    pub fn generate(world: &ScaleWorld, seed: u64, sizing: &Sizing) -> FrameRing {
        let mut rng = Rng64::new(seed ^ 0x1217_BA4E);
        let mut frames = Vec::with_capacity(sizing.pool_urls / BATCH);
        let mut expected = Vec::with_capacity(frames.capacity());
        let mut buf = BytesMut::new();
        for frame in 0..sizing.pool_urls / BATCH {
            let (urls, verdicts): (Vec<String>, Vec<Option<u64>>) = (0..BATCH)
                .map(|slot| {
                    if rng.chance(0.5) {
                        let (url, score) =
                            world.verdict_at(KNOWN_BASE + rng.below(sizing.baked_entries));
                        (url, Some(score.to_bits()))
                    } else {
                        (
                            world
                                .verdict_at(UNBAKED_BASE + (frame * BATCH + slot) as u64)
                                .0,
                            None,
                        )
                    }
                })
                .unzip();
            buf.clear();
            encode_bin_request(&mut buf, &BinRequest::CheckN(urls))
                .expect("a frame of 64 short URLs encodes");
            frames.push(buf.to_vec());
            expected.push(verdicts.into());
        }
        FrameRing { frames, expected }
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    pub fn digest(&self) -> u64 {
        self.frames
            .iter()
            .fold(FNV_OFFSET, |h, frame| fnv1a(h, frame))
    }
}

/// Walks the ring from a per-connection offset, so one pass of every
/// connection covers the whole pool.
pub struct RingGenerator {
    ring: Arc<FrameRing>,
    next: usize,
}

impl RingGenerator {
    pub fn new(ring: Arc<FrameRing>, conn: usize, conns: usize) -> RingGenerator {
        let next = ring.len() * conn / conns;
        RingGenerator { ring, next }
    }
}

impl Generator for RingGenerator {
    fn next(&mut self, out: &mut BytesMut) -> Sent {
        let i = self.next;
        self.next = (i + 1) % self.ring.len();
        out.clear();
        out.extend_from_slice(&self.ring.frames[i]);
        Sent {
            kind: Kind::Check,
            urls: BATCH as u32,
            expect: Expect::Verdicts(self.ring.expected[i].clone()),
        }
    }
}

/// The entries published into the delta before `line_mixed` and
/// `miss_stream` start.
pub fn delta_entries(world: &ScaleWorld, sizing: &Sizing) -> Vec<(String, f64)> {
    (0..sizing.delta_entries)
        .map(|i| world.verdict_at(KNOWN_BASE + i))
        .collect()
}

/// The unknown URLs `miss_stream` keeps repeating.
pub fn repeat_pool(world: &ScaleWorld, sizing: &Sizing) -> Vec<String> {
    (0..sizing.unknown_pool)
        .map(|i| world.verdict_at(REPEAT_BASE + i).0)
        .collect()
}

/// A score as the line protocol carries it: four decimals.
fn line_score(score: f64) -> f64 {
    (score * 1e4).round() / 1e4
}

/// Requests of the line protocol come in rounds of this many: one `ADD`, a
/// `CHECK` of the URL just added, and checks drawn from the pools.
const LINE_ROUND: u64 = 100;

/// `line_mixed`: one URL per request, 1% durable `ADD`s of fresh URLs. The
/// request after an `ADD` checks the URL just added, which must be there.
pub struct LineGenerator {
    world: ScaleWorld,
    rng: Rng64,
    sizing: Sizing,
    conn: u64,
    conns: u64,
    position: u64,
    /// Every URL this connection added, with the score as sent.
    pub added: Vec<(String, f64)>,
}

impl LineGenerator {
    pub fn new(
        world: &ScaleWorld,
        seed: u64,
        sizing: &Sizing,
        conn: usize,
        conns: usize,
    ) -> LineGenerator {
        LineGenerator {
            world: world.clone(),
            rng: Rng64::new(seed ^ 0x11E_0000 ^ conn as u64),
            sizing: *sizing,
            conn: conn as u64,
            conns: conns as u64,
            // Connections start half a round apart, so their ADDs do not
            // arrive together.
            position: conn as u64 * LINE_ROUND / 2,
            added: Vec::new(),
        }
    }
}

impl Generator for LineGenerator {
    fn next(&mut self, out: &mut BytesMut) -> Sent {
        use std::fmt::Write;
        let slot = self.position % LINE_ROUND;
        self.position += 1;
        out.clear();
        let mut line = String::with_capacity(96);
        let sent = match slot {
            0 => {
                let index = ADDED_BASE + self.added.len() as u64 * self.conns + self.conn;
                let (url, score) = self.world.verdict_at(index);
                let score = line_score(score);
                writeln!(line, "ADD {url} {score:.4}").expect("write to String");
                self.added.push((url, score));
                Sent {
                    kind: Kind::Add,
                    urls: 1,
                    expect: Expect::LineOk,
                }
            }
            1 if !self.added.is_empty() => {
                let (url, score) = self.added.last().expect("checked non-empty");
                writeln!(line, "CHECK {url}").expect("write to String");
                Sent {
                    kind: Kind::Check,
                    urls: 1,
                    expect: Expect::Line(format!("PHISHING {score:.4}")),
                }
            }
            _ => {
                let expect = if self.rng.chance(0.5) {
                    let (url, score) = self
                        .world
                        .verdict_at(KNOWN_BASE + self.rng.below(self.sizing.delta_entries));
                    writeln!(line, "CHECK {url}").expect("write to String");
                    format!("PHISHING {score:.4}")
                } else {
                    let (url, _) = self
                        .world
                        .verdict_at(UNKNOWN_BASE + self.rng.below(self.sizing.unknown_pool));
                    writeln!(line, "CHECK {url}").expect("write to String");
                    "SAFE 0.0000".to_string()
                };
                Sent {
                    kind: Kind::Check,
                    urls: 1,
                    expect: Expect::Line(expect),
                }
            }
        };
        out.extend_from_slice(line.as_bytes());
        sent
    }
}

/// Of the 64 URLs of a `miss_stream` frame: known ones first, then repeats
/// from the fixed unknown pool, then never-seen ones.
pub const MISS_KNOWN: usize = BATCH / 4;
pub const MISS_REPEAT: usize = BATCH / 4;
pub const MISS_NEVER: usize = BATCH / 2;

/// `miss_stream`: a quarter known, a quarter repeated unknowns, half never
/// seen before by anyone: connection `c` of `n` takes stream positions
/// `c, c + n, c + 2n, ...`.
pub struct MissGenerator {
    world: ScaleWorld,
    rng: Rng64,
    sizing: Sizing,
    conn: u64,
    conns: u64,
    /// Whether frames carry their never-seen half; without it the repeats
    /// fill the frame.
    pub never_seen: bool,
    /// Never-seen URLs this connection has sent.
    never_sent: u64,
    /// `never_sent` at the start of each frame generated since the last
    /// [`MissGenerator::take_frame_log`].
    frame_log: Vec<u64>,
}

impl MissGenerator {
    pub fn new(
        world: &ScaleWorld,
        seed: u64,
        sizing: &Sizing,
        conn: usize,
        conns: usize,
    ) -> MissGenerator {
        MissGenerator {
            world: world.clone(),
            rng: Rng64::new(seed ^ 0x3155_0000 ^ conn as u64),
            sizing: *sizing,
            conn: conn as u64,
            conns: conns as u64,
            never_seen: true,
            never_sent: 0,
            frame_log: Vec::new(),
        }
    }

    /// World index of this connection's `k`-th never-seen URL.
    pub fn never_index(&self, k: u64) -> u64 {
        NEVER_BASE + k * self.conns + self.conn
    }

    /// Which of this connection's never-seen URLs a world index is, if any.
    pub fn never_position(&self, index: u64) -> Option<u64> {
        let offset = index.checked_sub(NEVER_BASE)?;
        (offset % self.conns == self.conn).then_some(offset / self.conns)
    }

    pub fn take_frame_log(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.frame_log)
    }
}

impl Generator for MissGenerator {
    fn next(&mut self, out: &mut BytesMut) -> Sent {
        self.frame_log.push(self.never_sent);
        let mut urls = Vec::with_capacity(BATCH);
        let mut known = Vec::with_capacity(MISS_KNOWN);
        for _ in 0..MISS_KNOWN {
            let (url, score) = self
                .world
                .verdict_at(KNOWN_BASE + self.rng.below(self.sizing.delta_entries));
            urls.push(url);
            known.push(score.to_bits());
        }
        let repeats = if self.never_seen {
            MISS_REPEAT
        } else {
            MISS_REPEAT + MISS_NEVER
        };
        for _ in 0..repeats {
            let index = REPEAT_BASE + self.rng.below(self.sizing.unknown_pool);
            urls.push(self.world.verdict_at(index).0);
        }
        for _ in repeats..MISS_REPEAT + MISS_NEVER {
            urls.push(self.world.verdict_at(self.never_index(self.never_sent)).0);
            self.never_sent += 1;
        }
        out.clear();
        encode_bin_request(out, &BinRequest::CheckN(urls))
            .expect("a frame of 64 short URLs encodes");
        Sent {
            kind: Kind::Check,
            urls: BATCH as u32,
            expect: Expect::KnownThenAny {
                known,
                total: BATCH,
            },
        }
    }
}

/// Digest of the first `requests` requests of every connection of a
/// generator family, for the determinism test.
pub fn stream_digest<G: Generator>(mut generators: Vec<G>, requests: usize) -> u64 {
    let mut out = BytesMut::new();
    let mut hash = FNV_OFFSET;
    for generator in &mut generators {
        for _ in 0..requests {
            generator.next(&mut out);
            hash = fnv1a(hash, &out);
        }
    }
    hash
}
