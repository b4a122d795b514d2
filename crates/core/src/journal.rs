//! The run journal: crash-recoverable persistence for pipeline runs.
//!
//! A monitoring deployment of the paper's system runs for months; this
//! module makes a run *resumable*. Every tick, the pipeline appends its
//! detections (verdict + report outcome) and a checkpoint record to a
//! [`freephish_store::Store`]-backed [`RunJournal`]. After a crash,
//! [`JournaledRun::open`] rebuilds the exact in-memory state — world,
//! reporter tallies, detection list, streaming anchor — and the resumed
//! run produces **bit-identical** analysis output to an uninterrupted one
//! (DESIGN.md §8's determinism contract, extended across restarts).
//!
//! ## Why replay works
//!
//! The only randomness consumed while ticking lives in each `FwbHost`'s
//! RNG, drawn inside `report_abuse` — and only for the *first* report of a
//! site (repeat reports return before any draw). Crawling is `&self` and
//! classification is pure. So the journal records exactly the
//! world-mutating calls (`Reporter::report`, in order), and replaying them
//! against a freshly re-seeded world reproduces the pre-crash state bit
//! for bit. Each replayed report's outcome is cross-checked against the
//! journaled one: a mismatch (wrong seed, tampered store) fails recovery
//! loudly instead of silently diverging.
//!
//! ## Torn ticks
//!
//! A tick is the atomic unit: the journal fsyncs once per checkpoint
//! record. On open, anything after the last checkpoint — a partially
//! journaled tick — is physically truncated from the WAL, and the resumed
//! run re-executes that tick from its start. Scores travel as raw `f64`
//! bits, never through decimal formatting.

use crate::campaign::{self, CampaignConfig, CampaignRecord};
use crate::pipeline::reporting::Reporter;
use crate::pipeline::streaming::{StreamingModule, POLL_INTERVAL};
use crate::pipeline::{Detection, Pipeline};
use crate::world::World;
use freephish_fwbsim::history::Platform;
use freephish_obs::{Counter, Histogram, MetricsSnapshot, Registry};
use freephish_simclock::SimTime;
use freephish_socialsim::PostId;
use freephish_store::segment::{encode_frame_into, scan_buffer};
use freephish_store::{
    DecodeError, PayloadReader, PayloadWriter, RecordPos, Store, StoreObserver, StoreOptions,
};
use freephish_webgen::FwbKind;
use std::io;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Sentinel for "no timestamp" in journaled `Option<SimTime>` fields.
pub const NONE_SECS: u64 = u64::MAX;

/// Run parameters, journaled first so recovery can rebuild the world.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Campaign + world seed.
    pub seed: u64,
    /// Campaign window length in days.
    pub days: u64,
    /// Campaign scale factor.
    pub scale: f64,
    /// Benign-post fraction.
    pub benign_fraction: f64,
    /// Classifier threshold the run was started with.
    pub threshold: f64,
    /// End of the measurement window, seconds.
    pub end_secs: u64,
}

impl RunMeta {
    /// The campaign configuration this meta record encodes.
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            scale: self.scale,
            days: self.days,
            benign_fraction: self.benign_fraction,
            seed: self.seed,
        }
    }
}

/// One detection, as journaled.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictEvent {
    /// Flagged URL.
    pub url: String,
    /// Hosting service.
    pub fwb: FwbKind,
    /// Platform observed on.
    pub platform: Platform,
    /// Carrying post id.
    pub post: u64,
    /// Poll-grid observation time, seconds.
    pub observed_at_secs: u64,
    /// Classifier score (persisted as raw bits).
    pub score: f64,
}

/// The outcome of the abuse report filed for a detection.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportEvent {
    /// Reported URL.
    pub url: String,
    /// Service it was reported to.
    pub fwb: FwbKind,
    /// False for repeat/unknown-URL reports (nothing tallied).
    pub filed: bool,
    /// Service acknowledged.
    pub acknowledged: bool,
    /// Service followed up.
    pub followed_up: bool,
    /// Scheduled removal time, or [`NONE_SECS`].
    pub removal_at_secs: u64,
    /// Attacker account terminated.
    pub account_terminated: bool,
}

/// End-of-tick marker: the durable unit of progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointEvent {
    /// The tick that just completed (poll-grid time, seconds).
    pub tick_secs: u64,
    /// Streaming module counters at that point.
    pub scanned: u64,
    /// FWB URLs observed so far.
    pub observed: u64,
    /// Detections accumulated so far (replay cross-check).
    pub detections_total: u64,
}

/// A verdict addition (the extension daemon's `ADD` command journals
/// these in the store its write role names: its own sidecar, or — on a
/// cluster primary — the main WAL).
#[derive(Debug, Clone, PartialEq)]
pub struct AddEvent {
    /// The URL to treat as known phishing.
    pub url: String,
    /// Its score.
    pub score: f64,
}

/// Every record kind the run journal and verdict stores carry.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// Run parameters (always the first record).
    Meta(RunMeta),
    /// A detection.
    Verdict(VerdictEvent),
    /// Its report outcome.
    Report(ReportEvent),
    /// End-of-tick marker.
    Checkpoint(CheckpointEvent),
    /// Manual verdict addition.
    Add(AddEvent),
}

const TAG_META: u8 = 0;
const TAG_VERDICT: u8 = 1;
const TAG_REPORT: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;
const TAG_ADD: u8 = 4;

fn fwb_to_u8(fwb: FwbKind) -> u8 {
    FwbKind::all()
        .position(|k| k == fwb)
        .expect("every FwbKind is in Table-4 order") as u8
}

fn fwb_from_u8(i: u8) -> Result<FwbKind, DecodeError> {
    FwbKind::all()
        .nth(i as usize)
        .ok_or_else(|| DecodeError(format!("unknown fwb index {i}")))
}

fn platform_to_u8(p: Platform) -> u8 {
    match p {
        Platform::Twitter => 0,
        Platform::Facebook => 1,
    }
}

fn platform_from_u8(i: u8) -> Result<Platform, DecodeError> {
    match i {
        0 => Ok(Platform::Twitter),
        1 => Ok(Platform::Facebook),
        _ => Err(DecodeError(format!("unknown platform index {i}"))),
    }
}

/// Encode one event as a store payload.
pub fn encode_event(ev: &RunEvent) -> Vec<u8> {
    let mut w = PayloadWriter::with_capacity(64);
    match ev {
        RunEvent::Meta(m) => {
            w.put_u8(TAG_META);
            w.put_u64(m.seed);
            w.put_u64(m.days);
            w.put_f64(m.scale);
            w.put_f64(m.benign_fraction);
            w.put_f64(m.threshold);
            w.put_u64(m.end_secs);
        }
        RunEvent::Verdict(v) => {
            w.put_u8(TAG_VERDICT);
            w.put_str(&v.url);
            w.put_u8(fwb_to_u8(v.fwb));
            w.put_u8(platform_to_u8(v.platform));
            w.put_u64(v.post);
            w.put_u64(v.observed_at_secs);
            w.put_f64(v.score);
        }
        RunEvent::Report(r) => {
            w.put_u8(TAG_REPORT);
            w.put_str(&r.url);
            w.put_u8(fwb_to_u8(r.fwb));
            w.put_u8(r.filed as u8);
            w.put_u8(r.acknowledged as u8);
            w.put_u8(r.followed_up as u8);
            w.put_u64(r.removal_at_secs);
            w.put_u8(r.account_terminated as u8);
        }
        RunEvent::Checkpoint(c) => {
            w.put_u8(TAG_CHECKPOINT);
            w.put_u64(c.tick_secs);
            w.put_u64(c.scanned);
            w.put_u64(c.observed);
            w.put_u64(c.detections_total);
        }
        RunEvent::Add(a) => {
            w.put_u8(TAG_ADD);
            w.put_str(&a.url);
            w.put_f64(a.score);
        }
    }
    w.into_bytes()
}

fn get_bool(r: &mut PayloadReader<'_>) -> Result<bool, DecodeError> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        n => Err(DecodeError(format!("invalid bool byte {n}"))),
    }
}

/// Decode one store payload back to an event.
pub fn decode_event(payload: &[u8]) -> Result<RunEvent, DecodeError> {
    let mut r = PayloadReader::new(payload);
    let ev = match r.get_u8()? {
        TAG_META => RunEvent::Meta(RunMeta {
            seed: r.get_u64()?,
            days: r.get_u64()?,
            scale: r.get_f64()?,
            benign_fraction: r.get_f64()?,
            threshold: r.get_f64()?,
            end_secs: r.get_u64()?,
        }),
        TAG_VERDICT => RunEvent::Verdict(VerdictEvent {
            url: r.get_str()?,
            fwb: fwb_from_u8(r.get_u8()?)?,
            platform: platform_from_u8(r.get_u8()?)?,
            post: r.get_u64()?,
            observed_at_secs: r.get_u64()?,
            score: r.get_f64()?,
        }),
        TAG_REPORT => RunEvent::Report(ReportEvent {
            url: r.get_str()?,
            fwb: fwb_from_u8(r.get_u8()?)?,
            filed: get_bool(&mut r)?,
            acknowledged: get_bool(&mut r)?,
            followed_up: get_bool(&mut r)?,
            removal_at_secs: r.get_u64()?,
            account_terminated: get_bool(&mut r)?,
        }),
        TAG_CHECKPOINT => RunEvent::Checkpoint(CheckpointEvent {
            tick_secs: r.get_u64()?,
            scanned: r.get_u64()?,
            observed: r.get_u64()?,
            detections_total: r.get_u64()?,
        }),
        TAG_ADD => RunEvent::Add(AddEvent {
            url: r.get_str()?,
            score: r.get_f64()?,
        }),
        tag => return Err(DecodeError(format!("unknown event tag {tag}"))),
    };
    r.expect_end()?;
    Ok(ev)
}

// ---------------------------------------------------------------------------
// Store metrics: bridge the std-only store's observer hooks into the obs
// registry, one global registry shared by every store in the process (the
// same pattern freephish-par uses for its pool metrics).
// ---------------------------------------------------------------------------

struct StoreMetrics {
    registry: Registry,
    appends: Arc<Counter>,
    bytes_written: Arc<Counter>,
    fsyncs: Arc<Counter>,
    segments_created: Arc<Counter>,
    snapshots: Arc<Counter>,
    snapshot_seconds: Arc<Histogram>,
    append_seconds: Arc<Histogram>,
    fsync_seconds: Arc<Histogram>,
    recoveries: Arc<Counter>,
    torn_tails: Arc<Counter>,
    truncated_bytes: Arc<Counter>,
}

static STORE_METRICS: OnceLock<StoreMetrics> = OnceLock::new();

fn store_metrics() -> &'static StoreMetrics {
    STORE_METRICS.get_or_init(|| {
        let registry = Registry::new();
        StoreMetrics {
            appends: registry.counter("store_appends_total", &[]),
            bytes_written: registry.counter("store_bytes_written_total", &[]),
            fsyncs: registry.counter("store_fsyncs_total", &[]),
            segments_created: registry.counter("store_segments_created_total", &[]),
            snapshots: registry.counter("store_snapshots_total", &[]),
            snapshot_seconds: registry.histogram("store_snapshot_seconds", &[]),
            append_seconds: registry.histogram("store_append_seconds", &[]),
            fsync_seconds: registry.histogram("store_fsync_seconds", &[]),
            recoveries: registry.counter("store_recoveries_total", &[]),
            torn_tails: registry.counter("store_torn_tails_total", &[]),
            truncated_bytes: registry.counter("store_truncated_bytes_total", &[]),
            registry,
        }
    })
}

/// Snapshot of the process-wide store metrics (appends, bytes, fsyncs,
/// snapshot durations, recovery events). Merged into
/// [`Pipeline::metrics`].
pub fn store_metrics_snapshot() -> MetricsSnapshot {
    store_metrics().registry.snapshot()
}

/// [`StoreObserver`] that feeds the global store metrics registry.
pub struct ObsStoreObserver;

impl StoreObserver for ObsStoreObserver {
    fn on_append(&self, framed_bytes: u64) {
        let m = store_metrics();
        m.appends.inc();
        m.bytes_written.add(framed_bytes);
    }
    fn on_append_timed(&self, framed_bytes: u64, seconds: f64) {
        self.on_append(framed_bytes);
        store_metrics().append_seconds.record(seconds);
        // If a request trace is active on this thread (an ADD inside a
        // serve worker), the durability cost shows up as its own span.
        freephish_obs::trace::span_record("store_append", seconds);
    }
    fn on_fsync(&self) {
        store_metrics().fsyncs.inc();
    }
    fn on_fsync_timed(&self, seconds: f64) {
        self.on_fsync();
        store_metrics().fsync_seconds.record(seconds);
        freephish_obs::trace::span_record("store_fsync", seconds);
    }
    fn on_segment_created(&self) {
        store_metrics().segments_created.inc();
    }
    fn on_snapshot(&self, seconds: f64, _payload_bytes: u64) {
        let m = store_metrics();
        m.snapshots.inc();
        m.snapshot_seconds.record(seconds);
    }
    fn on_recovery(&self, _records: usize, truncated_bytes: u64, torn: bool) {
        let m = store_metrics();
        m.recoveries.inc();
        if torn {
            m.torn_tails.inc();
            m.truncated_bytes.add(truncated_bytes);
        }
    }
}

/// The shared observer handle stores should be opened with.
pub fn obs_store_observer() -> Arc<dyn StoreObserver> {
    Arc::new(ObsStoreObserver)
}

// ---------------------------------------------------------------------------
// RunJournal: typed event log over a Store.
// ---------------------------------------------------------------------------

/// Append-side handle to a run's event log. Keeps the full framed event
/// history in memory so a snapshot is one buffer write; at the
/// simulation's scale that history is megabytes.
///
/// A snapshot holds the whole history, so compaction does not bound the
/// directory: snapshot plus WAL suffix stays about the size of the
/// history. A checkpoint snapshots only once the history has at least
/// doubled since the last snapshot (the WAL suffix is then at least as
/// large as the snapshot), so a run of `n` history bytes writes O(log n)
/// snapshots totalling at most `2n` bytes.
pub struct RunJournal {
    store: Store,
    history: Vec<u8>,
    /// History length at the last snapshot (0 before the first).
    snapshot_len: usize,
    /// Payload length of every snapshot this handle wrote, in order.
    #[cfg(test)]
    pub(crate) snapshots_written: Vec<usize>,
}

/// What [`RunJournal::open`] recovered.
#[derive(Debug)]
pub struct RecoveredRun {
    /// The run's parameters.
    pub meta: RunMeta,
    /// Replayable events up to the last checkpoint (meta excluded).
    pub events: Vec<RunEvent>,
    /// The last checkpoint, if any tick completed.
    pub last_checkpoint: Option<CheckpointEvent>,
    /// Events from a partially journaled tick, discarded and truncated.
    pub dropped_events: usize,
    /// Whether the store found (and truncated) a torn WAL tail.
    pub torn_tail: bool,
}

impl RunJournal {
    fn store_options() -> StoreOptions {
        StoreOptions::default()
    }

    fn new(store: Store, history: Vec<u8>, snapshot_len: usize) -> RunJournal {
        RunJournal {
            store,
            history,
            snapshot_len,
            #[cfg(test)]
            snapshots_written: Vec::new(),
        }
    }

    /// Start a fresh journal in `dir` (must be empty) and durably record
    /// the run's parameters.
    pub fn create(dir: impl AsRef<Path>, meta: &RunMeta) -> io::Result<RunJournal> {
        let (store, recovered) =
            Store::open_with(dir, Self::store_options(), Some(obs_store_observer()))?;
        if recovered.snapshot.is_some() || !recovered.records.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "refusing to create a run journal over an existing one (use open)",
            ));
        }
        let mut journal = RunJournal::new(store, Vec::new(), 0);
        journal.append_event(&RunEvent::Meta(meta.clone()))?;
        journal.store.sync()?;
        Ok(journal)
    }

    /// Reopen an existing journal: decode snapshot + WAL, drop (and
    /// physically truncate) any partial tick after the last checkpoint,
    /// and hand back the replayable event stream.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<(RunJournal, RecoveredRun)> {
        let (mut store, recovered) =
            Store::open_with(dir, Self::store_options(), Some(obs_store_observer()))?;

        // Events from the snapshot carry no WAL position; events from the
        // WAL carry theirs so truncation can cut at a record boundary.
        let mut events: Vec<(Option<RecordPos>, RunEvent)> = Vec::new();
        if let Some(payload) = &recovered.snapshot {
            let (frames, torn) = scan_buffer(payload);
            if torn.is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "snapshot payload framing is corrupt",
                ));
            }
            for frame in frames {
                events.push((None, decode_event(&frame)?));
            }
        }
        for (pos, payload) in &recovered.records {
            events.push((Some(*pos), decode_event(payload)?));
        }

        let meta = match events.first() {
            Some((_, RunEvent::Meta(m))) => m.clone(),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "run journal has no meta record (empty or foreign store)",
                ))
            }
        };

        // Keep everything up to the last checkpoint; a partial tick after
        // it is dropped and truncated so resumption re-runs that tick.
        let last_checkpoint_idx = events
            .iter()
            .rposition(|(_, ev)| matches!(ev, RunEvent::Checkpoint(_)));
        let keep = last_checkpoint_idx.map_or(1, |i| i + 1);
        let dropped_events = events.len() - keep;
        let cut_pos = events[..keep].iter().rev().find_map(|(pos, _)| *pos);
        if dropped_events > 0 {
            store.truncate_after(cut_pos)?;
            freephish_obs::warn(
                "journal",
                format!("dropped {dropped_events} events from a partially journaled tick"),
            );
        }
        events.truncate(keep);

        let last_checkpoint = events.iter().rev().find_map(|(_, ev)| match ev {
            RunEvent::Checkpoint(c) => Some(*c),
            _ => None,
        });

        // Rebuild the in-memory history from the kept events.
        let mut history = Vec::new();
        for (_, ev) in &events {
            encode_frame_into(&mut history, &encode_event(ev));
        }

        // The doubling rule resumes from the snapshot recovery found, so a
        // reopened run keeps the same bound.
        let snapshot_len = recovered.snapshot.as_ref().map_or(0, Vec::len);
        let journal = RunJournal::new(store, history, snapshot_len);
        let recovered_run = RecoveredRun {
            meta,
            events: events.into_iter().skip(1).map(|(_, ev)| ev).collect(),
            last_checkpoint,
            dropped_events,
            torn_tail: recovered.torn_tail,
        };
        Ok((journal, recovered_run))
    }

    fn append_event(&mut self, ev: &RunEvent) -> io::Result<()> {
        let payload = encode_event(ev);
        self.store.append(&payload)?;
        encode_frame_into(&mut self.history, &payload);
        Ok(())
    }

    /// Journal a detection.
    pub fn append_verdict(&mut self, ev: VerdictEvent) -> io::Result<()> {
        self.append_event(&RunEvent::Verdict(ev))
    }

    /// Journal a report outcome.
    pub fn append_report(&mut self, ev: ReportEvent) -> io::Result<()> {
        self.append_event(&RunEvent::Report(ev))
    }

    /// Journal the end of a tick and make it durable (this is the fsync
    /// point — one per tick). Once the history has at least doubled since
    /// the last snapshot, it is snapshotted and the WAL compacted.
    pub fn checkpoint(&mut self, ev: CheckpointEvent) -> io::Result<()> {
        self.append_event(&RunEvent::Checkpoint(ev))?;
        self.store.sync()?;
        if self.history.len() >= 2 * self.snapshot_len {
            self.store.snapshot(&self.history)?;
            self.snapshot_len = self.history.len();
            #[cfg(test)]
            self.snapshots_written.push(self.snapshot_len);
        }
        Ok(())
    }

    /// Flush and fsync without checkpointing (shutdown path).
    pub fn sync(&mut self) -> io::Result<()> {
        self.store.sync()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }
}

// ---------------------------------------------------------------------------
// JournaledRun: a resumable pipeline run.
// ---------------------------------------------------------------------------

/// A pipeline run whose progress is durably journaled each tick, so a
/// killed process can [`JournaledRun::open`] the directory and continue to
/// bit-identical results.
pub struct JournaledRun {
    /// The simulated world (rebuilt + replayed on open).
    pub world: World,
    /// Campaign ground-truth records (deterministic from the seed).
    pub records: Vec<CampaignRecord>,
    /// Detections so far.
    pub detections: Vec<Detection>,
    /// Report tallies so far.
    pub reporter: Reporter,
    stream: StreamingModule,
    journal: RunJournal,
    now: SimTime,
    end: SimTime,
}

impl JournaledRun {
    /// Start a fresh journaled run: build the world, run the campaign, and
    /// record the run parameters in `dir`.
    pub fn create(
        dir: impl AsRef<Path>,
        config: &CampaignConfig,
        end: SimTime,
        threshold: f64,
    ) -> io::Result<JournaledRun> {
        let mut world = World::new(config.seed);
        let records = campaign::run(config, &mut world);
        let meta = RunMeta {
            seed: config.seed,
            days: config.days,
            scale: config.scale,
            benign_fraction: config.benign_fraction,
            threshold,
            end_secs: end.as_secs(),
        };
        let journal = RunJournal::create(dir, &meta)?;
        Ok(JournaledRun {
            world,
            records,
            detections: Vec::new(),
            reporter: Reporter::new(),
            stream: StreamingModule::new(),
            journal,
            now: SimTime::ZERO,
            end,
        })
    }

    /// Reopen a journaled run: rebuild the world from the journaled seed,
    /// replay every journaled event (cross-checking report outcomes), and
    /// position the run at its last completed tick.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<JournaledRun> {
        let (journal, recovered) = RunJournal::open(dir)?;
        let config = recovered.meta.campaign_config();
        let mut world = World::new(recovered.meta.seed);
        let records = campaign::run(&config, &mut world);

        let mut detections: Vec<Detection> = Vec::new();
        let mut reporter = Reporter::new();
        let mut pending_report: Option<crate::pipeline::reporting::FiledReport> = None;
        let diverged = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "journal does not match simulation replay (wrong seed or tampered store)",
            )
        };
        for ev in &recovered.events {
            match ev {
                RunEvent::Verdict(v) => {
                    let observed_at = SimTime::from_secs(v.observed_at_secs);
                    let filed = reporter.report(&mut world, v.fwb, &v.url, observed_at);
                    detections.push(Detection {
                        url: v.url.clone(),
                        fwb: v.fwb,
                        platform: v.platform,
                        post: PostId(v.post),
                        observed_at,
                        score: v.score,
                    });
                    pending_report = Some(filed);
                }
                RunEvent::Report(r) => {
                    let Some(filed) = pending_report.take() else {
                        return Err(diverged());
                    };
                    let removal_at_secs = filed.removal_at.map_or(NONE_SECS, SimTime::as_secs);
                    if filed.filed != r.filed
                        || filed.acknowledged != r.acknowledged
                        || filed.followed_up != r.followed_up
                        || removal_at_secs != r.removal_at_secs
                        || filed.account_terminated != r.account_terminated
                    {
                        return Err(diverged());
                    }
                }
                RunEvent::Checkpoint(c) => {
                    if c.detections_total != detections.len() as u64 {
                        return Err(diverged());
                    }
                }
                RunEvent::Meta(_) | RunEvent::Add(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unexpected record kind inside a run journal",
                    ))
                }
            }
        }

        let (now, stream) = match recovered.last_checkpoint {
            Some(c) => (
                SimTime::from_secs(c.tick_secs),
                StreamingModule::restore(
                    SimTime::from_secs(c.tick_secs),
                    c.scanned as usize,
                    c.observed as usize,
                ),
            ),
            None => (SimTime::ZERO, StreamingModule::new()),
        };
        Ok(JournaledRun {
            world,
            records,
            detections,
            reporter,
            stream,
            journal,
            now,
            end: SimTime::from_secs(recovered.meta.end_secs),
        })
    }

    /// Run one tick and journal it. Returns `false` once the window is
    /// complete.
    pub fn tick(&mut self, pipeline: &Pipeline) -> io::Result<bool> {
        if self.now >= self.end {
            return Ok(false);
        }
        let next = self.now + POLL_INTERVAL;
        pipeline.run_tick_journaled(
            &mut self.world,
            &mut self.stream,
            &mut self.reporter,
            &mut self.detections,
            next,
            Some(&mut self.journal),
        )?;
        self.now = next;
        Ok(self.now < self.end)
    }

    /// Drive the run to the end of its window.
    pub fn run(&mut self, pipeline: &Pipeline) -> io::Result<()> {
        while self.tick(pipeline)? {}
        Ok(())
    }

    /// Whether the window is complete.
    pub fn finished(&self) -> bool {
        self.now >= self.end
    }

    /// Current position on the poll grid.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// End of the measurement window.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// The journal's store directory.
    pub fn dir(&self) -> &Path {
        self.journal.dir()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freephish_store::testutil::TempDir;

    fn sample_events() -> Vec<RunEvent> {
        vec![
            RunEvent::Meta(RunMeta {
                seed: 7,
                days: 3,
                scale: 0.01,
                benign_fraction: 0.25,
                threshold: 0.5,
                end_secs: 259_200,
            }),
            RunEvent::Verdict(VerdictEvent {
                url: "https://bad.weebly.com/".into(),
                fwb: FwbKind::Weebly,
                platform: Platform::Twitter,
                post: 99,
                observed_at_secs: 600,
                score: 0.873_213_001,
            }),
            RunEvent::Report(ReportEvent {
                url: "https://bad.weebly.com/".into(),
                fwb: FwbKind::Weebly,
                filed: true,
                acknowledged: true,
                followed_up: false,
                removal_at_secs: NONE_SECS,
                account_terminated: false,
            }),
            RunEvent::Checkpoint(CheckpointEvent {
                tick_secs: 600,
                scanned: 12,
                observed: 3,
                detections_total: 1,
            }),
            RunEvent::Add(AddEvent {
                url: "https://manual.wixsite.com/x".into(),
                score: 0.99,
            }),
        ]
    }

    #[test]
    fn events_round_trip_bit_exactly() {
        for ev in sample_events() {
            let payload = encode_event(&ev);
            assert_eq!(decode_event(&payload).unwrap(), ev);
        }
    }

    #[test]
    fn truncated_event_payloads_error() {
        for ev in sample_events() {
            let payload = encode_event(&ev);
            for cut in 0..payload.len() {
                assert!(decode_event(&payload[..cut]).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn every_fwb_kind_round_trips() {
        for fwb in FwbKind::all() {
            assert_eq!(fwb_from_u8(fwb_to_u8(fwb)).unwrap(), fwb);
        }
    }

    #[test]
    fn journal_drops_partial_tick_on_open() {
        let dir = TempDir::new("journal-partial");
        let meta = RunMeta {
            seed: 1,
            days: 1,
            scale: 0.01,
            benign_fraction: 0.0,
            threshold: 0.5,
            end_secs: 86_400,
        };
        {
            let mut j = RunJournal::create(dir.path(), &meta).unwrap();
            j.append_verdict(VerdictEvent {
                url: "https://a.weebly.com/".into(),
                fwb: FwbKind::Weebly,
                platform: Platform::Twitter,
                post: 1,
                observed_at_secs: 600,
                score: 0.9,
            })
            .unwrap();
            j.checkpoint(CheckpointEvent {
                tick_secs: 600,
                scanned: 5,
                observed: 1,
                detections_total: 1,
            })
            .unwrap();
            // A second tick that never checkpoints: must be dropped.
            j.append_verdict(VerdictEvent {
                url: "https://b.weebly.com/".into(),
                fwb: FwbKind::Weebly,
                platform: Platform::Facebook,
                post: 2,
                observed_at_secs: 1200,
                score: 0.8,
            })
            .unwrap();
            j.sync().unwrap();
        }
        let (_, rec) = RunJournal::open(dir.path()).unwrap();
        assert_eq!(rec.meta, meta);
        assert_eq!(rec.dropped_events, 1);
        assert_eq!(rec.events.len(), 2); // verdict + checkpoint
        assert_eq!(rec.last_checkpoint.unwrap().tick_secs, 600);

        // And the truncation is physical: a second open drops nothing.
        let (_, rec2) = RunJournal::open(dir.path()).unwrap();
        assert_eq!(rec2.dropped_events, 0);
        assert_eq!(rec2.events.len(), 2);
    }

    #[test]
    fn journal_survives_snapshot_compaction() {
        let dir = TempDir::new("journal-snap");
        let meta = RunMeta {
            seed: 2,
            days: 1,
            scale: 0.01,
            benign_fraction: 0.0,
            threshold: 0.5,
            end_secs: 86_400,
        };
        let ticks = 10u64;
        {
            let mut j = RunJournal::create(dir.path(), &meta).unwrap();
            for t in 1..=ticks {
                j.append_verdict(VerdictEvent {
                    url: format!("https://s{t}.weebly.com/"),
                    fwb: FwbKind::Weebly,
                    platform: Platform::Twitter,
                    post: t,
                    observed_at_secs: t * 600,
                    score: 0.75,
                })
                .unwrap();
                j.checkpoint(CheckpointEvent {
                    tick_secs: t * 600,
                    scanned: t,
                    observed: t,
                    detections_total: t,
                })
                .unwrap();
            }
            assert!(!j.snapshots_written.is_empty(), "no compaction happened");
        }
        let (_, rec) = RunJournal::open(dir.path()).unwrap();
        assert_eq!(rec.dropped_events, 0);
        assert_eq!(rec.last_checkpoint.unwrap().tick_secs, ticks * 600);
        let verdicts = rec
            .events
            .iter()
            .filter(|e| matches!(e, RunEvent::Verdict(_)))
            .count();
        assert_eq!(verdicts as u64, ticks);
    }

    #[test]
    fn compaction_writes_logarithmically_many_snapshots() {
        let dir = TempDir::new("journal-doubling");
        let meta = RunMeta {
            seed: 3,
            days: 30,
            scale: 0.01,
            benign_fraction: 0.0,
            threshold: 0.5,
            end_secs: 30 * 86_400,
        };
        let tick = |j: &mut RunJournal, t: u64| {
            j.append_verdict(VerdictEvent {
                url: format!("https://d{t}.weebly.com/"),
                fwb: FwbKind::Weebly,
                platform: Platform::Facebook,
                post: t,
                observed_at_secs: t * 600,
                score: 0.6,
            })
            .unwrap();
            j.checkpoint(CheckpointEvent {
                tick_secs: t * 600,
                scanned: t,
                observed: t,
                detections_total: t,
            })
            .unwrap();
        };
        // 2,400 checkpoints, with a reopen part-way: the resumed handle
        // must pick up the doubling rule from the snapshot on disk.
        let mut sizes = {
            let mut j = RunJournal::create(dir.path(), &meta).unwrap();
            for t in 1..=1_500 {
                tick(&mut j, t);
            }
            j.snapshots_written.clone()
        };
        let (mut j, _) = RunJournal::open(dir.path()).unwrap();
        for t in 1_501..=2_400 {
            tick(&mut j, t);
        }
        sizes.extend_from_slice(&j.snapshots_written);

        let history = j.history.len();
        assert!(!sizes.is_empty(), "no compaction happened");
        let ceil_log2 = history.next_power_of_two().trailing_zeros() as usize;
        assert!(
            sizes.len() <= ceil_log2 + 1,
            "{} snapshots for a {history}-byte history",
            sizes.len()
        );
        assert!(sizes.iter().sum::<usize>() <= 2 * history, "{sizes:?}");
        for pair in sizes.windows(2) {
            assert!(pair[1] >= 2 * pair[0], "{sizes:?}");
        }
    }
}
