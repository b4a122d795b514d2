//! End-to-end resumable runs: a journaled pipeline run killed at an
//! arbitrary tick — including with a torn or bit-rotted WAL tail — reopens
//! and continues to output bit-identical to an uninterrupted run.

use freephish::core::campaign::CampaignConfig;
use freephish::core::groundtruth::{build, GroundTruthConfig};
use freephish::core::journal::JournaledRun;
use freephish::core::models::augmented::AugmentedStackModel;
use freephish::core::pipeline::{Detection, Pipeline};
use freephish::core::{analysis, world::World};
use freephish::ml::StackModelConfig;
use freephish::simclock::{Rng64, SimTime};
use freephish::store::segment::{parse_segment_name, segment_file_name};
use std::path::{Path, PathBuf};

const SEED: u64 = 123;
const DAYS: u64 = 7;

fn config() -> CampaignConfig {
    CampaignConfig {
        scale: 0.01,
        days: DAYS,
        benign_fraction: 0.3,
        seed: SEED,
    }
}

fn pipeline() -> Pipeline {
    let corpus = build(&GroundTruthConfig::tiny());
    let mut rng = Rng64::new(5);
    let model = AugmentedStackModel::train(&corpus, &StackModelConfig::tiny(), &mut rng);
    Pipeline::new(model)
}

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::SeqCst);
        let path = std::env::temp_dir().join(format!(
            "freephish-resume-{name}-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every field of a detection, with the score as raw bits so "identical"
/// means bit-identical.
fn keys(detections: &[Detection]) -> Vec<(String, String, String, u64, u64, u64)> {
    detections
        .iter()
        .map(|d| {
            (
                d.url.clone(),
                format!("{:?}", d.fwb),
                format!("{:?}", d.platform),
                d.post.0,
                d.observed_at.as_secs(),
                d.score.to_bits(),
            )
        })
        .collect()
}

/// Analysis output over the finished run, as an exact textual fingerprint
/// (f64 Debug is shortest-roundtrip, so equal strings mean equal bits).
fn analysis_fingerprint(run: &JournaledRun) -> String {
    let obs = analysis::observe(&run.world, &run.records);
    format!("{:?}", analysis::table3(&obs))
}

/// The uninterrupted baseline: a plain (unjournaled) batch run.
fn baseline(pipeline: &Pipeline) -> (Vec<Detection>, String) {
    let mut world = World::new(SEED);
    let records = freephish::core::campaign::run(&config(), &mut world);
    let (detections, reporter) = pipeline.run_batch(&mut world, SimTime::from_days(DAYS));
    let obs = analysis::observe(&world, &records);
    let fingerprint = format!("{:?}|{:?}", analysis::table3(&obs), reporter.all_stats());
    (detections, fingerprint)
}

fn journaled_fingerprint(run: &JournaledRun) -> String {
    format!(
        "{}|{:?}",
        analysis_fingerprint(run),
        run.reporter.all_stats()
    )
}

/// Path of the newest WAL segment in `dir`.
fn last_segment(dir: &Path) -> PathBuf {
    let mut indices: Vec<u32> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| parse_segment_name(&e.unwrap().file_name().to_string_lossy()))
        .collect();
    indices.sort_unstable();
    dir.join(segment_file_name(*indices.last().expect("no WAL segments")))
}

#[test]
fn journaled_run_matches_plain_batch_run() {
    let pipeline = pipeline();
    let (base_detections, base_fingerprint) = baseline(&pipeline);
    assert!(
        !base_detections.is_empty(),
        "campaign produced no detections; test would be vacuous"
    );

    let dir = TempDir::new("uninterrupted");
    let mut run =
        JournaledRun::create(dir.path(), &config(), SimTime::from_days(DAYS), 0.5).unwrap();
    run.run(&pipeline).unwrap();
    assert!(run.finished());
    assert_eq!(keys(&run.detections), keys(&base_detections));
    assert_eq!(journaled_fingerprint(&run), base_fingerprint);
}

#[test]
fn run_killed_at_arbitrary_ticks_resumes_bit_identical() {
    let pipeline = pipeline();
    let (base_detections, base_fingerprint) = baseline(&pipeline);

    // Kill points spread across the window (1008 ticks at 7 days). Tick
    // 0 is created, killed and reopened with no checkpoint at all; 700
    // replays hundreds of checkpoints.
    let mut rng = Rng64::new(77);
    let mut kill_ticks = vec![0, 1, 40, 700];
    kill_ticks.push(64 + (rng.next_u64() % 400) as usize);
    for kill_at in kill_ticks {
        let dir = TempDir::new("killed");
        let mut run =
            JournaledRun::create(dir.path(), &config(), SimTime::from_days(DAYS), 0.5).unwrap();
        for _ in 0..kill_at {
            assert!(run.tick(&pipeline).unwrap());
        }
        // Simulate the kill. Every tick ends in an fsynced checkpoint, so
        // nothing is buffered and dropping the run leaves the disk as a
        // SIGKILL would; it also closes the journal's writer lock, as
        // process exit does. (Leaking the run would keep that lock held
        // in this process, and the reopen below would be refused as a
        // second writer.)
        drop(run);

        let mut resumed = JournaledRun::open(dir.path()).unwrap();
        assert_eq!(resumed.now().as_secs(), kill_at as u64 * 600);
        resumed.run(&pipeline).unwrap();
        assert_eq!(
            keys(&resumed.detections),
            keys(&base_detections),
            "kill at tick {kill_at} diverged"
        );
        assert_eq!(journaled_fingerprint(&resumed), base_fingerprint);
    }
}

#[test]
fn run_killed_with_torn_wal_tail_resumes_bit_identical() {
    let pipeline = pipeline();
    let (base_detections, base_fingerprint) = baseline(&pipeline);

    let mut rng = Rng64::new(99);
    for trial in 0..3u32 {
        let kill_at = 100 + (rng.next_u64() % 200) as usize;
        let dir = TempDir::new("torn");
        let mut run =
            JournaledRun::create(dir.path(), &config(), SimTime::from_days(DAYS), 0.5).unwrap();
        for _ in 0..kill_at {
            assert!(run.tick(&pipeline).unwrap());
        }
        // The kill, as above.
        drop(run);

        // Damage the WAL tail the way a crash mid-append would: either a
        // half-written frame appended at the end, or bit rot near the tail
        // of the newest segment.
        let seg = last_segment(dir.path());
        let mut bytes = std::fs::read(&seg).unwrap();
        if trial % 2 == 0 {
            let junk = (rng.next_u64() % 6 + 1) as usize;
            bytes.extend_from_slice(&[0xAB; 8][..junk]);
        } else {
            // Flip a byte in the last quarter (always past the header:
            // recovery falls back to the last intact checkpoint).
            let lo = bytes.len() - bytes.len() / 4;
            let at = lo + (rng.next_u64() as usize) % (bytes.len() - lo);
            bytes[at] ^= 1 << (rng.next_u64() % 8);
        }
        std::fs::write(&seg, &bytes).unwrap();

        let mut resumed = JournaledRun::open(dir.path()).unwrap();
        // Recovery may have rewound past dropped ticks, never forward.
        assert!(resumed.now().as_secs() <= kill_at as u64 * 600);
        resumed.run(&pipeline).unwrap();
        assert_eq!(
            keys(&resumed.detections),
            keys(&base_detections),
            "torn-tail trial {trial} (kill at tick {kill_at}) diverged"
        );
        assert_eq!(journaled_fingerprint(&resumed), base_fingerprint);
    }
}
