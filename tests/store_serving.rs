//! Integration: a journaled pipeline run feeds a store-backed verdict
//! service over real TCP. The service hot-reloads as ticks append
//! detections, and `ADD`s from the wire survive a daemon restart.

use freephish::core::campaign::CampaignConfig;
use freephish::core::extension::{UrlChecker, VerdictClient};
use freephish::core::groundtruth::{build, GroundTruthConfig};
use freephish::core::journal::JournaledRun;
use freephish::core::models::augmented::AugmentedStackModel;
use freephish::core::pipeline::Pipeline;
use freephish::core::verdictstore::EventedStoreChecker;
use freephish::ml::StackModelConfig;
use freephish::serve::EventedServer;
use freephish::simclock::{Rng64, SimTime};
use std::path::{Path, PathBuf};
use std::sync::Arc;

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("freephish-serving-{name}-{}", std::process::id()));
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

#[test]
fn pipeline_appends_hot_reload_into_the_verdict_service() {
    let corpus = build(&GroundTruthConfig::tiny());
    let mut rng = Rng64::new(6);
    let model = AugmentedStackModel::train(&corpus, &StackModelConfig::tiny(), &mut rng);
    let pipeline = Pipeline::new(model);

    let dir = TempDir::new("hotreload");
    let config = CampaignConfig {
        scale: 0.01,
        days: 3,
        benign_fraction: 0.3,
        seed: 55,
    };
    let mut run = JournaledRun::create(dir.path(), &config, SimTime::from_days(3), 0.5).unwrap();

    // The daemon side: a store-backed checker serving over TCP, opened
    // before the pipeline has detected anything.
    let checker = Arc::new(EventedStoreChecker::open(dir.path()).unwrap());
    let mut publisher = checker.publisher();
    publisher.poll().unwrap();
    let mut server = EventedServer::start(Arc::clone(&checker) as Arc<dyn UrlChecker>).unwrap();
    let client = VerdictClient::new(server.addr());

    // Tick until the pipeline journals its first detections.
    while run.detections.is_empty() {
        assert!(
            run.tick(&pipeline).unwrap(),
            "window ended with no detections"
        );
    }
    let first = run.detections[0].url.clone();

    // A publisher poll ingests the new journal records and bumps the
    // generation; after it the wire answers PHISH.
    let g0 = checker.generation();
    publisher.poll().unwrap();
    assert!(checker.generation() > g0, "poll did not bump generation");
    assert!(client.check(&first).unwrap().is_phishing());

    // Keep ticking across many checkpoints and poll again: nothing
    // already served is lost.
    for _ in 0..70 {
        if !run.tick(&pipeline).unwrap() {
            break;
        }
    }
    publisher.poll().unwrap();
    let fresh_client = VerdictClient::new(server.addr());
    assert!(fresh_client.check(&first).unwrap().is_phishing());

    // A wire ADD takes effect immediately and survives a daemon restart.
    let added = "https://manual-entry.weebly.com/login";
    let generation = client.add(added, 0.91).unwrap();
    assert!(generation > 0);
    assert!(client.check(added).unwrap().is_phishing());

    server.shutdown();
    assert!(server.drain(std::time::Duration::from_secs(2)));
    checker.sync().unwrap();
    drop(server);
    drop(checker);

    let reopened = Arc::new(EventedStoreChecker::open(dir.path()).unwrap());
    reopened.publisher().poll().unwrap();
    let mut server2 = EventedServer::start(Arc::clone(&reopened) as Arc<dyn UrlChecker>).unwrap();
    let client2 = VerdictClient::new(server2.addr());
    assert!(
        client2.check(added).unwrap().is_phishing(),
        "ADD not durable"
    );
    assert!(client2.check(&first).unwrap().is_phishing());
    server2.shutdown();
}

/// A daemon that follows a live journal publishes each verdict once: a
/// poll per tick over a week-long run publishes exactly as many entries
/// as the run journaled verdicts, never a re-read of earlier history.
#[test]
fn a_journal_follower_publishes_each_verdict_once() {
    let corpus = build(&GroundTruthConfig::tiny());
    let mut rng = Rng64::new(6);
    let model = AugmentedStackModel::train(&corpus, &StackModelConfig::tiny(), &mut rng);
    let pipeline = Pipeline::new(model);

    let dir = TempDir::new("publish-once");
    let config = CampaignConfig {
        scale: 0.01,
        days: 7,
        benign_fraction: 0.3,
        seed: 3,
    };
    let mut run = JournaledRun::create(dir.path(), &config, SimTime::from_days(7), 0.5).unwrap();
    let checker = EventedStoreChecker::open(dir.path()).unwrap();
    let mut publisher = checker.publisher();
    let mut published = 0;
    while run.tick(&pipeline).unwrap() {
        published += publisher.poll().unwrap();
    }
    published += publisher.poll().unwrap();

    assert!(
        run.detections.len() > 100,
        "a week of ticks journals many verdicts"
    );
    assert_eq!(published, run.detections.len());
}
