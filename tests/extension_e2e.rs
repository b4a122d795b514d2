//! Integration: pipeline detections feed the extension's verdict service
//! over real TCP, and the navigation guard blocks exactly those URLs.

use freephish::core::campaign::{self, CampaignConfig, RecordClass};
use freephish::core::extension::{Navigation, NavigationGuard};
use freephish::core::groundtruth::{build, GroundTruthConfig};
use freephish::core::models::augmented::AugmentedStackModel;
use freephish::core::pipeline::Pipeline;
use freephish::core::world::World;
use freephish::ml::StackModelConfig;
use freephish::serve::{EventedServer, ShardedIndex};
use freephish::simclock::{Rng64, SimTime};
use std::sync::Arc;

#[test]
fn detections_drive_navigation_blocking() {
    // Run a tiny pipeline to produce detections.
    let corpus = build(&GroundTruthConfig::tiny());
    let mut rng = Rng64::new(6);
    let model = AugmentedStackModel::train(&corpus, &StackModelConfig::tiny(), &mut rng);
    let mut world = World::new(55);
    let records = campaign::run(
        &CampaignConfig {
            scale: 0.003,
            days: 5,
            benign_fraction: 0.3,
            seed: 55,
        },
        &mut world,
    );
    let pipeline = Pipeline::new(model);
    let (detections, _) = pipeline.run_batch(&mut world, SimTime::from_days(5));
    assert!(!detections.is_empty());

    // Feed them into the verdict service.
    let checker = Arc::new(ShardedIndex::with_default_shards());
    checker.publish(detections.iter().map(|d| (d.url.clone(), d.score)));
    let mut server = EventedServer::start(checker).unwrap();
    let guard = NavigationGuard::new(server.addr());

    // Every detection is blocked.
    for d in detections.iter().take(20) {
        match guard.navigate(&d.url) {
            Navigation::Blocked(html) => assert!(html.contains("FreePhish")),
            Navigation::Allowed => panic!("{} should be blocked", d.url),
        }
    }

    // Benign URLs sail through.
    let benign: Vec<&str> = records
        .iter()
        .filter(|r| matches!(r.class, RecordClass::BenignFwb(_)))
        .map(|r| r.url.as_str())
        .take(10)
        .collect();
    let mut allowed = 0;
    for url in &benign {
        if guard.navigate(url) == Navigation::Allowed {
            allowed += 1;
        }
    }
    // The tiny test classifier has a small false-positive rate; most benign
    // navigations must still pass.
    assert!(
        allowed + 2 >= benign.len(),
        "{allowed}/{} benign allowed",
        benign.len()
    );
    server.shutdown();
}
