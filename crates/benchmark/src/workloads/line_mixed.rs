//! `line_mixed`: the line protocol on persistent connections, one URL per
//! request: 99% `CHECK` against an in-memory delta, 1% durable `ADD` of fresh
//! URLs, each fsynced before it is acknowledged. The per-request cost of
//! `serve::server` dominates the reads; `store` and the copy-on-write
//! `publish` of `serve::index` carry the writes beside them.

use crate::inputs::{self, LineGenerator, Sizing};
use crate::layers;
use crate::loadgen::{closed_loop, Client, Kind, Phase, Until};
use crate::report::{Options, Report};
use crate::seams::SpanChecker;
use crate::serving::{Serving, Traced};
use crate::stats::percentile;
use crate::trace::{Tracer, Track};
use crate::wire::Protocol;
use freephish_core::journal::{encode_event, AddEvent, RunEvent};
use freephish_core::scaleworld::ScaleWorld;
use freephish_core::verdictstore::EventedStoreChecker;
use freephish_serve::{UrlChecker, Verdict};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub struct LineMixed {
    world: ScaleWorld,
    sizing: Sizing,
    dir: PathBuf,
    store: Arc<EventedStoreChecker>,
    checker: Arc<SpanChecker>,
}

impl Serving for LineMixed {
    type Gen = LineGenerator;
    type Inputs = Vec<(String, f64)>;
    const PROTOCOL: Protocol = Protocol::Line;
    const OFFERED_REQUESTS_PER_S: f64 = 12_000.0;

    fn inputs(opts: &Options) -> Vec<(String, f64)> {
        inputs::delta_entries(&inputs::world(&opts.workload, opts.seed), &opts.sizing)
    }

    fn set_up(
        opts: &Options,
        delta: &Vec<(String, f64)>,
        dir: &Path,
        tracer: &Arc<Tracer>,
    ) -> io::Result<LineMixed> {
        let world = inputs::world(&opts.workload, opts.seed);
        let dir = dir.join("store");
        let store = Arc::new(EventedStoreChecker::open(&dir)?);
        // The delta is state the run starts from, not something it writes:
        // it goes straight into the index, not through the journal.
        store.index().publish(delta.iter().cloned());
        let checker = SpanChecker::new(
            store.clone(),
            tracer.clone(),
            "checker.check_many",
            "checker.add",
            Track::Request,
        );
        Ok(LineMixed {
            world,
            sizing: opts.sizing,
            dir,
            store,
            checker,
        })
    }

    fn checker(&self) -> Arc<dyn UrlChecker> {
        self.checker.clone()
    }

    fn generator(&self, opts: &Options, conn: usize, conns: usize) -> LineGenerator {
        LineGenerator::new(&self.world, opts.seed, &opts.sizing, conn, conns)
    }

    fn warm_up(&mut self, clients: &mut [Client<LineGenerator>], tracer: &Tracer) {
        closed_loop(clients, Until::Requests(2_000), 1, tracer);
    }

    fn detail(
        &mut self,
        open: &Phase,
        _closed: &Phase,
        _clients: &mut [Client<LineGenerator>],
        report: &mut Report,
    ) {
        for (kind, name) in [(Kind::Check, "check"), (Kind::Add, "add")] {
            let latencies = open.latencies_us(kind);
            if !latencies.is_empty() {
                report.detail(format!("{name}_p50_us"), percentile(&latencies, 50.0), "us");
                report.detail(format!("{name}_p99_us"), percentile(&latencies, 99.0), "us");
                report.detail(format!("{name}_samples"), latencies.len() as f64, "count");
            }
        }
    }

    /// Every acknowledged `ADD` must be in the store directory when it is
    /// opened again by a fresh checker. The operating system's page cache is
    /// not discarded first: this shows the records were written and are
    /// replayed, not that they reached the disk.
    fn verify(self, clients: Vec<Client<LineGenerator>>, report: &mut Report) -> io::Result<()> {
        let LineMixed {
            dir,
            store,
            checker,
            ..
        } = self;
        drop(checker);
        drop(store);
        let reopened = EventedStoreChecker::open(&dir)?;
        for client in &clients {
            for (url, score) in &client.generator.added {
                let found = reopened.check(url) == Verdict::Phishing(*score);
                report.count(1, u64::from(!found));
            }
        }
        Ok(())
    }

    fn layers(
        &mut self,
        traced: &Traced,
        _clients: &mut [Client<LineGenerator>],
        report: &mut Report,
    ) -> io::Result<()> {
        let delta = inputs::delta_entries(&self.world, &self.sizing);
        let metrics = &mut report.metrics;
        // Records of the kind and size an ADD journals.
        let payloads: Vec<Vec<u8>> = delta
            .iter()
            .take(20_000)
            .map(|(url, score)| {
                encode_event(&RunEvent::Add(AddEvent {
                    url: url.clone(),
                    score: *score,
                }))
            })
            .collect();
        layers::store(&self.dir.with_file_name("store-probe"), &payloads, metrics)?;
        layers::index(&self.world, delta, &self.store.index(), metrics);
        metrics.set(
            "core.verdictstore.add_durable_us",
            traced.table.self_us_per_span("checker.add"),
        );
        Ok(())
    }
}
