//! `hit_baked`: binary `CHECKN` frames of 64 URLs against a baked,
//! memory-mapped index far larger than the CPU's own caches. `mapidx::read`,
//! `serve::overlay` and `serve::proto` do almost all the work; resolver,
//! classifier and store do none.

use crate::host;
use crate::inputs::{self, FrameRing, RingGenerator, BATCH};
use crate::layers;
use crate::loadgen::{closed_loop, Client, Generator, Until};
use crate::report::{Options, Report};
use crate::seams::SpanChecker;
use crate::serving::{Serving, Traced};
use crate::trace::{Tracer, Track};
use crate::wire::Protocol;
use bytes::BytesMut;
use freephish_core::scaleworld::ScaleWorld;
use freephish_core::verdictstore::EventedStoreChecker;
use freephish_mapidx::BakeSummary;
use freephish_serve::{decode_bin_request, BinRequest, UrlChecker};
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub struct HitBaked {
    world: ScaleWorld,
    ring: Arc<FrameRing>,
    store: Arc<EventedStoreChecker>,
    checker: Arc<SpanChecker>,
    index_path: PathBuf,
    bake: BakeSummary,
    bake_s: f64,
    bake_peak_rss_mb: f64,
    open_s: f64,
}

impl Serving for HitBaked {
    type Gen = RingGenerator;
    type Inputs = Arc<FrameRing>;
    const PROTOCOL: Protocol = Protocol::Binary;
    const OFFERED_REQUESTS_PER_S: f64 = 7_000.0;

    fn inputs(opts: &Options) -> Arc<FrameRing> {
        let world = inputs::world(&opts.workload, opts.seed);
        Arc::new(FrameRing::generate(&world, opts.seed, &opts.sizing))
    }

    fn set_up(
        opts: &Options,
        ring: &Arc<FrameRing>,
        dir: &Path,
        tracer: &Arc<Tracer>,
    ) -> io::Result<HitBaked> {
        let world = inputs::world(&opts.workload, opts.seed);
        let index_path = dir.join("base.mapidx");
        let started = Instant::now();
        let bake = world.bake_index(opts.sizing.baked_entries, &index_path)?;
        let bake_s = started.elapsed().as_secs_f64();
        // Nothing larger has run yet, so the high-water mark is the bake's.
        let bake_peak_rss_mb = host::peak_rss_mb();
        let started = Instant::now();
        let store = Arc::new(EventedStoreChecker::open_with_base(
            dir.join("store"),
            Some(&index_path),
        )?);
        let open_s = started.elapsed().as_secs_f64();
        let checker = SpanChecker::new(
            store.clone(),
            tracer.clone(),
            "checker.check_many",
            "checker.add",
            Track::Request,
        );
        Ok(HitBaked {
            world,
            ring: ring.clone(),
            store,
            checker,
            index_path,
            bake,
            bake_s,
            bake_peak_rss_mb,
            open_s,
        })
    }

    fn checker(&self) -> Arc<dyn UrlChecker> {
        self.checker.clone()
    }

    fn generator(&self, _opts: &Options, conn: usize, conns: usize) -> RingGenerator {
        RingGenerator::new(self.ring.clone(), conn, conns)
    }

    /// One full pass over the pool on every connection, so no timed lookup
    /// is the first to touch its pages.
    fn warm_up(&mut self, clients: &mut [Client<RingGenerator>], tracer: &Tracer) {
        closed_loop(clients, Until::Requests(self.ring.len() as u64), 1, tracer);
    }

    // Every reply was compared, URL for URL, with `ScaleWorld::verdict_at`
    // as it arrived; there is no state to check afterwards.
    fn verify(self, _clients: Vec<Client<RingGenerator>>, _report: &mut Report) -> io::Result<()> {
        Ok(())
    }

    fn layers(
        &mut self,
        traced: &Traced,
        clients: &mut [Client<RingGenerator>],
        report: &mut Report,
    ) -> io::Result<()> {
        let metrics = &mut report.metrics;
        metrics.set(
            "mapidx.write.bake_entries_per_s",
            self.bake.entries as f64 / self.bake_s,
        );
        metrics.set("mapidx.write.spill_runs", self.bake.spill_runs as f64);
        metrics.set(
            "mapidx.write.file_bytes_per_entry",
            self.bake.file_bytes as f64 / self.bake.entries as f64,
        );
        metrics.set("mapidx.write.peak_rss_mb", self.bake_peak_rss_mb);
        metrics.set("core.verdictstore.open_with_base_ms", self.open_s * 1e3);

        // The pool's own frames, decoded back into the batches the server
        // hands the overlay.
        let mut out = BytesMut::new();
        let batches: Vec<Vec<String>> = (0..self.ring.len().min(512))
            .map(|_| {
                clients[0].generator.next(&mut out);
                match decode_bin_request(&mut out) {
                    Ok(Some(BinRequest::CheckN(urls))) => urls,
                    other => unreachable!("the ring holds CHECKN frames, not {other:?}"),
                }
            })
            .collect();
        let overlay = self.store.overlay();
        let started = Instant::now();
        for batch in &batches {
            black_box(overlay.check_many(batch));
        }
        let per_url = started.elapsed().as_secs_f64() * 1e9 / (batches.len() * BATCH) as f64;
        metrics.set("serve.overlay.check_many_ns_per_url", per_url);

        let baked = self.bake.entries;
        let hits: Vec<String> = (0..10_000u64)
            .map(|i| self.world.verdict_at(i * 97 % baked).0)
            .collect();
        let misses: Vec<String> = (0..10_000u64)
            .map(|i| self.world.verdict_at((1 << 39) + i).0)
            .collect();
        layers::mapidx_read(&self.index_path, &hits, &misses, metrics)?;

        let lookup_us = traced.table.self_us_per_span("checker.check_many");
        report.detail(
            "trace.request_wire_and_framing_us",
            traced.table.self_us_per_span("client.request"),
            "us",
        );
        report.detail("trace.checker_check_many_us", lookup_us, "us");
        Ok(())
    }
}
