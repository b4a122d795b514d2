//! Benchmark-local wrappers on the program's two public seams, `UrlChecker`
//! and `SnapshotFetcher`: they record spans when tracing is on, and keep
//! what the correctness checks need.

use crate::inputs::index_of_url;
use crate::trace::{Tracer, Track};
use freephish_core::resolver::SnapshotFetcher;
use freephish_core::scaleworld::ScaleWorld;
use freephish_serve::{UrlChecker, Verdict};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One `add` a wrapped checker accepted.
#[derive(Debug, Clone)]
pub struct AddRecord {
    pub url: String,
    pub score: f64,
    /// When the inner `add` returned: the verdict is durable and served.
    pub done: Instant,
}

/// A `UrlChecker` that forwards to `inner`, naming the spans it records.
pub struct SpanChecker {
    inner: Arc<dyn UrlChecker>,
    tracer: Arc<Tracer>,
    check_span: &'static str,
    add_span: &'static str,
    /// Which thread class calls `add`: the request path for a wire `ADD`,
    /// the background track for the resolver's classify worker.
    add_track: Track,
    adds: Mutex<Vec<AddRecord>>,
}

impl SpanChecker {
    pub fn new(
        inner: Arc<dyn UrlChecker>,
        tracer: Arc<Tracer>,
        check_span: &'static str,
        add_span: &'static str,
        add_track: Track,
    ) -> Arc<SpanChecker> {
        Arc::new(SpanChecker {
            inner,
            tracer,
            check_span,
            add_span,
            add_track,
            adds: Mutex::new(Vec::new()),
        })
    }

    /// Every `add` accepted since the last [`SpanChecker::forget_adds`].
    pub fn adds(&self) -> Vec<AddRecord> {
        self.adds
            .lock()
            .expect("no add recorder panics while holding the lock")
            .clone()
    }

    pub fn forget_adds(&self) {
        self.adds
            .lock()
            .expect("no add recorder panics while holding the lock")
            .clear();
    }
}

impl UrlChecker for SpanChecker {
    fn check(&self, url: &str) -> Verdict {
        self.tracer
            .span(self.check_span, Track::Request, || self.inner.check(url))
    }

    fn check_many(&self, urls: &[String]) -> Vec<Verdict> {
        self.tracer.span(self.check_span, Track::Request, || {
            self.inner.check_many(urls)
        })
    }

    fn add(&self, url: &str, score: f64) -> Result<u64, String> {
        let generation = self
            .tracer
            .span(self.add_span, self.add_track, || self.inner.add(url, score))?;
        let record = AddRecord {
            url: url.to_string(),
            score,
            done: Instant::now(),
        };
        self.adds
            .lock()
            .expect("no add recorder panics while holding the lock")
            .push(record);
        Ok(generation)
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }
}

/// Serves a phishing page body for a URL whose world site is phishing and a
/// benign one otherwise, and remembers which body each URL got.
pub struct WorldFetcher {
    world: ScaleWorld,
    phishing: Vec<String>,
    benign: Vec<String>,
    tracer: Arc<Tracer>,
    served: Mutex<Vec<(String, bool, usize)>>,
}

impl WorldFetcher {
    pub fn new(
        world: ScaleWorld,
        phishing: Vec<String>,
        benign: Vec<String>,
        tracer: Arc<Tracer>,
    ) -> WorldFetcher {
        WorldFetcher {
            world,
            phishing,
            benign,
            tracer,
            served: Mutex::new(Vec::new()),
        }
    }

    /// Every `(url, body)` served so far.
    pub fn served(&self) -> Vec<(String, &str)> {
        let served = self
            .served
            .lock()
            .expect("no fetch panics while holding the lock");
        served
            .iter()
            .map(|(url, phishing, i)| (url.clone(), self.body(*phishing, *i)))
            .collect()
    }

    fn body(&self, phishing: bool, i: usize) -> &str {
        if phishing {
            &self.phishing[i]
        } else {
            &self.benign[i]
        }
    }
}

impl SnapshotFetcher for WorldFetcher {
    fn fetch(&self, url: &str) -> Option<String> {
        self.tracer.span("fetcher.fetch", Track::Background, || {
            let index = index_of_url(url)?;
            let site = self.world.site_at(index);
            if site.url != url {
                return None;
            }
            let bodies = if site.phishing {
                &self.phishing
            } else {
                &self.benign
            };
            let i = (index % bodies.len() as u64) as usize;
            self.served
                .lock()
                .expect("no fetch panics while holding the lock")
                .push((url.to_string(), site.phishing, i));
            Some(bodies[i].clone())
        })
    }
}
