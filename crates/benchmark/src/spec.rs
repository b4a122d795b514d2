//! What the benchmark reports: the workload names and every metric name with
//! its unit and direction. `BENCHMARK.json` carries the same lists; the schema
//! test fails when the two drift.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const WORKLOADS: [&str; 4] = [
    "hit_baked",
    "line_mixed",
    "miss_stream",
    "campaign_journaled",
];

/// Every workload reports every one of these from its untraced run. Tail
/// latencies are measured and printed too, but are not in this list: over ten
/// seeds on the defining host they did not repeat (see the README).
pub const END_TO_END: &[MetricSpec] = &[
    lower("setup_s", "s"),
    higher("urls_per_s", "1/s"),
    lower("request_p50_us", "us"),
    lower("cpu_ms_per_kurl", "ms"),
    lower("peak_rss_mb", "MB"),
];

/// Reported by the traced run. A layer that is not on a workload's path
/// reports 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    lower("serve.proto.encode_checkn_ns_per_url", "ns"),
    lower("serve.proto.decode_checkn_ns_per_url", "ns"),
    lower("serve.proto.encode_verdictn_ns_per_url", "ns"),
    lower("serve.proto.decode_line_ns", "ns"),
    lower("serve.server.rtt_floor_us", "us"),
    lower("serve.server.frame_service_us", "us"),
    lower("serve.server.window_p99_us", "us"),
    lower("serve.server.worker_busy_ratio", "ratio"),
    lower("serve.server.shed_total", "count"),
    lower("serve.server.wire_gap_us", "us"),
    lower("serve.server.add_rtt_p50_us", "us"),
    lower("serve.index.check_many_ns_per_url", "ns"),
    lower("serve.index.snapshot_ns", "ns"),
    lower("serve.index.publish_us", "us"),
    lower("serve.index.publish_us_end", "us"),
    lower("serve.overlay.check_many_ns_per_url", "ns"),
    lower("mapidx.read.get_hit_ns", "ns"),
    lower("mapidx.read.get_miss_ns", "ns"),
    lower("mapidx.read.cold_get_us", "us"),
    lower("mapidx.read.minor_faults_per_kget", "count"),
    lower("mapidx.read.open_ms", "ms"),
    higher("mapidx.write.bake_entries_per_s", "1/s"),
    lower("mapidx.write.spill_runs", "count"),
    lower("mapidx.write.file_bytes_per_entry", "B"),
    lower("mapidx.write.peak_rss_mb", "MB"),
    lower("core.resolver.resolve_miss_ns", "ns"),
    lower("core.resolver.prefilter_us", "us"),
    higher("core.resolver.tier_index_ratio", "ratio"),
    higher("core.resolver.tier_prefilter_ratio", "ratio"),
    higher("core.resolver.tier_negative_ratio", "ratio"),
    lower("core.resolver.tier_provisional_ratio", "ratio"),
    lower("core.resolver.shed_ratio", "ratio"),
    lower("core.resolver.classify_batch_us", "us"),
    lower("core.resolver.queue_depth_mean", "count"),
    lower("core.resolver.queue_wait_ms", "ms"),
    higher("core.resolver.classified_per_s", "1/s"),
    higher("core.resolver.journaled_per_s", "1/s"),
    lower("core.resolver.verdict_response_p50_ms", "ms"),
    lower("core.resolver.negative_entries_end", "count"),
    lower("urlparse.parse_ns", "ns"),
    lower("urlparse.url_features_ns", "ns"),
    higher("htmlparse.tokenize_mib_per_s", "MiB/s"),
    lower("htmlparse.page_facts_us", "us"),
    lower("core.features.extract_fast_us", "us"),
    higher("ml.flat.predict_rows_per_s", "1/s"),
    lower("core.models.score_snapshot_us", "us"),
    lower("ml.train_s", "s"),
    higher("store.append_buffered_records_per_s", "1/s"),
    lower("store.append_synced_us", "us"),
    lower("store.sync_us", "us"),
    lower("store.disk_bytes_per_payload_byte", "ratio"),
    lower("store.recover_ms", "ms"),
    lower("core.verdictstore.add_durable_us", "us"),
    lower("core.verdictstore.open_with_base_ms", "ms"),
    lower("core.journal.tick_sync_ms", "ms"),
    lower("core.pipeline.stage_poll_s", "s"),
    lower("core.pipeline.stage_crawl_s", "s"),
    lower("core.pipeline.stage_feature_s", "s"),
    lower("core.pipeline.stage_classify_s", "s"),
    lower("core.pipeline.stage_report_s", "s"),
    lower("core.pipeline.tick_us_mean", "us"),
    lower("core.campaign.generate_s", "s"),
    lower("core.analysis.observe_s", "s"),
    lower("par.tasks_total", "count"),
    lower("par.serial_jobs_ratio", "ratio"),
    lower("loadgen.max_lag_us", "us"),
    higher("loadgen.sent", "count"),
    higher("loadgen.answered", "count"),
    lower("trace.unaccounted_ratio", "ratio"),
    higher("trace.overhead_ratio", "ratio"),
];

/// Metric values by name, filled as a run goes.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Names that were set but that `specs` does not list.
    pub fn unlisted(&self, specs: &[MetricSpec]) -> Vec<&'static str> {
        self.0
            .keys()
            .copied()
            .filter(|name| specs.iter().all(|s| s.name != *name))
            .collect()
    }
}
