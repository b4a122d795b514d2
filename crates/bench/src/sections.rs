//! The paper's tables and figures, one function per section.
//!
//! Each section prints its table as the paper lays it out, returns a
//! deterministic JSON record of the measured rows, and checks the shapes
//! the paper reports. A section's shapes are a `*_shapes` predicate over its
//! measured rows — strict orderings and equalities, no tuned tolerance —
//! paired by position with the section's `*_CLAIMS`. The sections that read
//! the 180-day campaign take the one [`Measurement`]; Figure 1, Tables 1–2
//! and the ablations build their own inputs from fixed seeds.

use crate::harness::{corpus, Measurement};
use crate::render::{fmt_duration_opt, fmt_pct, TableWriter};
use freephish_core::analysis::{self, CoverageStat, Entity, LifetimeStats, Table3Row, Table4Row};
use freephish_core::analysis::{CURVE_CHECKPOINT_HOURS, TWO_WEEKS_SECS};
use freephish_core::campaign::RecordClass;
use freephish_core::characterize::{self_hosted_median_age, Characterization};
use freephish_core::discovery::{discovery_report, DiscoveryReport};
use freephish_core::evasion::{classify_evasion, lacks_credential_fields, EvasionVector};
use freephish_core::features::FeatureSet;
use freephish_core::groundtruth::{self, to_dataset, LabeledSite};
use freephish_core::models::augmented::AugmentedStackModel;
use freephish_core::models::intention::IntentionStyle;
use freephish_core::models::rf::ForestDetector;
use freephish_core::models::stack::BaseStackModel;
use freephish_core::models::urlnet::UrlNetStyle;
use freephish_core::models::visual::VisualStyle;
use freephish_core::models::{PhishDetector, SnapshotFetcher};
use freephish_ecosim::BlocklistKind;
use freephish_fwbsim::history::{self, HistoryConfig, Platform};
use freephish_fwbsim::{FwbHost, TakedownProfile};
use freephish_htmlparse::parse;
use freephish_ml::metrics::BinaryMetrics;
use freephish_ml::{Dataset, StackModel, StackModelConfig};
use freephish_simclock::stats::{median_f64, median_u64};
use freephish_simclock::{Rng64, SimDuration, SimTime, Zipf};
use freephish_textsim::site_similarity;
use freephish_urlparse::Url;
use freephish_webgen::{FwbKind, PageKind, PageSpec, BRANDS};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::iter::zip;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A printed section.
pub struct Section {
    /// Record key ("table3", "fig6", ...).
    pub name: &'static str,
    /// Deterministic JSON of the measured rows.
    pub record: Value,
    /// Wall-clock values kept out of `record` (Table 2's runtimes).
    pub wall_clock: Value,
    /// Each paper-shape claim, and whether the measured rows satisfy it.
    pub shapes: Vec<(&'static str, bool)>,
}

impl Section {
    /// Pair `claims` with `checks`, print them under the section's table,
    /// and wrap the section up.
    fn finish<const N: usize>(
        name: &'static str,
        record: Value,
        claims: [&'static str; N],
        checks: [bool; N],
    ) -> Section {
        println!();
        for (claim, ok) in zip(claims, checks) {
            println!("shape {} {name}: {claim}", if ok { "ok" } else { "FAILED" });
        }
        let shapes = zip(claims, checks).collect();
        let wall_clock = Value::Null;
        Section {
            name,
            record,
            wall_clock,
            shapes,
        }
    }
}

/// A curve: (checkpoint, fraction) pairs — hours, days or a detection count.
pub type Curve = Vec<(u64, f64)>;

/// A labelled pair of curves: (label, FWB, self-hosted).
pub type CurvePair = (String, Curve, Curve);

/// Whether `lo` sits strictly below `hi` at every shared checkpoint.
fn below_everywhere(lo: &[(u64, f64)], hi: &[(u64, f64)]) -> bool {
    let below = |(l, h): (&(u64, f64), &(u64, f64))| l.0 == h.0 && l.1 < h.1;
    !lo.is_empty() && lo.len() == hi.len() && lo.iter().zip(hi).all(below)
}

/// Whether every pair's first curve sits below its second one everywhere.
fn fwb_below_self_hosted(pairs: &[CurvePair]) -> bool {
    !pairs.is_empty() && pairs.iter().all(|(_, fwb, sh)| below_everywhere(fwb, sh))
}

/// Whether the row keyed `key` exists and is strictly above every other row.
fn leads<K: PartialEq>(rows: &[(K, f64)], key: K) -> bool {
    let lead = rows.iter().find(|r| r.0 == key);
    lead.is_some_and(|lead| rows.iter().all(|r| r.0 == key || r.1 < lead.1))
}

fn stat_json(s: &CoverageStat) -> Value {
    json!({ "coverage": s.coverage, "median_secs": s.median.map(|d| d.as_secs()) })
}

fn curve_json(curve: &[(u64, f64)]) -> Vec<Value> {
    curve.iter().map(|&(x, f)| json!([x, f])).collect()
}

fn pairs_json(pairs: &[CurvePair]) -> Value {
    json!({ "series": pairs.iter().map(|(label, fwb, sh)| json!({
        "label": label, "fwb": curve_json(fwb), "self_hosted": curve_json(sh),
    })).collect::<Vec<_>>() })
}

/// `labels` followed by each fraction as a whole percentage.
fn pct_row(labels: &[&str], fracs: &[(u64, f64)]) -> Vec<String> {
    let pcts = fracs.iter().map(|&(_, f)| format!("{:.0}%", f * 100.0));
    labels.iter().map(|s| s.to_string()).chain(pcts).collect()
}

/// Print one FWB row and one self-hosted row per pair, over the Figure 6/9
/// checkpoints.
fn print_curve_pairs(title: &str, column: &str, pairs: &[CurvePair]) {
    println!("\n{title}\n");
    let hours = CURVE_CHECKPOINT_HOURS.map(|h| format!("{h}h")).join("|");
    let mut t = TableWriter::new(&format!("{column}|Population|{hours}"));
    for (label, fwb, sh) in pairs {
        t.row(pct_row(&[label, "FWB"], fwb));
        t.row(pct_row(&[label, "self-hosted"], sh));
    }
    t.print();
}

/// Figure 1: FWB phishing shared on Twitter and Facebook per quarter,
/// Jan 2020 – Aug 2022, with each quarter's top-80% service set.
pub fn fig1() -> Section {
    let records = history::generate(&HistoryConfig::default(), &mut Rng64::new(2020));
    let series = history::quarterly_series(&records);
    let top = |q| history::top_domains_80pct(&records, q);
    let tops: Vec<Vec<FwbKind>> = (0..series.len()).map(top).collect();
    let names = |top: &[FwbKind]| top.iter().map(|k| k.to_string()).collect::<Vec<_>>();

    println!("Figure 1 — FWB phishing attacks shared per quarter");
    println!("(historical D1 population: {} URLs)\n", records.len());
    let mut t = TableWriter::new("Quarter|Twitter|Facebook|Total|Top-80% FWBs");
    for ((label, tw, fb), top) in series.iter().zip(&tops) {
        let mut row = vec![label.to_string()];
        row.extend([tw, fb, &(tw + fb)].map(|c| c.to_string()));
        row.push(names(top).join(", "));
        t.row(row);
    }
    t.print();

    let tw_total: usize = series.iter().map(|(_, t, _)| t).sum();
    let fb_total: usize = series.iter().map(|(_, _, f)| f).sum();
    let [first, last] = [series[0], series[series.len() - 1]].map(|(_, t, f)| t + f);
    println!("\nTotals: Twitter {tw_total} (paper: 16.3K), Facebook {fb_total} (paper: 8.9K)");
    let growth = last / first.max(1);
    println!("Trend: first quarter {first} vs last quarter {last} — {growth}x growth");

    let record = json!({
        "series": series.iter().zip(&tops).map(|((l, t, f), top)| json!({
            "quarter": l, "twitter": t, "facebook": f, "top_80pct": names(top),
        })).collect::<Vec<_>>(),
        "twitter_total": tw_total,
        "facebook_total": fb_total,
    });
    Section::finish("fig1", record, FIG1_CLAIMS, fig1_shapes(&series, &tops))
}

const FIG1_CLAIMS: [&str; 3] = [
    "the quarterly total rises every quarter",
    "Twitter carries more FWB phishing than Facebook every quarter",
    "the top-80% service set is wider in the last quarter than in the first",
];

/// Figure 1's shapes over the quarterly (label, Twitter, Facebook) series
/// and each quarter's top-80% service set.
pub fn fig1_shapes(series: &[(&str, usize, usize)], tops: &[Vec<FwbKind>]) -> [bool; 3] {
    let totals: Vec<usize> = series.iter().map(|(_, t, f)| t + f).collect();
    [
        totals.len() > 1 && totals.windows(2).all(|w| w[0] < w[1]),
        series.iter().all(|(_, t, f)| t > f),
        tops.first().map(Vec::len) < tops.last().map(Vec::len),
    ]
}

/// Phishing/benign pairs generated per service for Table 1.
const TABLE1_PAIRS: u64 = 60;

/// The six services Table 1 reports, with the paper's medians.
const TABLE1: [(FwbKind, f64); 6] = [
    (FwbKind::Weebly, 79.4),
    (FwbKind::Webhost000, 68.1),
    (FwbKind::Blogspot, 63.8),
    (FwbKind::GoogleSites, 72.4),
    (FwbKind::Wix, 63.7),
    (FwbKind::GithubIo, 37.4),
];

/// Table 1: median HTML code similarity between FWB phishing and benign
/// sites per service, by the Appendix-A algorithm over generated sites.
pub fn table1() -> Section {
    let mut rng = Rng64::new(0x7ab1e1);
    let zipf = Zipf::new(BRANDS.len(), 1.05);
    let tags = |spec: &PageSpec| parse(&spec.generate().html).tag_elements();

    println!("\nTable 1 — website code similarity between FWB phishing and benign sites");
    println!("({TABLE1_PAIRS} phishing/benign pairs per service, Appendix-A algorithm)\n");
    let mut t = TableWriter::new("FWB|Median similarity|Paper");
    let mut rows = Vec::new();
    for (kind, paper) in TABLE1 {
        // Serial RNG phase: draw every pair spec in the seed order, then
        // fan the pure generate/parse/similarity work across the pool —
        // `par_map` returns in input order, so the medians are identical
        // at every thread count.
        let specs: Vec<(PageSpec, PageSpec)> = (0..TABLE1_PAIRS)
            .map(|i| {
                let mut phish = groundtruth::phishing_spec(&mut rng, &zipf, i);
                phish.fwb = kind;
                let mut benign = groundtruth::benign_spec(&mut rng, 0x8000 + i);
                benign.fwb = kind;
                (phish, benign)
            })
            .collect();
        let sims = freephish_par::par_map(&specs, |(p, b)| site_similarity(&tags(p), &tags(b)));
        let median = median_f64(&sims).unwrap();
        let (measured, paper) = (format!("{median:.1}%"), format!("{paper:.1}%"));
        t.row([kind.to_string(), measured, paper]);
        rows.push((kind, median));
    }
    t.print();

    let record = json!({
        "rows": rows.iter().zip(TABLE1).map(|(&(kind, median), (_, paper))| json!({
            "fwb": kind.to_string(), "measured_median": median, "paper_median": paper,
        })).collect::<Vec<_>>(),
    });
    Section::finish("table1", record, TABLE1_CLAIMS, table1_shapes(&rows))
}

const TABLE1_CLAIMS: [&str; 2] = [
    "Weebly has the highest median similarity",
    "github.io has the lowest median similarity",
];

/// Table 1's shapes over (service, measured median) rows.
pub fn table1_shapes(rows: &[(FwbKind, f64)]) -> [bool; 2] {
    let negated: Vec<(FwbKind, f64)> = rows.iter().map(|&(k, v)| (k, -v)).collect();
    [
        leads(rows, FwbKind::Weebly),
        leads(&negated, FwbKind::GithubIo),
    ]
}

/// Fetcher over the corpus (and any linked pages), counting fetches so the
/// dynamic-analysis cost is visible.
struct CountingFetcher {
    pages: HashMap<String, String>,
    fetches: AtomicUsize,
}

impl SnapshotFetcher for CountingFetcher {
    fn fetch(&self, url: &str) -> Option<String> {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.pages.get(url).cloned()
    }
}

/// One Table 2 row.
pub struct ModelRow {
    /// Model name as printed.
    pub name: &'static str,
    /// Held-out accuracy / precision / recall / F1.
    pub metrics: BinaryMetrics,
    /// Page fetches per scored URL.
    pub fetches_per_url: f64,
    total_secs: f64,
    median_ms: f64,
}

fn evaluate(model: &dyn PhishDetector, test: &[LabeledSite], web: &CountingFetcher) -> ModelRow {
    let mut scores = Vec::with_capacity(test.len());
    let mut per_url_ms = Vec::with_capacity(test.len());
    web.fetches.store(0, Ordering::Relaxed);
    let start = Instant::now();
    for ls in test {
        let t0 = Instant::now();
        scores.push(model.score(&ls.site.url, &ls.site.html, web));
        per_url_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
    }
    let total_secs = start.elapsed().as_secs_f64();
    let labels: Vec<u8> = test.iter().map(|l| l.label).collect();
    ModelRow {
        name: model.name(),
        metrics: BinaryMetrics::from_scores(&labels, &scores),
        fetches_per_url: web.fetches.load(Ordering::Relaxed) as f64 / test.len() as f64,
        total_secs,
        median_ms: median_f64(&per_url_ms).unwrap_or(0.0),
    }
}

/// Table 2: the five detection models (plus the Random Forest extension
/// row) on a 70/30 split of the ground-truth corpus. Runtimes are pure
/// compute; the fetch count is the faithful cost signal (EXPERIMENTS.md).
pub fn table2(scale: f64) -> Section {
    let info = |msg: String| freephish_obs::info("harness", format!("table2: {msg} ..."));
    let n = ((4656.0 * scale) as usize).max(600);
    info(format!("building ground truth ({n}+{n})"));
    let corpus = corpus(n, 0xD1);
    let (train, test) = corpus.split_at(corpus.len() * 7 / 10);
    // The fetcher knows every training/test page (the "web" the dynamic
    // model can crawl). Two-step external targets are off-web, as in reality.
    let page = |l: &LabeledSite| (l.site.url.clone(), l.site.html.clone());
    let pages = corpus.iter().map(page).collect();
    let fetcher = CountingFetcher {
        pages,
        fetches: AtomicUsize::new(0),
    };

    info("training models".into());
    let mut rng = Rng64::new(0x7ab1e2);
    let urlnet = UrlNetStyle::train(train, &mut rng);
    let visual = VisualStyle::train(train);
    let base = BaseStackModel::train(train, &StackModelConfig::default(), &mut rng);
    let ours = AugmentedStackModel::train(train, &StackModelConfig::default(), &mut rng);
    let forest = ForestDetector::train(train, &freephish_ml::ForestConfig::default(), &mut rng);
    let intention = IntentionStyle::new();

    let n_test = test.len();
    info(format!("evaluating on {n_test} held-out sites"));
    // The last row is an extension, not in the paper's Table 2: the Random
    // Forest the Section 4 overview mentions.
    let models: [&dyn PhishDetector; 6] = [&visual, &intention, &urlnet, &base, &ours, &forest];
    let rows = models.map(|model| evaluate(model, test, &fetcher));

    println!("\nTable 2 — comparison of phishing detection models");
    println!("(test set: {n_test} URLs; runtimes are compute-only — see note)\n");
    let columns = "Model|Accuracy|Precision|Recall|F1|Total (s)|Median/URL (ms)|Fetches/URL";
    let mut t = TableWriter::new(columns);
    for r in &rows {
        let m = &r.metrics;
        let two =
            [m.accuracy, m.precision, m.recall, m.f1, r.total_secs].map(|v| format!("{v:.2}"));
        let (median, fetches) = (
            format!("{:.3}", r.median_ms),
            format!("{:.2}", r.fetches_per_url),
        );
        let mut row = vec![r.name.to_string()];
        row.extend(two.into_iter().chain([median, fetches]));
        t.row(row);
    }
    t.print();

    let record = json!({
        "test_size": test.len(),
        "rows": rows.iter().map(|r| json!({
            "model": r.name, "accuracy": r.metrics.accuracy, "precision": r.metrics.precision,
            "recall": r.metrics.recall, "f1": r.metrics.f1, "fetches_per_url": r.fetches_per_url,
        })).collect::<Vec<_>>(),
    });
    let mut section = Section::finish("table2", record, TABLE2_CLAIMS, table2_shapes(&rows));
    let runtime = |r: &ModelRow| {
        json!({
            "model": r.name, "total_secs": r.total_secs, "median_ms": r.median_ms,
        })
    };
    section.wall_clock = json!(rows.iter().map(runtime).collect::<Vec<_>>());
    section
}

const TABLE2_CLAIMS: [&str; 3] = [
    "URLNet and VisualPhishNet are the weak pair: each is less accurate than every other model",
    "our augmented model is at least as accurate as every other model",
    "PhishIntention is the only model that fetches pages",
];

/// Table 2's shapes over the model rows: the paper's five models in paper
/// order (VisualPhishNet, PhishIntention, URLNet, base StackModel, ours),
/// then any extension rows.
pub fn table2_shapes(rows: &[ModelRow]) -> [bool; 3] {
    let (visual, intention, urlnet, ours) = (0, 1, 2, 4);
    let acc = |i: usize| rows[i].metrics.accuracy;
    let all = |ok: &dyn Fn(usize) -> bool| rows.len() > ours && (0..rows.len()).all(ok);
    [
        all(&|i| i == visual || i == urlnet || acc(visual).max(acc(urlnet)) < acc(i)),
        all(&|i| acc(i) <= acc(ours)),
        all(&|i| (rows[i].fetches_per_url > 0.0) == (i == intention)),
    ]
}

/// Table 3: coverage and response time of each entity against FWB vs
/// self-hosted phishing.
pub fn table3(m: &Measurement) -> Section {
    let rows = analysis::table3(&m.observations);
    let cells = |s: &CoverageStat| {
        let min_max = format!("{}/{}", fmt_duration_opt(s.min), fmt_duration_opt(s.max));
        [fmt_pct(s.coverage), min_max, fmt_duration_opt(s.median)]
    };

    println!("\nTable 3 — coverage and response time against FWB vs self-hosted phishing");
    let n = m.observations.len() / 2;
    println!("(measured from {n} FWB + equal self-hosted URLs over 180 simulated days)\n");
    let mut t = TableWriter::new(
        "Method|FWB Coverage|FWB Min/Max|FWB Median|SelfH Coverage|SelfH Min/Max|SelfH Median",
    );
    for r in &rows {
        let mut row = vec![r.entity.label()];
        row.extend(cells(&r.fwb).into_iter().chain(cells(&r.self_hosted)));
        t.row(row);
    }
    t.print();

    let record = json!({
        "rows": rows.iter().map(|r| json!({
            "entity": r.entity.label(),
            "fwb": stat_json(&r.fwb),
            "self_hosted": stat_json(&r.self_hosted),
        })).collect::<Vec<_>>(),
    });
    Section::finish("table3", record, TABLE3_CLAIMS, table3_shapes(&rows))
}

const TABLE3_CLAIMS: [&str; 3] = [
    "every entity covers less FWB than self-hosted phishing",
    "every entity but Hosting domain answers self-hosted phishing faster (median); \
     Hosting domain is EXPERIMENTS.md deviation 2",
    "GSB leads the blocklists on both populations",
];

/// Table 3's shapes over its six entity rows.
pub fn table3_shapes(rows: &[Table3Row]) -> [bool; 3] {
    let coverage = |pick: fn(&Table3Row) -> &CoverageStat| -> Vec<(Entity, f64)> {
        let list = |r: &&Table3Row| matches!(r.entity, Entity::Blocklist(_));
        rows.iter()
            .filter(list)
            .map(|r| (r.entity, pick(r).coverage))
            .collect()
    };
    let gsb = Entity::Blocklist(BlocklistKind::Gsb);
    let faster_on_self_hosted = |r: &Table3Row| {
        r.entity == Entity::HostingDomain
            || matches!((r.self_hosted.median, r.fwb.median), (Some(sh), Some(fwb)) if sh < fwb)
    };
    [
        !rows.is_empty() && rows.iter().all(|r| r.fwb.coverage < r.self_hosted.coverage),
        !rows.is_empty() && rows.iter().all(faster_on_self_hosted),
        leads(&coverage(|r| &r.fwb), gsb) && leads(&coverage(|r| &r.self_hosted), gsb),
    ]
}

/// Table 4: per-FWB coverage and median response of the six
/// countermeasures.
pub fn table4(m: &Measurement) -> Section {
    let rows = analysis::table4(&m.observations);
    let cell = |s: &CoverageStat| match s.covered {
        0 => "0% N/A".to_string(),
        _ => format!("{} {}", fmt_pct(s.coverage), fmt_duration_opt(s.median)),
    };

    println!("\nTable 4 — per-FWB coverage (and median speed) of each countermeasure\n");
    let mut t = TableWriter::new("Domains|URLs|Domain|Platform|PhishTank|OpenPhish|GSB|eCrimeX");
    for r in &rows {
        let stats = [
            &r.domain,
            &r.platform,
            &r.phishtank,
            &r.openphish,
            &r.gsb,
            &r.ecrimex,
        ];
        let mut row = vec![r.fwb.to_string(), r.urls.to_string()];
        row.extend(stats.map(cell));
        t.row(row);
    }
    t.print();

    let record = json!({
        "rows": rows.iter().map(|r| json!({
            "fwb": r.fwb.to_string(), "urls": r.urls,
            "domain": stat_json(&r.domain), "platform": stat_json(&r.platform),
            "phishtank": stat_json(&r.phishtank), "openphish": stat_json(&r.openphish),
            "gsb": stat_json(&r.gsb), "ecrimex": stat_json(&r.ecrimex),
        })).collect::<Vec<_>>(),
    });
    Section::finish("table4", record, TABLE4_CLAIMS, table4_shapes(&rows))
}

const TABLE4_CLAIMS: [&str; 3] = [
    "PhishTank covers no GoDaddySites or hpage URL",
    "eCrimeX covers no Yolasite, GoDaddySites, glitch.me or hpage URL",
    "Weebly, 000webhost and Wix each remove more of their phishing than \
     any Google property or Sharepoint",
];

/// Table 4's shapes over its per-FWB rows.
pub fn table4_shapes(rows: &[Table4Row]) -> [bool; 3] {
    use FwbKind::*;
    let row = |k: FwbKind| rows.iter().find(|r| r.fwb == k);
    let uncovered = |fwbs: &[FwbKind], pick: fn(&Table4Row) -> &CoverageStat| {
        fwbs.iter()
            .all(|&k| row(k).is_some_and(|r| pick(r).covered == 0))
    };
    // A missing row's removal rate is NaN, which fails every comparison.
    let removal = |k: FwbKind| row(k).map_or(f64::NAN, |r| r.domain.coverage);
    let lag = [Blogspot, GoogleSites, GoogleForms, Sharepoint].map(removal);
    let above_lag = |&top: &FwbKind| lag.iter().all(|&l| l < removal(top));
    [
        uncovered(&[GoDaddySites, Hpage], |r| &r.phishtank),
        uncovered(&[Yolasite, GoDaddySites, GlitchMe, Hpage], |r| &r.ecrimex),
        [Weebly, Webhost000, Wix].iter().all(above_lag),
    ]
}

/// Figure 5: the most-targeted organisations among FWB phishing.
pub fn fig5(m: &Measurement) -> Section {
    let dist = analysis::brand_distribution(&m.observations, 20);
    let uniq = analysis::unique_brands(&m.observations);

    println!("\nFigure 5 — most-targeted organisations ({uniq} unique brands observed)\n");
    let mut t = TableWriter::new("Rank|Brand|URLs|Share");
    let total: usize = dist.iter().map(|&(_, c)| c).sum();
    for (i, (name, count)) in dist.iter().enumerate() {
        let share = format!("{:.1}%", 100.0 * *count as f64 / total as f64);
        let (rank, urls) = ((i + 1).to_string(), count.to_string());
        t.row([rank, name.to_string(), urls, share]);
    }
    t.print();

    let record = json!({
        "unique_brands": uniq,
        "top": dist.iter().map(|(n, c)| json!({"brand": n, "count": c})).collect::<Vec<_>>(),
    });
    Section::finish("fig5", record, FIG5_CLAIMS, fig5_shapes(&dist))
}

const FIG5_CLAIMS: [&str; 1] = [
    "Facebook, Microsoft and Netflix are the three most-targeted brands, \
     each strictly ahead of the next",
];

/// Figure 5's shapes over the (brand, URLs) ranking, most-targeted first.
pub fn fig5_shapes(dist: &[(&str, usize)]) -> [bool; 1] {
    let head: Vec<&str> = dist.iter().take(3).map(|&(n, _)| n).collect();
    let strictly_ranked = dist.len() > 3 && dist[..4].windows(2).all(|w| w[0].1 > w[1].1);
    [head == ["Facebook", "Microsoft", "Netflix"] && strictly_ranked]
}

/// Figure 6: cumulative blocklist coverage at 3h … 168h, FWB vs
/// self-hosted.
pub fn fig6(m: &Measurement) -> Section {
    let curve = |kind, fwb| analysis::entity_curve(&m.observations, Entity::Blocklist(kind), fwb);
    let pair = |k: BlocklistKind| (k.to_string(), curve(k, true), curve(k, false));
    let pairs: Vec<CurvePair> = BlocklistKind::ALL.into_iter().map(pair).collect();
    let title = "Figure 6 — blocklist coverage vs time since first appearance";
    print_curve_pairs(title, "Blocklist", &pairs);
    Section::finish("fig6", pairs_json(&pairs), FIG6_CLAIMS, fig6_shapes(&pairs))
}

const FIG6_CLAIMS: [&str; 2] = [
    "every blocklist's FWB curve sits below its self-hosted curve at every checkpoint",
    "GSB's curve sits above every other list's at every checkpoint, on both populations",
];

/// Figure 6's shapes over (blocklist, FWB curve, self-hosted curve) rows.
pub fn fig6_shapes(pairs: &[CurvePair]) -> [bool; 2] {
    let gsb = pairs.iter().find(|p| p.0 == BlocklistKind::Gsb.to_string());
    let gsb_on_top = gsb.is_some_and(|g| {
        let mut others = pairs.iter().filter(|p| p.0 != g.0);
        others.all(|p| below_everywhere(&p.1, &g.1) && below_everywhere(&p.2, &g.2))
    });
    [fwb_below_self_hosted(pairs), gsb_on_top]
}

/// Detection-count buckets of the Figure 7 CDF.
const FIG7_KS: [usize; 9] = [1, 2, 3, 4, 6, 9, 12, 16, 24];

/// Figure 7: CDF of engine detections one week after first appearance,
/// per population and platform.
pub fn fig7(m: &Measurement) -> Section {
    let cdf = |fwb, platform| -> Curve {
        let cdf = analysis::vt_week_cdf(&m.observations, fwb, Some(platform), &FIG7_KS);
        cdf.into_iter().map(|(k, f)| (k as u64, f)).collect()
    };
    let pair = |p: Platform| (p.to_string(), cdf(true, p), cdf(false, p));
    let pairs: Vec<CurvePair> = Platform::ALL.into_iter().map(pair).collect();

    println!("\nFigure 7 — CDF of engine detections after one week\n");
    let ks = FIG7_KS.map(|k| format!("<={k}")).join("|");
    let mut t = TableWriter::new(&format!("Population|{ks}"));
    for (population, fwb_pop) in [("FWB", true), ("self-hosted", false)] {
        for (platform, fwb, sh) in &pairs {
            let label = format!("{population} ({platform})");
            t.row(pct_row(&[&label], if fwb_pop { fwb } else { sh }));
        }
    }
    t.print();
    Section::finish("fig7", pairs_json(&pairs), FIG7_CLAIMS, fig7_shapes(&pairs))
}

const FIG7_CLAIMS: [&str; 1] =
    ["on each platform the FWB median detection bucket is below the self-hosted one"];

/// Figure 7's shapes over (platform, FWB CDF, self-hosted CDF) rows.
pub fn fig7_shapes(pairs: &[CurvePair]) -> [bool; 1] {
    // The smallest bucket whose CDF reaches one half.
    let median = |cdf: &Curve| cdf.iter().find(|&&(_, f)| f >= 0.5).map(|&(k, _)| k);
    let lower =
        |(_, fwb, sh): &CurvePair| matches!((median(fwb), median(sh)), (Some(f), Some(s)) if f < s);
    [!pairs.is_empty() && pairs.iter().all(lower)]
}

/// Figure 8: fraction of URLs at ≤k engine detections on days 1..7, per
/// population and platform (the paper's four panels).
pub fn fig8(m: &Measurement) -> Section {
    let ks = [2usize, 4, 6, 9];
    let days = |fwb, platform, k| analysis::vt_daily_at_most(&m.observations, fwb, platform, k);
    let pairs: Vec<CurvePair> = Platform::ALL
        .into_iter()
        .flat_map(|p| ks.map(|k| (format!("{p} <={k}"), days(true, p, k), days(false, p, k))))
        .collect();

    println!("\nFigure 8 — fraction of URLs at <=k detections, day 1..7");
    for (population, fwb_pop) in [("FWB", true), ("Self-hosted", false)] {
        for (platform, panel) in Platform::ALL.iter().zip(pairs.chunks(ks.len())) {
            println!("\nPanel: {population} via {platform}");
            let mut t = TableWriter::new("k|d1|d2|d3|d4|d5|d6|d7");
            for (k, (_, fwb, sh)) in ks.iter().zip(panel) {
                let cells = if fwb_pop { fwb } else { sh };
                t.row(pct_row(&[&format!("<={k}")], cells));
            }
            t.print();
        }
    }
    Section::finish("fig8", pairs_json(&pairs), FIG8_CLAIMS, fig8_shapes(&pairs))
}

const FIG8_CLAIMS: [&str; 1] =
    ["for every platform, k and day, fewer self-hosted than FWB URLs remain at <=k detections"];

/// Figure 8's shapes over (platform and k, FWB days, self-hosted days) rows.
pub fn fig8_shapes(pairs: &[CurvePair]) -> [bool; 1] {
    [!pairs.is_empty() && pairs.iter().all(|(_, fwb, sh)| below_everywhere(sh, fwb))]
}

/// Figure 9: platform post-removal coverage over time, FWB vs self-hosted.
pub fn fig9(m: &Measurement) -> Section {
    let curves = |platform: Platform| {
        let mut on = m.observations.clone();
        on.retain(|o| o.platform == platform);
        let curve = |fwb| analysis::entity_curve(&on, Entity::SocialPlatform, fwb);
        (platform.to_string(), curve(true), curve(false))
    };
    let pairs: Vec<CurvePair> = Platform::ALL.into_iter().map(curves).collect();
    print_curve_pairs(
        "Figure 9 — platform post-removal coverage vs time",
        "Platform",
        &pairs,
    );
    let checks = [fwb_below_self_hosted(&pairs)];
    Section::finish("fig9", pairs_json(&pairs), FIG9_CLAIMS, checks)
}

const FIG9_CLAIMS: [&str; 1] =
    ["every platform's FWB removal curve sits below its self-hosted curve at every checkpoint"];

/// One service's evasive-attack counts (Section 5.5).
#[derive(Debug, Clone, Copy)]
pub struct EvasionRow {
    /// The service.
    pub fwb: FwbKind,
    /// FWB phishing URLs on it.
    pub urls: usize,
    /// Two-step link-out pages.
    pub two_step: usize,
    /// Iframe-embedded attacks.
    pub iframe: usize,
    /// Drive-by downloads.
    pub drive_by: usize,
}

/// Section 5.5: the evasive-attack census over every FWB phishing snapshot,
/// per service, plus the Sharepoint→Microsoft spoofing concentration.
pub fn evasive(m: &Measurement) -> Section {
    use FwbKind::{Blogspot, GoogleForms, GoogleSites, Sharepoint};
    let mut rows = [GoogleSites, Blogspot, Sharepoint, GoogleForms].map(|fwb| EvasionRow {
        fwb,
        urls: 0,
        two_step: 0,
        iframe: 0,
        drive_by: 0,
    });
    let (mut total, mut no_cred, mut iframe_total, mut sp_microsoft) =
        (0usize, 0usize, 0usize, 0usize);
    // Walk every FWB phishing snapshot the way the paper walked its dataset.
    for r in &m.records {
        let RecordClass::FwbPhish(fwb) = r.class else {
            continue;
        };
        total += 1;
        let mut row = rows.iter_mut().find(|row| row.fwb == fwb);
        if let Some(row) = row.as_mut() {
            row.urls += 1;
        }
        let host = m.world.host(fwb);
        let Some(id) = host.site_by_url(&r.url) else {
            continue;
        };
        let doc = parse(&host.site(id).site.html);
        no_cred += usize::from(lacks_credential_fields(&doc));
        let url = Url::parse(&r.url).expect("campaign urls parse");
        let Some((vector, _)) = classify_evasion(&url, &doc) else {
            continue;
        };
        iframe_total += usize::from(vector == EvasionVector::IframeEmbed);
        let Some(row) = row else { continue };
        match vector {
            EvasionVector::TwoStepLink => row.two_step += 1,
            EvasionVector::IframeEmbed => row.iframe += 1,
            EvasionVector::DriveByDownload => row.drive_by += 1,
        }
        // Brands 1, 21 and 22 are Microsoft, OneDrive and Office 365.
        let ms_brand = matches!(r.brand, Some(1 | 21 | 22));
        sp_microsoft +=
            usize::from(vector == EvasionVector::DriveByDownload && fwb == Sharepoint && ms_brand);
    }

    println!("\nSection 5.5 — evasive attack census ({total} FWB phishing URLs)\n");
    let no_cred_pct = 100.0 * no_cred as f64 / total as f64;
    println!("URLs without credential fields: {no_cred} ({no_cred_pct:.1}%)  [paper: 14.2%]\n");
    let mut t = TableWriter::new("FWB|URLs|Two-step|Iframe|Drive-by");
    for r in &rows {
        let share = |c: usize| format!("{c} ({:.0}%)", 100.0 * c as f64 / r.urls.max(1) as f64);
        let counts = [r.two_step, r.iframe, r.drive_by].map(share);
        let mut row = vec![r.fwb.to_string(), r.urls.to_string()];
        row.extend(counts);
        t.row(row);
    }
    t.print();

    let pct = |part: usize, whole: usize| 100.0 * part as f64 / whole.max(1) as f64;
    let gs_blog_share = pct(rows[0].iframe + rows[1].iframe, iframe_total);
    println!(
        "\nGoogle Sites + Blogspot share of all iframe attacks: {gs_blog_share:.0}%  [paper: 62%]"
    );
    let sp_share = pct(sp_microsoft, rows[2].drive_by);
    println!(
        "Sharepoint drive-bys spoofing Microsoft/OneDrive/Office365: {sp_share:.0}%  [paper: ~63%]"
    );

    let record = json!({
        "total": total,
        "no_credential_fields": no_cred,
        "iframe_total": iframe_total,
        "sharepoint_drive_by_spoofing_microsoft": sp_microsoft,
        "rows": rows.iter().map(|r| json!({
            "fwb": r.fwb.to_string(), "urls": r.urls,
            "two_step": r.two_step, "iframe": r.iframe, "drive_by": r.drive_by,
        })).collect::<Vec<_>>(),
    });
    let checks = evasive_shapes(&rows, iframe_total, sp_microsoft);
    Section::finish("evasive", record, EVASIVE_CLAIMS, checks)
}

const EVASIVE_CLAIMS: [&str; 3] = [
    "Sharepoint carries more drive-by downloads than any other service",
    "Google Sites and Blogspot together host most iframe attacks",
    "most Sharepoint drive-bys spoof Microsoft, OneDrive or Office 365",
];

/// Section 5.5's shapes over the per-service rows, the count of all iframe
/// attacks, and the Sharepoint drive-bys that spoof a Microsoft brand.
pub fn evasive_shapes(rows: &[EvasionRow], iframe_total: usize, sp_microsoft: usize) -> [bool; 3] {
    let row = |k: FwbKind| rows.iter().find(|r| r.fwb == k);
    let iframes = |k| row(k).map_or(0, |r| r.iframe);
    let sharepoint = row(FwbKind::Sharepoint);
    let drive_bys: Vec<(FwbKind, f64)> = rows.iter().map(|r| (r.fwb, r.drive_by as f64)).collect();
    [
        leads(&drive_bys, FwbKind::Sharepoint),
        2 * (iframes(FwbKind::GoogleSites) + iframes(FwbKind::Blogspot)) > iframe_total,
        sharepoint.is_some_and(|sp| 2 * sp_microsoft > sp.drive_by),
    ]
}

/// Section 3's characterization of the FWB phishing population against the
/// self-hosted sample, plus two-week attack uptime.
pub fn characterize(m: &Measurement) -> Section {
    let site = |r: &freephish_core::campaign::CampaignRecord| {
        let RecordClass::FwbPhish(fwb) = r.class else {
            return None;
        };
        let host = m.world.host(fwb);
        host.site_by_url(&r.url)
            .map(|id| host.site(id).site.clone())
    };
    let sites: Vec<_> = m.records.iter().filter_map(site).collect();
    let c = freephish_core::characterize::characterize(&m.world, &sites, 180);
    let sh_age = self_hosted_median_age(&m.world, 180);
    let fwb_life = analysis::lifetime_stats(&m.observations, true, TWO_WEEKS_SECS);
    let sh_life = analysis::lifetime_stats(&m.observations, false, TWO_WEEKS_SECS);

    println!(
        "\nSection 3 — characterization of {n} FWB phishing sites\n\n\
         Hosted on .com-granting FWBs:   {com:.1}%   [paper: ~89%]\n\
         Median WHOIS domain age:        {years:.1} years [paper: 13.7 years]\n\
         Self-hosted median domain age:  {sh_days} days  [paper: 71 days]\n\
         noindex meta tag present:       {noindex:.1}%   [paper: 44.7%]\n\
         Indexed by the search engine:   {indexed:.1}%   [paper: 4.1%]\n\
         Visible in CT logs:             {ct:.1}%   [paper: 0% — shared certs]\n\
         FWB banner hidden by attacker:  {banner:.1}%\n\n\
         Attack uptime (two-week window):",
        n = c.n,
        com = c.on_com_tld * 100.0,
        years = c.median_domain_age_days.unwrap_or(0) as f64 / 365.25,
        sh_days = sh_age.unwrap_or(0),
        noindex = c.noindex_rate * 100.0,
        indexed = c.indexed_rate * 100.0,
        ct = c.ct_visible_rate * 100.0,
        banner = c.banner_obfuscation_rate * 100.0,
    );
    for (label, life) in [("FWB:         ", &fwb_life), ("self-hosted: ", &sh_life)] {
        let alive = life.survival_rate * 100.0;
        let lived = fmt_duration_opt(life.median_uptime);
        println!("  {label} {alive:.1}% still alive; removed ones lived {lived} (median)");
    }

    let uptime = |l: &LifetimeStats| {
        json!({
            "survival_rate": l.survival_rate, "median_secs": l.median_uptime.map(|d| d.as_secs()),
        })
    };
    let record = json!({
        "n": c.n, "on_com_tld": c.on_com_tld,
        "median_domain_age_days": c.median_domain_age_days, "self_hosted_median_age_days": sh_age,
        "noindex_rate": c.noindex_rate, "indexed_rate": c.indexed_rate,
        "ct_visible_rate": c.ct_visible_rate, "banner_obfuscation_rate": c.banner_obfuscation_rate,
        "fwb_uptime": uptime(&fwb_life), "self_hosted_uptime": uptime(&sh_life),
    });
    let checks = characterize_shapes(&c, sh_age, &fwb_life, &sh_life);
    Section::finish("characterize", record, CHARACTERIZE_CLAIMS, checks)
}

const CHARACTERIZE_CLAIMS: [&str; 3] = [
    "no FWB phishing site is visible in CT logs",
    "the median FWB domain is older than the median self-hosted one",
    "more FWB than self-hosted attacks are still alive after two weeks",
];

/// Section 3's characterization shapes.
pub fn characterize_shapes(
    c: &Characterization,
    self_hosted_age_days: Option<u64>,
    fwb_life: &LifetimeStats,
    self_hosted_life: &LifetimeStats,
) -> [bool; 3] {
    let ages = (c.median_domain_age_days, self_hosted_age_days);
    [
        c.n > 0 && c.ct_visible_rate == 0.0,
        matches!(ages, (Some(fwb), Some(sh)) if fwb > sh),
        fwb_life.survival_rate > self_hosted_life.survival_rate,
    ]
}

/// Section 3's "increased difficulty of discovery", quantified: recall of
/// CT-log watching, search-index mining and social-stream watching.
pub fn discovery(m: &Measurement) -> Section {
    let report = discovery_report(&m.world, &m.records, SimTime::from_days(180));

    println!("\nSection 3 — discovery-channel recall over the campaign\n");
    let mut t = TableWriter::new("Channel|FWB recall|Self-hosted recall");
    for r in &report {
        let recalls = [r.fwb_recall, r.self_hosted_recall].map(|f| format!("{:.1}%", f * 100.0));
        t.row([r.channel.to_string()].into_iter().chain(recalls));
    }
    t.print();

    let record = json!({
        "rows": report.iter().map(|r| json!({
            "channel": r.channel,
            "fwb_recall": r.fwb_recall,
            "self_hosted_recall": r.self_hosted_recall,
        })).collect::<Vec<_>>(),
    });
    let checks = discovery_shapes(&report);
    Section::finish("discovery", record, DISCOVERY_CLAIMS, checks)
}

const DISCOVERY_CLAIMS: [&str; 3] = [
    "the CT-log watcher finds no FWB phishing",
    "the search-index miner finds less FWB than self-hosted phishing",
    "the social-stream watcher finds more FWB phishing than any other channel",
];

/// The discovery section's shapes over its per-channel rows.
pub fn discovery_shapes(rows: &[DiscoveryReport]) -> [bool; 3] {
    let channel = |name: &str| rows.iter().find(|r| r.channel == name);
    let fwb_recall: Vec<(&str, f64)> = rows.iter().map(|r| (r.channel, r.fwb_recall)).collect();
    [
        channel("CT-log watcher").is_some_and(|r| r.fwb_recall == 0.0),
        channel("search-index miner").is_some_and(|r| r.fwb_recall < r.self_hosted_recall),
        leads(&fwb_recall, "social-stream watcher"),
    ]
}

/// Drop named columns from a dataset.
fn drop_columns(data: &Dataset, drop: &[&str]) -> Dataset {
    let names = data.feature_names();
    let kept = |i: &usize| !drop.contains(&names[*i].as_str());
    let keep: Vec<usize> = (0..names.len()).filter(kept).collect();
    let mut out = Dataset::new(keep.iter().map(|&i| names[i].clone()).collect());
    for r in 0..data.len() {
        let row = keep.iter().map(|&i| data.row(r)[i]).collect();
        out.push(row, data.label(r));
    }
    out
}

/// One feature-ablation variant: (name, F1 overall, F1 on the evasive
/// subset).
pub type FeatureVariant = (&'static str, f64, f64);

/// What the two FWB-specific features (noindex, obfuscated banner) add on
/// top of the base StackModel layout, overall and on the evasive
/// (credential-free) subset where they matter most.
fn feature_ablation() -> Vec<FeatureVariant> {
    println!("\n== Feature ablation ==");
    let corpus = corpus(2500, 0xAB1);
    let (train, test) = corpus.split_at(corpus.len() * 7 / 10);
    let full_train = to_dataset(train, FeatureSet::Augmented);
    let full_test = to_dataset(test, FeatureSet::Augmented);
    let evasive: Vec<usize> = (0..test.len())
        .filter(|&i| test[i].label == 0 || test[i].site.spec.kind.is_evasive())
        .collect();

    let variants: [(&'static str, &[&str]); 4] = [
        ("augmented (both FWB features)", &[]),
        ("without noindex", &["has_noindex"]),
        ("without banner-obfuscation", &["banner_obfuscated"]),
        (
            "without both (≈ base layout)",
            &["has_noindex", "banner_obfuscated"],
        ),
    ];
    let mut t = TableWriter::new("Variant|F1 (all)|F1 (evasive subset)");
    let rows = variants.map(|(name, drop)| {
        let tr = drop_columns(&full_train, drop);
        let te = drop_columns(&full_test, drop);
        let model = StackModel::train(&StackModelConfig::tiny(), &tr, &mut Rng64::new(0xAB2));
        let scores = model.predict_all(&te);
        let all = BinaryMetrics::from_scores(te.labels(), &scores);
        let ev_labels: Vec<u8> = evasive.iter().map(|&i| te.label(i)).collect();
        let ev_scores: Vec<f64> = evasive.iter().map(|&i| scores[i]).collect();
        let ev = BinaryMetrics::from_scores(&ev_labels, &ev_scores);
        let (all_f1, ev_f1) = (format!("{:.3}", all.f1), format!("{:.3}", ev.f1));
        t.row([name.to_string(), all_f1, ev_f1]);
        (name, all.f1, ev.f1)
    });
    t.print();
    rows.into()
}

/// GBDT split counts per feature of the augmented layout, most-split first.
fn feature_importance() -> Vec<(String, usize)> {
    println!("\n== GBDT split-count feature importance (augmented layout) ==");
    let corpus = corpus(1500, 0xAB3);
    let data = to_dataset(&corpus, FeatureSet::Augmented);
    let config = freephish_ml::GbdtConfig::classic();
    let model = freephish_ml::Gbdt::train(&config, &data, &mut Rng64::new(0xAB4));
    let counts = model.feature_split_counts(data.n_features());
    let mut ranked: Vec<(String, usize)> =
        data.feature_names().iter().cloned().zip(counts).collect();
    ranked.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let mut t = TableWriter::new("Feature|Splits");
    for (name, c) in ranked.iter().take(10) {
        t.row([name.clone(), c.to_string()]);
    }
    t.print();
    ranked
}

/// One takedown world: (label, removal rate, median removal delay).
pub type TakedownWorld = (&'static str, f64, Option<SimDuration>);

/// The ecosystem counterfactual behind Section 5.3: if every FWB handled
/// abuse reports the way Weebly does, how much of the population would be
/// removed, and how fast?
fn takedown_ablation() -> Vec<TakedownWorld> {
    println!("\n== Takedown-responsiveness counterfactual ==");
    let (n_per_fwb, reported_at) = (800usize, SimTime::from_mins(30));
    let mut t = TableWriter::new("World|Removal rate|Median removal");
    let worlds = [
        ("as measured (paper profiles)", false),
        ("all FWBs as responsive as Weebly", true),
    ];
    let weebly = TakedownProfile::paper_default(FwbKind::Weebly);
    let rows = worlds.map(|(label, counterfactual)| {
        let mut delays: Vec<u64> = Vec::new();
        for kind in FwbKind::all() {
            let mut host = match counterfactual {
                true => FwbHost::with_profile(kind, weebly.clone(), 5),
                false => FwbHost::new(kind, 5),
            };
            for i in 0..n_per_fwb {
                let site = PageSpec {
                    fwb: kind,
                    kind: PageKind::CredentialPhish { brand: i % 100 },
                    site_name: format!("abl-{i}"),
                    noindex: false,
                    obfuscate_banner: false,
                    seed: i as u64,
                };
                let id = host.publish(site.generate(), SimTime::ZERO);
                if let Some(at) = host.report_abuse(id, reported_at).removal_at {
                    delays.push((at - reported_at).as_secs());
                }
            }
        }
        let rate = delays.len() as f64 / (n_per_fwb * FwbKind::all().count()) as f64;
        let median = median_u64(&delays).map(SimDuration::from_secs);
        t.row([label.to_string(), fmt_pct(rate), fmt_duration_opt(median)]);
        (label, rate, median)
    });
    t.print();
    rows.into()
}

/// Ablations of the design choices DESIGN.md calls out: the FWB features,
/// GBDT feature importance, and the takedown-responsiveness counterfactual.
pub fn ablation() -> Section {
    let features = feature_ablation();
    let importance = feature_importance();
    let takedown = takedown_ablation();
    let record = json!({
        "feature_ablation": features.iter().map(|&(variant, all, evasive)| json!({
            "variant": variant, "f1_all": all, "f1_evasive": evasive,
        })).collect::<Vec<_>>(),
        "feature_importance": importance.iter().map(|(n, c)| json!({"feature": n, "splits": c}))
            .collect::<Vec<_>>(),
        "takedown_ablation": takedown.iter().map(|&(world, rate, median)| json!({
            "world": world,
            "removal_rate": rate,
            "median_removal_secs": median.map(|d| d.as_secs()),
        })).collect::<Vec<_>>(),
    });
    let checks = ablation_shapes(&features, &takedown);
    Section::finish("ablation", record, ABLATION_CLAIMS, checks)
}

const ABLATION_CLAIMS: [&str; 2] = [
    "dropping has_noindex lowers F1, overall and on the evasive subset",
    "Weebly-grade takedown handling everywhere removes more phishing, and sooner",
];

/// The ablations' shapes: variants in the order augmented, without noindex,
/// …; takedown worlds in the order as-measured, counterfactual.
pub fn ablation_shapes(features: &[FeatureVariant], takedown: &[TakedownWorld]) -> [bool; 2] {
    let ([full, no_noindex, ..], [measured, uniform, ..]) = (features, takedown) else {
        return [false; 2];
    };
    let sooner = matches!((uniform.2, measured.2), (Some(u), Some(m)) if u < m);
    [
        no_noindex.1 < full.1 && no_noindex.2 < full.2,
        uniform.1 > measured.1 && sooner,
    ]
}

#[cfg(test)]
mod tests;
