//! Every shape predicate holds on rows shaped like a measured run, and
//! fails — alone — when one row is broken by hand.

use super::*;

fn stat(coverage: f64, median_mins: u64) -> CoverageStat {
    CoverageStat {
        n: 1000,
        covered: (coverage * 1000.0) as usize,
        coverage,
        min: Some(SimDuration::from_mins(0)),
        max: Some(SimDuration::from_mins(10_000)),
        median: Some(SimDuration::from_mins(median_mins)),
    }
}

/// A linear curve over the ten Figure 6/9 checkpoints.
fn curve(start: f64, step: f64) -> Curve {
    CURVE_CHECKPOINT_HOURS
        .iter()
        .enumerate()
        .map(|(i, &h)| (h, start + step * i as f64))
        .collect()
}

// --- Figure 1 ---------------------------------------------------------------

/// (quarter, Twitter, Facebook).
type Quarter = (&'static str, usize, usize);

fn fig1_rows() -> (Vec<Quarter>, Vec<Vec<FwbKind>>) {
    let series = vec![
        ("2020Q1", 394, 198),
        ("2020Q2", 498, 242),
        ("2020Q3", 599, 326),
        ("2022Q3", 3469, 2045),
    ];
    let tops = vec![
        vec![FwbKind::Weebly, FwbKind::Webhost000, FwbKind::Blogspot],
        vec![FwbKind::Weebly, FwbKind::Webhost000],
        vec![FwbKind::Weebly, FwbKind::Webhost000, FwbKind::Blogspot],
        vec![
            FwbKind::Weebly,
            FwbKind::Webhost000,
            FwbKind::Blogspot,
            FwbKind::GoogleSites,
        ],
    ];
    (series, tops)
}

#[test]
fn fig1_shapes_hold_on_a_measured_like_series() {
    let (series, tops) = fig1_rows();
    assert_eq!(fig1_shapes(&series, &tops), [true, true, true]);
}

#[test]
fn fig1_a_falling_quarter_fails() {
    let (mut series, tops) = fig1_rows();
    series[2] = ("2020Q3", 300, 150);
    assert_eq!(fig1_shapes(&series, &tops), [false, true, true]);
}

#[test]
fn fig1_a_facebook_heavy_quarter_fails() {
    let (mut series, tops) = fig1_rows();
    series[1] = ("2020Q2", 360, 380);
    assert_eq!(fig1_shapes(&series, &tops), [true, false, true]);
}

#[test]
fn fig1_a_narrowing_service_set_fails() {
    let (series, mut tops) = fig1_rows();
    tops[3].truncate(3);
    assert_eq!(fig1_shapes(&series, &tops), [true, true, false]);
}

// --- Table 1 ----------------------------------------------------------------

fn table1_rows() -> Vec<(FwbKind, f64)> {
    vec![
        (FwbKind::Weebly, 84.3),
        (FwbKind::Webhost000, 73.9),
        (FwbKind::Blogspot, 70.0),
        (FwbKind::GoogleSites, 77.0),
        (FwbKind::Wix, 70.1),
        (FwbKind::GithubIo, 48.4),
    ]
}

#[test]
fn table1_shapes_hold_on_measured_medians() {
    assert_eq!(table1_shapes(&table1_rows()), [true, true]);
}

#[test]
fn table1_a_service_above_weebly_fails() {
    let mut rows = table1_rows();
    rows[3].1 = 85.0;
    assert_eq!(table1_shapes(&rows), [false, true]);
    // A tie is not a lead.
    rows[3].1 = 84.3;
    assert_eq!(table1_shapes(&rows), [false, true]);
}

#[test]
fn table1_a_service_below_github_io_fails() {
    let mut rows = table1_rows();
    rows[4].1 = 40.0;
    assert_eq!(table1_shapes(&rows), [true, false]);
}

// --- Table 2 ----------------------------------------------------------------

fn model(name: &'static str, accuracy: f64, fetches_per_url: f64) -> ModelRow {
    ModelRow {
        name,
        metrics: BinaryMetrics {
            accuracy,
            precision: accuracy,
            recall: accuracy,
            f1: accuracy,
        },
        fetches_per_url,
        total_secs: 0.0,
        median_ms: 0.0,
    }
}

fn table2_rows() -> Vec<ModelRow> {
    vec![
        model("VisualPhishNet", 0.71, 0.0),
        model("PhishIntention", 0.94, 1.26),
        model("URLNet", 0.77, 0.0),
        model("Base StackModel", 0.98, 0.0),
        model("FreePhish", 0.99, 0.0),
        model("Random Forest", 0.98, 0.0),
    ]
}

#[test]
fn table2_shapes_hold_on_measured_models() {
    assert_eq!(table2_shapes(&table2_rows()), [true, true, true]);
}

#[test]
fn table2_a_strong_urlnet_fails() {
    let mut rows = table2_rows();
    rows[2] = model("URLNet", 0.95, 0.0);
    assert_eq!(table2_shapes(&rows), [false, true, true]);
}

#[test]
fn table2_a_model_above_ours_fails() {
    let mut rows = table2_rows();
    rows[5] = model("Random Forest", 0.995, 0.0);
    assert_eq!(table2_shapes(&rows), [true, false, true]);
}

#[test]
fn table2_a_second_fetching_model_fails() {
    let mut rows = table2_rows();
    rows[3].fetches_per_url = 0.5;
    assert_eq!(table2_shapes(&rows), [true, true, false]);
}

// --- Table 3 ----------------------------------------------------------------

/// Full-scale Table 3: (FWB coverage, FWB median, self-hosted coverage,
/// self-hosted median) per entity, medians in minutes.
fn table3_rows() -> Vec<Table3Row> {
    let cells = [
        (0.13, 199, 0.21, 121),
        (0.15, 192, 0.35, 112),
        (0.48, 136, 0.78, 44),
        (0.28, 327, 0.53, 203),
        (0.22, 417, 0.52, 198),
        (0.27, 108, 0.78, 230),
    ];
    Entity::ALL
        .into_iter()
        .zip(cells)
        .map(|(entity, (fc, fm, sc, sm))| Table3Row {
            entity,
            fwb: stat(fc, fm),
            self_hosted: stat(sc, sm),
        })
        .collect()
}

#[test]
fn table3_shapes_hold_with_the_hosting_domain_exception() {
    let rows = table3_rows();
    assert!(rows[5].fwb.median < rows[5].self_hosted.median);
    assert_eq!(table3_shapes(&rows), [true, true, true]);
}

#[test]
fn table3_fwb_coverage_above_self_hosted_fails() {
    let mut rows = table3_rows();
    rows[0].fwb = stat(0.25, 199);
    assert_eq!(table3_shapes(&rows), [false, true, true]);
}

#[test]
fn table3_a_blocklist_faster_on_fwb_fails() {
    let mut rows = table3_rows();
    rows[1].fwb = stat(0.15, 100);
    assert_eq!(table3_shapes(&rows), [true, false, true]);
}

#[test]
fn table3_a_blocklist_above_gsb_fails() {
    let mut rows = table3_rows();
    rows[3].self_hosted = stat(0.80, 203);
    assert_eq!(table3_shapes(&rows), [true, true, false]);
}

// --- Table 4 ----------------------------------------------------------------

fn table4_rows() -> Vec<Table4Row> {
    FwbKind::all()
        .map(|fwb| {
            let domain = match fwb {
                FwbKind::Weebly | FwbKind::Webhost000 | FwbKind::Wix => 0.45,
                _ => 0.08,
            };
            let phishtank = match fwb {
                FwbKind::GoDaddySites | FwbKind::Hpage => 0.0,
                _ => 0.1,
            };
            let ecrimex = match fwb {
                FwbKind::Yolasite | FwbKind::GoDaddySites | FwbKind::GlitchMe | FwbKind::Hpage => {
                    0.0
                }
                _ => 0.3,
            };
            Table4Row {
                fwb,
                urls: 1000,
                domain: stat(domain, 100),
                platform: stat(0.2, 400),
                phishtank: stat(phishtank, 300),
                openphish: stat(0.1, 300),
                gsb: stat(0.4, 200),
                ecrimex: stat(ecrimex, 500),
            }
        })
        .collect()
}

fn row4(rows: &mut [Table4Row], fwb: FwbKind) -> &mut Table4Row {
    rows.iter_mut().find(|r| r.fwb == fwb).unwrap()
}

#[test]
fn table4_shapes_hold_on_measured_like_rows() {
    assert_eq!(table4_shapes(&table4_rows()), [true, true, true]);
}

#[test]
fn table4_a_phishtank_hpage_listing_fails() {
    let mut rows = table4_rows();
    row4(&mut rows, FwbKind::Hpage).phishtank = stat(0.001, 300);
    assert_eq!(table4_shapes(&rows), [false, true, true]);
}

#[test]
fn table4_an_ecrimex_glitch_me_listing_fails() {
    let mut rows = table4_rows();
    row4(&mut rows, FwbKind::GlitchMe).ecrimex = stat(0.01, 500);
    assert_eq!(table4_shapes(&rows), [true, false, true]);
}

#[test]
fn table4_a_responsive_sharepoint_fails() {
    let mut rows = table4_rows();
    row4(&mut rows, FwbKind::Sharepoint).domain = stat(0.50, 100);
    assert_eq!(table4_shapes(&rows), [true, true, false]);
}

// --- Figure 5 ---------------------------------------------------------------

fn fig5_rows() -> Vec<(&'static str, usize)> {
    vec![
        ("Facebook", 6475),
        ("Microsoft", 3262),
        ("Netflix", 2065),
        ("AT&T", 1504),
        ("PayPal", 1208),
    ]
}

#[test]
fn fig5_shapes_hold_on_the_measured_head() {
    assert_eq!(fig5_shapes(&fig5_rows()), [true]);
}

#[test]
fn fig5_a_reordered_head_fails() {
    let mut rows = fig5_rows();
    rows.swap(1, 2);
    assert_eq!(fig5_shapes(&rows), [false]);
    // Right names, but Netflix tied with the fourth brand.
    let mut rows = fig5_rows();
    rows[3].1 = 2065;
    assert_eq!(fig5_shapes(&rows), [false]);
}

// --- Figure 6 ---------------------------------------------------------------

fn fig6_rows() -> Vec<CurvePair> {
    let pair = |kind: BlocklistKind, fwb, sh| (kind.to_string(), fwb, sh);
    vec![
        pair(
            BlocklistKind::PhishTank,
            curve(0.05, 0.01),
            curve(0.13, 0.01),
        ),
        pair(
            BlocklistKind::OpenPhish,
            curve(0.07, 0.01),
            curve(0.23, 0.01),
        ),
        pair(BlocklistKind::Gsb, curve(0.26, 0.02), curve(0.70, 0.01)),
        pair(BlocklistKind::EcrimeX, curve(0.09, 0.02), curve(0.24, 0.03)),
    ]
}

#[test]
fn fig6_shapes_hold_on_measured_like_curves() {
    assert_eq!(fig6_shapes(&fig6_rows()), [true, true]);
}

#[test]
fn fig6_an_fwb_curve_crossing_its_self_hosted_curve_fails() {
    let mut rows = fig6_rows();
    rows[0].1[9].1 = 0.30;
    assert_eq!(fig6_shapes(&rows), [false, true]);
}

#[test]
fn fig6_a_list_above_gsb_at_one_checkpoint_fails() {
    let mut rows = fig6_rows();
    rows[3].2[4].1 = 0.75;
    assert_eq!(fig6_shapes(&rows), [true, false]);
}

// --- Figure 7 ---------------------------------------------------------------

fn cdf(fracs: [f64; 9]) -> Curve {
    FIG7_KS
        .iter()
        .zip(fracs)
        .map(|(&k, f)| (k as u64, f))
        .collect()
}

fn fig7_rows() -> Vec<CurvePair> {
    let fwb = cdf([0.01, 0.14, 0.41, 0.69, 0.95, 1.0, 1.0, 1.0, 1.0]);
    let sh = cdf([0.0, 0.0, 0.01, 0.02, 0.16, 0.63, 0.93, 1.0, 1.0]);
    Platform::ALL
        .into_iter()
        .map(|p| (p.to_string(), fwb.clone(), sh.clone()))
        .collect()
}

#[test]
fn fig7_shapes_hold_on_measured_cdfs() {
    assert_eq!(fig7_shapes(&fig7_rows()), [true]);
}

#[test]
fn fig7_a_self_hosted_median_at_the_fwb_bucket_fails() {
    let mut rows = fig7_rows();
    rows[1].2 = cdf([0.0, 0.1, 0.3, 0.69, 0.9, 1.0, 1.0, 1.0, 1.0]);
    assert_eq!(fig7_shapes(&rows), [false]);
}

// --- Figure 8 ---------------------------------------------------------------

fn days(fracs: [f64; 7]) -> Curve {
    (1..=7).zip(fracs).collect()
}

fn fig8_rows() -> Vec<CurvePair> {
    let pair = (
        "Twitter <=2".to_string(),
        days([0.62, 0.37, 0.26, 0.20, 0.17, 0.15, 0.14]),
        days([0.20, 0.03, 0.01, 0.0, 0.0, 0.0, 0.0]),
    );
    vec![pair.clone(), pair]
}

#[test]
fn fig8_shapes_hold_on_measured_panels() {
    assert_eq!(fig8_shapes(&fig8_rows()), [true]);
}

#[test]
fn fig8_a_self_hosted_day_matching_fwb_fails() {
    let mut rows = fig8_rows();
    rows[1].2[6].1 = 0.14;
    assert_eq!(fig8_shapes(&rows), [false]);
}

// --- Figure 9 ---------------------------------------------------------------

fn fig9_rows() -> Vec<CurvePair> {
    vec![
        ("Twitter".into(), curve(0.07, 0.02), curve(0.31, 0.03)),
        ("Facebook".into(), curve(0.02, 0.02), curve(0.12, 0.03)),
    ]
}

#[test]
fn fig9_shapes_hold_on_measured_like_curves() {
    assert!(fwb_below_self_hosted(&fig9_rows()));
}

#[test]
fn fig9_a_slower_self_hosted_removal_fails() {
    let mut rows = fig9_rows();
    rows[1].2[0].1 = 0.01;
    assert!(!fwb_below_self_hosted(&rows));
}

// --- Section 5.5 ------------------------------------------------------------

fn evasion_rows() -> Vec<EvasionRow> {
    let row = |fwb, urls, two_step, iframe, drive_by| EvasionRow {
        fwb,
        urls,
        two_step,
        iframe,
        drive_by,
    };
    vec![
        row(FwbKind::GoogleSites, 2247, 413, 435, 623),
        row(FwbKind::Blogspot, 3156, 326, 448, 661),
        row(FwbKind::Sharepoint, 2181, 215, 0, 1165),
        row(FwbKind::GoogleForms, 1397, 198, 0, 0),
    ]
}

#[test]
fn evasive_shapes_hold_on_the_measured_census() {
    assert_eq!(
        evasive_shapes(&evasion_rows(), 1358, 769),
        [true, true, true]
    );
}

#[test]
fn evasive_a_drive_by_heavy_blogspot_fails() {
    let mut rows = evasion_rows();
    rows[1].drive_by = 1200;
    assert_eq!(evasive_shapes(&rows, 1358, 769), [false, true, true]);
}

#[test]
fn evasive_iframes_mostly_elsewhere_fails() {
    assert_eq!(
        evasive_shapes(&evasion_rows(), 1800, 769),
        [true, false, true]
    );
}

#[test]
fn evasive_sharepoint_spoofing_a_minority_fails() {
    assert_eq!(
        evasive_shapes(&evasion_rows(), 1358, 500),
        [true, true, false]
    );
}

// --- Section 3 --------------------------------------------------------------

fn characterization() -> Characterization {
    Characterization {
        n: 31_405,
        on_com_tld: 0.91,
        median_domain_age_days: Some(6976),
        noindex_rate: 0.443,
        indexed_rate: 0.04,
        ct_visible_rate: 0.0,
        banner_obfuscation_rate: 0.522,
    }
}

fn life(survival_rate: f64) -> LifetimeStats {
    LifetimeStats {
        n: 1000,
        survived: (survival_rate * 1000.0) as usize,
        survival_rate,
        median_uptime: Some(SimDuration::from_mins(103)),
    }
}

#[test]
fn characterize_shapes_hold_on_the_measured_population() {
    let c = characterization();
    assert_eq!(
        characterize_shapes(&c, Some(74), &life(0.731), &life(0.224)),
        [true, true, true]
    );
}

#[test]
fn characterize_a_ct_visible_site_fails() {
    let c = Characterization {
        ct_visible_rate: 0.001,
        ..characterization()
    };
    assert_eq!(
        characterize_shapes(&c, Some(74), &life(0.731), &life(0.224)),
        [false, true, true]
    );
}

#[test]
fn characterize_older_self_hosted_domains_fail() {
    let c = characterization();
    assert_eq!(
        characterize_shapes(&c, Some(7000), &life(0.731), &life(0.224)),
        [true, false, true]
    );
}

#[test]
fn characterize_shorter_lived_fwb_attacks_fail() {
    let c = characterization();
    assert_eq!(
        characterize_shapes(&c, Some(74), &life(0.2), &life(0.224)),
        [true, true, false]
    );
}

fn discovery_rows() -> Vec<DiscoveryReport> {
    let row = |channel, fwb_recall, self_hosted_recall| DiscoveryReport {
        channel,
        fwb_recall,
        self_hosted_recall,
    };
    vec![
        row("CT-log watcher", 0.0, 1.0),
        row("search-index miner", 0.041, 0.302),
        row("social-stream watcher", 0.99994, 0.99968),
    ]
}

#[test]
fn discovery_shapes_hold_on_measured_recall() {
    assert_eq!(discovery_shapes(&discovery_rows()), [true, true, true]);
}

#[test]
fn discovery_ct_log_fwb_recall_fails() {
    let mut rows = discovery_rows();
    rows[0].fwb_recall = 0.01;
    assert_eq!(discovery_shapes(&rows), [false, true, true]);
}

#[test]
fn discovery_search_index_favouring_fwb_fails() {
    let mut rows = discovery_rows();
    rows[1].fwb_recall = 0.4;
    assert_eq!(discovery_shapes(&rows), [true, false, true]);
}

#[test]
fn discovery_a_social_stream_no_better_than_the_search_index_fails() {
    let mut rows = discovery_rows();
    rows[2].fwb_recall = rows[1].fwb_recall;
    assert_eq!(discovery_shapes(&rows), [true, true, false]);
}

// --- Ablations --------------------------------------------------------------

fn ablation_rows() -> (Vec<FeatureVariant>, Vec<TakedownWorld>) {
    let features = vec![
        ("augmented", 0.977, 0.904),
        ("without noindex", 0.964, 0.866),
        ("without banner-obfuscation", 0.974, 0.910),
        ("without both", 0.972, 0.915),
    ];
    let takedown = vec![
        ("as measured", 0.181, Some(SimDuration::from_mins(241))),
        ("uniform", 0.497, Some(SimDuration::from_mins(98))),
    ];
    (features, takedown)
}

#[test]
fn ablation_shapes_hold_on_measured_rows() {
    let (features, takedown) = ablation_rows();
    assert_eq!(ablation_shapes(&features, &takedown), [true, true]);
}

#[test]
fn ablation_noindex_helping_the_evasive_subset_when_dropped_fails() {
    let (mut features, takedown) = ablation_rows();
    features[1].2 = 0.91;
    assert_eq!(ablation_shapes(&features, &takedown), [false, true]);
}

#[test]
fn ablation_a_slower_counterfactual_fails() {
    let (features, mut takedown) = ablation_rows();
    takedown[1].2 = Some(SimDuration::from_mins(300));
    assert_eq!(ablation_shapes(&features, &takedown), [true, false]);
}
