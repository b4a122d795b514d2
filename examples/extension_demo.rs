//! Extension demo: the FreePhish verdict service and navigation guard —
//! the networked analogue of the paper's Chromium extension (Figure 13).
//!
//! A real TCP server is started on a loopback port; the "browser" side
//! checks each navigation against it and renders the block interstitial
//! for known FWB phishing URLs.
//!
//! ```sh
//! cargo run --release --example extension_demo
//! ```

use freephish::core::extension::{Navigation, NavigationGuard, VerdictClient};
use freephish::serve::{EventedServer, ShardedIndex};
use std::sync::Arc;

fn main() -> std::io::Result<()> {
    println!("== FreePhish web-extension demo ==\n");

    // The backend: a verdict service fed by the pipeline's detections.
    // (Here: three URLs the monitor flagged earlier today.)
    let checker = Arc::new(ShardedIndex::with_default_shards());
    checker.publish([
        ("https://secure-paypal-verify.weebly.com/".to_string(), 0.98),
        (
            "https://sites.google.com/view/xkljzhqpwrtn".to_string(),
            0.91,
        ),
        ("https://netflix4481.000webhostapp.com/".to_string(), 0.95),
    ]);
    let mut server = EventedServer::start(checker.clone())?;
    println!("[server] verdict service listening on {}\n", server.addr());

    // The browser side: a navigation guard wired to the service.
    let guard = NavigationGuard::new(server.addr());
    let navigations = [
        "https://secure-paypal-verify.weebly.com/",
        "https://downtown-bakery.wixsite.com/",
        "https://sites.google.com/view/xkljzhqpwrtn",
        "https://the-garden-corner.weebly.com/",
    ];
    for url in navigations {
        match guard.navigate(url) {
            Navigation::Blocked(html) => {
                println!("[browser] BLOCKED  {url}");
                let headline = html
                    .split("<h1>")
                    .nth(1)
                    .and_then(|s| s.split("</h1>").next())
                    .unwrap_or("");
                println!("           interstitial: \"{headline}\"");
            }
            Navigation::Allowed => println!("[browser] allowed  {url}"),
        }
    }

    // The feed updates as the pipeline finds new attacks.
    println!("\n[server] pipeline pushes a fresh detection ...");
    checker.publish([("https://the-garden-corner.weebly.com/".to_string(), 0.88)]);
    // The guard caches verdicts per URL, exactly like the real extension —
    // a fresh guard (new browsing session) sees the update.
    let fresh_guard = NavigationGuard::new(server.addr());
    match fresh_guard.navigate("https://the-garden-corner.weebly.com/") {
        Navigation::Blocked(_) => {
            println!("[browser] BLOCKED  https://the-garden-corner.weebly.com/ (new session)")
        }
        Navigation::Allowed => {
            println!("[browser] allowed  https://the-garden-corner.weebly.com/ (new session)")
        }
    }

    // Scrape the service's own metrics over the wire: any client can send
    // `STATS\n` and get back one line of JSON.
    let scraper = VerdictClient::new(server.addr());
    let stats = scraper.stats()?;
    println!("\n[metrics] STATS scrape of the verdict service:");
    let counters = &stats["counters"];
    for key in [
        "serve_connections_accepted_total",
        "serve_requests_total{kind=\"check\"}",
        "serve_verdicts_total{kind=\"phishing\"}",
        "serve_verdicts_total{kind=\"safe\"}",
    ] {
        println!("  {:<45} {}", key, counters[key]);
    }
    println!(
        "  {:<45} {}",
        "serve_service_seconds p99 (s)", stats["histograms"]["serve_service_seconds"]["p99"]
    );

    server.shutdown();
    println!("\n[server] shut down cleanly.");
    Ok(())
}
