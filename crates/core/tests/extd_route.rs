//! `freephish-extd route` end to end: two `serve --blocklist` daemons
//! behind the router, which serves through the same engine they do — so
//! the client's `check` subcommand gets verdicts through it, and its ops
//! plane carries both the router's and the engine's series.

mod common;

use common::{counter, poll_until, Daemon};
use freephish_serve::http_get;
use freephish_store::testutil::TempDir;
use std::net::SocketAddr;
use std::process::Command;

const LISTED: &str = "https://listed-login.weebly.com/";
const UNLISTED: &str = "https://bakery-menu.weebly.com/";

/// `freephish-extd check <addr> <url>`'s exit code.
fn check_exit_code(addr: SocketAddr, url: &str) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_freephish-extd"))
        .args(["check", &addr.to_string(), url])
        .output()
        .expect("run freephish-extd check")
        .status
        .code()
        .expect("check exited normally")
}

#[test]
fn route_serves_verdicts_readiness_and_both_metric_families() {
    let dir = TempDir::new("extd-route");
    let blocklist = dir.path().join("blocklist.txt");
    std::fs::write(&blocklist, format!("{LISTED} 0.97\n")).expect("write blocklist");
    let blocklist = blocklist.to_str().expect("utf-8 temp path");
    let backends: Vec<Daemon> = (0..2)
        .map(|_| {
            Daemon::spawn(&[
                "serve",
                "--port",
                "0",
                "--ops-port",
                "0",
                "--blocklist",
                blocklist,
            ])
        })
        .collect();
    let list = |addr: fn(&Daemon) -> SocketAddr| {
        backends
            .iter()
            .map(|b| addr(b).to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let router = Daemon::spawn(&[
        "route",
        "--port",
        "0",
        "--backends",
        &list(|b| b.serve),
        "--backend-ops",
        &list(|b| b.ops),
        "--ops-port",
        "0",
    ]);

    let readyz = poll_until("router /readyz 200", || {
        match http_get(router.ops, "/readyz") {
            Ok((200, body)) => Some(body),
            _ => None,
        }
    });
    let readyz: serde_json::Value = serde_json::from_str(&readyz).expect("/readyz is JSON");
    assert_eq!(
        readyz["conditions"]["any_backend_healthy"], true,
        "{readyz:?}"
    );

    assert_eq!(check_exit_code(router.serve, LISTED), 2, "listed URL");
    assert_eq!(check_exit_code(router.serve, UNLISTED), 0, "unlisted URL");

    let (status, metrics) = http_get(router.ops, "/metrics").expect("scrape router");
    assert_eq!(status, 200);
    for name in [
        "cluster_router_urls_routed_total",
        "serve_urls_checked_total",
    ] {
        assert_eq!(counter(&metrics, name), Some(2), "{name} in:\n{metrics}");
    }
}
