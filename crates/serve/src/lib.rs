//! # freephish-serve
//!
//! The event-driven verdict-serving subsystem: what the paper's FreePhish
//! browser extension talks to, rebuilt for browser-fleet scale.
//!
//! At millions of users, verdict serving is a high-fanout, read-mostly
//! lookup workload, and the seed's thread-per-connection server pays a
//! thread wakeup plus a syscall round-trip per `CHECK`. This crate
//! replaces that with the classic serving skeleton — the same one an
//! inference server needs:
//!
//! * [`server`] — [`EventedServer`]: N fixed worker threads running
//!   nonblocking `poll(2)` readiness loops over connection state
//!   machines, with microbatched request execution, bounded write
//!   buffers, a global in-flight budget, and explicit `BUSY` load
//!   shedding instead of unbounded queues.
//! * [`proto`] — both wire protocols on one port: the seed's line
//!   protocol and a length-prefixed binary protocol whose `CHECKN` frame
//!   carries up to 256 URLs ([`proto::MAX_BATCH`]) per round trip.
//! * [`index`] — [`ShardedIndex`]: the RCU-style generation-swapped read
//!   path. Readers snapshot one `Arc` per batch; a publish copies only the
//!   touched shards' small heads and swaps that `Arc`, so readers wait for
//!   no more than the swap; [`IndexPublisher`] tails a `freephish-store`
//!   journal and publishes new generations.
//! * [`overlay`] — [`OverlayIndex`]: the two-level read path for
//!   million-entry nodes. An immutable mmap baseline (`freephish-mapidx`)
//!   under the live delta; journaled entries shadow baked ones
//!   bit-identically, and a background re-bake swaps the baseline without
//!   pausing reads.
//! * [`verdict`] — [`Verdict`] and the [`UrlChecker`] trait (moved down
//!   from `freephish-core`, which re-exports them), now with a batched
//!   [`UrlChecker::check_many`] entry point.
//! * [`ops`] — [`OpsServer`]: the scrape plane on its own port.
//!   `/metrics` (Prometheus text), `/varz` (JSON), `/healthz`, `/readyz`,
//!   `/events`, and `/traces/slow`, fed by engine-supplied [`OpsConfig`]
//!   hooks so both serving engines mount the identical surface.
//!
//! Every decision the admission-control path takes is observable through
//! `freephish-obs` as `serve_*` metrics: queue depth, batch sizes, shed
//! counts, and service-time quantiles.

pub mod index;
pub mod ops;
pub mod overlay;
pub mod proto;
pub mod server;
pub mod sys;
pub mod verdict;

pub use index::{IndexPublisher, IndexSnapshot, PayloadDecoder, ShardedIndex};
pub use ops::{http_get, OpsConfig, OpsServer, Readiness};
pub use overlay::OverlayIndex;
pub use proto::{
    decode_bin_reply, decode_bin_request, decode_request, decode_verdict, encode_bin_reply,
    encode_bin_request, encode_verdict, BinReply, BinRequest, Request, HANDSHAKE_LINE,
    HANDSHAKE_OK, MAX_BATCH,
};
pub use server::{EventedServer, ServeConfig};
pub use verdict::{UrlChecker, Verdict};
