//! Distributed verdict cluster: WAL segment replication from a
//! primary to follower serve nodes, plus a consistent-hash router
//! front-end.
//!
//! The cluster is built from three independently testable layers:
//!
//! - [`wire`] — the replication frame codec. A length-prefixed binary
//!   protocol (magic `0xFC`) carrying a follower's resume cursor
//!   upstream and bootstrap resets, segment boundaries, and CRC-framed
//!   WAL records downstream.
//! - [`source`] / [`replica`] — the primary serves its live store
//!   directory to any number of followers; each follower mirrors the
//!   segment files byte-for-byte into its own directory through a
//!   `Store` it holds open, whose recovery at start (truncate the torn
//!   tail, drop anything after it) and position are its durable cursor:
//!   it resumes from there without re-shipping completed segments. Both
//!   sides touch the directory only through `freephish-store`: a session
//!   reads with a `TailFollower`, a follower writes with a `Store`.
//! - [`ring`] / [`router`] — a consistent-hash ring with virtual
//!   nodes places every URL on a backend deterministically; the router
//!   scatters `CHECKN` batches shard-by-shard, gathers replies in
//!   order, health-checks backends against `/readyz`, and fails over
//!   along the ring when a node is down or shedding.
//!
//! Durability contract: a follower serves whatever *valid prefix* of
//! the primary's history it has applied. Records are CRC-verified
//! before they touch disk and offsets are continuity-checked against
//! the primary's framing, so a replica directory is never torn in a
//! way local recovery can't repair — the worst case after a crash or
//! kill is staleness, which [`replica::Replica::caught_up`] exposes
//! and the `cluster_replication_lag_*` gauges quantify.

pub mod replica;
pub mod ring;
pub mod router;
pub mod source;
pub mod wire;

pub use replica::{Replica, ReplicaConfig};
pub use ring::HashRing;
pub use router::{Router, RouterClient, RouterConfig};
pub use source::{ReplicationSource, SourceConfig};
pub use wire::{ReplCursor, ReplFrame};
