//! # freephish-store
//!
//! A crash-recoverable write-ahead log, the durability layer under
//! resumable pipeline runs and the live-updatable verdict service.
//!
//! The measurement the paper describes is longitudinal — FreePhish-style
//! monitoring runs for months, and losing weeks of observations to one
//! crash is not acceptable. This crate provides the minimal persistence
//! contract the rest of the workspace builds on:
//!
//! * **Segmented WAL** ([`segment`]): append-only `wal-<index>.log` files
//!   of length-prefixed, CRC32-checksummed records. A store directory is
//!   its segments and nothing else.
//! * **Recovery** ([`Store::open`]): replay every segment, truncating at
//!   the first defect — a bad frame, a zeroed region, or a missing
//!   segment index. Corruption is *truncated*, never propagated: the
//!   recovered state is always a valid prefix of what was appended (the
//!   crash model is tail damage — a torn final write — plus arbitrary bit
//!   rot, which the checksums catch).
//! * **Tailing** ([`TailFollower`]): read-only incremental consumption of
//!   a directory another process is writing, used by the verdict service
//!   to hot-reload as the pipeline appends verdicts and by replication to
//!   ship a primary's WAL.
//!
//! This crate is the only reader and writer of the directory format:
//! other crates list, tail and check frames through it, and write only
//! through a [`Store`] (a replica included), never by hand.
//!
//! The crate is deliberately std-only — no dependencies, not even on the
//! rest of the workspace — so the durability layer stays small enough to
//! audit and test exhaustively (the CRC32 lives in [`crc32`](mod@crc32)). Its
//! truncation and bit-flip properties are an integration suite on
//! `freephish-simclock`'s property runner, the crate's only dev-dependency.
//!
//! Typed record encoding for pipeline events lives with the consumers
//! (`freephish-core`); this crate moves opaque byte payloads and offers
//! the [`codec`] helpers they build on.

pub mod codec;
pub mod crc32;
pub mod segment;
pub mod store;
pub mod tail;
#[doc(hidden)]
pub mod testutil;

pub use codec::{DecodeError, PayloadReader, PayloadWriter};
pub use crc32::{crc32, crc32_update};
pub use segment::Torn;
pub use store::{list_segments, RecordPos, Recovered, Store, StoreObserver, StoreOptions};
pub use tail::{TailBatch, TailCursor, TailFollower, TailStart};
