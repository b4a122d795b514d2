//! Discrete-event simulation kernel for the FreePhish reproduction.
//!
//! The original study measured a live ecosystem (social networks, blocklists,
//! hosting providers) over six months of wall-clock time. This crate provides
//! the deterministic substrate that lets the same measurement pipeline run in
//! seconds: a simulated clock ([`SimTime`]), an ordered event queue
//! ([`EventQueue`]), a small self-contained PRNG ([`Rng64`]) with the
//! distributions the behaviour models need, and summary-statistics helpers
//! ([`stats`]) used by the analysis module to compute coverage and response
//! times. [`prop`] is the workspace's property-test runner, built on the
//! same PRNG, and [`hash`] holds the workspace's one FNV-1a.
//!
//! Design goals follow the smoltcp school: no heap tricks, no macro magic,
//! fully deterministic given a seed, and extensively documented.

pub mod hash;
pub mod prop;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use hash::{fnv1a, fnv1a_from, fnv_shaped, FNV1A_OFFSET};
pub use queue::EventQueue;
pub use rng::{Rng64, Zipf};
pub use time::{SimDuration, SimTime};
