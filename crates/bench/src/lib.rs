//! The experiment harness behind the `repro` binary, which regenerates
//! every table and figure of the paper from one measurement (DESIGN.md §4
//! indexes them). Each of the [`sections`] prints its paper-shaped table and
//! checks the paper's shapes against the measured rows; `repro` writes the
//! deterministic record to `target/experiments/repro.json`, and `REPRO.json`
//! at the repository root is that record at `FREEPHISH_SCALE=0.1`.
//! `FREEPHISH_SCALE` (default 1.0, the paper's full 31,405 + 31,405 URLs)
//! sets the workload.

pub mod harness;
pub mod render;
pub mod sections;
