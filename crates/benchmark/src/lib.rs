//! The repository benchmark: one named workload from one seed, measured from
//! outside the program, every output checked, every metric printed by name
//! with its unit. See `README.md` beside this crate for the workloads, the
//! metrics and how to read a trace.

pub mod host;
pub mod inputs;
pub mod layers;
pub mod loadgen;
pub mod report;
pub mod seams;
pub mod serving;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workloads;

use report::{Options, Report};
use std::io;

/// Runs the workload `opts` names, traced or not.
pub fn run(opts: &Options) -> io::Result<Report> {
    use serving::{run_traced, run_untraced};
    use workloads::{
        campaign, hit_baked::HitBaked, line_mixed::LineMixed, miss_stream::MissStream,
    };
    let report = match (opts.workload.as_str(), opts.trace) {
        ("hit_baked", false) => run_untraced::<HitBaked>(opts),
        ("hit_baked", true) => run_traced::<HitBaked>(opts),
        ("line_mixed", false) => run_untraced::<LineMixed>(opts),
        ("line_mixed", true) => run_traced::<LineMixed>(opts),
        ("miss_stream", false) => run_untraced::<MissStream>(opts),
        ("miss_stream", true) => run_traced::<MissStream>(opts),
        ("campaign_journaled", false) => campaign::run_untraced(opts),
        ("campaign_journaled", true) => campaign::run_traced(opts),
        (other, _) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown workload {other:?}"),
        )),
    }?;
    // Stores, baked indexes and spill runs go once the run succeeded; a
    // failed run leaves them to be looked at.
    std::fs::remove_dir_all(opts.scratch_dir())?;
    Ok(report)
}
