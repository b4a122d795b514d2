use freephish_benchmark::inputs::Sizing;
use freephish_benchmark::report::Options;
use freephish_benchmark::{host, spec};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: freephish-benchmark --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--smoke]
workloads: hit_baked line_mixed miss_stream campaign_journaled";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 24.0;
    let mut trace = false;
    let mut smoke = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], not {seconds}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
        sizing: if smoke { Sizing::SMOKE } else { Sizing::FULL },
        out_dir: target.join("benchmark"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = host::refusal() {
        eprintln!("refusing to run: {why}");
        return ExitCode::from(2);
    }
    println!("host {}", host::fingerprint());
    println!(
        "run workload={} seed={} seconds={} trace={} smoke={}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8, opts.smoke
    );
    let report = match freephish_benchmark::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{} failed: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    let specs = if opts.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    report.print_lines(specs);
    match report.result(specs, opts.trace) {
        Ok(result) => {
            println!("{result}");
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "{} of {} checked operations failed",
                    report.failed, report.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
