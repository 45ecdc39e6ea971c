//! `perfbench` — the repository's benchmark: end-to-end metrics of the
//! solver as its users reach it (in-process `SolverService`, and the
//! `repliflow-serve` daemon over loopback), and per-layer metrics from a
//! separate traced run. See `perfbench/README.md` for the workloads and
//! every metric's definition.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-solve|mixed-daemon --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and the metrics.
//! The exit code is non-zero when any answer is wrong or the run could
//! not measure.

mod calib;
mod check;
mod cold;
mod daemon;
mod gen;
mod metrics;
mod openloop;
mod serving;
mod stats;
mod trace;

use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Command-line options of a measuring run.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload cold-solve|mixed-daemon \
         --seed N --seconds S --trace 0|1\n       perfbench serve [--cache-capacity N]"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Opts> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = it.next()?;
        match arg.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().ok()?,
            "--seconds" => opts.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(opts)
}

/// Writes a run's spans to `.bench_out/<workload>.spans.jsonl`.
pub fn write_spans(tracer: &trace::Tracer, workload: &str) {
    let path = std::path::Path::new(".bench_out").join(format!("{workload}.spans.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return daemon::serve_main(&args[1..]);
    }
    let Some(opts) = parse(&args) else {
        return usage();
    };
    // The golden instances and snapshots live in the checkout.
    if !std::path::Path::new("examples/instances").is_dir() {
        eprintln!("error: run from the repository root (examples/instances not found)");
        return ExitCode::FAILURE;
    }
    let out = match opts.workload.as_str() {
        "cold-solve" => cold::run(&opts),
        "mixed-daemon" => serving::mixed(&opts),
        _ => return usage(),
    };
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (line, missing) = out.result_line(opts.trace);
    if !missing.is_empty() {
        eprintln!("error: no measurement for {missing:?}");
        return ExitCode::FAILURE;
    }
    println!("{line}");
    if out.wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {} wrong answers or failed checks", out.wrong.len());
        ExitCode::FAILURE
    }
}
