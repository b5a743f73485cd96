//! The repository benchmark: three workloads through the public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <large-inmem|large-ooc|wide-serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run prints the workload's end-to-end metrics; with
//! `--trace 1` it prints the per-layer metrics of a separate traced run
//! (see `layers.rs`). The last line of standard output is one JSON
//! object. The exit code is non-zero when any operation or correctness
//! check failed. Working files live under `.perfbench_work/` in the
//! working directory and are removed at exit; span traces are written
//! to `.perfbench_out/`.

mod calib;
mod layers;
mod measure;
mod mix;
mod report;
mod setup;
mod stats;
mod trace;

use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LargeInmem,
    LargeOoc,
    WideServe,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::LargeInmem, Workload::LargeOoc, Workload::WideServe];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LargeInmem => "large-inmem",
            Workload::LargeOoc => "large-ooc",
            Workload::WideServe => "wide-serve",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = setup::WorkDir::create(args.workload.name()).and_then(|work| {
        if args.trace {
            layers::run(&args, &work.0)
        } else if args.workload == Workload::WideServe {
            measure::wide_serve(&args, &work.0)
        } else {
            measure::large(&args, &work.0)
        }
    });
    match outcome {
        Ok(report) => {
            print!("{}", report.human());
            println!("{}", report.json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
