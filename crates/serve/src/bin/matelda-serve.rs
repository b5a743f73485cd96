//! `matelda-serve` — the detection daemon.
//!
//! ```text
//! matelda-serve --state-dir <dir> [--addr 127.0.0.1:7717] [--threads N]
//!               [--max-active N] [--max-queued N] [--trace <dir>]
//!               [--state-budget-bytes N] [--durability degrade|strict]
//! ```
//!
//! Prints `listening on <addr>` once the socket is live (parse this for
//! the OS-assigned port with `--addr 127.0.0.1:0`), serves until a
//! client sends a shutdown request, then drains and exits 0. Exit
//! codes: 0 clean shutdown, 1 runtime failure (bind/state-dir), 2 usage.

use matelda_exec::FaultPoints;
use matelda_serve::{serve, ServeOptions};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected positional argument {arg:?}"));
        };
        let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
        match value {
            Some(v) => {
                flags.insert(name.to_string(), v.clone());
                i += 2;
            }
            None => return Err(format!("--{name} requires a value")),
        }
    }
    Ok(flags)
}

fn run() -> Result<(), (u8, String)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: matelda-serve --state-dir <dir> [--addr 127.0.0.1:7717] [--threads N] \
             [--max-active N] [--max-queued N] [--trace <dir>] \
             [--state-budget-bytes N] [--durability degrade|strict]"
        );
        return Ok(());
    }
    let flags = parse_flags(&args).map_err(|e| (2, e))?;
    for key in flags.keys() {
        if ![
            "state-dir",
            "addr",
            "threads",
            "max-active",
            "max-queued",
            "trace",
            "state-budget-bytes",
            "durability",
        ]
        .contains(&key.as_str())
        {
            return Err((2, format!("unknown flag --{key}")));
        }
    }
    let state_dir = flags
        .get("state-dir")
        .map(PathBuf::from)
        .ok_or((2, "--state-dir <dir> is required".to_string()))?;
    let parse_usize = |name: &str, default: usize| -> Result<usize, (u8, String)> {
        match flags.get(name) {
            Some(v) => {
                v.parse().map_err(|_| (2, format!("--{name} expects an integer, got {v:?}")))
            }
            None => Ok(default),
        }
    };
    let state_budget_bytes: u64 = match flags.get("state-budget-bytes") {
        Some(v) => v
            .parse()
            .map_err(|_| (2, format!("--state-budget-bytes expects an integer, got {v:?}")))?,
        None => 0,
    };
    let strict_durability = match flags.get("durability").map(String::as_str) {
        None | Some("degrade") => false,
        Some("strict") => true,
        Some(v) => return Err((2, format!("--durability expects degrade|strict, got {v:?}"))),
    };
    let opts = ServeOptions {
        addr: flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7717".to_string()),
        state_dir,
        threads: parse_usize("threads", 0)?,
        max_active: parse_usize("max-active", 2)?,
        max_queued: parse_usize("max-queued", 8)?,
        obs: matelda_obs::Obs::enabled(),
        hold: None,
        state_budget_bytes,
        strict_durability,
        // Test fault plan from the environment, exactly like the CLI:
        // chaos suites inject stage panics into daemon-side runs this way.
        faults: FaultPoints::from_env().map_err(|e| (2, e))?,
    };
    let trace_dir = flags.get("trace").map(PathBuf::from);
    let obs = opts.obs.clone();
    let handle = serve(opts).map_err(|e| (1, format!("cannot start daemon: {e}")))?;
    // Explicit flush: stdout is block-buffered when piped, and test
    // harnesses wait on this exact line to learn the bound port.
    println!("listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.join();
    // Export the daemon's telemetry on the way out, best-effort: the
    // trace must exist even after a drained-but-eventful lifetime.
    if let Some(dir) = &trace_dir {
        match obs.write_dir(dir) {
            Ok(()) => println!("trace written to {}", dir.display()),
            Err(e) => eprintln!("warning: writing trace to {}: {e}", dir.display()),
        }
    }
    println!("shutdown complete");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("matelda-serve: {msg}");
            ExitCode::from(code)
        }
    }
}
