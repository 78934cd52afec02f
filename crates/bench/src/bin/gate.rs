//! Run the speed gates.
//!
//! Usage: `gate <name|all>` (no argument lists the gates). Each gate times
//! its arms in alternating pairs, writes its `BENCH_<name>.json` record(s)
//! at the workspace root, and checks its bound on the median per-pair
//! ratio. Exit codes: 0 = every gate held, 1 = a gate failed, 2 = usage
//! error.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use m3_bench::gates::{plan, GATES};
use std::process::ExitCode;

fn usage() -> ExitCode {
    let names: Vec<&str> = GATES.iter().map(|(name, _)| *name).collect();
    eprintln!("usage: gate <name|all>\ngates: {}", names.join(" "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [target] = args.as_slice() else {
        return usage();
    };
    let Ok(gates) = plan(target) else {
        return usage();
    };
    let mut failed = Vec::new();
    for (name, gate) in gates {
        eprintln!("=== {name} ===");
        if let Err(e) = gate() {
            eprintln!("gate {name}: {e}");
            failed.push(name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("gate: {} failed: {}", failed.len(), failed.join(" "));
        ExitCode::FAILURE
    }
}
