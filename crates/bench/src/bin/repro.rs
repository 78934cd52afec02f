//! Reproduce the paper's tables and figures.
//!
//! Usage: `repro <figure|train|all> [--small]` (no argument lists the
//! figures). `train` trains the m3 and no-context models; a figure or
//! `all` runs on them, training them first when their checkpoints are
//! missing. The full scale keeps models in `assets/` and writes `results/`;
//! `--small` runs at toy scale and writes only under `target/repro-small/`.
//! Exit codes: 0 = every figure ran and its shape claims held, 1 = a
//! figure failed, 2 = usage error.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use m3_bench::figures::{plan, FIGURES};
use m3_bench::{Repro, Scale};
use std::process::ExitCode;

fn usage() -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: repro <figure|train|all> [--small]\nfigures: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let targets: Vec<&String> = args.iter().filter(|a| *a != "--small").collect();
    let [target] = targets.as_slice() else {
        return usage();
    };
    let r = Repro::new(if small { Scale::small() } else { Scale::full() });
    let mut failed = Vec::new();
    if *target == "train" {
        if let Err(e) = r.train() {
            eprintln!("repro train: {e}");
            failed.push("train");
        }
    } else {
        let Ok(figures) = plan(target) else {
            return usage();
        };
        for (name, figure) in figures {
            eprintln!("=== {name} ===");
            if let Err(e) = r.run(name, figure) {
                eprintln!("repro {name}: {e}");
                failed.push(name);
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("repro: {} failed: {}", failed.len(), failed.join(" "));
        ExitCode::FAILURE
    }
}
