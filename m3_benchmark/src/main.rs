//! `m3_benchmark`: the repository's one benchmark. See `README.md` beside
//! `Cargo.toml` for the metric and workload definitions.
//!
//! ```text
//! m3_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! m3_benchmark [--seed <n>] [--seconds <s>]      # every workload, both ways
//! ```

mod adapter;
mod estimator;
mod harness;
mod layered;
mod report;
mod serve;
mod session;
mod spans;
#[cfg(test)]
mod tests;

use estimator::Params;
use harness::RunCtx;
use report::Outcome;
use std::process::{Command, ExitCode};

/// The estimator workloads; `session_deltas` and `serve_mix` have modules of
/// their own. Why each exists is recorded in `README.md` and `BENCHMARK.json`.
const ESTIMATOR_WORKLOADS: &[Params] = &[
    Params {
        name: "cold_k100",
        n_flows: 4_000,
        max_load: 0.5,
        k: adapter::K100,
        warm_seeds: None,
    },
    Params {
        name: "flowsim_40k",
        n_flows: 40_000,
        max_load: 0.8,
        k: adapter::K100,
        warm_seeds: None,
    },
    Params {
        name: "fwd_k500",
        n_flows: 1_000,
        max_load: 0.3,
        k: adapter::K500,
        warm_seeds: None,
    },
    Params {
        name: "warm_sweep",
        n_flows: 4_000,
        max_load: 0.5,
        k: adapter::K100,
        warm_seeds: Some(4),
    },
];

pub fn workload_names() -> Vec<&'static str> {
    ESTIMATOR_WORKLOADS
        .iter()
        .map(|p| p.name)
        .chain([session::NAME, serve::NAME])
        .collect()
}

pub fn run_workload(name: &str, ctx: &RunCtx) -> Result<Outcome, String> {
    if let Some(p) = ESTIMATOR_WORKLOADS.iter().find(|p| p.name == name) {
        return p.run(ctx);
    }
    match name {
        session::NAME => session::run(ctx),
        serve::NAME => serve::run(ctx),
        _ => Err(format!(
            "unknown workload {name:?}; known: {}",
            workload_names().join(", ")
        )),
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("a number in (0, 60]"));
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// `nproc`, build profile, git revision and seed, printed with every run.
fn fingerprint(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // A checkout that is not a git repository has no revision to report.
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_else(|_| r.to_string()),
        None => head,
    };
    let rev = rev.trim();
    let rev = if rev.is_empty() { "none" } else { rev };
    format!("machine: nproc={nproc} profile={profile} git={rev} seed={seed}")
}

/// Run one workload in this process and print the contract's last line.
fn run_one(name: &str, ctx: &RunCtx) -> ExitCode {
    println!("{}", fingerprint(ctx.seed));
    match run_workload(name, ctx) {
        Ok(out) => {
            print!("{}", out.human(name, ctx.traced));
            println!("{}", out.json(ctx.traced));
            ExitCode::from(out.exit_code())
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run every workload, untraced then traced, each in a child process of
/// this binary so that `peak_rss_mb` is per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = Vec::new();
    for name in workload_names() {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            if !matches!(status, Ok(s) if s.success()) {
                failed.push(format!("{name} --trace {trace}: {status:?}"));
            }
        }
    }
    if failed.is_empty() {
        println!("all workloads correct");
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: {}", failed.join("; "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("m3_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(
            name,
            &RunCtx {
                seed: args.seed,
                seconds: args.seconds,
                traced: args.traced,
            },
        ),
        None => run_all(&args),
    }
}
