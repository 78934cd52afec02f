//! The benchmark's consistency test: every workload run in-process for a
//! fraction of a second, checked against `BENCHMARK.json`. Run it with
//! `cargo test --release --manifest-path m3_benchmark/Cargo.toml` (an
//! unoptimized build takes minutes on `flowsim_40k`).

use crate::harness::RunCtx;
use crate::report::{END_TO_END, PER_LAYER};
use crate::{adapter, run_workload, workload_names};
use serde_json::Value;

const SHORT: f64 = 0.3;

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

/// The `(name, unit)` pairs of one of `BENCHMARK.json`'s lists.
fn listed(spec: &Value, key: &str, field: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = spec.as_object().and_then(|o| o.get(key)) else {
        panic!("BENCHMARK.json has no list {key:?}");
    };
    items
        .iter()
        .map(|item| {
            let get = |f: &str| {
                item.as_object()
                    .and_then(|o| o.get(f))
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{key} entry without {f:?}"))
                    .to_string()
            };
            (get("name"), get(field))
        })
        .collect()
}

fn declared(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_names_what_the_binary_emits() {
    let spec = spec();
    let workloads: Vec<String> = listed(&spec, "workloads", "why")
        .into_iter()
        .map(|w| w.0)
        .collect();
    assert_eq!(workloads, workload_names());
    assert_eq!(listed(&spec, "end_to_end", "unit"), declared(END_TO_END));
    assert_eq!(listed(&spec, "per_layer", "unit"), declared(PER_LAYER));
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
    names.sort_unstable();
    assert!(
        names.windows(2).all(|w| w[0] != w[1]),
        "a metric name is used twice"
    );
}

/// Every workload, untraced and traced: each listed metric comes out exactly
/// once with its unit, nothing unlisted comes out, every output check passes
/// and no op fails.
#[test]
fn every_workload_emits_every_listed_metric_and_passes_its_checks() {
    for name in workload_names() {
        for (traced, list) in [(false, END_TO_END), (true, PER_LAYER)] {
            let ctx = RunCtx {
                seed: 3,
                seconds: SHORT,
                traced,
            };
            let out = run_workload(name, &ctx).unwrap_or_else(|e| panic!("{name}: {e}"));
            let emitted: Vec<(&str, &str)> = out
                .emitted(traced)
                .iter()
                .map(|&(n, u, _)| (n, u))
                .collect();
            assert_eq!(emitted, list, "{name} traced={traced}");
            for c in &out.checks {
                assert!(
                    c.pass,
                    "{name} traced={traced}: check {} failed: {}",
                    c.name, c.detail
                );
            }
            assert!(
                out.correct(),
                "{name} traced={traced}: a metric is not finite"
            );
            assert!(
                out.attempted >= 3 && out.failed == 0,
                "{name} traced={traced}"
            );
            assert_eq!(out.exit_code(), 0);
            if !traced {
                for (n, _, v) in out.emitted(false) {
                    assert!(v > 0.0, "{name}: end-to-end metric {n} is {v}");
                }
            }
            assert!(out
                .json(traced)
                .starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn a_corrupted_estimate_makes_the_run_exit_non_zero() {
    let ctx = RunCtx {
        seed: 3,
        seconds: SHORT,
        traced: false,
    };
    // The first estimate digested is op 0 of the timed loop.
    adapter::corrupt::nth_digest(0);
    let out = run_workload("cold_k100", &ctx).expect("the run itself completes");
    let failed: Vec<&str> = out
        .checks
        .iter()
        .filter(|c| !c.pass)
        .map(|c| c.name)
        .collect();
    assert_eq!(failed, ["timed_run_repeats"]);
    assert!(!out.correct());
    assert_ne!(out.exit_code(), 0);
    assert!(out.json(false).starts_with("{\"correct\": false"));
}
