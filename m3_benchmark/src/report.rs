//! Metric names and units, the result of one workload run, and how it is
//! printed: a table for people, then one JSON object on the last line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a caller of the system sees. Same names on every workload; an *op*
/// is one estimate, one delta or one request. `BENCHMARK.json` lists the
/// same names with their bounds; the consistency test holds the two equal.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
];

/// Single layers, from the traced run, plus the informational rows that
/// carry no bound. A layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("latency_p99_ms", "ms"),
    ("latency_samples", "count"),
    ("traced.op_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_ms", "ms"),
    ("validate.ms", "ms"),
    ("decompose.index_ms", "ms"),
    ("decompose.sample_ms", "ms"),
    ("decompose.materialize_ms", "ms"),
    ("decompose.ns_per_flow", "ns"),
    ("dedupe_ratio", "ratio"),
    ("flowsim.run_ms", "ms"),
    ("flowsim.events", "count"),
    ("flowsim.flows", "count"),
    ("flowsim.ns_per_event", "ns"),
    ("features.ms", "ms"),
    ("nn.forward_ms", "ms"),
    ("nn.samples", "count"),
    ("nn.tokens", "count"),
    ("nn.us_per_sample", "us"),
    ("nn.mflop", "Mflop"),
    ("aggregate.ms", "ms"),
    ("cache.probe_ms", "ms"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("session.apply_ms", "ms"),
    ("session.dirty_frac", "ratio"),
    ("session.dirty_groups_ms", "ms"),
    ("session.full_reestimate_ms", "ms"),
    ("journal.append_ms", "ms"),
    ("journal.append_p90_ms", "ms"),
    ("journal.bytes_per_op", "B"),
    ("serve.submit_ms", "ms"),
    ("serve.materialize_ms", "ms"),
    ("serve.direct_estimate_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.worker_busy_frac", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name:?} is not declared in report.rs"))
}

/// One named output check; every failed check makes the run incorrect.
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    metrics: BTreeMap<&'static str, f64>,
    /// Lines for people: digest, counts, layer shares.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    pub fn check(&mut self, name: &'static str, pass: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            pass,
            detail: detail.into(),
        });
    }

    /// Correct iff every check passed and no metric is NaN or infinite.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass) && self.metrics.values().all(|v| v.is_finite())
    }

    /// 0 only for a run whose outputs were all right and none of whose ops failed.
    pub fn exit_code(&self) -> u8 {
        if self.correct() && self.failed == 0 && self.attempted > 0 {
            0
        } else {
            1
        }
    }

    /// The metrics this run reports: every end-to-end metric of an untraced
    /// run, every per-layer metric of a traced one.
    pub fn emitted(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, self.get(n).unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| {
                    let v = self
                        .get(n)
                        .unwrap_or_else(|| panic!("end-to-end metric {n} was not measured"));
                    (n, u, v)
                })
                .collect()
        }
    }

    pub fn human(&self, workload: &str, traced: bool) -> String {
        let mut s = String::new();
        for (n, u, v) in self.emitted(traced) {
            let _ = writeln!(s, "{workload:<15} {n:<28} {v:>16.4} {u}");
        }
        for n in &self.notes {
            let _ = writeln!(s, "{workload:<15} {n}");
        }
        for c in &self.checks {
            let verdict = if c.pass { "ok" } else { "FAILED" };
            let _ = writeln!(
                s,
                "{workload:<15} check {:<28} {verdict}  {}",
                c.name, c.detail
            );
        }
        s
    }

    /// The contract's last line. Values keep every digit `f64` has.
    pub fn json(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .emitted(traced)
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `p` in [0, 100], linear interpolation between order statistics, as
/// `statistics.quantiles(.., method='inclusive')` does. Empty input gives 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
