//! SLO health monitor and accuracy-drift watchdog over serve telemetry.
//!
//! The [`Monitor`] is a *caller-driven* periodic sampler: each call to
//! [`Monitor::sample`] folds the current [`MetricsSnapshot`] of every
//! subject (one per shard, plus a cluster rollup) into a per-subject
//! delta-encoded [`TimeSeries`], evaluates the configured [`SloSpec`]s
//! against sliding windows of those series, runs the accuracy-drift spot
//! check when due, and returns a [`MonitorReport`]. There is no internal
//! thread and no internal clock — the caller supplies the tick, so the
//! whole evaluation is deterministic for a deterministic sequence of
//! snapshots (the serve drivers pass the sample index as the tick).
//!
//! ## Burn rate
//!
//! Every SLO reduces to a single *burn rate*: observed value divided by
//! the budgeted value (error fraction over objective, tail latency over
//! ceiling, gauge over ceiling). `burn == 1.0` means the budget is being
//! consumed exactly as fast as allowed. State transitions use hysteresis:
//! a signal fires at `burn >= fire_burn_rate` and clears only at
//! `burn <= clear_burn_rate`, so a signal hovering at the threshold does
//! not flap.
//!
//! ## Drift watchdog
//!
//! Every `DriftConfig::every` samples, the watchdog replays up to
//! `sample` requests from the recent-request ring through the *active*
//! estimator off the hot path and scores them against flowSim, the
//! paper's no-ML baseline ([`model_drift`] — the same quantile scoring
//! the shadow swap gate uses). The result lands in three wall gauges on
//! the source's registry — `monitor.drift_mean_err`,
//! `monitor.drift_scenarios`, `monitor.drift_checks` — *before* the
//! snapshot is taken, so the drift signal flows through the same
//! time-series/SLO machinery as every other metric. This gauge is the trigger signal a future auto-retrain loop
//! consumes. The replay never touches the serving cache or metrics, so
//! fault-free estimates stay bit-identical with the monitor enabled.
//!
//! ## Exposure
//!
//! * [`MonitorReport::to_json`] → `status_out` file, read by `m3 monitor`.
//! * [`render_report`] → the CLI's plain-text view.
//! * [`EventLog`] → append-only JSONL of [`HealthEvent`] state
//!   transitions, fsync'd per append and torn-tail-tolerant on reopen,
//!   journaled alongside the serve journal for post-crash correlation.
//!   Reopening an existing log seeds the per-(subject, SLO) states, so a
//!   killed-and-resumed monitor continues the transition chain instead of
//!   re-firing everything.
//! * Prometheus text format via
//!   [`render_prometheus`](m3_telemetry::prometheus::render_prometheus)
//!   over any snapshot (`m3 monitor --prometheus`).

use crate::request::EstimateRequest;
use crate::service::Service;
use crate::swap::model_drift;
use m3_core::prelude::M3Estimator;
use m3_nn::prelude::write_atomic;
use m3_telemetry::prelude::{
    MetricsRegistry, MetricsSnapshot, TimeSeries, DEFAULT_TIMESERIES_CAPACITY,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Schema version stamped on [`MonitorReport`] JSON and checked on load.
pub const MONITOR_VERSION: u32 = 1;

/// What an SLO watches, reduced from a window snapshot of the subject's
/// time series. All counter-based signals use *windowed increments*, not
/// lifetime totals, so old incidents age out of the window.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SloSignal {
    /// Fraction of bad outcomes over total outcomes in the window,
    /// budgeted by `objective` (the allowed bad fraction). Both sides sum
    /// the named counters, so "bad" can span degraded + failed + shed.
    /// No traffic in the window burns nothing.
    ErrorRate {
        /// Counters whose windowed increments count as bad outcomes.
        bad: Vec<String>,
        /// Counters whose windowed increments count as total outcomes.
        total: Vec<String>,
        /// Allowed bad fraction (e.g. `0.1` = 10% error budget).
        objective: f64,
    },
    /// Upper-edge `q`-quantile of a histogram's windowed observations,
    /// budgeted by `ceiling`. No observations in the window burns
    /// nothing.
    LatencyQuantile {
        /// Histogram metric name.
        histogram: String,
        /// Quantile in `[0, 1]`, e.g. `0.99`.
        q: f64,
        /// Allowed quantile value (seconds for latency histograms).
        ceiling: f64,
    },
    /// Latest value of a gauge, budgeted by `ceiling` — how the drift
    /// gauges become an SLO.
    GaugeCeiling {
        /// Gauge metric name.
        gauge: String,
        /// Allowed gauge value.
        ceiling: f64,
    },
}

/// One service-level objective evaluated per subject per sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloSpec {
    /// Stable identifier, used in reports and the event log.
    pub name: String,
    /// What to watch.
    pub signal: SloSignal,
    /// Sliding-window span in ticks (the serve drivers tick once per
    /// sample, so this is "last N samples").
    pub window: u64,
    /// Fire when the burn rate reaches this (≥).
    pub fire_burn_rate: f64,
    /// Clear only when the burn rate falls back to this (≤) — keep it
    /// below `fire_burn_rate` for hysteresis.
    pub clear_burn_rate: f64,
}

/// Health state of one SLO on one subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SloState {
    /// Burn rate within budget (or insufficient data).
    Ok,
    /// Burn rate exceeded the fire threshold and has not yet cleared.
    Firing,
}

/// Point-in-time evaluation of one SLO on one subject.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloStatus {
    /// The spec's name.
    pub name: String,
    /// Raw observed value (error fraction, quantile seconds, gauge).
    pub value: f64,
    /// `value` over the budgeted value; `1.0` = budget fully consumed.
    pub burn_rate: f64,
    /// State after applying hysteresis to this sample.
    pub state: SloState,
}

/// Result of the latest accuracy-drift spot check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftReport {
    /// Requests that replayed and scored cleanly this check.
    pub scenarios: usize,
    /// Mean |estimate − truth| over the shadow quantiles (p50/p90/p99).
    pub mean_err: f64,
    /// Drift checks run since the monitor started.
    pub checks: u64,
}

/// Health of one subject (a shard, a single service, or the rollup) at
/// one sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthReport {
    /// Subject name: `service`, `shard-0`, …, or `cluster`.
    pub subject: String,
    /// Tick this report was evaluated at.
    pub tick: u64,
    /// Every configured SLO, in spec order.
    pub slos: Vec<SloStatus>,
    /// Latest drift spot check (rollup subject only).
    #[serde(default)]
    pub drift: Option<DriftReport>,
    /// True when no SLO is firing.
    pub healthy: bool,
}

/// One full monitor sample: per-shard reports plus the cluster rollup.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonitorReport {
    /// Schema version; see [`MONITOR_VERSION`].
    pub version: u32,
    /// Tick this report was evaluated at.
    pub tick: u64,
    /// One report per shard subject, in shard order.
    pub shards: Vec<HealthReport>,
    /// The rollup over every shard (for a single service, the same data
    /// as its one shard entry, under the subject name `cluster`).
    pub cluster: HealthReport,
}

impl MonitorReport {
    /// Pretty-printed JSON at the current schema version.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| String::from("{}"))
    }

    /// Parse a report, verifying the schema version.
    pub fn from_json(s: &str) -> io::Result<MonitorReport> {
        let report: MonitorReport = serde_json::from_str(s).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("invalid report: {e:?}"))
        })?;
        if report.version != MONITOR_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "monitor report version {} is not supported (expected {MONITOR_VERSION})",
                    report.version
                ),
            ));
        }
        Ok(report)
    }

    /// True when every subject (shards and rollup) is healthy.
    pub fn all_healthy(&self) -> bool {
        self.cluster.healthy && self.shards.iter().all(|s| s.healthy)
    }
}

/// One SLO state transition, appended to the JSONL event log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthEvent {
    /// Tick the transition was observed at.
    pub tick: u64,
    /// Subject the SLO transitioned on.
    pub subject: String,
    /// SLO name.
    pub slo: String,
    /// State before.
    pub from: SloState,
    /// State after.
    pub to: SloState,
    /// Burn rate that caused the transition.
    pub burn_rate: f64,
    /// Raw observed value at the transition.
    pub value: f64,
}

/// Append-only JSONL log of [`HealthEvent`]s: one JSON object per line,
/// fsync'd per append (same durability contract as the serve journal).
/// Reopening tolerates a torn final line — everything after the last
/// newline is discarded, mirroring the journal's torn-tail truncation.
#[derive(Debug)]
pub struct EventLog {
    file: std::fs::File,
}

impl EventLog {
    /// Open (or create) the log at `path`, returning the handle plus every
    /// intact event already on disk, oldest first. A torn trailing line is
    /// truncated away; a line that parses as JSON but not as a
    /// [`HealthEvent`] is an error (the file is not ours to guess at).
    pub fn open(path: &Path) -> io::Result<(EventLog, Vec<HealthEvent>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut buf = String::new();
        file.read_to_string(&mut buf)?;
        // Keep only whole lines; a crash mid-append leaves a torn tail.
        let intact_len = buf.rfind('\n').map(|i| i + 1).unwrap_or(0);
        if intact_len < buf.len() {
            file.set_len(intact_len as u64)?;
            file.sync_data()?;
        }
        let mut events = Vec::new();
        for (lineno, line) in buf[..intact_len].lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let ev: HealthEvent = serde_json::from_str(line).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("health event log line {}: {e:?}", lineno + 1),
                )
            })?;
            events.push(ev);
        }
        file.seek(SeekFrom::End(0))?;
        Ok((EventLog { file }, events))
    }

    /// Append one event and fsync — after this returns, the event survives
    /// a crash.
    pub fn append(&mut self, event: &HealthEvent) -> io::Result<()> {
        let line = serde_json::to_string(event).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("encode event: {e:?}"))
        })?;
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.sync_data()
    }
}

/// Accuracy-drift watchdog tuning.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Max requests replayed per check (taken from the recent-request
    /// ring, newest last).
    pub sample: usize,
    /// Run a check every this many monitor samples (≥ 1).
    pub every: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            sample: 4,
            every: 8,
        }
    }
}

/// Monitor tuning: the SLO set, the drift watchdog, and where to expose
/// results. Each subject's time series holds
/// [`DEFAULT_TIMESERIES_CAPACITY`] samples.
#[derive(Debug, Clone, Default)]
pub struct MonitorConfig {
    /// SLOs evaluated on every subject each sample.
    pub slos: Vec<SloSpec>,
    /// Drift watchdog; `None` disables the flowSim spot checks.
    pub drift: Option<DriftConfig>,
    /// JSONL health-transition event log path.
    pub events_out: Option<PathBuf>,
    /// Latest [`MonitorReport`] JSON, rewritten each sample (best-effort)
    /// — what `m3 monitor` reads.
    pub status_out: Option<PathBuf>,
}

/// Allowed windowed bad-outcome fraction in [`default_slos`].
pub const DEFAULT_ERROR_OBJECTIVE: f64 = 0.1;
/// Allowed windowed p99 request latency (seconds) in [`default_slos`].
pub const DEFAULT_P99_CEILING_SECONDS: f64 = 2.0;
/// Allowed mean drift error in [`default_slos`].
pub const DEFAULT_DRIFT_CEILING: f64 = 2.0;
/// Default SLO window in samples.
pub const DEFAULT_SLO_WINDOW: u64 = 32;

/// The built-in SLO set: windowed bad-outcome rate against a 10% budget,
/// windowed p99 request latency against a 2 s ceiling, and the drift
/// watchdog's mean error against its ceiling. All fire at burn 1.0 and
/// clear at 0.5 (drift: 0.75).
pub fn default_slos() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "bad-outcome-rate".into(),
            signal: SloSignal::ErrorRate {
                bad: vec![
                    "serve.degraded".into(),
                    "serve.failed".into(),
                    "serve.shed".into(),
                ],
                total: vec![
                    "serve.completed".into(),
                    "serve.degraded".into(),
                    "serve.failed".into(),
                    "serve.shed".into(),
                ],
                objective: DEFAULT_ERROR_OBJECTIVE,
            },
            window: DEFAULT_SLO_WINDOW,
            fire_burn_rate: 1.0,
            clear_burn_rate: 0.5,
        },
        SloSpec {
            name: "p99-latency".into(),
            signal: SloSignal::LatencyQuantile {
                histogram: "serve.request_latency_seconds".into(),
                q: 0.99,
                ceiling: DEFAULT_P99_CEILING_SECONDS,
            },
            window: DEFAULT_SLO_WINDOW,
            fire_burn_rate: 1.0,
            clear_burn_rate: 0.5,
        },
        SloSpec {
            name: "model-drift".into(),
            signal: SloSignal::GaugeCeiling {
                gauge: "monitor.drift_mean_err".into(),
                ceiling: DEFAULT_DRIFT_CEILING,
            },
            window: DEFAULT_SLO_WINDOW,
            fire_burn_rate: 1.0,
            clear_burn_rate: 0.75,
        },
    ]
}

/// Anything the monitor can observe: a single [`Service`] (one subject)
/// or a [`Cluster`](crate::cluster::Cluster) (one subject per shard plus
/// a merged rollup). The monitor only *reads* through this trait, except
/// for the drift gauges it sets on [`MonitorSource::registry`] —
/// wall-flagged, so deterministic views are unaffected.
pub trait MonitorSource {
    /// Per-shard `(subject, snapshot)` pairs, in a stable order.
    fn shard_snapshots(&self) -> Vec<(String, MetricsSnapshot)>;
    /// The rollup snapshot (for a cluster, the merged view; for a single
    /// service, its own snapshot).
    fn rollup_snapshot(&self) -> MetricsSnapshot;
    /// Registry the drift gauges are published on. Must be included in
    /// [`MonitorSource::rollup_snapshot`].
    fn registry(&self) -> &MetricsRegistry;
    /// Up to `n` recently accepted requests, oldest first — the drift
    /// replay sample.
    fn recent_requests(&self, n: usize) -> Vec<EstimateRequest>;
    /// The estimator serving new admissions (what drift is measured on).
    fn drift_estimator(&self) -> Arc<M3Estimator>;
}

impl MonitorSource for Service {
    fn shard_snapshots(&self) -> Vec<(String, MetricsSnapshot)> {
        vec![("service".to_string(), self.metrics_snapshot())]
    }
    fn rollup_snapshot(&self) -> MetricsSnapshot {
        self.metrics_snapshot()
    }
    fn registry(&self) -> &MetricsRegistry {
        self.metrics()
    }
    fn recent_requests(&self, n: usize) -> Vec<EstimateRequest> {
        Service::recent_requests(self, n)
    }
    fn drift_estimator(&self) -> Arc<M3Estimator> {
        self.active_estimator()
    }
}

/// The sampler/evaluator. Construction opens (and replays) the event log;
/// the caller then drives [`Monitor::sample`] at its chosen cadence.
pub struct Monitor {
    config: MonitorConfig,
    /// Per-subject series, keyed by subject name. The rollup lives under
    /// [`ROLLUP_SUBJECT`].
    series: HashMap<String, TimeSeries>,
    /// Last known SLO state per `(subject, slo)` — seeded from the event
    /// log on open so resume continues the transition chain.
    states: HashMap<(String, String), SloState>,
    events: Option<EventLog>,
    samples: u64,
    drift_checks: u64,
    last_drift: Option<DriftReport>,
    drift_gauges: Option<DriftGauges>,
}

/// Subject name of the rollup report.
pub const ROLLUP_SUBJECT: &str = "cluster";

struct DriftGauges {
    mean_err: m3_telemetry::prelude::Gauge,
    scenarios: m3_telemetry::prelude::Gauge,
    checks: m3_telemetry::prelude::Gauge,
}

impl Monitor {
    /// Build a monitor. If `config.events_out` names an existing event
    /// log, its transitions are replayed to seed the per-SLO states —
    /// kill-and-resume continues the chain instead of re-firing. An empty
    /// SLO list is replaced by [`default_slos`].
    pub fn new(mut config: MonitorConfig) -> io::Result<Monitor> {
        if config.slos.is_empty() {
            config.slos = default_slos();
        }
        let mut states = HashMap::new();
        let events = match &config.events_out {
            Some(path) => {
                let (log, replayed) = EventLog::open(path)?;
                for ev in replayed {
                    states.insert((ev.subject, ev.slo), ev.to);
                }
                Some(log)
            }
            None => None,
        };
        Ok(Monitor {
            config,
            series: HashMap::new(),
            states,
            events,
            samples: 0,
            drift_checks: 0,
            last_drift: None,
            drift_gauges: None,
        })
    }

    /// Monitor samples taken so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Latest drift spot-check result, if any check has run.
    pub fn last_drift(&self) -> Option<&DriftReport> {
        self.last_drift.as_ref()
    }

    /// The per-subject time series (for tests and ad-hoc inspection).
    pub fn series(&self, subject: &str) -> Option<&TimeSeries> {
        self.series.get(subject)
    }

    /// Take one sample at `tick`: run the drift check if due, fold every
    /// subject's snapshot, evaluate SLOs, journal transitions, rewrite
    /// `status_out`, and return the report. Errors are I/O only (event
    /// log); evaluation itself cannot fail.
    pub fn sample(&mut self, source: &impl MonitorSource, tick: u64) -> io::Result<MonitorReport> {
        self.samples += 1;
        // Drift first, so its gauges are present in this sample's
        // snapshots. Gauges are wall-flagged: deterministic views (and so
        // metric bit-equality checks) never see them.
        if let Some(drift_cfg) = self.config.drift.clone() {
            let due = drift_cfg.every <= 1 || self.samples % drift_cfg.every.max(1) == 1;
            if due {
                let window = source.recent_requests(drift_cfg.sample);
                if !window.is_empty() {
                    let est = source.drift_estimator();
                    let (scenarios, mean_err) = model_drift(&est, &window);
                    self.drift_checks += 1;
                    let report = DriftReport {
                        scenarios,
                        mean_err,
                        checks: self.drift_checks,
                    };
                    let gauges = self.drift_gauges.get_or_insert_with(|| {
                        let reg = source.registry();
                        DriftGauges {
                            mean_err: reg.wall_gauge("monitor.drift_mean_err"),
                            scenarios: reg.wall_gauge("monitor.drift_scenarios"),
                            checks: reg.wall_gauge("monitor.drift_checks"),
                        }
                    });
                    gauges.mean_err.set(report.mean_err);
                    gauges.scenarios.set(report.scenarios as f64);
                    gauges.checks.set(report.checks as f64);
                    self.last_drift = Some(report);
                }
            }
        }

        let shard_snaps = source.shard_snapshots();
        let mut shards = Vec::with_capacity(shard_snaps.len());
        for (subject, snap) in &shard_snaps {
            let report = self.observe_subject(subject, snap, tick)?;
            shards.push(report);
        }
        let rollup_snap = source.rollup_snapshot();
        let mut cluster = self.observe_subject(ROLLUP_SUBJECT, &rollup_snap, tick)?;
        cluster.drift = self.last_drift.clone();

        let report = MonitorReport {
            version: MONITOR_VERSION,
            tick,
            shards,
            cluster,
        };
        if let Some(path) = &self.config.status_out {
            // Best-effort, like the service's metrics dump: monitoring
            // must never take the service down over a full disk.
            let _ = write_atomic(path, report.to_json().as_bytes());
        }
        Ok(report)
    }

    /// Fold `snap` into `subject`'s series and evaluate every SLO.
    fn observe_subject(
        &mut self,
        subject: &str,
        snap: &MetricsSnapshot,
        tick: u64,
    ) -> io::Result<HealthReport> {
        let series = self
            .series
            .entry(subject.to_string())
            .or_insert_with(|| TimeSeries::new(DEFAULT_TIMESERIES_CAPACITY));
        series.observe(tick, snap);

        let mut slos = Vec::with_capacity(self.config.slos.len());
        for spec in &self.config.slos {
            let (value, burn_rate) = evaluate_signal(&spec.signal, series, spec.window);
            let key = (subject.to_string(), spec.name.clone());
            let prev = *self.states.get(&key).unwrap_or(&SloState::Ok);
            let next = match prev {
                SloState::Ok if burn_rate >= spec.fire_burn_rate => SloState::Firing,
                SloState::Firing if burn_rate <= spec.clear_burn_rate => SloState::Ok,
                held => held,
            };
            if next != prev {
                let event = HealthEvent {
                    tick,
                    subject: subject.to_string(),
                    slo: spec.name.clone(),
                    from: prev,
                    to: next,
                    burn_rate,
                    value,
                };
                if let Some(log) = &mut self.events {
                    log.append(&event)?;
                }
            }
            self.states.insert(key, next);
            slos.push(SloStatus {
                name: spec.name.clone(),
                value,
                burn_rate,
                state: next,
            });
        }
        let healthy = slos.iter().all(|s| s.state == SloState::Ok);
        Ok(HealthReport {
            subject: subject.to_string(),
            tick,
            slos,
            drift: None,
            healthy,
        })
    }
}

/// Reduce one signal over the trailing window: `(observed value, burn
/// rate)`. Missing data burns nothing.
fn evaluate_signal(signal: &SloSignal, series: &TimeSeries, window: u64) -> (f64, f64) {
    let w = series.window(window);
    match signal {
        SloSignal::ErrorRate {
            bad,
            total,
            objective,
        } => {
            let sum = |names: &[String]| -> u64 { names.iter().filter_map(|n| w.counter(n)).sum() };
            let bad_n = sum(bad);
            let total_n = sum(total);
            if total_n == 0 {
                return (0.0, 0.0);
            }
            let frac = bad_n as f64 / total_n as f64;
            (frac, burn(frac, *objective))
        }
        SloSignal::LatencyQuantile {
            histogram,
            q,
            ceiling,
        } => match series.quantile_trend(histogram, *q, window) {
            Some(v) => (v, burn(v, *ceiling)),
            None => (0.0, 0.0),
        },
        SloSignal::GaugeCeiling { gauge, ceiling } => {
            let v = w.gauge(gauge).unwrap_or(0.0);
            (v, burn(v, *ceiling))
        }
    }
}

/// Observed over budgeted, with a zero/degenerate budget treated as
/// "any observation at all is over budget".
fn burn(observed: f64, budget: f64) -> f64 {
    if !observed.is_finite() {
        return f64::INFINITY;
    }
    if budget <= 0.0 {
        return if observed > 0.0 { f64::INFINITY } else { 0.0 };
    }
    observed / budget
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.is_infinite() {
        "inf".to_string()
    } else if v.abs() >= 0.01 && v.abs() < 1e7 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

fn render_health(out: &mut String, report: &HealthReport) {
    use std::fmt::Write as _;
    let badge = if report.healthy { "ok" } else { "UNHEALTHY" };
    let _ = writeln!(out, "\n{} [{badge}]", report.subject);
    for slo in &report.slos {
        let state = match slo.state {
            SloState::Ok => "ok",
            SloState::Firing => "FIRING",
        };
        let _ = writeln!(
            out,
            "  {:<20} burn={:<10} value={:<10} {state}",
            slo.name,
            fmt_value(slo.burn_rate),
            fmt_value(slo.value),
        );
    }
    if let Some(d) = &report.drift {
        let _ = writeln!(
            out,
            "  {:<20} mean_err={} over {} scenario(s), check #{}",
            "drift-watchdog",
            fmt_value(d.mean_err),
            d.scenarios,
            d.checks,
        );
    }
}

/// Plain-text rendering of a [`MonitorReport`] for `m3 monitor`, in the
/// same aligned style as
/// [`render_snapshot`](m3_telemetry::render::render_snapshot).
pub fn render_report(report: &MonitorReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let overall = if report.all_healthy() {
        "ok"
    } else {
        "UNHEALTHY"
    };
    let _ = writeln!(
        out,
        "monitor report (version {}) tick={} [{overall}]",
        report.version, report.tick
    );
    // A single service reports one shard subject identical to the rollup;
    // showing both would be noise.
    let single = report.shards.len() == 1 && report.shards[0].subject == "service";
    if !single {
        for shard in &report.shards {
            render_health(&mut out, shard);
        }
    }
    render_health(&mut out, &report.cluster);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_telemetry::prelude::MetricsRegistry;

    struct FakeSource {
        registry: MetricsRegistry,
    }

    impl MonitorSource for FakeSource {
        fn shard_snapshots(&self) -> Vec<(String, MetricsSnapshot)> {
            vec![("shard-0".into(), self.registry.snapshot())]
        }
        fn rollup_snapshot(&self) -> MetricsSnapshot {
            self.registry.snapshot()
        }
        fn registry(&self) -> &MetricsRegistry {
            &self.registry
        }
        fn recent_requests(&self, _n: usize) -> Vec<EstimateRequest> {
            Vec::new()
        }
        fn drift_estimator(&self) -> Arc<M3Estimator> {
            unreachable!("no drift in these tests")
        }
    }

    fn error_rate_slo(window: u64) -> SloSpec {
        SloSpec {
            name: "bad-outcome-rate".into(),
            signal: SloSignal::ErrorRate {
                bad: vec!["serve.failed".into()],
                total: vec!["serve.completed".into(), "serve.failed".into()],
                objective: 0.1,
            },
            window,
            fire_burn_rate: 1.0,
            clear_burn_rate: 0.5,
        }
    }

    #[test]
    fn burn_rate_fires_and_clears_with_hysteresis() {
        let src = FakeSource {
            registry: MetricsRegistry::new(),
        };
        let completed = src.registry.counter("serve.completed");
        let failed = src.registry.counter("serve.failed");
        let mut mon = Monitor::new(MonitorConfig {
            slos: vec![error_rate_slo(4)],
            ..MonitorConfig::default()
        })
        .unwrap();

        // Clean traffic: 10 completions per tick, no failures → Ok.
        completed.add(10);
        let r = mon.sample(&src, 0).unwrap();
        assert!(r.cluster.healthy);
        assert_eq!(r.cluster.slos[0].state, SloState::Ok);

        // Failure burst: 5 of 15 outcomes bad → burn 3.3 → Firing.
        completed.add(10);
        failed.add(5);
        let r = mon.sample(&src, 1).unwrap();
        assert_eq!(r.cluster.slos[0].state, SloState::Firing);
        assert!(!r.cluster.healthy);
        assert!(r.cluster.slos[0].burn_rate > 1.0);

        // Still inside the window: stays firing even with clean traffic.
        completed.add(10);
        let r = mon.sample(&src, 2).unwrap();
        assert_eq!(r.cluster.slos[0].state, SloState::Firing);

        // Window slides past the burst → burn 0 → clears.
        for tick in 3..8 {
            completed.add(10);
            let last = mon.sample(&src, tick).unwrap();
            if tick >= 5 {
                assert_eq!(
                    last.cluster.slos[0].state,
                    SloState::Ok,
                    "burst aged out at tick {tick}"
                );
            }
        }
    }

    #[test]
    fn no_traffic_burns_nothing() {
        let src = FakeSource {
            registry: MetricsRegistry::new(),
        };
        let mut mon = Monitor::new(MonitorConfig {
            slos: vec![error_rate_slo(4)],
            ..MonitorConfig::default()
        })
        .unwrap();
        let r = mon.sample(&src, 0).unwrap();
        assert_eq!(r.cluster.slos[0].burn_rate, 0.0);
        assert!(r.all_healthy());
    }

    #[test]
    fn event_log_roundtrip_and_resume_seeds_states() {
        let dir = std::env::temp_dir().join(format!("m3-monitor-evt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        std::fs::remove_file(&path).ok();

        let src = FakeSource {
            registry: MetricsRegistry::new(),
        };
        let completed = src.registry.counter("serve.completed");
        let failed = src.registry.counter("serve.failed");
        let config = MonitorConfig {
            slos: vec![error_rate_slo(2)],
            events_out: Some(path.clone()),
            ..MonitorConfig::default()
        };

        let mut mon = Monitor::new(config.clone()).unwrap();
        completed.add(10);
        mon.sample(&src, 0).unwrap();
        failed.add(10);
        mon.sample(&src, 1).unwrap(); // fires → one transition per subject
        drop(mon);

        let (_, events) = EventLog::open(&path).unwrap();
        assert_eq!(events.len(), 2, "shard-0 and rollup each fired once");
        assert!(events.iter().all(|e| e.to == SloState::Firing));

        // Resume: the monitor must remember Firing — a still-hot window
        // does not re-fire, and once the window cools it emits exactly
        // one clear per subject. (The resumed series starts empty, so its
        // first sample re-absorbs the whole cumulative history — it takes
        // `window` further clean samples for the old failures to age out.)
        let mut resumed = Monitor::new(config).unwrap();
        for tick in 2..5 {
            completed.add(10);
            resumed.sample(&src, tick).unwrap();
        }
        let (_, events) = EventLog::open(&path).unwrap();
        let clears = events.iter().filter(|e| e.to == SloState::Ok).count();
        let fires = events.iter().filter(|e| e.to == SloState::Firing).count();
        assert_eq!(clears, 2, "one clear per subject: {events:?}");
        assert_eq!(fires, 2, "resume must not re-fire: {events:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn event_log_truncates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("m3-monitor-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let ev = HealthEvent {
            tick: 1,
            subject: "s".into(),
            slo: "x".into(),
            from: SloState::Ok,
            to: SloState::Firing,
            burn_rate: 2.0,
            value: 0.2,
        };
        let line = serde_json::to_string(&ev).unwrap();
        std::fs::write(&path, format!("{line}\n{{\"tick\":9,\"sub")).unwrap();
        let (_, events) = EventLog::open(&path).unwrap();
        assert_eq!(events, vec![ev]);
        // The torn bytes are gone from disk.
        let bytes = std::fs::read_to_string(&path).unwrap();
        assert!(bytes.ends_with('\n'));
        assert_eq!(bytes.lines().count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn latency_and_gauge_signals_evaluate() {
        use m3_telemetry::prelude::HistogramEdges;
        let src = FakeSource {
            registry: MetricsRegistry::new(),
        };
        let h = src.registry.wall_histogram(
            "serve.request_latency_seconds",
            HistogramEdges::latency_seconds(),
        );
        let g = src.registry.wall_gauge("monitor.drift_mean_err");
        let mut mon = Monitor::new(MonitorConfig {
            slos: vec![
                SloSpec {
                    name: "p99".into(),
                    signal: SloSignal::LatencyQuantile {
                        histogram: "serve.request_latency_seconds".into(),
                        q: 0.99,
                        ceiling: 0.001,
                    },
                    window: 8,
                    fire_burn_rate: 1.0,
                    clear_burn_rate: 0.5,
                },
                SloSpec {
                    name: "drift".into(),
                    signal: SloSignal::GaugeCeiling {
                        gauge: "monitor.drift_mean_err".into(),
                        ceiling: 2.0,
                    },
                    window: 8,
                    fire_burn_rate: 1.0,
                    clear_burn_rate: 0.75,
                },
            ],
            ..MonitorConfig::default()
        })
        .unwrap();

        h.observe(0.5); // way over the 1 ms ceiling
        g.set(5.0); // over the 2.0 drift ceiling
        let r = mon.sample(&src, 0).unwrap();
        assert_eq!(r.cluster.slos[0].state, SloState::Firing);
        assert_eq!(r.cluster.slos[1].state, SloState::Firing);
        assert!(r.cluster.slos[1].value >= 5.0);

        g.set(0.1);
        // Latency histogram observations age out of the window only after
        // 8 clean ticks; the gauge clears immediately.
        let r = mon.sample(&src, 1).unwrap();
        assert_eq!(r.cluster.slos[1].state, SloState::Ok);
    }

    #[test]
    fn report_json_roundtrip_and_render() {
        let report = MonitorReport {
            version: MONITOR_VERSION,
            tick: 7,
            shards: vec![HealthReport {
                subject: "shard-0".into(),
                tick: 7,
                slos: vec![SloStatus {
                    name: "bad-outcome-rate".into(),
                    value: 0.5,
                    burn_rate: 5.0,
                    state: SloState::Firing,
                }],
                drift: None,
                healthy: false,
            }],
            cluster: HealthReport {
                subject: ROLLUP_SUBJECT.into(),
                tick: 7,
                slos: vec![],
                drift: Some(DriftReport {
                    scenarios: 3,
                    mean_err: 0.25,
                    checks: 2,
                }),
                healthy: true,
            },
        };
        let back = MonitorReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.tick, 7);
        assert_eq!(back.shards[0].slos[0].state, SloState::Firing);
        assert_eq!(back.cluster.drift.as_ref().unwrap().scenarios, 3);

        let text = render_report(&back);
        assert!(text.contains("UNHEALTHY"));
        assert!(text.contains("bad-outcome-rate"));
        assert!(text.contains("FIRING"));
        assert!(text.contains("drift-watchdog"));

        let bad = report
            .to_json()
            .replacen("\"version\": 1", "\"version\": 9", 1);
        assert!(MonitorReport::from_json(&bad).is_err());
    }

    /// `m3 monitor --follow` re-reads `status_out` while the monitor keeps
    /// rewriting it: every read must parse, never a truncated or
    /// half-written report.
    #[test]
    fn a_reader_never_sees_a_half_written_status_file() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let dir = std::env::temp_dir().join(format!("m3-monitor-status-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let status = dir.join("status.json");
        let src = FakeSource {
            registry: MetricsRegistry::new(),
        };
        let completed = src.registry.counter("serve.completed");
        let mut mon = Monitor::new(MonitorConfig {
            status_out: Some(status.clone()),
            ..MonitorConfig::default()
        })
        .unwrap();
        mon.sample(&src, 0).unwrap();
        let done = AtomicBool::new(false);
        let reads = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut reads = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let text = std::fs::read_to_string(&status).unwrap();
                    if let Err(e) = MonitorReport::from_json(&text) {
                        panic!("read {reads} does not parse ({e}): {text:?}");
                    }
                    reads += 1;
                }
                reads
            });
            for tick in 1..=300 {
                completed.add(tick);
                mon.sample(&src, tick).unwrap();
            }
            done.store(true, Ordering::Relaxed);
            reader.join().unwrap()
        });
        assert!(reads > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
