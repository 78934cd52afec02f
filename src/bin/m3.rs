//! `m3` — command-line interface to the estimation pipeline.
//!
//! ```text
//! m3 example-spec                # print a scenario spec template (JSON)
//! m3 estimate <spec.json>       # run the estimators named in the spec
//! m3 sweep <spec.json> <knob> <v1,v2,...>   # counterfactual knob sweep
//! m3 example-service-spec        # print a service spec template (JSON)
//! m3 serve <service.json>       # run a batch through the supervised service
//! m3 example-cluster-spec        # print a cluster spec template (JSON)
//! m3 cluster <cluster.json>     # fan a batch out across sharded services
//! m3 example-session-spec        # print a session spec template (JSON)
//! m3 session <session.json>     # incremental what-ifs: deltas on stdin
//! m3 example-train-spec          # print a training spec template (JSON)
//! m3 train <train.json>         # train a model and save a checkpoint
//! m3 retrain-publish <train.json> <registry>   # train + publish a candidate
//! m3 registry <root> [ref]      # list registry versions / resolve a ref
//! m3 stats <snapshot.json>      # pretty-print a metrics snapshot
//! m3 trace <trace.json>         # summarize an exported trace file
//! ```
//!
//! `estimate`, `serve`, and `train` accept `--metrics-out <path>`: a
//! versioned JSON telemetry snapshot (counters, gauges, stage timers,
//! latency histograms) is written there — continuously by `serve`, at exit
//! by the others — and can be inspected with `m3 stats`.
//!
//! `estimate` and `serve` also accept `--trace-out <path>`: the run is
//! recorded by the causal-tracing flight recorder and exported as Chrome
//! trace-event JSON (open in Perfetto / `chrome://tracing`), containing
//! the pipeline's span tree, degradation/fault/cache instants, and
//! per-link simulator counter tracks. `--trace-stride-ns <ns>` sets the
//! virtual-time probe sampling stride; `--trace-deterministic` zeroes the
//! wall-clock fields so traces of a fixed seed are byte-identical (the
//! golden-file mode used by `scripts/check.sh`). Inspect exported files
//! with `m3 trace`.
//!
//! The spec file describes a topology, a workload, a network configuration,
//! and which estimators to run (`m3`, `flowsim`, `global-flowsim`,
//! `parsimon`, `parsimon-clustered`, `ns3`, `ns3-path`). The service spec
//! adds a journal path and a list of requests; a `m3 serve` run that is
//! killed can be re-run with `"resume": true` to replay the journal and
//! finish exactly the jobs that had not settled.
//!
//! `m3 session` opens one scenario as a long-lived incremental session
//! and reads line-delimited [`ScenarioDelta`] JSON from stdin — e.g.
//! `{"kind":"link_down","link":3}` — re-estimating only the paths each
//! delta dirties and printing one JSON result line per update. A line
//! `close` (or EOF) closes the session. With a `"journal"` path the
//! session is write-ahead journaled; re-running with `"resume": true`
//! after a kill re-adopts the journaled session at its exact pre-kill
//! state instead of opening a new one.
//!
//! `m3 cluster` runs the same kind of batch through the fault-tolerant
//! sharded coordinator (`m3_serve::cluster`): requests are spread across
//! `shards` independent service instances by rendezvous hashing, each with
//! its own journal under `journal_dir`, and a dead or stalled shard's
//! unfinished work is rerouted losslessly to the survivors. With
//! `--metrics-out <path>` the deterministic merge of every shard's
//! telemetry (plus the coordinator's own counters) is written at exit.
//!
//! Exit codes distinguish failure families:
//! * 2 — usage errors (bad arguments, unreadable/unparsable files)
//! * 3 — spec validation errors (unknown method/knob/matrix/protocol, ...)
//! * 4 — runtime faults (stage faults, degradation limits, missing model)

use m3::core::prelude::*;
use m3::netsim::prelude::*;
use m3::nn::prelude::{Lineage, M3Net, ModelRef, ModelRegistry};
use m3::parsimon::{parsimon_estimate, parsimon_estimate_clustered, slowdown_samples};
use m3::serve::prelude::{
    render_report, Cluster, ClusterConfig, ConfigSpec, DriftConfig, EstimateRequest, JobOutcome,
    Monitor, MonitorConfig, MonitorReport, MonitorSource, OpenSessionRequest, Replay, RetryPolicy,
    ScenarioSpec, Service, ServiceConfig, SessionError, SubmitError, TopoSpec, WorkloadSpec,
};
use m3::telemetry::{
    render_prometheus, render_snapshot, render_trace_summary, summarize_chrome_json,
    MetricsRegistry, MetricsSnapshot, TraceCtx, TraceRecorder, DEFAULT_TRACE_CAPACITY,
};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Bad command line / unreadable input.
const EXIT_USAGE: i32 = 2;
/// The spec failed validation (typed `M3Error::InvalidSpec`).
const EXIT_SPEC: i32 = 3;
/// The pipeline faulted at runtime (any other `M3Error`, missing model,
/// failed service jobs).
const EXIT_FAULT: i32 = 4;

#[derive(Debug, Serialize, Deserialize)]
struct Spec {
    topology: TopoSpec,
    workload: WorkloadSpec,
    #[serde(default)]
    config: ConfigSpec,
    /// Estimators to run.
    methods: Vec<String>,
    #[serde(default = "default_paths")]
    paths: usize,
    #[serde(default)]
    model: Option<String>,
    #[serde(default)]
    seed: u64,
}

impl Spec {
    fn scenario(&self) -> ScenarioSpec {
        ScenarioSpec {
            topology: self.topology.clone(),
            workload: self.workload.clone(),
            config: self.config.clone(),
        }
    }
}

fn default_paths() -> usize {
    100
}

/// Input to `m3 serve`: service knobs plus a batch of requests.
#[derive(Debug, Serialize, Deserialize)]
struct ServiceSpec {
    #[serde(default = "default_workers")]
    workers: usize,
    #[serde(default = "default_queue_capacity")]
    queue_capacity: usize,
    /// Write-ahead journal path; omit to run without crash recovery.
    #[serde(default)]
    journal: Option<String>,
    /// Re-open an existing journal and finish its pending jobs before
    /// submitting any requests it has not seen yet.
    #[serde(default)]
    resume: bool,
    /// Model-registry root. Required to resume a journal whose model was
    /// hot-swapped (the replayed `ModelSwap` record names a registry
    /// version); ignored on a fresh start.
    #[serde(default)]
    registry: Option<String>,
    #[serde(default)]
    model: Option<String>,
    #[serde(default)]
    retry: Option<RetryPolicy>,
    /// SLO health monitor + drift watchdog; omit to serve unmonitored.
    #[serde(default)]
    monitor: Option<MonitorSpec>,
    requests: Vec<EstimateRequest>,
}

/// The `monitor` sub-object of `m3 serve` / `m3 cluster` specs: where to
/// expose health, and how often to sample while the batch drains.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MonitorSpec {
    /// Latest [`MonitorReport`] JSON, rewritten each sample — what
    /// `m3 monitor` reads.
    status_out: String,
    /// Append-only JSONL health-transition event log.
    #[serde(default)]
    events_out: Option<String>,
    #[serde(default = "default_monitor_every_ms")]
    sample_every_ms: u64,
    /// Requests replayed per drift spot check; 0 = default.
    #[serde(default)]
    drift_sample: usize,
    /// Run a drift check every this many samples; 0 = default.
    #[serde(default)]
    drift_every: u64,
}

fn default_monitor_every_ms() -> u64 {
    250
}

fn default_workers() -> usize {
    2
}

fn default_queue_capacity() -> usize {
    64
}

/// Input to `m3 session`: one scenario held open as an incremental
/// session, driven by line-delimited deltas on stdin.
#[derive(Debug, Serialize, Deserialize)]
struct SessionSpec {
    topology: TopoSpec,
    workload: WorkloadSpec,
    #[serde(default)]
    config: ConfigSpec,
    #[serde(default = "default_paths")]
    paths: usize,
    #[serde(default)]
    seed: u64,
    #[serde(default)]
    model: Option<String>,
    /// Write-ahead journal path; omit to run without crash recovery.
    #[serde(default)]
    journal: Option<String>,
    /// Re-open an existing journal and re-adopt its live session (with
    /// every journaled delta replayed) instead of opening a new one.
    #[serde(default)]
    resume: bool,
}

/// Input to `m3 cluster`: coordinator knobs plus a batch of requests that
/// is fanned out across `shards` independent service instances.
#[derive(Debug, Serialize, Deserialize)]
struct ClusterSpec {
    #[serde(default = "default_shards")]
    shards: usize,
    /// Workers *per shard*.
    #[serde(default = "default_shard_workers")]
    workers: usize,
    #[serde(default = "default_queue_capacity")]
    queue_capacity: usize,
    /// Directory for per-shard journals (`shard-<i>.jrn`); omit to run
    /// without crash recovery.
    #[serde(default)]
    journal_dir: Option<String>,
    #[serde(default)]
    model: Option<String>,
    /// Per-shard (within-service) retry policy.
    #[serde(default)]
    retry: Option<RetryPolicy>,
    /// Requests with at least this many paths are scattered into
    /// path-slice children that run on multiple shards; omit to disable.
    #[serde(default)]
    scatter_threshold: Option<usize>,
    #[serde(default = "default_scatter_chunk")]
    scatter_chunk: usize,
    /// SLO health monitor + drift watchdog; omit to serve unmonitored.
    #[serde(default)]
    monitor: Option<MonitorSpec>,
    requests: Vec<EstimateRequest>,
}

fn default_shards() -> usize {
    4
}

fn default_shard_workers() -> usize {
    1
}

fn default_scatter_chunk() -> usize {
    8
}

fn die(code: i32, msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(code);
}

/// Remove `--<flag> <value>` from `args` and return the value, if present.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        die(EXIT_USAGE, &format!("{flag} requires a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// Remove a bare `--<flag>` from `args`, returning whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Causal-tracing options shared by `estimate` and `serve`
/// (`--trace-out <path>` plus its modifier flags).
struct TraceOpts {
    out: String,
    stride_ns: u64,
    deterministic: bool,
}

impl TraceOpts {
    fn from_args(args: &mut Vec<String>) -> Option<TraceOpts> {
        let stride_ns = take_flag_value(args, "--trace-stride-ns")
            .map(|v| {
                v.parse::<u64>().unwrap_or_else(|_| {
                    die(EXIT_USAGE, &format!("bad --trace-stride-ns value {v:?}"))
                })
            })
            .unwrap_or(0);
        let deterministic = take_flag(args, "--trace-deterministic");
        match take_flag_value(args, "--trace-out") {
            Some(out) => Some(TraceOpts {
                out,
                stride_ns,
                deterministic,
            }),
            None if stride_ns != 0 || deterministic => die(
                EXIT_USAGE,
                "--trace-stride-ns / --trace-deterministic require --trace-out",
            ),
            None => None,
        }
    }

    fn recorder(&self) -> TraceRecorder {
        TraceRecorder::new(DEFAULT_TRACE_CAPACITY)
    }

    /// Snapshot `recorder` and write it as Chrome trace-event JSON
    /// (deterministic view when `--trace-deterministic` was given).
    fn write(&self, recorder: &TraceRecorder) {
        let rec = recorder.snapshot();
        let json = if self.deterministic {
            rec.to_chrome_deterministic_json()
        } else {
            rec.to_chrome_json()
        };
        if let Err(e) = std::fs::write(&self.out, json) {
            eprintln!("warning: cannot write trace {}: {e}", self.out);
        } else {
            let dropped = if rec.dropped > 0 {
                format!(", {} dropped", rec.dropped)
            } else {
                String::new()
            };
            println!(
                "trace written to {} ({} events{dropped}); open at https://ui.perfetto.dev",
                self.out,
                rec.events.len()
            );
        }
    }
}

/// Write a metrics snapshot as JSON, best-effort with a visible warning.
fn write_snapshot(path: &str, snap: &MetricsSnapshot) {
    if let Err(e) = std::fs::write(path, snap.to_json()) {
        eprintln!("warning: cannot write metrics snapshot {path}: {e}");
    }
}

/// Route a typed pipeline error to the right exit family.
fn die_m3(e: &M3Error) -> ! {
    let code = match e {
        M3Error::InvalidSpec { .. } => EXIT_SPEC,
        _ => EXIT_FAULT,
    };
    die(code, &e.to_string())
}

fn invalid_spec(reason: String) -> M3Error {
    M3Error::InvalidSpec {
        stage: Stage::Validate,
        reason,
    }
}

fn example_spec() -> Spec {
    Spec {
        topology: TopoSpec::FatTreeSmall { oversub: 2 },
        workload: WorkloadSpec {
            n_flows: 20_000,
            matrix: "B".into(),
            sizes: "WebServer".into(),
            sigma: 1.0,
            max_load: 0.5,
        },
        config: ConfigSpec {
            cc: Some("dctcp".into()),
            init_window: Some(15_000),
            buffer_size: Some(400_000),
            pfc: Some(false),
        },
        methods: vec!["m3".into(), "parsimon".into(), "ns3".into()],
        paths: 100,
        model: Some("assets/m3-model.ckpt".into()),
        seed: 1,
    }
}

fn example_service_spec() -> ServiceSpec {
    let scenario = example_spec().scenario();
    let mut second = EstimateRequest::new(scenario.clone(), 100, 2);
    second.deadline_ms = Some(120_000);
    ServiceSpec {
        workers: 2,
        queue_capacity: 64,
        journal: Some("m3-serve.journal".into()),
        resume: false,
        registry: None,
        model: Some("assets/m3-model.ckpt".into()),
        retry: Some(RetryPolicy::default()),
        monitor: Some(MonitorSpec {
            status_out: "m3-monitor-status.json".into(),
            events_out: Some("m3-monitor-events.jsonl".into()),
            sample_every_ms: default_monitor_every_ms(),
            drift_sample: 0,
            drift_every: 0,
        }),
        requests: vec![EstimateRequest::new(scenario, 100, 1), second],
    }
}

fn example_session_spec() -> SessionSpec {
    let spec = example_spec();
    SessionSpec {
        topology: spec.topology,
        workload: spec.workload,
        config: spec.config,
        paths: 100,
        seed: 1,
        model: Some("assets/m3-model.ckpt".into()),
        journal: Some("m3-session.journal".into()),
        resume: false,
    }
}

fn example_cluster_spec() -> ClusterSpec {
    let scenario = example_spec().scenario();
    ClusterSpec {
        shards: 4,
        workers: 1,
        queue_capacity: 64,
        journal_dir: Some("m3-cluster-journal".into()),
        model: Some("assets/m3-model.ckpt".into()),
        retry: Some(RetryPolicy::default()),
        scatter_threshold: Some(64),
        scatter_chunk: 32,
        monitor: None,
        requests: vec![
            EstimateRequest::new(scenario.clone(), 100, 1),
            EstimateRequest::new(scenario, 100, 2),
        ],
    }
}

struct Materialized {
    topo: Topology,
    flows: Vec<FlowSpec>,
    config: SimConfig,
}

fn materialize(spec: &Spec) -> Materialized {
    let (topo, flows, config) = spec
        .scenario()
        .materialize(spec.seed)
        .unwrap_or_else(|e| die_m3(&e));
    Materialized {
        topo,
        flows,
        config,
    }
}

fn load_model(path: Option<&str>) -> M3Net {
    let path = path.unwrap_or("assets/m3-model.ckpt");
    m3::nn::checkpoint::load_file(path).unwrap_or_else(|e| {
        die(
            EXIT_FAULT,
            &format!(
                "cannot load model {path:?} ({e}); run `cargo run --release -p m3-bench --bin repro -- train` first"
            ),
        )
    })
}

fn report(name: &str, est: &NetworkEstimate, elapsed: std::time::Duration) {
    println!(
        "{name:>18}: p99 {:>8.2}   (p50 {:>6.2}, buckets p99 [{:.2}, {:.2}, {:.2}, {:.2}])   {:?}",
        est.p99(),
        est.overall_quantile(Percentile::P50),
        est.bucket_p99(0),
        est.bucket_p99(1),
        est.bucket_p99(2),
        est.bucket_p99(3),
        elapsed
    );
    let deg = &est.degradation;
    if !deg.is_clean() {
        eprintln!(
            "{:>18}  warning: degraded estimate — {}/{} samples fell back to \
             flowSim, {}/{} dropped ({} fault event(s))",
            "",
            deg.degraded_samples,
            deg.total_samples,
            deg.dropped_samples,
            deg.total_samples,
            deg.events.len()
        );
        for ev in &deg.events {
            eprintln!(
                "{:>18}    [{}/{}] scenario {}: {}",
                "", ev.stage, ev.fault, ev.scenario, ev.detail
            );
        }
    }
}

/// The estimators `m3 estimate` runs, by spec name.
const METHODS: [&str; 7] = [
    "m3",
    "flowsim",
    "global-flowsim",
    "parsimon",
    "parsimon-clustered",
    "ns3",
    "ns3-path",
];

fn run_estimate(spec: &Spec, metrics_out: Option<&str>, trace: Option<&TraceOpts>) {
    // Every name is checked before the first estimator runs.
    if let Some(m) = spec.methods.iter().find(|m| !METHODS.contains(&m.as_str())) {
        die_m3(&invalid_spec(format!("unknown method {m:?}")));
    }
    let m = materialize(spec);
    println!(
        "scenario: {} flows, {} nodes, {} links",
        m.flows.len(),
        m.topo.node_count(),
        m.topo.link_count()
    );
    // One registry across every method: the m3 pipeline absorbs its
    // per-call metrics into it, and the packet simulator records its
    // event/mark/drop counters directly.
    let registry = if metrics_out.is_some() {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::noop()
    };
    // Likewise one flight recorder (trace id 1) across every method; the
    // noop recorder keeps the trace plumbing free when --trace-out is off.
    let recorder = trace
        .map(|t| t.recorder())
        .unwrap_or_else(TraceRecorder::noop);
    let mut tctx = TraceCtx::new(recorder.clone(), 1);
    if let Some(t) = trace {
        tctx.probe_stride_ns = t.stride_ns;
    }
    for method in &spec.methods {
        let t = Instant::now();
        match method.as_str() {
            "m3" => {
                let est = M3Estimator::new(load_model(spec.model.as_deref()));
                let e = est
                    .try_estimate(
                        &m.topo,
                        &m.flows,
                        &m.config,
                        spec.paths,
                        spec.seed,
                        &EstimateOptions {
                            metrics: Some(registry.clone()),
                            trace: tctx.clone(),
                            ..EstimateOptions::default()
                        },
                    )
                    .unwrap_or_else(|e| die_m3(&e));
                report("m3", &e, t.elapsed());
            }
            "flowsim" => {
                let e = flowsim_estimate(&m.topo, &m.flows, &m.config, spec.paths, spec.seed);
                report("flowsim", &e, t.elapsed());
            }
            "global-flowsim" => {
                let e = global_flowsim_estimate(&m.topo, &m.flows, &m.config);
                report("global-flowsim", &e, t.elapsed());
            }
            "parsimon" => {
                let recs = parsimon_estimate(&m.topo, &m.flows, &m.config);
                let e = NetworkEstimate::aggregate(&[PathDistribution::from_samples(
                    &slowdown_samples(&recs),
                )]);
                report("parsimon", &e, t.elapsed());
            }
            "parsimon-clustered" => {
                let (recs, stats) = parsimon_estimate_clustered(&m.topo, &m.flows, &m.config);
                let e = NetworkEstimate::aggregate(&[PathDistribution::from_samples(
                    &slowdown_samples(&recs),
                )]);
                report("parsimon-clustered", &e, t.elapsed());
                println!(
                    "{:>18}  ({} of {} channels simulated)",
                    "", stats.simulated_channels, stats.total_channels
                );
            }
            "ns3" => {
                let mut sim = Simulator::new(&m.topo, m.config, m.flows.clone());
                if tctx.is_enabled() {
                    // Per-link queue/utilization/mark counter tracks,
                    // sampled over virtual time.
                    sim.set_trace_probe(tctx.root("ns3"), tctx.stride_ns());
                }
                let out = sim.run();
                out.record_into(&registry);
                let e = ground_truth_estimate(&out.records);
                report("ns3 (packet sim)", &e, t.elapsed());
            }
            "ns3-path" => {
                let e = ns3_path_estimate(&m.topo, &m.flows, &m.config, spec.paths, spec.seed);
                report("ns3-path", &e, t.elapsed());
            }
            _ => unreachable!("every method was checked against METHODS"),
        }
    }
    if let Some(path) = metrics_out {
        write_snapshot(path, &registry.snapshot());
        println!("metrics snapshot written to {path}");
    }
    if let Some(t) = trace {
        t.write(&recorder);
    }
}

fn run_sweep(spec: &Spec, knob_name: &str, values: &str) {
    let knob: Knob = knob_name.parse().unwrap_or_else(|e| die_m3(&e));
    let candidates: Vec<f64> = values
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .unwrap_or_else(|_| die(EXIT_USAGE, &format!("bad knob value {v:?}")))
        })
        .collect();
    let m = materialize(spec);
    let estimator = M3Estimator::new(load_model(spec.model.as_deref()));
    let t = Instant::now();
    let prepared = PreparedWorkload::prepare(&m.topo, &m.flows, &m.config, spec.paths, spec.seed)
        .unwrap_or_else(|e| die_m3(&e));
    println!("prepared {} paths in {:?}", spec.paths, t.elapsed());
    let t = Instant::now();
    let result = sweep_knob(&estimator, &prepared, &m.config, knob, &candidates, |e| {
        e.p99()
    });
    println!(
        "swept {} candidates in {:?}:",
        candidates.len(),
        t.elapsed()
    );
    for p in &result.points {
        println!(
            "  {knob_name} = {:>12.1}: overall p99 {:>7.2}, buckets [{:.2}, {:.2}, {:.2}, {:.2}]",
            p.value,
            p.overall_p99,
            p.bucket_p99[0],
            p.bucket_p99[1],
            p.bucket_p99[2],
            p.bucket_p99[3]
        );
    }
    println!(
        "best: {knob_name} = {:.1} (p99 {:.2})",
        result.best.value, result.best.overall_p99
    );
}

/// Build a [`Monitor`] from the spec's `monitor` sub-object (defaults for
/// SLOs and any zeroed drift knob).
fn build_monitor(spec: &MonitorSpec) -> Monitor {
    let defaults = DriftConfig::default();
    let config = MonitorConfig {
        slos: Vec::new(), // default SLO set
        drift: Some(DriftConfig {
            sample: if spec.drift_sample == 0 {
                defaults.sample
            } else {
                spec.drift_sample
            },
            every: if spec.drift_every == 0 {
                defaults.every
            } else {
                spec.drift_every
            },
        }),
        events_out: spec.events_out.clone().map(Into::into),
        status_out: Some(spec.status_out.clone().into()),
    };
    Monitor::new(config).unwrap_or_else(|e| die(EXIT_USAGE, &format!("start monitor: {e}")))
}

/// Validate every request's scenario up front so a typo'd batch dies with
/// a spec error before any job is journaled.
fn check_requests(requests: &[EstimateRequest]) {
    for (i, req) in requests.iter().enumerate() {
        if let Err(e) = req.scenario.materialize(req.seed) {
            eprintln!("error: request {i} is invalid");
            die_m3(&e);
        }
    }
}

/// The batch driver of `m3 serve` and `m3 cluster` (`name` is `service` or
/// `cluster`): submit `requests` but the first `skip`, then wait for the
/// batch to drain in short slices, sampling the spec's monitor between
/// slices (tick = sample index, so evaluation is deterministic in the
/// number of samples, not wall time) and once after the drain, whose
/// report is printed. Dies if the batch has not settled within 1 h.
/// Returns the ids of the submitted jobs.
fn drive_batch(
    name: &str,
    source: &impl MonitorSource,
    requests: &[EstimateRequest],
    skip: usize,
    monitor: Option<&MonitorSpec>,
    submit: impl Fn(EstimateRequest) -> Result<u64, SubmitError>,
    wait_idle: impl Fn(Duration) -> bool,
) -> Vec<u64> {
    let mut ids = Vec::new();
    for (i, req) in requests.iter().enumerate().skip(skip) {
        match submit(req.clone()) {
            Ok(id) => ids.push(id),
            Err(SubmitError::QueueFull { capacity }) => {
                eprintln!("request {i}: shed at submit (queue full, {capacity} slots)");
            }
            Err(e) => die(EXIT_FAULT, &format!("request {i}: {e}")),
        }
    }

    let every = Duration::from_millis(monitor.map_or(1, |m| m.sample_every_ms.max(1)));
    let mut monitor = monitor.map(build_monitor);
    let deadline = Instant::now() + Duration::from_secs(3600);
    let mut tick = 0u64;
    let idle = loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break false;
        }
        let idle = wait_idle(if monitor.is_some() {
            every.min(remaining)
        } else {
            remaining
        });
        if let Some(mon) = monitor.as_mut() {
            tick += 1;
            if let Err(e) = mon.sample(source, tick) {
                eprintln!("warning: monitor sample failed: {e}");
            }
        }
        if idle {
            break true;
        }
    };
    if let Some(mon) = monitor.as_mut() {
        match mon.sample(source, tick + 1) {
            Ok(report) => print!("{}", render_report(&report)),
            Err(e) => eprintln!("warning: monitor sample failed: {e}"),
        }
    }
    if !idle {
        die(
            EXIT_FAULT,
            &format!("{name} did not settle all jobs within 1 h"),
        );
    }
    ids
}

/// Print the outcome of each job in `ids`: estimates on stdout, failures
/// and sheds on stderr. Returns how many failed or have no outcome.
fn report_outcomes(
    name: &str,
    ids: impl IntoIterator<Item = u64>,
    outcome: impl Fn(u64) -> Option<JobOutcome>,
) -> u64 {
    let report_job = |id: u64, attempts: u32, estimate: &NetworkEstimate| {
        let took = Duration::from_secs_f64(estimate.timings.total_s());
        report(&format!("job {id} ({attempts} att)"), estimate, took);
    };
    let mut failed = 0u64;
    for id in ids {
        match outcome(id) {
            Some(JobOutcome::Completed { estimate, attempts }) => {
                report_job(id, attempts, &estimate);
            }
            Some(JobOutcome::Degraded {
                estimate,
                attempts,
                via_breaker,
            }) => {
                report_job(id, attempts, &estimate);
                println!(
                    "{:>18}  degraded{}",
                    "",
                    if via_breaker {
                        " via open circuit breaker (flowSim-only path)"
                    } else {
                        ""
                    }
                );
            }
            Some(JobOutcome::Failed { error, attempts }) => {
                eprintln!("job {id}: FAILED after {attempts} attempt(s): {error}");
                failed += 1;
            }
            Some(JobOutcome::Shed { reason }) => {
                eprintln!("job {id}: shed ({reason})");
            }
            None => {
                eprintln!("job {id}: no terminal outcome ({name} bug)");
                failed += 1;
            }
        }
    }
    failed
}

/// The service start-up of `m3 serve` and `m3 session`: journal-less, or
/// journaling to a fresh `journal`, or with `resume` replaying it (a model
/// the journal hot-swapped in is re-installed from `registry`). Returns the
/// replay of a resumed journal.
fn start_service(
    estimator: M3Estimator,
    config: ServiceConfig,
    journal: Option<&str>,
    resume: bool,
    registry: Option<&str>,
) -> (Service, Option<Replay>) {
    match (journal, resume) {
        (Some(path), true) => {
            let registry = registry.map(|root| {
                ModelRegistry::open(root)
                    .unwrap_or_else(|e| die(EXIT_USAGE, &format!("open registry {root}: {e}")))
            });
            let (svc, replay) = Service::resume(estimator, config, path, registry.as_ref())
                .unwrap_or_else(|e| die(EXIT_USAGE, &format!("resume journal {path}: {e}")));
            (svc, Some(replay))
        }
        (Some(path), false) => (
            Service::start_journaled(estimator, config, path)
                .unwrap_or_else(|e| die(EXIT_USAGE, &format!("create journal {path}: {e}"))),
            None,
        ),
        (None, true) => die(EXIT_USAGE, "\"resume\": true requires a \"journal\" path"),
        (None, false) => (Service::start(estimator, config), None),
    }
}

fn run_serve(spec: &ServiceSpec, metrics_out: Option<&str>, trace: Option<&TraceOpts>) {
    check_requests(&spec.requests);
    let estimator = M3Estimator::new(load_model(spec.model.as_deref()));
    let recorder = trace
        .map(|t| t.recorder())
        .unwrap_or_else(TraceRecorder::noop);
    let config = ServiceConfig {
        workers: spec.workers,
        queue_capacity: spec.queue_capacity,
        retry: spec.retry.unwrap_or_default(),
        metrics_out: metrics_out.map(Into::into),
        trace: recorder.clone(),
        trace_stride_ns: trace.map(|t| t.stride_ns).unwrap_or(0),
        ..ServiceConfig::default()
    };
    let journal = spec.journal.as_deref();
    let (svc, replay) = start_service(
        estimator,
        config,
        journal,
        spec.resume,
        spec.registry.as_deref(),
    );

    // On resume, requests the journal already accepted are not re-submitted
    // (they either settled or are being replayed); only the tail of the
    // batch is new work.
    let mut already_accepted = 0;
    if let Some(replay) = replay {
        println!(
            "resumed journal {}: {} accepted, {} settled, {} pending{}",
            journal.unwrap_or_default(),
            replay.accepted.len(),
            replay.settled(),
            replay.pending().len(),
            if replay.truncated_tail {
                " (torn tail truncated)"
            } else {
                ""
            }
        );
        if let Some((version, fingerprint)) = replay.active_model {
            println!("active model from journal: v{version} ({fingerprint:#018x})");
        }
        already_accepted = replay.accepted.len();
    }

    drive_batch(
        "service",
        &svc,
        &spec.requests,
        already_accepted,
        spec.monitor.as_ref(),
        |req| svc.submit(req),
        |d| svc.wait_idle(d),
    );
    let failed = report_outcomes("service", 0..svc.stats().accepted, |id| svc.outcome(id));

    // After the outcomes: a resumed decision is recomputed when read.
    let stats = svc.stats();
    svc.shutdown();
    match serde_json::to_string_pretty(&stats) {
        Ok(s) => println!("{s}"),
        Err(e) => eprintln!("stats serialization failed: {e}"),
    }
    if let Some(path) = metrics_out {
        println!("metrics snapshot written to {path}");
    }
    if let Some(t) = trace {
        t.write(&recorder);
    }
    if failed > 0 {
        die(EXIT_FAULT, &format!("{failed} job(s) failed"));
    }
}

/// `m3 session <spec.json>`: open the scenario as an incremental session
/// and drive it with line-delimited [`ScenarioDelta`] JSON from stdin,
/// printing one JSON result line per update. Blank lines and `#` comments
/// are skipped; `close` or EOF ends the session.
fn run_session(spec: &SessionSpec, metrics_out: Option<&str>) {
    use std::io::BufRead;

    /// One stdout line of the session protocol (`event` is `open` or
    /// `update`).
    #[derive(Default, Serialize)]
    struct SessionLine {
        event: &'static str,
        ok: bool,
        #[serde(skip_serializing_if = "Option::is_none")]
        session: Option<u64>,
        #[serde(skip_serializing_if = "Option::is_none")]
        resumed: Option<bool>,
        #[serde(skip_serializing_if = "Option::is_none")]
        seq: Option<u64>,
        #[serde(skip_serializing_if = "Option::is_none")]
        total_paths: Option<usize>,
        #[serde(skip_serializing_if = "Option::is_none")]
        dirty_paths: Option<usize>,
        #[serde(skip_serializing_if = "Option::is_none")]
        reused_paths: Option<usize>,
        #[serde(skip_serializing_if = "Option::is_none")]
        structural: Option<bool>,
        #[serde(skip_serializing_if = "Option::is_none")]
        p50: Option<f64>,
        #[serde(skip_serializing_if = "Option::is_none")]
        p99: Option<f64>,
        #[serde(skip_serializing_if = "Option::is_none")]
        elapsed_ms: Option<f64>,
        #[serde(skip_serializing_if = "Option::is_none")]
        error: Option<String>,
    }

    impl SessionLine {
        fn emit(&self) {
            match serde_json::to_string(self) {
                Ok(s) => println!("{s}"),
                Err(e) => eprintln!("warning: serialize result line: {e}"),
            }
        }
    }

    let scenario = ScenarioSpec {
        topology: spec.topology.clone(),
        workload: spec.workload.clone(),
        config: spec.config.clone(),
    };
    if let Err(e) = scenario.materialize(spec.seed) {
        die_m3(&e);
    }
    let estimator = M3Estimator::new(load_model(spec.model.as_deref()));
    let config = ServiceConfig {
        workers: 0,
        metrics_out: metrics_out.map(Into::into),
        ..ServiceConfig::default()
    };
    let request = OpenSessionRequest::new(scenario, spec.paths, spec.seed);
    let journal = spec.journal.as_deref();
    let (svc, replay) = start_service(estimator, config, journal, spec.resume, None);
    let adopted = replay.and_then(|replay| {
        let path = journal.unwrap_or_default();
        let adopted = svc.open_sessions().into_iter().next_back();
        match adopted {
            Some(id) => eprintln!(
                "resumed journal {path}: re-adopted session {id} ({} replayed delta(s))",
                replay
                    .sessions
                    .get(&id)
                    .map(|s| s.deltas.len())
                    .unwrap_or(0)
            ),
            None => eprintln!("resumed journal {path}: no live session, opening a new one"),
        }
        adopted
    });

    let t = Instant::now();
    let mut open_line = SessionLine {
        event: "open",
        ok: true,
        ..SessionLine::default()
    };
    let id = match adopted {
        Some(id) => {
            let est = svc
                .session_estimate(id)
                .unwrap_or_else(|| die(EXIT_FAULT, "re-adopted session has no estimate"));
            open_line.resumed = Some(true);
            open_line.p50 = Some(est.overall_quantile(Percentile::P50));
            open_line.p99 = Some(est.p99());
            id
        }
        None => {
            let (id, u) = svc.open_session(request).unwrap_or_else(|e| match e {
                SessionError::Estimate(ref err) => die_m3(err),
                other => die(EXIT_FAULT, &other.to_string()),
            });
            open_line.resumed = Some(false);
            open_line.total_paths = Some(u.total_paths);
            open_line.p50 = Some(u.estimate.overall_quantile(Percentile::P50));
            open_line.p99 = Some(u.estimate.p99());
            id
        }
    };
    open_line.session = Some(id);
    open_line.elapsed_ms = Some(t.elapsed().as_secs_f64() * 1e3);
    open_line.emit();

    let mut seq: u64 = 0;
    for input in std::io::stdin().lock().lines() {
        let input = input.unwrap_or_else(|e| die(EXIT_USAGE, &format!("read stdin: {e}")));
        let input = input.trim();
        if input.is_empty() || input.starts_with('#') {
            continue;
        }
        if input == "close" {
            break;
        }
        seq += 1;
        let mut line = SessionLine {
            event: "update",
            seq: Some(seq),
            ..SessionLine::default()
        };
        let delta: ScenarioDelta = match serde_json::from_str(input) {
            Ok(d) => d,
            Err(e) => {
                line.error = Some(format!("parse delta: {e}"));
                line.emit();
                continue;
            }
        };
        let t = Instant::now();
        match svc.apply_delta(id, &delta) {
            Ok(u) => {
                line.ok = true;
                line.dirty_paths = Some(u.dirty_paths);
                line.reused_paths = Some(u.reused_paths);
                line.total_paths = Some(u.total_paths);
                line.structural = Some(u.structural);
                line.p50 = Some(u.estimate.overall_quantile(Percentile::P50));
                line.p99 = Some(u.estimate.p99());
                line.elapsed_ms = Some(t.elapsed().as_secs_f64() * 1e3);
            }
            Err(e) => line.error = Some(e.to_string()),
        }
        line.emit();
    }
    let stats = svc.stats();
    if let Err(e) = svc.close_session(id) {
        eprintln!("warning: close session {id}: {e}");
    }
    svc.shutdown();
    eprintln!("session {id}: {} update(s) applied", stats.session_updates);
}

fn run_cluster(spec: &ClusterSpec, metrics_out: Option<&str>) {
    if spec.shards == 0 {
        die(EXIT_USAGE, "\"shards\" must be at least 1");
    }
    check_requests(&spec.requests);

    let config = ClusterConfig {
        shards: spec.shards,
        shard: ServiceConfig {
            workers: spec.workers,
            queue_capacity: spec.queue_capacity,
            retry: spec.retry.unwrap_or_default(),
            ..ServiceConfig::default()
        },
        journal_dir: spec.journal_dir.as_ref().map(Into::into),
        scatter_threshold: spec.scatter_threshold.unwrap_or(usize::MAX),
        scatter_chunk: spec.scatter_chunk.max(1),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(load_model(spec.model.as_deref()), config)
        .unwrap_or_else(|e| die(EXIT_USAGE, &format!("start cluster: {e}")));

    let ids = drive_batch(
        "cluster",
        &cluster,
        &spec.requests,
        0,
        spec.monitor.as_ref(),
        |req| cluster.submit(req),
        |d| cluster.wait_idle(d),
    );
    let failed = report_outcomes("cluster", ids, |id| cluster.outcome(id));

    let stats = cluster.stats();
    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(path, cluster.merged_metrics().to_json()) {
            eprintln!("warning: cannot write merged metrics {path}: {e}");
        } else {
            println!("merged cluster metrics written to {path}");
        }
    }
    cluster.shutdown();
    match serde_json::to_string_pretty(&stats) {
        Ok(s) => println!("{s}"),
        Err(e) => eprintln!("stats serialization failed: {e}"),
    }
    if failed > 0 {
        die(EXIT_FAULT, &format!("{failed} job(s) failed"));
    }
}

/// Input to `m3 train`: training hyper-parameters plus where to save the
/// checkpoint.
#[derive(Debug, Serialize, Deserialize)]
struct TrainSpec {
    #[serde(default)]
    train: TrainConfig,
    /// Checkpoint output path.
    #[serde(default = "default_model_out")]
    model_out: String,
}

fn default_model_out() -> String {
    "assets/m3-model.ckpt".into()
}

fn example_train_spec() -> TrainSpec {
    TrainSpec {
        train: TrainConfig::default(),
        model_out: default_model_out(),
    }
}

/// The training half of `m3 train` and `m3 retrain-publish`: build the
/// spec's dataset and train on it, printing the dataset size, the build
/// time and the training summary. The returned registry is live only when
/// `metrics_out` is set.
fn train_model(spec: &TrainSpec, metrics_out: Option<&str>) -> (M3Net, MetricsRegistry) {
    let t = Instant::now();
    println!(
        "building dataset: {} scenarios ({} fg + {} bg flows each)...",
        spec.train.n_scenarios, spec.train.fg_flows, spec.train.bg_flows
    );
    let dataset = build_dataset(&spec.train);
    println!("dataset built in {:?}", t.elapsed());

    let registry = if metrics_out.is_some() {
        MetricsRegistry::new()
    } else {
        MetricsRegistry::noop()
    };
    let t = Instant::now();
    let (net, report) =
        try_train_with_metrics(&spec.train, &dataset, &registry).unwrap_or_else(|e| die_m3(&e));
    println!(
        "trained {} epochs in {:?}: train loss {:.4} -> {:.4}, val loss {:.4}",
        spec.train.epochs,
        t.elapsed(),
        report.train_loss.first().copied().unwrap_or(f64::NAN),
        report.train_loss.last().copied().unwrap_or(f64::NAN),
        report.val_loss.last().copied().unwrap_or(f64::NAN),
    );
    (net, registry)
}

fn run_train(spec: &TrainSpec, metrics_out: Option<&str>) {
    let (net, registry) = train_model(spec, metrics_out);
    if let Err(e) = m3::nn::checkpoint::save_file(&net, spec.train.seed, &spec.model_out) {
        die(
            EXIT_FAULT,
            &format!("cannot save checkpoint {:?}: {e}", spec.model_out),
        );
    }
    println!("checkpoint saved to {}", spec.model_out);
    if let Some(path) = metrics_out {
        write_snapshot(path, &registry.snapshot());
        println!("metrics snapshot written to {path}");
    }
}

/// `m3 retrain-publish <train-spec.json> <registry-root>`: train a
/// candidate and publish it to the model registry with lineage pointing at
/// the current latest version. The checkpoint goes only into the registry
/// — nothing serves it until a swap coordinator promotes it through the
/// shadow gate (`m3_serve::swap`).
fn run_retrain_publish(spec: &TrainSpec, root: &str, note: &str, metrics_out: Option<&str>) {
    let registry = ModelRegistry::open(root)
        .unwrap_or_else(|e| die(EXIT_USAGE, &format!("open registry {root}: {e}")));
    let parent = registry
        .resolve(ModelRef::Latest)
        .ok()
        .map(|e| e.fingerprint);
    let (net, metrics) = train_model(spec, metrics_out);
    let entry = registry
        .publish(
            &net,
            spec.train.seed,
            Lineage {
                parent,
                source: "m3 retrain-publish".into(),
                note: note.into(),
                train_seed: spec.train.seed,
            },
        )
        .unwrap_or_else(|e| die(EXIT_FAULT, &format!("publish to {root}: {e}")));
    println!(
        "published v{} ({:#018x}, {} bytes) to {root}{}",
        entry.version,
        entry.fingerprint,
        entry.bytes,
        match parent {
            Some(p) => format!(", parent {p:#018x}"),
            None => ", first version".into(),
        }
    );
    if let Some(path) = metrics_out {
        write_snapshot(path, &metrics.snapshot());
        println!("metrics snapshot written to {path}");
    }
}

/// `m3 registry <root> [ref]`: list the registry's versions, or resolve
/// one `latest | v<N> | fp:<hex>` ref and print its manifest entry.
fn run_registry(root: &str, model_ref: Option<&str>) {
    let registry = ModelRegistry::open(root)
        .unwrap_or_else(|e| die(EXIT_USAGE, &format!("open registry {root}: {e}")));
    match model_ref {
        Some(s) => {
            let r: ModelRef = s
                .parse()
                .unwrap_or_else(|e| die(EXIT_USAGE, &format!("bad model ref {s:?}: {e}")));
            let entry = registry
                .resolve(r)
                .unwrap_or_else(|e| die(EXIT_USAGE, &format!("resolve {s}: {e}")));
            match serde_json::to_string_pretty(&entry) {
                Ok(j) => println!("{j}"),
                Err(e) => die(EXIT_FAULT, &format!("serialize entry: {e}")),
            }
        }
        None => {
            let versions = registry
                .versions()
                .unwrap_or_else(|e| die(EXIT_USAGE, &format!("read manifest: {e}")));
            if versions.is_empty() {
                println!("registry {root}: empty");
                return;
            }
            for v in &versions {
                println!(
                    "v{:<5} {:#018x}  {:>9} bytes  seed {:<6} {}{}",
                    v.version,
                    v.fingerprint,
                    v.bytes,
                    v.lineage.train_seed,
                    if v.lineage.source.is_empty() {
                        "-".to_string()
                    } else {
                        v.lineage.source.clone()
                    },
                    if registry.is_quarantined(v) {
                        "  [QUARANTINED]"
                    } else {
                        ""
                    },
                );
            }
        }
    }
}

/// `m3 trace <file>`: summarize an exported Chrome trace-event file —
/// event counts, counter tracks, and the slowest spans.
fn run_trace(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(EXIT_USAGE, &format!("read {path}: {e}")));
    let summary = summarize_chrome_json(&text)
        .unwrap_or_else(|e| die(EXIT_USAGE, &format!("parse {path}: {e}")));
    print!("{}", render_trace_summary(&summary));
}

/// `m3 monitor <status.json>`: render the latest [`MonitorReport`] a
/// monitored `m3 serve`/`m3 cluster` run keeps rewriting. `--follow`
/// re-renders every `--every` ms; `--prometheus` instead treats the file
/// as a [`MetricsSnapshot`] and prints Prometheus text exposition.
fn run_monitor(path: &str, follow: bool, every_ms: u64, prometheus: bool) {
    if prometheus {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(EXIT_USAGE, &format!("read {path}: {e}")));
        let snap = MetricsSnapshot::from_json(&text)
            .unwrap_or_else(|e| die(EXIT_USAGE, &format!("parse {path}: {e}")));
        print!("{}", render_prometheus(&snap));
        return;
    }
    loop {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(EXIT_USAGE, &format!("read {path}: {e}")));
        let report = MonitorReport::from_json(&text)
            .unwrap_or_else(|e| die(EXIT_USAGE, &format!("parse {path}: {e}")));
        print!("{}", render_report(&report));
        if !follow {
            return;
        }
        println!("---");
        std::thread::sleep(Duration::from_millis(every_ms.max(1)));
    }
}

fn run_stats(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(EXIT_USAGE, &format!("read {path}: {e}")));
    let snap = MetricsSnapshot::from_json(&text)
        .unwrap_or_else(|e| die(EXIT_USAGE, &format!("parse {path}: {e}")));
    print!("{}", render_snapshot(&snap));
}

/// Print `value` as pretty JSON (the `example-*` templates).
fn print_json<T: Serialize>(value: &T) {
    match serde_json::to_string_pretty(value) {
        Ok(s) => println!("{s}"),
        Err(e) => die(EXIT_FAULT, &format!("serialize example spec: {e}")),
    }
}

/// Read and parse the spec file named by `args[2]`; `usage` is the
/// command's usage line, printed when the argument is missing.
fn read_spec<T: Deserialize>(args: &[String], usage: &str) -> T {
    let path = args
        .get(2)
        .unwrap_or_else(|| die(EXIT_USAGE, &format!("usage: m3 {usage}")));
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(EXIT_USAGE, &format!("read {path}: {e}")));
    serde_json::from_str(&text).unwrap_or_else(|e| die(EXIT_USAGE, &format!("parse {path}: {e}")))
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let metrics_out = take_flag_value(&mut args, "--metrics-out");
    let metrics_out = metrics_out.as_deref();
    let trace_opts = TraceOpts::from_args(&mut args);
    match args.get(1).map(|s| s.as_str()) {
        Some("example-spec") => print_json(&example_spec()),
        Some("example-service-spec") => print_json(&example_service_spec()),
        Some("example-cluster-spec") => print_json(&example_cluster_spec()),
        Some("example-session-spec") => print_json(&example_session_spec()),
        Some("example-train-spec") => print_json(&example_train_spec()),
        Some("estimate") => run_estimate(
            &read_spec(&args, "estimate <spec.json>"),
            metrics_out,
            trace_opts.as_ref(),
        ),
        Some("sweep") => {
            let usage = "sweep <spec.json> <knob> <v1,v2,...>";
            if args.len() < 5 {
                die(EXIT_USAGE, &format!("usage: m3 {usage}"));
            }
            run_sweep(&read_spec(&args, usage), &args[3], &args[4]);
        }
        Some("serve") => run_serve(
            &read_spec(&args, "serve <service-spec.json>"),
            metrics_out,
            trace_opts.as_ref(),
        ),
        Some("session") => run_session(
            &read_spec(&args, "session <session-spec.json>"),
            metrics_out,
        ),
        Some("cluster") => run_cluster(
            &read_spec(&args, "cluster <cluster-spec.json>"),
            metrics_out,
        ),
        Some("train") => run_train(&read_spec(&args, "train <train-spec.json>"), metrics_out),
        Some("retrain-publish") => {
            let note = take_flag_value(&mut args, "--note").unwrap_or_default();
            let usage = "retrain-publish <train-spec.json> <registry-root> [--note <text>]";
            if args.len() < 4 {
                die(EXIT_USAGE, &format!("usage: m3 {usage}"));
            }
            run_retrain_publish(&read_spec(&args, usage), &args[3], &note, metrics_out);
        }
        Some("registry") => {
            let root = args.get(2).unwrap_or_else(|| {
                die(
                    EXIT_USAGE,
                    "usage: m3 registry <root> [latest|v<N>|fp:<hex>]",
                )
            });
            run_registry(root, args.get(3).map(|s| s.as_str()));
        }
        Some("stats") => {
            let path = args
                .get(2)
                .unwrap_or_else(|| die(EXIT_USAGE, "usage: m3 stats <snapshot.json>"));
            run_stats(path);
        }
        Some("monitor") => {
            let follow = take_flag(&mut args, "--follow");
            let prometheus = take_flag(&mut args, "--prometheus");
            let every_ms = take_flag_value(&mut args, "--every")
                .map(|v| {
                    v.parse()
                        .unwrap_or_else(|_| die(EXIT_USAGE, &format!("bad --every value {v:?}")))
                })
                .unwrap_or(1000);
            let path = args.get(2).unwrap_or_else(|| {
                die(
                    EXIT_USAGE,
                    "usage: m3 monitor <status.json> [--follow [--every <ms>]] | \
                     m3 monitor <snapshot.json> --prometheus",
                )
            });
            run_monitor(path, follow, every_ms, prometheus);
        }
        Some("trace") => {
            let path = args
                .get(2)
                .unwrap_or_else(|| die(EXIT_USAGE, "usage: m3 trace <trace.json>"));
            run_trace(path);
        }
        _ => {
            eprintln!(
                "usage: m3 <example-spec | estimate <spec.json> | sweep <spec.json> <knob> <values> | example-service-spec | serve <service-spec.json> | example-session-spec | session <session-spec.json> | example-cluster-spec | cluster <cluster-spec.json> | example-train-spec | train <train-spec.json> | retrain-publish <train-spec.json> <registry-root> [--note <text>] | registry <root> [ref] | stats <snapshot.json> | monitor <status.json> [--follow [--every <ms>]] [--prometheus] | trace <trace.json>> [--metrics-out <path>] [--trace-out <path> [--trace-stride-ns <ns>] [--trace-deterministic]]"
            );
            std::process::exit(EXIT_USAGE);
        }
    }
}
