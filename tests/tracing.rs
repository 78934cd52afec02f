//! Causal-tracing integration suite: the flight recorder captures the full
//! pipeline span tree and simulator counter tracks, never perturbs the
//! estimates it observes, exports byte-identical deterministic traces for
//! a fixed seed, and correlates service traces with journal entries.

use m3::core::prelude::*;
use m3::netsim::prelude::*;
use m3::nn::prelude::{M3Net, ModelConfig};
use m3::serve::prelude::*;
use m3::telemetry::{summarize_chrome_json, TraceCtx, TraceEventKind, TraceRecorder};
use m3::workload::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

/// Probe stride wide enough (1 ms of virtual time) that small scenarios
/// stay far from ring overflow, which would break determinism.
const STRIDE_NS: u64 = 1_000_000;

fn untrained_estimator() -> M3Estimator {
    let cfg = ModelConfig {
        embed: 16,
        heads: 2,
        layers: 1,
        ff_hidden: 16,
        mlp_hidden: 32,
        ..ModelConfig::repro_default(SPEC_DIM)
    };
    M3Estimator::new(M3Net::new(cfg, 3))
}

fn small_workload(seed: u64) -> (FatTree, Vec<FlowSpec>, SimConfig) {
    let ft = FatTree::build(FatTreeSpec::small(2));
    let routing = Routing::new(&ft.topo);
    let w = generate(
        &ft,
        &routing,
        &Scenario {
            n_flows: 1_500,
            matrix_name: "A".into(),
            sizes: SizeDistribution::web_server(),
            sigma: 1.0,
            max_load: 0.4,
            seed,
        },
    );
    (ft.clone(), w.flows, SimConfig::default())
}

fn traced_options(recorder: &TraceRecorder, trace_id: u64) -> EstimateOptions {
    let mut ctx = TraceCtx::new(recorder.clone(), trace_id);
    ctx.probe_stride_ns = STRIDE_NS;
    EstimateOptions {
        trace: ctx,
        ..EstimateOptions::default()
    }
}

#[test]
fn traced_estimate_has_full_span_tree_and_counter_tracks() {
    let (ft, flows, cfg) = small_workload(11);
    let est = untrained_estimator();
    let recorder = TraceRecorder::new(1 << 20);
    est.try_estimate(&ft.topo, &flows, &cfg, 8, 7, &traced_options(&recorder, 1))
        .unwrap();

    let rec = recorder.snapshot();
    assert_eq!(rec.dropped, 0, "ring overflowed; widen stride or capacity");
    let json = rec.to_chrome_json();
    for stage in [
        "\"estimate\"",
        "\"decompose\"",
        "\"sample\"",
        "\"flowsim\"",
        "\"slot\"",
        "\"features\"",
        "\"forward\"",
        "\"aggregate\"",
    ] {
        assert!(json.contains(stage), "missing stage span {stage}");
    }
    let summary = summarize_chrome_json(&json).unwrap();
    assert_eq!(summary.traces, vec![1]);
    assert!(summary.span_count >= 8, "spans: {}", summary.span_count);
    assert!(
        summary
            .counter_tracks
            .iter()
            .any(|(name, n)| name == "flowsim.active_flows" && *n > 0),
        "missing flowsim.active_flows track: {:?}",
        summary.counter_tracks
    );
    assert!(
        summary
            .counter_tracks
            .iter()
            .any(|(name, n)| name.starts_with("flowsim.util.h") && *n > 0),
        "missing per-link utilization tracks: {:?}",
        summary.counter_tracks
    );
}

#[test]
fn tracing_does_not_perturb_the_estimate() {
    let (ft, flows, cfg) = small_workload(13);
    let est = untrained_estimator();
    let plain = est
        .try_estimate(&ft.topo, &flows, &cfg, 8, 3, &EstimateOptions::default())
        .unwrap();
    let recorder = TraceRecorder::new(1 << 20);
    let traced = est
        .try_estimate(&ft.topo, &flows, &cfg, 8, 3, &traced_options(&recorder, 1))
        .unwrap();
    assert_eq!(plain.p99().to_bits(), traced.p99().to_bits());
    for b in 0..4 {
        assert_eq!(
            plain.bucket_p99(b).to_bits(),
            traced.bucket_p99(b).to_bits(),
            "bucket {b}"
        );
    }
    assert!(recorder.snapshot().events.len() > 8);
}

#[test]
fn deterministic_exports_are_byte_identical_across_runs() {
    let (ft, flows, cfg) = small_workload(17);
    let export = |_: u32| {
        let est = untrained_estimator();
        let recorder = TraceRecorder::new(1 << 20);
        est.try_estimate(&ft.topo, &flows, &cfg, 8, 5, &traced_options(&recorder, 1))
            .unwrap();
        let rec = recorder.snapshot();
        assert_eq!(rec.dropped, 0, "overflow would break determinism");
        rec.to_chrome_deterministic_json()
    };
    let a = export(0);
    let b = export(1);
    assert_eq!(a, b, "deterministic exports differ between runs");
    // The deterministic view is flagged like MetricsSnapshot's
    // deterministic_view, and keeps virtual-time counter samples.
    assert!(a.contains("\"deterministic\":\"true\""));
    let summary = summarize_chrome_json(&a).unwrap();
    assert!(summary.deterministic);
    assert!(summary.counter_count > 0);
}

fn scenario(n_flows: usize) -> ScenarioSpec {
    ScenarioSpec {
        topology: TopoSpec::FatTreeSmall { oversub: 2 },
        workload: WorkloadSpec {
            n_flows,
            matrix: "B".into(),
            sizes: "WebServer".into(),
            sigma: 1.0,
            max_load: 0.4,
        },
        config: ConfigSpec::default(),
    }
}

fn tmpjournal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("m3-tracing-{}-{name}.journal", std::process::id()));
    p
}

#[test]
fn serve_trace_ids_match_journal_entries() {
    let path = tmpjournal("correlate");
    let recorder = TraceRecorder::new(1 << 20);
    let config = ServiceConfig {
        workers: 1,
        trace: recorder.clone(),
        trace_stride_ns: STRIDE_NS,
        ..ServiceConfig::default()
    };
    let svc = Service::start_journaled(untrained_estimator(), config, &path).unwrap();
    let id0 = svc
        .submit(EstimateRequest::new(scenario(400), 4, 1))
        .unwrap();
    let id1 = svc
        .submit(EstimateRequest::new(scenario(400), 4, 2))
        .unwrap();
    assert!(svc.wait_idle(Duration::from_secs(180)));
    svc.shutdown();

    // The journal's Accepted records carry the same trace ids the exported
    // trace uses as pids — the post-crash correlation path.
    let (_j, replay) = Journal::open(&path).unwrap();
    assert_eq!(replay.trace_ids.get(&id0), Some(&trace_id_for(id0)));
    assert_eq!(replay.trace_ids.get(&id1), Some(&trace_id_for(id1)));

    let summary = summarize_chrome_json(&recorder.snapshot().to_chrome_json()).unwrap();
    assert!(summary.traces.contains(&trace_id_for(id0)), "{summary:?}");
    assert!(summary.traces.contains(&trace_id_for(id1)), "{summary:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_served_memo_miss_traces_its_prepare_half_and_a_hit_does_not() {
    let recorder = TraceRecorder::new(1 << 20);
    let config = ServiceConfig {
        workers: 1,
        trace: recorder.clone(),
        trace_stride_ns: STRIDE_NS,
        ..ServiceConfig::default()
    };
    let svc = Service::start(untrained_estimator(), config);
    // One worker: the repeat is picked up after the first has filled the
    // memo.
    let miss = svc
        .submit(EstimateRequest::new(scenario(400), 4, 1))
        .unwrap();
    assert!(svc.wait_idle(Duration::from_secs(180)));
    let hit = svc
        .submit(EstimateRequest::new(scenario(400), 4, 1))
        .unwrap();
    assert!(svc.wait_idle(Duration::from_secs(180)));
    svc.shutdown();

    let events = recorder.snapshot().events;
    // (span, parent, name) of each span the job's trace opened.
    let spans = |job: u64| -> Vec<(u64, u64, &'static str)> {
        (events.iter())
            .filter(|e| e.trace == trace_id_for(job))
            .filter_map(|e| match e.kind {
                TraceEventKind::Begin { name } => Some((e.span, e.parent, name)),
                _ => None,
            })
            .collect()
    };
    let memo = |job: u64| {
        (events.iter())
            .filter(|e| e.trace == trace_id_for(job))
            .find_map(|e| match &e.kind {
                TraceEventKind::Instant { name, detail } if *name == "prepared" => {
                    Some(detail.clone())
                }
                _ => None,
            })
    };
    assert_eq!(memo(miss).as_deref(), Some("memo miss"));
    assert_eq!(memo(hit).as_deref(), Some("memo hit"));

    let missed = spans(miss);
    let prepare = (missed.iter())
        .find(|s| s.2 == "prepare")
        .unwrap_or_else(|| panic!("no prepare span in the miss's trace: {missed:?}"));
    for stage in ["decompose", "sample"] {
        assert!(
            (missed.iter()).any(|s| s.2 == stage && s.1 == prepare.0),
            "no {stage} child of the miss's prepare span: {missed:?}"
        );
    }
    let hit_spans = spans(hit);
    assert!(
        hit_spans.iter().any(|s| s.2 == "serve.job"),
        "{hit_spans:?}"
    );
    assert!(
        !(hit_spans.iter()).any(|s| matches!(s.2, "prepare" | "decompose" | "sample")),
        "a memo hit traced a prepare half: {hit_spans:?}"
    );
}

#[test]
fn untraced_serve_journals_no_trace_ids() {
    let path = tmpjournal("noop");
    let svc = Service::start_journaled(
        untrained_estimator(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        &path,
    )
    .unwrap();
    svc.submit(EstimateRequest::new(scenario(400), 4, 1))
        .unwrap();
    assert!(svc.wait_idle(Duration::from_secs(180)));
    svc.shutdown();
    let (_j, replay) = Journal::open(&path).unwrap();
    assert!(replay.trace_ids.is_empty());
    std::fs::remove_file(&path).ok();
}
