//! Property tests for the telemetry time series and SLO monitor: folding
//! per-shard snapshot deltas and merging series must be order-independent
//! and byte-stable under the deterministic view; the delta encoding must
//! recover the cumulative snapshot exactly; and a synthetic bad-outcome
//! ramp must fire and clear the burn-rate SLO at analytically pinned
//! ticks. A final integration test samples a live [`Service`] and checks
//! the full report — SLO statuses, drift spot checks, and Prometheus
//! exposition.

use m3::core::prelude::*;
use m3::nn::prelude::{M3Net, ModelConfig};
use m3::serve::prelude::*;
use m3::telemetry::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// One synthetic metric update against a named shard.
#[derive(Debug, Clone)]
enum Op {
    Count { shard: usize, name: u8, n: u64 },
    Gauge { shard: usize, name: u8, v: u32 },
    Observe { shard: usize, name: u8, v: u32 },
}

const N_SHARDS: usize = 3;

fn arb_op() -> impl Strategy<Value = Op> {
    (0usize..N_SHARDS, 0u8..3, 0u32..3, 1u64..100, 1u32..5_000).prop_map(
        |(shard, name, kind, n, v)| match kind {
            0 => Op::Count { shard, name, n },
            1 => Op::Gauge { shard, name, v },
            _ => Op::Observe { shard, name, v },
        },
    )
}

fn apply(registries: &[MetricsRegistry], op: &Op) {
    match op {
        Op::Count { shard, name, n } => registries[*shard].counter(&format!("c{name}")).add(*n),
        // Shard-local gauges are wall-flagged (the workspace convention:
        // last-writer gauge merge only commutes for cluster-uniform
        // values, so per-shard gauges stay out of the deterministic view).
        Op::Gauge { shard, name, v } => registries[*shard]
            .wall_gauge(&format!("g{name}"))
            .set(f64::from(*v)),
        Op::Observe { shard, name, v } => registries[*shard]
            .histogram(&format!("h{name}"), HistogramEdges::latency_seconds())
            .observe(f64::from(*v) / 1000.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Merging shard snapshots is order-independent, and the merged
    /// deterministic view is byte-stable as JSON.
    #[test]
    fn shard_merge_order_independent(
        ops in prop::collection::vec(arb_op(), 1..60),
        perm_seed in 0u64..1_000,
    ) {
        let registries: Vec<MetricsRegistry> =
            (0..N_SHARDS).map(|_| MetricsRegistry::new()).collect();
        for op in &ops {
            apply(&registries, op);
        }
        let snaps: Vec<MetricsSnapshot> = registries.iter().map(|r| r.snapshot()).collect();

        let mut order: Vec<usize> = (0..N_SHARDS).collect();
        // A seeded permutation (Fisher–Yates with a splitmix-style step).
        let mut s = perm_seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        for i in (1..order.len()).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            order.swap(i, (s as usize) % (i + 1));
        }

        let mut forward = MetricsSnapshot::default();
        for snap in &snaps {
            forward.merge(snap);
        }
        let mut permuted = MetricsSnapshot::default();
        for &i in &order {
            permuted.merge(&snaps[i]);
        }
        prop_assert_eq!(
            forward.deterministic_view().to_json(),
            permuted.deterministic_view().to_json());
    }

    /// Folding per-tick snapshot deltas into a time series recovers the
    /// cumulative snapshot exactly, and merging per-shard series (in any
    /// grouping) equals one series fed the merged shard snapshots.
    #[test]
    fn delta_fold_recovers_cumulative(
        ticks in prop::collection::vec(
            prop::collection::vec(arb_op(), 0..6), 1..12),
    ) {
        let registries: Vec<MetricsRegistry> =
            (0..N_SHARDS).map(|_| MetricsRegistry::new()).collect();
        let mut total = TimeSeries::new(DEFAULT_TIMESERIES_CAPACITY);
        let mut shards: Vec<TimeSeries> = (0..N_SHARDS)
            .map(|_| TimeSeries::new(DEFAULT_TIMESERIES_CAPACITY))
            .collect();
        let mut prev = MetricsSnapshot::default();
        for (t, ops) in ticks.iter().enumerate() {
            for op in ops {
                apply(&registries, op);
            }
            let tick = t as u64 + 1;
            let mut now = MetricsSnapshot::default();
            for (r, ts) in registries.iter().zip(shards.iter_mut()) {
                let snap = r.snapshot();
                ts.observe(tick, &snap);
                now.merge(&snap);
            }
            total.observe(tick, &now);
            prev = now;
        }
        prop_assert_eq!(
            total.cumulative().deterministic_view().to_json(),
            prev.deterministic_view().to_json());
        // Left- and right-associated shard-series merges both equal the
        // series over the merged snapshots.
        let left = shards[0].merge(&shards[1]).merge(&shards[2]);
        let right = shards[0].merge(&shards[1].merge(&shards[2]));
        for merged in [left, right] {
            prop_assert_eq!(
                merged.cumulative().deterministic_view().to_json(),
                prev.deterministic_view().to_json());
            prop_assert_eq!(
                merged.window(u64::MAX).deterministic_view().to_json(),
                total.window(u64::MAX).deterministic_view().to_json());
        }
    }

    /// A synthetic bad-outcome ramp — `n_good` clean ticks, `n_bad`
    /// all-failing ticks, then clean traffic — must fire the burn-rate
    /// SLO exactly at the first bad tick and clear it exactly `window`
    /// ticks after the last one.
    #[test]
    fn burn_rate_ramp_pinned_transitions(
        window in 2u64..6,
        n_good in 1u64..5,
        n_bad in 1u64..5,
    ) {
        let registry = MetricsRegistry::new();
        let mut monitor = Monitor::new(MonitorConfig {
            slos: vec![SloSpec {
                name: "bad-outcome-rate".into(),
                signal: SloSignal::ErrorRate {
                    bad: vec!["serve.failed".into()],
                    total: vec!["serve.completed".into(), "serve.failed".into()],
                    objective: 0.1,
                },
                window,
                fire_burn_rate: 1.0,
                clear_burn_rate: 0.5,
            }],
            drift: None,
            ..MonitorConfig::default()
        }).map_err(|e| TestCaseError::fail(e.to_string()))?;

        let source = RegistrySource { registry: registry.clone() };
        let fire_tick = n_good + 1;
        let clear_tick = n_good + n_bad + window;
        let mut fired_at = None;
        let mut cleared_at = None;
        let mut was_firing = false;
        for tick in 1..=(clear_tick + 2) {
            if tick > n_good && tick <= n_good + n_bad {
                registry.counter("serve.failed").add(10);
            } else {
                registry.counter("serve.completed").add(10);
            }
            let report = monitor
                .sample(&source, tick)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let firing = report.cluster.slos[0].state == SloState::Firing;
            if firing && !was_firing && fired_at.is_none() {
                fired_at = Some(tick);
            }
            if !firing && was_firing {
                cleared_at = Some(tick);
            }
            was_firing = firing;
        }
        prop_assert_eq!(fired_at, Some(fire_tick));
        prop_assert_eq!(cleared_at, Some(clear_tick));
    }
}

/// A [`MonitorSource`] over a bare registry (no drift path).
struct RegistrySource {
    registry: MetricsRegistry,
}

impl MonitorSource for RegistrySource {
    fn shard_snapshots(&self) -> Vec<(String, MetricsSnapshot)> {
        vec![("shard-0".to_string(), self.registry.snapshot())]
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
        unreachable!("drift disabled in RegistrySource tests")
    }
}

fn tiny_estimator() -> M3Estimator {
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

fn request(seed: u64) -> EstimateRequest {
    EstimateRequest::new(
        ScenarioSpec {
            topology: TopoSpec::FatTreeSmall { oversub: 2 },
            workload: WorkloadSpec {
                n_flows: 300,
                matrix: "B".into(),
                sizes: "WebServer".into(),
                sigma: 1.0,
                max_load: 0.4,
            },
            config: ConfigSpec::default(),
        },
        6,
        seed,
    )
}

/// End-to-end over a live service: the sampled report carries evaluated
/// SLO statuses and a drift spot check, and the snapshot renders to
/// Prometheus exposition with the expected families.
#[test]
fn monitor_samples_live_service() {
    let svc = Service::start(tiny_estimator(), ServiceConfig::default());
    for seed in 0..3 {
        svc.submit(request(seed)).expect("submit");
    }
    assert!(svc.wait_idle(std::time::Duration::from_secs(120)));

    let mut monitor = Monitor::new(MonitorConfig {
        drift: Some(DriftConfig {
            sample: 2,
            every: 1,
        }),
        ..MonitorConfig::default()
    })
    .expect("monitor");
    let report = monitor.sample(&svc, 1).expect("sample");

    assert_eq!(report.shards.len(), 1);
    assert!(
        !report.cluster.slos.is_empty(),
        "default SLOs were not evaluated"
    );
    assert!(report.cluster.healthy, "clean traffic must be healthy");
    let drift = report.cluster.drift.as_ref().expect("drift must run");
    assert!(drift.scenarios > 0 && drift.mean_err.is_finite());

    // The drift gauges flow through the sampled snapshot, so the
    // GaugeCeiling SLO sees them.
    let snap = svc.metrics_snapshot();
    assert!(snap.gauge("monitor.drift_mean_err").is_some());

    // ...but never through the deterministic view (bit-identity guard).
    let det = snap.deterministic_view();
    assert!(det.gauge("monitor.drift_mean_err").is_none());

    let text = render_prometheus(&snap);
    assert!(text.contains("# TYPE m3_serve_completed_total counter"));
    assert!(text.contains("m3_serve_completed_total 3"));
    assert!(text.contains("m3_monitor_drift_mean_err"));
    assert!(
        text.contains("m3_serve_request_latency_seconds_bucket"),
        "latency histogram missing from exposition"
    );

    // JSON roundtrip is lossless.
    let parsed = MonitorReport::from_json(&report.to_json()).expect("roundtrip");
    assert_eq!(parsed.to_json(), report.to_json());
    svc.shutdown();
}
