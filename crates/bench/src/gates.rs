//! The speed gates, one function each over the gate harness. A gate checks
//! that its fast path computes the same bits as its slow one, times the
//! two in `pairs`, writes its `BENCH_<name>.json` record(s), and fails
//! when its bound does not hold.
//!
//! * `hotpath` — the pooled forward pass must beat the per-sample tape
//!   reference 4×; flowSim (fresh vs warm workspace), the two decompose
//!   stages, the index at 40 000 flows, the feature maps (pinned to
//!   `ENCODE_LOG_DIGEST`), the cold estimate and the all-hit warm estimate
//!   (bit-checked against the cold one) are reported, with the cost of
//!   one empty parallel section (`par_section_us`).
//! * `session` — a ~1%-dirty session delta must beat an uncached full
//!   re-estimate of the same state 5×.
//! * `cluster` — eight shards must drain a batch 6× faster than one.
//! * `overhead` — three arms against one default-options baseline: noop
//!   tracing (< 3 %), a live metrics registry (< 2 %), and a live
//!   registry sampled by an SLO monitor after every estimate (< 2 %).
//! * `journal` — a journaled service may write at most 1 KiB per settled
//!   `Completed` request, and a resume must recompute those requests to
//!   the same bits; the decision record's encode time is reported beside
//!   the full terminal record's.

use crate::*;
use m3_flowsim::prelude::*;
use m3_serve::prelude::*;
use m3_telemetry::{MetricsRegistry, MetricsSnapshot, TraceCtx, TraceRecorder};
use rayon::prelude::*;
use std::sync::Arc;

/// A gate: returns the records it wrote, or why it failed.
pub type Gate = fn() -> Res<Value>;

/// Every gate, in the order `gate all` runs them.
pub const GATES: [(&str, Gate); 5] = [
    ("hotpath", hotpath),
    ("session", session),
    ("cluster", cluster),
    ("overhead", overhead),
    ("journal", journal),
];

/// The pooled forward pass must beat the per-sample tape reference by this
/// much.
const MIN_FORWARD_SPEEDUP: f64 = 4.0;
/// A ~1%-dirty session update must beat the full re-estimate by this much.
const MIN_SESSION_SPEEDUP: f64 = 5.0;
/// Required aggregate drain speedup of 8 shards over 1.
const MIN_CLUSTER_SPEEDUP: f64 = 6.0;
/// Largest tolerated relative overhead of a noop trace context.
const MAX_TRACING_OVERHEAD: f64 = 0.03;
/// Largest tolerated relative overhead of per-estimate monitor sampling.
const MAX_MONITOR_OVERHEAD: f64 = 0.02;
/// Largest tolerated relative overhead of a live metrics registry.
const MAX_TELEMETRY_OVERHEAD: f64 = 0.02;
/// Most journal bytes one settled `Completed` request may write.
const MAX_COMPLETED_JOURNAL_BYTES: u64 = 1024;
/// FNV-1a digest of the hotpath fixture's log-encoded feature maps
/// (foreground, then each hop, per scenario): `GOLDEN_ENCODE_LOG` in
/// `crates/core/tests/feature_bits.rs`, whose header gives the recipe.
const ENCODE_LOG_DIGEST: u64 = 0xfad0_5cf7_cdf7_cdb4;

/// The gates a `gate <target>` runs: `all`, or one by name.
pub fn plan(target: &str) -> Res<Vec<(&'static str, Gate)>> {
    crate::plan(&GATES, target)
}

/// A failed call's error, prefixed with what was being done.
fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// FNV-1a over the bits of `values`, continuing from `h`.
fn fnv1a(mut h: u64, values: &[f32]) -> u64 {
    for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Each scenario's log-encoded feature maps: foreground, then each hop.
fn encode(datas: &[PathScenarioData], sims: &[FlowsimResult]) -> Vec<Vec<Vec<f32>>> {
    (datas.iter().zip(sims))
        .map(|(d, sim)| {
            let (fg, bg) = d.features(sim);
            std::iter::once(&fg)
                .chain(&bg)
                .map(FeatureMap::encode_log)
                .collect()
        })
        .collect()
}

fn hotpath() -> Res<Value> {
    let fx = fixture(FatTreeSpec::small(2), 4_000);
    let (topo, flows, cfg, net) = (&fx.topo, &fx.flows, &fx.cfg, &fx.est.net);
    // The unique scenarios the pipeline would run: decompose, sample, and
    // dedupe by content.
    let index = PathIndex::build(topo, flows);
    let sampled = index.sample_paths(K_PATHS, SEED);
    let mut seen = std::collections::HashSet::new();
    let (mut datas, mut specs) = (Vec::new(), Vec::new());
    for &g in &sampled {
        let d = PathScenarioData::from_group(topo, flows, &index, g, cfg);
        let spec = spec_vector(cfg, d.fg_base_rtt, d.fg_bottleneck);
        if seen.insert(scenario_fingerprint(&d, &spec, true)) {
            datas.push(d);
            specs.push(spec);
        }
    }
    let sims: Vec<FlowsimResult> = datas.iter().map(|d| d.run_flowsim()).collect();
    let encoded = encode(&datas, &sims);
    let digest = (encoded.iter().flatten()).fold(0xcbf2_9ce4_8422_2325, |h, m| fnv1a(h, m));
    ensure(
        digest == ENCODE_LOG_DIGEST,
        "log-encoded feature maps diverged from the pinned digest",
    )?;
    let inputs: Vec<SampleInput> = (encoded.into_iter().zip(specs))
        .map(|(mut maps, spec)| SampleInput {
            fg: maps.remove(0),
            bg: maps,
            spec,
            use_context: true,
        })
        .collect();

    let pool = ArenaPool::new();
    let pooled = || Ok(net.predict_batch_pooled(&inputs, &pool));
    let per_sample = || {
        Ok(inputs
            .iter()
            .map(|i| net.predict_reference(i))
            .collect::<Vec<_>>())
    };
    let batched = || Ok(net.predict_batch_reference(&inputs));
    let fast = pooled()?;
    ensure(
        same_bits(&batched()?, &fast),
        "the pooled forward pass diverged from the batched tape reference",
    )?;
    ensure(
        same_bits(&per_sample()?, &fast),
        "the per-sample tape reference diverged from the batched one",
    )?;
    let forward = pairs(per_sample, pooled)?;
    let batch_reference = pairs(batched, pooled)?;

    let budget = FluidBudget::UNLIMITED;
    let (mut ws, mut records) = (FluidWorkspace::new(), Vec::new());
    let flowsim = pairs(
        || {
            (datas.iter())
                .map(|d| {
                    let fresh = &mut FluidWorkspace::new();
                    d.try_run_flowsim_traced_into(&budget, None, fresh, &mut Vec::new())
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(err("flowsim"))
        },
        || {
            (datas.iter())
                .map(|d| d.try_run_flowsim_traced_into(&budget, None, &mut ws, &mut records))
                .collect::<Result<Vec<_>, _>>()
                .map_err(err("flowsim"))
        },
    )?;
    let mut events = 0;
    for d in &datas {
        let (_, stats) = (d.try_run_flowsim_traced_into(&budget, None, &mut ws, &mut records))
            .map_err(err("flowsim"))?;
        events += stats.events;
    }
    ensure(
        ws.rearmed_completions() == 0,
        "a due flowSim group was short of its completion target",
    )?;

    // The two decompose stages, as the ledger splits them.
    let decompose = pairs(
        || Ok(PathIndex::build(topo, flows)),
        || {
            let datas: Vec<PathScenarioData> = (sampled.par_iter())
                .map(|&g| PathScenarioData::from_group(topo, flows, &index, g, cfg))
                .collect();
            let spec = |d: &PathScenarioData| spec_vector(cfg, d.fg_base_rtt, d.fg_bottleneck);
            Ok(datas
                .iter()
                .map(|d| scenario_fingerprint(d, &spec(d), true))
                .collect::<Vec<_>>())
        },
    )?;
    // The index at ten times the flows and load 0.8 (the benchmark's
    // `flowsim_40k` shape), where almost every flow is its own route and
    // the arrays outgrow the caches: a per-route cost shows here first.
    let (big_topo, big_flows) = fixture_flows(FatTreeSpec::small(2), 40_000, 0.8);
    let index_40k = pairs(
        || Ok(PathIndex::build(&big_topo, &big_flows)),
        || Ok(PathIndex::build(topo, flows)),
    )?;
    // Feature maps single-threaded, and the end-to-end cold estimate.
    let rest = pairs(
        || Ok(encode(&datas, &sims)),
        || fx.estimate(&EstimateOptions::default()),
    )?;
    // The same estimate through a cache holding every scenario it asks
    // for: each path is a hit, so none is materialized or simulated.
    let opts = EstimateOptions::default();
    let mut cache = ScenarioCache::new(256);
    let mut warm = || {
        (fx.est)
            .try_estimate_with_cache(topo, flows, cfg, K_PATHS, SEED, &mut cache, &opts)
            .map_err(err("warm estimate"))
    };
    warm()?;
    let hit = warm()?;
    ensure(
        hit.timings.flowsim_runs == 0,
        "the warm estimate missed the filled cache",
    )?;
    ensure(
        same_bits(&hit, &fx.estimate(&opts)?),
        "the warm estimate diverged from the cold one",
    )?;
    let cached = pairs(|| fx.estimate(&opts), &mut warm)?;
    // The same estimate as a served repeat runs it: through its prepared
    // value and a shared cache holding every scenario it asks for, so only
    // the probe and the aggregate are left.
    let prepared = (fx.est)
        .prepare(topo.clone(), flows.clone(), *cfg, K_PATHS, SEED, &opts)
        .map_err(err("prepare"))?;
    let shared = SharedScenarioCache::new(256);
    let resolve = || {
        (fx.est)
            .try_estimate_prepared(&prepared, Some(&shared), &opts)
            .map_err(err("prepared estimate"))
    };
    resolve()?;
    let hit = resolve()?;
    ensure(
        hit.timings.flowsim_runs == 0,
        "the prepared estimate missed the filled cache",
    )?;
    ensure(
        same_bits(&hit, &fx.estimate(&opts)?),
        "the prepared estimate diverged from the cold one",
    )?;
    let repeat = pairs(&mut warm, resolve)?;
    // The prepare half alone, as a served memo miss runs it before its
    // probe: validate, index, sample and key, the inputs cloned in (it
    // takes them by value). Keying is most of it.
    let prepare = || {
        (fx.est)
            .prepare(topo.clone(), flows.clone(), *cfg, K_PATHS, SEED, &opts)
            .map_err(err("prepare"))
    };
    let prepare = pairs(prepare, resolve)?;
    // One empty two-item section at two workers (against the same items
    // run inline at one): what a parallel section costs its caller before
    // any item runs. Informational.
    let items = [0u32, 1];
    let section = |workers| {
        move || -> Res<Vec<u32>> {
            Ok(rayon::with_num_threads(workers, || {
                items.par_iter().map(|&i| black_box(i)).collect()
            }))
        }
    };
    let section = pairs(section(2), section(1))?;

    let speedup = forward.ratio(|reference, pooled| reference / pooled);
    let value = Record::new("hotpath")
        .put("k_paths", K_PATHS)
        .put("unique_scenarios", datas.len())
        .ms("decompose_index_min_ms", min(&decompose.a))
        .ms("decompose_index_40k_min_ms", min(&index_40k.a))
        .ms("decompose_materialize_min_ms", min(&decompose.b))
        .ms("forward_reference_min_ms", min(&forward.a))
        .ms("forward_batch_reference_min_ms", min(&batch_reference.a))
        .ms("forward_pooled_min_ms", min(&forward.b))
        .spread("forward_speedup", speedup, 2)
        .put("min_forward_speedup", MIN_FORWARD_SPEEDUP)
        .ms("flowsim_fresh_min_ms", min(&flowsim.a))
        .ms("flowsim_warm_min_ms", min(&flowsim.b))
        .spread(
            "flowsim_speedup",
            flowsim.ratio(|fresh, warm| fresh / warm),
            2,
        )
        .put("flowsim.events", events)
        .round("flowsim.ns_per_event", min(&flowsim.b) / events as f64, 1)
        .ms("features_min_ms", min(&rest.a))
        .ms("estimate_cold_min_ms", min(&rest.b))
        .ms("estimate_warm_min_ms", min(&cached.b))
        .ms("estimate_prepared_min_ms", min(&repeat.b))
        .ms("prepare_min_ms", min(&prepare.a))
        .round("par_section_us", min(&section.a) / 1e3, 2)
        .write()?;
    ensure(
        speedup.median >= MIN_FORWARD_SPEEDUP,
        format!(
            "forward speedup {:.2}x below the {MIN_FORWARD_SPEEDUP}x gate",
            speedup.median
        ),
    )?;
    Ok(value)
}

fn session() -> Res<Value> {
    // The large (§5.3) fabric: with 4k flows spread over 6k hosts, path
    // diversity is high enough that an edge-link change reaches only ~1%
    // of the sampled paths even under the conservative port-sharing
    // dirty set. (The small 2-pod fabric funnels every path through a
    // handful of core links, so no link there dirties less than ~30%.)
    let fx = fixture(FatTreeSpec::large(), 4_000);
    let (est, flows, cfg) = (&*fx.est, &fx.flows, fx.cfg);
    let capacity = |link, bandwidth| ScenarioDelta::LinkCapacity { link, bandwidth };

    // The link whose capacity change dirties the fewest (but at least one)
    // of the sampled paths: the 1%-dirty interactive what-if.
    let index = PathIndex::build(&fx.topo, flows);
    let sampled = index.sample_paths(K_PATHS, SEED);
    let mut best: Option<(u32, usize)> = None;
    for link in 0..fx.topo.link_count() as u32 {
        let dirty = index.dirty_groups(flows, &capacity(link, 5 * GBPS));
        let hit = sampled.iter().filter(|g| dirty.contains(g)).count();
        if hit >= 1 && best.is_none_or(|(_, b)| hit < b) {
            best = Some((link, hit));
            if hit == 1 {
                break;
            }
        }
    }
    let (link, sampled_dirty) = best.ok_or("no link dirties a sampled path")?;
    ensure(
        sampled_dirty <= K_PATHS / 20,
        format!("link {link} dirties {sampled_dirty}/{K_PATHS} sampled paths: not a small delta"),
    )?;

    let opts = EstimateOptions::default();
    let (session, opened) = ScenarioSession::open(
        est,
        fx.topo.clone(),
        flows.clone(),
        cfg,
        K_PATHS,
        SEED,
        SharedScenarioCache::new(8192),
        opts.clone(),
    )
    .map_err(err("open session"))?;
    ensure(
        opened.total_paths == opened.dirty_paths,
        "an opened session is all dirty",
    )?;
    let session = RefCell::new(session);
    let apply = |bandwidth| {
        (session
            .borrow_mut()
            .apply_delta(est, &capacity(link, bandwidth)))
        .map_err(err("apply"))
    };
    let u = apply(9 * GBPS)?;
    ensure(!u.structural, "a capacity change must be surgical")?;
    ensure(
        (1..=K_PATHS / 10).contains(&u.dirty_paths),
        format!("the update dirtied {} paths", u.dirty_paths),
    )?;

    // Each apply sets a fresh capacity (a new scenario fingerprint, so the
    // dirty slot cannot cache-hit); the full re-estimate is an uncached
    // estimate of the session's current state.
    let full = || {
        let s = session.borrow();
        (est.try_estimate(&s.state().topo, flows, &cfg, K_PATHS, SEED, &opts))
            .map_err(err("full estimate"))
    };
    let (mut round, mut dirty_paths) = (0, 0);
    let timed = pairs(
        || {
            round += 1;
            let u = apply(4 * GBPS + round * 50_000_000)?;
            dirty_paths = u.dirty_paths;
            Ok(u)
        },
        full,
    )?;
    ensure(
        same_bits(session.borrow().estimate(), &full()?),
        "the session diverged from a from-scratch estimate",
    )?;

    let speedup = timed.ratio(|apply, full| full / apply);
    let value = Record::new("session_incremental")
        .put("k_paths", K_PATHS)
        .put("dirty_paths", dirty_paths)
        .ms("session_apply_p50_ms", median(&timed.a))
        .ms("full_reestimate_p50_ms", median(&timed.b))
        .spread("session_speedup", speedup, 2)
        .put("min_session_speedup", MIN_SESSION_SPEEDUP)
        .write()?;
    ensure(
        speedup.median >= MIN_SESSION_SPEEDUP,
        format!(
            "1%-dirty session update speedup {:.2}x below the {MIN_SESSION_SPEEDUP}x gate",
            speedup.median
        ),
    )?;
    Ok(value)
}

/// Jobs per drain (8 per shard at the widest layout).
const JOBS: usize = 64;
/// Shard counts measured; the last one is gated.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Synthetic per-attempt shard I/O (the unit of overlap).
const SIM_IO: Duration = Duration::from_millis(25);
/// Timed drains per shard count; the fastest counts.
const DRAINS: usize = 3;

/// A `k_paths`-path request of `n_flows` flows on the small fat tree.
fn request(n_flows: usize, k_paths: usize, seed: u64) -> EstimateRequest {
    let workload = WorkloadSpec {
        n_flows,
        matrix: "B".into(),
        sizes: "WebServer".into(),
        sigma: 1.0,
        max_load: 0.4,
    };
    let spec = ScenarioSpec {
        topology: TopoSpec::FatTreeSmall { oversub: 2 },
        workload,
        config: ConfigSpec::default(),
    };
    EstimateRequest::new(spec, k_paths, seed)
}

/// Requests whose rendezvous placement is even at 8 shards, interleaved so
/// submission order does not burst one shard.
fn stratified_requests() -> Vec<EstimateRequest> {
    let widest = SHARD_COUNTS[SHARD_COUNTS.len() - 1];
    let live: Vec<usize> = (0..widest).collect();
    let mut buckets = vec![Vec::new(); widest];
    for seed in 0.. {
        if buckets.iter().all(|b| b.len() == JOBS / widest) {
            break;
        }
        let req = request(30, 1, seed);
        if let Some(b) = route(routing_key(&req), &live).map(|s| &mut buckets[s]) {
            if b.len() < JOBS / widest {
                b.push(req);
            }
        }
    }
    (0..JOBS / widest)
        .flat_map(|i| buckets.iter().map(move |b| b[i].clone()))
        .collect()
}

/// Drain `jobs` once through `cluster`: the wall time and the estimates in
/// submission order.
fn drain(cluster: &Cluster, jobs: &[EstimateRequest]) -> Res<(f64, Vec<NetworkEstimate>)> {
    let start = Instant::now();
    let ids = (jobs.iter())
        .map(|r| cluster.submit(r.clone()).map_err(err("submit")))
        .collect::<Res<Vec<u64>>>()?;
    ensure(
        cluster.wait_idle(Duration::from_secs(600)),
        "the cluster did not drain",
    )?;
    let elapsed = start.elapsed().as_secs_f64();
    let estimates = (ids.iter())
        .map(|&id| match cluster.outcome(id) {
            Some(JobOutcome::Completed { estimate, .. }) => Ok(estimate),
            other => Err(format!("job {id} did not complete: {other:?}")),
        })
        .collect::<Res<_>>()?;
    Ok((elapsed, estimates))
}

/// Each shard runs one worker whose per-attempt cost is dominated by
/// [`ServiceConfig::simulated_io`], a deterministic sleep standing for a
/// remote shard's blocking I/O: shards scale by overlapping it, which works
/// alike on one core or sixteen. The batch is stratified for 8 shards, so
/// 2 and 4 shards may skew; they are reported, not gated.
fn cluster() -> Res<Value> {
    let small = ModelConfig {
        embed: 16,
        heads: 2,
        layers: 1,
        ff_hidden: 16,
        mlp_hidden: 32,
        ..ModelConfig::repro_default(SPEC_DIM)
    };
    let jobs = stratified_requests();
    let (mut fastest, mut one_shard) = (Vec::new(), None);
    for shards in SHARD_COUNTS {
        let config = ClusterConfig {
            shards,
            shard: ServiceConfig {
                workers: 1,
                queue_capacity: JOBS + 8,
                simulated_io: SIM_IO,
                ..ServiceConfig::default()
            },
            journal_dir: None,
            heartbeat_every: Duration::from_millis(2),
            // The fan-out measurement must never churn shards: a loaded
            // machine stalling a supervisor briefly is not a death.
            suspect_misses: 500,
            dead_misses: 1000,
            ..ClusterConfig::default()
        };
        let cluster =
            Cluster::start(M3Net::new(small.clone(), 3), config).map_err(err("start cluster"))?;
        let mut best = f64::INFINITY;
        for _ in 0..DRAINS {
            let (elapsed, estimates) = drain(&cluster, &jobs)?;
            best = best.min(elapsed);
            let reference = one_shard.get_or_insert_with(|| estimates.clone());
            ensure(
                same_bits(&estimates, reference),
                format!("{shards} shards changed an estimate"),
            )?;
        }
        let deaths = cluster.stats().shard_deaths;
        cluster.shutdown();
        ensure(deaths == 0, format!("{deaths} shards died"))?;
        eprintln!(
            "[gate] cluster: {shards} shard(s), fastest drain {:.1} ms",
            best * 1e3
        );
        fastest.push(best);
    }

    let speedups: Vec<f64> = fastest.iter().map(|t| round(fastest[0] / t, 2)).collect();
    let gated = speedups[SHARD_COUNTS.len() - 1];
    let rounded = |f: &dyn Fn(f64) -> f64, digits| -> Vec<f64> {
        fastest.iter().map(|&t| round(f(t), digits)).collect()
    };
    let value = Record::new("cluster_scaling")
        .put("jobs", JOBS)
        .put("simulated_io_ms", SIM_IO.as_millis() as u64)
        .put("shard_counts", SHARD_COUNTS.to_vec())
        .put("min_drain_ms", rounded(&|t| t * 1e3, 3))
        .put("throughput_jobs_per_s", rounded(&|t| JOBS as f64 / t, 2))
        .put("speedup_vs_one_shard", speedups)
        .put("gated_speedup_at_8_shards", gated)
        .put("min_cluster_speedup", MIN_CLUSTER_SPEEDUP)
        .write()?;
    ensure(
        gated >= MIN_CLUSTER_SPEEDUP,
        format!("8-shard speedup {gated:.2}x below the {MIN_CLUSTER_SPEEDUP}x gate"),
    )?;
    Ok(value)
}

/// What a `Service` shows a [`Monitor`], over one registry and without the
/// worker threads that would add scheduler noise to the measurement.
struct GateSource {
    registry: MetricsRegistry,
    estimator: Arc<M3Estimator>,
    window: Vec<EstimateRequest>,
}

impl MonitorSource for GateSource {
    fn shard_snapshots(&self) -> Vec<(String, MetricsSnapshot)> {
        vec![("service".to_string(), self.registry.snapshot())]
    }
    fn rollup_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
    fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
    fn recent_requests(&self, n: usize) -> Vec<EstimateRequest> {
        self.window.iter().take(n).cloned().collect()
    }
    fn drift_estimator(&self) -> Arc<M3Estimator> {
        Arc::clone(&self.estimator)
    }
}

/// Three arms, each paired against the same default-options estimate of
/// one 8 000-flow fixture. The monitor arm samples after every estimate,
/// far more often than the production cadence (`sample_every_ms`, 250 ms
/// by default), with the default SLOs and a drift spot check every 64
/// samples (due on the first): the full sampling path minus file
/// exposition, which follows the cadence, not the requests.
fn overhead() -> Res<Value> {
    let fx = fixture(FatTreeSpec::small(2), 8_000);
    let baseline = EstimateOptions::default();
    let base = || fx.estimate(&baseline);

    // Tracing: the plumbing is always there, so a noop context must cost
    // nothing measurable; a live recorder must see the spans.
    let noop = EstimateOptions {
        trace: TraceCtx::new(TraceRecorder::noop(), 1),
        ..EstimateOptions::default()
    };
    let tracing = pairs(base, || fx.estimate(&noop))?;
    let recorder = TraceRecorder::new(1 << 20);
    let mut trace = TraceCtx::new(recorder.clone(), 1);
    trace.probe_stride_ns = 1_000_000;
    fx.estimate(&EstimateOptions {
        trace,
        ..EstimateOptions::default()
    })?;
    ensure(
        !recorder.snapshot().events.is_empty(),
        "the live recorder saw no trace events",
    )?;

    // Telemetry: the pipeline always records into a call-local registry,
    // so the optional cost is absorbing its snapshot into a live one.
    let registry = MetricsRegistry::new();
    let live = EstimateOptions {
        metrics: Some(registry.clone()),
        ..EstimateOptions::default()
    };
    let telemetry = pairs(base, || fx.estimate(&live))?;
    let sampled = registry.snapshot().counter("pipeline.sampled_paths");
    ensure(
        sampled.unwrap_or(0) >= K_PATHS as u64,
        "the live registry saw no pipeline metrics",
    )?;

    // Monitor: a live registry, sampled after every estimate.
    let source = GateSource {
        registry: MetricsRegistry::new(),
        estimator: Arc::clone(&fx.est),
        window: vec![request(300, 6, SEED)],
    };
    let drift = DriftConfig {
        sample: 1,
        every: 64,
    };
    let mut monitor = Monitor::new(MonitorConfig {
        drift: Some(drift),
        ..MonitorConfig::default()
    })
    .map_err(err("monitor"))?;
    let monitored = EstimateOptions {
        metrics: Some(source.registry.clone()),
        ..EstimateOptions::default()
    };
    let (mut samples, mut report) = (0, None);
    let monitoring = pairs(base, || {
        let out = fx.estimate(&monitored)?;
        samples += 1;
        report = Some(monitor.sample(&source, samples).map_err(err("sample"))?);
        Ok(out)
    })?;
    let report = report.ok_or("no monitor report")?;
    ensure(
        !report.cluster.slos.is_empty(),
        "the monitor evaluated no SLOs",
    )?;
    let scored = report.cluster.drift.as_ref().map_or(0, |d| d.scenarios);
    ensure(scored > 0, "the drift watchdog scored no scenarios")?;

    let mut written = Map::new();
    let mut broken = Vec::new();
    let arms = [
        ("tracing_overhead", &tracing, MAX_TRACING_OVERHEAD),
        ("telemetry_overhead", &telemetry, MAX_TELEMETRY_OVERHEAD),
        ("monitor_overhead", &monitoring, MAX_MONITOR_OVERHEAD),
    ];
    for (bench, p, max) in arms {
        let frac = p.ratio(|base, arm| arm / base - 1.0);
        let mut rec = Record::new(bench);
        rec.put("k_paths", K_PATHS);
        match bench {
            "tracing_overhead" => rec
                .ms("baseline_min_ms", min(&p.a))
                .ms("noop_trace_min_ms", min(&p.b)),
            "telemetry_overhead" => rec
                .ms("no_registry_ms", median(&p.a))
                .ms("live_registry_ms", median(&p.b)),
            _ => rec
                .ms("unmonitored_ms", median(&p.a))
                .ms("monitored_ms", median(&p.b))
                .put("samples", samples),
        };
        let value = rec
            .spread("overhead_frac", frac, 4)
            .put("max_overhead_frac", max)
            .write()?;
        written.insert(bench, value);
        if frac.median >= max {
            broken.push(format!("{bench} {:.4} exceeds {max}", frac.median));
        }
    }
    ensure(broken.is_empty(), broken.join("; "))?;
    Ok(Value::Object(written))
}

/// Requests the `journal` gate settles, one at a time.
const JOURNAL_JOBS: u64 = 8;
/// Flows per `journal` gate request: the size of the benchmark's
/// `serve_mix` requests.
const JOURNAL_FLOWS: usize = 4_000;

/// The journal a default journaled service writes when a [`K_PATHS`]-path
/// request completes: its size (what the settle appended), and that a
/// resume recomputes it to the same bits. The encode times compare the
/// decision record with the full terminal record it replaced.
fn journal() -> Res<Value> {
    let dir = std::env::temp_dir().join(format!("m3-gate-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(err("scratch directory"))?;
    let path = dir.join("serve.journal");
    let len = || (std::fs::metadata(&path).map(|m| m.len())).map_err(err("journal size"));
    let net = M3Net::new(ModelConfig::repro_default(SPEC_DIM), 7);
    let estimator = || M3Estimator::new(net.clone());
    let idle = Duration::from_secs(600);

    let svc = Service::start_journaled(estimator(), ServiceConfig::default(), &path)
        .map_err(err("start the service"))?;
    let (mut settle_bytes, mut completed) = (Vec::new(), Vec::new());
    for seed in 0..JOURNAL_JOBS {
        let req = request(JOURNAL_FLOWS, K_PATHS, seed);
        let id = svc.submit(req).map_err(err("submit"))?;
        let accepted = len()?;
        ensure(svc.wait_idle(idle), "the service did not settle")?;
        settle_bytes.push(len()? - accepted);
        match svc.outcome(id) {
            Some(outcome @ JobOutcome::Completed { .. }) => completed.push((id, outcome)),
            other => return Err(format!("job {id} did not complete: {other:?}")),
        }
    }
    svc.abort();

    let no_workers = ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    };
    let (resumed, replay) =
        Service::resume(estimator(), no_workers, &path, None).map_err(err("resume"))?;
    ensure(
        replay.decisions.len() == completed.len(),
        format!("{} decision records", replay.decisions.len()),
    )?;
    for (id, outcome) in &completed {
        let again = resumed.outcome(*id).and_then(|o| o.estimate().cloned());
        ensure(
            again.is_some_and(|e| outcome.estimate().is_some_and(|o| same_bits(o, &e))),
            format!("job {id} did not recompute to its estimate"),
        )?;
    }
    resumed.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    let (id, outcome) = &completed[0];
    let terminal = JournalRecord::Terminal {
        id: *id,
        outcome: Box::new(outcome.clone()),
    };
    let fingerprint = net.fingerprint();
    let frame = |r: &JournalRecord| {
        let json = serde_json::to_vec(r).map_err(err("encode"))?;
        Ok(encode_record(&json))
    };
    let timed = pairs(
        || frame(&terminal),
        || frame(&JournalRecord::settled(*id, outcome, fingerprint)),
    )?;
    let most = settle_bytes.iter().copied().max().unwrap_or(0);
    let value = Record::new("journal")
        .put("n_flows", JOURNAL_FLOWS)
        .put("k_paths", K_PATHS)
        .put("jobs", JOURNAL_JOBS)
        .put("completed_journal_bytes", most)
        .put("max_completed_journal_bytes", MAX_COMPLETED_JOURNAL_BYTES)
        .put("full_terminal_bytes", frame(&terminal)?.len())
        .ms("decision_encode_ms", median(&timed.b))
        .ms("terminal_encode_ms", median(&timed.a))
        .spread(
            "encode_speedup",
            timed.ratio(|full, decision| full / decision),
            1,
        )
        .write()?;
    ensure(
        most <= MAX_COMPLETED_JOURNAL_BYTES,
        format!(
            "a settled Completed request journaled {most} B, over the \
             {MAX_COMPLETED_JOURNAL_BYTES} B gate"
        ),
    )?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_alternate_which_arm_runs_first() {
        let order = RefCell::new(String::new());
        let arm = |name| {
            let order = &order;
            move || {
                order.borrow_mut().push(name);
                Ok(())
            }
        };
        let p = alternate(4, arm('A'), arm('B')).unwrap();
        assert_eq!(order.into_inner(), "ABBAABBA");
        assert_eq!((p.a.len(), p.b.len()), (4, 4));
    }

    #[test]
    fn ratio_is_read_at_its_median_and_quartiles() {
        let p = Paired {
            a: vec![1.0; 5],
            b: vec![5.0, 1.0, 4.0, 2.0, 3.0],
        };
        let q = p.ratio(|a, b| b / a);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        assert_eq!((min(&p.b), median(&p.b)), (1.0, 3.0));
    }

    #[test]
    fn a_failing_arm_fails_the_timing() {
        let failed = alternate(3, || Ok(()), || Err::<(), _>("arm b".to_string()));
        assert_eq!(failed.err().as_deref(), Some("arm b"));
    }

    #[test]
    fn same_bits_sees_a_flipped_bit_and_a_moved_boundary() {
        let a = vec![vec![1.0f32, 2.0], vec![3.0]];
        assert!(same_bits(&a, &a.clone()));
        assert!(!same_bits(&a, &vec![vec![1.0f32, 2.0], vec![-3.0]]));
        assert!(!same_bits(&a, &vec![vec![1.0f32], vec![2.0, 3.0]]));
    }

    #[test]
    fn a_written_record_names_the_isa_flags_of_its_host() {
        let dir = std::env::temp_dir().join(format!("m3-gate-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Record::new("isa_probe").put("x", 1).write_in(&dir).unwrap();
        let path = dir.join("BENCH_isa_probe.json");
        let written: Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let machine = written
            .as_object()
            .and_then(|o| o.get("machine"))
            .and_then(Value::as_object)
            .unwrap();
        for (flag, present) in isa_flags() {
            assert_eq!(machine.get(flag), Some(&Value::Bool(present)), "{flag}");
        }
        // The kernel path and the flags agree: `avx2` dispatch needs avx2,
        // `avx512` dispatch needs avx512f.
        let path = machine.get("kernel_path").and_then(Value::as_str);
        if path == Some("avx2") {
            assert_eq!(machine.get("avx2"), Some(&Value::Bool(true)));
        }
        if path == Some("avx512") {
            assert_eq!(machine.get("avx512f"), Some(&Value::Bool(true)));
        }
    }

    #[test]
    fn every_gate_runs_once_under_all() {
        let all: Vec<&str> = plan("all").unwrap().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            all,
            ["hotpath", "session", "cluster", "overhead", "journal"]
        );
        assert!(plan("components").is_err());
    }
}
