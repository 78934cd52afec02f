//! Hot-path kernel/arena benchmark and regression gate.
//!
//! Measures the two stages the register-blocked kernels and preallocated
//! workspaces rewrote, comparing the *retained reference implementations*
//! against the new paths inside one binary — a machine-independent ratio:
//!
//! * **forward**: per-sample `predict_reference` (reference-mode tape:
//!   scalar kernels, per-op heap allocation, parameter-value clones — the
//!   pre-overhaul cost model) vs the no-tape, arena-backed
//!   `predict_batch_pooled`. This ratio is **gated**: the new path must be
//!   at least [`MIN_FORWARD_SPEEDUP`]x faster, and its outputs must match
//!   the reference bit for bit. The batched tape reference is also timed,
//!   informationally — it already shares the tape's internal arena.
//! * **flowsim**: fresh-allocation runs (`try_run_flowsim_traced_into` with
//!   a new workspace per scenario) vs warm-workspace runs
//!   (`try_run_flowsim_traced_into` reusing one [`FluidWorkspace`] across
//!   all scenarios). Reported, not gated, together with the event count
//!   of one pass over the scenarios and the warm time per event, under the
//!   ledger's names (`flowsim.events`, `flowsim.ns_per_event`) — here
//!   single-threaded, where the ledger's figure is thread time under the
//!   pipeline's parallel stage.
//! * **decompose**: `PathIndex::build` and the materialization of the k
//!   sampled paths (`from_group` over the sample in parallel, then spec
//!   vectors and fingerprints), under the names `m3_benchmark`'s ledger
//!   gives the same two stages (`decompose.index_ms`,
//!   `decompose.materialize_ms`). Reported, not gated.
//! * **features**: `PathScenarioData::features` plus `encode_log` of every
//!   map, over the flowSim results of all scenarios, single-threaded
//!   (`features_min_ms`, the minimum of [`GATE_PAIRS`] passes after a
//!   warm-up). Reported, not gated; the encodings must match
//!   [`ENCODE_LOG_DIGEST`] bit for bit.
//!
//! The end-to-end cold-estimate latency is also reported for context, and
//! the JSON's `machine` object records the CPU model, the core count and
//! which instantiation of the matmul panel kernel the forward pass
//! dispatched to (`avx2` or `portable`): the forward and cold-estimate rows are not
//! comparable across the two, and the reference side of the gated ratio
//! runs the scalar kernels, which do not dispatch, so the ratio is larger
//! on an `avx2` host. As in
//! the other gates, comparisons use *interleaved minimum* times: mean-of-N
//! between two code paths at this run length is dominated by scheduler
//! noise. Results go to `BENCH_hotpath.json` at the workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use m3_core::prelude::*;
use m3_flowsim::prelude::*;
use m3_netsim::prelude::*;
use m3_nn::prelude::*;
use m3_workload::prelude::*;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

const K_PATHS: usize = 100;
const SEED: u64 = 13;
/// The forward hot path must beat the retained tape reference by this much.
const MIN_FORWARD_SPEEDUP: f64 = 4.0;
/// Interleaved A/B measurement pairs (after warmup) for the gated compare.
const GATE_PAIRS: usize = 12;
/// FNV-1a digest of the fixture's log-encoded feature maps (foreground,
/// then each hop, per scenario): `GOLDEN_ENCODE_LOG` in
/// `crates/core/tests/feature_bits.rs`, whose header gives the recipe.
const ENCODE_LOG_DIGEST: u64 = 0xfad0_5cf7_cdf7_cdb4;

struct Setup {
    net: M3Net,
    datas: Vec<PathScenarioData>,
    sims: Vec<FlowsimResult>,
    inputs: Vec<SampleInput>,
    est: M3Estimator,
    topo: Topology,
    flows: Vec<FlowSpec>,
    cfg: SimConfig,
}

fn setup() -> Setup {
    let ft = FatTree::build(FatTreeSpec::small(2));
    let routing = Routing::new(&ft.topo);
    let w = generate(
        &ft,
        &routing,
        &Scenario {
            n_flows: 4_000,
            matrix_name: "B".into(),
            sizes: SizeDistribution::web_server(),
            sigma: 1.0,
            max_load: 0.5,
            seed: 23,
        },
    );
    let cfg = SimConfig::default();
    let net = M3Net::new(ModelConfig::repro_default(SPEC_DIM), 7);

    // Materialize the same unique scenarios the pipeline would: decompose,
    // sample, dedupe by content, then flowSim + features for the forward
    // inputs.
    let index = PathIndex::build(&ft.topo, &w.flows);
    let sampled = index.sample_paths(K_PATHS, SEED);
    let mut datas: Vec<PathScenarioData> = sampled
        .iter()
        .map(|&g| PathScenarioData::from_group(&ft.topo, &w.flows, &index, g, &cfg))
        .collect();
    let mut seen = std::collections::HashSet::new();
    let mut specs: Vec<Vec<f32>> = Vec::new();
    datas.retain(|d| {
        let spec = spec_vector(&cfg, d.fg_base_rtt, d.fg_bottleneck);
        let key = scenario_fingerprint(d, &spec, true);
        let fresh = seen.insert(key);
        if fresh {
            specs.push(spec);
        }
        fresh
    });
    let sims: Vec<FlowsimResult> = datas.iter().map(|d| d.run_flowsim()).collect();
    let inputs: Vec<SampleInput> = datas
        .iter()
        .zip(&sims)
        .zip(&specs)
        .map(|((d, sim), spec)| {
            let (fg_map, bg_maps) = d.features(sim);
            SampleInput {
                fg: fg_map.encode_log(),
                bg: bg_maps.iter().map(|m| m.encode_log()).collect(),
                spec: spec.clone(),
                use_context: true,
            }
        })
        .collect();

    let est = M3Estimator::new(M3Net::new(ModelConfig::repro_default(SPEC_DIM), 7));
    Setup {
        net,
        datas,
        sims,
        inputs,
        est,
        topo: ft.topo.clone(),
        flows: w.flows,
        cfg,
    }
}

/// One timed invocation (ns).
fn time_once<F: FnMut()>(f: &mut F) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// Minimum of `GATE_PAIRS` timed calls, after one warmup call (ns).
fn min_time<F: FnMut()>(mut f: F) -> f64 {
    f();
    (0..GATE_PAIRS).fold(f64::INFINITY, |m, _| m.min(time_once(&mut f)))
}

/// FNV-1a over the bits of `values`, continuing from `h`.
fn fnv1a(mut h: u64, values: &[f32]) -> u64 {
    for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Interleaved minimum of two closures over `GATE_PAIRS` pairs, after one
/// warmup call each. Returns (a_min_ns, b_min_ns).
fn interleaved_min<A: FnMut(), B: FnMut()>(mut a: A, mut b: B) -> (f64, f64) {
    a();
    b();
    let (mut a_min, mut b_min) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..GATE_PAIRS {
        a_min = a_min.min(time_once(&mut a));
        b_min = b_min.min(time_once(&mut b));
    }
    (a_min, b_min)
}

fn bench_hotpath(c: &mut Criterion) {
    let s = setup();
    let budget = FluidBudget::UNLIMITED;

    // --- bit-identity check: the gate is meaningless if the fast path
    // computes something else ---
    let reference = s.net.predict_batch_reference(&s.inputs);
    let pool = ArenaPool::new();
    let fast = s.net.predict_batch_pooled(&s.inputs, &pool);
    assert_eq!(reference.len(), fast.len());
    for ((r, f), inp) in reference.iter().zip(&fast).zip(&s.inputs) {
        let rb: Vec<u32> = r.iter().map(|v| v.to_bits()).collect();
        let fb: Vec<u32> = f.iter().map(|v| v.to_bits()).collect();
        assert_eq!(rb, fb, "fast forward pass diverged from tape reference");
        let per_sample: Vec<u32> = s
            .net
            .predict_reference(inp)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(per_sample, fb, "per-sample reference diverged from batch");
    }

    // --- criterion views (mean-based, informational) ---
    c.bench_function("hotpath/forward_reference", |b| {
        b.iter(|| black_box(s.net.predict_batch_reference(&s.inputs)))
    });
    c.bench_function("hotpath/forward_pooled", |b| {
        b.iter(|| black_box(s.net.predict_batch_pooled(&s.inputs, &pool)))
    });
    c.bench_function("hotpath/flowsim_warm_workspace", |b| {
        let mut ws = FluidWorkspace::new();
        let mut records = Vec::new();
        b.iter(|| {
            for d in &s.datas {
                black_box(
                    d.try_run_flowsim_traced_into(&budget, None, &mut ws, &mut records)
                        .expect("flowsim"),
                );
            }
        })
    });

    // --- gated compare: per-sample tape reference vs pooled batch ---
    let (fwd_ref_min, fwd_fast_min) = interleaved_min(
        || {
            for inp in &s.inputs {
                black_box(s.net.predict_reference(inp));
            }
        },
        || {
            black_box(s.net.predict_batch_pooled(&s.inputs, &pool));
        },
    );
    let forward_speedup = fwd_ref_min / fwd_fast_min;
    // Informational: the batched tape reference (already shares the blocked
    // kernels and the tape's internal arena).
    let (fwd_batch_ref_min, _) = interleaved_min(
        || {
            black_box(s.net.predict_batch_reference(&s.inputs));
        },
        || {
            black_box(s.net.predict_batch_pooled(&s.inputs, &pool));
        },
    );

    // --- reported compare: flowsim fresh collections vs warm workspace ---
    let mut ws = FluidWorkspace::new();
    let mut records = Vec::new();
    let (flowsim_fresh_min, flowsim_warm_min) = interleaved_min(
        || {
            for d in &s.datas {
                let fresh = &mut FluidWorkspace::new();
                black_box(
                    d.try_run_flowsim_traced_into(&budget, None, fresh, &mut Vec::new())
                        .expect("flowsim"),
                );
            }
        },
        || {
            for d in &s.datas {
                black_box(
                    d.try_run_flowsim_traced_into(&budget, None, &mut ws, &mut records)
                        .expect("flowsim"),
                );
            }
        },
    );
    let flowsim_speedup = flowsim_fresh_min / flowsim_warm_min;
    let flowsim_events: u64 = s
        .datas
        .iter()
        .map(|d| {
            d.try_run_flowsim_traced_into(&budget, None, &mut ws, &mut records)
                .expect("flowsim")
                .1
                .events
        })
        .sum();
    let flowsim_ns_per_event = flowsim_warm_min / flowsim_events as f64;
    assert_eq!(
        ws.rearmed_completions(),
        0,
        "a due flowSim group was short of its completion target"
    );

    // --- reported: the two decompose stages, as the ledger splits them ---
    let index = PathIndex::build(&s.topo, &s.flows);
    let sampled = index.sample_paths(K_PATHS, SEED);
    let (index_min, materialize_min) = interleaved_min(
        || {
            black_box(PathIndex::build(&s.topo, &s.flows));
        },
        || {
            let datas: Vec<PathScenarioData> = sampled
                .par_iter()
                .map(|&g| PathScenarioData::from_group(&s.topo, &s.flows, &index, g, &s.cfg))
                .collect();
            for d in &datas {
                let spec = spec_vector(&s.cfg, d.fg_base_rtt, d.fg_bottleneck);
                black_box(scenario_fingerprint(d, &spec, true));
            }
        },
    );

    // --- reported: feature maps and their log encoding, bit-checked ---
    let digest = s
        .datas
        .iter()
        .zip(&s.sims)
        .fold(0xcbf2_9ce4_8422_2325, |h, (d, sim)| {
            let (fg_map, bg_maps) = d.features(sim);
            std::iter::once(&fg_map)
                .chain(&bg_maps)
                .fold(h, |h, m| fnv1a(h, &m.encode_log()))
        });
    assert_eq!(
        digest, ENCODE_LOG_DIGEST,
        "log-encoded feature maps diverged from the pinned digest"
    );
    let features_min = min_time(|| {
        for (d, sim) in s.datas.iter().zip(&s.sims) {
            let (fg_map, bg_maps) = d.features(sim);
            black_box(fg_map.encode_log());
            for m in &bg_maps {
                black_box(m.encode_log());
            }
        }
    });

    // --- end-to-end cold estimate (context; no old pipeline to compare) ---
    let opts = EstimateOptions::default();
    let estimate_min = min_time(|| {
        black_box(
            s.est
                .try_estimate(&s.topo, &s.flows, &s.cfg, K_PATHS, SEED, &opts)
                .expect("estimate"),
        );
    });

    let cpu = m3_bench::cpu_model();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel_path = Kernel::detect(true).path();
    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \
         \"machine\": {{\"cpu\": {cpu:?}, \"nproc\": {nproc}, \"kernel_path\": \"{kernel_path}\"}},\n  \
         \"k_paths\": {K_PATHS},\n  \
         \"unique_scenarios\": {},\n  \
         \"decompose_index_min_ms\": {:.3},\n  \
         \"decompose_materialize_min_ms\": {:.3},\n  \
         \"forward_reference_min_ms\": {:.3},\n  \
         \"forward_batch_reference_min_ms\": {:.3},\n  \
         \"forward_pooled_min_ms\": {:.3},\n  \
         \"forward_speedup\": {:.2},\n  \
         \"min_forward_speedup\": {MIN_FORWARD_SPEEDUP},\n  \
         \"flowsim_fresh_min_ms\": {:.3},\n  \
         \"flowsim_warm_min_ms\": {:.3},\n  \
         \"flowsim_speedup\": {:.2},\n  \
         \"flowsim.events\": {flowsim_events},\n  \
         \"flowsim.ns_per_event\": {flowsim_ns_per_event:.1},\n  \
         \"features_min_ms\": {:.3},\n  \
         \"estimate_cold_min_ms\": {:.3}\n}}\n",
        s.datas.len(),
        index_min / 1e6,
        materialize_min / 1e6,
        fwd_ref_min / 1e6,
        fwd_batch_ref_min / 1e6,
        fwd_fast_min / 1e6,
        forward_speedup,
        flowsim_fresh_min / 1e6,
        flowsim_warm_min / 1e6,
        flowsim_speedup,
        features_min / 1e6,
        estimate_min / 1e6,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[hotpath] wrote {path}:\n{json}"),
        Err(e) => eprintln!("[hotpath] could not write {path}: {e}"),
    }
    assert!(
        forward_speedup >= MIN_FORWARD_SPEEDUP,
        "forward hot path speedup {forward_speedup:.2}x below the \
         {MIN_FORWARD_SPEEDUP}x gate"
    );
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
