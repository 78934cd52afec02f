//! Incremental-session benchmark and regression gate.
//!
//! The tentpole claim of the delta-driven estimation core: a what-if that
//! touches a small slice of the network must not pay for a full
//! re-estimate. This bench opens a [`ScenarioSession`] over a 100-path
//! fat-tree scenario, picks a link whose capacity change dirties ~1% of
//! the sampled paths, and compares (interleaved, per-pair):
//!
//! * **session apply**: [`ScenarioSession::apply_delta`] with a fresh
//!   capacity value each round (so the dirty slot never cache-hits) —
//!   re-runs flowSim + features + forward for the dirty slots only and
//!   merges with the retained results;
//! * **full re-estimate**: an uncached `try_estimate` of the identical
//!   post-delta scenario — what a sessionless caller pays per what-if.
//!
//! The ratio of the two **p50s is gated**: the session path must be at
//! least [`MIN_SESSION_SPEEDUP`]x faster. p50 (not min) because the claim
//! is about the typical interactive update, and the two paths share the
//! process interleaved so scheduler noise cancels. The final session
//! estimate is also checked bit-identical to the from-scratch estimate —
//! the gate is meaningless if the fast path computes something else.
//! Results go to `BENCH_session_incremental.json` at the workspace root,
//! with the host's CPU model and core count under `machine`.

use criterion::{criterion_group, criterion_main, Criterion};
use m3_core::prelude::*;
use m3_netsim::prelude::*;
use m3_nn::prelude::*;
use m3_workload::prelude::*;
use std::hint::black_box;
use std::time::Instant;

const K_PATHS: usize = 100;
const SEED: u64 = 13;
/// A ~1%-dirty session update must beat the full re-estimate by this much.
const MIN_SESSION_SPEEDUP: f64 = 5.0;
/// Interleaved apply/re-estimate pairs for the gated p50 compare.
const GATE_PAIRS: usize = 9;

fn p50(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn bench_session_incremental(c: &mut Criterion) {
    // The large (§5.3) fabric: with 4k flows spread over 6k hosts, path
    // diversity is high enough that an edge-link change reaches only ~1%
    // of the sampled paths even under the conservative port-sharing
    // dirty-set. (The small 2-pod fabric funnels every path through a
    // handful of core links, so no link there dirties less than ~30%.)
    let ft = FatTree::build(FatTreeSpec::large());
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
    let est = M3Estimator::new(M3Net::new(ModelConfig::repro_default(SPEC_DIM), 7));

    // Pick the link whose capacity change dirties the fewest (but at
    // least one) of the sampled paths — the 1%-dirty interactive what-if.
    let index = PathIndex::build(&ft.topo, &w.flows);
    let sampled = index.sample_paths(K_PATHS, SEED);
    let mut best: Option<(u32, usize)> = None;
    for link in 0..ft.topo.link_count() as u32 {
        let probe = ScenarioDelta::LinkCapacity {
            link,
            bandwidth: 5 * GBPS,
        };
        let dirty = index.dirty_groups(&w.flows, &probe);
        let hit = sampled.iter().filter(|g| dirty.contains(g)).count();
        if hit >= 1 && best.is_none_or(|(_, b)| hit < b) {
            best = Some((link, hit));
            if hit == 1 {
                break;
            }
        }
    }
    let (link, sampled_dirty) = best.expect("some link dirties at least one sampled path");
    assert!(
        sampled_dirty <= K_PATHS / 20,
        "picked link {link} dirties {sampled_dirty}/{K_PATHS} sampled paths — \
         not a small-delta scenario"
    );

    let (mut session, opened) = ScenarioSession::open(
        &est,
        ft.topo.clone(),
        w.flows.clone(),
        cfg,
        K_PATHS,
        SEED,
        SharedScenarioCache::new(8192),
        EstimateOptions::default(),
    )
    .expect("open session");
    assert_eq!(opened.total_paths, opened.dirty_paths);

    // Warm both paths once outside the timed loop.
    let warm = ScenarioDelta::LinkCapacity {
        link,
        bandwidth: 9 * GBPS,
    };
    let u = session.apply_delta(&est, &warm).expect("warm apply");
    assert!(!u.structural, "capacity change must be surgical");
    assert!(u.dirty_paths >= 1 && u.dirty_paths <= K_PATHS / 10);
    let state_topo = session.state().topo.clone();
    black_box(
        est.try_estimate(
            &state_topo,
            &w.flows,
            &cfg,
            K_PATHS,
            SEED,
            &EstimateOptions::default(),
        )
        .expect("warm full estimate"),
    );

    // Gated compare: each round applies a *fresh* capacity value (a new
    // scenario fingerprint, so the dirty slot cannot cache-hit) and then
    // runs the uncached full re-estimate of the identical state.
    let mut apply_ns: Vec<f64> = Vec::with_capacity(GATE_PAIRS);
    let mut full_ns: Vec<f64> = Vec::with_capacity(GATE_PAIRS);
    let mut dirty_paths = 0usize;
    for i in 0..GATE_PAIRS {
        let delta = ScenarioDelta::LinkCapacity {
            link,
            bandwidth: 4 * GBPS + (i as u64 + 1) * 50_000_000,
        };
        let t = Instant::now();
        let u = black_box(session.apply_delta(&est, &delta).expect("apply"));
        apply_ns.push(t.elapsed().as_nanos() as f64);
        dirty_paths = u.dirty_paths;

        let topo = session.state().topo.clone();
        let t = Instant::now();
        black_box(
            est.try_estimate(
                &topo,
                &w.flows,
                &cfg,
                K_PATHS,
                SEED,
                &EstimateOptions::default(),
            )
            .expect("full estimate"),
        );
        full_ns.push(t.elapsed().as_nanos() as f64);
    }

    // Bit-identity sanity: the gate is meaningless if the session path
    // lands on different results than the from-scratch pipeline.
    let scratch = est
        .try_estimate(
            &session.state().topo,
            &w.flows,
            &cfg,
            K_PATHS,
            SEED,
            &EstimateOptions::default(),
        )
        .expect("scratch");
    assert_eq!(session.estimate().bucket_counts, scratch.bucket_counts);
    for (va, vb) in session
        .estimate()
        .bucket_samples
        .iter()
        .zip(&scratch.bucket_samples)
    {
        assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(vb) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "session diverged from from-scratch estimate"
            );
        }
    }

    // Criterion view (mean-based, informational): steady-state session
    // updates cycling through a window of capacity values.
    let mut round = 0u64;
    c.bench_function("session/apply_1pct_dirty_delta", |b| {
        b.iter(|| {
            round += 1;
            let delta = ScenarioDelta::LinkCapacity {
                link,
                bandwidth: 6 * GBPS + (round % 64) * 25_000_000,
            };
            black_box(session.apply_delta(&est, &delta).expect("apply"))
        })
    });

    let apply_p50 = p50(apply_ns);
    let full_p50 = p50(full_ns);
    let speedup = full_p50 / apply_p50;
    let cpu = m3_bench::cpu_model();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"session_incremental\",\n  \
         \"machine\": {{\"cpu\": {cpu:?}, \"nproc\": {nproc}}},\n  \
         \"k_paths\": {K_PATHS},\n  \
         \"dirty_paths\": {dirty_paths},\n  \
         \"session_apply_p50_ms\": {:.3},\n  \
         \"full_reestimate_p50_ms\": {:.3},\n  \
         \"session_speedup\": {:.2},\n  \
         \"min_session_speedup\": {MIN_SESSION_SPEEDUP}\n}}\n",
        apply_p50 / 1e6,
        full_p50 / 1e6,
        speedup,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_session_incremental.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("[session_incremental] wrote {path}:\n{json}"),
        Err(e) => eprintln!("[session_incremental] could not write {path}: {e}"),
    }
    assert!(
        speedup >= MIN_SESSION_SPEEDUP,
        "1%-dirty session update speedup {speedup:.2}x below the \
         {MIN_SESSION_SPEEDUP}x gate (apply p50 {:.3} ms vs full p50 {:.3} ms)",
        apply_p50 / 1e6,
        full_p50 / 1e6,
    );
}

criterion_group!(benches, bench_session_incremental);
criterion_main!(benches);
