//! Fault-injection suite: every injected fault must surface as a typed
//! [`M3Error`] (FailFast) or as a finite estimate with an accurate
//! [`DegradationReport`] (Degrade) — never a panic, a hang, or a silently
//! wrong number. Faults are injected deterministically via [`FaultPlan`],
//! so every case replays bit-identically.

use m3::core::prelude::*;
use m3::flowsim::prelude::FluidBudget;
use m3::netsim::prelude::*;
use m3::nn::prelude::ModelConfig;
use m3::workload::prelude::*;

fn small_workload(seed: u64) -> (FatTree, Vec<FlowSpec>, SimConfig) {
    let ft = FatTree::build(FatTreeSpec::small(2));
    let routing = Routing::new(&ft.topo);
    let w = generate(
        &ft,
        &routing,
        &Scenario {
            n_flows: 1_500,
            matrix_name: "B".into(),
            sizes: SizeDistribution::web_server(),
            sigma: 1.0,
            max_load: 0.4,
            seed,
        },
    );
    (ft.clone(), w.flows, SimConfig::default())
}

fn untrained_estimator() -> M3Estimator {
    let cfg = ModelConfig {
        embed: 16,
        heads: 2,
        layers: 1,
        ff_hidden: 16,
        mlp_hidden: 32,
        ..ModelConfig::repro_default(SPEC_DIM)
    };
    M3Estimator::new(m3::nn::prelude::M3Net::new(cfg, 3))
}

fn assert_estimates_bit_identical(a: &NetworkEstimate, b: &NetworkEstimate) {
    assert_eq!(a.bucket_counts, b.bucket_counts);
    assert_eq!(a.bucket_samples.len(), b.bucket_samples.len());
    for (x, y) in a.bucket_samples.iter().zip(&b.bucket_samples) {
        let xb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        let yb: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(xb, yb);
    }
}

const K_PATHS: usize = 12;
const SEED: u64 = 5;

fn degrade_all() -> DegradationPolicy {
    DegradationPolicy::Degrade {
        max_degraded_frac: 1.0,
    }
}

/// The flowSim-stage faults: each drives a different failure path in the
/// fluid engine (typed invalid-input error, budget exhaustion, panic
/// isolation).
const FLOWSIM_FAULTS: [(InjectedFault, FaultKind); 3] = [
    (InjectedFault::FlowsimNan, FaultKind::InvalidInput),
    (InjectedFault::FlowsimBudget, FaultKind::BudgetExceeded),
    (InjectedFault::FlowsimPanic, FaultKind::Panic),
];

#[test]
fn every_flowsim_fault_is_typed_under_fail_fast() {
    let (ft, flows, cfg) = small_workload(5);
    let est = untrained_estimator();
    for (kind, expect_fault) in FLOWSIM_FAULTS {
        let opts = EstimateOptions {
            policy: DegradationPolicy::FailFast,
            fault_plan: Some(FaultPlan::new(1).with(kind, 1.0)),
            ..EstimateOptions::default()
        };
        let err = est
            .try_estimate(&ft.topo, &flows, &cfg, K_PATHS, SEED, &opts)
            .expect_err("injected fault must fail a FailFast run");
        match err {
            M3Error::StageFault { stage, fault, .. } => {
                assert_eq!(stage, Stage::FlowSim, "{kind:?}");
                assert_eq!(fault, expect_fault, "{kind:?}");
            }
            other => panic!("{kind:?}: expected StageFault, got {other}"),
        }
    }
}

#[test]
fn forward_poison_is_typed_under_fail_fast() {
    let (ft, flows, cfg) = small_workload(5);
    let est = untrained_estimator();
    let opts = EstimateOptions {
        policy: DegradationPolicy::FailFast,
        fault_plan: Some(FaultPlan::new(1).with(InjectedFault::ForwardPoison, 1.0)),
        ..EstimateOptions::default()
    };
    let err = est
        .try_estimate(&ft.topo, &flows, &cfg, K_PATHS, SEED, &opts)
        .expect_err("poisoned forward pass must fail a FailFast run");
    assert!(
        matches!(
            err,
            M3Error::StageFault {
                stage: Stage::Forward,
                fault: FaultKind::NonFinite,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn degrade_absorbs_forward_faults_with_accurate_report() {
    let (ft, flows, cfg) = small_workload(5);
    let est = untrained_estimator();
    let opts = EstimateOptions {
        policy: degrade_all(),
        fault_plan: Some(FaultPlan::new(1).with(InjectedFault::ForwardPoison, 1.0)),
        ..EstimateOptions::default()
    };
    let e = est
        .try_estimate(&ft.topo, &flows, &cfg, K_PATHS, SEED, &opts)
        .expect("full degradation is allowed");
    let rep = &e.degradation;
    assert_eq!(rep.total_samples, K_PATHS);
    // Forward faults keep the flowSim result: degraded, not dropped.
    assert_eq!(rep.degraded_samples, K_PATHS);
    assert_eq!(rep.dropped_samples, 0);
    assert!(rep
        .events
        .iter()
        .all(|ev| ev.stage == Stage::Forward && ev.fault == FaultKind::NonFinite));
    assert_eq!(
        rep.events
            .iter()
            .map(|ev| ev.samples_affected)
            .sum::<usize>(),
        K_PATHS
    );
    let p99 = e.p99();
    assert!(p99.is_finite() && p99 >= 1.0, "p99 {p99}");

    // Degrading every sample to the uncorrected flowSim distribution must
    // equal the flowSim-only ablation estimator.
    let fs = flowsim_estimate(&ft.topo, &flows, &cfg, K_PATHS, SEED);
    assert_estimates_bit_identical(&fs, &e);
}

#[test]
fn degrade_drops_flowsim_faulted_samples_and_reports_them() {
    let (ft, flows, cfg) = small_workload(5);
    let est = untrained_estimator();
    for (kind, expect_fault) in FLOWSIM_FAULTS {
        // Inject on roughly half the slots so usable samples remain.
        let opts = EstimateOptions {
            policy: degrade_all(),
            fault_plan: Some(FaultPlan::new(4).with(kind, 0.5)),
            ..EstimateOptions::default()
        };
        let e = est
            .try_estimate(&ft.topo, &flows, &cfg, K_PATHS, SEED, &opts)
            .expect("partial degradation is allowed");
        let rep = &e.degradation;
        assert_eq!(rep.total_samples, K_PATHS, "{kind:?}");
        assert_eq!(rep.degraded_samples, 0, "{kind:?}");
        assert_eq!(
            rep.dropped_samples,
            rep.events
                .iter()
                .map(|ev| ev.samples_affected)
                .sum::<usize>(),
            "{kind:?}"
        );
        assert!(
            rep.dropped_samples > 0 && rep.dropped_samples < K_PATHS,
            "{kind:?}: want a partial drop, got {}",
            rep.dropped_samples
        );
        assert!(
            rep.events
                .iter()
                .all(|ev| ev.stage == Stage::FlowSim && ev.fault == expect_fault),
            "{kind:?}: {:?}",
            rep.events
        );
        let p99 = e.p99();
        assert!(p99.is_finite() && p99 >= 1.0, "{kind:?}: p99 {p99}");
    }
}

#[test]
fn degradation_limit_aborts_widespread_faults() {
    let (ft, flows, cfg) = small_workload(5);
    let est = untrained_estimator();
    let opts = EstimateOptions {
        policy: DegradationPolicy::Degrade {
            max_degraded_frac: 0.1,
        },
        fault_plan: Some(FaultPlan::new(1).with(InjectedFault::FlowsimPanic, 1.0)),
        ..EstimateOptions::default()
    };
    let err = est
        .try_estimate(&ft.topo, &flows, &cfg, K_PATHS, SEED, &opts)
        .expect_err("every sample faulted; 10% ceiling must trip");
    match err {
        M3Error::DegradationLimitExceeded {
            degraded,
            total,
            max_frac,
        } => {
            assert_eq!((degraded, total), (K_PATHS, K_PATHS));
            assert!((max_frac - 0.1).abs() < 1e-12);
        }
        other => panic!("expected DegradationLimitExceeded, got {other}"),
    }
}

#[test]
fn all_samples_dropped_yields_no_usable_samples() {
    let (ft, flows, cfg) = small_workload(5);
    let est = untrained_estimator();
    let opts = EstimateOptions {
        policy: degrade_all(),
        fault_plan: Some(FaultPlan::new(1).with(InjectedFault::FlowsimBudget, 1.0)),
        ..EstimateOptions::default()
    };
    let err = est
        .try_estimate(&ft.topo, &flows, &cfg, K_PATHS, SEED, &opts)
        .expect_err("no sample survives");
    assert!(
        matches!(err, M3Error::NoUsableSamples { total } if total == K_PATHS),
        "{err}"
    );
}

#[test]
fn empty_fault_plan_is_bit_identical_to_no_plan() {
    // A plan with no rules (0 affected samples) must not perturb the
    // estimate in any way: same bits as the fault-free pipeline.
    let (ft, flows, cfg) = small_workload(5);
    let est = untrained_estimator();
    let clean = est.estimate(&ft.topo, &flows, &cfg, K_PATHS, SEED);
    let opts = EstimateOptions {
        fault_plan: Some(FaultPlan::new(123)),
        ..EstimateOptions::default()
    };
    let planned = est
        .try_estimate(&ft.topo, &flows, &cfg, K_PATHS, SEED, &opts)
        .expect("empty plan faults nothing");
    assert_estimates_bit_identical(&clean, &planned);
    assert!(planned.degradation.is_clean());
}

#[test]
fn injected_runs_are_deterministic() {
    let (ft, flows, cfg) = small_workload(5);
    let est = untrained_estimator();
    let opts = EstimateOptions {
        policy: degrade_all(),
        fault_plan: Some(FaultPlan::new(9).with(InjectedFault::FlowsimPanic, 0.4)),
        ..EstimateOptions::default()
    };
    let a = est
        .try_estimate(&ft.topo, &flows, &cfg, K_PATHS, SEED, &opts)
        .expect("partial degradation");
    let b = est
        .try_estimate(&ft.topo, &flows, &cfg, K_PATHS, SEED, &opts)
        .expect("partial degradation");
    assert_estimates_bit_identical(&a, &b);
    assert_eq!(a.degradation, b.degradation);
}

#[test]
fn degraded_results_are_never_cached() {
    let (ft, flows, cfg) = small_workload(5);
    let est = untrained_estimator();
    let mut cache = ScenarioCache::new(256);

    // First run degrades every forward output; nothing may enter the cache.
    let opts = EstimateOptions {
        policy: degrade_all(),
        fault_plan: Some(FaultPlan::new(1).with(InjectedFault::ForwardPoison, 1.0)),
        ..EstimateOptions::default()
    };
    let degraded = est
        .try_estimate_with_cache(&ft.topo, &flows, &cfg, K_PATHS, SEED, &mut cache, &opts)
        .expect("full degradation is allowed");
    assert!(!degraded.degradation.is_clean());
    assert_eq!(cache.len(), 0, "fallback distributions must not be cached");

    // A later fault-free run must therefore produce the exact clean answer.
    let clean = est.estimate(&ft.topo, &flows, &cfg, K_PATHS, SEED);
    let after = est
        .try_estimate_with_cache(
            &ft.topo,
            &flows,
            &cfg,
            K_PATHS,
            SEED,
            &mut cache,
            &EstimateOptions::default(),
        )
        .expect("fault-free run");
    assert_estimates_bit_identical(&clean, &after);
    assert!(after.degradation.is_clean());
}

#[test]
fn poisoned_cache_entry_is_evicted_and_recomputed() {
    let (ft, flows, cfg) = small_workload(5);
    let est = untrained_estimator();
    let mut cache = ScenarioCache::new(256);

    let clean = est
        .try_estimate_with_cache(
            &ft.topo,
            &flows,
            &cfg,
            K_PATHS,
            SEED,
            &mut cache,
            &EstimateOptions::default(),
        )
        .expect("fault-free run");
    assert!(!cache.is_empty());

    // Overwrite every cached distribution with poison (NaN percentile):
    // the cache is keyed by fingerprints the test can compute itself, so
    // re-derive each key and insert a corrupt distribution over it. The
    // re-run must evict the poison, recompute, and return the exact clean
    // estimate with repair events (0 samples affected).
    let index = PathIndex::build(&ft.topo, &flows);
    let sampled = index.sample_paths(K_PATHS, SEED);
    let model_fp = est.net.fingerprint();
    let mut n_poisoned = 0;
    for &g in &sampled {
        let data = PathScenarioData::from_group(&ft.topo, &flows, &index, g, &cfg);
        let spec = spec_vector(&cfg, data.fg_base_rtt, data.fg_bottleneck);
        let key = scenario_fingerprint(&data, &spec, true);
        let mut poison = PathDistribution::from_samples(&[(500, 2.0)]);
        poison.buckets[0][0] = f64::NAN;
        cache.insert(key, model_fp, poison);
        n_poisoned += 1;
    }
    assert!(n_poisoned > 0);

    let repaired = est
        .try_estimate_with_cache(
            &ft.topo,
            &flows,
            &cfg,
            K_PATHS,
            SEED,
            &mut cache,
            &EstimateOptions::default(),
        )
        .expect("poisoned cache must be repaired, not fatal");
    assert_estimates_bit_identical(&clean, &repaired);
    let rep = &repaired.degradation;
    assert_eq!(rep.degraded_samples + rep.dropped_samples, 0);
    assert!(
        rep.events.iter().all(|ev| ev.stage == Stage::Cache
            && ev.fault == FaultKind::Corruption
            && ev.samples_affected == 0),
        "{:?}",
        rep.events
    );
    assert!(!rep.events.is_empty(), "repairs must be reported");
    assert_eq!(
        repaired.timings.cache_hits, 0,
        "poison cannot count as a hit"
    );
}

#[test]
fn stage_budget_bounds_flowsim() {
    // A tiny event budget trips deterministically (as a typed error) on
    // any real path scenario instead of letting a runaway run hang.
    let (ft, flows, cfg) = small_workload(5);
    let est = untrained_estimator();
    let opts = EstimateOptions {
        policy: DegradationPolicy::FailFast,
        budget: StageBudget {
            flowsim: FluidBudget::events(10),
        },
        ..EstimateOptions::default()
    };
    let err = est
        .try_estimate(&ft.topo, &flows, &cfg, K_PATHS, SEED, &opts)
        .expect_err("a 10-event flowSim budget cannot finish a real path");
    assert!(
        matches!(
            err,
            M3Error::StageFault {
                stage: Stage::FlowSim,
                fault: FaultKind::BudgetExceeded,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn corrupted_checkpoint_fails_loading_with_typed_error_not_oom() {
    use m3::nn::prelude::{load_file, save_file, M3Net};
    let cfg = ModelConfig {
        embed: 16,
        heads: 2,
        layers: 1,
        ff_hidden: 16,
        mlp_hidden: 32,
        ..ModelConfig::repro_default(SPEC_DIM)
    };
    let net = M3Net::new(cfg, 3);
    let dir = std::env::temp_dir().join("m3_fault_injection_ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.bin");
    save_file(&net, 3, &path).unwrap();
    let clean_bytes = std::fs::read(&path).unwrap();

    // Corrupt the header region (past magic+version+len = 12 bytes) at
    // several seeds: load must return an error or — if the flip only
    // touched payload f32s that happen to parse — a loadable net; it must
    // never panic or over-allocate.
    for seed in 0..8u64 {
        let mut bytes = clean_bytes.clone();
        FaultPlan::new(seed).corrupt_bytes(&mut bytes, 12, 4);
        if bytes == clean_bytes {
            continue;
        }
        let corrupted_path = dir.join(format!("corrupt_{seed}.bin"));
        std::fs::write(&corrupted_path, &bytes).unwrap();
        let _ = load_file(&corrupted_path); // must return, not panic
    }

    // A corrupt length field claiming a multi-GB header must be rejected.
    let mut bytes = clean_bytes.clone();
    bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = load_file(&path).expect_err("absurd header length");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a NaN weight reachable only through a zero activation must
/// still surface as a forward-stage fault.
///
/// The hidden unit feeding the poisoned `mlp.w2` row is pinned to exactly
/// 0.0 by a huge negative `mlp.b1` bias (relu clamp), so every product with
/// the NaN row is `0.0 * NaN`. The original matmul kernels skipped zero
/// activations unconditionally, silently dropping the NaN and returning a
/// finite — corrupt — estimate. The kernels now only skip when the weight
/// operand is provably finite, so the NaN propagates IEEE-correctly and a
/// FailFast run reports `Stage::Forward` / `FaultKind::NonFinite`.
#[test]
fn nan_weight_behind_zero_activation_faults_forward_stage() {
    use m3::nn::prelude::ParamId;

    let (ft, flows, cfg) = small_workload(7);
    let mut est = untrained_estimator();
    let (mut b1, mut w2) = (None, None);
    for (i, p) in est.net.store.iter().enumerate() {
        match p.name.as_str() {
            "mlp.b1" => b1 = Some(ParamId(i)),
            "mlp.w2" => w2 = Some(ParamId(i)),
            _ => {}
        }
    }
    let (b1, w2) = (b1.expect("mlp.b1 exists"), w2.expect("mlp.w2 exists"));
    // Hidden unit 0 relu-clamps to exactly 0.0 for every input...
    est.net.store.get_mut(b1).data[0] = -1e9;
    // ...and the weight row it feeds is poisoned with NaN.
    let cols = est.net.store.get(w2).cols;
    for c in 0..cols {
        est.net.store.get_mut(w2).data[c] = f32::NAN;
    }

    let opts = EstimateOptions {
        policy: DegradationPolicy::FailFast,
        ..EstimateOptions::default()
    };
    let err = est
        .try_estimate(&ft.topo, &flows, &cfg, K_PATHS, SEED, &opts)
        .expect_err("NaN parameters must fail a FailFast run");
    assert!(
        matches!(
            err,
            M3Error::StageFault {
                stage: Stage::Forward,
                fault: FaultKind::NonFinite,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn discontiguous_path_is_rejected_with_a_typed_error() {
    // Links in range but not chained from src to dst: before the check,
    // a release build walked them as if contiguous (`Link::other` is only
    // a `debug_assert`) and estimated over the wrong ports.
    let (ft, mut flows, cfg) = small_workload(5);
    let est = untrained_estimator();
    let expect_invalid = |flows: &[FlowSpec], needle: &str| {
        let err = est
            .try_estimate(
                &ft.topo,
                flows,
                &cfg,
                K_PATHS,
                SEED,
                &EstimateOptions::default(),
            )
            .unwrap_err();
        match &err {
            M3Error::InvalidSpec {
                stage: Stage::Validate,
                reason,
            } => assert!(reason.contains(needle), "{reason}"),
            other => panic!("expected InvalidSpec at validate, got {other}"),
        }
        assert!(!err.is_transient());
    };

    // A hop that does not touch the node the previous hop reached: swap two
    // hops of a route that crosses the fabric.
    let i = flows.iter().position(|f| f.path.len() >= 4).unwrap();
    let original = flows[i].clone();
    flows[i].path.swap(1, 2);
    let at = flows[i].src;
    let first = ft.topo.link(flows[i].path[0]);
    let reached = first.other(at);
    expect_invalid(
        &flows,
        &format!(
            "flow {}: path is not contiguous: hop 1 (link {}) does not touch node {}",
            original.id,
            flows[i].path[1].index(),
            reached.index()
        ),
    );

    // A contiguous walk that stops short of dst.
    flows[i] = original.clone();
    flows[i].path.pop();
    expect_invalid(&flows, &format!("flow {}: path ends at node", original.id));

    // Untouched, the workload is valid.
    flows[i] = original;
    assert!(validate_workload(&ft.topo, &flows).is_ok());
}

#[test]
fn route_longer_than_flowsim_can_index_is_rejected_with_a_typed_error() {
    // flowSim indexes a path's hops with `u16`: a contiguous route that
    // bounces over one link 65 537 times used to be accepted, and its
    // foreground then spanned hop 0 only, with no error.
    use m3::core::error::MAX_PATH_HOPS;
    let mut topo = Topology::new();
    let (a, b) = (topo.add_host(), topo.add_host());
    let link = topo.add_link(a, b, 10 * GBPS, USEC);
    let bounce = |hops: usize| FlowSpec {
        id: 0,
        src: a,
        dst: b,
        size: 1_000,
        arrival: 0,
        path: vec![link; hops],
    };
    // An odd hop count ends at `b`, so both routes are contiguous.
    assert_eq!(MAX_PATH_HOPS, 65_536);
    assert!(validate_workload(&topo, &[bounce(MAX_PATH_HOPS - 1)]).is_ok());
    let too_long = [bounce(MAX_PATH_HOPS + 1)];
    let err = untrained_estimator()
        .try_estimate(
            &topo,
            &too_long,
            &SimConfig::default(),
            K_PATHS,
            SEED,
            &EstimateOptions::default(),
        )
        .unwrap_err();
    match &err {
        M3Error::InvalidSpec {
            stage: Stage::Validate,
            reason,
        } => assert_eq!(
            reason,
            "flow 0: path has 65537 hops, more than the 65536 flowSim can index"
        ),
        other => panic!("expected InvalidSpec at validate, got {other}"),
    }
    assert!(!err.is_transient());
}
