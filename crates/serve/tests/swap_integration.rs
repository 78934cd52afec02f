//! End-to-end model lifecycle tests: registry publish → shadow-gated hot
//! swap → post-promotion breaker → rollback, plus crash recovery of a
//! dangling swap. Every scenario is deterministic — failure modes are
//! forced through [`FaultPlan`] or direct on-disk corruption, never timing.

use m3_core::prelude::{
    build_dataset, train, FaultPlan, InjectedFault, M3Estimator, TrainConfig, SPEC_DIM,
};
use m3_nn::prelude::{Lineage, M3Net, ModelConfig, ModelRef, ModelRegistry};
use m3_serve::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

const IDLE: Duration = Duration::from_secs(120);

fn tiny_config() -> ModelConfig {
    ModelConfig {
        embed: 16,
        heads: 2,
        layers: 1,
        ff_hidden: 16,
        mlp_hidden: 32,
        ..ModelConfig::repro_default(SPEC_DIM)
    }
}

fn tiny_net(seed: u64) -> M3Net {
    M3Net::new(tiny_config(), seed)
}

/// [`tiny_net`]'s shape, trained for a fraction of a second on a small
/// seeded dataset.
fn trained_tiny_net() -> M3Net {
    let cfg = TrainConfig {
        n_scenarios: 12,
        fg_flows: 60,
        bg_flows: 180,
        epochs: 10,
        batch_size: 4,
        model: tiny_config(),
        ..TrainConfig::default()
    };
    train(&cfg, &build_dataset(&cfg)).0
}

fn tiny_request(seed: u64, paths: usize) -> EstimateRequest {
    EstimateRequest::new(
        ScenarioSpec {
            topology: TopoSpec::FatTreeSmall { oversub: 2 },
            workload: WorkloadSpec {
                n_flows: 60,
                matrix: "B".into(),
                sizes: "WebServer".into(),
                sigma: 1.0,
                max_load: 0.4,
            },
            config: ConfigSpec::default(),
        },
        paths,
        seed,
    )
}

fn quick_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

/// A gate so generous any intact candidate promotes — lifecycle tests
/// that exercise machinery *after* the shadow gate use this.
fn permissive_swap_config() -> SwapConfig {
    SwapConfig {
        shadow_window: 4,
        max_err_ratio: 1e9,
        abs_err_slack: 1e9,
        ..SwapConfig::default()
    }
}

fn temp_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("m3_swap_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

fn registry_with(nets: &[&M3Net], tag: &str) -> ModelRegistry {
    let root = temp_path(tag);
    let reg = ModelRegistry::open(&root).unwrap();
    for (i, net) in nets.iter().enumerate() {
        reg.publish(net, i as u64 + 1, Lineage::default()).unwrap();
    }
    reg
}

#[test]
fn corrupt_candidate_is_quarantined_and_never_activated() {
    let serving = tiny_net(1);
    let fp_serving = serving.fingerprint();
    let candidate = tiny_net(2);
    let reg = registry_with(&[&candidate], "corrupt");

    // Flip one byte of the published object on disk.
    let entry = reg.resolve(ModelRef::Latest).unwrap();
    let obj = reg.root().join(&entry.file);
    let mut bytes = std::fs::read(&obj).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&obj, &bytes).unwrap();

    let svc = Service::start(M3Estimator::new(serving), quick_config());
    let mut coord = SwapCoordinator::new(reg, permissive_swap_config());
    match coord.try_swap(&svc, ModelRef::Latest).unwrap() {
        SwapOutcome::RejectedIntegrity { version, error } => {
            assert_eq!(version, 1);
            assert!(error.contains("quarantined"), "{error}");
        }
        other => panic!("corrupt candidate not rejected: {other:?}"),
    }
    // Quarantined to a sidecar; the serving model never changed.
    let entry = coord.registry().resolve(ModelRef::Version(1)).unwrap();
    assert!(coord.registry().is_quarantined(&entry));
    let stats = svc.stats();
    assert_eq!(stats.model_fingerprint, fp_serving);
    assert_eq!(stats.model_version, None);
    assert_eq!(stats.model_swaps, 0);
    assert!(!coord.breaker_armed());
    svc.shutdown();
}

#[test]
fn injected_regression_is_rejected_by_shadow_gate() {
    let serving = tiny_net(1);
    let fp_serving = serving.fingerprint();
    let reg = registry_with(&[&tiny_net(2)], "regressed");
    let svc = Service::start(M3Estimator::new(serving), quick_config());

    let cfg = SwapConfig {
        fault_plan: Some(FaultPlan::new(9).with(InjectedFault::RegressedCandidate, 1.0)),
        ..permissive_swap_config()
    };
    let mut coord = SwapCoordinator::new(reg, cfg);
    match coord.try_swap(&svc, ModelRef::Latest).unwrap() {
        SwapOutcome::RejectedShadow { version, shadow } => {
            assert_eq!(version, 1);
            assert!(shadow.candidate_err.is_infinite());
        }
        other => panic!("regressed candidate not rejected: {other:?}"),
    }
    assert_eq!(svc.stats().model_fingerprint, fp_serving);
    assert_eq!(svc.stats().model_swaps, 0);
    svc.shutdown();
}

#[test]
fn genuinely_worse_candidate_is_rejected_on_live_window() {
    // With a zero-tolerance gate and a real replay window, a candidate
    // that scores measurably worse than the serving model is rejected
    // through the genuine shadow path (no fault injection): the serving
    // model is trained, the candidate is not, so the candidate's p50, p90
    // and p99 sit further from the flowSim truth. Deterministic, since
    // training, both models and the replay are seeded.
    let serving = trained_tiny_net();
    let reg = registry_with(&[&tiny_net(1)], "liveshadow");
    let svc = Service::start(M3Estimator::new(serving), quick_config());
    for s in 0..3u64 {
        svc.submit(tiny_request(40 + s, 2)).unwrap();
    }
    assert!(svc.wait_idle(IDLE));

    let cfg = SwapConfig {
        shadow_window: 3,
        max_err_ratio: 1.0,
        abs_err_slack: 0.0,
        ..SwapConfig::default()
    };
    let mut coord = SwapCoordinator::new(reg, cfg);
    match coord.try_swap(&svc, ModelRef::Latest).unwrap() {
        SwapOutcome::RejectedShadow { shadow, .. } => {
            assert!(shadow.scenarios > 0, "window was not replayed");
            assert!(shadow.candidate_err > shadow.baseline_err);
        }
        other => panic!("expected shadow rejection: {other:?}"),
    }
    svc.shutdown();
}

#[test]
fn promotion_flips_fingerprint_exactly_once() {
    let serving = tiny_net(1);
    let fp_old = serving.fingerprint();
    let candidate = tiny_net(2);
    let fp_new = candidate.fingerprint();
    assert_ne!(fp_old, fp_new);
    let reg = registry_with(&[&candidate], "flip");

    let svc = Service::start(M3Estimator::new(serving), quick_config());
    for s in 0..2u64 {
        svc.submit(tiny_request(50 + s, 2)).unwrap();
    }
    assert!(svc.wait_idle(IDLE));
    assert_eq!(svc.stats().model_fingerprint, fp_old);
    assert_eq!(svc.stats().model_swaps, 0);

    let mut coord = SwapCoordinator::new(reg, permissive_swap_config());
    match coord.try_swap(&svc, ModelRef::Latest).unwrap() {
        SwapOutcome::Promoted {
            version,
            fingerprint,
            ..
        } => {
            assert_eq!(version, 1);
            assert_eq!(fingerprint, fp_new);
        }
        other => panic!("expected promotion: {other:?}"),
    }

    // Exactly one flip: new fingerprint, new version, one committed swap —
    // and it stays that way under post-swap traffic.
    let stats = svc.stats();
    assert_eq!(stats.model_fingerprint, fp_new);
    assert_eq!(stats.model_version, Some(1));
    assert_eq!(stats.model_swaps, 1);
    for s in 0..2u64 {
        svc.submit(tiny_request(60 + s, 2)).unwrap();
    }
    assert!(svc.wait_idle(IDLE));
    assert_eq!(svc.stats().model_swaps, 1);
    assert_eq!(svc.stats().model_fingerprint, fp_new);
    svc.shutdown();
}

#[test]
fn stale_model_cache_entries_are_not_served_after_swap() {
    let serving = tiny_net(1);
    let reg = registry_with(&[&tiny_net(2)], "cache");
    let svc = Service::start(M3Estimator::new(serving), quick_config());

    // Same request twice: the second run answers from the shared scenario
    // cache under the old model's fingerprint.
    let req = tiny_request(77, 3);
    svc.submit(req.clone()).unwrap();
    assert!(svc.wait_idle(IDLE));
    let misses_cold = svc.stats().cache.misses;
    assert!(misses_cold > 0, "first run must miss");
    svc.submit(req.clone()).unwrap();
    assert!(svc.wait_idle(IDLE));
    let warm = svc.stats().cache;
    assert!(warm.hits > 0, "second run must hit the cache");

    let mut coord = SwapCoordinator::new(reg, permissive_swap_config());
    assert!(matches!(
        coord.try_swap(&svc, ModelRef::Latest).unwrap(),
        SwapOutcome::Promoted { .. }
    ));

    // Same scenario on the new model: the cache key includes the model
    // fingerprint, so the old entries are unreachable — misses grow,
    // hits do not.
    svc.submit(req).unwrap();
    assert!(svc.wait_idle(IDLE));
    let post = svc.stats().cache;
    assert_eq!(post.hits, warm.hits, "stale-model cache entry was served");
    assert!(post.misses > warm.misses, "new model must repopulate");
    svc.shutdown();
}

#[test]
fn kill_mid_swap_resumes_on_pre_swap_version() {
    let net_a = tiny_net(1);
    let fp_a = net_a.fingerprint();
    let net_b = tiny_net(2);
    let fp_b = net_b.fingerprint();
    let reg = registry_with(&[&net_a, &net_b], "killmid");
    let journal = temp_path("killmid_journal");

    let svc = Service::start_journaled(M3Estimator::new(net_a.clone()), quick_config(), &journal)
        .unwrap();
    svc.submit(tiny_request(90, 2)).unwrap();
    assert!(svc.wait_idle(IDLE));

    // Commit v1, then stall the v2 swap between intent and install.
    let mut coord = SwapCoordinator::new(reg, permissive_swap_config());
    assert!(matches!(
        coord.try_swap(&svc, ModelRef::Version(1)).unwrap(),
        SwapOutcome::Promoted { version: 1, .. }
    ));
    let stall = SwapConfig {
        fault_plan: Some(FaultPlan::new(3).with(InjectedFault::SwapStall, 1.0)),
        ..permissive_swap_config()
    };
    let reg = ModelRegistry::open(coord.registry().root()).unwrap();
    let mut stalled = SwapCoordinator::new(reg, stall);
    match stalled.try_swap(&svc, ModelRef::Version(2)).unwrap() {
        SwapOutcome::Stalled {
            version,
            fingerprint,
        } => {
            assert_eq!(version, 2);
            assert_eq!(fingerprint, fp_b);
        }
        other => panic!("expected stall: {other:?}"),
    }
    // The wedged swap never installed.
    assert_eq!(svc.active_model(), (fp_a, Some(1)));
    svc.abort();

    // Crash recovery: the journal holds `ModelSwap v1` plus a dangling
    // `SwapIntent v2` — resume must land on v1 and surface the intent.
    let reg = ModelRegistry::open(stalled.registry().root()).unwrap();
    let (svc, replay) = Service::resume(
        M3Estimator::new(net_a),
        quick_config(),
        &journal,
        Some(&reg),
    )
    .unwrap();
    assert_eq!(replay.active_model, Some((1, fp_a)));
    assert_eq!(replay.dangling_swap, Some((2, fp_b)));
    assert_eq!(svc.active_model(), (fp_a, Some(1)));
    svc.shutdown();
}

#[test]
fn post_promotion_spike_rolls_back_and_journals() {
    let net_a = tiny_net(1);
    let fp_a = net_a.fingerprint();
    let net_b = tiny_net(2);
    let reg = registry_with(&[&net_a, &net_b], "rollback");
    let journal = temp_path("rollback_journal");

    let svc = Service::start_journaled(M3Estimator::new(net_a.clone()), quick_config(), &journal)
        .unwrap();
    let cfg = SwapConfig {
        rollback_window: 4,
        max_bad_frac_increase: 0.2,
        ..permissive_swap_config()
    };
    let reg2 = ModelRegistry::open(reg.root()).unwrap();
    let mut coord = SwapCoordinator::new(reg2, cfg);

    // Establish v1 with a healthy baseline window.
    assert!(matches!(
        coord.try_swap(&svc, ModelRef::Version(1)).unwrap(),
        SwapOutcome::Promoted { version: 1, .. }
    ));
    for s in 0..4u64 {
        svc.submit(tiny_request(100 + s, 2)).unwrap();
    }
    assert!(svc.wait_idle(IDLE));
    // v1 had no registry predecessor to roll back to: breaker disarms.
    assert!(coord.poll_rollback(&svc).unwrap().is_none());
    assert!(!coord.breaker_armed());

    // Promote v2, then drive a bad-outcome spike (every job degrades via
    // injected forward poison) through its observation window.
    assert!(matches!(
        coord.try_swap(&svc, ModelRef::Version(2)).unwrap(),
        SwapOutcome::Promoted { version: 2, .. }
    ));
    assert!(coord.breaker_armed());
    for s in 0..4u64 {
        let mut req = tiny_request(200 + s, 2);
        req.fault_plan = Some(FaultPlan::new(s).with(InjectedFault::ForwardPoison, 1.0));
        svc.submit(req).unwrap();
    }
    assert!(svc.wait_idle(IDLE));
    let rb = coord
        .poll_rollback(&svc)
        .unwrap()
        .expect("spike must roll back");
    assert_eq!(rb.from_version, 2);
    assert_eq!(rb.to_version, 1);
    assert!(rb.post_bad_frac > rb.pre_bad_frac + 0.2);
    assert!(!coord.breaker_armed());
    assert_eq!(svc.active_model(), (fp_a, Some(1)));
    // Promote + rollback both counted as committed swaps (plus the v1
    // install at the start).
    assert_eq!(svc.stats().model_swaps, 3);
    svc.abort();

    // The rollback is journaled: a crash after it resumes on v1.
    let (svc, replay) = Service::resume(
        M3Estimator::new(net_a),
        quick_config(),
        &journal,
        Some(&reg),
    )
    .unwrap();
    assert_eq!(replay.active_model, Some((1, fp_a)));
    assert_eq!(replay.dangling_swap, None);
    assert_eq!(svc.active_model(), (fp_a, Some(1)));
    svc.shutdown();
}

#[test]
fn healthy_window_disarms_breaker_without_rollback() {
    let net_a = tiny_net(1);
    let net_b = tiny_net(2);
    let fp_b = net_b.fingerprint();
    let reg = registry_with(&[&net_a, &net_b], "healthy");
    let svc = Service::start(M3Estimator::new(net_a), quick_config());
    let cfg = SwapConfig {
        rollback_window: 3,
        max_bad_frac_increase: 0.2,
        ..permissive_swap_config()
    };
    let mut coord = SwapCoordinator::new(reg, cfg);

    assert!(matches!(
        coord.try_swap(&svc, ModelRef::Version(1)).unwrap(),
        SwapOutcome::Promoted { .. }
    ));
    assert!(coord.poll_rollback(&svc).unwrap().is_none());
    assert!(matches!(
        coord.try_swap(&svc, ModelRef::Version(2)).unwrap(),
        SwapOutcome::Promoted { .. }
    ));
    // Not enough post-swap jobs settled yet: breaker stays armed.
    assert!(coord.poll_rollback(&svc).unwrap().is_none());
    assert!(coord.breaker_armed());
    for s in 0..3u64 {
        svc.submit(tiny_request(300 + s, 2)).unwrap();
    }
    assert!(svc.wait_idle(IDLE));
    assert!(coord.poll_rollback(&svc).unwrap().is_none());
    assert!(!coord.breaker_armed(), "healthy window must disarm");
    assert_eq!(svc.active_model().0, fp_b);
    svc.shutdown();
}

#[test]
fn registry_lifecycle_estimates_bit_identical_to_plain_service() {
    // A model that reaches the serving path via publish → load → swap must
    // answer exactly like the same weights handed to `Service::start`:
    // the registry round-trip and swap machinery may not perturb a bit.
    let net = tiny_net(5);
    let reg = registry_with(&[&net], "bitident");
    let req = tiny_request(123, 3);

    let plain = Service::start(M3Estimator::new(net.clone()), quick_config());
    let id = plain.submit(req.clone()).unwrap();
    assert!(plain.wait_idle(IDLE));
    let want = match plain.outcome(id).expect("settled") {
        JobOutcome::Completed { estimate, .. } => estimate,
        other => panic!("plain service not completed: {other:?}"),
    };
    plain.shutdown();

    // Start on *different* weights, then swap to the registry copy.
    let swapped = Service::start(M3Estimator::new(tiny_net(6)), quick_config());
    let mut coord = SwapCoordinator::new(reg, permissive_swap_config());
    assert!(matches!(
        coord.try_swap(&swapped, ModelRef::Latest).unwrap(),
        SwapOutcome::Promoted { .. }
    ));
    let id = swapped.submit(req).unwrap();
    assert!(swapped.wait_idle(IDLE));
    let got = match swapped.outcome(id).expect("settled") {
        JobOutcome::Completed { estimate, .. } => estimate,
        other => panic!("swapped service not completed: {other:?}"),
    };
    swapped.shutdown();

    assert_eq!(want.bucket_counts, got.bucket_counts);
    for (b, (wa, ga)) in want
        .bucket_samples
        .iter()
        .zip(&got.bucket_samples)
        .enumerate()
    {
        assert_eq!(wa.len(), ga.len(), "bucket {b} sample count");
        for (i, (x, y)) in wa.iter().zip(ga).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "bucket {b} sample {i}");
        }
    }
}

#[test]
fn cluster_hot_swap_installs_on_every_live_shard() {
    let net_a = tiny_net(1);
    let net_b = tiny_net(2);
    let fp_b = net_b.fingerprint();
    let reg = registry_with(&[&net_b], "cluster");

    let cluster = Cluster::start(
        net_a,
        ClusterConfig {
            shards: 2,
            shard: quick_config(),
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    for s in 0..2u64 {
        cluster.submit(tiny_request(400 + s, 2)).unwrap();
    }
    assert!(cluster.wait_idle(IDLE));
    assert_eq!(cluster.stats().model_swaps, 0);

    let mut coord = SwapCoordinator::new(reg, permissive_swap_config());
    match coord.try_swap(&cluster, ModelRef::Latest).unwrap() {
        SwapOutcome::Promoted {
            version,
            fingerprint,
            ..
        } => {
            assert_eq!(version, 1);
            assert_eq!(fingerprint, fp_b);
        }
        other => panic!("expected cluster promotion: {other:?}"),
    }
    let stats = cluster.stats();
    assert_eq!(stats.model_fingerprint, fp_b);
    assert_eq!(stats.model_version, Some(1));
    assert_eq!(stats.model_swaps, 1);
    assert_eq!(cluster.active_model(), (fp_b, Some(1)));

    // Post-swap traffic settles on the new model on both shards.
    let mut ids = Vec::new();
    for s in 0..4u64 {
        ids.push(cluster.submit(tiny_request(500 + s, 2)).unwrap());
    }
    assert!(cluster.wait_idle(IDLE));
    for id in ids {
        assert!(
            matches!(cluster.outcome(id), Some(JobOutcome::Completed { .. })),
            "post-swap job did not complete cleanly"
        );
    }
    cluster.shutdown();
}
