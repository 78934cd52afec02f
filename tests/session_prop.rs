//! Property tests for incremental scenario sessions: a random sequence of
//! typed deltas folded through a [`ScenarioSession`] must land on results
//! bit-identical to a from-scratch estimate of the final scenario; fault
//! injection must stay deterministic (two identically-faulted sessions
//! agree bit for bit); and a journaled serve-layer session killed at a
//! random point of the sequence and resumed must converge to the same
//! state as an uninterrupted run.

use m3::core::prelude::*;
use m3::netsim::prelude::*;
use m3::nn::prelude::{M3Net, ModelConfig};
use m3::serve::prelude::{
    ConfigSpec, OpenSessionRequest, ScenarioSpec, Service, ServiceConfig, TopoSpec, WorkloadSpec,
};
use m3::workload::prelude::*;
use proptest::prelude::*;

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

fn small_workload(n: usize) -> (FatTree, Vec<FlowSpec>, SimConfig) {
    let ft = FatTree::build(FatTreeSpec::small(2));
    let routing = Routing::new(&ft.topo);
    let sc = Scenario {
        n_flows: n,
        matrix_name: "B".into(),
        sizes: SizeDistribution::web_server(),
        sigma: 1.0,
        max_load: 0.4,
        seed: 17,
    };
    (
        ft.clone(),
        generate(&ft, &routing, &sc).flows,
        SimConfig::default(),
    )
}

/// Deltas valid against the small fat-tree by construction (links and
/// nodes well inside the topology, positive capacities, knob values well
/// inside the validated range).
fn arb_delta() -> impl Strategy<Value = ScenarioDelta> {
    (
        (0u32..5, 0u32..24, 2u64..11),
        // Endpoint filters: 32 encodes "any endpoint" (None).
        (0u32..33, 0u32..33),
        (1u32..4, 1u32..4),
        10_000u64..30_000,
    )
        .prop_map(|((tag, link, g), (src, dst), (num, den), w)| match tag {
            0 => ScenarioDelta::LinkCapacity {
                link,
                bandwidth: g * GBPS,
            },
            1 => ScenarioDelta::LinkDown { link },
            2 => ScenarioDelta::LinkUp { link },
            3 => ScenarioDelta::TrafficShift {
                src: (src < 32).then_some(src),
                dst: (dst < 32).then_some(dst),
                num,
                den,
            },
            _ => ScenarioDelta::CcKnob {
                knob: Knob::InitWindow,
                value: w as f64,
            },
        })
}

fn assert_bit_identical(a: &NetworkEstimate, b: &NetworkEstimate, what: &str) {
    assert_eq!(a.bucket_counts, b.bucket_counts, "{what}: bucket counts");
    for bucket in 0..NUM_OUTPUT_BUCKETS {
        let (sa, sb) = (&a.bucket_samples[bucket], &b.bucket_samples[bucket]);
        assert_eq!(sa.len(), sb.len(), "{what}: bucket {bucket} sample count");
        for (i, (x, y)) in sa.iter().zip(sb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: bucket {bucket} sample {i} diverged ({x} vs {y})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Tentpole contract: any delta sequence folded incrementally through
    /// a session is bit-identical to throwing the session away and
    /// estimating its final scenario from scratch with an empty cache.
    #[test]
    fn random_delta_sequence_matches_from_scratch(
        deltas in prop::collection::vec(arb_delta(), 1..5)
    ) {
        let (ft, flows, cfg) = small_workload(500);
        let est = tiny_estimator();
        let (k, seed) = (10, 3);
        let (mut session, _) = ScenarioSession::open(
            &est,
            ft.topo.clone(),
            flows,
            cfg,
            k,
            seed,
            SharedScenarioCache::new(4096),
            EstimateOptions::default(),
        ).unwrap();
        for d in &deltas {
            let update = session.apply_delta(&est, d).unwrap();
            // Every path is either dirty or reused.
            prop_assert_eq!(update.dirty_paths + update.reused_paths, update.total_paths);
        }
        let state = session.state();
        let scratch = est.try_estimate(
            &state.topo,
            &state.effective_flows(),
            &state.config,
            k,
            seed,
            &EstimateOptions::default(),
        ).unwrap();
        assert_bit_identical(session.estimate(), &scratch, "session vs scratch");
    }

    /// Fault injection stays deterministic: two sessions over the same
    /// scenario, the same injected-fault plan, and the same delta
    /// sequence degrade identically — bit-identical estimates, identical
    /// degradation counts — so a faulted run replays exactly.
    #[test]
    fn fault_injected_sessions_replay_bit_identically(
        deltas in prop::collection::vec(arb_delta(), 1..4),
        plan_seed in 0u64..1000,
    ) {
        let (ft, flows, cfg) = small_workload(400);
        let est = tiny_estimator();
        let (k, seed) = (8, 5);
        let options = EstimateOptions {
            fault_plan: Some(
                FaultPlan::new(plan_seed)
                    .with(InjectedFault::ForwardPoison, 0.4)
                    .with(InjectedFault::FlowsimBudget, 0.2),
            ),
            // The point is determinism *under* degradation, so let every
            // faulted sample degrade instead of tripping the ceiling.
            policy: DegradationPolicy::Degrade {
                max_degraded_frac: 1.0,
            },
            ..EstimateOptions::default()
        };
        let run = || {
            let (mut session, _) = ScenarioSession::open(
                &est,
                ft.topo.clone(),
                flows.clone(),
                cfg,
                k,
                seed,
                SharedScenarioCache::new(4096),
                options.clone(),
            ).unwrap();
            for d in &deltas {
                session.apply_delta(&est, d).unwrap();
            }
            session.estimate().clone()
        };
        let (a, b) = (run(), run());
        assert_bit_identical(&a, &b, "faulted replay");
        prop_assert_eq!(a.degradation.degraded_samples, b.degradation.degraded_samples);
        prop_assert_eq!(a.degradation.dropped_samples, b.degradation.dropped_samples);
    }

    /// Kill-and-resume: a journaled serve session killed after a random
    /// prefix of the delta sequence and resumed (journal replay) ends at
    /// the same state as an uninterrupted session that applied the whole
    /// sequence.
    #[test]
    fn killed_and_resumed_service_session_matches_uninterrupted(
        deltas in prop::collection::vec(arb_delta(), 1..4),
        split in 0usize..4,
    ) {
        let split = split.min(deltas.len());
        let scenario = ScenarioSpec {
            topology: TopoSpec::FatTreeSmall { oversub: 2 },
            workload: WorkloadSpec {
                n_flows: 300,
                matrix: "B".into(),
                sizes: "WebServer".into(),
                sigma: 1.0,
                max_load: 0.4,
            },
            config: ConfigSpec::default(),
        };
        let request = OpenSessionRequest::new(scenario, 6, 11);
        let config = ServiceConfig { workers: 0, ..ServiceConfig::default() };
        let path = std::env::temp_dir().join(format!(
            "m3-session-prop-{}-{split}-{}.jrn",
            std::process::id(),
            deltas.len(),
        ));

        let svc = Service::start_journaled(tiny_estimator(), config.clone(), &path).unwrap();
        let (id, _) = svc.open_session(request.clone()).unwrap();
        for d in &deltas[..split] {
            svc.apply_delta(id, d).unwrap();
        }
        svc.abort(); // kill: journal survives, in-memory state dies

        let (svc, replay) = Service::resume(tiny_estimator(), config.clone(), &path, None).unwrap();
        prop_assert!(replay.sessions.contains_key(&id));
        for d in &deltas[split..] {
            svc.apply_delta(id, d).unwrap();
        }
        let resumed = svc.session_estimate(id).unwrap();
        svc.shutdown();
        std::fs::remove_file(&path).ok();

        let svc = Service::start(tiny_estimator(), config);
        let (rid, _) = svc.open_session(request).unwrap();
        for d in &deltas {
            svc.apply_delta(rid, d).unwrap();
        }
        let reference = svc.session_estimate(rid).unwrap();
        svc.shutdown();
        assert_bit_identical(&resumed, &reference, "resumed vs uninterrupted");
    }
}
