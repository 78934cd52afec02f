//! Integration suite for the supervised estimation service: crash-recovery
//! replay, retry-until-success under transient faults, worker-panic
//! supervision, circuit-breaker open/close, load shedding, and deadlines.
//! Everything is seeded and fault injection is deterministic, so failures
//! replay bit-identically.

use m3::core::prelude::*;
use m3::nn::prelude::{M3Net, ModelConfig};
use m3::serve::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

const PATHS: usize = 6;
const IDLE: Duration = Duration::from_secs(180);

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

fn fast_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_capacity: 64,
        retry: RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 1,
            max_delay_ms: 4,
            seed: 9,
        },
        cache_capacity: 64,
        ..ServiceConfig::default()
    }
}

fn tmpjournal(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("m3-svc-itest-{}-{name}", std::process::id()))
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

/// Run `requests` through an uninterrupted service and return the
/// estimates, as the reference for recovery comparisons.
fn reference_outcomes(requests: &[EstimateRequest]) -> Vec<NetworkEstimate> {
    served_outcomes(2, &[requests])
}

/// Run `waves` of requests through an uninterrupted service of `workers`
/// workers, each wave submitted once the one before has settled, and
/// return the estimates in submission order.
fn served_outcomes(workers: usize, waves: &[&[EstimateRequest]]) -> Vec<NetworkEstimate> {
    let svc = Service::start(untrained_estimator(), fast_config(workers));
    let mut ids = Vec::new();
    for wave in waves {
        for r in *wave {
            ids.push(svc.submit(r.clone()).expect("reference submit"));
        }
        assert!(svc.wait_idle(IDLE), "reference run did not settle");
    }
    let out = ids
        .iter()
        .map(|id| {
            svc.outcome(*id)
                .expect("reference outcome")
                .estimate()
                .expect("reference estimate")
                .clone()
        })
        .collect();
    svc.shutdown();
    out
}

/// What a served request must equal: a direct `try_estimate` of its
/// materialized spec with default options.
fn direct_outcome(r: &EstimateRequest) -> NetworkEstimate {
    let (topo, flows, config) = r.scenario.materialize(r.seed).expect("materialize");
    untrained_estimator()
        .try_estimate(
            &topo,
            &flows,
            &config,
            r.paths,
            r.seed,
            &EstimateOptions::default(),
        )
        .expect("direct estimate")
}

/// A service worker runs its requests under a `rayon` worker count of
/// `max(1, cores / workers)` (2/1/1 at 1/2/4 workers on a 2-core box) and
/// takes repeated requests' prepared work from its memo. Neither may move a
/// bit: a fresh seed, and a repeated one served from the scenario cache and
/// the memo, both equal a direct `try_estimate`.
#[test]
fn served_estimates_equal_direct_ones_at_1_2_and_4_workers() {
    let req = |seed| EstimateRequest::new(scenario(500), PATHS, seed);
    let first = [req(41)];
    // Submitted after `first` settled: a repeat and a fresh seed.
    let second = [req(41), req(42)];
    let direct: Vec<NetworkEstimate> = first.iter().chain(&second).map(direct_outcome).collect();
    for workers in [1, 2, 4] {
        let served = served_outcomes(workers, &[&first, &second]);
        assert_eq!(served.len(), direct.len());
        for (got, want) in served.iter().zip(&direct) {
            assert_estimates_bit_identical(got, want);
        }
    }
}

/// A one-entry shared cache keeps none of a request's slots, so every
/// repeat rebuilds its misses from its memoized prepared work, and still
/// equals a direct estimate. A request that fails validation fails with the
/// direct estimate's typed error every time it is sent.
#[test]
fn repeats_equal_direct_estimates_through_a_cache_that_evicts_them() {
    let config = ServiceConfig {
        cache_capacity: 1,
        ..fast_config(1)
    };
    let svc = Service::start(untrained_estimator(), config);
    let req = EstimateRequest::new(scenario(500), PATHS, 43);
    let direct = direct_outcome(&req);
    let mut invalid = req.clone();
    invalid.paths = 0;
    let (topo, flows, cfg) = req.scenario.materialize(req.seed).expect("materialize");
    let direct_error = untrained_estimator()
        .try_estimate(
            &topo,
            &flows,
            &cfg,
            0,
            req.seed,
            &EstimateOptions::default(),
        )
        .expect_err("no paths to sample");
    for _ in 0..3 {
        let served = svc.submit(req.clone()).expect("submit");
        let refused = svc.submit(invalid.clone()).expect("submit");
        assert!(svc.wait_idle(IDLE), "jobs did not settle");
        let outcome = svc.outcome(served).expect("served outcome");
        assert_estimates_bit_identical(outcome.estimate().expect("estimate"), &direct);
        match svc.outcome(refused).expect("refused outcome") {
            JobOutcome::Failed { error, attempts } => {
                assert_eq!(error, direct_error);
                assert_eq!(attempts, 1);
            }
            other => panic!("an invalid request must fail: {other:?}"),
        }
    }
    assert!(svc.stats().cache.evictions > 0, "the cache kept every slot");
    svc.shutdown();
}

fn batch(n: usize) -> Vec<EstimateRequest> {
    (0..n)
        .map(|i| EstimateRequest::new(scenario(400 + 100 * (i % 3)), PATHS, 11 + i as u64))
        .collect()
}

/// Tentpole acceptance: a journaled service killed mid-queue (before any
/// job ran) replays the journal on restart and completes every accepted
/// job with results bit-identical to an uninterrupted run.
#[test]
fn crash_recovery_replays_to_bit_identical_results() {
    let requests = batch(4);
    let reference = reference_outcomes(&requests);

    let path = tmpjournal("replay-full");
    {
        // Zero workers: jobs are accepted and journaled, never started —
        // then the handle is dropped ungracefully, as a crash would.
        let svc = Service::start_journaled(untrained_estimator(), fast_config(0), &path)
            .expect("create journal");
        for r in &requests {
            svc.submit(r.clone()).expect("submit");
        }
        let stats = svc.stats();
        assert_eq!(stats.accepted, requests.len() as u64);
        assert_eq!(stats.settled(), 0, "nothing may run before the crash");
        svc.abort();
    }

    let (svc, replay) =
        Service::resume(untrained_estimator(), fast_config(2), &path, None).expect("resume");
    assert_eq!(replay.pending().len(), requests.len());
    assert!(svc.wait_idle(IDLE), "resumed run did not settle");
    for (i, want) in reference.iter().enumerate() {
        let out = svc.outcome(i as u64).expect("resumed outcome");
        let got = out.estimate().expect("resumed estimate");
        assert_estimates_bit_identical(got, want);
    }
    svc.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Kill after some jobs settled: the restart replays exactly the pending
/// tail, and the union of pre-crash and post-crash outcomes covers every
/// accepted job bit-identically.
#[test]
fn partial_crash_recovery_completes_the_pending_tail() {
    let requests = batch(5);
    let reference = reference_outcomes(&requests);

    let path = tmpjournal("replay-partial");
    let settled_before = {
        let svc = Service::start_journaled(untrained_estimator(), fast_config(1), &path)
            .expect("create journal");
        for r in &requests {
            svc.submit(r.clone()).expect("submit");
        }
        // Let at least one job settle, then crash.
        let deadline = std::time::Instant::now() + IDLE;
        while svc.stats().settled() == 0 {
            assert!(std::time::Instant::now() < deadline, "no job ever settled");
            std::thread::sleep(Duration::from_millis(5));
        }
        let settled = svc.stats().settled();
        svc.abort();
        settled
    };
    assert!(settled_before >= 1);

    let (svc, replay) =
        Service::resume(untrained_estimator(), fast_config(2), &path, None).expect("resume");
    assert!(
        replay.settled() as u64 >= settled_before,
        "settled outcomes must be journaled"
    );
    assert!(svc.wait_idle(IDLE), "resumed run did not settle");
    let stats = svc.stats();
    assert_eq!(stats.accepted, requests.len() as u64);
    assert_eq!(
        stats.settled(),
        stats.accepted,
        "every accepted job settled"
    );
    for (i, want) in reference.iter().enumerate() {
        let out = svc.outcome(i as u64).expect("outcome");
        assert_estimates_bit_identical(out.estimate().expect("estimate"), want);
    }
    svc.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A fault that clears after the first attempt is retried and completes
/// *undegraded*, with the retry visible in the stats.
#[test]
fn transient_fault_retries_until_clean_success() {
    let svc = Service::start(untrained_estimator(), fast_config(1));
    let mut req = EstimateRequest::new(scenario(500), PATHS, 21);
    req.fault_plan =
        Some(FaultPlan::new(13).with_first_attempts(InjectedFault::FlowsimBudget, 1.0, 2));
    req.policy = Some(DegradationPolicy::FailFast);
    let id = svc.submit(req).expect("submit");
    assert!(svc.wait_idle(IDLE));
    match svc.outcome(id).expect("outcome") {
        JobOutcome::Completed { estimate, attempts } => {
            assert_eq!(attempts, 3, "two faulted attempts, then success");
            assert!(
                estimate.degradation.is_clean(),
                "success must be undegraded"
            );
        }
        other => panic!("expected Completed after retries, got {other:?}"),
    }
    assert!(svc.stats().retries >= 2);
    svc.shutdown();
}

/// A persistent fault (invalid input) under FailFast dies on the first
/// attempt — no retries burned on something that cannot heal.
#[test]
fn persistent_fault_fails_fast_without_retries() {
    let svc = Service::start(untrained_estimator(), fast_config(1));
    let mut req = EstimateRequest::new(scenario(500), PATHS, 22);
    req.fault_plan = Some(FaultPlan::new(14).with(InjectedFault::FlowsimNan, 1.0));
    req.policy = Some(DegradationPolicy::FailFast);
    let id = svc.submit(req).expect("submit");
    assert!(svc.wait_idle(IDLE));
    match svc.outcome(id).expect("outcome") {
        JobOutcome::Failed { error, attempts } => {
            assert_eq!(attempts, 1, "persistent faults must not be retried");
            assert!(
                matches!(error, M3Error::StageFault { .. }),
                "unexpected error: {error}"
            );
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(svc.stats().retries, 0);
    svc.shutdown();
}

/// An injected worker panic kills the thread outside the pipeline's panic
/// isolation; the supervisor recovers the job, respawns the worker, and
/// the retried job completes.
#[test]
fn worker_panic_is_supervised_and_job_recovered() {
    let svc = Service::start(untrained_estimator(), fast_config(1));
    let mut req = EstimateRequest::new(scenario(500), PATHS, 23);
    req.fault_plan =
        Some(FaultPlan::new(15).with_first_attempts(InjectedFault::WorkerPanic, 1.0, 1));
    let id = svc.submit(req).expect("submit");
    // A clean job behind it proves the respawned worker keeps serving.
    let id2 = svc
        .submit(EstimateRequest::new(scenario(450), PATHS, 24))
        .expect("submit 2");
    assert!(svc.wait_idle(IDLE));
    assert!(
        matches!(
            svc.outcome(id).expect("outcome"),
            JobOutcome::Completed { .. }
        ),
        "panicked job must complete after recovery"
    );
    assert!(matches!(
        svc.outcome(id2).expect("outcome 2"),
        JobOutcome::Completed { .. }
    ));
    let stats = svc.stats();
    assert!(stats.worker_panics >= 1, "panic must be observed");
    assert!(stats.workers_respawned >= 1, "worker must be respawned");
    svc.shutdown();
}

/// The flowSim-only answer to `req` from the definitions: sample the
/// request's paths, cut its slice, simulate each sampled path's scenario
/// and pool the per-path distributions.
fn flowsim_reference(req: &EstimateRequest) -> NetworkEstimate {
    let (topo, flows, config) = req.scenario.materialize(req.seed).expect("materialize");
    let index = PathIndex::build(&topo, &flows);
    let sampled = index.sample_paths(req.paths, req.seed);
    let sampled = match req.path_slice {
        Some(sl) => &sampled[sl.start..sl.end.min(sampled.len())],
        None => &sampled[..],
    };
    let dists: Vec<PathDistribution> = (sampled.iter())
        .map(|&g| {
            let data = PathScenarioData::from_group(&topo, &flows, &index, g, &config);
            PathDistribution::from_samples(&data.run_flowsim().fg)
        })
        .collect();
    NetworkEstimate::aggregate(&dists)
}

/// Consecutive stage failures trip the breaker; while open, jobs route to
/// the flowSim-only degraded path instead of failing, and get exactly the
/// flowSim-only estimate of their request (of its path slice, if any); a
/// clean probe closes it and full service resumes.
#[test]
fn breaker_opens_routes_degraded_and_recloses() {
    let svc = Service::start(untrained_estimator(), fast_config(1));
    let submit_one = |req: EstimateRequest| -> JobOutcome {
        let id = svc.submit(req).expect("submit");
        assert!(svc.wait_idle(IDLE), "job {id} did not settle");
        svc.outcome(id).expect("outcome")
    };
    let faulty = || {
        let mut r = EstimateRequest::new(scenario(400), PATHS, 31);
        r.fault_plan = Some(FaultPlan::new(16).with(InjectedFault::FlowsimNan, 1.0));
        r.policy = Some(DegradationPolicy::FailFast);
        r
    };

    // Three consecutive failures trip the flowSim breaker.
    for _ in 0..3 {
        assert!(matches!(submit_one(faulty()), JobOutcome::Failed { .. }));
    }
    let stats = svc.stats();
    assert!(
        matches!(stats.flowsim_breaker, BreakerState::Open { .. }),
        "breaker should be open, is {:?}",
        stats.flowsim_breaker
    );
    assert!(!stats.healthy());
    assert_eq!(stats.breaker_trips, 1);

    // While open (cooldown = 2 observations), clean jobs are served by the
    // degraded flowSim-only path rather than failing or waiting: first a
    // whole request, then a path slice of one.
    for i in 0..2 {
        let mut req = EstimateRequest::new(scenario(420), PATHS, 40 + i);
        if i == 1 {
            req.path_slice = Some(PathSlice { start: 2, end: 5 });
        }
        match submit_one(req.clone()) {
            JobOutcome::Degraded {
                via_breaker,
                estimate,
                ..
            } => {
                assert!(via_breaker, "degradation must be attributed to the breaker");
                assert_estimates_bit_identical(&estimate, &flowsim_reference(&req));
                if req.path_slice.is_none() {
                    let (topo, flows, config) = req.scenario.materialize(req.seed).unwrap();
                    let whole = flowsim_estimate(&topo, &flows, &config, PATHS, req.seed);
                    assert_estimates_bit_identical(&estimate, &whole);
                }
            }
            other => panic!("expected Degraded via breaker, got {other:?}"),
        }
    }

    // Cooldown elapsed: the next clean job is the half-open probe; its
    // success closes the breaker and full service resumes.
    match submit_one(EstimateRequest::new(scenario(440), PATHS, 50)) {
        JobOutcome::Completed { .. } => {}
        other => panic!("probe should complete fully, got {other:?}"),
    }
    let stats = svc.stats();
    assert_eq!(stats.flowsim_breaker, BreakerState::Closed);
    assert!(stats.healthy());
    svc.shutdown();
}

/// Admission control: a full queue sheds new submissions immediately and
/// visibly, accepted work is unaffected, and the books balance.
#[test]
fn overload_sheds_at_submit_and_books_balance() {
    let mut config = fast_config(0); // no workers: the queue can only fill
    config.queue_capacity = 3;
    let svc = Service::start(untrained_estimator(), config);
    let mut accepted = 0u64;
    let mut shed = 0u64;
    for i in 0..8 {
        match svc.submit(EstimateRequest::new(scenario(400), PATHS, 60 + i)) {
            Ok(_) => accepted += 1,
            Err(SubmitError::QueueFull { capacity }) => {
                assert_eq!(capacity, 3);
                shed += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert_eq!(accepted, 3);
    assert_eq!(shed, 5);
    let stats = svc.stats();
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.shed_at_submit, 5);
    assert_eq!(stats.queue_depth, 3);
    svc.abort();
}

/// A job whose deadline expired while it sat in the queue is shed at
/// pickup, not run.
#[test]
fn expired_deadline_sheds_at_pickup() {
    let svc = Service::start(untrained_estimator(), fast_config(1));
    let mut req = EstimateRequest::new(scenario(400), PATHS, 70);
    req.deadline_ms = Some(0); // expired on arrival
    let id = svc.submit(req).expect("submit");
    assert!(svc.wait_idle(IDLE));
    match svc.outcome(id).expect("outcome") {
        JobOutcome::Shed { reason } => assert!(reason.contains("deadline")),
        other => panic!("expected Shed, got {other:?}"),
    }
    // Shed jobs are terminal: the books balance.
    let stats = svc.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.settled(), stats.accepted);
    svc.shutdown();
}

/// Telemetry acceptance: kill a journaled service mid-batch and resume it.
/// The deterministic (non-timing) pipeline counters of the two partial
/// runs, merged, must equal those of an uninterrupted run — the registry
/// never double- or under-counts across a crash/replay boundary.
#[test]
fn kill_and_resume_preserves_deterministic_counter_totals() {
    let requests = batch(4);

    // Uninterrupted reference run (1 worker, like the interrupted one).
    let reference = {
        let svc = Service::start(untrained_estimator(), fast_config(1));
        for r in &requests {
            svc.submit(r.clone()).expect("reference submit");
        }
        assert!(svc.wait_idle(IDLE), "reference run did not settle");
        let snap = svc.metrics_snapshot();
        svc.shutdown();
        snap
    };

    // Interrupted run: abort once at least two jobs settled...
    let path = tmpjournal("metrics-resume");
    let first_half = {
        let svc = Service::start_journaled(untrained_estimator(), fast_config(1), &path)
            .expect("create journal");
        for r in &requests {
            svc.submit(r.clone()).expect("submit");
        }
        let deadline = std::time::Instant::now() + IDLE;
        while svc.stats().settled() < 2 {
            assert!(std::time::Instant::now() < deadline, "jobs never settled");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The registry outlives the handle; snapshot after abort so jobs
        // that settle while aborting are still counted.
        let registry = svc.metrics().clone();
        svc.abort();
        registry.snapshot()
    };

    // ...then resume and drain the pending tail.
    let second_half = {
        let (svc, _replay) =
            Service::resume(untrained_estimator(), fast_config(1), &path, None).expect("resume");
        assert!(svc.wait_idle(IDLE), "resumed run did not settle");
        let snap = svc.metrics_snapshot();
        svc.shutdown();
        snap
    };

    let mut merged = first_half.clone();
    merged.merge(&second_half);

    for prefix in ["pipeline.", "flowsim."] {
        let want = reference.deterministic_view().filter_prefix(prefix);
        let got = merged.deterministic_view().filter_prefix(prefix);
        assert!(!want.counters.is_empty(), "reference recorded {prefix}*");
        assert_eq!(
            want.counters, got.counters,
            "{prefix} counters must match the uninterrupted run"
        );
    }
    // Service-level books balance too: the resumed service's view counts
    // every job exactly once (replayed outcomes plus the drained tail).
    assert_eq!(
        second_half.counter("serve.completed"),
        Some(requests.len() as u64)
    );
    assert_eq!(
        reference.counter("serve.completed"),
        Some(requests.len() as u64)
    );
    std::fs::remove_file(&path).ok();
}

/// Identical scenarios across jobs share the thread-safe scenario cache:
/// the second submission hits instead of recomputing, and the hit/miss
/// counters surface on the stats snapshot.
#[test]
fn shared_cache_hits_across_jobs_and_reports_stats() {
    let svc = Service::start(untrained_estimator(), fast_config(1));
    let req = EstimateRequest::new(scenario(500), PATHS, 80);
    let a = svc.submit(req.clone()).expect("submit a");
    let b = svc.submit(req).expect("submit b");
    assert!(svc.wait_idle(IDLE));
    let ea = svc
        .outcome(a)
        .expect("a")
        .estimate()
        .expect("est a")
        .clone();
    let eb = svc
        .outcome(b)
        .expect("b")
        .estimate()
        .expect("est b")
        .clone();
    assert_estimates_bit_identical(&ea, &eb);
    let stats = svc.stats();
    assert!(stats.cache.hits > 0, "second job must hit the cache");
    assert!(stats.cache.hit_rate() > 0.0);
    svc.shutdown();
}

/// Satellite regression: a graceful shutdown must flush a final metrics
/// snapshot to `metrics_out` even when the periodic dump interval (1 s)
/// never elapsed during the run.
#[test]
fn final_metrics_snapshot_flushes_on_graceful_shutdown() {
    use m3::telemetry::MetricsSnapshot;
    let mut path = std::env::temp_dir();
    path.push(format!(
        "m3-serve-final-metrics-{}.json",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    let config = ServiceConfig {
        metrics_out: Some(path.clone()),
        ..fast_config(1)
    };
    let svc = Service::start(untrained_estimator(), config);
    svc.submit(EstimateRequest::new(scenario(400), PATHS, 90))
        .expect("submit");
    assert!(svc.wait_idle(IDLE));
    svc.shutdown();
    let text = std::fs::read_to_string(&path).expect("shutdown must write a final snapshot");
    let snap = MetricsSnapshot::from_json(&text).expect("snapshot must parse");
    assert_eq!(snap.counter("serve.completed"), Some(1));
    std::fs::remove_file(&path).ok();
}

/// Satellite regression: degraded and shed jobs still record into the
/// request-latency histogram — every settled job is one observation,
/// whatever its outcome.
#[test]
fn degraded_and_shed_requests_record_request_latency() {
    let svc = Service::start(untrained_estimator(), fast_config(1));

    // Job 1: degraded via an injected forward-pass poisoning the policy
    // absorbs.
    let mut degraded = EstimateRequest::new(scenario(400), PATHS, 91);
    degraded.fault_plan = Some(FaultPlan::new(33).with(InjectedFault::ForwardPoison, 0.3));
    degraded.policy = Some(DegradationPolicy::Degrade {
        max_degraded_frac: 1.0,
    });
    let id_degraded = svc.submit(degraded).expect("submit degraded");

    // Job 2: shed at pickup (deadline expired on arrival).
    let mut shed = EstimateRequest::new(scenario(400), PATHS, 92);
    shed.deadline_ms = Some(0);
    let id_shed = svc.submit(shed).expect("submit shed");

    assert!(svc.wait_idle(IDLE));
    assert!(matches!(
        svc.outcome(id_degraded).expect("degraded outcome"),
        JobOutcome::Degraded { .. }
    ));
    assert!(matches!(
        svc.outcome(id_shed).expect("shed outcome"),
        JobOutcome::Shed { .. }
    ));

    let snap = svc.metrics_snapshot();
    let latency = snap
        .histogram("serve.request_latency_seconds")
        .expect("latency histogram must be registered");
    assert_eq!(
        latency.count(),
        2,
        "both the degraded and the shed job must be observed"
    );
    svc.shutdown();
}

/// A version 1 journal, written before decision records existed by the
/// journal writer of commit 21e77be: job 0 completed (its full estimate in
/// the terminal record), job 1 degraded, job 2 accepted and pending,
/// session 3 opened, updated and closed, and registry version 1 of
/// `untrained_estimator`'s model swapped in.
const JOURNAL_V1: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/journal_v1.bin");

/// The digest of job 0's estimate in `JOURNAL_V1`.
const JOURNAL_V1_JOB0_DIGEST: u64 = 0xdb2c_3c8e_acc7_0447;

#[test]
fn a_version_1_journal_replays_and_serves_its_estimates_without_recompute() {
    use m3::nn::prelude::{Lineage, ModelRegistry};
    let dir = tmpjournal("v1");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("journal_v1.bin");
    std::fs::copy(JOURNAL_V1, &path).expect("copy the fixture");

    let records = read_records(&path).expect("read the v1 fixture");
    let kinds: Vec<&str> = records
        .iter()
        .map(|r| match r {
            JournalRecord::Accepted { .. } => "accepted",
            JournalRecord::Terminal { .. } => "terminal",
            JournalRecord::Decision { .. } => "decision",
            JournalRecord::SwapIntent { .. } => "swap_intent",
            JournalRecord::ModelSwap { .. } => "model_swap",
            JournalRecord::SessionOpen { .. } => "session_open",
            JournalRecord::SessionDelta { .. } => "session_delta",
            JournalRecord::SessionClose { .. } => "session_close",
        })
        .collect();
    assert_eq!(
        kinds,
        [
            "accepted",
            "terminal",
            "accepted",
            "terminal",
            "accepted",
            "session_open",
            "session_delta",
            "session_close",
            "swap_intent",
            "model_swap"
        ]
    );
    let Some(JournalRecord::Terminal { outcome, .. }) = records.get(1) else {
        unreachable!()
    };
    let v1_estimate = outcome.estimate().expect("a completed estimate").clone();
    assert_eq!(v1_estimate.digest(), JOURNAL_V1_JOB0_DIGEST);

    let registry = ModelRegistry::open(dir.join("registry")).expect("registry");
    let published = registry
        .publish(&untrained_estimator().net, 3, Lineage::default())
        .expect("publish");
    let (svc, replay) = Service::resume(
        untrained_estimator(),
        fast_config(0),
        &path,
        Some(&registry),
    )
    .expect("resume the v1 journal");
    assert_eq!(replay.active_model, Some((1, published.fingerprint)));
    assert_eq!((replay.terminal.len(), replay.decisions.len()), (2, 0));
    assert_eq!(replay.pending().len(), 1);
    assert!(replay.sessions[&3].closed);
    assert_eq!(replay.next_id(), 4);

    match svc.outcome(0).expect("job 0") {
        JobOutcome::Completed { estimate, .. } => {
            assert_estimates_bit_identical(&estimate, &v1_estimate);
            assert_eq!(estimate.timings.flowsim_s, v1_estimate.timings.flowsim_s);
        }
        other => panic!("job 0: {other:?}"),
    }
    assert!(matches!(
        svc.outcome(1),
        Some(JobOutcome::Degraded {
            via_breaker: true,
            ..
        })
    ));
    assert!(svc.outcome(2).is_none());
    let stats = svc.stats();
    assert_eq!((stats.recomputed, stats.recompute_failures), (0, 0));
    assert_eq!((stats.completed, stats.degraded), (1, 1));
    svc.shutdown();
    let header = std::fs::read(&path).expect("reread");
    assert_eq!(
        header[8..12],
        2u32.to_le_bytes(),
        "the header was not upgraded"
    );
    std::fs::remove_dir_all(&dir).ok();
}
