//! Fault soak for the estimation stack: six seeded (hence reproducible)
//! schedules over one harness, each asserting one layer's guarantees.
//!
//! * `service` — an overload burst of clean, transient-fault, panicking,
//!   poisoned and deadline-bound jobs: every accepted job reaches a
//!   terminal state, the books balance, the stats agree with the client,
//!   and the burst sheds.
//! * `cluster` — a shard crash/stall/slow-start schedule: no job lost,
//!   work rerouted off a killed shard, estimates bit-identical to a clean
//!   run, and two clean runs agree on estimates and merged metrics.
//! * `swap` — the model lifecycle: promote, quarantine a corrupt object,
//!   reject a regression, roll back a spike, stall a swap, then kill and
//!   resume onto exactly the journaled version.
//! * `session` — a delta stream with kills and rejected deltas: the
//!   resumed session equals an uninterrupted one and a from-scratch
//!   estimate of the final state, and every update's books balance.
//! * `monitor` — clean/faulty/clean traffic with kills: the SLO fires and
//!   clears, drift is scored, the event log is append-only with
//!   consistent transition chains, and the monitor only observes.
//! * `crash` — a crash point at every write and fsync of the journal over
//!   a short schedule (submit, settle, session open/delta/close, swap
//!   intent/commit): after each, the resumed service holds every fsync'd
//!   record, settles every accepted job exactly once, and recomputes every
//!   completed outcome seen before the crash to its digest.
//!
//! Usage: `soak <all|service|cluster|swap|session|monitor|crash> [SEED...]`
//! (seed 1 when none is given). Every violation prints the command that
//! replays it alone.
//! Exit codes: 0 = invariants held, 1 = violation, 2 = usage or setup error.

use m3_core::prelude::*;
use m3_netsim::units::GBPS;
use m3_nn::prelude::{Lineage, M3Net, ModelConfig, ModelRef, ModelRegistry};
use m3_serve::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Harness: one run = one schedule on one seed, in its own scratch directory.
// ---------------------------------------------------------------------------

type Schedule = fn(&mut Soak) -> Step<String>;

const SCHEDULES: [(&str, Schedule); 6] = [
    ("service", service),
    ("cluster", cluster),
    ("swap", swap),
    ("session", session),
    ("monitor", monitor),
    ("crash", crash),
];

const IDLE: Duration = Duration::from_secs(300);

/// Why a schedule stopped before its end.
enum Abort {
    /// The harness could not build the schedule (exit 2).
    Setup(String),
    /// The system under test failed in a way the rest of the schedule
    /// cannot run past (exit 1).
    Violation(String),
}

type Step<T> = Result<T, Abort>;

/// Tag a failed call as a setup error or as a violation.
trait OrAbort<T> {
    fn setup(self, what: &str) -> Step<T>;
    fn must(self, what: &str) -> Step<T>;
}

impl<T, E: Display> OrAbort<T> for Result<T, E> {
    fn setup(self, what: &str) -> Step<T> {
        self.map_err(|e| Abort::Setup(format!("{what}: {e}")))
    }
    fn must(self, what: &str) -> Step<T> {
        self.map_err(|e| Abort::Violation(format!("{what}: {e}")))
    }
}

fn violation<T>(msg: impl Into<String>) -> Step<T> {
    Err(Abort::Violation(msg.into()))
}

/// A scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(schedule: &str, seed: u64) -> std::io::Result<TempDir> {
        let dir =
            std::env::temp_dir().join(format!("m3-soak-{}-{schedule}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One schedule on one seed: the violations it found so far.
struct Soak {
    schedule: &'static str,
    seed: u64,
    dir: TempDir,
    violations: u32,
}

impl Soak {
    fn fail(&mut self, msg: impl Display) {
        let (schedule, seed) = (self.schedule, self.seed);
        eprintln!(
            "soak {schedule} seed {seed}: {msg}\n  \
             replay: cargo run --release -p m3-serve --bin soak -- {schedule} {seed}"
        );
        self.violations += 1;
    }

    fn check(&mut self, ok: bool, msg: impl Display) {
        if !ok {
            self.fail(msg);
        }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.0.join(name)
    }

    fn journal(&self) -> PathBuf {
        self.path("serve.journal")
    }

    /// A service journaling to the run's journal.
    fn start(&self, config: &ServiceConfig) -> Step<Service> {
        Service::start_journaled(estimator(), config.clone(), self.journal())
            .setup("start the journaled service")
    }

    /// Kill `svc` (abort: the journal survives, in-memory state dies) and
    /// resume a new incarnation from the journal. A kill lands between
    /// whole records, so the journal must replay clean.
    fn kill_and_resume(
        &mut self,
        svc: Service,
        config: &ServiceConfig,
        registry: Option<&ModelRegistry>,
    ) -> Step<(Service, Replay)> {
        svc.abort();
        let (journal, config) = (self.journal(), config.clone());
        let (svc, replay) = Service::resume(estimator(), config, journal, registry)
            .must("resume from the journal")?;
        self.check(
            !replay.truncated_tail && replay.corruption.is_none(),
            "the journal a kill left behind did not replay clean",
        );
        Ok((svc, replay))
    }
}

/// Run one schedule on one seed; returns its exit code.
fn run(schedule: &'static str, body: Schedule, seed: u64) -> u8 {
    let dir = match TempDir::new(schedule, seed) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("soak {schedule} seed {seed}: setup error: scratch directory: {e}");
            return 2;
        }
    };
    let mut soak = Soak {
        schedule,
        seed,
        dir,
        violations: 0,
    };
    let t0 = Instant::now();
    match body(&mut soak) {
        Err(Abort::Setup(msg)) => {
            soak.fail(format_args!("setup error: {msg}"));
            return 2;
        }
        Err(Abort::Violation(msg)) => soak.fail(msg),
        Ok(summary) if soak.violations == 0 => {
            let secs = t0.elapsed().as_secs_f64();
            println!("soak {schedule} seed {seed}: OK in {secs:.1} s — {summary}");
            return 0;
        }
        Ok(_) => {}
    }
    eprintln!(
        "soak {schedule} seed {seed}: FAILED with {} violation(s)",
        soak.violations
    );
    1
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Vec<(&str, Schedule)> = match args.first().map(String::as_str) {
        Some("all") => SCHEDULES.to_vec(),
        Some(name) => SCHEDULES.into_iter().filter(|(n, _)| *n == name).collect(),
        None => Vec::new(),
    };
    let seeds: Result<Vec<u64>, _> = args.iter().skip(1).map(|s| s.parse()).collect();
    let (Ok(mut seeds), false) = (seeds, chosen.is_empty()) else {
        eprintln!("usage: soak <all|service|cluster|swap|session|monitor|crash> [SEED...]");
        return ExitCode::from(2);
    };
    if seeds.is_empty() {
        seeds.push(1);
    }
    let mut worst = 0;
    for (name, body) in chosen {
        for &seed in &seeds {
            worst = worst.max(run(name, body, seed));
        }
    }
    ExitCode::from(worst)
}

// ---------------------------------------------------------------------------
// Shared by the schedules: test net, scenario, generator, kills.
// ---------------------------------------------------------------------------

fn small_net(seed: u64) -> M3Net {
    let cfg = ModelConfig {
        embed: 16,
        heads: 2,
        layers: 1,
        ff_hidden: 16,
        mlp_hidden: 32,
        ..ModelConfig::repro_default(SPEC_DIM)
    };
    M3Net::new(cfg, seed)
}

fn estimator() -> M3Estimator {
    M3Estimator::new(small_net(3))
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

/// splitmix64 — a tiny seeded generator so the soak needs no RNG dep.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Seeded kill points in `range`, about one in `one_in`; never empty, as
/// a soak without a kill exercises nothing.
fn kill_points(seed: u64, range: Range<u64>, one_in: u64) -> Vec<u64> {
    let mut s = seed ^ 0xdead_beef;
    let mid = (range.start + range.end) / 2;
    let points: Vec<u64> = range
        .filter(|_| mix(&mut s).is_multiple_of(one_in))
        .collect();
    if points.is_empty() {
        vec![mid]
    } else {
        points
    }
}

/// The books balance: every accepted job settled.
fn check_books(soak: &mut Soak, stats: &ServiceStats) {
    let (settled, accepted) = (stats.settled(), stats.accepted);
    soak.check(
        settled == accepted,
        format!("books off: settled {settled} != accepted {accepted}"),
    );
}

fn settle(svc: &Service) -> Step<()> {
    if svc.wait_idle(IDLE) {
        Ok(())
    } else {
        violation(format!("the service did not settle within {IDLE:?}"))
    }
}

// ---------------------------------------------------------------------------
// service
// ---------------------------------------------------------------------------

const SERVICE_JOBS: u64 = 24;

/// Job `job`'s request: its fault profile, policy and deadline all follow
/// from the seed.
fn service_request(seed: u64, job: u64) -> EstimateRequest {
    let mut req = EstimateRequest::new(scenario(300 + (job as usize % 3) * 200), 6, seed ^ job);
    let plan = FaultPlan::new(seed ^ job);
    req.fault_plan = match (seed.wrapping_add(job * 7)) % 6 {
        0 | 1 => None,
        // Transient: must complete undegraded after one retry.
        2 => Some(plan.with_first_attempts(InjectedFault::FlowsimBudget, 1.0, 1)),
        // One worker panic, then clean: supervisor recovery and respawn.
        3 => Some(plan.with_first_attempts(InjectedFault::WorkerPanic, 1.0, 1)),
        // Sporadic forward poisoning, absorbed by the degrade policy.
        4 => Some(plan.with(InjectedFault::ForwardPoison, 0.3)),
        // Persistent flowSim NaN on a slice of slots: degrades or fails
        // depending on the policy.
        _ => Some(plan.with(InjectedFault::FlowsimNan, 0.2)),
    };
    req.policy = Some(if job.is_multiple_of(4) {
        DegradationPolicy::FailFast
    } else {
        DegradationPolicy::Degrade {
            max_degraded_frac: 0.5,
        }
    });
    if job % 8 == 5 {
        req.deadline_ms = Some(30_000);
    }
    req
}

fn service(soak: &mut Soak) -> Step<String> {
    let seed = soak.seed;
    let config = ServiceConfig {
        workers: 3,
        // Half the burst, submitted without pause: it must shed.
        queue_capacity: SERVICE_JOBS as usize / 2,
        retry: RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 1,
            max_delay_ms: 8,
            seed,
        },
        cache_capacity: 64,
        // Each attempt takes at least this long, so the burst outruns the
        // workers however fast the machine estimates and fsyncs.
        simulated_io: Duration::from_millis(25),
        ..ServiceConfig::default()
    };
    let svc = soak.start(&config)?;
    let (mut accepted, mut shed) = (Vec::new(), 0u64);
    for job in 0..SERVICE_JOBS {
        match svc.submit(service_request(seed, job)) {
            Ok(id) => accepted.push(id),
            Err(SubmitError::QueueFull { .. }) => shed += 1,
            Err(e) => return violation(format!("unexpected submit error: {e}")),
        }
    }
    settle(&svc)?;
    for &id in &accepted {
        soak.check(
            svc.outcome(id).is_some(),
            format!("job {id} accepted but has no terminal outcome"),
        );
    }
    let stats = svc.stats();
    svc.shutdown();
    check_books(soak, &stats);
    soak.check(
        stats.accepted == accepted.len() as u64 && stats.shed_at_submit == shed,
        "stats disagree with the submitting client",
    );
    soak.check(shed >= 1, "the overload burst shed nothing");
    Ok(format!(
        "{} accepted, {shed} shed at submit, {} retries, {} worker panics",
        stats.accepted, stats.retries, stats.worker_panics
    ))
}

// ---------------------------------------------------------------------------
// cluster
// ---------------------------------------------------------------------------

const CLUSTER_JOBS: u64 = 18;
const SHARDS: usize = 4;
const SCATTER_THRESHOLD: usize = 4;
const SCATTER_CHUNK: usize = 2;

/// Mostly small requests, every sixth large enough to scatter.
fn cluster_requests(seed: u64) -> Vec<EstimateRequest> {
    (0..CLUSTER_JOBS)
        .map(|j| {
            let paths = if j % 6 == 5 { 6 } else { 2 };
            EstimateRequest::new(scenario(40 + (j as usize % 4) * 15), paths, seed ^ j)
        })
        .collect()
}

/// Shard dispatches the job mix makes: one per small job, one per slice
/// of a scattered one.
fn dispatches(jobs: &[EstimateRequest]) -> u64 {
    let slices = |r: &EstimateRequest| match r.paths < SCATTER_THRESHOLD {
        true => 1,
        false => r.paths.div_ceil(SCATTER_CHUNK) as u64,
    };
    jobs.iter().map(slices).sum()
}

/// The first kill schedule at or after `seed` that crashes a shard owning
/// at least two small jobs (so work is queued behind the one in flight
/// when it dies) and leaves a survivor to reroute onto.
fn kill_plan(seed: u64, jobs: &[EstimateRequest]) -> FaultPlan {
    let live: Vec<usize> = (0..SHARDS).collect();
    let owners: Vec<usize> = jobs
        .iter()
        .filter(|r| r.paths < SCATTER_THRESHOLD)
        .filter_map(|r| route(routing_key(r), &live))
        .collect();
    (seed..)
        .map(|s| {
            FaultPlan::new(s)
                .with(InjectedFault::ShardCrash, 0.3)
                .with(InjectedFault::ShardStall, 0.15)
                .with(InjectedFault::ShardSlowStart, 0.25)
        })
        .find(|plan| {
            let crashed = plan.slots_hit(InjectedFault::ShardCrash, SHARDS);
            crashed.len() < SHARDS
                && crashed
                    .iter()
                    .any(|&v| owners.iter().filter(|&&o| o == v).count() >= 2)
        })
        .unwrap_or_else(|| unreachable!("the plan space is dense enough to always hit"))
}

fn cluster_config(
    seed: u64,
    journal_dir: PathBuf,
    plan: Option<(FaultPlan, u64)>,
) -> ClusterConfig {
    let faulted = plan.is_some();
    let (fault_plan, fault_after_dispatches) = plan.map_or((None, 0), |(p, n)| (Some(p), n));
    let retry = |max_attempts, base_delay_ms, max_delay_ms| RetryPolicy {
        max_attempts,
        base_delay_ms,
        max_delay_ms,
        seed,
    };
    ClusterConfig {
        shards: SHARDS,
        shard: ServiceConfig {
            workers: 1,
            queue_capacity: 256,
            retry: retry(4, 1, 8),
            cache_capacity: 64,
            simulated_io: Duration::from_millis(10),
            ..ServiceConfig::default()
        },
        journal_dir: Some(journal_dir),
        heartbeat_every: Duration::from_millis(3),
        // Loose enough that a busy-but-alive shard on a loaded machine
        // rarely false-positives; a frozen heartbeat is still declared dead
        // within ~60 ms. Spurious deaths stay correct, just churny.
        suspect_misses: if faulted { 5 } else { 500 },
        dead_misses: if faulted { 20 } else { 1000 },
        reroute_retry: retry(10, 2, 20),
        scatter_threshold: SCATTER_THRESHOLD,
        scatter_chunk: SCATTER_CHUNK,
        fault_after_dispatches,
        fault_plan,
    }
}

struct ClusterRun {
    /// Every job's estimate digest, in submission order.
    digests: Vec<u64>,
    /// The merged deterministic metric view, serialized.
    metrics_json: String,
    stats: ClusterStats,
}

/// Run `jobs` through a fresh cluster journaling under `label`, killing
/// shards per `plan` if given.
fn cluster_run(
    soak: &mut Soak,
    label: &str,
    jobs: &[EstimateRequest],
    plan: Option<(FaultPlan, u64)>,
) -> Step<ClusterRun> {
    let config = cluster_config(soak.seed, soak.path(label), plan);
    let cluster =
        Cluster::start(small_net(3), config).setup(&format!("{label}: start the cluster"))?;
    let ids: Vec<u64> = jobs
        .iter()
        .map(|r| cluster.submit(r.clone()))
        .collect::<Result<_, _>>()
        .must(&format!("{label}: submit"))?;
    if !cluster.wait_idle(IDLE) {
        return violation(format!("{label}: the cluster did not settle"));
    }
    let mut digests = Vec::new();
    for id in ids {
        let outcome = cluster.outcome(id);
        match outcome.as_ref().and_then(JobOutcome::estimate) {
            Some(est) => digests.push(est.digest()),
            None => soak.fail(format!("{label}: job {id} lost or incomplete: {outcome:?}")),
        }
    }
    let stats = cluster.stats();
    soak.check(
        stats.settled == stats.submitted,
        format!(
            "{label}: settled {} != submitted {}",
            stats.settled, stats.submitted
        ),
    );
    let metrics_json = cluster.merged_metrics().deterministic_view().to_json();
    cluster.shutdown();
    Ok(ClusterRun {
        digests,
        metrics_json,
        stats,
    })
}

fn cluster(soak: &mut Soak) -> Step<String> {
    let seed = soak.seed;
    let jobs = cluster_requests(seed);
    // Kill once every job is queued on its shard.
    let plan = (kill_plan(seed, &jobs), dispatches(&jobs));
    let crashed = plan.0.slots_hit(InjectedFault::ShardCrash, SHARDS);
    let stalled = plan.0.slots_hit(InjectedFault::ShardStall, SHARDS);

    let faulted = cluster_run(soak, "faulted", &jobs, Some(plan))?;
    soak.check(
        faulted.stats.shard_deaths >= 1,
        "kill schedule injected but no shard death detected",
    );
    soak.check(
        faulted.stats.rerouted >= 1,
        "a shard died holding work but nothing was rerouted",
    );

    let clean_a = cluster_run(soak, "clean-a", &jobs, None)?;
    let clean_b = cluster_run(soak, "clean-b", &jobs, None)?;
    soak.check(
        faulted.digests == clean_a.digests,
        format!(
            "LOSSY REROUTING — faulted digests {:x?} != clean {:x?}",
            faulted.digests, clean_a.digests
        ),
    );
    soak.check(
        clean_a.digests == clean_b.digests,
        "fault-free runs disagree on estimates",
    );
    soak.check(
        clean_a.metrics_json == clean_b.metrics_json,
        "merged deterministic metric views differ between clean runs",
    );
    soak.check(
        faulted.stats.recompute_failures == 0,
        "an adopted decision did not recompute to its digest",
    );
    Ok(format!(
        "crash {crashed:?}, stall {stalled:?}: {} deaths, {} recoveries, {} rerouted, \
         {} adopted by recompute, {} duplicate terminals dropped",
        faulted.stats.shard_deaths,
        faulted.stats.shard_recoveries,
        faulted.stats.rerouted,
        faulted.stats.recomputed,
        faulted.stats.duplicate_terminals_dropped
    ))
}

// ---------------------------------------------------------------------------
// swap
// ---------------------------------------------------------------------------

const SWAP_JOBS: u64 = 12;
/// Jobs per traffic batch; four batches in all. It is also the rollback
/// window, so the breaker's window closes within one batch.
const SWAP_BATCH: u64 = SWAP_JOBS / 4;

/// A gate generous enough that any intact candidate promotes: lifecycle
/// failures are forced explicitly, not left to model luck.
fn permissive(fault: Option<(u64, InjectedFault)>) -> SwapConfig {
    SwapConfig {
        shadow_window: 4,
        max_err_ratio: 1e9,
        abs_err_slack: 1e9,
        rollback_window: SWAP_BATCH,
        max_bad_frac_increase: 0.2,
        fault_plan: fault.map(|(seed, f)| FaultPlan::new(seed).with(f, 1.0)),
    }
}

/// Submit one traffic batch (every attempt forward-poisoned when
/// `faulty`) and wait for it to settle.
fn swap_batch(svc: &Service, seed: u64, next_job: &mut u64, faulty: bool) -> Step<()> {
    for _ in 0..SWAP_BATCH {
        let job = *next_job;
        *next_job += 1;
        let mut req = EstimateRequest::new(scenario(200 + (job as usize % 3) * 100), 4, seed ^ job);
        if faulty {
            req.fault_plan =
                Some(FaultPlan::new(seed ^ job).with(InjectedFault::ForwardPoison, 1.0));
        }
        svc.submit(req).must("submit")?;
    }
    settle(svc)
}

fn expect_active(soak: &mut Soak, svc: &Service, (version, fp): (u64, u64), ctx: &str) {
    let got = svc.active_model();
    soak.check(
        got == (fp, Some(version)),
        format!("{ctx}: active (fingerprint, version) is {got:?}, want v{version}"),
    );
}

/// Swap `svc` to registry version `version` through `coord`; the outcome
/// must match `want`.
fn swap_to(
    soak: &mut Soak,
    coord: &mut SwapCoordinator,
    svc: &Service,
    version: u64,
    want: fn(&SwapOutcome) -> bool,
) -> Step<()> {
    let got = coord
        .try_swap(svc, ModelRef::Version(version))
        .must(&format!("swap to v{version}"))?;
    soak.check(
        want(&got),
        format!("swap to v{version}: unexpected {got:?}"),
    );
    Ok(())
}

fn swap(soak: &mut Soak) -> Step<String> {
    use SwapOutcome::{Promoted, RejectedIntegrity, RejectedShadow, Stalled};
    let seed = soak.seed;
    let config = ServiceConfig {
        workers: 2,
        queue_capacity: SWAP_JOBS as usize,
        cache_capacity: 64,
        ..ServiceConfig::default()
    };
    let svc = soak.start(&config)?;
    let registry_root = soak.path("registry");
    let open = || ModelRegistry::open(&registry_root).setup("open the registry");

    // The lineage the schedule swaps through: v1 first in production, v2
    // corrupted on disk, v3 the injected regression, v4 the good successor,
    // v5 spikes and rolls back to v4, v6 stalls mid-swap.
    let nets: Vec<M3Net> = (0..6).map(|i| small_net(seed * 6 + i + 2)).collect();
    let reg = open()?;
    let mut parent = None;
    for (i, net) in nets.iter().enumerate() {
        let lineage = Lineage {
            parent,
            source: "soak".into(),
            note: format!("schedule model {}", i + 1),
            train_seed: seed,
        };
        parent = Some(
            reg.publish(net, seed, lineage)
                .setup("publish")?
                .fingerprint,
        );
    }
    let v = |n: usize| (n as u64, nets[n - 1].fingerprint());
    let mut next_job = 0;
    let mut coord = SwapCoordinator::new(open()?, permissive(None));

    // v1 promotes and serves; with no predecessor its breaker disarms
    // without acting.
    swap_to(soak, &mut coord, &svc, 1, |o| {
        matches!(o, Promoted { version: 1, .. })
    })?;
    swap_batch(&svc, seed, &mut next_job, false)?;
    expect_active(soak, &svc, v(1), "after v1 promotion");
    let rb = coord.poll_rollback(&svc).must("poll rollback")?;
    soak.check(rb.is_none(), "v1 breaker rolled back with no predecessor");

    // A corrupt v2 object is quarantined and rejected; v1 keeps serving.
    let entry = coord
        .registry()
        .resolve(ModelRef::Version(2))
        .setup("resolve v2")?;
    let obj = coord.registry().root().join(&entry.file);
    let mut bytes = std::fs::read(&obj).setup("read v2")?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&obj, &bytes).setup("corrupt v2")?;
    swap_to(soak, &mut coord, &svc, 2, |o| {
        matches!(o, RejectedIntegrity { version: 2, .. })
    })?;
    soak.check(
        coord.registry().is_quarantined(&entry),
        "corrupt v2 was not quarantined to a sidecar",
    );
    expect_active(soak, &svc, v(1), "after corrupt-candidate rejection");

    // An injected shadow regression on v3 is rejected; v1 keeps serving.
    let mut regressed = SwapCoordinator::new(
        open()?,
        permissive(Some((seed, InjectedFault::RegressedCandidate))),
    );
    swap_to(soak, &mut regressed, &svc, 3, |o| {
        matches!(o, RejectedShadow { version: 3, .. })
    })?;
    expect_active(soak, &svc, v(1), "after regressed-candidate rejection");

    // v4 promotes cleanly; a healthy window disarms the breaker.
    swap_to(soak, &mut coord, &svc, 4, |o| {
        matches!(o, Promoted { version: 4, .. })
    })?;
    swap_batch(&svc, seed, &mut next_job, false)?;
    let rb = coord.poll_rollback(&svc).must("poll rollback")?;
    soak.check(rb.is_none(), "healthy v4 window rolled back");
    soak.check(
        !coord.breaker_armed(),
        "healthy v4 window left the breaker armed",
    );
    expect_active(soak, &svc, v(4), "after v4 promotion");

    // v5 promotes, its bad-outcome rate spikes, and it rolls back to v4.
    swap_to(soak, &mut coord, &svc, 5, |o| {
        matches!(o, Promoted { version: 5, .. })
    })?;
    swap_batch(&svc, seed, &mut next_job, true)?;
    let rb = coord.poll_rollback(&svc).must("poll rollback")?;
    soak.check(
        matches!(&rb, Some(r) if r.from_version == 5 && r.to_version == 4),
        format!("v5 spike: expected rollback to v4, got {rb:?}"),
    );
    expect_active(soak, &svc, v(4), "after automatic rollback");

    // v6 stalls between intent and install; kill and resume: the dangling
    // intent must not activate, the journaled v4 must.
    let mut stalling =
        SwapCoordinator::new(open()?, permissive(Some((seed, InjectedFault::SwapStall))));
    swap_to(soak, &mut stalling, &svc, 6, |o| {
        matches!(o, Stalled { version: 6, .. })
    })?;
    expect_active(soak, &svc, v(4), "after v6 stall");
    let reg = open()?;
    let (svc, replay) = soak.kill_and_resume(svc, &config, Some(&reg))?;
    let (active, dangling) = (replay.active_model, replay.dangling_swap);
    soak.check(
        active == Some(v(4)),
        format!("resumed onto {active:?}, want v4"),
    );
    soak.check(
        dangling == Some(v(6)),
        format!("dangling swap {dangling:?}, want v6"),
    );
    expect_active(soak, &svc, v(4), "after kill-and-resume");
    swap_batch(&svc, seed, &mut next_job, false)?;
    expect_active(soak, &svc, v(4), "after post-resume traffic");

    // The current incarnation's books balance (pre-kill outcomes settled
    // before the abort, and the journal replays them).
    check_books(soak, &svc.stats());
    svc.shutdown();
    Ok("promote, corrupt-reject, regress-reject, rollback, stall, kill-and-resume".into())
}

// ---------------------------------------------------------------------------
// session
// ---------------------------------------------------------------------------

const SESSION_DELTAS: u64 = 12;

/// Seeded deltas, valid by construction against the small fat-tree (24
/// links and 32 hosts are well inside it).
fn session_deltas(seed: u64) -> Vec<ScenarioDelta> {
    let mut s = seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0x6d35;
    (0..SESSION_DELTAS)
        .map(|_| {
            let link = (mix(&mut s) % 24) as u32;
            match mix(&mut s) % 5 {
                0 => ScenarioDelta::LinkCapacity {
                    link,
                    bandwidth: (2 + mix(&mut s) % 9) * GBPS,
                },
                1 => ScenarioDelta::LinkDown { link },
                2 => ScenarioDelta::LinkUp { link },
                3 => ScenarioDelta::TrafficShift {
                    src: mix(&mut s)
                        .is_multiple_of(2)
                        .then(|| (mix(&mut s) % 32) as u32),
                    dst: mix(&mut s)
                        .is_multiple_of(2)
                        .then(|| (mix(&mut s) % 32) as u32),
                    num: 1 + (mix(&mut s) % 3) as u32,
                    den: 1 + (mix(&mut s) % 3) as u32,
                },
                _ => ScenarioDelta::CcKnob {
                    knob: Knob::InitWindow,
                    value: 10_000.0 + (mix(&mut s) % 20_000) as f64,
                },
            }
        })
        .collect()
}

/// Apply delta `i` to session `id`; every path must be dirty or reused.
fn apply_balanced(
    soak: &mut Soak,
    svc: &Service,
    id: u64,
    i: usize,
    d: &ScenarioDelta,
) -> Step<()> {
    let u = svc.apply_delta(id, d).must(&format!("delta {i}"))?;
    soak.check(
        u.dirty_paths + u.reused_paths == u.total_paths,
        format!(
            "delta {i} books off: {} dirty + {} reused != {} total",
            u.dirty_paths, u.reused_paths, u.total_paths
        ),
    );
    Ok(())
}

fn session_estimate(svc: &Service, id: u64) -> Step<NetworkEstimate> {
    svc.session_estimate(id)
        .ok_or("gone")
        .must(&format!("session {id} estimate"))
}

fn session(soak: &mut Soak) -> Step<String> {
    let seed = soak.seed;
    let seq = session_deltas(seed);
    let kills = kill_points(seed, 0..SESSION_DELTAS, 4);
    let request = OpenSessionRequest::new(scenario(300), 6, seed);

    // From scratch: fold the deltas into the materialized state, estimate once.
    let (topo, flows, config) = request.scenario.materialize(seed).setup("materialize")?;
    let mut state = ScenarioState::new(topo, flows, config);
    for (i, d) in seq.iter().enumerate() {
        state.apply(d).must(&format!("fold delta {i}"))?;
    }
    let scratch = estimator()
        .try_estimate(
            &state.topo,
            &state.effective_flows(),
            &state.config,
            request.paths,
            seed,
            &EstimateOptions::default(),
        )
        .must("from-scratch estimate")?;

    // Uninterrupted and journal-free.
    let svc = Service::start(estimator(), ServiceConfig::default());
    let (id, _) = svc.open_session(request.clone()).must("open")?;
    for (i, d) in seq.iter().enumerate() {
        apply_balanced(soak, &svc, id, i, d)?;
    }
    let uninterrupted = session_estimate(&svc, id)?;
    svc.shutdown();

    // Journaled, killed and resumed at every kill point, with a rejected
    // delta after each valid one.
    let config = ServiceConfig::default();
    let mut svc = soak.start(&config)?;
    let (id, _) = svc.open_session(request).must("open")?;
    for (i, d) in seq.iter().enumerate() {
        apply_balanced(soak, &svc, id, i, d)?;
        let before = session_estimate(&svc, id)?;
        let bad = ScenarioDelta::LinkDown {
            link: 9_999 + i as u32,
        };
        match svc.apply_delta(id, &bad) {
            Err(SessionError::Estimate(_)) => {}
            other => soak.fail(format!(
                "unknown-link delta after {i} was not rejected typed: {other:?}"
            )),
        }
        soak.check(
            before.digest() == session_estimate(&svc, id)?.digest(),
            format!("the rejected delta after {i} changed the estimate"),
        );
        if kills.contains(&(i as u64)) {
            let (resumed, replay) = soak.kill_and_resume(svc, &config, None)?;
            svc = resumed;
            if !replay.sessions.contains_key(&id) {
                return violation(format!("resume after delta {i} lost session {id}"));
            }
        }
    }
    let resumed = session_estimate(&svc, id)?;
    svc.close_session(id).must("close")?;
    svc.shutdown();

    let uninterrupted = uninterrupted.digest();
    soak.check(
        resumed.digest() == uninterrupted,
        "DIVERGED — the killed/resumed session differs from the uninterrupted one",
    );
    soak.check(
        scratch.digest() == uninterrupted,
        "DIVERGED — the incremental session differs from a from-scratch estimate",
    );
    Ok(format!("{SESSION_DELTAS} deltas, kills after {kills:?}"))
}

// ---------------------------------------------------------------------------
// monitor
// ---------------------------------------------------------------------------

const MONITOR_ROUNDS: u64 = 12;
/// Final rounds with no kill: enough clean samples for the SLO to clear.
const COOL_DOWN: u64 = 6;
const SLO_NAME: &str = "bad-outcome-rate";

/// Round `round`'s clean request — identical in the reference and the
/// monitored run so their digests compare.
fn clean_request(seed: u64, round: u64) -> EstimateRequest {
    EstimateRequest::new(scenario(300), 6, seed ^ (round * 31 + 7))
}

/// Every attempt forward-poisoned under a permissive degrade policy: it
/// settles Degraded, the fuel for the bad-outcome SLO.
fn faulted_request(seed: u64, round: u64, k: u64) -> EstimateRequest {
    let mut req = EstimateRequest::new(scenario(300), 6, seed ^ (round * 131 + k));
    req.fault_plan = Some(FaultPlan::new(seed ^ round ^ k).with(InjectedFault::ForwardPoison, 1.0));
    req.policy = Some(DegradationPolicy::Degrade {
        max_degraded_frac: 1.0,
    });
    req
}

fn monitor_config(events: &Path, status: &Path) -> MonitorConfig {
    let outcomes = |names: &[&str]| names.iter().map(|n| format!("serve.{n}")).collect();
    MonitorConfig {
        slos: vec![SloSpec {
            name: SLO_NAME.into(),
            signal: SloSignal::ErrorRate {
                bad: outcomes(&["degraded", "failed", "shed"]),
                total: outcomes(&["completed", "degraded", "failed", "shed"]),
                objective: 0.05,
            },
            window: 4,
            fire_burn_rate: 1.0,
            clear_burn_rate: 0.5,
        }],
        drift: Some(DriftConfig {
            sample: 2,
            every: 4,
        }),
        events_out: Some(events.to_path_buf()),
        status_out: Some(status.to_path_buf()),
    }
}

fn completed_digest(svc: &Service, id: u64, what: &str) -> Step<u64> {
    match svc.outcome(id) {
        Some(JobOutcome::Completed { estimate, .. }) => Ok(estimate.digest()),
        other => violation(format!("{what} not Completed: {other:?}")),
    }
}

/// Per-(subject, SLO) chains start at `Ok`, each `from` is the previous
/// `to`, and nothing transitions to itself.
fn check_chains(soak: &mut Soak, events: &[HealthEvent]) {
    let mut last: HashMap<(&str, &str), SloState> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let at = last
            .insert((&ev.subject, &ev.slo), ev.to)
            .unwrap_or(SloState::Ok);
        soak.check(
            ev.from == at && ev.from != ev.to,
            format!(
                "event {i} ({}/{}): {:?} -> {:?} but the chain was at {at:?}",
                ev.subject, ev.slo, ev.from, ev.to
            ),
        );
    }
}

fn monitor(soak: &mut Soak) -> Step<String> {
    let seed = soak.seed;
    let kills = kill_points(seed, 1..MONITOR_ROUNDS - COOL_DOWN, 3);

    // The unmonitored reference: every clean request through a bare service.
    let svc = Service::start(estimator(), ServiceConfig::default());
    let ids: Vec<u64> = (0..MONITOR_ROUNDS)
        .map(|round| svc.submit(clean_request(seed, round)))
        .collect::<Result<_, _>>()
        .must("reference submit")?;
    settle(&svc)?;
    let reference: Vec<u64> = ids
        .iter()
        .map(|&id| completed_digest(&svc, id, "a reference round"))
        .collect::<Step<_>>()?;
    svc.shutdown();

    // The monitored run: clean / faulty / clean thirds, sampling after each
    // round, killing and resuming service and monitor at the kill points.
    let (events, status) = (soak.path("events.jsonl"), soak.path("status.json"));
    let config = ServiceConfig {
        queue_capacity: 256,
        ..ServiceConfig::default()
    };
    let mut svc = soak.start(&config)?;
    let mut mon = Monitor::new(monitor_config(&events, &status)).setup("start the monitor")?;
    let faulty = MONITOR_ROUNDS / 3..2 * MONITOR_ROUNDS / 3;
    let (mut clean, mut fired_ticks, mut pre_kill_logs) = (Vec::new(), 0, Vec::new());
    for round in 0..MONITOR_ROUNDS {
        let id = svc.submit(clean_request(seed, round)).must("submit")?;
        if faulty.contains(&round) {
            for k in 0..3 {
                svc.submit(faulted_request(seed, round, k)).must("submit")?;
            }
        }
        settle(&svc)?;
        let report = mon
            .sample(&svc, round + 1)
            .must(&format!("sample round {round}"))?;
        fired_ticks += u64::from(!report.cluster.healthy);
        // Harvest live: a settled job's outcome does not outlive a kill.
        clean.push(completed_digest(&svc, id, &format!("clean round {round}"))?);
        if kills.contains(&round) {
            // Everything durable before the kill must survive it verbatim.
            pre_kill_logs.push(std::fs::read(&events).must("read the event log before a kill")?);
            svc = soak.kill_and_resume(svc, &config, None)?.0;
            mon = Monitor::new(monitor_config(&events, &status)).must("resume the monitor")?;
        }
    }
    svc.shutdown();

    // Signal fidelity: fired during the faults, cleared by the end, and
    // drift scored.
    soak.check(
        fired_ticks > 0,
        "the bad-outcome SLO never fired despite forced degradations",
    );
    let (_, log) = EventLog::open(&events).must("reopen the event log")?;
    let count = |to| {
        log.iter()
            .filter(|e| e.slo == SLO_NAME && e.to == to)
            .count()
    };
    let (fires, clears) = (count(SloState::Firing), count(SloState::Ok));
    soak.check(
        fires > 0 && clears > 0,
        format!("want a fire and a clear, got {fires} fire(s), {clears} clear(s)"),
    );
    let text = std::fs::read_to_string(&status).must("read the final status report")?;
    let report = MonitorReport::from_json(&text).must("parse the final status report")?;
    soak.check(report.all_healthy(), "still unhealthy after the cool-down");
    let drift = report.cluster.drift;
    soak.check(
        drift.as_ref().is_some_and(|d| d.scenarios > 0),
        format!("the drift watchdog never scored a scenario: {drift:?}"),
    );

    // Lossless events: append-only across kills, consistent chains.
    let final_log = std::fs::read(&events).must("read the final event log")?;
    for (i, pre) in pre_kill_logs.iter().enumerate() {
        soak.check(
            final_log.starts_with(pre),
            format!("kill {i}: the pre-kill event log is not a prefix of the final one"),
        );
    }
    check_chains(soak, &log);

    // The monitor only observes.
    soak.check(
        clean == reference,
        "DIVERGED — monitored clean digests differ from the unmonitored reference",
    );
    Ok(format!(
        "kills after rounds {kills:?}, {fires} fire / {clears} clear transition(s)"
    ))
}

// ---------------------------------------------------------------------------
// crash
// ---------------------------------------------------------------------------

/// What identifies a journal record across runs: its kind and its ids.
/// Terminal and decision records share a key, as either settles a job.
fn record_key(record: &JournalRecord) -> String {
    match record {
        JournalRecord::Accepted { id, .. } => format!("accepted {id}"),
        JournalRecord::Terminal { id, .. } | JournalRecord::Decision { id, .. } => {
            format!("settled {id}")
        }
        JournalRecord::SwapIntent { version, .. } => format!("swap intent v{version}"),
        JournalRecord::ModelSwap { version, .. } => format!("swap v{version}"),
        JournalRecord::SessionOpen { id, .. } => format!("open {id}"),
        JournalRecord::SessionDelta { id, seq, .. } => format!("delta {id}.{seq}"),
        JournalRecord::SessionClose { id } => format!("close {id}"),
    }
}

fn record_keys(path: &Path) -> Step<Vec<String>> {
    let records = read_records(path).must("read the journal")?;
    Ok(records.iter().map(record_key).collect())
}

/// The crash schedule's client: one journaled single-worker service, run
/// step by step until its journal reaches the crash point.
struct CrashRun {
    svc: Service,
    faults: JournalFaults,
    /// Completed outcomes the client saw: job id -> estimate digest.
    completed: BTreeMap<u64, u64>,
}

impl CrashRun {
    /// Whether the last call failed at the crash point (`Ok(true)`: stop
    /// here); a failure anywhere else is a violation.
    fn crashed<T, E: Display>(&self, result: Result<T, E>, what: &str) -> Step<bool> {
        match result {
            Ok(_) => Ok(self.faults.tripped()),
            Err(_) if self.faults.tripped() => Ok(true),
            Err(e) => violation(format!("{what} failed before the crash point: {e}")),
        }
    }

    /// Submit `request`, let it settle, and note its outcome.
    fn job(&mut self, request: EstimateRequest) -> Step<bool> {
        let submitted = self.svc.submit(request);
        let id = match &submitted {
            Ok(id) => *id,
            Err(_) => return self.crashed(submitted, "submit"),
        };
        settle(&self.svc)?;
        match self.svc.outcome(id) {
            Some(JobOutcome::Completed { estimate, .. }) => {
                self.completed.insert(id, estimate.digest());
            }
            Some(_) => {}
            None => return violation(format!("job {id} settled without an outcome")),
        }
        Ok(self.faults.tripped())
    }
}

/// The schedule: a completed job, a degraded one, a session opened,
/// updated and closed, a committed swap to `next`, and a completed job on
/// it. Stops at the crash point; returns the client's view.
fn crash_schedule(soak: &Soak, faults: &JournalFaults, next: &M3Net) -> Step<CrashRun> {
    let seed = soak.seed;
    let config = ServiceConfig {
        workers: 1,
        journal_faults: Some(faults.clone()),
        ..ServiceConfig::default()
    };
    let mut run = CrashRun {
        svc: soak.start(&config)?,
        faults: faults.clone(),
        completed: BTreeMap::new(),
    };
    let clean = |k: u64| EstimateRequest::new(scenario(150 + 50 * k as usize), 3, seed ^ k);
    let mut poisoned = clean(1);
    poisoned.fault_plan = Some(FaultPlan::new(seed).with(InjectedFault::ForwardPoison, 1.0));
    poisoned.policy = Some(DegradationPolicy::Degrade {
        max_degraded_frac: 1.0,
    });
    if run.job(clean(0))? || run.job(poisoned)? {
        return Ok(run);
    }
    let opened = run
        .svc
        .open_session(OpenSessionRequest::new(scenario(150), 3, seed));
    let id = match &opened {
        Ok((id, _)) => *id,
        Err(_) => {
            run.crashed(opened, "open session")?;
            return Ok(run);
        }
    };
    let delta = ScenarioDelta::LinkCapacity {
        link: (seed % 24) as u32,
        bandwidth: 5 * GBPS,
    };
    if run.crashed(run.svc.apply_delta(id, &delta), "delta")?
        || run.crashed(run.svc.close_session(id), "close session")?
        || run.crashed(
            run.svc.journal_swap_intent(1, next.fingerprint()),
            "swap intent",
        )?
        || run.crashed(run.svc.install_model(next.clone(), Some(1)), "swap commit")?
    {
        return Ok(run);
    }
    run.job(clean(2))?;
    Ok(run)
}

fn crash(soak: &mut Soak) -> Step<String> {
    let next = small_net(soak.seed + 100);
    let registry = ModelRegistry::open(soak.path("registry")).setup("open the registry")?;
    registry
        .publish(&next, soak.seed, Lineage::default())
        .setup("publish")?;

    // The whole schedule, no crash: how many writes and fsyncs it makes
    // and what it leaves in the journal.
    let clean = JournalFaults::fail_at(u64::MAX);
    let run = crash_schedule(soak, &clean, &next)?;
    run.svc.shutdown();
    let reference = record_keys(&soak.journal())?;
    let points = clean.ops();
    if points != 2 * reference.len() as u64 {
        return violation(format!(
            "{points} journal operations for {} records",
            reference.len()
        ));
    }

    let mut recomputed = 0;
    for n in 0..points {
        let faults = JournalFaults::fail_at(n);
        let run = crash_schedule(soak, &faults, &next)?;
        run.svc.abort();
        let at = format!("crash point {n}");

        // No fsync'd record lost, none invented: the journal holds the
        // acknowledged appends, plus the crashed one when its write went
        // through before its fsync failed.
        let left = record_keys(&soak.journal())?;
        let acked = faults.appended() as usize;
        let fits = |len: usize| left.len() == len && left[..] == reference[..len];
        soak.check(
            acked == (n / 2) as usize && (fits(acked) || (n % 2 == 1 && fits(acked + 1))),
            format!("{at}: the journal holds {left:?}, {acked} append(s) were fsync'd"),
        );

        let (journal, config) = (soak.journal(), ServiceConfig::default());
        let (svc, replay) = Service::resume(estimator(), config, journal, Some(&registry))
            .must(&format!("{at}: resume"))?;
        soak.check(
            replay.corruption.is_none() && replay.orphan_terminals == 0,
            format!("{at}: a crash point left more than a torn tail"),
        );
        settle(&svc)?;

        // Exactly one terminal per accepted job.
        let records = read_records(soak.journal()).must("read the resumed journal")?;
        let mut settles: BTreeMap<u64, (bool, usize)> = BTreeMap::new();
        for record in &records {
            match record {
                JournalRecord::Accepted { id, .. } => settles.entry(*id).or_default().0 = true,
                JournalRecord::Terminal { id, .. } | JournalRecord::Decision { id, .. } => {
                    settles.entry(*id).or_default().1 += 1;
                }
                _ => {}
            }
        }
        for (id, (accepted, count)) in settles {
            soak.check(
                accepted && count == 1,
                format!("{at}: job {id} (accepted: {accepted}) has {count} terminal record(s)"),
            );
        }

        // Every completed outcome seen before the crash recomputes to the
        // digest it had, and its decision record (if any) holds that digest.
        for (&id, &digest) in &run.completed {
            let decided = records.iter().find_map(|r| match r {
                JournalRecord::Decision { id: d, digest, .. } if *d == id => Some(*digest),
                _ => None,
            });
            soak.check(
                decided.is_none_or(|d| d == digest),
                format!("{at}: job {id}'s decision records another digest"),
            );
            match svc.outcome(id) {
                Some(JobOutcome::Completed { estimate, .. }) if estimate.digest() == digest => {}
                other => soak.fail(format!(
                    "{at}: job {id} resumed as {other:?}, want digest {digest:#018x}"
                )),
            }
        }
        let stats = svc.stats();
        check_books(soak, &stats);
        soak.check(
            stats.recompute_failures == 0,
            format!("{at}: {} recompute failure(s)", stats.recompute_failures),
        );
        recomputed += stats.recomputed;
        svc.shutdown();
    }
    Ok(format!(
        "{points} crash points over {} records, {recomputed} outcomes recomputed",
        reference.len()
    ))
}
