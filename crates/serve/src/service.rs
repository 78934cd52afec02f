//! The supervised estimation service.
//!
//! A bounded job queue in front of a pool of worker threads, each running
//! requests through [`M3Estimator`] against a shared scenario cache. The
//! contract: **every accepted job reaches exactly one terminal state**
//! ([`JobOutcome`]), even across worker panics, transient stage faults, and
//! whole-process crashes (via the write-ahead [`Journal`]).
//!
//! Robustness mechanics, in the order a job meets them:
//!
//! 1. **Admission control** — `submit` rejects when the queue is full
//!    (load shedding; the caller is told immediately, nothing is journaled)
//!    and journals an `Accepted` record (fsync'd) before returning the id.
//! 2. **Deadlines** — a job whose deadline expired before its first
//!    attempt is `Shed`; expiry between retries is `Failed` with
//!    [`M3Error::DeadlineExceeded`]. Remaining time is layered onto the
//!    flowSim stage budget of each attempt.
//! 3. **Circuit breakers** — consecutive flowSim- or forward-stage
//!    failures trip a per-stage breaker; while open, jobs route down the
//!    flowSim-only degraded path (`Degraded { via_breaker: true }`)
//!    instead of queuing up behind a failing stage.
//! 4. **Retries** — transient faults back off with deterministic full
//!    jitter ([`RetryPolicy`]); persistent faults fail fast.
//! 5. **Supervision** — a worker that panics is reaped, its in-flight job
//!    is re-enqueued (front of queue, attempt count preserved), and a
//!    replacement worker is spawned.
//!
//! A request pays for its own work and little else:
//!
//! * Each worker runs under a `rayon` worker count of
//!   `max(1, cores / workers)`, so the pipeline's parallel sections split
//!   the cores with the other workers instead of each fanning out to all
//!   of them.
//! * A request's prepared work ([`PreparedEstimate`]: the materialized
//!   scenario, its path index and the keyed work units of its sampled
//!   paths) comes from a small LRU keyed on the exact bits of the request's
//!   spec, seed, path count and slice and the model's `use_context`. A
//!   repeated request is prepared once; each repeat only probes the cache,
//!   runs what missed and aggregates.
//! * Journal frames are encoded before the state lock is taken; under it
//!   only the write and the fsync remain.
//! * A completed job journals its decision (a digest of the estimate), not
//!   the estimate. A resumed service recomputes the estimate the first
//!   time [`Service::outcome`] is asked for it, outside the state lock.

use crate::backoff::RetryPolicy;
use crate::breaker::{BreakerState, CircuitBreaker};
use crate::journal::{
    Decision, Frame, JobOutcome, Journal, JournalCorruption, JournalFaults, JournalRecord, Replay,
};
use crate::request::{
    ConfigSpec, EstimateRequest, OpenSessionRequest, ScenarioSpec, TopoSpec, WorkloadSpec,
};
use m3_core::prelude::{
    CacheStats, EstimateOptions, InjectedFault, M3Error, M3Estimator, NetworkEstimate, PathSlice,
    PreparedEstimate, ScenarioDelta, ScenarioSession, SessionUpdate, SharedScenarioCache, Stage,
    StageBudget,
};
use m3_flowsim::prelude::FluidBudget;
use m3_nn::prelude::{write_atomic, M3Net, ModelRef, ModelRegistry};
use m3_telemetry::trace::{TraceCtx, TraceRecorder};
use m3_telemetry::{Counter, Gauge, Histogram, HistogramEdges, MetricsRegistry, MetricsSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads. 0 is allowed: jobs are accepted and journaled but
    /// never processed (useful for staging work and crash-recovery tests).
    pub workers: usize,
    /// Queue slots; submissions beyond this are shed.
    pub queue_capacity: usize,
    pub retry: RetryPolicy,
    /// Shared scenario-cache capacity (entries).
    pub cache_capacity: usize,
    /// When set, the supervisor writes a JSON [`MetricsSnapshot`] of the
    /// service registry here every [`METRICS_DUMP_EVERY`] and once more at
    /// shutdown.
    pub metrics_out: Option<PathBuf>,
    /// Causal-tracing flight recorder. Defaults to the noop recorder
    /// (tracing off; one branch of overhead per trace point). When
    /// enabled, every processed job runs under trace id
    /// [`trace_id_for`]`(job.id)`, which is also written to the journal's
    /// `Accepted` record for post-crash correlation.
    pub trace: TraceRecorder,
    /// Virtual-time stride (ns) for simulator counter probes in traced
    /// jobs; 0 means the telemetry default.
    pub trace_stride_ns: u64,
    /// Synthetic per-attempt service latency, slept by the worker before
    /// each pipeline attempt. `ZERO` (the default) adds nothing. Models
    /// the blocking I/O / RPC component of a remote estimation shard so
    /// cluster fan-out benchmarks measure coordinator concurrency honestly
    /// on any core count (shards overlap sleeps even on one core).
    pub simulated_io: Duration,
    /// Crash points injected into the journal's appends (see
    /// [`JournalFaults`]); `None`, the default, injects nothing. For
    /// crash-recovery tests and soaks.
    pub journal_faults: Option<JournalFaults>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            retry: RetryPolicy::default(),
            cache_capacity: 256,
            metrics_out: None,
            trace: TraceRecorder::noop(),
            trace_stride_ns: 0,
            simulated_io: Duration::ZERO,
            journal_faults: None,
        }
    }
}

/// Interval between the supervisor's periodic metrics dumps (only with
/// [`ServiceConfig::metrics_out`]).
pub const METRICS_DUMP_EVERY: Duration = Duration::from_secs(1);

/// How stale the supervisor's liveness tick may grow before
/// [`ServiceStats::healthy`] reports the service unhealthy. The supervisor
/// ticks every few milliseconds, so this only trips on a genuinely wedged
/// supervisor thread.
pub const LIVENESS_TIMEOUT: Duration = Duration::from_secs(2);

/// The trace id the service stamps on job `id`. Job ids start at 0 but
/// trace id 0 is reserved ("no trace"), so the mapping is offset by one.
pub fn trace_id_for(job_id: u64) -> u64 {
    job_id + 1
}

/// The trace id stamped on every update of session `id`. The high bit
/// keeps session traces disjoint from job traces even though sessions and
/// jobs share one id allocator.
pub fn session_trace_id(session_id: u64) -> u64 {
    (1 << 63) | (session_id + 1)
}

/// Why a session operation failed.
#[derive(Debug)]
pub enum SessionError {
    /// No open session with this id (never opened, or already closed).
    UnknownSession { id: u64 },
    /// The open/delta failed in the estimation pipeline (including typed
    /// spec-validation rejections). The session, if it existed, is
    /// unchanged.
    Estimate(M3Error),
    /// The write-ahead journal append failed; the operation was NOT
    /// applied.
    Journal(io::Error),
    /// The service is shutting down; no new sessions are opened.
    ShuttingDown,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownSession { id } => write!(f, "unknown session {id}"),
            SessionError::Estimate(e) => write!(f, "session estimate failed: {e}"),
            SessionError::Journal(e) => write!(f, "session journal append failed: {e}"),
            SessionError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<M3Error> for SessionError {
    fn from(e: M3Error) -> Self {
        SessionError::Estimate(e)
    }
}

/// Why a submission was rejected.
#[derive(Debug)]
pub enum SubmitError {
    /// Queue full: the job was shed at admission. Nothing was journaled.
    QueueFull { capacity: usize },
    /// The service is shutting down.
    ShuttingDown,
    /// The write-ahead journal append failed; the job was NOT accepted.
    Journal(io::Error),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} slots): job shed")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::Journal(e) => write!(f, "journal append failed: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Point-in-time health/stats snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceStats {
    pub accepted: u64,
    pub completed: u64,
    pub degraded: u64,
    pub failed: u64,
    pub shed: u64,
    /// Rejected at submit time (not accepted, not journaled).
    pub shed_at_submit: u64,
    pub queue_depth: usize,
    pub in_flight: usize,
    /// Retry attempts performed (not counting first tries).
    pub retries: u64,
    pub worker_panics: u64,
    pub workers_respawned: u64,
    pub flowsim_breaker: BreakerState,
    pub forward_breaker: BreakerState,
    pub breaker_trips: u64,
    pub cache: CacheStats,
    /// Worker threads the service was configured with.
    #[serde(default)]
    pub workers: usize,
    /// Milliseconds since the supervisor's last liveness tick. A wedged
    /// supervisor (stalled thread, stuck reap loop) shows up here even
    /// while the queue looks merely idle.
    #[serde(default)]
    pub supervisor_stale_ms: u64,
    /// The ceiling on
    /// [`supervisor_stale_ms`](ServiceStats::supervisor_stale_ms)
    /// ([`LIVENESS_TIMEOUT`]), echoed so `healthy()` is self-contained on
    /// a deserialized snapshot.
    #[serde(default)]
    pub liveness_timeout_ms: u64,
    /// Mid-file journal corruption quarantined during the resume that
    /// started this service, if any.
    #[serde(default)]
    pub journal_corruption: Option<JournalCorruption>,
    /// Fingerprint of the model serving new admissions when the snapshot
    /// was taken (in-flight jobs may still be finishing on a predecessor).
    #[serde(default)]
    pub model_fingerprint: u64,
    /// Registry version of the active model; `None` when the model was
    /// installed at construction without a registry.
    #[serde(default)]
    pub model_version: Option<u64>,
    /// Committed model installs (promotions and rollbacks) since start.
    #[serde(default)]
    pub model_swaps: u64,
    /// Incremental sessions currently open.
    #[serde(default)]
    pub sessions_open: usize,
    /// Sessions ever opened (including resume re-adoptions).
    #[serde(default)]
    pub sessions_opened: u64,
    /// Deltas applied across all sessions (successful applies only).
    #[serde(default)]
    pub session_updates: u64,
    /// Completed jobs resumed from a decision record whose estimate was
    /// recomputed to the recorded digest.
    #[serde(default)]
    pub recomputed: u64,
    /// Decision records that resolved to a `Failed` outcome instead: the
    /// model was unavailable, the recompute failed, or the digest differed.
    #[serde(default)]
    pub recompute_failures: u64,
    /// Terminal and decision records the resume that started this service
    /// dropped because their `Accepted` record was quarantined.
    #[serde(default)]
    pub journal_orphan_terminals: usize,
}

impl ServiceStats {
    /// All accepted jobs that have settled.
    pub fn settled(&self) -> u64 {
        self.completed + self.degraded + self.failed + self.shed
    }

    /// Healthy = accepting work, not routing around a tripped stage, and
    /// actually able to make progress: the supervisor has ticked within
    /// its liveness timeout, and pending work implies someone to do it. A
    /// stalled service with jobs queued and zero workers is *unhealthy*,
    /// not idle — the old breaker-only check could not tell those apart.
    pub fn healthy(&self) -> bool {
        let breakers_closed = self.flowsim_breaker == BreakerState::Closed
            && self.forward_breaker == BreakerState::Closed;
        let supervisor_live = self.supervisor_stale_ms <= self.liveness_timeout_ms;
        let pending = self.accepted > self.settled();
        let can_progress = !pending || self.workers > 0;
        breakers_closed && supervisor_live && can_progress
    }
}

/// A queued job. `attempt` survives re-enqueue after a worker panic so
/// "fail first N attempts" fault plans converge instead of looping.
#[derive(Debug, Clone)]
struct Job {
    id: u64,
    request: EstimateRequest,
    accepted_at: Instant,
    attempt: u32,
}

/// Handles to every service-level metric, registered under the `serve.`
/// prefix on the service's live [`MetricsRegistry`]. The same registry is
/// handed to the pipeline per job, so one snapshot covers the full stack
/// (`serve.*`, `pipeline.*`, `flowsim.*`).
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// `serve.accepted` — jobs admitted (journaled and queued).
    pub accepted: Counter,
    /// `serve.completed` — jobs that settled clean.
    pub completed: Counter,
    /// `serve.degraded` — jobs that settled via a degraded path.
    pub degraded: Counter,
    /// `serve.failed` — jobs that settled with a terminal error.
    pub failed: Counter,
    /// `serve.shed` — accepted jobs shed (deadline expired in queue).
    pub shed: Counter,
    /// `serve.shed_at_submit` — submissions rejected at admission.
    pub shed_at_submit: Counter,
    /// `serve.retries` — retry attempts (not counting first tries).
    pub retries: Counter,
    /// `serve.worker_panics` — workers reaped after a panic.
    pub worker_panics: Counter,
    /// `serve.workers_respawned` — replacement workers spawned.
    pub workers_respawned: Counter,
    /// `serve.breaker_trips` — closed-to-open breaker transitions.
    pub breaker_trips: Counter,
    /// `serve.queue_depth` — current queue length (wall: scheduling-
    /// dependent, excluded from the deterministic view).
    pub queue_depth: Gauge,
    /// `serve.in_flight` — jobs currently on a worker (wall).
    pub in_flight: Gauge,
    /// `serve.request_latency_seconds` — accept-to-settle latency (wall).
    pub request_latency: Histogram,
    /// `serve.model_swaps` — committed model installs (promotions and
    /// rollbacks).
    pub model_swaps: Counter,
    /// `serve.model_version` — registry version of the active model
    /// (0 = unversioned, i.e. the construction-time model).
    pub model_version: Gauge,
    /// `serve.sessions_opened` — sessions opened (incl. resume re-adopts).
    pub sessions_opened: Counter,
    /// `serve.sessions_closed` — sessions closed.
    pub sessions_closed: Counter,
    /// `serve.session_updates` — deltas applied successfully.
    pub session_updates: Counter,
    /// `serve.sessions_open` — sessions currently open (wall).
    pub sessions_open: Gauge,
    /// `serve.session_update_seconds` — per-delta apply latency (wall).
    pub session_update_latency: Histogram,
    /// `serve.recomputed` — decision records recomputed to their digest.
    pub recomputed: Counter,
    /// `serve.recompute_failures` — decision records that resolved to
    /// `Failed` (model unavailable, recompute failed, digest mismatch).
    pub recompute_failures: Counter,
    /// `serve.cache_eviction_pressure` — evictions plus pin-blocked
    /// eviction attempts in the shared scenario cache (wall; sampled by
    /// the supervisor each tick). Rising while sessions are open means the
    /// cache is too small for the pinned working set.
    pub cache_eviction_pressure: Gauge,
    /// `trace.dropped_events` — events the trace ring overwrote before
    /// export (wall; sampled by the supervisor each tick). Non-zero means
    /// the flight recorder is undersized for the workload, which
    /// previously was visible only in the trace export itself.
    pub trace_dropped: Gauge,
}

impl ServeMetrics {
    /// Register every service metric on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        ServeMetrics {
            accepted: registry.counter("serve.accepted"),
            completed: registry.counter("serve.completed"),
            degraded: registry.counter("serve.degraded"),
            failed: registry.counter("serve.failed"),
            shed: registry.counter("serve.shed"),
            shed_at_submit: registry.counter("serve.shed_at_submit"),
            retries: registry.counter("serve.retries"),
            worker_panics: registry.counter("serve.worker_panics"),
            workers_respawned: registry.counter("serve.workers_respawned"),
            breaker_trips: registry.counter("serve.breaker_trips"),
            queue_depth: registry.wall_gauge("serve.queue_depth"),
            in_flight: registry.wall_gauge("serve.in_flight"),
            request_latency: registry.wall_histogram(
                "serve.request_latency_seconds",
                HistogramEdges::latency_seconds(),
            ),
            model_swaps: registry.counter("serve.model_swaps"),
            model_version: registry.gauge("serve.model_version"),
            sessions_opened: registry.counter("serve.sessions_opened"),
            sessions_closed: registry.counter("serve.sessions_closed"),
            session_updates: registry.counter("serve.session_updates"),
            sessions_open: registry.wall_gauge("serve.sessions_open"),
            session_update_latency: registry.wall_histogram(
                "serve.session_update_seconds",
                HistogramEdges::latency_seconds(),
            ),
            recomputed: registry.counter("serve.recomputed"),
            recompute_failures: registry.counter("serve.recompute_failures"),
            cache_eviction_pressure: registry.wall_gauge("serve.cache_eviction_pressure"),
            trace_dropped: registry.wall_gauge("trace.dropped_events"),
        }
    }
}

/// Bound on the recent-request ring used as the shadow-evaluation window:
/// enough traffic diversity for an A/B comparison, small enough that the
/// clones are negligible next to the journal append each accept already
/// pays.
const RECENT_WINDOW_CAP: usize = 64;

/// Entries of the prepared-work memo: room for a few hot requests next to
/// the fresh ones passing through, which never repeat.
const PREPARED_MEMO_CAP: usize = 4;

/// The `rayon` worker count of each of `workers` service workers: the
/// process's count split between them, at least 1. With as many workers
/// as cores, a request's parallel sections run on its own worker thread.
fn worker_threads(workers: usize) -> usize {
    (rayon::current_num_threads() / workers.max(1)).max(1)
}

/// The exact bits of what a request's prepared work depends on: its
/// `ScenarioSpec`, seed, path count and slice, and the model's
/// `use_context`. Floats are compared by `to_bits`: under `PartialEq` a NaN
/// never matches (the memo would never hit) and -0.0 equals 0.0 (the memo
/// could serve one for the other).
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpecKey {
    topology: (u8, usize),
    n_flows: usize,
    matrix: String,
    sizes: String,
    sigma: u64,
    max_load: u64,
    cc: Option<String>,
    init_window: Option<u64>,
    buffer_size: Option<u64>,
    pfc: Option<bool>,
    seed: u64,
    paths: usize,
    path_slice: Option<PathSlice>,
    use_context: bool,
}

impl SpecKey {
    fn new(req: &EstimateRequest, use_context: bool) -> SpecKey {
        // Destructured without `..`: a field added to the request or the
        // spec does not compile here until the key covers or skips it.
        // Policy, deadline and fault plan act on the resolve half only.
        let EstimateRequest {
            scenario,
            paths,
            seed,
            policy: _,
            deadline_ms: _,
            fault_plan: _,
            path_slice,
        } = req;
        let ScenarioSpec {
            topology,
            workload:
                WorkloadSpec {
                    n_flows,
                    matrix,
                    sizes,
                    sigma,
                    max_load,
                },
            config:
                ConfigSpec {
                    cc,
                    init_window,
                    buffer_size,
                    pfc,
                },
        } = scenario;
        SpecKey {
            topology: match *topology {
                TopoSpec::FatTreeSmall { oversub } => (0, oversub),
                TopoSpec::FatTreeLarge => (1, 0),
            },
            n_flows: *n_flows,
            matrix: matrix.clone(),
            sizes: sizes.clone(),
            sigma: sigma.to_bits(),
            max_load: max_load.to_bits(),
            cc: cc.clone(),
            init_window: *init_window,
            buffer_size: *buffer_size,
            pfc: *pfc,
            seed: *seed,
            paths: *paths,
            path_slice: *path_slice,
            use_context,
        }
    }
}

/// A least-recently-used memo of at most [`PREPARED_MEMO_CAP`] values,
/// keyed by [`SpecKey`]. Preparation is deterministic, so a memoized
/// value is the one a fresh call would build.
struct SpecMemo<V> {
    /// Most recently used last.
    entries: Mutex<VecDeque<(SpecKey, Arc<V>)>>,
}

impl<V> SpecMemo<V> {
    fn new() -> Self {
        SpecMemo {
            entries: Mutex::new(VecDeque::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<(SpecKey, Arc<V>)>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value memoized under `key` and `true`, else `make()`'s, which
    /// is memoized unless it failed, and `false`. `make` runs without the
    /// lock held: two workers missing on one key at once both build it, the
    /// first to finish is kept, and both get that one.
    fn get_or_try<E>(
        &self,
        key: SpecKey,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        if let Some(hit) = touch(&mut self.lock(), &key) {
            return Ok((hit, true));
        }
        let made = Arc::new(make()?);
        let mut entries = self.lock();
        if let Some(raced) = touch(&mut entries, &key) {
            return Ok((raced, false));
        }
        entries.push_back((key, Arc::clone(&made)));
        if entries.len() > PREPARED_MEMO_CAP {
            entries.pop_front();
        }
        Ok((made, false))
    }
}

/// Move `key`'s entry to the most-recently-used end and return its value.
fn touch<V>(entries: &mut VecDeque<(SpecKey, Arc<V>)>, key: &SpecKey) -> Option<Arc<V>> {
    let at = entries.iter().position(|(k, _)| k == key)?;
    let entry = entries.remove(at)?;
    let value = Arc::clone(&entry.1);
    entries.push_back(entry);
    Some(value)
}

/// The model currently serving new admissions: estimator plus registry
/// identity. Swapped as a unit under its own lock so the job hot path only
/// pays one short lock + `Arc` clone per job.
struct ActiveModel {
    estimator: Arc<M3Estimator>,
    version: Option<u64>,
    fingerprint: u64,
}

/// A settled job as [`Service::outcome`] finds it.
enum Settled {
    Outcome(JobOutcome),
    /// Resumed from a decision record; recomputed on the first `outcome`.
    Decided {
        request: EstimateRequest,
        decision: Decision,
    },
}

/// Where a resumed decision finds the model it was made on, other than the
/// active model: the models the service was resumed with (the
/// construction-time one and the journal's active one, which a later swap
/// may replace), and the registry it was resumed with.
#[derive(Default)]
struct DecisionModels {
    by_fingerprint: HashMap<u64, Arc<M3Estimator>>,
    registry: Option<ModelRegistry>,
}

/// One live incremental session: the core session plus its per-session
/// delta sequence counter (the `seq` stamped on journal records).
struct ServeSession {
    session: ScenarioSession,
    seq: u64,
}

struct State {
    queue: VecDeque<Job>,
    /// Ring of the most recently accepted requests (newest at the back) —
    /// the replay window a swap coordinator shadows candidates against.
    recent: VecDeque<EstimateRequest>,
    /// Jobs currently being processed, keyed by worker token — the
    /// supervisor recovers these when a worker dies.
    in_flight: HashMap<usize, Job>,
    outcomes: BTreeMap<u64, Settled>,
    /// Accepted jobs ever (preload + submissions); mirrored by the
    /// `serve.accepted` counter but kept under the lock because
    /// `wait_idle` compares it against `outcomes.len()`.
    accepted: u64,
    flowsim_breaker: CircuitBreaker,
    forward_breaker: CircuitBreaker,
    journal: Option<Journal>,
    shutdown: bool,
    /// Mid-file corruption found when this service resumed its journal.
    journal_corruption: Option<JournalCorruption>,
    /// Orphan terminal records dropped when this service resumed.
    journal_orphan_terminals: usize,
}

struct Inner {
    state: Mutex<State>,
    /// The next job or session id. Stored only under the state lock, which
    /// orders the stores (hence `Relaxed`), so ids are journaled in order;
    /// read without it only to guess the id an admission will get and
    /// encode its record before taking the lock, a guess checked under it.
    next_id: AtomicU64,
    /// Whether `State::journal` is set (fixed at construction): without a
    /// journal there is nothing to encode.
    journaled: bool,
    /// The `rayon` worker count each worker runs its jobs under.
    worker_threads: usize,
    /// Recently prepared requests of `process`.
    prepared: SpecMemo<PreparedEstimate>,
    /// Signals workers (new job / shutdown) and waiters (job settled).
    cond: Condvar,
    config: ServiceConfig,
    model: Mutex<ActiveModel>,
    decision_models: Mutex<DecisionModels>,
    cache: SharedScenarioCache,
    /// Live, always-enabled registry: service counters plus the absorbed
    /// per-job pipeline metrics.
    registry: MetricsRegistry,
    metrics: ServeMetrics,
    /// When the service started; liveness timestamps are ms since this.
    started: Instant,
    /// Supervisor liveness: tick counter and timestamp (ms since
    /// `started`) of the last supervisor loop iteration. Heartbeat-based
    /// failure detectors (the cluster coordinator) watch the counter; the
    /// stats snapshot derives staleness from the timestamp.
    beat: AtomicU64,
    last_beat_ms: AtomicU64,
    /// Test/fault hook: freeze the supervisor loop (heartbeat stops, dead
    /// workers go unreaped) without stopping the workers — the wedged-node
    /// failure mode ShardStall injects.
    stall_supervisor: AtomicBool,
    /// Live incremental sessions by id. A separate lock from `state`
    /// because a delta apply runs the pipeline and must not stall the job
    /// queue. Lock order where both are needed: `sessions` first, then
    /// `state` (for the journal) — never the reverse.
    sessions: Mutex<HashMap<u64, ServeSession>>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A panicking worker can poison the state mutex; the state is a
        // queue of plain data and remains valid, so recover the guard.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_model(&self) -> MutexGuard<'_, ActiveModel> {
        self.model.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_sessions(&self) -> MutexGuard<'_, HashMap<u64, ServeSession>> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pin the estimator serving admissions *right now*. Jobs clone the
    /// `Arc` once at pickup, so an install mid-job never changes the model
    /// an in-flight request runs on.
    fn active_estimator(&self) -> Arc<M3Estimator> {
        self.pin_model().0
    }

    /// [`active_estimator`](Self::active_estimator) and its fingerprint.
    fn pin_model(&self) -> (Arc<M3Estimator>, u64) {
        let slot = self.lock_model();
        (Arc::clone(&slot.estimator), slot.fingerprint)
    }

    /// The model with `fingerprint`, for recomputing a decision: the
    /// active one, one the service was resumed with, or the registry's.
    fn model_for(&self, fingerprint: u64) -> Option<Arc<M3Estimator>> {
        let (active, active_fp) = self.pin_model();
        if active_fp == fingerprint {
            return Some(active);
        }
        let mut models = self
            .decision_models
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(est) = models.by_fingerprint.get(&fingerprint) {
            return Some(Arc::clone(est));
        }
        let (_, net) = models
            .registry
            .as_ref()?
            .load(ModelRef::Fingerprint(fingerprint))
            .ok()?;
        let mut est = M3Estimator::new(net);
        est.use_context = active.use_context;
        let est = Arc::new(est);
        models.by_fingerprint.insert(fingerprint, Arc::clone(&est));
        Some(est)
    }

    fn note_beat(&self) {
        self.beat.fetch_add(1, Ordering::Relaxed);
        self.last_beat_ms
            .store(elapsed_ms(self.started), Ordering::Relaxed);
    }

    fn supervisor_stale_ms(&self) -> u64 {
        elapsed_ms(self.started).saturating_sub(self.last_beat_ms.load(Ordering::Relaxed))
    }

    /// `record`'s frame, encoded before the state lock is taken; `None`
    /// when the service has no journal.
    fn encode(&self, record: &JournalRecord) -> Option<io::Result<Frame>> {
        self.journaled.then(|| Frame::encode(record))
    }

    /// Write and fsync a frame from [`encode`](Self::encode) under the
    /// state lock (held by the caller as `st`).
    fn append(&self, st: &mut State, frame: Option<io::Result<Frame>>) -> io::Result<()> {
        match (st.journal.as_mut(), frame) {
            (Some(journal), Some(frame)) => journal.append_frame(&frame?),
            _ => Ok(()),
        }
    }

    /// The frame of `record(id)` for the id the next admission will
    /// probably get, encoded before the state lock is taken; `None`
    /// without a journal.
    fn encode_admission(
        &self,
        record: impl Fn(u64) -> JournalRecord,
    ) -> Option<(u64, io::Result<Frame>)> {
        let id = self.next_id.load(Ordering::Relaxed);
        self.encode(&record(id)).map(|frame| (id, frame))
    }

    /// Take the next id under the state lock and journal `record(id)` with
    /// the frame from [`encode_admission`](Self::encode_admission), or a
    /// fresh one when another admission took the guessed id first. On a
    /// journal error the id is not taken.
    fn admit(
        &self,
        st: &mut State,
        frame: Option<(u64, io::Result<Frame>)>,
        record: impl Fn(u64) -> JournalRecord,
    ) -> io::Result<u64> {
        let id = self.next_id.load(Ordering::Relaxed);
        let frame = match frame {
            Some((guess, frame)) if guess == id => Some(frame),
            Some(_) => self.encode(&record(id)),
            None => None,
        };
        self.append(st, frame)?;
        self.next_id.store(id + 1, Ordering::Relaxed);
        Ok(id)
    }

    /// Materialize and fully estimate the base scenario of session `id`.
    /// No journaling here — callers journal the open first (write-ahead),
    /// and resume calls this directly for already-journaled opens.
    fn build_session(
        &self,
        id: u64,
        req: &OpenSessionRequest,
    ) -> Result<(ScenarioSession, SessionUpdate), M3Error> {
        let (topo, flows, config) = req.scenario.materialize(req.seed)?;
        let mut tctx = TraceCtx::new(self.config.trace.clone(), session_trace_id(id));
        tctx.probe_stride_ns = self.config.trace_stride_ns;
        let options = EstimateOptions {
            metrics: Some(self.registry.clone()),
            trace: tctx,
            ..EstimateOptions::default()
        };
        let est = self.active_estimator();
        ScenarioSession::open(
            &est,
            topo,
            flows,
            config,
            req.paths,
            req.seed,
            self.cache.clone(),
            options,
        )
    }

    /// Apply one delta to an open session, timing the update and bumping
    /// the session metrics. The journal record must already be appended
    /// (write-ahead); a failed apply leaves the session unchanged, which
    /// is exactly what replaying the record reproduces.
    fn apply_to_session(
        &self,
        entry: &mut ServeSession,
        delta: &ScenarioDelta,
    ) -> Result<SessionUpdate, M3Error> {
        let est = self.active_estimator();
        let t0 = Instant::now();
        let update = entry.session.apply_delta(&est, delta)?;
        self.metrics
            .session_update_latency
            .observe(t0.elapsed().as_secs_f64());
        self.metrics.session_updates.inc();
        Ok(update)
    }
}

/// Handle to a running service. Dropping it without
/// [`shutdown`](Service::shutdown) abandons the workers (they exit once
/// the queue drains and the shutdown flag is set by `Drop`).
pub struct Service {
    inner: Arc<Inner>,
    supervisor: Option<thread::JoinHandle<()>>,
}

impl Service {
    /// Start a service with no journal (jobs do not survive a crash).
    pub fn start(estimator: M3Estimator, config: ServiceConfig) -> Service {
        Service::build(estimator, config, None, Vec::new(), None)
    }

    /// Start a service journaling to `path` (created fresh, truncating any
    /// existing file).
    pub fn start_journaled(
        estimator: M3Estimator,
        config: ServiceConfig,
        path: impl AsRef<Path>,
    ) -> io::Result<Service> {
        let journal = Some(Journal::create(path)?);
        Ok(Service::build(estimator, config, journal, Vec::new(), None))
    }

    /// Resume from an existing journal: jobs that were accepted but never
    /// settled are re-enqueued (in acceptance order) and processed to
    /// terminal states; already-settled outcomes are available from
    /// [`outcome`](Self::outcome) immediately.
    ///
    /// If the journal's last committed swap activated registry version
    /// `v`, the service restarts with `v` loaded (integrity-verified) from
    /// `registry`, so kill-and-resume lands on the active version, not the
    /// default; without a registry such a journal is `InvalidData` rather
    /// than silently served by the wrong model. A dangling swap intent
    /// (crash between intent and commit) is *not* activated; the pre-swap
    /// model stays active, per the journal replay.
    pub fn resume(
        default_estimator: M3Estimator,
        config: ServiceConfig,
        path: impl AsRef<Path>,
        registry: Option<&ModelRegistry>,
    ) -> io::Result<(Service, Replay)> {
        let (journal, replay) = Journal::open(path)?;
        let mut decision_models = DecisionModels {
            registry: registry.cloned(),
            ..DecisionModels::default()
        };
        let (estimator, version) = match (replay.active_model, registry) {
            (Some((ver, fp)), Some(reg)) => {
                let (entry, net) = reg.load(ModelRef::Version(ver))?;
                if entry.fingerprint != fp {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "journal active model v{ver} fingerprint {fp:#018x} does not \
                             match registry fingerprint {:#018x}",
                            entry.fingerprint
                        ),
                    ));
                }
                let mut est = M3Estimator::new(net);
                est.use_context = default_estimator.use_context;
                let default_fp = default_estimator.net.fingerprint();
                decision_models
                    .by_fingerprint
                    .insert(default_fp, Arc::new(default_estimator));
                (est, Some(ver))
            }
            (Some((ver, _)), None) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("journal records active model v{ver} but no registry was supplied"),
                ));
            }
            (None, _) => (default_estimator, None),
        };
        let pending: Vec<Job> = replay
            .pending()
            .into_iter()
            .map(|(id, request)| Job {
                id,
                request,
                accepted_at: Instant::now(),
                attempt: 0,
            })
            .collect();
        let svc = Service::build(estimator, config, Some(journal), pending, version);
        let (active, active_fp) = svc.inner.pin_model();
        decision_models.by_fingerprint.insert(active_fp, active);
        *svc.inner
            .decision_models
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = decision_models;
        {
            let mut st = svc.inner.lock();
            svc.inner.next_id.store(replay.next_id(), Ordering::Relaxed);
            st.journal_corruption = replay.corruption.clone();
            st.journal_orphan_terminals = replay.orphan_terminals;
            // `build` already counted the re-enqueued pending jobs.
            let settled = replay.settled() as u64;
            st.accepted = replay.accepted.len() as u64;
            svc.inner.metrics.accepted.add(settled);
            for (id, outcome) in &replay.terminal {
                bump_terminal_counter(&svc.inner.metrics, outcome);
                st.outcomes.insert(*id, Settled::Outcome(outcome.clone()));
            }
            for (id, decision) in &replay.decisions {
                // `Journal::open` keeps only decisions of accepted jobs.
                let Some(request) = replay.accepted.get(id).cloned() else {
                    continue;
                };
                svc.inner.metrics.completed.inc();
                let decision = *decision;
                st.outcomes
                    .insert(*id, Settled::Decided { request, decision });
            }
        }
        // Re-adopt live sessions: re-open each from its journaled request
        // and replay its deltas in seq order. The pipeline is
        // deterministic, so this lands on bit-identical session state. A
        // delta that failed in the original run fails identically here and
        // (by the rollback-on-error contract) leaves the session unchanged
        // — so per-delta errors are ignored, not fatal. An open that fails
        // (e.g. the spec needs a model the registry no longer has) is
        // skipped the same way.
        for (id, s) in replay.live_sessions() {
            let Ok((session, _)) = svc.inner.build_session(id, &s.request) else {
                continue;
            };
            let mut entry = ServeSession {
                session,
                seq: s.deltas.last().map(|(seq, _)| seq + 1).unwrap_or(0),
            };
            for (_, delta) in &s.deltas {
                let _ = svc.inner.apply_to_session(&mut entry, delta);
            }
            let mut sessions = svc.inner.lock_sessions();
            sessions.insert(id, entry);
            svc.inner.metrics.sessions_opened.inc();
            svc.inner.metrics.sessions_open.set(sessions.len() as f64);
        }
        svc.inner.cond.notify_all();
        Ok((svc, replay))
    }

    fn build(
        estimator: M3Estimator,
        config: ServiceConfig,
        journal: Option<Journal>,
        preloaded: Vec<Job>,
        model_version: Option<u64>,
    ) -> Service {
        let accepted_preload = preloaded.len() as u64;
        let registry = MetricsRegistry::new();
        let metrics = ServeMetrics::register(&registry);
        metrics.accepted.add(accepted_preload);
        metrics.queue_depth.set(accepted_preload as f64);
        metrics.model_version.set(model_version.unwrap_or(0) as f64);
        let fingerprint = estimator.net.fingerprint();
        let inner = Arc::new(Inner {
            next_id: AtomicU64::new(0),
            journaled: journal.is_some(),
            worker_threads: worker_threads(config.workers),
            prepared: SpecMemo::new(),
            state: Mutex::new(State {
                queue: preloaded.into(),
                recent: VecDeque::new(),
                in_flight: HashMap::new(),
                outcomes: BTreeMap::new(),
                accepted: accepted_preload,
                flowsim_breaker: CircuitBreaker::default(),
                forward_breaker: CircuitBreaker::default(),
                journal: journal.map(|j| j.with_faults(config.journal_faults.clone())),
                shutdown: false,
                journal_corruption: None,
                journal_orphan_terminals: 0,
            }),
            cond: Condvar::new(),
            model: Mutex::new(ActiveModel {
                estimator: Arc::new(estimator),
                version: model_version,
                fingerprint,
            }),
            decision_models: Mutex::new(DecisionModels::default()),
            cache: SharedScenarioCache::new(config.cache_capacity),
            config,
            registry,
            metrics,
            started: Instant::now(),
            beat: AtomicU64::new(0),
            last_beat_ms: AtomicU64::new(0),
            stall_supervisor: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
        });
        let supervisor = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("m3-serve-supervisor".into())
                .spawn(move || supervise(inner))
                .unwrap_or_else(|e| panic!("failed to spawn m3-serve supervisor: {e}"))
        };
        Service {
            inner,
            supervisor: Some(supervisor),
        }
    }

    /// Submit a request. On success the job is journaled and queued and
    /// its id is returned; on `QueueFull` it was shed.
    pub fn submit(&self, request: EstimateRequest) -> Result<u64, SubmitError> {
        let traced = self.inner.config.trace.is_enabled();
        let accepted = |id| JournalRecord::Accepted {
            id,
            request: Box::new(request.clone()),
            trace: traced.then(|| trace_id_for(id)),
        };
        let frame = self.inner.encode_admission(accepted);
        let mut st = self.inner.lock();
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if st.queue.len() >= self.inner.config.queue_capacity {
            self.inner.metrics.shed_at_submit.inc();
            return Err(SubmitError::QueueFull {
                capacity: self.inner.config.queue_capacity,
            });
        }
        let id = self
            .inner
            .admit(&mut st, frame, accepted)
            .map_err(SubmitError::Journal)?;
        st.accepted += 1;
        self.inner.metrics.accepted.inc();
        st.recent.push_back(request.clone());
        if st.recent.len() > RECENT_WINDOW_CAP {
            st.recent.pop_front();
        }
        st.queue.push_back(Job {
            id,
            request,
            accepted_at: Instant::now(),
            attempt: 0,
        });
        self.inner.metrics.queue_depth.set(st.queue.len() as f64);
        drop(st);
        self.inner.cond.notify_all();
        Ok(id)
    }

    /// The terminal outcome of job `id`, if it has settled. A job resumed
    /// from a decision record is recomputed on the first call (outside the
    /// state lock) on the model with the recorded fingerprint and checked
    /// against the recorded digest. A mismatch or a missing model yields
    /// `Failed` with [`M3Error::NotReproduced`]; a recomputed estimate's
    /// `timings` describe the recompute run.
    pub fn outcome(&self, id: u64) -> Option<JobOutcome> {
        let (request, decision) = match self.inner.lock().outcomes.get(&id)? {
            Settled::Outcome(outcome) => return Some(outcome.clone()),
            Settled::Decided { request, decision } => (request.clone(), *decision),
        };
        let model = self.inner.model_for(decision.fingerprint);
        let outcome = decision.recompute(&request, model.as_deref(), Some(&self.inner.cache));
        let mut st = self.inner.lock();
        if let Some(Settled::Outcome(first)) = st.outcomes.get(&id) {
            // Another caller recomputed it first.
            return Some(first.clone());
        }
        match outcome {
            JobOutcome::Completed { .. } => self.inner.metrics.recomputed.inc(),
            _ => self.inner.metrics.recompute_failures.inc(),
        }
        st.outcomes.insert(id, Settled::Outcome(outcome.clone()));
        Some(outcome)
    }

    /// Open a long-lived incremental session: journal the open
    /// (write-ahead, fsync'd), run the full initial estimate on the caller
    /// thread, and keep the session's scenario and per-path results live
    /// for subsequent [`apply_delta`](Self::apply_delta) calls. Returns
    /// the session id (from the same allocator as job ids) and the initial
    /// update. Session results are pinned in the shared scenario cache
    /// until the session closes.
    pub fn open_session(
        &self,
        request: OpenSessionRequest,
    ) -> Result<(u64, SessionUpdate), SessionError> {
        let open = |id| JournalRecord::SessionOpen {
            id,
            request: Box::new(request.clone()),
        };
        let frame = self.inner.encode_admission(open);
        let id = {
            let mut st = self.inner.lock();
            if st.shutdown {
                return Err(SessionError::ShuttingDown);
            }
            self.inner
                .admit(&mut st, frame, open)
                .map_err(SessionError::Journal)?
        };
        let (session, update) = self.inner.build_session(id, &request)?;
        let mut sessions = self.inner.lock_sessions();
        sessions.insert(id, ServeSession { session, seq: 0 });
        self.inner.metrics.sessions_opened.inc();
        self.inner.metrics.sessions_open.set(sessions.len() as f64);
        drop(sessions);
        Ok((id, update))
    }

    /// Apply one delta to session `id`: validate it against the current
    /// scenario (invalid deltas are rejected with a typed error and NOT
    /// journaled), journal it (write-ahead, fsync'd), then re-estimate
    /// only the paths the delta touches. On an estimate error the session
    /// is unchanged. Applies across sessions serialize on one lock; each
    /// update runs under the session's `session.update` trace span and is
    /// observed on `serve.session_update_seconds`.
    pub fn apply_delta(
        &self,
        id: u64,
        delta: &ScenarioDelta,
    ) -> Result<SessionUpdate, SessionError> {
        let mut sessions = self.inner.lock_sessions();
        let entry = sessions
            .get_mut(&id)
            .ok_or(SessionError::UnknownSession { id })?;
        entry.session.validate_delta(delta)?;
        let frame = self.inner.encode(&JournalRecord::SessionDelta {
            id,
            seq: entry.seq,
            delta: *delta,
        });
        // Lock order: `sessions` (held) then `state` — matches every other
        // session path.
        self.inner
            .append(&mut self.inner.lock(), frame)
            .map_err(SessionError::Journal)?;
        entry.seq += 1;
        Ok(self.inner.apply_to_session(entry, delta)?)
    }

    /// Close session `id`, journaling the close and releasing its cache
    /// pins. Closed sessions are not re-adopted on resume.
    pub fn close_session(&self, id: u64) -> Result<(), SessionError> {
        let mut sessions = self.inner.lock_sessions();
        let entry = sessions
            .remove(&id)
            .ok_or(SessionError::UnknownSession { id })?;
        let frame = self.inner.encode(&JournalRecord::SessionClose { id });
        if let Err(e) = self.inner.append(&mut self.inner.lock(), frame) {
            // Put the session back: the caller can retry the close, and
            // resume would re-adopt it anyway.
            sessions.insert(id, entry);
            return Err(SessionError::Journal(e));
        }
        self.inner.metrics.sessions_closed.inc();
        self.inner.metrics.sessions_open.set(sessions.len() as f64);
        drop(sessions);
        drop(entry); // dropping the core session releases its cache pins
        Ok(())
    }

    /// The current estimate of open session `id`.
    pub fn session_estimate(&self, id: u64) -> Option<NetworkEstimate> {
        self.inner
            .lock_sessions()
            .get(&id)
            .map(|s| s.session.estimate().clone())
    }

    /// Ids of the currently open sessions, ascending.
    pub fn open_sessions(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.inner.lock_sessions().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Block until every accepted job has settled, or `timeout` elapses.
    /// Returns true if idle was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.lock();
        loop {
            let idle = st.queue.is_empty()
                && st.in_flight.is_empty()
                && st.outcomes.len() as u64 >= st.accepted;
            if idle {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .inner
                .cond
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    /// Health/stats snapshot, built from the live metrics registry plus
    /// the lock-protected queue/breaker state.
    pub fn stats(&self) -> ServiceStats {
        let (model_fingerprint, model_version) = {
            let slot = self.inner.lock_model();
            (slot.fingerprint, slot.version)
        };
        let st = self.inner.lock();
        let m = &self.inner.metrics;
        ServiceStats {
            accepted: st.accepted,
            completed: m.completed.get(),
            degraded: m.degraded.get(),
            failed: m.failed.get(),
            shed: m.shed.get(),
            shed_at_submit: m.shed_at_submit.get(),
            queue_depth: st.queue.len(),
            in_flight: st.in_flight.len(),
            retries: m.retries.get(),
            worker_panics: m.worker_panics.get(),
            workers_respawned: m.workers_respawned.get(),
            flowsim_breaker: st.flowsim_breaker.state(),
            forward_breaker: st.forward_breaker.state(),
            breaker_trips: st.flowsim_breaker.trips() + st.forward_breaker.trips(),
            cache: self.inner.cache.stats(),
            workers: self.inner.config.workers,
            supervisor_stale_ms: self.inner.supervisor_stale_ms(),
            liveness_timeout_ms: LIVENESS_TIMEOUT.as_millis() as u64,
            journal_corruption: st.journal_corruption.clone(),
            model_fingerprint,
            model_version,
            model_swaps: m.model_swaps.get(),
            sessions_open: m.sessions_open.get() as usize,
            sessions_opened: m.sessions_opened.get(),
            session_updates: m.session_updates.get(),
            recomputed: m.recomputed.get(),
            recompute_failures: m.recompute_failures.get(),
            journal_orphan_terminals: st.journal_orphan_terminals,
        }
    }

    /// Pin the estimator serving new admissions right now. In-flight jobs
    /// keep whatever estimator they pinned at pickup.
    pub fn active_estimator(&self) -> Arc<M3Estimator> {
        self.inner.active_estimator()
    }

    /// `(fingerprint, registry version)` of the active model.
    pub fn active_model(&self) -> (u64, Option<u64>) {
        let slot = self.inner.lock_model();
        (slot.fingerprint, slot.version)
    }

    /// Up to `n` of the most recently accepted requests, oldest first —
    /// the shadow-evaluation window a swap coordinator replays candidates
    /// against.
    pub fn recent_requests(&self, n: usize) -> Vec<EstimateRequest> {
        let st = self.inner.lock();
        let skip = st.recent.len().saturating_sub(n);
        st.recent.iter().skip(skip).cloned().collect()
    }

    /// Journal that a swap passed its gates and is about to install
    /// (write-ahead intent; see [`JournalRecord::SwapIntent`]). A no-op
    /// for unjournaled services.
    pub fn journal_swap_intent(&self, version: u64, fingerprint: u64) -> io::Result<()> {
        let mut st = self.inner.lock();
        if let Some(j) = st.journal.as_mut() {
            j.append(&JournalRecord::SwapIntent {
                version,
                fingerprint,
            })?;
        }
        Ok(())
    }

    /// Install `net` as the active model, journaling the committed swap
    /// first (so a crash immediately after the append still resumes onto
    /// this version). New admissions pin the new fingerprint; jobs already
    /// on a worker finish on the estimator they started with, and the
    /// scenario cache cannot serve stale hits because its key includes the
    /// model fingerprint. Returns the installed model's fingerprint.
    pub fn install_model(&self, net: M3Net, version: Option<u64>) -> io::Result<u64> {
        let fingerprint = net.fingerprint();
        let mut est = M3Estimator::new(net);
        est.use_context = self.inner.active_estimator().use_context;
        {
            let mut st = self.inner.lock();
            if let (Some(j), Some(v)) = (st.journal.as_mut(), version) {
                j.append(&JournalRecord::ModelSwap {
                    version: v,
                    fingerprint,
                })?;
            }
        }
        {
            let mut slot = self.inner.lock_model();
            slot.estimator = Arc::new(est);
            slot.version = version;
            slot.fingerprint = fingerprint;
        }
        self.inner.metrics.model_swaps.inc();
        self.inner
            .metrics
            .model_version
            .set(version.unwrap_or(0) as f64);
        Ok(fingerprint)
    }

    /// Supervisor liveness tick counter. Monotonically increasing while
    /// the supervisor loop is running; a failure detector that sees the
    /// same value across several polls should suspect the node. The
    /// counter starts at 0 and first advances within a few milliseconds of
    /// startup.
    pub fn heartbeat(&self) -> u64 {
        self.inner.beat.load(Ordering::Relaxed)
    }

    /// Milliseconds since the supervisor's last liveness tick.
    pub fn supervisor_stale_ms(&self) -> u64 {
        self.inner.supervisor_stale_ms()
    }

    /// Freeze (or thaw) the supervisor loop: while stalled it stops
    /// ticking its heartbeat and reaping workers, exactly like a wedged
    /// supervisor thread. Workers keep processing. Used by liveness tests
    /// and by the cluster's `ShardStall` fault injection; hidden because
    /// it exists to *create* the failure mode, not to manage a service.
    #[doc(hidden)]
    pub fn stall_supervisor(&self, stalled: bool) {
        self.inner
            .stall_supervisor
            .store(stalled, Ordering::Relaxed);
    }

    /// The service's live telemetry registry. The same registry backs
    /// [`stats`](Self::stats) and accumulates the pipeline metrics of every
    /// processed job (`pipeline.*` / `flowsim.*` prefixes).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Point-in-time snapshot of every service and pipeline metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.registry.snapshot()
    }

    /// Drain the queue, stop all workers, and join them. Jobs still queued
    /// are processed first; new submissions are rejected.
    pub fn shutdown(mut self) {
        self.begin_shutdown(false);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }

    /// Abandon ungracefully: stop pulling new jobs NOW, leaving queued jobs
    /// unsettled in the journal — they stay replayable via
    /// [`resume`](Self::resume). In-flight jobs still settle (a thread
    /// cannot be killed mid-estimate from safe code); this approximates a
    /// crash at job granularity, while torn-record crashes are covered by
    /// the journal's own recovery tests.
    pub fn abort(mut self) {
        self.begin_shutdown(true);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }

    fn begin_shutdown(&self, drop_queue: bool) {
        let mut st = self.inner.lock();
        st.shutdown = true;
        if drop_queue {
            st.queue.clear();
        }
        drop(st);
        self.inner.cond.notify_all();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.begin_shutdown(false);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

fn bump_terminal_counter(m: &ServeMetrics, outcome: &JobOutcome) {
    match outcome {
        JobOutcome::Completed { .. } => m.completed.inc(),
        JobOutcome::Degraded { .. } => m.degraded.inc(),
        JobOutcome::Failed { .. } => m.failed.inc(),
        JobOutcome::Shed { .. } => m.shed.inc(),
    }
}

/// Write a JSON snapshot of the service registry to `config.metrics_out`,
/// if configured. Best-effort: a failed write is not worth failing jobs
/// over.
fn dump_metrics(inner: &Inner) {
    if let Some(path) = &inner.config.metrics_out {
        let _ = write_atomic(path, inner.registry.snapshot().to_json().as_bytes());
    }
}

/// Supervisor loop: keep `config.workers` workers alive until shutdown,
/// reaping panicked ones and recovering their jobs.
fn supervise(inner: Arc<Inner>) {
    let n = inner.config.workers;
    let mut handles: Vec<(usize, thread::JoinHandle<()>)> = (0..n)
        .map(|token| (token, spawn_worker(&inner, token)))
        .collect();
    let mut last_dump = Instant::now();

    loop {
        // Injected wedge: stop ticking (and reaping) but keep the thread,
        // exactly like a supervisor stuck on a slow syscall. Shutdown
        // thaws it so teardown never hangs on an injected fault.
        if inner.stall_supervisor.load(Ordering::Relaxed) {
            let wedged = !inner.lock().shutdown;
            if wedged {
                thread::sleep(Duration::from_millis(2));
                continue;
            }
        }
        inner.note_beat();
        // Sample cache eviction pressure: evictions that happened plus
        // evictions a session pin blocked. A climbing value while
        // sessions are open means the cache capacity is below the pinned
        // working set.
        {
            let cs = inner.cache.stats();
            inner
                .metrics
                .cache_eviction_pressure
                .set((cs.evictions + cs.pin_overflows) as f64);
        }
        // Surface trace-ring overflow in snapshots, not just the export.
        inner
            .metrics
            .trace_dropped
            .set(inner.config.trace.dropped() as f64);
        if inner.config.metrics_out.is_some() && last_dump.elapsed() >= METRICS_DUMP_EVERY {
            dump_metrics(&inner);
            last_dump = Instant::now();
        }
        // Reap finished workers.
        let mut i = 0;
        while i < handles.len() {
            if handles[i].1.is_finished() {
                let (token, h) = handles.swap_remove(i);
                let panicked = h.join().is_err();
                let mut st = inner.lock();
                if panicked {
                    inner.metrics.worker_panics.inc();
                    // Recover the job the dead worker was holding: back to
                    // the front of the queue with its attempt count bumped,
                    // so attempt-bounded fault plans make progress.
                    if let Some(mut job) = st.in_flight.remove(&token) {
                        job.attempt += 1;
                        st.queue.push_front(job);
                    }
                    inner.metrics.queue_depth.set(st.queue.len() as f64);
                    inner.metrics.in_flight.set(st.in_flight.len() as f64);
                }
                let respawn = !st.shutdown || !st.queue.is_empty();
                if panicked && respawn {
                    inner.metrics.workers_respawned.inc();
                }
                drop(st);
                if panicked {
                    inner.cond.notify_all();
                    if respawn {
                        handles.push((token, spawn_worker(&inner, token)));
                    }
                }
            } else {
                i += 1;
            }
        }

        let st = inner.lock();
        let done = st.shutdown && st.queue.is_empty() && st.in_flight.is_empty();
        drop(st);
        if done && handles.iter().all(|(_, h)| h.is_finished()) {
            for (_, h) in handles {
                let _ = h.join();
            }
            dump_metrics(&inner);
            return;
        }
        if n == 0 {
            // No workers to supervise: just wait for shutdown.
            let st = inner.lock();
            if st.shutdown {
                drop(st);
                dump_metrics(&inner);
                return;
            }
            drop(st);
        }
        thread::sleep(Duration::from_millis(2));
    }
}

fn spawn_worker(inner: &Arc<Inner>, token: usize) -> thread::JoinHandle<()> {
    let inner = Arc::clone(inner);
    thread::Builder::new()
        .name(format!("m3-serve-worker-{token}"))
        .spawn(move || {
            let threads = inner.worker_threads;
            rayon::with_num_threads(threads, || worker_loop(inner, token))
        })
        .unwrap_or_else(|e| {
            // Thread spawn failing at startup is unrecoverable for the
            // pool; surface it loudly rather than running with fewer
            // workers than configured.
            panic!("failed to spawn m3-serve worker {token}: {e}")
        })
}

fn worker_loop(inner: Arc<Inner>, token: usize) {
    loop {
        let job = {
            let mut st = inner.lock();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.in_flight.insert(token, job.clone());
                    inner.metrics.queue_depth.set(st.queue.len() as f64);
                    inner.metrics.in_flight.set(st.in_flight.len() as f64);
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = inner.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let (estimator, fingerprint) = inner.pin_model();
        let outcome = process(&inner, &job, &estimator);
        settle(&inner, token, &job, outcome, fingerprint);
    }
}

/// Record a terminal outcome reached on the model with `fingerprint`:
/// journal it (a decision when it completed), count it, observe its
/// latency, publish it, release the in-flight slot, and wake any
/// `wait_idle` callers.
fn settle(inner: &Arc<Inner>, token: usize, job: &Job, outcome: JobOutcome, fingerprint: u64) {
    let frame = inner
        .journaled
        .then(|| Frame::encode(&JournalRecord::settled(job.id, &outcome, fingerprint)));
    let mut st = inner.lock();
    // A failed terminal append leaves the job pending in the journal; on
    // restart it will be replayed (idempotent by determinism), so losing
    // the record is safe, just wasteful.
    let _ = inner.append(&mut st, frame);
    bump_terminal_counter(&inner.metrics, &outcome);
    inner
        .metrics
        .request_latency
        .observe(job.accepted_at.elapsed().as_secs_f64());
    st.outcomes.insert(job.id, Settled::Outcome(outcome));
    st.in_flight.remove(&token);
    inner.metrics.in_flight.set(st.in_flight.len() as f64);
    drop(st);
    inner.cond.notify_all();
}

/// Milliseconds since `start`, saturating.
fn elapsed_ms(start: Instant) -> u64 {
    start.elapsed().as_millis().min(u64::MAX as u128) as u64
}

/// Run one job to a terminal outcome on `estimator`, pinned for the whole
/// job so a hot swap mid-job cannot change the model between retries
/// (never panics except via an injected `WorkerPanic`, which is the
/// supervisor's test hook).
fn process(inner: &Arc<Inner>, job: &Job, estimator: &M3Estimator) -> JobOutcome {
    let req = &job.request;

    // Per-job trace context: every attempt of this job (and its journal
    // entry) shares one trace id. The serve-level span records job-scope
    // events (shed / breaker routing / retries); the pipeline opens its
    // own stage tree from the same context.
    let mut tctx = TraceCtx::new(inner.config.trace.clone(), trace_id_for(job.id));
    tctx.probe_stride_ns = inner.config.trace_stride_ns;
    let jspan = tctx.root("serve.job");

    // Deadline gate at pickup: a job that waited out its whole deadline in
    // the queue is shed without burning worker time on it.
    if let Some(deadline) = req.deadline_ms {
        let waited = elapsed_ms(job.accepted_at);
        if waited >= deadline {
            jspan.instant(
                "shed",
                format!("deadline {deadline} ms expired in queue ({waited} ms)"),
            );
            return JobOutcome::Shed {
                reason: format!("deadline {deadline} ms expired in queue ({waited} ms)"),
            };
        }
    }

    // Prepare once per job, not per attempt, and once per request while
    // it stays in the memo: spec errors are persistent by construction,
    // so they fail fast (and are not memoized).
    // A memo miss records its prepare half into the service's registry
    // and the job's trace, as every attempt's estimate does.
    let key = SpecKey::new(req, estimator.use_context);
    let recorded = EstimateOptions {
        path_slice: req.path_slice,
        metrics: Some(inner.registry.clone()),
        trace: tctx.clone(),
        ..EstimateOptions::default()
    };
    let prepared = inner.prepared.get_or_try(key, || {
        let (topo, flows, config) = req.scenario.materialize(req.seed)?;
        estimator.prepare(topo, flows, config, req.paths, req.seed, &recorded)
    });
    let prepared = match prepared {
        Ok((prepared, hit)) => {
            jspan.instant("prepared", if hit { "memo hit" } else { "memo miss" });
            prepared
        }
        Err(error) => {
            return JobOutcome::Failed {
                error,
                attempts: job.attempt + 1,
            }
        }
    };

    let retry = inner.config.retry;
    let mut attempt = job.attempt;
    loop {
        // Synthetic remote-shard latency (see `ServiceConfig::simulated_io`).
        if !inner.config.simulated_io.is_zero() {
            thread::sleep(inner.config.simulated_io);
        }
        // Injected worker crash: panic *outside* the pipeline's own panic
        // isolation so the supervisor path is genuinely exercised. The
        // attempt stamp lets `with_first_attempts` plans converge.
        if let Some(plan) = &req.fault_plan {
            if plan
                .at_attempt(attempt)
                .hits(InjectedFault::WorkerPanic, job.id as usize)
            {
                panic!("injected worker panic (job {}, attempt {attempt})", job.id);
            }
        }

        // Deadline gate between attempts.
        if let Some(deadline) = req.deadline_ms {
            let elapsed = elapsed_ms(job.accepted_at);
            if elapsed >= deadline {
                return JobOutcome::Failed {
                    error: M3Error::DeadlineExceeded {
                        deadline_ms: deadline,
                        elapsed_ms: elapsed,
                    },
                    attempts: attempt + 1,
                };
            }
        }

        // Consult the breakers. A denied acquire routes this job down the
        // degraded path; `try_acquire` on an open breaker also counts one
        // cooldown observation.
        let (fs_ok, fw_ok) = {
            let mut st = inner.lock();
            let fs = st.flowsim_breaker.try_acquire();
            let fw = st.forward_breaker.try_acquire();
            if fs != fw {
                // Only one stage granted: release that probe/claim so the
                // other stage's outage doesn't wedge it.
                if fs {
                    st.flowsim_breaker.cancel_probe();
                }
                if fw {
                    st.forward_breaker.cancel_probe();
                }
            }
            (fs, fw)
        };
        if !(fs_ok && fw_ok) {
            jspan.instant(
                "degraded",
                format!(
                    "breaker open (flowsim granted: {fs_ok}, forward granted: {fw_ok}): \
                     serving flowSim-only path"
                ),
            );
            return JobOutcome::Degraded {
                estimate: prepared.flowsim_estimate(),
                attempts: attempt + 1,
                via_breaker: true,
            };
        }

        // Layer the remaining deadline onto the flowSim stage budget so a
        // slow attempt cannot blow through the request deadline.
        let mut budget = StageBudget::default();
        if let Some(deadline) = req.deadline_ms {
            let left = deadline.saturating_sub(elapsed_ms(job.accepted_at)).max(1);
            budget.flowsim = FluidBudget::default().with_wall(Duration::from_millis(left));
        }
        let options = EstimateOptions {
            policy: req.policy.unwrap_or_default(),
            budget,
            fault_plan: req.fault_plan.as_ref().map(|p| p.at_attempt(attempt)),
            ..recorded.clone()
        };

        let result = estimator.try_estimate_prepared(&prepared, Some(&inner.cache), &options);

        match result {
            Ok(estimate) => {
                {
                    let mut st = inner.lock();
                    st.flowsim_breaker.on_success();
                    st.forward_breaker.on_success();
                }
                return finish_success(estimate, attempt + 1);
            }
            Err(e) => {
                record_failure_for_breakers(inner, &e);
                let next = attempt + 1;
                if e.is_transient() && next < retry.max_attempts.max(1) {
                    inner.metrics.retries.inc();
                    jspan.instant(
                        "retry",
                        format!("attempt {next} after transient fault: {e}"),
                    );
                    thread::sleep(Duration::from_millis(retry.delay_ms(job.id, attempt)));
                    attempt = next;
                    continue;
                }
                return JobOutcome::Failed {
                    error: e,
                    attempts: next,
                };
            }
        }
    }
}

/// A successful estimate is `Completed` when clean, `Degraded` when the
/// per-sample policy absorbed faults along the way.
fn finish_success(estimate: NetworkEstimate, attempts: u32) -> JobOutcome {
    if estimate.degradation.is_clean() {
        JobOutcome::Completed { estimate, attempts }
    } else {
        JobOutcome::Degraded {
            estimate,
            attempts,
            via_breaker: false,
        }
    }
}

/// Attribute a pipeline failure to the breaker guarding the faulting
/// stage; the other stage's claim is released without prejudice.
fn record_failure_for_breakers(inner: &Arc<Inner>, e: &M3Error) {
    let mut st = inner.lock();
    let trips_before = st.flowsim_breaker.trips() + st.forward_breaker.trips();
    match e {
        M3Error::StageFault { stage, .. } => match stage {
            Stage::FlowSim => {
                st.flowsim_breaker.on_failure();
                st.forward_breaker.cancel_probe();
            }
            Stage::Forward | Stage::Features => {
                // flowSim demonstrably worked if the forward stage failed.
                st.flowsim_breaker.on_success();
                st.forward_breaker.on_failure();
            }
            _ => {
                st.flowsim_breaker.cancel_probe();
                st.forward_breaker.cancel_probe();
            }
        },
        // Degradation-limit and no-usable-samples failures are dominated
        // by flowSim-stage sample loss in this pipeline.
        M3Error::DegradationLimitExceeded { .. } | M3Error::NoUsableSamples { .. } => {
            st.flowsim_breaker.on_failure();
            st.forward_breaker.cancel_probe();
        }
        _ => {
            st.flowsim_breaker.cancel_probe();
            st.forward_breaker.cancel_probe();
        }
    }
    let tripped = st.flowsim_breaker.trips() + st.forward_breaker.trips() - trips_before;
    inner.metrics.breaker_trips.add(tripped);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ConfigSpec, ScenarioSpec, TopoSpec, WorkloadSpec};
    use m3_core::prelude::SPEC_DIM;
    use m3_nn::prelude::{M3Net, ModelConfig};

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

    fn tiny_request(seed: u64) -> EstimateRequest {
        EstimateRequest::new(
            ScenarioSpec {
                topology: TopoSpec::FatTreeSmall { oversub: 2 },
                workload: WorkloadSpec {
                    n_flows: 50,
                    matrix: "B".into(),
                    sizes: "WebServer".into(),
                    sigma: 1.0,
                    max_load: 0.3,
                },
                config: ConfigSpec::default(),
            },
            2,
            seed,
        )
    }

    /// Satellite regression: a wedged supervisor (and a pending queue with
    /// nobody to drain it) must read as unhealthy, not idle. Before the
    /// liveness timestamp existed, `healthy()` only looked at the breakers
    /// and reported this exact state as healthy.
    #[test]
    fn wedged_supervisor_and_stalled_queue_report_unhealthy() {
        let config = ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        };
        let svc = Service::start(tiny_estimator(), config);

        // Wait for the first supervisor tick, then confirm baseline health.
        let t0 = Instant::now();
        while svc.heartbeat() == 0 && t0.elapsed() < Duration::from_secs(5) {
            thread::sleep(Duration::from_millis(2));
        }
        assert!(svc.heartbeat() > 0, "supervisor never ticked");
        assert!(svc.stats().healthy(), "fresh idle service must be healthy");

        // A queued job with zero workers is a stalled queue, not idleness.
        svc.submit(tiny_request(1)).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.queue_depth, 1);
        assert_eq!(stats.workers, 0);
        assert!(
            !stats.healthy(),
            "pending work with no workers must be unhealthy"
        );

        // Wedge the supervisor: the heartbeat freezes and staleness grows
        // past the liveness timeout.
        svc.stall_supervisor(true);
        let frozen = svc.heartbeat();
        thread::sleep(LIVENESS_TIMEOUT + Duration::from_millis(100));
        let stats = svc.stats();
        assert_eq!(svc.heartbeat(), frozen, "stalled supervisor still ticked");
        assert!(
            stats.supervisor_stale_ms > stats.liveness_timeout_ms,
            "staleness {} must exceed timeout {}",
            stats.supervisor_stale_ms,
            stats.liveness_timeout_ms
        );
        assert!(!stats.healthy());

        // Thawing restores liveness (the queue is still stalled, though).
        svc.stall_supervisor(false);
        let t1 = Instant::now();
        while svc.heartbeat() == frozen && t1.elapsed() < Duration::from_secs(5) {
            thread::sleep(Duration::from_millis(2));
        }
        assert!(svc.heartbeat() > frozen, "supervisor never thawed");
        svc.shutdown();
    }

    /// What `process` memoizes for `req`.
    fn prepare(est: &M3Estimator, req: &EstimateRequest) -> Result<PreparedEstimate, M3Error> {
        let (topo, flows, config) = req.scenario.materialize(req.seed)?;
        let options = EstimateOptions {
            path_slice: req.path_slice,
            ..EstimateOptions::default()
        };
        est.prepare(topo, flows, config, req.paths, req.seed, &options)
    }

    #[test]
    fn an_equal_request_is_prepared_once_and_answers_as_a_direct_estimate() {
        let est = tiny_estimator();
        let memo = SpecMemo::new();
        let made = std::cell::Cell::new(0);
        let get = |req: &EstimateRequest| {
            memo.get_or_try(SpecKey::new(req, est.use_context), || {
                made.set(made.get() + 1);
                prepare(&est, req)
            })
            .unwrap()
        };
        let (first, hit) = get(&tiny_request(7));
        assert!(!hit);
        let (again, hit) = get(&tiny_request(7));
        assert!(hit && Arc::ptr_eq(&first, &again));
        assert_eq!(made.get(), 1);
        // Another seed, path count or slice is another entry.
        let mut more_paths = tiny_request(7);
        more_paths.paths += 1;
        let mut sliced = tiny_request(7);
        sliced.path_slice = Some(PathSlice { start: 0, end: 1 });
        for other in [tiny_request(8), more_paths, sliced] {
            let (value, hit) = get(&other);
            assert!(!hit && !Arc::ptr_eq(&first, &value), "{other:?}");
        }
        assert_eq!(made.get(), 4);
        // So is the same request under a model without context.
        let no_context = SpecKey::new(&tiny_request(7), false);
        assert_ne!(no_context, SpecKey::new(&tiny_request(7), true));

        // The memoized value answers as a direct estimate of the request.
        let req = tiny_request(7);
        let (topo, flows, config) = req.scenario.materialize(req.seed).unwrap();
        let opts = EstimateOptions::default();
        let direct = est
            .try_estimate(&topo, &flows, &config, req.paths, req.seed, &opts)
            .unwrap();
        let cache = SharedScenarioCache::new(16);
        for _cold_then_warm in 0..2 {
            let served = est
                .try_estimate_prepared(&again, Some(&cache), &opts)
                .unwrap();
            assert_eq!(served.digest(), direct.digest());
        }
    }

    #[test]
    fn the_memo_keys_floats_by_their_bits() {
        let memo: SpecMemo<u32> = SpecMemo::new();
        let made = std::cell::Cell::new(0);
        let get = |req: &EstimateRequest| {
            *memo
                .get_or_try(SpecKey::new(req, true), || {
                    made.set(made.get() + 1);
                    Ok::<_, M3Error>(made.get())
                })
                .unwrap()
                .0
        };
        let with = |sigma: f64, max_load: f64| {
            let mut req = tiny_request(7);
            req.scenario.workload.sigma = sigma;
            req.scenario.workload.max_load = max_load;
            req
        };
        // -0.0 == 0.0 under PartialEq, but they are different keys.
        let zero = get(&with(1.0, 0.0));
        let neg_zero = get(&with(1.0, -0.0));
        assert_ne!(zero, neg_zero);
        assert_eq!(get(&with(1.0, -0.0)), neg_zero);
        // A NaN shares no entry with a number or with another NaN payload,
        // and (unlike under PartialEq) hits its own entry.
        let nan = get(&with(f64::NAN, 0.3));
        assert_ne!(get(&with(1.0, 0.3)), nan);
        let other_nan = f64::from_bits(f64::NAN.to_bits() ^ 1);
        assert!(other_nan.is_nan());
        assert_ne!(get(&with(other_nan, 0.3)), nan);
        assert_eq!(made.get(), 5);
        assert_eq!(get(&with(f64::NAN, 0.3)), nan);
        assert_eq!(made.get(), 5);
    }

    #[test]
    fn a_failed_preparation_is_not_memoized() {
        let est = tiny_estimator();
        let memo = SpecMemo::new();
        // One spec that does not materialize, one whose estimate does not
        // validate.
        let mut no_matrix = tiny_request(7);
        no_matrix.scenario.workload.matrix = "no such matrix".into();
        let mut no_paths = tiny_request(7);
        no_paths.paths = 0;
        for req in [no_matrix, no_paths] {
            let made = std::cell::Cell::new(0);
            let get = || {
                memo.get_or_try(SpecKey::new(&req, true), || {
                    made.set(made.get() + 1);
                    prepare(&est, &req)
                })
                .err()
                .expect("an invalid request must not prepare")
            };
            let first = get();
            assert!(matches!(first, M3Error::InvalidSpec { .. }), "{first:?}");
            assert_eq!(get(), first);
            assert_eq!(made.get(), 2, "a failure was memoized");
            assert!(memo.lock().is_empty());
        }
    }

    #[test]
    fn the_memo_holds_at_most_its_cap_and_evicts_the_least_recently_used() {
        let memo: SpecMemo<u64> = SpecMemo::new();
        let get = |seed: u64| {
            *memo
                .get_or_try(SpecKey::new(&tiny_request(seed), true), || {
                    Ok::<_, M3Error>(seed)
                })
                .unwrap()
                .0
        };
        for seed in 0..3 * PREPARED_MEMO_CAP as u64 {
            get(seed);
            // Seed 0 is used between every fresh seed: it stays in.
            get(0);
            assert!(memo.lock().len() <= PREPARED_MEMO_CAP);
        }
        let kept: Vec<u64> = memo.lock().iter().map(|(k, _)| k.seed).collect();
        let last = 3 * PREPARED_MEMO_CAP as u64 - 1;
        let mut want: Vec<u64> = (last + 2 - PREPARED_MEMO_CAP as u64..=last).collect();
        want.push(0);
        assert_eq!(kept, want);
    }

    fn tmp_journal(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("m3-serve-{name}-{}.jrn", std::process::id()))
    }

    /// A journal in which jobs 0 and 1 completed, one after the other, left
    /// by a killed service; and job 0's estimate.
    fn journal_of_two_completed_jobs(path: &Path) -> NetworkEstimate {
        let config = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let svc = Service::start_journaled(tiny_estimator(), config, path).unwrap();
        for seed in 1..3 {
            svc.submit(tiny_request(seed)).unwrap();
            assert!(svc.wait_idle(Duration::from_secs(60)));
        }
        let Some(JobOutcome::Completed { estimate, .. }) = svc.outcome(0) else {
            panic!("job 0 did not complete");
        };
        svc.abort();
        estimate
    }

    fn no_workers() -> ServiceConfig {
        ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn a_resumed_decision_is_recomputed_once_to_its_estimate() {
        let path = tmp_journal("recompute");
        let before = journal_of_two_completed_jobs(&path);
        let records = crate::journal::read_records(&path).unwrap();
        assert!(
            matches!(
                records[1],
                JournalRecord::Decision {
                    id: 0,
                    attempts: 1,
                    ..
                }
            ),
            "{:?}",
            records[1]
        );
        let (svc, replay) = Service::resume(tiny_estimator(), no_workers(), &path, None).unwrap();
        assert_eq!((replay.decisions.len(), replay.settled()), (2, 2));
        assert_eq!(svc.stats().completed, 2);
        for _ in 0..2 {
            let Some(JobOutcome::Completed { estimate, attempts }) = svc.outcome(0) else {
                panic!("job 0 did not recompute");
            };
            same_estimate(&estimate, &before);
            assert_eq!(attempts, 1);
        }
        let stats = svc.stats();
        assert_eq!((stats.recomputed, stats.recompute_failures), (1, 0));
        svc.shutdown();
        std::fs::remove_file(&path).ok();
    }

    /// Resume `path` after rewriting every decision's digest with
    /// `digest(old)`, on `estimator`; job 0's outcome and the stats after.
    fn resume_rewritten(
        path: &Path,
        digest: impl Fn(u64) -> u64,
        estimator: M3Estimator,
    ) -> (JobOutcome, ServiceStats) {
        let records = crate::journal::read_records(path).unwrap();
        let mut journal = Journal::create(path).unwrap();
        for mut record in records {
            if let JournalRecord::Decision { digest: d, .. } = &mut record {
                *d = digest(*d);
            }
            journal.append(&record).unwrap();
        }
        drop(journal);
        let (svc, _) = Service::resume(estimator, no_workers(), path, None).unwrap();
        let outcome = svc.outcome(0).unwrap();
        let stats = svc.stats();
        svc.shutdown();
        (outcome, stats)
    }

    #[test]
    fn a_flipped_digest_or_a_missing_model_resumes_as_a_typed_failure() {
        let path = tmp_journal("flipped");
        journal_of_two_completed_jobs(&path);
        let (outcome, stats) = resume_rewritten(&path, |d| d ^ 1, tiny_estimator());
        match outcome {
            JobOutcome::Failed {
                error: M3Error::NotReproduced { reason, .. },
                attempts: 1,
            } => assert!(reason.contains("recomputed digest"), "{reason}"),
            other => panic!("expected a typed failure, got {other:?}"),
        }
        assert_eq!((stats.recomputed, stats.recompute_failures), (0, 1));

        // Flipped back, but resumed on another model.
        let other = M3Estimator::new(M3Net::new(tiny_estimator().net.cfg.clone(), 4));
        let (outcome, stats) = resume_rewritten(&path, |d| d ^ 1, other);
        match outcome {
            JobOutcome::Failed {
                error: M3Error::NotReproduced { reason, .. },
                ..
            } => assert!(reason.contains("not available"), "{reason}"),
            other => panic!("expected a typed failure, got {other:?}"),
        }
        assert_eq!(stats.recompute_failures, 1);
        std::fs::remove_file(&path).ok();
    }

    /// An orphan is a terminal whose `Accepted` record was quarantined.
    /// Resume used to hand its id to the next submission, which then read
    /// the orphan's outcome at once.
    #[test]
    fn a_quarantined_acceptance_does_not_hand_its_id_to_the_next_job() {
        let path = tmp_journal("orphan");
        journal_of_two_completed_jobs(&path);
        // Records: Accepted 0, Decision 0, Accepted 1, Decision 1. Flip a
        // payload bit of the last Accepted frame.
        let mut bytes = std::fs::read(&path).unwrap();
        let mut at = 12;
        for _ in 0..2 {
            at += 12 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        }
        bytes[at + 12 + 5] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let (svc, replay) = Service::resume(tiny_estimator(), no_workers(), &path, None).unwrap();
        assert_eq!(replay.orphan_terminals, 1);
        assert_eq!(svc.stats().journal_orphan_terminals, 1);
        assert!(svc.outcome(1).is_none());
        let id = svc.submit(tiny_request(9)).unwrap();
        assert_eq!(id, 2);
        assert!(svc.outcome(id).is_none(), "a fresh job read an old outcome");
        svc.shutdown();
        std::fs::remove_file(&path).ok();
        let mut sidecar = path.into_os_string();
        sidecar.push(".corrupt");
        std::fs::remove_file(sidecar).ok();
    }

    fn tiny_session_request(seed: u64) -> OpenSessionRequest {
        OpenSessionRequest::new(tiny_request(seed).scenario, 3, seed)
    }

    fn same_estimate(a: &NetworkEstimate, b: &NetworkEstimate) {
        crate::cluster::tests::assert_estimates_bit_identical(a, b);
    }

    #[test]
    fn session_lifecycle_applies_deltas_and_rejects_bad_ones_typed() {
        let svc = Service::start(
            tiny_estimator(),
            ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
        );
        let (id, opened) = svc.open_session(tiny_session_request(5)).unwrap();
        assert!(opened.structural);
        assert!(opened.total_paths > 0);
        assert_eq!(svc.open_sessions(), vec![id]);

        let delta = ScenarioDelta::LinkCapacity {
            link: 0,
            bandwidth: 5_000_000_000,
        };
        let update = svc.apply_delta(id, &delta).unwrap();
        assert!(!update.structural, "capacity change must be surgical");
        let settled = svc.session_estimate(id).unwrap();
        same_estimate(&settled, &update.estimate);

        // Determinism across sessions: a second session over the same
        // scenario, after the same delta, lands on bit-identical results.
        let (id2, _) = svc.open_session(tiny_session_request(5)).unwrap();
        let update2 = svc.apply_delta(id2, &delta).unwrap();
        same_estimate(&update.estimate, &update2.estimate);

        // Invalid deltas are typed rejections that leave the session
        // untouched.
        let bad = ScenarioDelta::LinkCapacity {
            link: 0,
            bandwidth: 0,
        };
        match svc.apply_delta(id, &bad) {
            Err(SessionError::Estimate(M3Error::InvalidSpec { .. })) => {}
            other => panic!("expected typed rejection, got {other:?}"),
        }
        same_estimate(&svc.session_estimate(id).unwrap(), &settled);
        assert!(matches!(
            svc.apply_delta(999, &delta),
            Err(SessionError::UnknownSession { id: 999 })
        ));

        let stats = svc.stats();
        assert_eq!(stats.sessions_open, 2);
        assert_eq!(stats.sessions_opened, 2);
        assert_eq!(stats.session_updates, 2);

        svc.close_session(id).unwrap();
        assert!(matches!(
            svc.close_session(id),
            Err(SessionError::UnknownSession { .. })
        ));
        svc.close_session(id2).unwrap();
        assert_eq!(svc.stats().sessions_open, 0);
        svc.shutdown();
    }

    #[test]
    fn killed_service_resumes_sessions_to_identical_state() {
        let path = {
            let mut p = std::env::temp_dir();
            p.push(format!(
                "m3-serve-session-resume-{}.jrn",
                std::process::id()
            ));
            p
        };
        let config = ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        };
        let svc = Service::start_journaled(tiny_estimator(), config.clone(), &path).unwrap();
        let (sid, _) = svc.open_session(tiny_session_request(7)).unwrap();
        svc.apply_delta(
            sid,
            &ScenarioDelta::LinkCapacity {
                link: 0,
                bandwidth: 5_000_000_000,
            },
        )
        .unwrap();
        svc.apply_delta(sid, &ScenarioDelta::LinkDown { link: 1 })
            .unwrap();
        let before = svc.session_estimate(sid).unwrap();
        svc.abort(); // crash at op granularity: journal survives, memory dies

        let (svc2, replay) =
            Service::resume(tiny_estimator(), config.clone(), &path, None).unwrap();
        assert_eq!(replay.sessions.len(), 1);
        assert_eq!(svc2.open_sessions(), vec![sid]);
        let after = svc2.session_estimate(sid).unwrap();
        same_estimate(&before, &after);

        // The resumed session keeps working (LinkUp restores the base
        // link) and a journaled close sticks across another resume.
        svc2.apply_delta(sid, &ScenarioDelta::LinkUp { link: 1 })
            .unwrap();
        svc2.close_session(sid).unwrap();
        svc2.abort();
        let (svc3, replay) = Service::resume(tiny_estimator(), config, &path, None).unwrap();
        assert!(replay.sessions[&sid].closed);
        assert!(svc3.open_sessions().is_empty());
        svc3.shutdown();
        std::fs::remove_file(&path).ok();
    }
}
