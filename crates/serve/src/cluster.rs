//! Fault-tolerant sharded estimation cluster.
//!
//! A coordinator in front of N independent [`Service`] shards, each with
//! its own journal, scenario cache, per-stage breakers, and metrics
//! registry. The coordinator extends the single-node contract — **every
//! accepted job reaches exactly one terminal state** — across shard
//! failures:
//!
//! 1. **Routing** — requests are placed by rendezvous hashing on their
//!    content key ([`crate::routing`]): deterministic, and a shard death
//!    moves only the dead shard's keys. Dispatch walks the rendezvous
//!    rank order, skipping shards whose *per-shard circuit breaker* (a
//!    coordinator-level breaker layered above each shard's per-stage
//!    ones) is open.
//! 2. **Scatter/gather** — a request with at least
//!    [`ClusterConfig::scatter_threshold`] paths is split into
//!    [`PathSlice`] children that route independently; the parent's
//!    estimate is the deterministic merge ([`merge_estimates`]) of the
//!    children's, bit-identical to an unsharded run because path
//!    aggregation is order-independent.
//! 3. **Failure detection** — a monitor thread polls each shard's
//!    supervisor heartbeat. A frozen heartbeat walks the shard through
//!    typed states: `Alive` → [`ShardHealth::Suspect`] after
//!    `suspect_misses` silent polls → [`ShardHealth::Dead`] after
//!    `dead_misses`.
//! 4. **Failover** — a dead shard is drained (in-flight jobs settle; a
//!    thread cannot be killed mid-estimate from safe code), its journal
//!    is replayed, already-settled outcomes are **adopted** —
//!    at-most-once per terminal state: a result the coordinator already
//!    harvested is dropped, counted in `duplicate_terminals_dropped`; a
//!    completed job's decision record is recomputed on the cluster's model
//!    and checked against its digest first — and unsettled jobs are
//!    **rerouted** by rehashing over the
//!    survivors, with bounded retries under the deterministic-jitter
//!    [`RetryPolicy`].
//! 5. **Recovery** — a dead shard is always restarted with a fresh
//!    journal and walks `Dead` → [`ShardHealth::Recovering`] →
//!    [`ShardHealth::Recovered`] (a shard whose restart fails stays
//!    `Dead`); a [`InjectedFault::ShardSlowStart`]
//!    plan keeps a restarted shard out of the routing set for 3 monitor
//!    polls.
//!
//! Shard-level faults ([`InjectedFault::ShardCrash`] /
//! [`InjectedFault::ShardStall`] / [`InjectedFault::ShardSlowStart`])
//! are injected deterministically from the cluster's [`FaultPlan`] after
//! a configured number of dispatches, so kill-a-shard scenarios replay
//! exactly in tests and soak runs.

use crate::backoff::RetryPolicy;
use crate::breaker::{BreakerState, CircuitBreaker};
use crate::journal::{JobOutcome, Journal, Replay};
use crate::monitor::MonitorSource;
use crate::request::{EstimateRequest, OpenSessionRequest};
use crate::routing::{rank, routing_key};
use crate::service::{Service, ServiceConfig, ServiceStats, SessionError, SubmitError};
use crate::swap::SwapTarget;
use m3_core::aggregate::merge_estimates;
use m3_core::prelude::{
    FaultPlan, InjectedFault, M3Estimator, NetworkEstimate, PathSlice, ScenarioDelta, SessionUpdate,
};
use m3_nn::prelude::M3Net;
use m3_telemetry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Cluster tuning knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shard count. Each shard is a full [`Service`] built from
    /// [`shard`](ClusterConfig::shard).
    pub shards: usize,
    /// Template config applied to every shard. Use `workers >= 1`: a
    /// cluster over zero-worker shards never settles anything.
    pub shard: ServiceConfig,
    /// When set, shard `i` journals to `<dir>/shard-<i>.jrn` and failover
    /// adopts settled outcomes from the dead shard's journal instead of
    /// recomputing them. `None` runs journal-less: failover simply
    /// recomputes unharvested jobs (still exactly-once at the
    /// coordinator, which only records the first terminal per job).
    pub journal_dir: Option<PathBuf>,
    /// Monitor poll interval (heartbeat check + outcome harvest + retry
    /// dispatch).
    pub heartbeat_every: Duration,
    /// Consecutive silent polls before a shard is `Suspect`.
    pub suspect_misses: u32,
    /// Consecutive silent polls before a shard is declared `Dead` and
    /// failed over. Must be > `suspect_misses`.
    pub dead_misses: u32,
    /// Retry policy for dispatch/reroute attempts (deterministic full
    /// jitter, same scheme as the in-shard stage retries). A job that
    /// exhausts `max_attempts` dispatches is `Shed`.
    pub reroute_retry: RetryPolicy,
    /// Requests with at least this many paths are scattered into
    /// [`PathSlice`] children. `usize::MAX` (default) disables scatter.
    pub scatter_threshold: usize,
    /// Paths per scatter child.
    pub scatter_chunk: usize,
    /// Deterministic shard-fault plan, evaluated with the shard index as
    /// the slot. `ShardCrash` aborts the shard, `ShardStall` freezes its
    /// supervisor heartbeat (workers keep running), `ShardSlowStart`
    /// delays the restarted shard's readmission to routing.
    pub fault_plan: Option<FaultPlan>,
    /// Total dispatches after which the fault plan fires (once). 0 never
    /// fires.
    pub fault_after_dispatches: u64,
}

/// Monitor polls a restarted shard spends in [`ShardHealth::Recovering`]
/// when its slot is hit by `ShardSlowStart` (otherwise a restarted shard is
/// `Recovered`, and routable, immediately).
const WARMUP_POLLS: u32 = 3;

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            shard: ServiceConfig::default(),
            journal_dir: None,
            heartbeat_every: Duration::from_millis(5),
            suspect_misses: 3,
            dead_misses: 8,
            reroute_retry: RetryPolicy {
                max_attempts: 8,
                base_delay_ms: 2,
                max_delay_ms: 50,
                seed: 0,
            },
            scatter_threshold: usize::MAX,
            scatter_chunk: 8,
            fault_plan: None,
            fault_after_dispatches: 0,
        }
    }
}

impl ClusterConfig {
    /// The scatter rule shared by jobs and sessions: a request of `paths`
    /// paths that is not itself a slice splits into one [`PathSlice`] per
    /// [`scatter_chunk`](ClusterConfig::scatter_chunk) paths once it
    /// reaches [`scatter_threshold`](ClusterConfig::scatter_threshold).
    /// Empty when the request runs whole.
    fn scatter(&self, paths: usize, slice: Option<PathSlice>) -> Vec<PathSlice> {
        if slice.is_some() || paths < self.scatter_threshold {
            return Vec::new();
        }
        let slices = PathSlice::chunks(paths, self.scatter_chunk);
        if slices.len() > 1 {
            slices
        } else {
            Vec::new()
        }
    }
}

/// Why a cluster session operation failed.
#[derive(Debug)]
pub enum ClusterSessionError {
    /// No open cluster session with this id.
    UnknownSession { id: u64 },
    /// No routable shard could take (part of) the session.
    NoRoutableShard,
    /// The owning shard rejected the operation (validation, estimate, or
    /// journal failure — see the wrapped [`SessionError`]).
    Shard(SessionError),
    /// The cluster is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for ClusterSessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterSessionError::UnknownSession { id } => {
                write!(f, "unknown cluster session {id}")
            }
            ClusterSessionError::NoRoutableShard => write!(f, "no routable shard"),
            ClusterSessionError::Shard(e) => write!(f, "shard session error: {e}"),
            ClusterSessionError::ShuttingDown => write!(f, "cluster is shutting down"),
        }
    }
}

impl std::error::Error for ClusterSessionError {}

impl From<SessionError> for ClusterSessionError {
    fn from(e: SessionError) -> Self {
        ClusterSessionError::Shard(e)
    }
}

/// Failure-detector state of one shard, as typed transitions:
/// `Alive → Suspect → Dead → Recovering → Recovered`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardHealth {
    /// Heartbeat advancing; routable.
    Alive,
    /// Heartbeat silent for `misses` polls; still routable (a suspect may
    /// merely be slow — killing it early would churn the keyspace), but
    /// one more poll window away from `Dead`.
    Suspect { misses: u32 },
    /// Declared dead and failed over; not routable.
    Dead,
    /// Restarted after death but still warming (slow-start); not routable
    /// for `polls_left` more monitor polls.
    Recovering { polls_left: u32 },
    /// Restarted and readmitted to the routing set.
    Recovered,
}

impl ShardHealth {
    /// Shards in this state receive new dispatches.
    pub fn routable(self) -> bool {
        matches!(
            self,
            ShardHealth::Alive | ShardHealth::Suspect { .. } | ShardHealth::Recovered
        )
    }
}

/// Point-in-time status of one shard.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardStatus {
    pub index: usize,
    pub health: ShardHealth,
    /// Coordinator-level breaker for this shard.
    pub breaker: BreakerState,
    /// Jobs dispatched to this shard over its lifetime (reset on restart).
    pub dispatched: u64,
    /// Live service stats (`None` while the shard is down).
    pub stats: Option<ServiceStats>,
}

/// Point-in-time cluster snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterStats {
    pub shards: Vec<ShardStatus>,
    /// Jobs accepted by `submit` (scatter children included).
    pub submitted: u64,
    /// Jobs with a terminal outcome.
    pub settled: u64,
    pub rerouted: u64,
    pub shard_deaths: u64,
    pub shard_recoveries: u64,
    /// Terminals re-reported for an already-settled job (journal adoption
    /// racing the harvest) and dropped — the at-most-once guarantee doing
    /// its job, not an error.
    pub duplicate_terminals_dropped: u64,
    /// Dispatches waiting on backoff or on a routable shard.
    pub dispatch_queue_depth: usize,
    /// Fingerprint of the cluster-wide active model (what new admissions
    /// and shard restarts serve).
    #[serde(default)]
    pub model_fingerprint: u64,
    /// Registry version of the active model (`None` = construction-time
    /// model, never swapped through a registry).
    #[serde(default)]
    pub model_version: Option<u64>,
    /// Committed cluster-wide model installs.
    #[serde(default)]
    pub model_swaps: u64,
    /// Incremental sessions currently open at the coordinator.
    #[serde(default)]
    pub sessions_open: usize,
    /// Cluster sessions ever opened.
    #[serde(default)]
    pub sessions_opened: u64,
    /// Deltas applied across all cluster sessions.
    #[serde(default)]
    pub session_updates: u64,
    /// Session parts re-homed to a surviving shard after their shard died
    /// (state re-adopted from the dead shard's journal).
    #[serde(default)]
    pub sessions_failed_over: u64,
    /// Decision records adopted from a dead shard's journal and recomputed
    /// to their digest.
    #[serde(default)]
    pub recomputed: u64,
    /// Adopted decision records that resolved to `Failed` instead (model
    /// unavailable, recompute failed, digest mismatch).
    #[serde(default)]
    pub recompute_failures: u64,
}

impl ClusterStats {
    /// Every accepted job has settled and nothing is waiting to dispatch.
    pub fn drained(&self) -> bool {
        self.settled >= self.submitted && self.dispatch_queue_depth == 0
    }
}

/// Coordinator-level counters, registered under the `cluster.` prefix.
#[derive(Debug, Clone)]
struct ClusterMetrics {
    submitted: Counter,
    dispatched: Counter,
    rerouted: Counter,
    scattered: Counter,
    scatter_children: Counter,
    merges: Counter,
    shard_deaths: Counter,
    shard_recoveries: Counter,
    duplicate_terminals_dropped: Counter,
    completed: Counter,
    degraded: Counter,
    failed: Counter,
    shed: Counter,
    /// `cluster.model_swaps` — committed cluster-wide model installs.
    model_swaps: Counter,
    /// `cluster.model_version` — registry version of the active model
    /// (0 = unversioned).
    model_version: Gauge,
    /// `cluster.sessions_opened` — cluster sessions opened.
    sessions_opened: Counter,
    /// `cluster.session_updates` — deltas applied to cluster sessions.
    session_updates: Counter,
    /// `cluster.sessions_failed_over` — session parts re-homed after a
    /// shard death.
    sessions_failed_over: Counter,
    /// `cluster.recomputed` — adopted decisions recomputed to their digest.
    recomputed: Counter,
    /// `cluster.recompute_failures` — adopted decisions that resolved to
    /// `Failed`.
    recompute_failures: Counter,
}

impl ClusterMetrics {
    fn register(r: &MetricsRegistry) -> Self {
        ClusterMetrics {
            submitted: r.counter("cluster.submitted"),
            dispatched: r.counter("cluster.dispatched"),
            rerouted: r.counter("cluster.rerouted"),
            scattered: r.counter("cluster.scattered"),
            scatter_children: r.counter("cluster.scatter_children"),
            merges: r.counter("cluster.merges"),
            shard_deaths: r.counter("cluster.shard_deaths"),
            shard_recoveries: r.counter("cluster.shard_recoveries"),
            duplicate_terminals_dropped: r.counter("cluster.duplicate_terminals_dropped"),
            completed: r.counter("cluster.completed"),
            degraded: r.counter("cluster.degraded"),
            failed: r.counter("cluster.failed"),
            shed: r.counter("cluster.shed"),
            model_swaps: r.counter("cluster.model_swaps"),
            model_version: r.gauge("cluster.model_version"),
            sessions_opened: r.counter("cluster.sessions_opened"),
            session_updates: r.counter("cluster.session_updates"),
            sessions_failed_over: r.counter("cluster.sessions_failed_over"),
            recomputed: r.counter("cluster.recomputed"),
            recompute_failures: r.counter("cluster.recompute_failures"),
        }
    }
}

/// One shard slot: the service (if up), its detector state, and the
/// coordinator-side bookkeeping for jobs assigned to it.
struct ShardSlot {
    service: Option<Service>,
    /// Clone of the shard service's registry: Arc-backed, so retired
    /// shards' metrics stay readable after the `Service` is gone.
    registry: MetricsRegistry,
    health: ShardHealth,
    breaker: CircuitBreaker,
    last_beat: u64,
    misses: u32,
    journal_path: Option<PathBuf>,
    /// Dispatches to this shard since (re)start.
    dispatched: u64,
    /// shard-local job id → cluster job id, for every dispatched job not
    /// yet harvested.
    assigned: HashMap<u64, u64>,
    /// Slow-start applies when this slot restarts.
    slow_start: bool,
}

/// One cluster-level job.
struct ClusterJob {
    request: EstimateRequest,
    outcome: Option<JobOutcome>,
    /// Dispatch attempts consumed (initial dispatch included).
    attempts: u32,
    /// Set for scatter children.
    parent: Option<u64>,
    /// Set (in slice order) for scatter parents; parents are never
    /// dispatched themselves.
    children: Vec<u64>,
}

/// A dispatch waiting on backoff (initial retry or post-failover reroute).
struct PendingDispatch {
    job_id: u64,
    not_before: Instant,
}

/// One path-slice part of a cluster session, living as a shard-local
/// session on `shard`.
struct SessionPart {
    shard: usize,
    /// Shard-local session id.
    sid: u64,
    /// The part's open request (its `path_slice` is the slice it covers).
    request: OpenSessionRequest,
    /// Every delta attempted on this part, in order (a delta the first
    /// part rejects is dropped again) — what failover and repair replay
    /// onto a new shard.
    deltas: Vec<ScenarioDelta>,
}

/// One cluster-level incremental session: path-slice parts routed
/// independently by rendezvous hash; the session estimate is the
/// deterministic merge of the parts'.
struct ClusterSession {
    parts: Vec<SessionPart>,
}

/// Bound on the cluster's recent-request ring (shadow-eval window source).
const CLUSTER_RECENT_CAP: usize = 64;

/// The cluster-wide active model: what live shards serve and what a
/// restarted shard is built from. Swapped as a unit under its own lock.
struct ClusterModel {
    net: M3Net,
    version: Option<u64>,
    fingerprint: u64,
}

struct ClusterState {
    shards: Vec<ShardSlot>,
    jobs: BTreeMap<u64, ClusterJob>,
    /// Open cluster sessions by cluster session id (shared allocator with
    /// job ids).
    sessions: BTreeMap<u64, ClusterSession>,
    /// Most recently submitted caller-visible requests (newest at the
    /// back) — the swap coordinator's shadow window.
    recent: VecDeque<EstimateRequest>,
    next_id: u64,
    settled: u64,
    dispatch_queue: VecDeque<PendingDispatch>,
    dispatched_total: u64,
    faults_due: bool,
    faults_applied: bool,
    /// Snapshots of dead shard incarnations (the live incarnation's
    /// registry handle lives in the slot).
    retired: Vec<MetricsSnapshot>,
    shutdown: bool,
}

struct ClusterInner {
    state: Mutex<ClusterState>,
    cond: Condvar,
    config: ClusterConfig,
    model: Mutex<ClusterModel>,
    registry: MetricsRegistry,
    metrics: ClusterMetrics,
}

impl ClusterState {
    /// The routable shards (healthy enough and holding a live service),
    /// in rendezvous rank order for `key`.
    fn ranked(&self, key: u64) -> Vec<usize> {
        let routable: Vec<usize> = (self.shards.iter().enumerate())
            .filter(|(_, s)| s.health.routable() && s.service.is_some())
            .map(|(i, _)| i)
            .collect();
        rank(key, &routable)
    }
}

impl ClusterInner {
    /// Lock the state, recovering from a poisoned mutex: cluster state is
    /// kept consistent by construction (each mutation completes before the
    /// lock drops), so a panicked holder leaves usable state.
    fn lock(&self) -> MutexGuard<'_, ClusterState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_model(&self) -> MutexGuard<'_, ClusterModel> {
        self.model.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The sharded estimation cluster.
pub struct Cluster {
    inner: Arc<ClusterInner>,
    monitor: Option<thread::JoinHandle<()>>,
}

impl Cluster {
    /// Start `config.shards` shard services (each with its own estimator
    /// built from a clone of `net`) plus the monitor thread.
    pub fn start(net: M3Net, config: ClusterConfig) -> io::Result<Cluster> {
        assert!(config.shards > 0, "cluster needs at least one shard");
        assert!(
            config.dead_misses > config.suspect_misses,
            "dead_misses must exceed suspect_misses"
        );
        if let Some(dir) = &config.journal_dir {
            fs::create_dir_all(dir)?;
        }
        let registry = MetricsRegistry::new();
        let metrics = ClusterMetrics::register(&registry);
        let mut shards = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            let journal_path = config
                .journal_dir
                .as_ref()
                .map(|d| d.join(format!("shard-{i}.jrn")));
            let service = start_shard(&net, &config.shard, journal_path.as_ref())?;
            let reg = service.metrics().clone();
            shards.push(ShardSlot {
                service: Some(service),
                registry: reg,
                health: ShardHealth::Alive,
                breaker: CircuitBreaker::default(),
                last_beat: 0,
                misses: 0,
                journal_path,
                dispatched: 0,
                assigned: HashMap::new(),
                slow_start: false,
            });
        }
        let fingerprint = net.fingerprint();
        let inner = Arc::new(ClusterInner {
            state: Mutex::new(ClusterState {
                shards,
                jobs: BTreeMap::new(),
                sessions: BTreeMap::new(),
                recent: VecDeque::new(),
                next_id: 0,
                settled: 0,
                dispatch_queue: VecDeque::new(),
                dispatched_total: 0,
                faults_due: false,
                faults_applied: false,
                retired: Vec::new(),
                shutdown: false,
            }),
            cond: Condvar::new(),
            config,
            model: Mutex::new(ClusterModel {
                net,
                version: None,
                fingerprint,
            }),
            registry,
            metrics,
        });
        let monitor = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("m3-cluster-monitor".into())
                .spawn(move || monitor_loop(&inner))
                .map_err(|e| io::Error::other(format!("failed to spawn cluster monitor: {e}")))?
        };
        Ok(Cluster {
            inner,
            monitor: Some(monitor),
        })
    }

    /// Submit a request. Large requests (>= `scatter_threshold` paths)
    /// are scattered into path-slice children; the returned id is always
    /// the caller-visible (parent) job. Accepted jobs are guaranteed a
    /// terminal outcome even across shard deaths.
    pub fn submit(&self, request: EstimateRequest) -> Result<u64, SubmitError> {
        let inner = &self.inner;
        let mut st = inner.lock();
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let id = st.next_id;
        st.next_id += 1;
        inner.metrics.submitted.inc();
        st.recent.push_back(request.clone());
        if st.recent.len() > CLUSTER_RECENT_CAP {
            st.recent.pop_front();
        }
        let slices = inner.config.scatter(request.paths, request.path_slice);
        if !slices.is_empty() {
            inner.metrics.scattered.inc();
            let mut children = Vec::with_capacity(slices.len());
            for sl in slices {
                let cid = st.next_id;
                st.next_id += 1;
                let mut creq = request.clone();
                creq.path_slice = Some(sl);
                st.jobs.insert(
                    cid,
                    ClusterJob {
                        request: creq,
                        outcome: None,
                        attempts: 0,
                        parent: Some(id),
                        children: Vec::new(),
                    },
                );
                children.push(cid);
                inner.metrics.submitted.inc();
                inner.metrics.scatter_children.inc();
            }
            st.jobs.insert(
                id,
                ClusterJob {
                    request,
                    outcome: None,
                    attempts: 0,
                    parent: None,
                    children: children.clone(),
                },
            );
            for cid in children {
                try_dispatch(inner, &mut st, cid);
            }
        } else {
            st.jobs.insert(
                id,
                ClusterJob {
                    request,
                    outcome: None,
                    attempts: 0,
                    parent: None,
                    children: Vec::new(),
                },
            );
            try_dispatch(inner, &mut st, id);
        }
        drop(st);
        inner.cond.notify_all();
        Ok(id)
    }

    /// Terminal outcome of job `id`, if settled.
    pub fn outcome(&self, id: u64) -> Option<JobOutcome> {
        self.inner
            .lock()
            .jobs
            .get(&id)
            .and_then(|j| j.outcome.clone())
    }

    /// Open a cluster-wide incremental session. Sessions with at least
    /// [`ClusterConfig::scatter_threshold`] paths are split into
    /// [`PathSlice`] parts; each part routes independently by rendezvous
    /// hash and lives as a journaled shard-local session, so the parts of
    /// one session spread across shards and survive shard deaths (see
    /// failover). Returns the cluster session id and the merged initial
    /// update.
    pub fn open_session(
        &self,
        request: OpenSessionRequest,
    ) -> Result<(u64, SessionUpdate), ClusterSessionError> {
        let inner = &self.inner;
        let mut st = inner.lock();
        if st.shutdown {
            return Err(ClusterSessionError::ShuttingDown);
        }
        let id = st.next_id;
        st.next_id += 1;
        let slices = inner.config.scatter(request.paths, request.path_slice);
        let part_reqs: Vec<OpenSessionRequest> = if slices.is_empty() {
            vec![request]
        } else {
            (slices.into_iter())
                .map(|sl| OpenSessionRequest {
                    path_slice: Some(sl),
                    ..request.clone()
                })
                .collect()
        };
        let mut parts: Vec<SessionPart> = Vec::with_capacity(part_reqs.len());
        let mut updates: Vec<SessionUpdate> = Vec::with_capacity(part_reqs.len());
        for preq in part_reqs {
            match open_session_part(&mut st, &preq, &[]) {
                Ok((shard, sid, update)) => {
                    parts.push(SessionPart {
                        shard,
                        sid,
                        request: preq,
                        deltas: Vec::new(),
                    });
                    updates.push(update);
                }
                Err(e) => {
                    // Unwind parts already opened so no orphan sessions
                    // hold cache pins on their shards.
                    for p in &parts {
                        if let Some(svc) = st.shards[p.shard].service.as_ref() {
                            let _ = svc.close_session(p.sid);
                        }
                    }
                    return Err(e);
                }
            }
        }
        let update = merge_session_updates(&updates);
        st.sessions.insert(id, ClusterSession { parts });
        inner.metrics.sessions_opened.inc();
        Ok((id, update))
    }

    /// Apply one delta to cluster session `id`: every part applies it
    /// through its shard's journaled session path; the merged update (and
    /// the merged estimate) is bit-identical to an unscattered session
    /// because path aggregation is order-independent. A delta the first
    /// part rejects (validation — identical on every part, they share one
    /// scenario) is rejected with no part changed.
    pub fn apply_delta(
        &self,
        id: u64,
        delta: &ScenarioDelta,
    ) -> Result<SessionUpdate, ClusterSessionError> {
        let inner = &self.inner;
        let mut st = inner.lock();
        if st.shutdown {
            return Err(ClusterSessionError::ShuttingDown);
        }
        let mut session = st
            .sessions
            .remove(&id)
            .ok_or(ClusterSessionError::UnknownSession { id })?;
        let n = session.parts.len();
        let mut updates: Vec<SessionUpdate> = Vec::with_capacity(n);
        let mut first_err: Option<ClusterSessionError> = None;
        for i in 0..n {
            // Record before applying, mirroring the shard's write-ahead
            // journal: the replay source always covers the attempt.
            session.parts[i].deltas.push(*delta);
            let (shard, sid) = (session.parts[i].shard, session.parts[i].sid);
            let applied = match st.shards[shard].service.as_ref() {
                Some(svc) => svc.apply_delta(sid, delta).map_err(Into::into),
                None => Err(ClusterSessionError::NoRoutableShard),
            };
            match applied {
                Ok(u) => updates.push(u),
                Err(e @ ClusterSessionError::Shard(SessionError::Estimate(_))) if i == 0 => {
                    // First part rejected the delta: nothing applied
                    // anywhere. Spec validation is deterministic and the
                    // parts share one scenario, so every part would reject
                    // identically — return the typed error un-applied.
                    session.parts[0].deltas.pop();
                    st.sessions.insert(id, session);
                    return Err(e);
                }
                Err(_) => {
                    // The part is unreachable (shard died, or restarted
                    // without the session) — a repairable infrastructure
                    // failure, not a rejection. Re-home it and replay its
                    // recorded history, which already includes this delta,
                    // so the repaired part lands on the same post-delta
                    // state the live parts reach.
                    let part_req = session.parts[i].request.clone();
                    let part_hist = session.parts[i].deltas.clone();
                    match open_session_part(&mut st, &part_req, &part_hist) {
                        Ok((new_shard, new_sid, update)) => {
                            if let Some(svc) = st.shards[shard].service.as_ref() {
                                let _ = svc.close_session(sid);
                            }
                            session.parts[i].shard = new_shard;
                            session.parts[i].sid = new_sid;
                            inner.metrics.sessions_failed_over.inc();
                            updates.push(update);
                        }
                        Err(e) => {
                            first_err.get_or_insert(e);
                        }
                    }
                }
            }
        }
        st.sessions.insert(id, session);
        if let Some(e) = first_err {
            return Err(e);
        }
        inner.metrics.session_updates.inc();
        Ok(merge_session_updates(&updates))
    }

    /// Close cluster session `id`, closing every part on its shard.
    pub fn close_session(&self, id: u64) -> Result<(), ClusterSessionError> {
        let mut st = self.inner.lock();
        let session = st
            .sessions
            .remove(&id)
            .ok_or(ClusterSessionError::UnknownSession { id })?;
        for part in &session.parts {
            if let Some(svc) = st.shards[part.shard].service.as_ref() {
                let _ = svc.close_session(part.sid);
            }
        }
        Ok(())
    }

    /// The merged current estimate of cluster session `id`.
    pub fn session_estimate(&self, id: u64) -> Option<NetworkEstimate> {
        let st = self.inner.lock();
        let session = st.sessions.get(&id)?;
        let mut parts: Vec<NetworkEstimate> = Vec::with_capacity(session.parts.len());
        for part in &session.parts {
            let est = st.shards[part.shard]
                .service
                .as_ref()
                .and_then(|svc| svc.session_estimate(part.sid))?;
            parts.push(est);
        }
        let refs: Vec<&NetworkEstimate> = parts.iter().collect();
        Some(merge_estimates(&refs))
    }

    /// The shard indices currently hosting the parts of session `id`, in
    /// slice order (observability, and lets tests aim a shard kill).
    pub fn session_shards(&self, id: u64) -> Option<Vec<usize>> {
        let st = self.inner.lock();
        st.sessions
            .get(&id)
            .map(|s| s.parts.iter().map(|p| p.shard).collect())
    }

    /// Kill shard `idx` the way [`InjectedFault::ShardCrash`] does: the
    /// service is detached and aborted, the failure detector walks the
    /// silent slot to `Dead`, and failover re-adopts its journal. Hidden
    /// because it exists to *create* the failure mode in tests and soak
    /// runs, not to manage a cluster.
    #[doc(hidden)]
    pub fn kill_shard(&self, idx: usize) {
        let service = {
            let mut st = self.inner.lock();
            st.shards[idx].service.take()
        };
        if let Some(svc) = service {
            svc.stall_supervisor(false);
            svc.abort();
        }
    }

    /// Block until every accepted job settled and the dispatch queue is
    /// empty, or `timeout`. Returns true if idle was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.lock();
        loop {
            let idle = st.settled >= st.jobs.len() as u64 && st.dispatch_queue.is_empty();
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

    /// Point-in-time cluster snapshot.
    pub fn stats(&self) -> ClusterStats {
        let (model_fingerprint, model_version) = {
            let model = self.inner.lock_model();
            (model.fingerprint, model.version)
        };
        let st = self.inner.lock();
        let m = &self.inner.metrics;
        ClusterStats {
            shards: st
                .shards
                .iter()
                .enumerate()
                .map(|(index, s)| ShardStatus {
                    index,
                    health: s.health,
                    breaker: s.breaker.state(),
                    dispatched: s.dispatched,
                    stats: s.service.as_ref().map(Service::stats),
                })
                .collect(),
            submitted: m.submitted.get(),
            settled: st.settled,
            rerouted: m.rerouted.get(),
            shard_deaths: m.shard_deaths.get(),
            shard_recoveries: m.shard_recoveries.get(),
            duplicate_terminals_dropped: m.duplicate_terminals_dropped.get(),
            dispatch_queue_depth: st.dispatch_queue.len(),
            model_fingerprint,
            model_version,
            model_swaps: m.model_swaps.get(),
            sessions_open: st.sessions.len(),
            sessions_opened: m.sessions_opened.get(),
            session_updates: m.session_updates.get(),
            sessions_failed_over: m.sessions_failed_over.get(),
            recomputed: m.recomputed.get(),
            recompute_failures: m.recompute_failures.get(),
        }
    }

    /// `(fingerprint, registry version)` of the cluster-wide active model.
    pub fn active_model(&self) -> (u64, Option<u64>) {
        let model = self.inner.lock_model();
        (model.fingerprint, model.version)
    }

    /// Up to `n` recently submitted caller-visible requests, oldest first.
    pub fn recent_requests(&self, n: usize) -> Vec<EstimateRequest> {
        let st = self.inner.lock();
        let skip = st.recent.len().saturating_sub(n);
        st.recent.iter().skip(skip).cloned().collect()
    }

    /// Write-ahead swap intent, fanned out to every live shard's journal.
    pub fn journal_swap_intent(&self, version: u64, fingerprint: u64) -> io::Result<()> {
        let st = self.inner.lock();
        for slot in &st.shards {
            if let Some(svc) = slot.service.as_ref() {
                svc.journal_swap_intent(version, fingerprint)?;
            }
        }
        Ok(())
    }

    /// Install `net` as the cluster-wide active model: the stored template
    /// (what restarted shards are built from) is updated first, then each
    /// live shard installs it through its own journaled swap path. Dead
    /// or recovering shards pick the new model up at restart. Returns the
    /// installed fingerprint.
    pub fn install_model(&self, net: M3Net, version: Option<u64>) -> io::Result<u64> {
        let fingerprint = net.fingerprint();
        {
            let mut model = self.inner.lock_model();
            model.net = net.clone();
            model.version = version;
            model.fingerprint = fingerprint;
        }
        let st = self.inner.lock();
        for slot in &st.shards {
            if let Some(svc) = slot.service.as_ref() {
                svc.install_model(net.clone(), version)?;
            }
        }
        drop(st);
        self.inner.metrics.model_swaps.inc();
        self.inner
            .metrics
            .model_version
            .set(version.unwrap_or(0) as f64);
        Ok(fingerprint)
    }

    /// The coordinator's own live registry (`cluster.*` metrics). Shard
    /// registries are reachable via [`MonitorSource::shard_snapshots`] or,
    /// merged, via [`Cluster::merged_metrics`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Deterministic merge of the cluster's own registry with every
    /// shard's (live, restarted, and retired), in shard-index order.
    /// [`MetricsSnapshot::merge`] is associative and commutative over
    /// counters, so the result is independent of harvest timing for any
    /// fault-free run.
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let st = self.inner.lock();
        let mut merged = self.inner.registry.snapshot();
        for slot in &st.shards {
            merged.merge(&slot.registry.snapshot());
        }
        for snap in &st.retired {
            merged.merge(snap);
        }
        merged
    }

    /// Drain and stop: waits for every accepted job to settle (rerouting
    /// and retrying as needed), then shuts every shard down gracefully.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
    }

    fn begin_shutdown(&self) {
        let mut st = self.inner.lock();
        st.shutdown = true;
        drop(st);
        self.inner.cond.notify_all();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
    }
}

impl SwapTarget for Cluster {
    /// A fresh estimator over the cluster-wide active model, for shadow
    /// evaluation off the serving path.
    fn baseline_estimator(&self) -> Arc<M3Estimator> {
        Arc::new(M3Estimator::new(self.inner.lock_model().net.clone()))
    }
    fn active_model(&self) -> (u64, Option<u64>) {
        Cluster::active_model(self)
    }
    fn recent_requests(&self, n: usize) -> Vec<EstimateRequest> {
        Cluster::recent_requests(self, n)
    }
    fn journal_swap_intent(&self, version: u64, fingerprint: u64) -> io::Result<()> {
        Cluster::journal_swap_intent(self, version, fingerprint)
    }
    fn install(&self, net: M3Net, version: Option<u64>) -> io::Result<u64> {
        self.install_model(net, version)
    }
    /// `(settled, bad)` terminal counts across the cluster.
    fn health_counts(&self) -> (u64, u64) {
        let m = &self.inner.metrics;
        let bad = m.degraded.get() + m.failed.get();
        let settled = m.completed.get() + m.shed.get() + bad;
        (settled, bad)
    }
}

impl MonitorSource for Cluster {
    /// `("shard-<i>", snapshot)` in shard-index order. Slots whose shard is
    /// currently dead still report (the registry handle is Arc-backed and
    /// outlives the service), so a monitor keeps seeing the last-known
    /// counters across a crash window.
    fn shard_snapshots(&self) -> Vec<(String, MetricsSnapshot)> {
        let st = self.inner.lock();
        (st.shards.iter().enumerate())
            .map(|(i, slot)| (format!("shard-{i}"), slot.registry.snapshot()))
            .collect()
    }
    fn rollup_snapshot(&self) -> MetricsSnapshot {
        self.merged_metrics()
    }
    fn registry(&self) -> &MetricsRegistry {
        Cluster::metrics(self)
    }
    fn recent_requests(&self, n: usize) -> Vec<EstimateRequest> {
        Cluster::recent_requests(self, n)
    }
    fn drift_estimator(&self) -> Arc<M3Estimator> {
        self.baseline_estimator()
    }
}

/// Open one session part on the best routable shard: walk the rendezvous
/// rank order for the part's routing key; the first shard that accepts the
/// open hosts the part. `replay_deltas` (the coordinator's record of the
/// part, on failover or repair) are re-applied in order, ignoring
/// per-delta errors — a delta that failed originally fails identically
/// (deterministic pipeline, rollback-on-error), so replay converges to the
/// same state. Returns `(shard, shard-local session id, latest update)`.
fn open_session_part(
    st: &mut ClusterState,
    request: &OpenSessionRequest,
    replay_deltas: &[ScenarioDelta],
) -> Result<(usize, u64, SessionUpdate), ClusterSessionError> {
    for idx in st.ranked(routing_key(request)) {
        let Some(svc) = st.shards[idx].service.as_ref() else {
            continue;
        };
        match svc.open_session(request.clone()) {
            Ok((sid, mut update)) => {
                for d in replay_deltas {
                    if let Ok(u) = svc.apply_delta(sid, d) {
                        update = u;
                    }
                }
                return Ok((idx, sid, update));
            }
            // A spec/estimate rejection is deterministic — every shard
            // would reject identically, so fail now instead of walking
            // the whole ring.
            Err(e @ SessionError::Estimate(_)) => return Err(ClusterSessionError::Shard(e)),
            Err(_) => continue,
        }
    }
    Err(ClusterSessionError::NoRoutableShard)
}

/// Merge the per-part updates of one fanned-out session operation: the
/// estimate merges deterministically ([`merge_estimates`]); path counts
/// add; the merged op is structural if any part's was.
fn merge_session_updates(updates: &[SessionUpdate]) -> SessionUpdate {
    let parts: Vec<&NetworkEstimate> = updates.iter().map(|u| &u.estimate).collect();
    SessionUpdate {
        estimate: merge_estimates(&parts),
        total_paths: updates.iter().map(|u| u.total_paths).sum(),
        dirty_paths: updates.iter().map(|u| u.dirty_paths).sum(),
        reused_paths: updates.iter().map(|u| u.reused_paths).sum(),
        structural: updates.iter().any(|u| u.structural),
    }
}

fn start_shard(
    net: &M3Net,
    template: &ServiceConfig,
    journal_path: Option<&PathBuf>,
) -> io::Result<Service> {
    let estimator = M3Estimator::new(net.clone());
    match journal_path {
        Some(p) => Service::start_journaled(estimator, template.clone(), p),
        None => Ok(Service::start(estimator, template.clone())),
    }
}

/// Dispatch one job: walk the rendezvous rank order over routable shards,
/// skipping open per-shard breakers; on total failure, requeue with
/// deterministic-jitter backoff or shed after `max_attempts`.
fn try_dispatch(inner: &ClusterInner, st: &mut ClusterState, job_id: u64) -> bool {
    let request = match st.jobs.get(&job_id) {
        Some(j) if j.outcome.is_none() => j.request.clone(),
        _ => return false, // already settled (e.g. adopted from a journal)
    };
    if let Some(j) = st.jobs.get_mut(&job_id) {
        j.attempts += 1;
    }
    for idx in st.ranked(routing_key(&request)) {
        let slot = &mut st.shards[idx];
        if !slot.breaker.try_acquire() {
            continue;
        }
        let Some(svc) = slot.service.as_ref() else {
            slot.breaker.cancel_probe();
            continue;
        };
        match svc.submit(request.clone()) {
            Ok(sid) => {
                slot.breaker.on_success();
                slot.assigned.insert(sid, job_id);
                slot.dispatched += 1;
                inner.metrics.dispatched.inc();
                st.dispatched_total += 1;
                let cfg = &inner.config;
                if cfg.fault_plan.is_some()
                    && cfg.fault_after_dispatches > 0
                    && st.dispatched_total == cfg.fault_after_dispatches
                {
                    st.faults_due = true;
                }
                return true;
            }
            Err(_) => {
                slot.breaker.on_failure();
            }
        }
    }
    // No shard took the job.
    let attempts = st.jobs.get(&job_id).map(|j| j.attempts).unwrap_or(0);
    if attempts >= inner.config.reroute_retry.max_attempts {
        settle(
            inner,
            st,
            job_id,
            JobOutcome::Shed {
                reason: format!(
                    "dispatch retries exhausted after {attempts} attempts: no routable shard"
                ),
            },
        );
    } else {
        let delay = inner
            .config
            .reroute_retry
            .delay_ms(job_id, attempts.saturating_sub(1));
        st.dispatch_queue.push_back(PendingDispatch {
            job_id,
            not_before: Instant::now() + Duration::from_millis(delay),
        });
    }
    false
}

/// Record a terminal outcome for a cluster job — at most once: a second
/// terminal for the same job (journal adoption racing an already-harvested
/// result) is dropped and counted.
fn settle(inner: &ClusterInner, st: &mut ClusterState, job_id: u64, outcome: JobOutcome) {
    let parent = {
        let Some(job) = st.jobs.get_mut(&job_id) else {
            return;
        };
        if job.outcome.is_some() {
            inner.metrics.duplicate_terminals_dropped.inc();
            return;
        }
        match &outcome {
            JobOutcome::Completed { .. } => inner.metrics.completed.inc(),
            JobOutcome::Degraded { .. } => inner.metrics.degraded.inc(),
            JobOutcome::Failed { .. } => inner.metrics.failed.inc(),
            JobOutcome::Shed { .. } => inner.metrics.shed.inc(),
        }
        job.outcome = Some(outcome);
        job.parent
    };
    st.settled += 1;
    if let Some(pid) = parent {
        try_finalize_parent(inner, st, pid);
    }
    inner.cond.notify_all();
}

/// If every child of scatter parent `pid` has settled, merge them into the
/// parent's terminal outcome.
fn try_finalize_parent(inner: &ClusterInner, st: &mut ClusterState, pid: u64) {
    let outcomes: Vec<JobOutcome> = {
        let Some(parent) = st.jobs.get(&pid) else {
            return;
        };
        if parent.outcome.is_some() {
            return;
        }
        let mut collected = Vec::with_capacity(parent.children.len());
        for cid in &parent.children {
            match st.jobs.get(cid).and_then(|c| c.outcome.clone()) {
                Some(o) => collected.push(o),
                None => return, // a child is still in flight
            }
        }
        collected
    };
    inner.metrics.merges.inc();
    let merged = merge_outcomes(&outcomes);
    settle(inner, st, pid, merged);
}

/// Merge scatter-child outcomes (in slice order) into one terminal. Any
/// failed or shed child fails the parent with that child's outcome; clean
/// children merge estimate-wise via [`merge_estimates`].
fn merge_outcomes(children: &[JobOutcome]) -> JobOutcome {
    let mut parts: Vec<&NetworkEstimate> = Vec::with_capacity(children.len());
    let mut attempts_max = 0;
    let mut any_degraded = false;
    let mut via_breaker_any = false;
    for o in children {
        match o {
            JobOutcome::Completed { estimate, attempts } => {
                parts.push(estimate);
                attempts_max = attempts_max.max(*attempts);
            }
            JobOutcome::Degraded {
                estimate,
                attempts,
                via_breaker,
            } => {
                parts.push(estimate);
                attempts_max = attempts_max.max(*attempts);
                any_degraded = true;
                via_breaker_any |= *via_breaker;
            }
            JobOutcome::Failed { .. } | JobOutcome::Shed { .. } => return o.clone(),
        }
    }
    let estimate = merge_estimates(&parts);
    if any_degraded {
        JobOutcome::Degraded {
            estimate,
            attempts: attempts_max,
            via_breaker: via_breaker_any,
        }
    } else {
        JobOutcome::Completed {
            estimate,
            attempts: attempts_max,
        }
    }
}

// ---------------------------------------------------------------------------
// Monitor thread: heartbeat detection, fault injection, failover, harvest.
// ---------------------------------------------------------------------------

fn monitor_loop(inner: &Arc<ClusterInner>) {
    loop {
        // Sleep one poll interval (shutdown wakes us early).
        {
            let st = inner.lock();
            if !st.shutdown {
                let _ = inner
                    .cond
                    .wait_timeout(st, inner.config.heartbeat_every)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        apply_due_faults(inner);
        let dead = poll_heartbeats(inner);
        for idx in dead {
            failover(inner, idx);
        }
        harvest(inner);
        dispatch_due(inner);
        let st = inner.lock();
        if st.shutdown {
            let drained = st.settled >= st.jobs.len() as u64 && st.dispatch_queue.is_empty();
            if drained {
                drop(st);
                break;
            }
        }
    }
    // Graceful shard shutdown: drain queues, join workers, close journals.
    let services: Vec<Service> = {
        let mut st = inner.lock();
        st.shards
            .iter_mut()
            .filter_map(|s| s.service.take())
            .collect()
    };
    for svc in services {
        svc.stall_supervisor(false);
        svc.shutdown();
    }
}

/// Fire the configured shard faults once the dispatch threshold passed.
fn apply_due_faults(inner: &ClusterInner) {
    let crash_victims: Vec<(usize, Service)> = {
        let mut st = inner.lock();
        if !st.faults_due || st.faults_applied {
            return;
        }
        st.faults_applied = true;
        let Some(plan) = inner.config.fault_plan.clone() else {
            return;
        };
        let mut victims = Vec::new();
        for (idx, slot) in st.shards.iter_mut().enumerate() {
            if plan.hits(InjectedFault::ShardCrash, idx) {
                if let Some(svc) = slot.service.take() {
                    victims.push((idx, svc));
                }
            } else if plan.hits(InjectedFault::ShardStall, idx) {
                if let Some(svc) = slot.service.as_ref() {
                    svc.stall_supervisor(true);
                }
            }
            if plan.hits(InjectedFault::ShardSlowStart, idx) {
                slot.slow_start = true;
            }
        }
        victims
    };
    // Abort outside the lock: in-flight jobs settle into the journal (a
    // crash at job granularity; torn-record crashes are the journal's own
    // recovery tests). The slot's service is already `None`, so the
    // failure detector sees a frozen heartbeat and walks it to Dead.
    for (_idx, svc) in crash_victims {
        svc.abort();
    }
}

/// Advance the failure detector one poll. Returns shards newly declared
/// dead (to be failed over by the caller).
fn poll_heartbeats(inner: &ClusterInner) -> Vec<usize> {
    let mut st = inner.lock();
    let cfg = &inner.config;
    let mut dead = Vec::new();
    for (idx, slot) in st.shards.iter_mut().enumerate() {
        if slot.health == ShardHealth::Dead && slot.service.is_none() {
            continue; // stays dead (its restart failed)
        }
        let beat = slot.service.as_ref().map(|s| s.heartbeat());
        match beat {
            Some(b) if b > slot.last_beat => {
                slot.last_beat = b;
                slot.misses = 0;
                slot.health = match slot.health {
                    ShardHealth::Recovering { polls_left } if polls_left > 1 => {
                        ShardHealth::Recovering {
                            polls_left: polls_left - 1,
                        }
                    }
                    ShardHealth::Recovering { .. } => ShardHealth::Recovered,
                    ShardHealth::Suspect { .. } | ShardHealth::Alive => ShardHealth::Alive,
                    other => other,
                };
            }
            _ => {
                slot.misses = slot.misses.saturating_add(1);
                if slot.misses >= cfg.dead_misses {
                    if slot.health != ShardHealth::Dead {
                        slot.health = ShardHealth::Dead;
                        dead.push(idx);
                    }
                } else if slot.misses >= cfg.suspect_misses && slot.health.routable() {
                    slot.health = ShardHealth::Suspect {
                        misses: slot.misses,
                    };
                }
            }
        }
    }
    dead
}

/// Fail over a dead shard: drain it, adopt settled outcomes from its
/// journal (at most once each), reroute unsettled jobs over the
/// survivors, restart it, and re-home its session parts.
fn failover(inner: &ClusterInner, idx: usize) {
    // Phase 1 (locked): detach the shard.
    let (service, journal_path, assigned, old_registry) = {
        let mut st = inner.lock();
        inner.metrics.shard_deaths.inc();
        let slot = &mut st.shards[idx];
        slot.health = ShardHealth::Dead;
        slot.breaker.on_failure();
        (
            slot.service.take(),
            slot.journal_path.clone(),
            std::mem::take(&mut slot.assigned),
            slot.registry.clone(),
        )
    };
    // Phase 2 (unlocked): drain the corpse and read its journal. `abort`
    // joins the worker pool, so every in-flight job has settled (and been
    // journaled) by the time we read; queued jobs come back as pending.
    if let Some(svc) = &service {
        svc.stall_supervisor(false);
    }
    if let Some(svc) = service {
        svc.abort();
    }
    let replay = journal_path
        .as_ref()
        .and_then(|p| Journal::open(p).ok())
        .map(|(_, replay)| replay)
        .unwrap_or_default();
    let adopted = adopt_outcomes(inner, &replay, &assigned);
    // Restart on the *current* cluster-wide model: a shard that died
    // before a swap must not resurrect the pre-swap model.
    let net = inner.lock_model().net.clone();
    let restarted = start_shard(&net, &inner.config.shard, journal_path.as_ref()).ok();
    // Phase 3 (locked): adopt terminals, reroute the rest, reinstall the
    // restarted service.
    let mut st = inner.lock();
    let mut reroute = Vec::new();
    for (sid, cluster_id) in assigned {
        match adopted.get(&sid) {
            Some(outcome) => settle(inner, &mut st, cluster_id, outcome.clone()),
            None => reroute.push(cluster_id),
        }
    }
    reroute.sort_unstable();
    for cluster_id in reroute {
        if st
            .jobs
            .get(&cluster_id)
            .is_some_and(|j| j.outcome.is_none())
        {
            inner.metrics.rerouted.inc();
            try_dispatch(inner, &mut st, cluster_id);
        }
    }
    // Retire the dead incarnation's metrics before the slot's registry
    // handle is replaced.
    st.retired.push(old_registry.snapshot());
    if let Some(svc) = restarted {
        inner.metrics.shard_recoveries.inc();
        let slot = &mut st.shards[idx];
        slot.registry = svc.metrics().clone();
        slot.service = Some(svc);
        slot.breaker = CircuitBreaker::default();
        slot.last_beat = 0;
        slot.misses = 0;
        slot.dispatched = 0;
        slot.health = if slot.slow_start {
            ShardHealth::Recovering {
                polls_left: WARMUP_POLLS,
            }
        } else {
            ShardHealth::Recovered
        };
    }
    // Re-adopt session parts that lived on the dead shard: each is
    // re-opened on a surviving (or the restarted) shard by replaying the
    // coordinator's record of its deltas. That lands where a replay of
    // the dead shard's journal would: the only deltas the record lacks
    // are ones the shard rejected, and a rejected delta leaves a session
    // unchanged. (The record also holds a delta whose repair failed, which
    // the journal lacks and the other parts applied.)
    let mut rehome: Vec<(u64, usize)> = Vec::new();
    for (csid, session) in &st.sessions {
        for (pi, part) in session.parts.iter().enumerate() {
            if part.shard == idx {
                rehome.push((*csid, pi));
            }
        }
    }
    for (csid, pi) in rehome {
        let part = &st.sessions[&csid].parts[pi];
        let (req, hist) = (part.request.clone(), part.deltas.clone());
        match open_session_part(&mut st, &req, &hist) {
            Ok((shard, sid, _update)) => {
                if let Some(s) = st.sessions.get_mut(&csid) {
                    s.parts[pi].shard = shard;
                    s.parts[pi].sid = sid;
                }
                inner.metrics.sessions_failed_over.inc();
            }
            Err(_) => {
                // No routable shard took the part; it stays pointed at the
                // dead slot and the next apply_delta repairs it in place.
            }
        }
    }
    drop(st);
    inner.cond.notify_all();
}

/// The outcomes a dead shard's journal holds for its `assigned` jobs
/// (shard-local id → cluster id), by shard-local id. A decision record is
/// recomputed from its accepted request on the cluster's model, which
/// must have the recorded fingerprint (see
/// [`Decision::recompute`](crate::journal::Decision::recompute)).
fn adopt_outcomes(
    inner: &ClusterInner,
    replay: &Replay,
    assigned: &HashMap<u64, u64>,
) -> BTreeMap<u64, JobOutcome> {
    let mut estimator: Option<(M3Estimator, u64)> = None;
    let mut adopted = BTreeMap::new();
    for sid in assigned.keys() {
        if let Some(outcome) = replay.terminal.get(sid) {
            adopted.insert(*sid, outcome.clone());
            continue;
        }
        let (Some(decision), Some(request)) = (replay.decisions.get(sid), replay.accepted.get(sid))
        else {
            continue;
        };
        let (est, fingerprint) = estimator.get_or_insert_with(|| {
            let model = inner.lock_model();
            (M3Estimator::new(model.net.clone()), model.fingerprint)
        });
        let model = (*fingerprint == decision.fingerprint).then_some(&*est);
        let outcome = decision.recompute(request, model, None);
        match outcome {
            JobOutcome::Completed { .. } => inner.metrics.recomputed.inc(),
            _ => inner.metrics.recompute_failures.inc(),
        }
        adopted.insert(*sid, outcome);
    }
    adopted
}

/// Collect terminal outcomes from every live shard.
fn harvest(inner: &ClusterInner) {
    let mut st = inner.lock();
    let mut done: Vec<(usize, u64, u64, JobOutcome)> = Vec::new();
    for (idx, slot) in st.shards.iter().enumerate() {
        let Some(svc) = slot.service.as_ref() else {
            continue;
        };
        for (&sid, &cluster_id) in &slot.assigned {
            if let Some(outcome) = svc.outcome(sid) {
                done.push((idx, sid, cluster_id, outcome));
            }
        }
    }
    // Deterministic settle order (shard, shard-local id).
    done.sort_by_key(|(idx, sid, _, _)| (*idx, *sid));
    for (idx, sid, cluster_id, outcome) in done {
        st.shards[idx].assigned.remove(&sid);
        settle(inner, &mut st, cluster_id, outcome);
    }
}

/// Dispatch queued (backed-off) jobs that are due.
fn dispatch_due(inner: &ClusterInner) {
    let mut st = inner.lock();
    let now = Instant::now();
    let mut later = VecDeque::new();
    while let Some(pd) = st.dispatch_queue.pop_front() {
        if st.jobs.get(&pd.job_id).is_none_or(|j| j.outcome.is_some()) {
            continue; // settled while waiting (e.g. adopted)
        }
        if pd.not_before <= now {
            try_dispatch(inner, &mut st, pd.job_id);
        } else {
            later.push_back(pd);
        }
    }
    st.dispatch_queue = later;
    drop(st);
    inner.cond.notify_all();
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::request::{ConfigSpec, ScenarioSpec, TopoSpec, WorkloadSpec};
    use m3_core::prelude::{PathDistribution, NUM_OUTPUT_BUCKETS, SPEC_DIM};
    use m3_nn::prelude::ModelConfig;

    fn tiny_net() -> M3Net {
        let cfg = ModelConfig {
            embed: 16,
            heads: 2,
            layers: 1,
            ff_hidden: 16,
            mlp_hidden: 32,
            ..ModelConfig::repro_default(SPEC_DIM)
        };
        M3Net::new(cfg, 3)
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

    fn quick_cluster_config(shards: usize) -> ClusterConfig {
        ClusterConfig {
            shards,
            shard: ServiceConfig {
                workers: 1,
                queue_capacity: 256,
                ..ServiceConfig::default()
            },
            heartbeat_every: Duration::from_millis(3),
            // Generous death threshold: fault-free tests must never
            // false-positive a busy shard on a loaded CI machine.
            suspect_misses: 40,
            dead_misses: 80,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn fault_free_cluster_drains_and_settles_every_job() {
        let cluster = Cluster::start(tiny_net(), quick_cluster_config(3)).unwrap();
        let ids: Vec<u64> = (0..6)
            .map(|s| cluster.submit(tiny_request(s, 2)).unwrap())
            .collect();
        assert!(cluster.wait_idle(Duration::from_secs(120)));
        for id in ids {
            let o = cluster.outcome(id).expect("job settled");
            assert!(matches!(o, JobOutcome::Completed { .. }), "job {id}: {o:?}");
        }
        let stats = cluster.stats();
        assert!(stats.drained(), "{stats:?}");
        assert_eq!(stats.shard_deaths, 0);
        assert_eq!(stats.submitted, 6);
        // Work spread across shards (6 distinct scenarios, 3 shards:
        // all landing on one shard would mean routing collapsed).
        let active = stats.shards.iter().filter(|s| s.dispatched > 0).count();
        assert!(active >= 2, "routing collapsed onto {active} shard(s)");
        cluster.shutdown();
    }

    #[test]
    fn scatter_parent_merges_children_bit_identically() {
        let mut cfg = quick_cluster_config(3);
        cfg.scatter_threshold = 4;
        cfg.scatter_chunk = 2;
        let cluster = Cluster::start(tiny_net(), cfg).unwrap();
        let id = cluster.submit(tiny_request(11, 6)).unwrap();
        assert!(cluster.wait_idle(Duration::from_secs(120)));
        let merged = match cluster.outcome(id).expect("parent settled") {
            JobOutcome::Completed { estimate, .. } => estimate,
            other => panic!("parent not completed: {other:?}"),
        };
        let stats = cluster.stats();
        assert_eq!(stats.submitted, 1 + 3, "parent + 3 children of 2 paths");
        cluster.shutdown();

        // Reference: the same request through a single unsharded service.
        let svc = Service::start(
            M3Estimator::new(tiny_net()),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let rid = svc.submit(tiny_request(11, 6)).unwrap();
        assert!(svc.wait_idle(Duration::from_secs(120)));
        let reference = match svc.outcome(rid).expect("reference settled") {
            JobOutcome::Completed { estimate, .. } => estimate,
            other => panic!("reference not completed: {other:?}"),
        };
        svc.shutdown();
        assert_estimates_bit_identical(&merged, &reference);
    }

    pub(crate) fn assert_estimates_bit_identical(a: &NetworkEstimate, b: &NetworkEstimate) {
        assert_eq!(a.bucket_counts, b.bucket_counts);
        for bucket in 0..NUM_OUTPUT_BUCKETS {
            let (sa, sb) = (&a.bucket_samples[bucket], &b.bucket_samples[bucket]);
            assert_eq!(sa.len(), sb.len(), "bucket {bucket} sample count");
            for (i, (x, y)) in sa.iter().zip(sb).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "bucket {bucket} sample {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn merge_estimates_matches_direct_aggregation() {
        // Partition 6 synthetic path distributions, aggregate each part,
        // merge — must be bit-identical to aggregating all at once.
        let paths: Vec<PathDistribution> = (0..6u64)
            .map(|p| {
                let samples: Vec<(u64, f64)> = (0..40u64)
                    .map(|i| (1000 << (i % 5), 1.0 + ((p * 40 + i) % 17) as f64 / 3.0))
                    .collect();
                PathDistribution::from_samples(&samples)
            })
            .collect();
        let whole = NetworkEstimate::aggregate(&paths);
        let part_a = NetworkEstimate::aggregate(&paths[..2]);
        let part_b = NetworkEstimate::aggregate(&paths[2..5]);
        let part_c = NetworkEstimate::aggregate(&paths[5..]);
        let merged = merge_estimates(&[&part_a, &part_b, &part_c]);
        assert_estimates_bit_identical(&merged, &whole);
    }

    #[test]
    fn merge_outcomes_propagates_failure_and_degradation() {
        let est = NetworkEstimate::aggregate(&[PathDistribution::from_samples(&[
            (1000, 1.5),
            (2000, 2.0),
        ])]);
        let ok = JobOutcome::Completed {
            estimate: est.clone(),
            attempts: 1,
        };
        let degraded = JobOutcome::Degraded {
            estimate: est.clone(),
            attempts: 2,
            via_breaker: true,
        };
        let failed = JobOutcome::Failed {
            error: m3_core::prelude::M3Error::InvalidSpec {
                stage: m3_core::prelude::Stage::Validate,
                reason: "x".into(),
            },
            attempts: 3,
        };
        assert!(matches!(
            merge_outcomes(&[ok.clone(), degraded.clone()]),
            JobOutcome::Degraded {
                attempts: 2,
                via_breaker: true,
                ..
            }
        ));
        assert!(matches!(
            merge_outcomes(&[ok.clone(), failed, ok.clone()]),
            JobOutcome::Failed { attempts: 3, .. }
        ));
        assert!(matches!(
            merge_outcomes(&[ok.clone(), ok]),
            JobOutcome::Completed { attempts: 1, .. }
        ));
    }

    fn session_request(seed: u64, paths: usize) -> OpenSessionRequest {
        OpenSessionRequest::new(tiny_request(seed, paths).scenario, paths, seed)
    }

    #[test]
    fn scattered_session_matches_unscattered_service_session_bit_identically() {
        let mut cfg = quick_cluster_config(3);
        cfg.scatter_threshold = 4;
        cfg.scatter_chunk = 2;
        let cluster = Cluster::start(tiny_net(), cfg).unwrap();
        let req = session_request(21, 6);
        let (id, opened) = cluster.open_session(req.clone()).unwrap();
        assert!(opened.structural);
        assert_eq!(
            cluster.session_shards(id).unwrap().len(),
            3,
            "6 paths / chunk 2 = 3 parts"
        );

        let d1 = ScenarioDelta::LinkCapacity {
            link: 0,
            bandwidth: 5_000_000_000,
        };
        let d2 = ScenarioDelta::LinkDown { link: 1 };
        cluster.apply_delta(id, &d1).unwrap();
        cluster.apply_delta(id, &d2).unwrap();

        // An invalid delta is a typed rejection that changes no part.
        let before = cluster.session_estimate(id).unwrap();
        match cluster.apply_delta(
            id,
            &ScenarioDelta::LinkCapacity {
                link: 0,
                bandwidth: 0,
            },
        ) {
            Err(ClusterSessionError::Shard(SessionError::Estimate(_))) => {}
            other => panic!("expected typed rejection, got {other:?}"),
        }
        let merged = cluster.session_estimate(id).unwrap();
        assert_estimates_bit_identical(&merged, &before);
        assert!(matches!(
            cluster.apply_delta(999, &d1),
            Err(ClusterSessionError::UnknownSession { id: 999 })
        ));

        let stats = cluster.stats();
        assert_eq!(stats.sessions_opened, 1);
        assert_eq!(stats.session_updates, 2);
        assert_eq!(stats.sessions_open, 1);
        cluster.close_session(id).unwrap();
        assert!(cluster.session_estimate(id).is_none());
        cluster.shutdown();

        // Reference: the same session, unscattered, on one service.
        let svc = Service::start(
            M3Estimator::new(tiny_net()),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let (rid, _) = svc.open_session(req).unwrap();
        svc.apply_delta(rid, &d1).unwrap();
        svc.apply_delta(rid, &d2).unwrap();
        let reference = svc.session_estimate(rid).unwrap();
        svc.shutdown();
        assert_estimates_bit_identical(&merged, &reference);
    }

    #[test]
    fn killed_shard_session_parts_rehome_and_stay_bit_identical() {
        let dir = std::env::temp_dir().join(format!(
            "m3-cluster-session-failover-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = quick_cluster_config(3);
        cfg.scatter_threshold = 4;
        cfg.scatter_chunk = 2;
        cfg.journal_dir = Some(dir.clone());
        cfg.suspect_misses = 2;
        cfg.dead_misses = 5;
        let cluster = Cluster::start(tiny_net(), cfg).unwrap();
        let req = session_request(33, 6);
        let (id, _) = cluster.open_session(req.clone()).unwrap();
        let d1 = ScenarioDelta::LinkCapacity {
            link: 0,
            bandwidth: 5_000_000_000,
        };
        cluster.apply_delta(id, &d1).unwrap();

        // Kill the shard hosting the session's first part, then keep
        // driving the session. Whichever happens first — monitor failover
        // re-adopting the part from the dead shard's journal, or the next
        // apply_delta repairing it in place — must converge to the same
        // state. The delta is absolute (idempotent), so retrying a
        // partially-applied fanout is safe.
        let victim = cluster.session_shards(id).unwrap()[0];
        cluster.kill_shard(victim);
        let d2 = ScenarioDelta::LinkCapacity {
            link: 0,
            bandwidth: 2_500_000_000,
        };
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            match cluster.apply_delta(id, &d2) {
                Ok(_) => break,
                Err(e) => {
                    assert!(Instant::now() < deadline, "session never repaired: {e}");
                    thread::sleep(Duration::from_millis(10));
                }
            }
        }
        let stats = cluster.stats();
        assert!(
            stats.sessions_failed_over >= 1,
            "the victim's part must have re-homed: {stats:?}"
        );
        let merged = cluster.session_estimate(id).unwrap();
        cluster.close_session(id).unwrap();
        cluster.shutdown();

        // Lossless: the re-homed session matches an undisturbed
        // single-service session that applied the same deltas.
        let svc = Service::start(
            M3Estimator::new(tiny_net()),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let (rid, _) = svc.open_session(req).unwrap();
        svc.apply_delta(rid, &d1).unwrap();
        svc.apply_delta(rid, &d2).unwrap();
        let reference = svc.session_estimate(rid).unwrap();
        svc.shutdown();
        assert_estimates_bit_identical(&merged, &reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_health_transitions_and_routability() {
        assert!(ShardHealth::Alive.routable());
        assert!(ShardHealth::Suspect { misses: 3 }.routable());
        assert!(!ShardHealth::Dead.routable());
        assert!(!ShardHealth::Recovering { polls_left: 2 }.routable());
        assert!(ShardHealth::Recovered.routable());
    }
}
