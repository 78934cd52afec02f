//! # m3-serve
//!
//! A supervised estimation service over the m3 pipeline: a bounded
//! multi-worker job queue that accepts [`EstimateRequest`]s (workload
//! spec, configuration, policy) and guarantees every accepted job reaches
//! a terminal [`JobOutcome`] — completed, degraded, failed, or shed — in
//! the face of transient stage faults (retried with capped exponential
//! backoff and deterministic full jitter), persistent faults (failed
//! fast), worker panics (supervised respawn with job recovery), repeated
//! stage failures (per-stage circuit breakers routing to the flowSim-only
//! degraded path), overload (admission control with load shedding), and
//! whole-process crashes (write-ahead job journal with fsync'd,
//! checksummed records and bit-identical replay).
//!
//! ```no_run
//! use m3_serve::prelude::*;
//! use m3_core::prelude::*;
//! use m3_nn::prelude::*;
//!
//! let net = M3Net::new(ModelConfig::repro_default(SPEC_DIM), 1);
//! let svc = Service::start(M3Estimator::new(net), ServiceConfig::default());
//! let req = EstimateRequest::new(
//!     ScenarioSpec {
//!         topology: TopoSpec::FatTreeSmall { oversub: 2 },
//!         workload: WorkloadSpec {
//!             n_flows: 1000, matrix: "B".into(), sizes: "WebServer".into(),
//!             sigma: 1.0, max_load: 0.4,
//!         },
//!         config: ConfigSpec::default(),
//!     },
//!     16, 7,
//! );
//! let id = svc.submit(req).unwrap();
//! svc.wait_idle(std::time::Duration::from_secs(60));
//! println!("{:?}", svc.outcome(id));
//! ```

// Robustness policy: non-test library code must not unwrap/expect — errors
// either propagate as typed Results or use an explicitly justified panic.
// scripts/check.sh runs clippy with -D warnings, making these hard errors.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod backoff;
pub mod breaker;
pub mod cluster;
pub mod journal;
pub mod monitor;
pub mod request;
pub mod routing;
pub mod service;
pub mod swap;

pub mod prelude {
    pub use crate::backoff::RetryPolicy;
    pub use crate::breaker::{BreakerState, CircuitBreaker};
    pub use crate::cluster::{
        Cluster, ClusterConfig, ClusterSessionError, ClusterStats, ShardHealth, ShardStatus,
    };
    pub use crate::journal::{
        read_records, Decision, JobOutcome, Journal, JournalCorruption, JournalFaults,
        JournalRecord, Replay, SessionReplay,
    };
    pub use crate::monitor::{
        default_slos, render_report, DriftConfig, DriftReport, EventLog, HealthEvent, HealthReport,
        Monitor, MonitorConfig, MonitorReport, MonitorSource, SloSignal, SloSpec, SloState,
        SloStatus, MONITOR_VERSION, ROLLUP_SUBJECT,
    };
    pub use crate::request::{
        ConfigSpec, EstimateRequest, OpenSessionRequest, ScenarioSpec, TopoSpec, WorkloadSpec,
    };
    pub use crate::routing::{rank, route, routing_key};
    pub use crate::service::{
        session_trace_id, trace_id_for, ServeMetrics, Service, ServiceConfig, ServiceStats,
        SessionError, SubmitError,
    };
    pub use crate::swap::{
        model_drift, Rollback, ShadowReport, SwapConfig, SwapCoordinator, SwapOutcome, SwapTarget,
    };
}

pub use prelude::*;
