//! # m3-telemetry
//!
//! Unified telemetry for the m3 workspace: a lock-cheap [`MetricsRegistry`]
//! of named counters, gauges, wall-clock timers, and fixed-edge
//! log-bucketed histograms; lightweight timing [`Span`]s; and a versioned
//! JSON [`MetricsSnapshot`] export format shared by the simulator, the
//! estimation pipeline, the trainer, and the serving stack.
//!
//! ## Design
//!
//! * **Handles, not lookups.** A metric is registered once by name
//!   ([`MetricsRegistry::counter`] and friends take a short lock) and the
//!   returned handle is a clone-able `Arc` around an atomic cell. Hot
//!   loops touch only the atomic — no map lookups, no locks.
//! * **No-op mode.** [`MetricsRegistry::noop`] yields a disabled registry
//!   whose handles early-return without touching memory or sampling the
//!   clock. Instrumented code paths therefore cost a predictable branch
//!   when telemetry is off. The `gate` binary's `overhead` gate bounds
//!   the cost of a live registry (`BENCH_telemetry_overhead.json`).
//! * **Determinism.** Counters, gauges, and histograms carry values that
//!   are identical across reruns of a deterministic workload (atomic `u64`
//!   additions commute). Wall-clock metrics — timers, and any gauge or
//!   histogram registered through the `wall_*` constructors — are
//!   explicitly flagged and excluded by
//!   [`MetricsSnapshot::deterministic_view`], mirroring the repo-wide
//!   convention that `NetworkEstimate::timings` is excluded from
//!   bit-equality checks.
//! * **Versioned snapshots.** [`MetricsSnapshot`] serializes to JSON with
//!   an explicit `version` field and name-sorted entry vectors so exports
//!   are stable, diffable, and mergeable ([`MetricsSnapshot::merge`],
//!   [`HistogramSnapshot::merge`] — associative and order-independent).

// Robustness policy: non-test library code must not unwrap/expect — errors
// either propagate as typed Results or use an explicitly justified panic.
// scripts/check.sh runs clippy with -D warnings, making these hard errors.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod histogram;
pub mod prometheus;
pub mod registry;
pub mod render;
pub mod snapshot;
pub mod timeseries;
pub mod trace;

pub mod prelude {
    pub use crate::histogram::{Histogram, HistogramEdges, HistogramSnapshot, SUMMARY_QUANTILES};
    pub use crate::prometheus::{prometheus_name, render_prometheus};
    pub use crate::registry::{Counter, Gauge, MetricsRegistry, Span, Timer};
    pub use crate::render::render_snapshot;
    pub use crate::snapshot::{
        CounterEntry, GaugeEntry, HistogramEntry, MetricsSnapshot, TimerEntry, SNAPSHOT_VERSION,
    };
    pub use crate::timeseries::{snapshot_delta, Sample, TimeSeries, DEFAULT_TIMESERIES_CAPACITY};
    pub use crate::trace::{
        render_trace_summary, summarize_chrome_json, FlightRecording, SpanStat, TraceCtx,
        TraceEvent, TraceEventKind, TraceRecorder, TraceSpan, TraceSummary,
        DEFAULT_PROBE_STRIDE_NS, DEFAULT_TRACE_CAPACITY,
    };
}

pub use prelude::*;
