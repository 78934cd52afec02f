//! Telemetry surface of the estimation pipeline.
//!
//! [`PipelineMetrics`] bundles every counter and stage timer the pipeline
//! emits, registered under stable dotted names. Every m3 estimate — a
//! one-shot or prepared call, a session open, rebuild or surgical update —
//! ends in the one resolve-and-pool frame (`M3Estimator::resolve_and_pool`),
//! which records into a call-local registry (always enabled — it is what
//! backs the `NetworkEstimate::timings` compatibility view) and then
//! absorbs the call's snapshot into the caller-supplied registry, if any,
//! so long-lived registries (a service, the CLI) accumulate across calls
//! without the hot path ever sharing atomics between concurrent estimates.

use m3_telemetry::{Counter, MetricsRegistry, Timer};

/// Stable metric names emitted by the pipeline (`pipeline.` prefix) and by
/// the per-scenario flowSim runs it drives (`flowsim.` prefix).
pub mod names {
    /// Paths sampled for the estimate.
    pub const SAMPLED_PATHS: &str = "pipeline.sampled_paths";
    /// Distinct scenarios after content-hash deduplication.
    pub const UNIQUE_SCENARIOS: &str = "pipeline.unique_scenarios";
    /// flowSim simulations actually executed.
    pub const FLOWSIM_RUNS: &str = "pipeline.flowsim_runs";
    /// Scenarios answered from the scenario cache.
    pub const CACHE_HITS: &str = "pipeline.cache_hits";
    /// Scenarios probed but absent from the cache.
    pub const CACHE_MISSES: &str = "pipeline.cache_misses";
    /// Cache entries evicted while inserting this call's results.
    pub const CACHE_EVICTIONS: &str = "pipeline.cache_evictions";
    /// Samples that fell back to the uncorrected flowSim distribution.
    pub const DEGRADED_SAMPLES: &str = "pipeline.degraded_samples";
    /// Samples dropped entirely (flowSim-stage faults).
    pub const DROPPED_SAMPLES: &str = "pipeline.dropped_samples";
    /// Outer fluid event-loop iterations across this call's flowSim runs.
    pub const FLOWSIM_EVENTS: &str = "flowsim.events";
    /// Wall-clock budget checks performed by those runs.
    pub const FLOWSIM_WALL_CHECKS: &str = "flowsim.wall_checks";
    /// Stage wall-clock timers (seconds).
    pub const DECOMPOSE_SECONDS: &str = "pipeline.decompose_seconds";
    /// flowSim stage wall-clock timer (seconds).
    pub const FLOWSIM_SECONDS: &str = "pipeline.flowsim_seconds";
    /// Feature-extraction stage wall-clock timer (seconds).
    pub const FEATURES_SECONDS: &str = "pipeline.features_seconds";
    /// Forward-pass stage wall-clock timer (seconds).
    pub const FORWARD_SECONDS: &str = "pipeline.forward_seconds";
    /// Aggregation stage wall-clock timer (seconds).
    pub const AGGREGATE_SECONDS: &str = "pipeline.aggregate_seconds";
}

/// Handles to every pipeline metric, registered once per estimate call.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    /// `pipeline.sampled_paths`.
    pub sampled_paths: Counter,
    /// `pipeline.unique_scenarios`.
    pub unique_scenarios: Counter,
    /// `pipeline.flowsim_runs`.
    pub flowsim_runs: Counter,
    /// `pipeline.cache_hits`.
    pub cache_hits: Counter,
    /// `pipeline.cache_misses`.
    pub cache_misses: Counter,
    /// `pipeline.cache_evictions`.
    pub cache_evictions: Counter,
    /// `pipeline.degraded_samples`.
    pub degraded_samples: Counter,
    /// `pipeline.dropped_samples`.
    pub dropped_samples: Counter,
    /// `flowsim.events`.
    pub flowsim_events: Counter,
    /// `flowsim.wall_checks`.
    pub flowsim_wall_checks: Counter,
    /// `pipeline.decompose_seconds`.
    pub decompose: Timer,
    /// `pipeline.flowsim_seconds`.
    pub flowsim: Timer,
    /// `pipeline.features_seconds`.
    pub features: Timer,
    /// `pipeline.forward_seconds`.
    pub forward: Timer,
    /// `pipeline.aggregate_seconds`.
    pub aggregate: Timer,
}

impl PipelineMetrics {
    /// Register every pipeline metric on `registry` and return the handle
    /// bundle. Registering on a no-op registry yields inert handles.
    pub fn register(registry: &MetricsRegistry) -> Self {
        PipelineMetrics {
            sampled_paths: registry.counter(names::SAMPLED_PATHS),
            unique_scenarios: registry.counter(names::UNIQUE_SCENARIOS),
            flowsim_runs: registry.counter(names::FLOWSIM_RUNS),
            cache_hits: registry.counter(names::CACHE_HITS),
            cache_misses: registry.counter(names::CACHE_MISSES),
            cache_evictions: registry.counter(names::CACHE_EVICTIONS),
            degraded_samples: registry.counter(names::DEGRADED_SAMPLES),
            dropped_samples: registry.counter(names::DROPPED_SAMPLES),
            flowsim_events: registry.counter(names::FLOWSIM_EVENTS),
            flowsim_wall_checks: registry.counter(names::FLOWSIM_WALL_CHECKS),
            decompose: registry.timer(names::DECOMPOSE_SECONDS),
            flowsim: registry.timer(names::FLOWSIM_SECONDS),
            features: registry.timer(names::FEATURES_SECONDS),
            forward: registry.timer(names::FORWARD_SECONDS),
            aggregate: registry.timer(names::AGGREGATE_SECONDS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_creates_all_counters_and_timers() {
        let reg = MetricsRegistry::new();
        let m = PipelineMetrics::register(&reg);
        m.sampled_paths.add(3);
        m.flowsim.add_seconds(0.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(names::SAMPLED_PATHS), Some(3));
        assert_eq!(snap.counter(names::FLOWSIM_RUNS), Some(0));
        assert_eq!(snap.timer_seconds(names::FLOWSIM_SECONDS), Some(0.5));
        assert_eq!(snap.counters.len(), 10);
        assert_eq!(snap.timers.len(), 5);
    }
}
