//! # m3-core
//!
//! The m3 system (SIGCOMM 2024): fast, accurate flow-level performance
//! estimation for data center networks.
//!
//! Pipeline (Fig. 4): given a workload and topology, m3
//! 1. decomposes the network into *paths* and weight-samples k of them
//!    ([`decompose`]),
//! 2. runs the max-min fluid simulator flowSim per path and summarizes the
//!    slowdowns into 10x100 percentile feature maps ([`pathsim`],
//!    [`features`]),
//! 3. corrects the foreground estimate with a transformer+MLP conditioned
//!    on per-hop background context and the network configuration
//!    ([`spec`], [`pipeline::M3Estimator`]), and
//! 4. aggregates the k path distributions into network-wide slowdown
//!    statistics ([`aggregate`]).
//!
//! Training on synthetic parking-lot scenarios lives in [`trainer`].
//!
//! ```no_run
//! use m3_core::prelude::*;
//! use m3_netsim::prelude::*;
//! use m3_workload::prelude::*;
//!
//! // Train a small model on synthetic path scenarios (Table 2)...
//! let cfg = TrainConfig::default();
//! let dataset = build_dataset(&cfg);
//! let (net, _report) = train(&cfg, &dataset);
//!
//! // ...then estimate a full-network workload.
//! let ft = FatTree::build(FatTreeSpec::small(2));
//! let routing = Routing::new(&ft.topo);
//! let w = generate(&ft, &routing, &Scenario {
//!     n_flows: 10_000, matrix_name: "B".into(),
//!     sizes: SizeDistribution::web_server(),
//!     sigma: 1.0, max_load: 0.5, seed: 1,
//! });
//! let est = M3Estimator::new(net);
//! let result = est.estimate(&ft.topo, &w.flows, &SimConfig::default(), 100, 7);
//! println!("network-wide p99 slowdown: {:.2}", result.p99());
//! ```

// Robustness policy: non-test library code must not unwrap/expect — errors
// either propagate as typed Results or use an explicitly justified panic.
// scripts/check.sh runs clippy with -D warnings, making these hard errors.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod cache;
pub mod decompose;
pub mod error;
pub mod faultinject;
pub mod features;
pub mod metrics;
pub mod optimizer;
pub mod pathsim;
pub mod pipeline;
pub mod session;
pub mod spec;
pub mod trainer;

pub mod prelude {
    pub use crate::aggregate::{
        merge_estimates, DegradationEvent, DegradationReport, NetworkEstimate, PathDistribution,
        Percentile, StageTimings, NUM_OUTPUT_BUCKETS,
    };
    pub use crate::cache::{scenario_fingerprint, CacheStats, ScenarioCache, SharedScenarioCache};
    pub use crate::decompose::{flow_ports, PathGroup, PathIndex};
    pub use crate::error::{
        validate_workload, FaultClass, FaultKind, M3Error, SpecValidation, Stage,
    };
    pub use crate::faultinject::{FaultPlan, InjectedFault};
    pub use crate::features::{
        feature_bucket, output_bucket, FeatureMap, FEAT_DIM, OUTPUT_BUCKETS, OUT_DIM, SIZE_BUCKETS,
    };
    pub use crate::metrics::{names as metric_names, PipelineMetrics};
    pub use crate::optimizer::{
        bucket_p99_objective, golden_section_search, sweep_knob, Knob, PreparedWorkload,
        SweepPoint, SweepResult,
    };
    pub use crate::pathsim::{FlowsimResult, PathFlow, PathScenarioData};
    pub use crate::pipeline::{
        flowsim_estimate, global_flowsim_estimate, ground_truth_estimate, ns3_path_estimate,
        DegradationPolicy, EstimateOptions, M3Estimator, PathSlice, PreparedEstimate, StageBudget,
    };
    pub use crate::session::{ScenarioDelta, ScenarioSession, ScenarioState, SessionUpdate};
    pub use crate::spec::{path_base_rtt, spec_vector, SPEC_DIM};
    pub use crate::trainer::{
        build_dataset, evaluate, make_example, scenario_features, stage_seed, train,
        training_point_with_hops, training_points, try_train, try_train_with_metrics, TrainConfig,
        TrainExample, TrainReport,
    };
}
