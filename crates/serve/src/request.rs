//! Serializable scenario and job specifications.
//!
//! A job is fully described by data — topology recipe, workload recipe,
//! config knobs, sampling parameters, policies — never by live objects, so
//! it can be journaled, replayed after a crash, and shipped between
//! processes. Materialization is deterministic: the same spec always yields
//! the same topology, flows, and config, which is what makes journal replay
//! bit-identical.

use m3_core::prelude::{DegradationPolicy, FaultPlan, M3Error, PathSlice, Stage};
use m3_netsim::prelude::{
    CcProtocol, FatTree, FatTreeSpec, FlowSpec, Routing, SimConfig, Topology,
};
use m3_workload::prelude::{generate, Scenario, SizeDistribution, TrafficMatrix};
use serde::{Deserialize, Serialize};

fn invalid(reason: impl Into<String>) -> M3Error {
    M3Error::InvalidSpec {
        stage: Stage::Validate,
        reason: reason.into(),
    }
}

/// Topology recipe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum TopoSpec {
    FatTreeSmall { oversub: usize },
    FatTreeLarge,
}

/// Workload recipe (traffic matrix, size distribution, burstiness, load).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    pub n_flows: usize,
    pub matrix: String,
    pub sizes: String,
    pub sigma: f64,
    pub max_load: f64,
}

/// Network-configuration knobs layered over [`SimConfig::default`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConfigSpec {
    #[serde(default)]
    pub cc: Option<String>,
    #[serde(default)]
    pub init_window: Option<u64>,
    #[serde(default)]
    pub buffer_size: Option<u64>,
    #[serde(default)]
    pub pfc: Option<bool>,
}

impl ConfigSpec {
    /// Resolve to a [`SimConfig`]; unknown protocol names are typed
    /// [`M3Error::InvalidSpec`]s, not process aborts.
    pub fn to_sim_config(&self) -> Result<SimConfig, M3Error> {
        let mut c = SimConfig::default();
        if let Some(cc) = &self.cc {
            c.cc = match cc.as_str() {
                "dctcp" => CcProtocol::Dctcp,
                "timely" => CcProtocol::Timely,
                "dcqcn" => CcProtocol::Dcqcn,
                "hpcc" => CcProtocol::Hpcc,
                other => return Err(invalid(format!("unknown cc protocol {other:?}"))),
            };
        }
        if let Some(w) = self.init_window {
            c.init_window = w;
        }
        if let Some(b) = self.buffer_size {
            c.buffer_size = b;
        }
        if let Some(p) = self.pfc {
            c.pfc_enabled = p;
        }
        Ok(c)
    }
}

/// A complete estimation scenario: what network, what traffic, what config.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    pub topology: TopoSpec,
    pub workload: WorkloadSpec,
    #[serde(default)]
    pub config: ConfigSpec,
}

impl ScenarioSpec {
    /// Deterministically materialize the scenario. All validation errors
    /// are typed [`M3Error::InvalidSpec`]s.
    pub fn materialize(&self, seed: u64) -> Result<(Topology, Vec<FlowSpec>, SimConfig), M3Error> {
        let ft = match self.topology {
            TopoSpec::FatTreeSmall { oversub } => FatTree::build(FatTreeSpec::small(oversub)),
            TopoSpec::FatTreeLarge => FatTree::build(FatTreeSpec::large()),
        };
        let routing = Routing::new(&ft.topo);
        let sizes = SizeDistribution::by_name(&self.workload.sizes).ok_or_else(|| {
            invalid(format!(
                "unknown size distribution {:?}",
                self.workload.sizes
            ))
        })?;
        // `generate` panics on an unknown matrix name; validate it here so
        // a bad spec surfaces as a typed error, not a worker panic.
        if TrafficMatrix::by_name(&self.workload.matrix, ft.spec.total_racks()).is_none() {
            return Err(invalid(format!(
                "unknown traffic matrix {:?}",
                self.workload.matrix
            )));
        }
        let w = generate(
            &ft,
            &routing,
            &Scenario {
                n_flows: self.workload.n_flows,
                matrix_name: self.workload.matrix.clone(),
                sizes,
                sigma: self.workload.sigma,
                max_load: self.workload.max_load,
                seed,
            },
        );
        let config = self.config.to_sim_config()?;
        Ok((ft.topo, w.flows, config))
    }
}

/// One estimation job as accepted by the service (and journaled verbatim).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateRequest {
    pub scenario: ScenarioSpec,
    /// Paths to sample (k in the paper's Fig. 4).
    pub paths: usize,
    pub seed: u64,
    /// Per-request degradation policy; `None` uses the pipeline default.
    #[serde(default)]
    pub policy: Option<DegradationPolicy>,
    /// Wall-clock deadline from acceptance. Expiry before the first attempt
    /// sheds the job; expiry between retries fails it. The remaining time
    /// is also layered onto the flowSim stage budget of each attempt.
    /// Deadlines are wall-clock and therefore restart on journal replay.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Deterministic fault injection (robustness tests and soak runs).
    #[serde(default)]
    pub fault_plan: Option<FaultPlan>,
    /// Process only this contiguous slice of the k sampled paths — the
    /// scatter unit a cluster coordinator uses to split one large scenario
    /// across shards. `None` (and absent in journals written before
    /// clustering existed) processes all k paths.
    #[serde(default)]
    pub path_slice: Option<PathSlice>,
}

impl EstimateRequest {
    /// A plain request for one scenario with default policies.
    pub fn new(scenario: ScenarioSpec, paths: usize, seed: u64) -> Self {
        EstimateRequest {
            scenario,
            paths,
            seed,
            policy: None,
            deadline_ms: None,
            fault_plan: None,
            path_slice: None,
        }
    }
}

/// Open a long-lived incremental session over one scenario: the service
/// keeps the materialized scenario plus its per-path results alive, and
/// subsequent [`ScenarioDelta`](m3_core::prelude::ScenarioDelta)s
/// re-estimate only the paths they touch. Journaled verbatim, so
/// kill-and-resume replays the open (and every delta) to the same state.
/// A session covers all k sampled paths on the one service that opened
/// it. An older journal record with a `path_slice` key still reads (unknown
/// keys are skipped) and reopens as a whole session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenSessionRequest {
    pub scenario: ScenarioSpec,
    /// Paths to sample (k in the paper's Fig. 4).
    pub paths: usize,
    pub seed: u64,
}

impl OpenSessionRequest {
    pub fn new(scenario: ScenarioSpec, paths: usize, seed: u64) -> Self {
        OpenSessionRequest {
            scenario,
            paths,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            topology: TopoSpec::FatTreeSmall { oversub: 2 },
            workload: WorkloadSpec {
                n_flows: 500,
                matrix: "B".into(),
                sizes: "WebServer".into(),
                sigma: 1.0,
                max_load: 0.4,
            },
            config: ConfigSpec::default(),
        }
    }

    #[test]
    fn materialization_is_deterministic() {
        let s = spec();
        let (t1, f1, c1) = s.materialize(7).unwrap();
        let (t2, f2, c2) = s.materialize(7).unwrap();
        assert_eq!(t1.node_count(), t2.node_count());
        assert_eq!(f1, f2);
        // SimConfig has no PartialEq; JSON equality is what journal replay needs.
        assert_eq!(
            serde_json::to_string(&c1).unwrap(),
            serde_json::to_string(&c2).unwrap()
        );
        let (_, f3, _) = s.materialize(8).unwrap();
        assert_ne!(f1, f3, "seed must matter");
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let mut s = spec();
        s.workload.sizes = "NoSuchDist".into();
        assert!(matches!(s.materialize(1), Err(M3Error::InvalidSpec { .. })));
        let mut s = spec();
        s.workload.matrix = "Z".into();
        assert!(matches!(s.materialize(1), Err(M3Error::InvalidSpec { .. })));
        let mut s = spec();
        s.config.cc = Some("carrier-pigeon".into());
        assert!(matches!(s.materialize(1), Err(M3Error::InvalidSpec { .. })));
    }

    #[test]
    fn request_roundtrips_through_json() {
        let mut req = EstimateRequest::new(spec(), 8, 3);
        req.deadline_ms = Some(5000);
        req.policy = Some(DegradationPolicy::FailFast);
        let json = serde_json::to_string(&req).unwrap();
        let back: EstimateRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);
    }
}
