//! Typed error taxonomy for the estimation pipeline.
//!
//! Every way an estimate can fail is classified by the *stage* where it
//! happened and the *kind* of fault, so callers can distinguish "your input
//! is malformed" from "a resource ceiling tripped" from "a compute stage
//! misbehaved" without parsing strings. The same (stage, fault) pairs label
//! entries in [`crate::aggregate::DegradationReport`] when the estimator is
//! configured to degrade instead of failing.

use m3_netsim::prelude::{FlowSpec, SimConfig, Topology};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Pipeline stage where a fault originated (Fig. 4 stages plus the
/// surrounding plumbing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Input validation before any work is done.
    Validate,
    /// Path decomposition and weighted sampling.
    Decompose,
    /// Per-path flowSim (max-min fluid) simulation.
    FlowSim,
    /// Feature-map construction.
    Features,
    /// Transformer+MLP forward pass.
    Forward,
    /// Aggregation of path distributions.
    Aggregate,
    /// Scenario-cache bookkeeping.
    Cache,
    /// Model checkpoint I/O.
    Checkpoint,
    /// Supervised worker execution outside any pipeline stage (the worker
    /// thread itself crashed; the faulting stage is unknown).
    Worker,
}

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Validate => "validate",
            Stage::Decompose => "decompose",
            Stage::FlowSim => "flowsim",
            Stage::Features => "features",
            Stage::Forward => "forward",
            Stage::Aggregate => "aggregate",
            Stage::Cache => "cache",
            Stage::Checkpoint => "checkpoint",
            Stage::Worker => "worker",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What went wrong, independent of where.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// A precondition on the stage's input did not hold.
    InvalidInput,
    /// A computation produced NaN/infinity where a finite value is required.
    NonFinite,
    /// An event-count or wall-clock ceiling tripped.
    BudgetExceeded,
    /// The stage panicked and was isolated.
    Panic,
    /// Stored state (cache entry, checkpoint) failed integrity checks.
    Corruption,
}

impl FaultKind {
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::InvalidInput => "invalid-input",
            FaultKind::NonFinite => "non-finite",
            FaultKind::BudgetExceeded => "budget-exceeded",
            FaultKind::Panic => "panic",
            FaultKind::Corruption => "corruption",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a fault is worth retrying.
///
/// *Transient* faults depend on circumstances that can change between
/// attempts (resource ceilings, panics whose trigger may not recur);
/// *persistent* faults are properties of the input or stored state and will
/// reproduce on every attempt, so retrying them only wastes capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultClass {
    Transient,
    Persistent,
}

impl FaultKind {
    /// Retry classification of this fault kind. Budget trips and panics are
    /// transient; malformed input, non-finite math, and corrupt stored
    /// state are persistent (deterministically reproducible).
    pub fn class(self) -> FaultClass {
        match self {
            FaultKind::BudgetExceeded | FaultKind::Panic => FaultClass::Transient,
            FaultKind::InvalidInput | FaultKind::NonFinite | FaultKind::Corruption => {
                FaultClass::Persistent
            }
        }
    }
}

/// Top-level error type for the estimation pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum M3Error {
    /// An input (config, workload, model) failed validation.
    InvalidSpec { stage: Stage, reason: String },
    /// A pipeline stage faulted and the policy was to fail fast.
    StageFault {
        stage: Stage,
        fault: FaultKind,
        detail: String,
    },
    /// Under a `Degrade` policy, more samples faulted than the policy allows.
    DegradationLimitExceeded {
        degraded: usize,
        total: usize,
        max_frac: f64,
    },
    /// Every sampled path faulted; there is nothing to aggregate.
    NoUsableSamples { total: usize },
    /// A caller-imposed deadline expired before the work finished.
    DeadlineExceeded { deadline_ms: u64, elapsed_ms: u64 },
    /// A recorded estimate could not be recomputed to its recorded digest
    /// ([`NetworkEstimate::digest`](crate::aggregate::NetworkEstimate::digest)):
    /// the model it ran on is unavailable, the recompute failed, or it
    /// produced a different value.
    NotReproduced {
        fingerprint: u64,
        digest: u64,
        reason: String,
    },
}

impl M3Error {
    /// Is this error worth retrying? Stage faults inherit their
    /// [`FaultKind::class`]; widespread-degradation errors are transient
    /// (the underlying per-sample faults may clear on a retry); malformed
    /// specs and expired deadlines are persistent.
    pub fn is_transient(&self) -> bool {
        match self {
            M3Error::StageFault { fault, .. } => fault.class() == FaultClass::Transient,
            M3Error::DegradationLimitExceeded { .. } | M3Error::NoUsableSamples { .. } => true,
            M3Error::InvalidSpec { .. }
            | M3Error::DeadlineExceeded { .. }
            | M3Error::NotReproduced { .. } => false,
        }
    }
}

impl fmt::Display for M3Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            M3Error::InvalidSpec { stage, reason } => {
                write!(f, "invalid spec at {stage}: {reason}")
            }
            M3Error::StageFault {
                stage,
                fault,
                detail,
            } => write!(f, "{fault} fault in {stage} stage: {detail}"),
            M3Error::DegradationLimitExceeded {
                degraded,
                total,
                max_frac,
            } => write!(
                f,
                "{degraded}/{total} samples degraded, exceeding the allowed fraction {max_frac}"
            ),
            M3Error::NoUsableSamples { total } => {
                write!(f, "all {total} path samples faulted; no usable samples")
            }
            M3Error::DeadlineExceeded {
                deadline_ms,
                elapsed_ms,
            } => write!(
                f,
                "deadline of {deadline_ms} ms exceeded ({elapsed_ms} ms elapsed)"
            ),
            M3Error::NotReproduced {
                fingerprint,
                digest,
                reason,
            } => write!(
                f,
                "estimate {digest:#018x} on model {fingerprint:#018x} not reproduced: {reason}"
            ),
        }
    }
}

impl std::error::Error for M3Error {}

/// Validation of user-supplied specifications before the pipeline runs.
///
/// Implementations must be total (never panic) and cheap relative to the
/// work the spec gates.
pub trait SpecValidation {
    fn validate_spec(&self) -> Result<(), M3Error>;
}

fn invalid(reason: impl Into<String>) -> M3Error {
    M3Error::InvalidSpec {
        stage: Stage::Validate,
        reason: reason.into(),
    }
}

impl SpecValidation for SimConfig {
    fn validate_spec(&self) -> Result<(), M3Error> {
        if self.mtu == 0 {
            return Err(invalid("mtu must be positive"));
        }
        if self.ack_size == 0 {
            return Err(invalid("ack_size must be positive"));
        }
        if self.init_window < self.mtu {
            return Err(invalid(format!(
                "init_window ({}) must be at least one MTU ({})",
                self.init_window, self.mtu
            )));
        }
        if self.buffer_size < self.mtu {
            return Err(invalid(format!(
                "buffer_size ({}) must hold at least one MTU ({})",
                self.buffer_size, self.mtu
            )));
        }
        if self.pfc_enabled {
            if self.pfc_threshold == 0 {
                return Err(invalid("pfc_threshold must be positive when PFC is on"));
            }
            if self.pfc_resume_gap > self.pfc_threshold {
                return Err(invalid(format!(
                    "pfc_resume_gap ({}) must not exceed pfc_threshold ({})",
                    self.pfc_resume_gap, self.pfc_threshold
                )));
            }
        }
        if self.rto == 0 {
            return Err(invalid("rto must be positive"));
        }
        let p = &self.params;
        if !(p.hpcc_eta > 0.0 && p.hpcc_eta <= 1.0) {
            return Err(invalid(format!(
                "hpcc_eta ({}) must be in (0, 1]",
                p.hpcc_eta
            )));
        }
        if p.hpcc_rate_ai == 0 {
            return Err(invalid("hpcc_rate_ai must be positive"));
        }
        if p.dcqcn_k_min >= p.dcqcn_k_max {
            return Err(invalid(format!(
                "dcqcn_k_min ({}) must be below dcqcn_k_max ({})",
                p.dcqcn_k_min, p.dcqcn_k_max
            )));
        }
        if p.timely_t_low >= p.timely_t_high {
            return Err(invalid(format!(
                "timely_t_low ({}) must be below timely_t_high ({})",
                p.timely_t_low, p.timely_t_high
            )));
        }
        if p.dctcp_k == 0 {
            return Err(invalid("dctcp_k must be positive"));
        }
        Ok(())
    }
}

/// Longest route [`validate_workload`] accepts: flowSim's hop indices are
/// `u16`, so hops `0..=u16::MAX`.
pub const MAX_PATH_HOPS: usize = u16::MAX as usize + 1;

/// Validate a workload against its topology: every flow must reference
/// existing nodes and carry a non-empty path of links that exist and chain
/// from `src` to `dst`. Decomposition derives each hop's direction from the
/// node the previous hop reached, so a discontiguous path would otherwise be
/// estimated over the wrong ports without any error. A path may have at
/// most [`MAX_PATH_HOPS`] hops: flowSim indexes a path's links with `u16`,
/// and a longer route would alias its hop indices.
pub fn validate_workload(topo: &Topology, flows: &[FlowSpec]) -> Result<(), M3Error> {
    if flows.is_empty() {
        return Err(invalid("workload has no flows"));
    }
    let num_nodes = topo.node_count();
    let num_links = topo.link_count();
    for f in flows {
        if f.src.index() >= num_nodes || f.dst.index() >= num_nodes {
            return Err(invalid(format!(
                "flow {}: endpoint out of range (src {}, dst {}, {} nodes)",
                f.id,
                f.src.index(),
                f.dst.index(),
                num_nodes
            )));
        }
        if f.src == f.dst {
            return Err(invalid(format!(
                "flow {}: src equals dst ({})",
                f.id,
                f.src.index()
            )));
        }
        if f.path.is_empty() {
            return Err(invalid(format!("flow {}: empty path", f.id)));
        }
        if f.path.len() > MAX_PATH_HOPS {
            return Err(invalid(format!(
                "flow {}: path has {} hops, more than the {MAX_PATH_HOPS} flowSim can index",
                f.id,
                f.path.len()
            )));
        }
        let mut cur = f.src;
        for (hop, &l) in f.path.iter().enumerate() {
            if l.index() >= num_links {
                return Err(invalid(format!(
                    "flow {}: path references link {} but topology has {}",
                    f.id,
                    l.index(),
                    num_links
                )));
            }
            let link = topo.link(l);
            cur = if link.a == cur {
                link.b
            } else if link.b == cur {
                link.a
            } else {
                return Err(invalid(format!(
                    "flow {}: path is not contiguous: hop {} (link {}) does not touch node {}",
                    f.id,
                    hop,
                    l.index(),
                    cur.index()
                )));
            };
        }
        if cur != f.dst {
            return Err(invalid(format!(
                "flow {}: path ends at node {}, not at dst {}",
                f.id,
                cur.index(),
                f.dst.index()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_netsim::prelude::*;

    #[test]
    fn default_config_is_valid() {
        assert!(SimConfig::default().validate_spec().is_ok());
    }

    #[test]
    fn bad_configs_are_rejected_with_reasons() {
        let c = SimConfig {
            mtu: 0,
            ..SimConfig::default()
        };
        assert!(matches!(
            c.validate_spec(),
            Err(M3Error::InvalidSpec {
                stage: Stage::Validate,
                ..
            })
        ));

        let mut c = SimConfig::default();
        c.buffer_size = c.mtu - 1;
        let err = c.validate_spec().unwrap_err();
        assert!(err.to_string().contains("buffer_size"), "{err}");

        let mut c = SimConfig::default();
        c.pfc_enabled = true;
        c.pfc_resume_gap = c.pfc_threshold + 1;
        assert!(c.validate_spec().is_err());

        let mut c = SimConfig::default();
        c.params.hpcc_eta = f64::NAN;
        assert!(c.validate_spec().is_err());

        let mut c = SimConfig::default();
        c.params.dcqcn_k_min = c.params.dcqcn_k_max;
        assert!(c.validate_spec().is_err());
    }

    #[test]
    fn workload_validation_catches_malformed_flows() {
        let mut topo = Topology::new();
        let a = topo.add_host();
        let s = topo.add_switch();
        let b = topo.add_host();
        let l1 = topo.add_link(a, s, GBPS, USEC);
        let l2 = topo.add_link(s, b, GBPS, USEC);

        assert!(validate_workload(&topo, &[]).is_err());

        let good = FlowSpec {
            id: 0,
            src: a,
            dst: b,
            size: 1000,
            arrival: 0,
            path: vec![l1, l2],
        };
        assert!(validate_workload(&topo, std::slice::from_ref(&good)).is_ok());

        let mut bad = good.clone();
        bad.src = NodeId(99);
        assert!(validate_workload(&topo, &[bad]).is_err());

        let mut bad = good.clone();
        bad.path = vec![];
        assert!(validate_workload(&topo, &[bad]).is_err());

        let mut bad = good.clone();
        bad.path = vec![LinkId(42)];
        assert!(validate_workload(&topo, &[bad]).is_err());

        let mut bad = good;
        bad.dst = bad.src;
        assert!(validate_workload(&topo, &[bad]).is_err());
    }

    #[test]
    fn fault_classes_partition_retryability() {
        use FaultClass::*;
        assert_eq!(FaultKind::BudgetExceeded.class(), Transient);
        assert_eq!(FaultKind::Panic.class(), Transient);
        assert_eq!(FaultKind::InvalidInput.class(), Persistent);
        assert_eq!(FaultKind::NonFinite.class(), Persistent);
        assert_eq!(FaultKind::Corruption.class(), Persistent);

        let transient = M3Error::StageFault {
            stage: Stage::FlowSim,
            fault: FaultKind::BudgetExceeded,
            detail: String::new(),
        };
        assert!(transient.is_transient());
        let persistent = M3Error::StageFault {
            stage: Stage::FlowSim,
            fault: FaultKind::InvalidInput,
            detail: String::new(),
        };
        assert!(!persistent.is_transient());
        assert!(!M3Error::InvalidSpec {
            stage: Stage::Validate,
            reason: String::new()
        }
        .is_transient());
        assert!(M3Error::NoUsableSamples { total: 3 }.is_transient());
        let deadline = M3Error::DeadlineExceeded {
            deadline_ms: 10,
            elapsed_ms: 25,
        };
        assert!(!deadline.is_transient());
        assert!(deadline.to_string().contains("10 ms"), "{deadline}");
    }

    #[test]
    fn errors_render_informatively() {
        let e = M3Error::StageFault {
            stage: Stage::FlowSim,
            fault: FaultKind::BudgetExceeded,
            detail: "event budget 3 exceeded".into(),
        };
        let s = e.to_string();
        assert!(
            s.contains("flowsim") && s.contains("budget-exceeded"),
            "{s}"
        );

        let e = M3Error::DegradationLimitExceeded {
            degraded: 3,
            total: 4,
            max_frac: 0.25,
        };
        assert!(e.to_string().contains("3/4"), "{e}");
    }
}
