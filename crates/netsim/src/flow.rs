//! Flow specifications and per-flow results.

use crate::topology::{LinkId, NodeId};
use crate::units::{Bytes, Nanos};
use serde::{Deserialize, Serialize};

/// Identifier of a flow, dense within one simulation.
pub type FlowId = u32;

/// A flow to simulate: endpoints, size, arrival time, and its static route
/// (computed once by ECMP and shared by every estimator so all methods see
/// identical routing).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowSpec {
    pub id: FlowId,
    pub src: NodeId,
    pub dst: NodeId,
    pub size: Bytes,
    pub arrival: Nanos,
    /// Links traversed in order from src to dst (including access links).
    pub path: Vec<LinkId>,
}

impl FlowSpec {
    /// Number of links traversed.
    pub fn hops(&self) -> usize {
        self.path.len()
    }
}

/// Result record for one completed flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FctRecord {
    pub id: FlowId,
    pub size: Bytes,
    pub arrival: Nanos,
    /// Time from arrival until the last data byte reached the receiver.
    pub fct: Nanos,
    /// Unloaded-network FCT over the same path
    /// ([`Topology::ideal_fct`](crate::topology::Topology::ideal_fct)).
    pub ideal_fct: Nanos,
}

impl FctRecord {
    /// FCT slowdown: measured FCT normalized by the ideal FCT (§1). Always
    /// >= ~1 up to integer rounding.
    pub fn slowdown(&self) -> f64 {
        self.fct as f64 / self.ideal_fct.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_ratio() {
        let r = FctRecord {
            id: 0,
            size: 1000,
            arrival: 0,
            fct: 3000,
            ideal_fct: 1500,
        };
        assert!((r.slowdown() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_guards_zero_ideal() {
        let r = FctRecord {
            id: 0,
            size: 1,
            arrival: 0,
            fct: 10,
            ideal_fct: 0,
        };
        assert!(r.slowdown().is_finite());
    }
}
