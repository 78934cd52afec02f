//! Input and output types for the fluid simulator.

use serde::{Deserialize, Serialize};

/// Nanoseconds (matching `m3_netsim::units::Nanos`; kept local so this crate
/// stands alone).
pub type Nanos = u64;
/// Bytes.
pub type Bytes = u64;

/// The fluid model of a path-level topology: an ordered sequence of link
/// capacities (bits/sec). Flows occupy a contiguous segment of these links —
/// exactly the parking-lot structure of Fig. 7(a).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FluidTopology {
    /// Per-link capacity in bits/sec, in path order.
    pub link_bps: Vec<f64>,
}

impl FluidTopology {
    /// Panics unless `link_bps` is a valid topology: at least one link, every
    /// capacity positive and finite.
    pub fn new(link_bps: Vec<f64>) -> Self {
        if let Err(reason) = Self::check(&link_bps) {
            panic!("{reason}");
        }
        FluidTopology { link_bps }
    }

    /// Why `link_bps` is not a valid topology, if it is not.
    pub(crate) fn check(link_bps: &[f64]) -> Result<(), String> {
        if link_bps.is_empty() {
            return Err("need at least one link".to_string());
        }
        match link_bps.iter().position(|&b| !(b > 0.0 && b.is_finite())) {
            Some(l) => Err(format!(
                "link {l} capacity {} must be positive and finite",
                link_bps[l]
            )),
            None => Ok(()),
        }
    }

    pub fn num_links(&self) -> usize {
        self.link_bps.len()
    }
}

/// One fluid flow: a contiguous link segment `[first_link, last_link]`, a
/// per-flow rate cap modeling its private synthetic attachment links (§3.2),
/// and a fixed end-to-end latency factor added to the bandwidth term
/// (Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FluidFlow {
    pub id: u32,
    pub size: Bytes,
    pub arrival: Nanos,
    /// Index of the first path link traversed.
    pub first_link: u16,
    /// Index of the last path link traversed (inclusive).
    pub last_link: u16,
    /// Rate cap in bits/sec: min(source NIC, destination NIC) for flows
    /// whose attachment links are private. Use `f64::INFINITY` for none.
    pub rate_cap_bps: f64,
    /// Propagation latency added to the completion time.
    pub latency: Nanos,
    /// Ideal (unloaded) FCT used as the slowdown denominator; computed by
    /// the caller with the same definition as the packet-level simulator.
    pub ideal_fct: Nanos,
}

impl FluidFlow {
    pub fn links(&self) -> std::ops::RangeInclusive<usize> {
        self.first_link as usize..=self.last_link as usize
    }

    /// Why the flow is not valid over a topology of `n_links` links, if it
    /// is not. A NaN rate cap fails the `> 0.0` comparison, so NaN is
    /// rejected here too — before it can poison the event loop.
    pub(crate) fn check_links(&self, n_links: usize) -> Result<(), String> {
        if self.first_link > self.last_link {
            return Err("inverted segment".to_string());
        }
        if self.last_link as usize >= n_links {
            return Err("segment outside topology".to_string());
        }
        self.check_cap()
    }

    /// The rate-cap half of [`check_links`](Self::check_links).
    pub(crate) fn check_cap(&self) -> Result<(), String> {
        if self.rate_cap_bps.is_nan() || self.rate_cap_bps <= 0.0 {
            return Err(format!("rate cap {} not positive", self.rate_cap_bps));
        }
        Ok(())
    }

    pub fn validate(&self, topo: &FluidTopology) {
        if let Err(reason) = self.check_links(topo.num_links()) {
            panic!("flow {}: {reason}", self.id);
        }
    }
}

/// Completion record produced by the fluid simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FluidFctRecord {
    pub id: u32,
    pub size: Bytes,
    pub arrival: Nanos,
    pub fct: Nanos,
    pub ideal_fct: Nanos,
}

impl FluidFctRecord {
    pub fn slowdown(&self) -> f64 {
        self.fct as f64 / self.ideal_fct.max(1) as f64
    }
}

/// Ideal FCT in the pure fluid model: size at the unloaded max-min rate
/// (bottleneck of segment links and the cap) plus the latency factor. Used
/// when no packet-level ideal is supplied.
pub fn fluid_ideal_fct(topo: &FluidTopology, flow: &FluidFlow) -> Nanos {
    let mut bw = flow.rate_cap_bps;
    for l in flow.links() {
        bw = bw.min(topo.link_bps[l]);
    }
    let bytes_per_ns = bw / 8e9;
    (flow.size.max(1) as f64 / bytes_per_ns).ceil() as Nanos + flow.latency
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluid_ideal_uses_bottleneck() {
        let topo = FluidTopology::new(vec![10e9, 1e9, 10e9]);
        let f = FluidFlow {
            id: 0,
            size: 1_000_000,
            arrival: 0,
            first_link: 0,
            last_link: 2,
            rate_cap_bps: f64::INFINITY,
            latency: 500,
            ideal_fct: 0,
        };
        // 1 MB at 1 Gbps = 8 ms, plus 500 ns latency.
        assert_eq!(fluid_ideal_fct(&topo, &f), 8_000_000 + 500);
    }

    #[test]
    fn fluid_ideal_respects_cap() {
        let topo = FluidTopology::new(vec![10e9]);
        let f = FluidFlow {
            id: 0,
            size: 1000,
            arrival: 0,
            first_link: 0,
            last_link: 0,
            rate_cap_bps: 1e9,
            latency: 0,
            ideal_fct: 0,
        };
        assert_eq!(fluid_ideal_fct(&topo, &f), 8000);
    }

    #[test]
    #[should_panic(expected = "inverted segment")]
    fn validate_rejects_inverted() {
        let topo = FluidTopology::new(vec![1e9, 1e9]);
        let f = FluidFlow {
            id: 3,
            size: 1,
            arrival: 0,
            first_link: 1,
            last_link: 0,
            rate_cap_bps: 1e9,
            latency: 0,
            ideal_fct: 1,
        };
        f.validate(&topo);
    }
}
