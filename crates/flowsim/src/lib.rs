//! # m3-flowsim
//!
//! flowSim: the fast max-min fair fluid flow-level simulator of the m3 paper
//! (Algorithm 1, Appendix A). Flows are "fluid": at every instant each
//! active flow proceeds at its max-min fair share of the parking-lot links
//! it traverses; rates are recomputed on every arrival and completion. The
//! flow completes when the integrated rate consumes its size, plus a fixed
//! end-to-end latency factor.
//!
//! flowSim deliberately ignores queueing, packet boundaries, and congestion
//! control — it is *not* an accurate short-flow simulator (Fig. 6), but its
//! per-size-bucket slowdown percentiles are the workload feature map that
//! m3's ML model corrects (§2.2, §3.3).
//!
//! One engine, [`fluid`], runs either route kind — a contiguous segment of
//! a parking lot (a sampled path, as m3 uses it) or any set of links (the
//! whole network, the global-flowSim baseline) — with per-event work
//! proportional to the groups holding flows (see its module docs).
//! [`fluid::simulate_fluid`] runs a parking lot and panics on invalid input;
//! [`fluid::try_simulate_staged`] runs a model staged in a reusable
//! [`fluid::FluidWorkspace`], with typed errors, a [`budget::FluidBudget`],
//! an optional [`probe::FluidProbe`] and run stats.
//! [`reference::simulate_fluid_reference`] is a straightforward O(F^2)
//! implementation the tests compare the engine against.
//!
//! ```
//! use m3_flowsim::prelude::*;
//!
//! let topo = FluidTopology::new(vec![10e9]); // one 10 Gbps link
//! let flow = FluidFlow {
//!     id: 0, size: 10_000, arrival: 0,
//!     first_link: 0, last_link: 0,
//!     rate_cap_bps: f64::INFINITY, latency: 0,
//!     ideal_fct: fluid_ideal_fct(&FluidTopology::new(vec![10e9]), &FluidFlow {
//!         id: 0, size: 10_000, arrival: 0, first_link: 0, last_link: 0,
//!         rate_cap_bps: f64::INFINITY, latency: 0, ideal_fct: 0 }),
//! };
//! let records = simulate_fluid(&topo, &[flow]);
//! assert_eq!(records[0].fct, 8_000); // 10 kB at 10 Gbps
//! ```

// Robustness policy: non-test library code must not unwrap/expect — errors
// either propagate as typed Results or use an explicitly justified panic.
// scripts/check.sh runs clippy with -D warnings, making these hard errors.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;
pub mod fluid;
pub mod probe;
pub mod reference;
pub mod types;

pub mod prelude {
    pub use crate::budget::{FluidBudget, FluidError, FluidRunStats, DEFAULT_WALL_CHECK_STRIDE};
    pub use crate::fluid::{simulate_fluid, try_simulate_staged, FluidWorkspace};
    pub use crate::probe::{FluidProbe, FluidProbeSink};
    pub use crate::reference::simulate_fluid_reference;
    pub use crate::types::{fluid_ideal_fct, FluidFctRecord, FluidFlow, FluidTopology};
}
