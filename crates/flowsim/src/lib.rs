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
//! Two engines are provided:
//! * [`fluid::simulate_fluid`] — the fast grouped engine (per-event work
//!   proportional to the groups that currently hold flows; see its module
//!   docs for the cost model).
//! * [`reference::simulate_fluid_reference`] — a straightforward O(F^2)
//!   implementation used to differentially test the fast engine.
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
pub mod general;
pub mod probe;
pub mod reference;
pub mod types;

pub mod prelude {
    pub use crate::budget::{FluidBudget, FluidError, FluidRunStats, DEFAULT_WALL_CHECK_STRIDE};
    pub use crate::fluid::{
        simulate_fluid, try_simulate_fluid, try_simulate_fluid_stats, try_simulate_fluid_traced,
        try_simulate_fluid_traced_into, try_simulate_staged, FluidWorkspace,
    };
    pub use crate::general::{
        simulate_fluid_general, try_simulate_fluid_general, try_simulate_fluid_general_into,
        GeneralFluidFlow, GeneralFluidWorkspace,
    };
    pub use crate::probe::{FluidProbe, FluidProbeSink};
    pub use crate::reference::simulate_fluid_reference;
    pub use crate::types::{fluid_ideal_fct, FluidFctRecord, FluidFlow, FluidTopology};
}
