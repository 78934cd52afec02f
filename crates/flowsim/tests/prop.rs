//! Property tests for the fluid engines: max-min invariants that must hold
//! for *any* workload, checked against randomly generated flow sets.

use m3_flowsim::prelude::*;
use proptest::prelude::*;

fn arb_flows(n_links: u16, max_n: usize) -> impl Strategy<Value = Vec<FluidFlow>> {
    prop::collection::vec(
        (
            1u64..200_000,
            0u64..3_000_000,
            0..n_links,
            0..n_links,
            1u8..4,
        ),
        1..max_n,
    )
    .prop_map(move |raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (size, arrival, a, b, cap_class))| {
                let (first, last) = (a.min(b), a.max(b));
                let cap = match cap_class {
                    1 => 10e9,
                    2 => 40e9,
                    _ => f64::INFINITY,
                };
                let mut f = FluidFlow {
                    id: i as u32,
                    size,
                    arrival,
                    first_link: first,
                    last_link: last,
                    rate_cap_bps: cap,
                    latency: 500,
                    ideal_fct: 0,
                };
                f.ideal_fct = fluid_ideal_fct(&topo4(), &f);
                f
            })
            .collect()
    })
}

/// The differential test's harder shapes: five cap classes (so one span
/// holds several groups and capped and uncapped groups share links), and
/// arrivals in bursts 20 ms apart, so every group drains between bursts and
/// refills with its service clock carried over.
fn arb_bursty_multicap_flows(n_links: u16, max_n: usize) -> impl Strategy<Value = Vec<FluidFlow>> {
    prop::collection::vec(
        (
            1u64..200_000,
            (0u64..3, 0u64..300_000),
            0..n_links,
            0..n_links,
            0usize..5,
        ),
        1..max_n,
    )
    .prop_map(move |raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (size, (burst, offset), a, b, cap_class))| {
                let mut f = FluidFlow {
                    id: i as u32,
                    size,
                    arrival: burst * 20_000_000 + offset,
                    first_link: a.min(b),
                    last_link: a.max(b),
                    rate_cap_bps: [1e9, 2.5e9, 10e9, 40e9, f64::INFINITY][cap_class],
                    latency: 500,
                    ideal_fct: 0,
                };
                f.ideal_fct = fluid_ideal_fct(&topo4(), &f);
                f
            })
            .collect()
    })
}

fn topo4() -> FluidTopology {
    FluidTopology::new(vec![10e9, 40e9, 10e9, 40e9])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Completeness: every flow finishes exactly once, in id order.
    #[test]
    fn every_flow_completes_once(flows in arb_flows(4, 80)) {
        let recs = simulate_fluid(&topo4(), &flows);
        prop_assert_eq!(recs.len(), flows.len());
        for (r, f) in recs.iter().zip(&flows) {
            prop_assert_eq!(r.id, f.id);
            prop_assert_eq!(r.size, f.size);
            prop_assert!(r.fct >= 1);
        }
    }

    /// No flow beats its unloaded FCT (max-min can only slow flows down).
    #[test]
    fn no_flow_beats_ideal(flows in arb_flows(4, 60)) {
        let recs = simulate_fluid(&topo4(), &flows);
        for r in &recs {
            prop_assert!(
                r.slowdown() >= 1.0 - 1e-6,
                "flow {} slowdown {}", r.id, r.slowdown()
            );
        }
    }

    /// Monotonicity in load on a single link (processor sharing): adding a
    /// competing flow never finishes any original flow earlier. (On
    /// multi-link topologies max-min FCTs are famously *not* monotone —
    /// throttling one flow can free a different bottleneck — so the
    /// property is only asserted for the single-link case.)
    #[test]
    fn adding_traffic_never_speeds_up_single_link(flows in arb_flows(1, 40)) {
        let topo = FluidTopology::new(vec![10e9]);
        let flows: Vec<FluidFlow> = flows.into_iter().map(|mut f| {
            f.first_link = 0;
            f.last_link = 0;
            f.ideal_fct = fluid_ideal_fct(&topo, &f);
            f
        }).collect();
        let base = simulate_fluid(&topo, &flows);
        let mut more = flows.clone();
        let mut extra = FluidFlow {
            id: flows.len() as u32,
            size: 1_000_000,
            arrival: 0,
            first_link: 0,
            last_link: 0,
            rate_cap_bps: f64::INFINITY,
            latency: 0,
            ideal_fct: 1,
        };
        extra.ideal_fct = fluid_ideal_fct(&topo, &extra);
        more.push(extra);
        let loaded = simulate_fluid(&topo, &more);
        for (b, l) in base.iter().zip(loaded.iter()) {
            // 2 ns absolute + 0.1% relative fluid slack.
            let floor = b.fct as f64 * (1.0 - 1e-3) - 2.0;
            prop_assert!(
                l.fct as f64 >= floor,
                "flow {} sped up: {} -> {}", b.id, b.fct, l.fct
            );
        }
    }

    /// Fast engine == reference engine (different algorithms, same model).
    #[test]
    fn differential_fast_vs_reference(flows in arb_flows(4, 50)) {
        let topo = topo4();
        let fast = simulate_fluid(&topo, &flows);
        let slow = simulate_fluid_reference(&topo, &flows);
        for (f, s) in fast.iter().zip(&slow) {
            let tol = 2.0 + 1e-5 * s.fct as f64;
            prop_assert!(
                (f.fct as f64 - s.fct as f64).abs() <= tol,
                "flow {}: {} vs {}", f.id, f.fct, s.fct
            );
        }
    }

    /// The same on bursty multi-cap-class workloads.
    #[test]
    fn differential_fast_vs_reference_bursty_multicap(
        flows in arb_bursty_multicap_flows(4, 60)
    ) {
        let topo = topo4();
        let fast = simulate_fluid(&topo, &flows);
        let slow = simulate_fluid_reference(&topo, &flows);
        prop_assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            prop_assert_eq!(f.id, s.id);
            let tol = 2.0 + 1e-5 * s.fct as f64;
            prop_assert!(
                (f.fct as f64 - s.fct as f64).abs() <= tol,
                "flow {}: {} vs {}", f.id, f.fct, s.fct
            );
        }
    }

    /// Scale invariance: doubling all capacities halves the bandwidth term.
    #[test]
    fn capacity_scaling(flows in arb_flows(2, 30)) {
        let slow_topo = FluidTopology::new(vec![10e9, 10e9]);
        let fast_topo = FluidTopology::new(vec![20e9, 20e9]);
        // Remove caps and latency so times scale exactly.
        let mk = |topo: &FluidTopology| -> Vec<FluidFlow> {
            flows.iter().map(|f| {
                let mut g = *f;
                g.last_link = g.last_link.min(1);
                g.first_link = g.first_link.min(g.last_link);
                g.rate_cap_bps = f64::INFINITY;
                g.latency = 0;
                g.arrival = 0; // simultaneous, so event pattern is identical
                g.ideal_fct = fluid_ideal_fct(topo, &g);
                g
            }).collect()
        };
        let r_slow = simulate_fluid(&slow_topo, &mk(&slow_topo));
        let r_fast = simulate_fluid(&fast_topo, &mk(&fast_topo));
        for (s, f) in r_slow.iter().zip(&r_fast) {
            let ratio = s.fct as f64 / f.fct.max(1) as f64;
            prop_assert!((1.9..2.1).contains(&ratio) || s.fct < 10,
                "flow {}: ratio {}", s.id, ratio);
        }
    }
}
