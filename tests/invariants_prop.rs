//! Property-based tests (proptest) over the workspace's core invariants:
//! max-min fairness, percentile math, feature maps, decomposition, and
//! aggregation.

use m3::core::prelude::*;
use m3::flowsim::prelude::*;
use m3::netsim::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn arb_fluid_flow(n_links: u16) -> impl Strategy<Value = FluidFlow> {
    (
        0u64..50_000,
        0u64..2_000_000,
        0..n_links,
        0..n_links,
        prop::bool::ANY,
    )
        .prop_map(move |(size, arrival, a, b, capped)| {
            let (first, last) = (a.min(b), a.max(b));
            FluidFlow {
                id: 0, // assigned by caller
                size,
                arrival,
                first_link: first,
                last_link: last,
                rate_cap_bps: if capped { 10e9 } else { f64::INFINITY },
                latency: 1_000,
                ideal_fct: 0,
            }
        })
}

/// Five switches with one detour: s1 - s2 - s3 - s4 in a line, and s5
/// hanging between s2 and s3. Hosts have one access link each.
mod detour_fabric {
    use m3::netsim::prelude::*;

    /// Routes as node names; every template is also used reversed.
    pub const TEMPLATES: [&[&str]; 7] = [
        &["h1", "s1", "s2", "s3", "s4", "h4"],
        // Leaves the first route at s2 and rejoins it at s3.
        &["h1", "s1", "s2", "s5", "s3", "s4", "h4"],
        // Shares only a suffix with the first.
        &["h2", "s2", "s3", "s4", "h6"],
        &["h5", "s5", "s3", "s4", "h4"],
        &["h2", "s2", "s5", "h5"],
        &["h3", "s3", "s2", "s1", "h1"],
        // Loops s2 -> s3 -> s5 -> s2 and crosses s2 -> s3 a second time.
        &["h2", "s2", "s3", "s5", "s2", "s3", "s4", "h4"],
    ];

    const NODES: [&str; 11] = [
        "s1", "s2", "s3", "s4", "s5", "h1", "h2", "h3", "h4", "h5", "h6",
    ];
    const LINKS: [(&str, &str); 11] = [
        ("s1", "s2"),
        ("s2", "s3"),
        ("s3", "s4"),
        ("s2", "s5"),
        ("s5", "s3"),
        ("h1", "s1"),
        ("h2", "s2"),
        ("h3", "s3"),
        ("h4", "s4"),
        ("h5", "s5"),
        ("h6", "s4"),
    ];

    fn node(name: &str) -> NodeId {
        NodeId(NODES.iter().position(|n| *n == name).unwrap() as u32)
    }

    /// One flow per pick: template `pick / 2`, reversed when `pick` is odd.
    pub fn build(picks: &[usize]) -> (Topology, Vec<FlowSpec>) {
        let mut topo = Topology::new();
        for name in NODES {
            if name.starts_with('s') {
                topo.add_switch();
            } else {
                topo.add_host();
            }
        }
        for (a, b) in LINKS {
            topo.add_link(node(a), node(b), 10 * GBPS, USEC);
        }
        let link_between = |a: &str, b: &str| {
            let i = LINKS
                .iter()
                .position(|&l| l == (a, b) || l == (b, a))
                .unwrap();
            LinkId(i as u32)
        };
        let flows = picks
            .iter()
            .enumerate()
            .map(|(i, &pick)| {
                let mut route = TEMPLATES[pick / 2].to_vec();
                if pick % 2 == 1 {
                    route.reverse();
                }
                FlowSpec {
                    id: i as u32,
                    src: node(route[0]),
                    dst: node(route[route.len() - 1]),
                    size: 1_000 + 37 * i as u64,
                    arrival: 500 * i as u64,
                    path: route.windows(2).map(|w| link_between(w[0], w[1])).collect(),
                }
            })
            .collect();
        (topo, flows)
    }

    /// `n` flows over the templates, picked by a seeded generator.
    pub fn seeded(n: usize, seed: u64) -> (Topology, Vec<FlowSpec>) {
        let mut state = seed;
        let picks: Vec<usize> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize % (2 * TEMPLATES.len())
            })
            .collect();
        build(&picks)
    }
}

/// `groups`, `foreground_of`, `background_of` (spans included),
/// `sample_paths` and `dirty_groups` of `idx` against an O(F^2) reference
/// that intersects directed-port sets pairwise. `links` are the link
/// indices whose deltas are checked (out-of-range ones touch nothing).
fn check_index_against_oracle(
    topo: &Topology,
    flows: &[FlowSpec],
    idx: &PathIndex,
    links: &[u32],
) -> Result<(), TestCaseError> {
    let ports: Vec<Vec<usize>> = flows.iter().map(|f| flow_ports(topo, f)).collect();
    let shares_port = |a: usize, b: usize| ports[a].iter().any(|p| ports[b].contains(p));

    // Groups: a flow joins the first earlier flow with its exact port
    // sequence, else founds a group. Ascending reps, ascending members.
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for i in 0..flows.len() {
        match groups.iter_mut().find(|g| ports[g[0] as usize] == ports[i]) {
            Some(g) => g.push(i as u32),
            None => groups.push(vec![i as u32]),
        }
    }
    prop_assert_eq!(idx.num_paths(), groups.len());
    for (g, members) in groups.iter().enumerate() {
        prop_assert_eq!(idx.groups[g].rep, members[0]);
        prop_assert_eq!(idx.foreground_of(g), &members[..]);
        prop_assert_eq!(idx.rep_flow(g, flows).id, flows[members[0] as usize].id);

        // Background: every other flow sharing a directed port, with the
        // first and last hop of the path whose port it crosses.
        let rep = members[0] as usize;
        let expect: Vec<(u32, usize, usize)> = (0..flows.len())
            .filter(|&f| ports[f] != ports[rep])
            .filter_map(|f| {
                let mut shared =
                    (0..ports[rep].len()).filter(|&h| ports[f].contains(&ports[rep][h]));
                let first = shared.next()?;
                Some((f as u32, first, shared.next_back().unwrap_or(first)))
            })
            .collect();
        prop_assert_eq!(idx.background_of(g), expect, "background of group {}", g);
    }

    // Sampling: uniform over flows, mapped to the flow's group through the
    // running foreground counts.
    let mut rng = SmallRng::seed_from_u64(5 ^ 0x736d706c);
    let mut running = 0u64;
    let weights: Vec<u64> = (groups.iter())
        .map(|g| {
            running += g.len() as u64;
            running
        })
        .collect();
    let expect: Vec<usize> = (0..40)
        .map(|_| {
            let u = rng.gen_range(0..flows.len() as u64);
            weights.partition_point(|&c| c <= u)
        })
        .collect();
    prop_assert_eq!(idx.sample_paths(40, 5), expect);

    // Dirty sets: the groups sharing a port with any flow the delta touches.
    let dirty_for = |touched: Vec<usize>| -> Vec<usize> {
        (0..groups.len())
            .filter(|&g| {
                touched
                    .iter()
                    .any(|&t| shares_port(t, groups[g][0] as usize))
            })
            .collect()
    };
    for &link in links {
        let crossing = (0..flows.len())
            .filter(|&f| flows[f].path.iter().any(|l| l.0 == link))
            .collect();
        let delta = ScenarioDelta::LinkCapacity {
            link,
            bandwidth: 5 * GBPS,
        };
        prop_assert_eq!(
            idx.dirty_groups(flows, &delta),
            dirty_for(crossing),
            "{:?}",
            delta
        );
    }
    let (src, dst) = (flows[0].src.0, flows[flows.len() / 2].dst.0);
    for (src, dst) in [
        (Some(src), None),
        (None, Some(dst)),
        (Some(src), Some(dst)),
        (None, None),
    ] {
        let matching = (0..flows.len())
            .filter(|&f| {
                src.is_none_or(|s| flows[f].src.0 == s) && dst.is_none_or(|d| flows[f].dst.0 == d)
            })
            .collect();
        let delta = ScenarioDelta::TrafficShift {
            src,
            dst,
            num: 3,
            den: 2,
        };
        prop_assert_eq!(
            idx.dirty_groups(flows, &delta),
            dirty_for(matching),
            "{:?}",
            delta
        );
    }
    let knob = ScenarioDelta::CcKnob {
        knob: Knob::InitWindow,
        value: 20_000.0,
    };
    prop_assert_eq!(
        idx.dirty_groups(flows, &knob),
        (0..groups.len()).collect::<Vec<_>>()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every fluid flow completes, FCTs are at least the unloaded FCT, and
    /// the fast engine matches the O(F^2) reference.
    #[test]
    fn fluid_fast_matches_reference(
        raw in prop::collection::vec(arb_fluid_flow(3), 1..60)
    ) {
        let topo = FluidTopology::new(vec![10e9, 40e9, 10e9]);
        let flows: Vec<FluidFlow> = raw.into_iter().enumerate().map(|(i, mut f)| {
            f.id = i as u32;
            f.ideal_fct = fluid_ideal_fct(&topo, &f);
            f
        }).collect();
        let fast = simulate_fluid(&topo, &flows);
        let slow = simulate_fluid_reference(&topo, &flows);
        prop_assert_eq!(fast.len(), flows.len());
        for (f, s) in fast.iter().zip(&slow) {
            prop_assert_eq!(f.id, s.id);
            let tol = 2.0 + 1e-5 * s.fct as f64;
            prop_assert!((f.fct as f64 - s.fct as f64).abs() <= tol,
                "flow {}: fast {} vs ref {}", f.id, f.fct, s.fct);
            prop_assert!(f.slowdown() >= 1.0 - 1e-6);
        }
    }

    /// Max-min feasibility on a single link: the makespan can never beat
    /// the work conservation bound (total bytes / capacity).
    #[test]
    fn fluid_single_link_work_conservation(
        sizes in prop::collection::vec(1u64..100_000, 1..40)
    ) {
        let topo = FluidTopology::new(vec![8e9]); // 1 byte/ns
        let flows: Vec<FluidFlow> = sizes.iter().enumerate().map(|(i, &size)| FluidFlow {
            id: i as u32, size, arrival: 0, first_link: 0, last_link: 0,
            rate_cap_bps: f64::INFINITY, latency: 0, ideal_fct: 1,
        }).collect();
        let recs = simulate_fluid(&topo, &flows);
        let total: u64 = sizes.iter().map(|&s| s.max(1)).sum();
        let makespan = recs.iter().map(|r| r.fct).max().unwrap();
        prop_assert!(makespan + 2 >= total, "makespan {makespan} < work bound {total}");
        // And the last completion is at most total work (max-min never idles
        // a busy link).
        prop_assert!(makespan <= total + 2, "makespan {makespan} > {total}: link idled");
    }

    /// Percentile vectors are monotone and bounded by the sample extremes.
    #[test]
    fn percentile_vector_monotone_and_bounded(
        mut v in prop::collection::vec(0.0f64..1e6, 1..300)
    ) {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pv = m3::netsim::stats::percentile_vector(&v);
        for w in pv.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        prop_assert!(pv[0] >= v[0] - 1e-9);
        prop_assert!(pv[99] <= v[v.len() - 1] + 1e-9);
    }

    /// Feature maps conserve flow counts and keep rows monotone.
    #[test]
    fn feature_map_invariants(
        samples in prop::collection::vec((1u64..10_000_000, 1.0f64..500.0), 0..200)
    ) {
        let m = FeatureMap::feature(&samples);
        prop_assert_eq!(m.total_flows(), samples.len());
        for b in 0..SIZE_BUCKETS.len() {
            let row = m.bucket(b);
            if m.counts[b] == 0 {
                prop_assert!(row.iter().all(|&v| v == 0.0));
            } else {
                for w in row.windows(2) {
                    prop_assert!(w[0] <= w[1]);
                }
                prop_assert!(row[0] >= 1.0);
            }
        }
        // Log encoding roundtrip: decoded non-empty entries within 0.1%.
        let enc = m.encode_log();
        let dec = m3::core::features::decode_log(&enc);
        for (i, (&orig, &back)) in m.data.iter().zip(&dec).enumerate() {
            if orig > 0.0 {
                prop_assert!((orig - back).abs() / orig < 1e-3, "idx {i}: {orig} vs {back}");
            }
        }
    }

    /// Aggregation: overall quantiles are bounded by bucket extremes and
    /// monotone in p.
    #[test]
    fn aggregation_quantiles_monotone(
        samples in prop::collection::vec((1u64..1_000_000, 1.0f64..100.0), 1..150)
    ) {
        let d = PathDistribution::from_samples(&samples);
        let est = NetworkEstimate::aggregate(&[d]);
        let qs: Vec<f64> = [1.0, 25.0, 50.0, 75.0, 99.0, 100.0]
            .iter().map(|&p| est.overall_quantile(p)).collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9);
        }
        let lo = samples.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
        let hi = samples.iter().map(|s| s.1).fold(0.0f64, f64::max);
        prop_assert!(qs[0] >= lo - 1e-9 && qs[5] <= hi + 1e-9);
    }

    /// Empirical CDF sampling: inverse is monotone in u and respects table
    /// bounds.
    #[test]
    fn cdf_table_inverse_monotone(us in prop::collection::vec(0.0f64..1.0, 1..50)) {
        use m3::workload::prelude::*;
        let dist = SizeDistribution::hadoop();
        if let SizeDistribution::Empirical(t) = &dist {
            let mut sorted = us.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let vals: Vec<u64> = sorted.iter().map(|&u| t.inverse(u)).collect();
            for w in vals.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            prop_assert!(*vals.last().unwrap() <= 3_000_000);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The CSR index against the brute-force oracle on random fat-tree
    /// workloads (ECMP routes, mostly distinct).
    #[test]
    fn decomposition_matches_oracle_on_fat_trees(seed in 0u64..500, n_flows in 50usize..700) {
        use m3::workload::prelude::*;
        let ft = FatTree::build(FatTreeSpec::small(2));
        let routing = Routing::new(&ft.topo);
        let w = generate(&ft, &routing, &Scenario {
            n_flows,
            matrix_name: "B".into(),
            sizes: SizeDistribution::web_server(),
            sigma: 1.0,
            max_load: 0.4,
            seed,
        });
        let idx = PathIndex::build(&ft.topo, &w.flows);
        for &g in idx.sample_paths(10, seed).iter() {
            prop_assert!(g < idx.num_paths());
        }
        // A few links a flow crosses and one none does.
        let links: Vec<u32> = w.flows[0].path.iter().map(|l| l.0).chain([u32::MAX]).collect();
        check_index_against_oracle(&ft.topo, &w.flows, &idx, &links)?;
    }

    /// The same on a hand-built fabric whose routes are drawn from
    /// templates, so groups have many members and the awkward shapes all
    /// occur: reverse-direction traffic over the same links, routes
    /// sharing only a suffix, and a detour that leaves and rejoins another
    /// route (a non-contiguous intersection, widened to its span).
    #[test]
    fn decomposition_matches_oracle_on_awkward_routes(
        picks in prop::collection::vec(0usize..2 * detour_fabric::TEMPLATES.len(), 1..90)
    ) {
        let (topo, flows) = detour_fabric::build(&picks);
        prop_assert!(validate_workload(&topo, &flows).is_ok());
        let idx = PathIndex::build(&topo, &flows);
        let links: Vec<u32> = (0..topo.link_count() as u32 + 1).collect();
        check_index_against_oracle(&topo, &flows, &idx, &links)?;
    }

    /// Many flows over few routes, at flow counts on either side of a power
    /// of two (the route table has the next power of two of at least 2F
    /// slots) and at F = 1.
    #[test]
    fn decomposition_matches_oracle_around_table_sizes(seed in 0u64..1_000) {
        for n in [1usize, 2, 3, 31, 32, 33, 127, 128, 129, 511, 512, 513] {
            let (topo, flows) = detour_fabric::seeded(n, seed);
            prop_assert!(validate_workload(&topo, &flows).is_ok());
            let idx = PathIndex::build(&topo, &flows);
            prop_assert!(idx.num_paths() <= 2 * detour_fabric::TEMPLATES.len());
            let links: Vec<u32> = (0..topo.link_count() as u32 + 1).collect();
            check_index_against_oracle(&topo, &flows, &idx, &links)?;
        }
    }

    /// Packet simulator sanity on random single-switch workloads: all flows
    /// complete, slowdowns >= ~1, determinism holds.
    #[test]
    fn netsim_random_workload_sanity(
        sizes in prop::collection::vec(50u64..200_000, 1..30),
        seed in 0u64..100
    ) {
        let mut topo = Topology::new();
        let s = topo.add_switch();
        let dst = topo.add_host();
        let dst_l = topo.add_link(dst, s, 10 * GBPS, USEC);
        let mut flows = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let h = topo.add_host();
            let l = topo.add_link(h, s, 10 * GBPS, USEC);
            flows.push(FlowSpec {
                id: i as u32,
                src: h,
                dst,
                size,
                arrival: (seed * 31 + i as u64 * 977) % 100_000,
                path: vec![l, dst_l],
            });
        }
        let out1 = run_simulation(&topo, SimConfig::default(), flows.clone());
        let out2 = run_simulation(&topo, SimConfig::default(), flows);
        prop_assert_eq!(out1.records.len(), sizes.len());
        for (a, b) in out1.records.iter().zip(&out2.records) {
            prop_assert_eq!(a.fct, b.fct);
            prop_assert!(a.slowdown() >= 0.99, "slowdown {}", a.slowdown());
        }
    }
}
