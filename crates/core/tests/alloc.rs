//! Allocation pins for the decomposition index: `PathIndex::build` is a few
//! flat arrays plus the group list's growth, with no allocation per route or
//! per flow, and `background_of` allocates its output and nothing else; for
//! the flowSim stage: a warm `try_run_flowsim_traced_into` stages the fluid
//! model in its workspace and allocates only the `FlowsimResult` it returns;
//! and for the feature maps: `FeatureMap::build` makes the same few allocations
//! whatever the sample count and however many buckets are non-empty, and
//! `encode_log` allocates its output only.
//!
//! This file holds exactly one #[test] so no concurrent test thread can
//! allocate while the counter is armed.

use m3_core::prelude::*;
use m3_flowsim::prelude::{FluidBudget, FluidWorkspace};
use m3_netsim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) `f` performs.
fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst))
}

/// Reallocations a `Vec` of `len` elements makes growing from empty.
fn growth_steps(len: usize) -> u64 {
    u64::from(usize::BITS - len.leading_zeros()) + 1
}

/// A hand-built path scenario: `n_fg` full-span foreground flows and `n_bg`
/// background flows over pseudo-random sub-spans of `hops` links.
fn path_scenario(hops: usize, n_fg: usize, n_bg: usize, seed: u64) -> PathScenarioData {
    let mut state = seed;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut flow = |i: usize, first_hop: usize, last_hop: usize| {
        let size = 200 + rng() % 80_000;
        PathFlow {
            global_idx: i as u32,
            size,
            arrival: i as u64 * 900 + rng() % 500,
            first_hop,
            last_hop,
            nic_cap: 10 * GBPS,
            latency: 4 * USEC,
            ideal_fct: 4 * USEC + size * 8 / 10,
        }
    };
    let fg = (0..n_fg).map(|i| flow(i, 0, hops - 1)).collect();
    let bg = (0..n_bg)
        .map(|i| {
            let (a, b) = (i % hops, (i * 7 + 3) % hops);
            flow(i, a.min(b), a.max(b))
        })
        .collect();
    PathScenarioData {
        link_bw: (0..hops)
            .map(|h| if h % 2 == 0 { 10 * GBPS } else { 40 * GBPS })
            .collect(),
        link_delay: vec![USEC; hops],
        fg,
        bg,
        fg_base_rtt: 8 * USEC,
        fg_bottleneck: 10 * GBPS,
    }
}

fn flowsim_allocates_only_its_result() {
    let budget = FluidBudget::default();
    let wide = path_scenario(6, 200, 900, 5);
    let narrow = path_scenario(2, 40, 60, 9);
    let expect_wide = wide.run_flowsim();
    let expect_narrow = narrow.run_flowsim();

    // One workspace across two differently shaped scenarios: whatever the
    // previous path staged (flows, links, groups, table) must not leak.
    let mut ws = FluidWorkspace::new();
    let mut records = Vec::new();
    for _ in 0..2 {
        for (data, expect) in [(&wide, &expect_wide), (&narrow, &expect_narrow)] {
            let (got, _) = data
                .try_run_flowsim_traced_into(&budget, None, &mut ws, &mut records)
                .unwrap();
            assert_eq!(got.fg, expect.fg);
            assert_eq!(got.bg_per_hop, expect.bg_per_hop);
        }
    }
    for (data, expect) in [(&wide, &expect_wide), (&narrow, &expect_narrow)] {
        let (out, allocs) = count(|| {
            data.try_run_flowsim_traced_into(&budget, None, &mut ws, &mut records)
                .unwrap()
        });
        assert_eq!(out.0.fg, expect.fg);
        assert_eq!(out.0.bg_per_hop, expect.bg_per_hop);
        // The result is the foreground vector, the per-hop list and one
        // exactly-sized vector per hop; the split also counts spans per hop
        // in one small scratch vector. No `Vec<FluidFlow>`, no topology, no
        // growth reallocations.
        let bound = data.num_hops() as u64 + 3;
        assert!(
            allocs <= bound,
            "warm flowSim run on {} hops made {allocs} allocations; want at most {bound}",
            data.num_hops()
        );
    }
    assert_eq!(ws.rearmed_completions(), 0);
}

#[test]
fn allocation_pins() {
    index_allocates_flat_arrays_and_background_only_its_output();
    flowsim_allocates_only_its_result();
    feature_maps_allocate_a_constant_number();
}

fn feature_maps_allocate_a_constant_number() {
    for n in [1usize, 7, 1_000, 50_000] {
        // One non-empty bucket, then every bucket non-empty.
        let one: Vec<(u64, f64)> = (0..n).map(|i| (100, 1.0 + (i % 13) as f64)).collect();
        let spread: Vec<(u64, f64)> = (0..n)
            .map(|i| (SIZE_BUCKETS[i % SIZE_BUCKETS.len()], 1.0 + (i % 13) as f64))
            .collect();
        for samples in [&one, &spread] {
            let (map, allocs) = count(|| FeatureMap::feature(samples));
            let nonempty = map.counts.iter().filter(|&&c| c > 0).count();
            // The map's values and counts, and the build's per-sample bucket
            // indices, flat sample buffer and per-bucket offsets.
            assert_eq!(
                allocs, 5,
                "FeatureMap::build over {n} samples in {nonempty} buckets made {allocs} allocations"
            );
            let (_, allocs) = count(|| map.encode_log());
            assert_eq!(allocs, 1, "encode_log made {allocs} allocations");
        }
    }
}

/// `PathIndex::build`'s allocations on `flows`, checked against the bound:
/// the flat arrays and their scratch (a constant), plus the growth of the
/// group list. Returns the index.
fn build_within_bound(topo: &Topology, flows: &[FlowSpec], expect_groups: usize) -> PathIndex {
    validate_workload(topo, flows).unwrap();
    let (idx, build_allocs) = count(|| PathIndex::build(topo, flows));
    let groups = idx.num_paths();
    assert_eq!(groups, expect_groups);
    // Three CSR tables (six arrays), flow -> group, the route hashes, the
    // route table and two counting-sort cursors, with room to spare; then
    // the group list, grown from empty.
    let bound = 16 + growth_steps(groups);
    assert!(
        build_allocs <= bound,
        "PathIndex::build made {build_allocs} allocations for {groups} groups \
         ({} flows); want at most {bound}",
        flows.len(),
    );
    idx
}

fn index_allocates_flat_arrays_and_background_only_its_output() {
    // Eight hosts on one switch and 4 000 flows over 12 routes: many flows,
    // many hops in total, few groups.
    let mut topo = Topology::new();
    let switch = topo.add_switch();
    let hosts: Vec<(NodeId, LinkId)> = (0..8)
        .map(|_| {
            let h = topo.add_host();
            (h, topo.add_link(h, switch, 10 * GBPS, USEC))
        })
        .collect();
    let flows: Vec<FlowSpec> = (0..4_000u32)
        .map(|i| {
            let (src, up) = hosts[(i % 4) as usize];
            let (dst, down) = hosts[4 + (i % 3) as usize];
            FlowSpec {
                id: i,
                src,
                dst,
                size: 1_000 + u64::from(i),
                arrival: u64::from(i) * 100,
                path: vec![up, down],
            }
        })
        .collect();
    let idx = build_within_bound(&topo, &flows, 12);

    for g in 0..idx.num_paths() {
        let (bg, allocs) = count(|| idx.background_of(g));
        assert!(!bg.is_empty());
        assert!(
            allocs <= growth_steps(bg.len()),
            "background_of({g}) made {allocs} allocations for {} entries",
            bg.len()
        );
    }

    // 64 hosts on one switch and 4 000 flows, each between a distinct
    // (source, destination) pair: every flow is its own route, as on a
    // fat-tree with ECMP, and the build still makes no allocation per route.
    let mut topo = Topology::new();
    let switch = topo.add_switch();
    let hosts: Vec<(NodeId, LinkId)> = (0..64)
        .map(|_| {
            let h = topo.add_host();
            (h, topo.add_link(h, switch, 10 * GBPS, USEC))
        })
        .collect();
    let flows: Vec<FlowSpec> = (0..4_000u32)
        .map(|i| {
            let s = (i % 64) as usize;
            let (src, up) = hosts[s];
            let (dst, down) = hosts[(s + 1 + (i / 64) as usize % 63) % 64];
            FlowSpec {
                id: i,
                src,
                dst,
                size: 1_000 + u64::from(i),
                arrival: u64::from(i) * 100,
                path: vec![up, down],
            }
        })
        .collect();
    build_within_bound(&topo, &flows, 4_000);
}
