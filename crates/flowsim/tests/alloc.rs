//! Steady-state allocation tests for the fluid engines: after warmup runs, a
//! repeated simulation through the `_into` entry points with a warm workspace
//! — input passed in or staged in the workspace itself — must perform zero
//! heap allocations, and produce records identical to the allocating entry
//! points.
//!
//! This file holds exactly one #[test] so no concurrent test thread can
//! allocate while the counter is armed.

use m3_flowsim::prelude::*;
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
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn seg_flows(topo: &FluidTopology) -> Vec<FluidFlow> {
    (0..400u32)
        .map(|i| {
            let first = (i % 3) as u16;
            let last = first.max(((i * 7) % 3) as u16);
            let mut f = FluidFlow {
                id: i,
                size: 500 + (i as u64 * 97) % 40_000,
                arrival: i as u64 * 350,
                first_link: first.min(last),
                last_link: last,
                rate_cap_bps: if i % 2 == 0 { 10e9 } else { f64::INFINITY },
                latency: 40,
                ideal_fct: 0,
            };
            f.ideal_fct = fluid_ideal_fct(topo, &f);
            f
        })
        .collect()
}

#[test]
fn warm_workspace_runs_allocate_nothing() {
    let topo = FluidTopology::new(vec![10e9, 40e9, 10e9]);
    let flows = seg_flows(&topo);
    let budget = FluidBudget::UNLIMITED;

    // --- segment engine ---
    let expect = try_simulate_fluid(&topo, &flows, &budget).unwrap();
    let mut ws = FluidWorkspace::new();
    let mut records = Vec::new();
    // Two warmups: heap recycling is LIFO, so capacities converge to a
    // fixed point covering every group by the second pass.
    for _ in 0..2 {
        try_simulate_fluid_traced_into(&topo, &flows, &budget, None, &mut ws, &mut records)
            .unwrap();
    }
    ARMED.store(true, Ordering::SeqCst);
    try_simulate_fluid_traced_into(&topo, &flows, &budget, None, &mut ws, &mut records).unwrap();
    ARMED.store(false, Ordering::SeqCst);
    let count = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(count, 0, "warm segment-engine run made {count} allocations");
    assert_eq!(records, expect, "workspace run changed results");
    assert_eq!(ws.rearmed_completions(), 0, "no due group was ever short");

    // --- segment engine, input staged in the workspace ---
    // A differently shaped run first (one link, one cap class), so the
    // staging buffers, group table and active list hold stale contents.
    let small_topo = FluidTopology::new(vec![25e9]);
    let small: Vec<FluidFlow> = flows
        .iter()
        .take(50)
        .map(|f| FluidFlow {
            first_link: 0,
            last_link: 0,
            rate_cap_bps: 5e9,
            ..*f
        })
        .collect();
    let expect_small = try_simulate_fluid(&small_topo, &small, &budget).unwrap();
    let stage = |ws: &mut FluidWorkspace, topo: &FluidTopology, flows: &[FluidFlow]| {
        ws.stage(topo.link_bps.iter().copied())
            .extend_from_slice(flows);
    };
    for _ in 0..2 {
        stage(&mut ws, &topo, &flows);
        try_simulate_staged(&budget, None, &mut ws, &mut records).unwrap();
        stage(&mut ws, &small_topo, &small);
        try_simulate_staged(&budget, None, &mut ws, &mut records).unwrap();
        assert_eq!(records, expect_small, "stale workspace state leaked");
    }
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    stage(&mut ws, &topo, &flows);
    try_simulate_staged(&budget, None, &mut ws, &mut records).unwrap();
    ARMED.store(false, Ordering::SeqCst);
    let count = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(count, 0, "warm staged run made {count} allocations");
    assert_eq!(records, expect, "staged run changed results");

    // --- general engine ---
    let gen_flows: Vec<GeneralFluidFlow> = flows
        .iter()
        .map(|f| GeneralFluidFlow {
            id: f.id,
            size: f.size,
            arrival: f.arrival,
            links: (f.first_link as u32..=f.last_link as u32).collect(),
            rate_cap_bps: f.rate_cap_bps,
            latency: f.latency,
            ideal_fct: f.ideal_fct,
        })
        .collect();
    let expect_gen = try_simulate_fluid_general(&topo.link_bps, &gen_flows, &budget).unwrap();
    let mut gws = GeneralFluidWorkspace::new();
    let mut gen_records = Vec::new();
    for _ in 0..2 {
        try_simulate_fluid_general_into(
            &topo.link_bps,
            &gen_flows,
            &budget,
            &mut gws,
            &mut gen_records,
        )
        .unwrap();
    }
    ARMED.store(true, Ordering::SeqCst);
    ALLOCS.store(0, Ordering::SeqCst);
    try_simulate_fluid_general_into(
        &topo.link_bps,
        &gen_flows,
        &budget,
        &mut gws,
        &mut gen_records,
    )
    .unwrap();
    ARMED.store(false, Ordering::SeqCst);
    let count = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(count, 0, "warm general-engine run made {count} allocations");
    assert_eq!(gen_records, expect_gen, "workspace run changed results");
}
