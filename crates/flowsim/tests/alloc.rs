//! Steady-state allocation test for the fluid engine: after warmup runs, a
//! simulation staged in a warm workspace must perform zero heap allocations
//! — whichever route kind the workspace last ran — and produce the records
//! a fresh workspace produces.
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

/// Non-contiguous, unsorted, sometimes repeated link sets over four links.
fn link_set_flows(flows: &[FluidFlow]) -> Vec<(FluidFlow, [u32; 3])> {
    flows
        .iter()
        .map(|f| {
            let i = f.id;
            (*f, [(i * 3 + 1) % 4, i % 4, (i * 7) % 4])
        })
        .collect()
}

/// Stages one run's input in a workspace.
type Stage<'a> = &'a dyn Fn(&mut FluidWorkspace);

#[test]
fn warm_workspace_runs_allocate_nothing() {
    let topo = FluidTopology::new(vec![10e9, 40e9, 10e9]);
    let flows = seg_flows(&topo);
    // A differently shaped segment run (one link, one cap class) and a
    // link-set run, so the staging buffers, link pool, group table and
    // active list hold stale contents of another shape before each run.
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
    let set_links = [10e9, 40e9, 10e9, 25e9];
    let sets = link_set_flows(&flows);

    let stage_segments = |ws: &mut FluidWorkspace, topo: &FluidTopology, flows: &[FluidFlow]| {
        ws.stage(topo.link_bps.iter().copied())
            .extend_from_slice(flows);
    };
    let stage_sets = |ws: &mut FluidWorkspace| ws.stage_link_sets(set_links, sets.iter().copied());
    let runs: [(&str, Stage); 3] = [
        ("segment", &|ws| stage_segments(ws, &topo, &flows)),
        ("small segment", &|ws| {
            stage_segments(ws, &small_topo, &small)
        }),
        ("link-set", &stage_sets),
    ];
    let budget = FluidBudget::UNLIMITED;
    let expect: Vec<Vec<FluidFctRecord>> = runs
        .iter()
        .map(|(_, stage)| {
            let mut ws = FluidWorkspace::new();
            stage(&mut ws);
            let mut records = Vec::new();
            try_simulate_staged(&budget, None, &mut ws, &mut records).unwrap();
            records
        })
        .collect();
    assert_eq!(expect[0], simulate_fluid(&topo, &flows));

    let mut ws = FluidWorkspace::new();
    let mut records = Vec::new();
    // Warmups: heap recycling is LIFO, so each recycled heap's capacity
    // converges to a fixed point covering every group it is handed.
    for _ in 0..3 {
        for (_, stage) in &runs {
            stage(&mut ws);
            try_simulate_staged(&budget, None, &mut ws, &mut records).unwrap();
        }
    }
    for ((name, stage), expect) in runs.iter().zip(&expect) {
        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        stage(&mut ws);
        try_simulate_staged(&budget, None, &mut ws, &mut records).unwrap();
        ARMED.store(false, Ordering::SeqCst);
        let count = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(count, 0, "warm {name} run made {count} allocations");
        assert_eq!(&records, expect, "{name}: stale workspace state leaked");
    }
    assert_eq!(ws.rearmed_completions(), 0, "no due group was ever short");
}
