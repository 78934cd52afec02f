//! Allocation pins for the decomposition index: `PathIndex::build` is a few
//! flat arrays plus one list per group, not a `Vec` per flow, and
//! `background_of` allocates its output and nothing else.
//!
//! This file holds exactly one #[test] so no concurrent test thread can
//! allocate while the counter is armed.

use m3_core::prelude::*;
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

#[test]
fn index_allocates_per_group_and_background_only_its_output() {
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
    validate_workload(&topo, &flows).unwrap();

    let (idx, build_allocs) = count(|| PathIndex::build(&topo, &flows));
    let groups = idx.num_paths();
    assert_eq!(groups, 12);
    // Seven flat arrays, the route table, the group list, and per group one
    // foreground list that grows to ~333 members.
    let bound = 16 + groups as u64 * growth_steps(flows.len() / groups);
    assert!(
        build_allocs <= bound,
        "PathIndex::build made {build_allocs} allocations for {groups} groups \
         ({} flows, {} hops); want at most {bound}",
        flows.len(),
        flows.len() * 2
    );

    for g in 0..groups {
        let (bg, allocs) = count(|| idx.background_of(g));
        assert!(!bg.is_empty());
        assert!(
            allocs <= growth_steps(bg.len()),
            "background_of({g}) made {allocs} allocations for {} entries",
            bg.len()
        );
    }
}
