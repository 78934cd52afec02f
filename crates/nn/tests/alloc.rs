//! Steady-state allocation test: after one warmup call, a repeated batched
//! forward pass through [`M3Net::predict_batch_into`] must perform zero heap
//! allocations — every tensor, the per-call packed QKV weights included,
//! comes from the warm [`InferScratch`] arena and the output rows reuse their
//! capacity.
//!
//! This file holds exactly one #[test] so no concurrent test thread can
//! allocate while the counter is armed.

use m3_nn::prelude::*;
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

#[test]
fn second_batched_forward_pass_allocates_nothing() {
    let cfg = ModelConfig {
        feat_dim: 12,
        spec_dim: 4,
        out_dim: 6,
        embed: 8,
        heads: 2,
        layers: 1,
        block: 8,
        ff_hidden: 8,
        mlp_hidden: 8,
    };
    let net = M3Net::new(cfg.clone(), 5);
    let samples: Vec<SampleInput> = (0..6)
        .map(|i| SampleInput {
            fg: (0..cfg.feat_dim).map(|j| 0.1 * (i + j) as f32).collect(),
            bg: (0..(i % 4))
                .map(|h| vec![0.05 * (h + 1) as f32; cfg.feat_dim])
                .collect(),
            spec: vec![0.2; cfg.spec_dim],
            use_context: i % 3 != 0,
        })
        .collect();

    let mut scratch = InferScratch::new();
    let mut out = Vec::new();
    // Warmup: populates the arena free lists and output capacities.
    net.predict_batch_into(&samples, &mut scratch, &mut out);
    let warm = out.clone();

    ARMED.store(true, Ordering::SeqCst);
    net.predict_batch_into(&samples, &mut scratch, &mut out);
    ARMED.store(false, Ordering::SeqCst);

    let count = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        count, 0,
        "steady-state batched forward pass performed {count} heap allocations"
    );
    assert_eq!(warm, out, "warm rerun changed outputs");
}
