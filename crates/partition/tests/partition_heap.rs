//! Memory gate for the multilevel partitioner: the peak live heap of one
//! 32-way partitioning of `msn_like(Small, 2010)` (the benchmark's
//! `rank-small` set-up), counted above the graph it partitions.
//!
//! A counting global allocator keeps the bytes live and their high-water
//! mark. The bound is on bytes, not time, so it holds on any host. The peak
//! is the root bisection, which runs on one thread whatever the host's
//! parallelism; the subtrees that run concurrently below it each hold a
//! share of the root's vertices. This binary holds this one test, so no
//! other test's allocations land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use surfer_graph::generators::social::{msn_like, MsnScale};
use surfer_partition::RecursivePartitioner;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size > layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The peak read 72.7 MB when this bound was set. Before that change the
/// partitioner peaked at 155.9 MB on two threads (131.8 MB on one): every
/// coarse level of the root bisection held `u64` edge weights in arrays
/// reserved at the finer level's size, and the root graph stayed alive
/// under the whole recursion.
const PEAK_ABOVE_GRAPH_MB: f64 = 80.0;

#[test]
fn partitioning_msn_like_small_stays_under_its_heap_bound() {
    let graph = msn_like(MsnScale::Small, 2010);
    let mut partitioner = RecursivePartitioner::default();
    partitioner.config.seed = 2010;
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = partitioner.partition(&graph, 32);
    let peak_mb = (PEAK.load(Ordering::Relaxed) - base) as f64 / 1e6;
    assert_eq!(result.partitioning.as_slice().len(), graph.num_vertices() as usize);
    eprintln!("peak live heap above the graph: {peak_mb:.1} MB");
    assert!(
        peak_mb <= PEAK_ABOVE_GRAPH_MB,
        "partition peaked at {peak_mb:.1} MB of live heap above the graph, bound {PEAK_ABOVE_GRAPH_MB} MB"
    );
}
