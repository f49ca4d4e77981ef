//! Allocation-regression guard for the refine path (PR 7).
//!
//! The flat thread-scaling bug was caused by per-call heap churn in
//! DE-9IM refinement: every `relate()` allocated (and freed) its
//! noding buffers, sweep event lists, sub-edge vectors and
//! intersection lists, serializing all workers on the allocator. The
//! fix threads a reusable [`RelateScratch`] arena through the whole
//! path. This test pins the property that makes the fix stick: after
//! a warm-up pass has grown every scratch buffer to its high-water
//! mark, re-running the full adversarial corpus through
//! `relate_with` performs **zero** allocations — on one thread and on
//! four concurrent threads (each with its own arena).
//!
//! The corpus is `stj_datagen::adversarial` — the same constructions
//! the differential check harness uses — so the guard covers shared
//! edges, vertex contact, hole boundaries, collinear slivers and the
//! degenerate MBR ties, not just friendly rectangles.
//!
//! The allocator counts **per thread**: each measured window reads only
//! its own thread's tally, so allocations made concurrently by other
//! tests (libtest runs them in parallel) or by the libtest main thread
//! cannot leak into it. `counter_sees_a_deliberate_allocation` keeps
//! the instrument honest: a broken counter that reads zero fails it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Barrier;

use stjoin::datagen::adversarial::adversarial_pair;
use stjoin::de9im::{relate_with, RelateScratch};
use stjoin::Polygon;

/// Counts every allocator entry point on the calling thread. `realloc`
/// and `alloc_zeroed` count too: a growing `Vec` re-entering the
/// allocator is exactly the churn this test exists to catch.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and drop-free, so reading it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with` tolerates allocations during thread teardown.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

/// Allocator calls the current thread has made so far.
fn thread_allocs() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Runs `f` and returns its result plus the allocator calls it made on
/// this thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_allocs();
    let out = f();
    (out, thread_allocs() - before)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Pairs per corpus: several full rotations of the 11 adversarial
/// categories.
const CORPUS: u64 = 66;

fn corpus(seed: u64) -> Vec<(Polygon, Polygon)> {
    (0..CORPUS)
        .map(|i| {
            let p = adversarial_pair(seed, i);
            (p.a, p.b)
        })
        .collect()
}

/// Runs every pair through refinement, both orientations.
fn run_corpus(pairs: &[(Polygon, Polygon)], scratch: &mut RelateScratch) -> u64 {
    let mut checksum = 0u64;
    for (a, b) in pairs {
        checksum = checksum
            .wrapping_mul(31)
            .wrapping_add(relate_with(a, b, scratch).bits() as u64);
        checksum = checksum
            .wrapping_mul(31)
            .wrapping_add(relate_with(b, a, scratch).bits() as u64);
    }
    checksum
}

#[test]
fn steady_state_relate_is_allocation_free_single_thread() {
    let pairs = corpus(0xA110C);
    let mut scratch = RelateScratch::default();

    // Warm-up: grow every scratch buffer to the corpus high-water mark.
    let expect = run_corpus(&pairs, &mut scratch);

    let (got, allocs) = allocs_during(|| run_corpus(&pairs, &mut scratch));

    assert_eq!(got, expect, "scratch reuse changed relate results");
    assert_eq!(
        allocs,
        0,
        "steady-state refinement allocated {allocs} times over {} pairs",
        pairs.len()
    );
}

#[test]
fn steady_state_relate_is_allocation_free_four_threads() {
    const THREADS: usize = 4;
    let pairs = corpus(0xA110C4);

    // All workers finish warming before any starts its measured pass,
    // so the four steady phases overlap, as in a parallel join. Each
    // worker counts only its own thread's allocations and returns them.
    let warmed = Barrier::new(THREADS);

    let allocs: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    // Per-worker arena, exactly like the streaming
                    // executor and the serve pool.
                    let mut scratch = RelateScratch::default();
                    let expect = run_corpus(&pairs, &mut scratch);
                    warmed.wait();
                    let (got, allocs) = allocs_during(|| run_corpus(&pairs, &mut scratch));
                    assert_eq!(got, expect, "scratch reuse changed relate results");
                    allocs
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .sum()
    });
    assert_eq!(
        allocs, 0,
        "steady-state refinement allocated {allocs} times across {THREADS} threads"
    );
}

#[test]
fn counter_sees_a_deliberate_allocation() {
    // A counter that always reads zero would pass both tests above; one
    // deliberate allocation inside a measured window must register, on
    // the test thread and on a spawned worker alike.
    let (v, allocs) = allocs_during(|| std::hint::black_box(Vec::<u64>::with_capacity(1)));
    drop(v);
    assert_eq!(allocs, 1, "one Vec::with_capacity(1) must count once");
    let worker = std::thread::spawn(|| {
        allocs_during(|| std::hint::black_box(Vec::<u64>::with_capacity(1))).1
    });
    assert_eq!(worker.join().expect("worker panicked"), 1);
}
