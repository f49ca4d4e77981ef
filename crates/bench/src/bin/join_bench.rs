//! Executor benchmark: the streaming `TopologyJoin` executor across
//! thread counts, over an OBE self-join.
//!
//! A counting global allocator additionally tracks **live** heap bytes
//! so each run reports its peak memory over the steady-state baseline —
//! the executor holds only O(threads × batch) candidate buffers. The
//! run aborts if any thread count disagrees with the sequential run on
//! link or candidate counts, so CI can gate on the bench exiting zero.
//!
//! Run with:
//! ```text
//! cargo run --release -p stj-bench --bin join_bench
//! ```
//!
//! Telemetry (`stj-bench/v1`) goes to `BENCH_PR4.json`, or the path in
//! `$STJ_BENCH_JSON`. `$STJ_JOIN_BENCH_SCALE` scales the dataset
//! (default 3.4 ≈ 102k objects); `$STJ_JOIN_BENCH_REPS` sets the
//! best-of-N repetition count per configuration (default 3).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use stj_core::{DatasetArena, TopologyJoin, DEFAULT_MAX_INTERVALS, STREAM_BATCH_PAIRS};
use stj_geom::Rect;
use stj_obs::Json;
use stj_raster::Grid;

/// Passthrough to the system allocator that counts calls and tracks the
/// live-bytes high-water mark.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    // Feed the site-attribution table too (a relaxed load when off).
    stj_obs::alloc::note_alloc(size);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One measured executor run.
struct RunSample {
    threads: usize,
    wall_ns: u64,
    allocs: u64,
    /// Peak live heap bytes beyond what was live before the run.
    peak_extra_bytes: u64,
    candidates: u64,
    links: u64,
}

fn measure(arena: &DatasetArena, threads: usize) -> RunSample {
    let live0 = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live0, Ordering::Relaxed);
    let a0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let t = Instant::now();
    let out = TopologyJoin::new().threads(threads).run(arena, arena);
    let wall_ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - a0;
    let peak_extra_bytes = PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(live0);
    RunSample {
        threads,
        wall_ns,
        allocs,
        peak_extra_bytes,
        candidates: out.candidates,
        links: out.links.len() as u64,
    }
}

fn main() {
    let scale: f64 = std::env::var("STJ_JOIN_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3.4);
    let build_threads = std::thread::available_parallelism().map_or(4, |n| n.get());

    let polys = stj_datagen::generate(stj_datagen::DatasetId::OBE, scale);
    let mut extent = Rect::empty();
    for p in &polys {
        extent.grow_rect(p.mbr());
    }
    let grid = Grid::new(extent, 14);
    let t = Instant::now();
    let arena = DatasetArena::build("OBE", &polys, &grid, DEFAULT_MAX_INTERVALS, build_threads);
    let n = arena.len();
    eprintln!("built {} objects in {:.2?}", n, t.elapsed());

    // Warm up caches and the lazy parts of the allocator so the first
    // measured run is not charged for them.
    let warm = TopologyJoin::new().threads(1).run(&arena, &arena);
    eprintln!(
        "self-join: {} candidates, {} links",
        warm.candidates,
        warm.links.len()
    );

    let reps: usize = std::env::var("STJ_JOIN_BENCH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    let thread_counts = [1usize, 2, 4, 8];
    let mut samples = Vec::new();
    for &threads in &thread_counts {
        // Best-of-reps wall clock: the memory and count columns are
        // deterministic per config, only the timing is noisy.
        let mut s = measure(&arena, threads);
        for _ in 1..reps {
            let again = measure(&arena, threads);
            assert_eq!(again.links, s.links);
            s.wall_ns = s.wall_ns.min(again.wall_ns);
        }
        eprintln!(
            "x{}  {:>8.1} ms  {:>10} peak extra bytes  {:>8} allocs  {} links",
            s.threads,
            s.wall_ns as f64 / 1e6,
            s.peak_extra_bytes,
            s.allocs,
            s.links,
        );
        samples.push(s);
    }

    // Correctness gate: every run must agree with the sequential warmup
    // on both candidate and link counts. CI treats a non-zero exit here
    // as an executor-divergence failure.
    for s in &samples {
        assert_eq!(
            s.candidates, warm.candidates,
            "x{} candidate count diverged",
            s.threads
        );
        assert_eq!(
            s.links,
            warm.links.len() as u64,
            "x{} link count diverged",
            s.threads
        );
    }
    eprintln!("all runs agree: {} links", warm.links.len());

    // Flight-recorder overhead: best-of-reps traced vs untraced wall on
    // the widest configuration. The untraced runs carry the
    // recorder hooks in their disabled state (a branch on an `Option`
    // per task), so untraced-vs-baseline drift is the tracing-off cost;
    // the traced delta additionally includes the per-pair stage timers
    // that tracing implies, which dominate at small scales.
    let probe_threads = *thread_counts.last().expect("thread counts");
    let time_join = |traced: bool| -> u64 {
        let t = Instant::now();
        let out = TopologyJoin::new()
            .threads(probe_threads)
            .traced(traced)
            .run(&arena, &arena);
        assert_eq!(out.links.len(), warm.links.len());
        t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    };
    let mut untraced_ns = u64::MAX;
    let mut traced_ns = u64::MAX;
    for _ in 0..reps.max(3) {
        untraced_ns = untraced_ns.min(time_join(false));
        traced_ns = traced_ns.min(time_join(true));
    }
    let overhead_pct = (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64 * 100.0;
    eprintln!(
        "trace overhead x{probe_threads}: untraced {:.1} ms, traced {:.1} ms ({overhead_pct:+.2}%)",
        untraced_ns as f64 / 1e6,
        traced_ns as f64 / 1e6,
    );

    let pair_bytes = std::mem::size_of::<(u32, u32)>() as u64;
    let entries: Vec<Json> = samples
        .iter()
        .map(|s| {
            // The analytic size of the candidate-pair staging buffers:
            // one batch buffer per worker.
            let candidate_buffer_bytes = (s.threads * STREAM_BATCH_PAIRS) as u64 * pair_bytes;
            Json::object([
                ("exec", Json::str("streaming")),
                ("threads", Json::from(s.threads)),
                ("wall_ns", Json::U64(s.wall_ns)),
                ("allocs", Json::U64(s.allocs)),
                ("peak_extra_bytes", Json::U64(s.peak_extra_bytes)),
                ("candidate_buffer_bytes", Json::U64(candidate_buffer_bytes)),
                ("candidates", Json::U64(s.candidates)),
                ("links", Json::U64(s.links)),
            ])
        })
        .collect();
    let report = Json::object([
        ("schema", Json::str("stj-bench/v1")),
        ("benchmark", Json::str("join_executor")),
        ("dataset", Json::str("OBE")),
        ("objects", Json::from(n)),
        ("candidates", Json::U64(warm.candidates)),
        ("links", Json::from(warm.links.len())),
        ("stream_batch_pairs", Json::from(STREAM_BATCH_PAIRS)),
        ("runs", Json::Arr(entries)),
        (
            "trace_overhead",
            Json::object([
                ("threads", Json::from(probe_threads)),
                ("untraced_ns", Json::U64(untraced_ns)),
                ("traced_ns", Json::U64(traced_ns)),
                ("overhead_pct", Json::F64(overhead_pct)),
            ]),
        ),
    ]);
    let path = stj_bench::experiments::bench_output_path("BENCH_PR4.json");
    std::fs::write(&path, report.render()).expect("write bench json");
    eprintln!("wrote {path}");
}
