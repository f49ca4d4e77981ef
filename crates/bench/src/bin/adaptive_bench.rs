//! Adaptive filter-ordering benchmark: `--adaptive on` vs `off` over
//! two scenario families chosen to sit at the opposite ends of the
//! APRIL stage's usefulness spectrum.
//!
//! - **tessellation** (APRIL useless): a jittered coverage whose cells
//!   share boundary polylines exactly, self-joined. Every neighbouring
//!   pair *meets* — interiors never overlap — so the intermediate
//!   filter walks two long interval lists (fine grid, big cells) and
//!   then refines anyway. The adaptive model should learn to skip the
//!   stage after its warm-up and recover its full cost.
//! - **containment** (APRIL decisive): scattered many-vertex star
//!   containers, each holding a cloud of small boxes deep inside.
//!   Interval containment decides inside/contains instantly while exact
//!   refinement against a 96-vertex ring is expensive, so the model
//!   must *keep* the stage and cost at most its counter overhead.
//!
//! Both families gate on all modes producing identical sorted links —
//! skipping APRIL only ever re-routes pairs to exact refinement.
//!
//! Run with:
//! ```text
//! cargo run --release -p stj-bench --bin adaptive_bench
//! ```
//!
//! Telemetry (`stj-bench/v1`) goes to `BENCH_PR9.json`, or the path in
//! `$STJ_BENCH_JSON`. `$STJ_ADAPTIVE_BENCH_SCALE` scales both datasets
//! (default 1.0); `$STJ_ADAPTIVE_BENCH_REPS` sets the best-of-N count
//! per configuration (default 3).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use stj_core::{AdaptiveMode, DatasetArena, TopologyJoin, DEFAULT_MAX_INTERVALS};
use stj_datagen::{star_polygon, tessellation, StarParams};
use stj_geom::{Point, Polygon, Rect};
use stj_obs::Json;
use stj_raster::Grid;

fn threads() -> usize {
    std::env::var("STJ_ADAPTIVE_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// The jittered-coverage self-join: exactly shared boundaries, meets
/// everywhere, long interval lists on a fine grid.
fn tessellation_family(scale: f64) -> (DatasetArena, Option<DatasetArena>, Grid) {
    let mut rng = StdRng::seed_from_u64(0x5717_0009);
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let k = ((40.0 * scale.sqrt()) as usize).max(8);
    let cover = tessellation(&mut rng, region, k, 3, 0.3);
    // Order 13 over the full region: each of the k×k cells spans ~200
    // grid cells per side, so its conservative list carries hundreds of
    // intervals — the merge-join the adaptive model should learn to
    // skip — while the 12-vertex cell rings keep refinement cheap.
    let grid = Grid::new(region, 13);
    let arena = DatasetArena::build(
        "tess",
        &cover.polygons(),
        &grid,
        DEFAULT_MAX_INTERVALS,
        threads(),
    );
    (arena, None, grid)
}

/// Scattered star containers joined against their deep-inside box
/// clouds: APRIL decides contains by interval containment; refinement
/// against the many-vertex outer ring is the expensive path the filter
/// avoids. A binary join (containers on the left, boxes on the right)
/// keeps every candidate pair in the decisive contains class.
fn containment_family(scale: f64) -> (DatasetArena, Option<DatasetArena>, Grid) {
    let mut rng = StdRng::seed_from_u64(0x5717_0010);
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let clusters = ((260.0 * scale) as usize).max(16);
    let per_cluster = 96usize;
    let side = (clusters as f64).sqrt().ceil() as usize;
    let pitch = 1000.0 / side as f64;
    let mut containers = Vec::with_capacity(clusters);
    let mut contents = Vec::with_capacity(clusters * per_cluster);
    for c in 0..clusters {
        let cx = (c % side) as f64 * pitch + pitch * 0.5;
        let cy = (c / side) as f64 * pitch + pitch * 0.5;
        let radius = pitch * 0.42;
        containers.push(star_polygon(
            &mut rng,
            &StarParams {
                center: Point::new(cx, cy),
                avg_radius: radius,
                irregularity: 0.3,
                spikiness: 0.25,
                num_vertices: 96,
            },
        ));
        // Boxes well inside the container's minimum radius, so both
        // their MBRs and their conservative cells sit in the star's
        // progressive interior.
        let safe = radius * (1.0 - 0.25) * 0.55;
        for _ in 0..per_cluster {
            let bx = cx + rng.gen_range(-safe..safe);
            let by = cy + rng.gen_range(-safe..safe);
            let half = pitch * 0.01;
            contents.push(Polygon::rect(Rect::from_coords(
                bx - half,
                by - half,
                bx + half,
                by + half,
            )));
        }
    }
    let grid = Grid::new(region, 13);
    let left = DatasetArena::build(
        "containers",
        &containers,
        &grid,
        DEFAULT_MAX_INTERVALS,
        threads(),
    );
    let right = DatasetArena::build(
        "contents",
        &contents,
        &grid,
        DEFAULT_MAX_INTERVALS,
        threads(),
    );
    (left, Some(right), grid)
}

struct RunSample {
    family: &'static str,
    mode: AdaptiveMode,
    wall_ns: u64,
    candidates: u64,
    links: u64,
    adaptive: Option<Json>,
}

fn measure(
    family: &'static str,
    left: &DatasetArena,
    right: &DatasetArena,
    mode: AdaptiveMode,
    reps: usize,
) -> RunSample {
    let mut wall_ns = u64::MAX;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let run = TopologyJoin::new()
            .threads(threads())
            .adaptive(mode)
            .run(left, right);
        wall_ns = wall_ns.min(t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        if let Some(prev) = &out {
            let prev: &stj_core::JoinResult = prev;
            assert_eq!(prev.links.len(), run.links.len(), "{family}: reps diverged");
        }
        out = Some(run);
    }
    let out = out.expect("at least one rep");
    RunSample {
        family,
        mode,
        wall_ns,
        candidates: out.candidates,
        links: out.links.len() as u64,
        adaptive: out.adaptive.as_ref().map(|r| r.to_json()),
    }
}

/// Sorted link triples of one run, for the cross-mode identity gate.
fn sorted_links(
    left: &DatasetArena,
    right: &DatasetArena,
    mode: AdaptiveMode,
) -> Vec<(u32, u32, String)> {
    let out = TopologyJoin::new()
        .threads(threads())
        .adaptive(mode)
        .run(left, right);
    let mut links: Vec<(u32, u32, String)> = out
        .links
        .iter()
        .map(|l| (l.r, l.s, l.relation.to_string()))
        .collect();
    links.sort();
    links
}

fn main() {
    let scale: f64 = std::env::var("STJ_ADAPTIVE_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let reps: usize = std::env::var("STJ_ADAPTIVE_BENCH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);

    let modes = [AdaptiveMode::Off, AdaptiveMode::On, AdaptiveMode::ForceSkip];
    let mut runs = Vec::new();
    let mut families = Vec::new();
    for (family, build) in [
        (
            "tessellation",
            tessellation_family as fn(f64) -> (DatasetArena, Option<DatasetArena>, Grid),
        ),
        ("containment", containment_family),
    ] {
        let t = Instant::now();
        let (left, right, grid) = build(scale);
        let right = right.as_ref().unwrap_or(&left);
        eprintln!(
            "{family}: {} x {} objects on grid order {} in {:.2?}",
            left.len(),
            right.len(),
            grid.order(),
            t.elapsed()
        );

        // Correctness gate first: every mode must produce the same
        // sorted links before any timing is trusted.
        let base_links = sorted_links(&left, right, AdaptiveMode::Off);
        for mode in [AdaptiveMode::On, AdaptiveMode::ForceSkip] {
            assert_eq!(
                sorted_links(&left, right, mode),
                base_links,
                "{family}: links diverged under --adaptive {}",
                mode.label()
            );
        }
        eprintln!("{family}: all modes agree on {} links", base_links.len());

        let mut by_mode = Vec::new();
        for mode in modes {
            let s = measure(family, &left, right, mode, reps);
            eprintln!(
                "{family:<13} {:<10} {:>8.1} ms  {} candidates  {} links",
                s.mode.label(),
                s.wall_ns as f64 / 1e6,
                s.candidates,
                s.links,
            );
            by_mode.push(s);
        }
        let off_ns = by_mode[0].wall_ns;
        let on_ns = by_mode[1].wall_ns;
        let improvement_pct = (off_ns as f64 - on_ns as f64) / off_ns as f64 * 100.0;
        eprintln!("{family}: adaptive on vs off {improvement_pct:+.1}%");
        families.push(Json::object([
            ("family", Json::str(family)),
            ("off_ns", Json::U64(off_ns)),
            ("on_ns", Json::U64(on_ns)),
            ("improvement_pct", Json::F64(improvement_pct)),
        ]));
        runs.extend(by_mode);
    }

    let entries: Vec<Json> = runs
        .iter()
        .map(|s| {
            let mut run = Json::object([
                ("family", Json::str(s.family)),
                ("adaptive", Json::str(s.mode.label())),
                ("threads", Json::from(threads())),
                ("wall_ns", Json::U64(s.wall_ns)),
                ("candidates", Json::U64(s.candidates)),
                ("links", Json::U64(s.links)),
            ]);
            if let Some(report) = &s.adaptive {
                run.push("adaptive_trace", report.clone());
            }
            run
        })
        .collect();
    let report = Json::object([
        ("schema", Json::str("stj-bench/v1")),
        ("benchmark", Json::str("adaptive_filter_ordering")),
        ("reps", Json::from(reps)),
        ("scale", Json::F64(scale)),
        ("families", Json::Arr(families)),
        ("runs", Json::Arr(entries)),
    ]);
    let path = stj_bench::experiments::bench_output_path("BENCH_PR9.json");
    std::fs::write(&path, report.render()).expect("write bench json");
    eprintln!("wrote {path}");
}
