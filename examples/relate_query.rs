//! Topological-predicate joins: "find every building that meets a park
//! boundary", "find every lake inside a park" — spatial joins with a
//! fixed relation predicate, served by `relate_p` (Sec 3.3).
//!
//! Demonstrates why predicate-specific filtering beats running the
//! general find-relation pipeline and post-filtering: for selective
//! predicates (`meets`, `equals`) almost every pair is refuted by the
//! MBR or raster layers alone.
//!
//! Run with:
//! ```text
//! cargo run --example relate_query --release
//! ```

use std::time::Instant;
use stjoin::datagen::{generate_combo, ComboId};
use stjoin::prelude::*;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.04);

    let (lakes_polys, parks_polys) = generate_combo(ComboId::OleOpe, scale);
    let mut extent = Rect::empty();
    for p in lakes_polys.iter().chain(&parks_polys) {
        extent.grow_rect(p.mbr());
    }
    let grid = Grid::new(extent, 14);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let lakes = DatasetArena::build("OLE", &lakes_polys, &grid, DEFAULT_MAX_INTERVALS, threads);
    let parks = DatasetArena::build("OPE", &parks_polys, &grid, DEFAULT_MAX_INTERVALS, threads);
    let pairs = mbr_join_parallel(lakes.mbrs(), parks.mbrs(), threads);
    println!(
        "{} lakes x {} parks -> {} candidate pairs\n",
        lakes.len(),
        parks.len(),
        pairs.len()
    );

    for predicate in [
        TopoRelation::Inside,
        TopoRelation::Meets,
        TopoRelation::Equals,
        TopoRelation::Intersects,
    ] {
        let t = Instant::now();
        let mut matched = 0u64;
        let mut refined = 0u64;
        for &(i, j) in &pairs {
            let out = relate_p(
                lakes.object(i as usize),
                parks.object(j as usize),
                predicate,
            );
            if out.holds {
                matched += 1;
            }
            if out.determination == Determination::Refinement {
                refined += 1;
            }
        }
        let dt = t.elapsed();
        println!(
            "relate_{:<12} {:>8} matches | {:>10.0} pairs/s | {:>5.1}% refined",
            predicate.to_string().replace(' ', "_"),
            matched,
            pairs.len() as f64 / dt.as_secs_f64(),
            refined as f64 / pairs.len() as f64 * 100.0
        );

        // Cross-check a sample against the general pipeline.
        for &(i, j) in pairs.iter().take(500) {
            let r = lakes.object(i as usize);
            let s = parks.object(j as usize);
            let general = find_relation(r, s).relation;
            let expected = general == predicate || general.implies(predicate);
            assert_eq!(
                relate_p(r, s, predicate).holds,
                expected,
                "mismatch for pair ({i},{j}) predicate {predicate:?} (general: {general:?})"
            );
        }
    }

    println!("\n(relate_p agreed with the find-relation pipeline on sampled pairs)");
}
