//! Geo-spatial interlinking: discover all topological links between two
//! areal datasets (the paper's motivating application, Sec 1).
//!
//! Generates OSM-style lakes and parks, runs the MBR join to produce
//! candidate pairs, then finds every pair's most specific relation with
//! the P+C pipeline — printing the discovered link histogram and the
//! throughput of each method on the same workload.
//!
//! Run with:
//! ```text
//! cargo run --example geo_interlinking --release
//! ```

use std::collections::BTreeMap;
use std::time::Instant;
use stjoin::datagen::{generate_combo, ComboId};
use stjoin::de9im::RelateScratch;
use stjoin::obs::Disabled;
use stjoin::prelude::*;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);

    println!("generating OLE-OPE (lakes x parks) at scale {scale} ...");
    let (lakes_polys, parks_polys) = generate_combo(ComboId::OleOpe, scale);
    let mut extent = Rect::empty();
    for p in lakes_polys.iter().chain(&parks_polys) {
        extent.grow_rect(p.mbr());
    }
    let grid = Grid::new(extent, 14);

    let t = Instant::now();
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let lakes = DatasetArena::build("OLE", &lakes_polys, &grid, DEFAULT_MAX_INTERVALS, threads);
    let parks = DatasetArena::build("OPE", &parks_polys, &grid, DEFAULT_MAX_INTERVALS, threads);
    println!(
        "preprocessed {} lakes + {} parks (MBRs + APRIL) in {:.2?}",
        lakes.len(),
        parks.len(),
        t.elapsed()
    );

    let t = Instant::now();
    let pairs = mbr_join_parallel(lakes.mbrs(), parks.mbrs(), threads);
    println!(
        "MBR join: {} candidate pairs in {:.2?}",
        pairs.len(),
        t.elapsed()
    );

    // Interlink with the P+C pipeline, then run the same workload
    // through the baselines for comparison. One worker context reuses
    // its refinement scratch across every pair.
    let mut ctx = PairCtx {
        scratch: &mut RelateScratch::default(),
        prof: &mut Disabled,
        adaptive: None,
    };
    for (name, method) in [
        ("P+C", JoinMethod::PC),
        ("ST2", JoinMethod::St2),
        ("OP2", JoinMethod::Op2),
        ("APRIL", JoinMethod::April),
    ] {
        let t = Instant::now();
        let mut histogram: BTreeMap<String, u64> = BTreeMap::new();
        let mut stats = PipelineStats::default();
        for &(i, j) in &pairs {
            let out =
                method.find_relation(lakes.object(i as usize), parks.object(j as usize), &mut ctx);
            stats.record(out.determination);
            if out.relation != TopoRelation::Disjoint {
                *histogram.entry(out.relation.to_string()).or_default() += 1;
            }
        }
        let dt = t.elapsed();
        if method == JoinMethod::PC {
            println!("\ndiscovered links (non-disjoint candidate pairs):");
            for (rel, count) in &histogram {
                println!("  {rel:<12} {count}");
            }
            println!();
        }
        println!(
            "{name}: {} pairs in {:.2?} ({:.0} pairs/s), {:.1}% undetermined (refined)",
            stats.pairs,
            dt,
            stats.pairs as f64 / dt.as_secs_f64(),
            stats.undetermined_pct()
        );
    }
}
