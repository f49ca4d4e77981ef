//! Ablation: raster grid granularity vs filter effectiveness.
//!
//! The paper fixes the grid at `2^16 × 2^16` cells and notes that the
//! fine granularity is what gives even mid-size objects useful `P`
//! lists (Sec 4.3, Figure 9 discussion). This ablation quantifies the
//! trade-off on OLE-OPE: coarser grids shrink the interval lists (less
//! storage, faster merge-joins) but decide fewer pairs, pushing more
//! work into refinement.
//!
//! ```text
//! cargo run -p stj-bench --release --bin ablation_grid
//! ```

use std::time::Instant;
use stj_bench::harness::{default_scale, human_count, mb, storage_bytes, threads};
use stj_core::{find_relation, DatasetArena, PipelineStats, DEFAULT_MAX_INTERVALS};
use stj_datagen::{generate_combo, ComboId};
use stj_geom::Rect;
use stj_index::mbr_join_parallel;
use stj_raster::Grid;

fn main() {
    let scale = default_scale();
    let (r_polys, s_polys) = generate_combo(ComboId::OleOpe, scale);
    let mut extent = Rect::empty();
    for p in r_polys.iter().chain(&s_polys) {
        extent.grow_rect(p.mbr());
    }

    println!("== Ablation: grid order vs P+C filter effectiveness (OLE-OPE, scale {scale}) ==");
    println!(
        "{:<6} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "Order", "P+C (MB)", "prep time", "undet. %", "pairs/s", "pairs"
    );

    for order in [8u32, 10, 12, 14, 16] {
        let grid = Grid::new(extent, order);
        let t = Instant::now();
        let r = DatasetArena::build("OLE", &r_polys, &grid, DEFAULT_MAX_INTERVALS, threads());
        let s = DatasetArena::build("OPE", &s_polys, &grid, DEFAULT_MAX_INTERVALS, threads());
        let prep = t.elapsed();
        let april_bytes = storage_bytes(&r).2 + storage_bytes(&s).2;
        let pairs = mbr_join_parallel(r.mbrs(), s.mbrs(), threads());

        let t = Instant::now();
        let mut stats = PipelineStats::default();
        for &(i, j) in &pairs {
            stats.record(find_relation(r.object(i as usize), s.object(j as usize)).determination);
        }
        let dt = t.elapsed();
        println!(
            "{:<6} {:>10} {:>12} {:>11.1}% {:>12.0} {:>12}",
            order,
            mb(april_bytes),
            format!("{:.2?}", prep),
            stats.undetermined_pct(),
            stats.pairs as f64 / dt.as_secs_f64().max(1e-12),
            human_count(stats.pairs)
        );
    }
    println!("(expected: finer grids monotonically reduce % undetermined at growing storage/preprocessing cost)");
}
