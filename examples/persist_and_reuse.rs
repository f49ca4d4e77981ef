//! The preprocess-once, join-many workflow: build APRIL approximations,
//! persist them with `stj-store`, and run joins straight from the loaded
//! datasets — the deployment mode the paper's preprocessing step implies.
//!
//! Run with:
//! ```text
//! cargo run --example persist_and_reuse --release
//! ```

use std::time::Instant;
use stjoin::core::{JoinMethod, TopologyJoin};
use stjoin::datagen::{generate_combo, ComboId};
use stjoin::prelude::*;
use stjoin::store::{open_arena, write_arena_v2};

fn main() {
    let dir = std::env::temp_dir().join(format!("stj-persist-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // 1. Generate and preprocess once.
    let (lakes_polys, parks_polys) = generate_combo(ComboId::OleOpe, 0.02);
    let mut extent = Rect::empty();
    for p in lakes_polys.iter().chain(&parks_polys) {
        extent.grow_rect(p.mbr());
    }
    let grid = Grid::new(extent, 14);
    let t = Instant::now();
    let lakes = DatasetArena::build("OLE", &lakes_polys, &grid, DEFAULT_MAX_INTERVALS, 1);
    let parks = DatasetArena::build("OPE", &parks_polys, &grid, DEFAULT_MAX_INTERVALS, 1);
    println!(
        "preprocessed {} + {} objects in {:.2?}",
        lakes.len(),
        parks.len(),
        t.elapsed()
    );

    // 2. Persist the arenas as STJD v2 (the grid travels with the file).
    let lakes_path = dir.join("lakes.stjd");
    let parks_path = dir.join("parks.stjd");
    for (ds, path) in [(&lakes, &lakes_path), (&parks, &parks_path)] {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path).expect("create"));
        write_arena_v2(&mut f, ds, &grid).expect("serialize");
    }
    println!(
        "saved {} + {} bytes",
        std::fs::metadata(&lakes_path).unwrap().len(),
        std::fs::metadata(&parks_path).unwrap().len()
    );

    // 3. A later session: open (no rasterization, and on little-endian
    //    hosts no per-column decode either) and join immediately.
    let t = Instant::now();
    let (lakes2, g1) = open_arena(&lakes_path).expect("open lakes");
    let (parks2, g2) = open_arena(&parks_path).expect("open parks");
    assert_eq!(g1, g2, "datasets must share the grid");
    println!(
        "opened both datasets in {:.2?} (zero-copy: {})",
        t.elapsed(),
        lakes2.is_zero_copy() && parks2.is_zero_copy()
    );

    let t = Instant::now();
    let result = TopologyJoin::new()
        .method(JoinMethod::PC)
        .run(&lakes2, &parks2);
    println!(
        "join: {} candidates -> {} links in {:.2?} ({:.1}% refined)",
        result.candidates,
        result.links.len(),
        t.elapsed(),
        result.stats.undetermined_pct()
    );

    // 4. Sanity: identical to joining the originals.
    let fresh = TopologyJoin::new().run(&lakes, &parks);
    assert_eq!(fresh.links, result.links);
    println!("loaded-dataset join identical to in-memory join");

    let _ = std::fs::remove_dir_all(&dir);
}
