//! The Figure 9 case study, reproduced: a high-complexity lake residing
//! inside a high-complexity park. The P+C intermediate filter identifies
//! `inside` from the interval lists alone, while every baseline must
//! compute the DE-9IM matrix — yielding a large per-pair speedup.
//!
//! Run with:
//! ```text
//! cargo run --example case_study --release
//! ```

use std::time::Instant;
use stjoin::datagen::fig9_lake_in_park;
use stjoin::de9im::RelateScratch;
use stjoin::obs::Disabled;
use stjoin::prelude::*;

fn time<T>(mut f: impl FnMut() -> T, iters: u32) -> (T, std::time::Duration) {
    let t = Instant::now();
    let mut out = None;
    for _ in 0..iters {
        out = Some(f());
    }
    (out.unwrap(), t.elapsed() / iters)
}

fn main() {
    let (lake_poly, park_poly) = fig9_lake_in_park(42);
    let grid = Grid::new(Rect::from_coords(0.0, 0.0, 1000.0, 1000.0), 16);

    let pair = DatasetArena::build(
        "fig9",
        &[lake_poly, park_poly],
        &grid,
        DEFAULT_MAX_INTERVALS,
        1,
    );
    let (lake, park) = (pair.object(0), pair.object(1));

    // Figure 9(a): the pair's statistics.
    println!("statistic          lake      park");
    println!(
        "vertices       {:>8} {:>9}",
        lake.num_vertices(),
        park.num_vertices()
    );
    println!(
        "MBR area       {:>8.4} {:>9.4}   (fraction of data space)",
        lake.mbr.area() / grid.extent().area(),
        park.mbr.area() / grid.extent().area()
    );
    println!(
        "C-intervals    {:>8} {:>9}",
        lake.april.c.len(),
        park.april.c.len()
    );
    println!(
        "P-intervals    {:>8} {:>9}",
        lake.april.p.len(),
        park.april.p.len()
    );

    // The relation, per method, with per-pair timing.
    let iters = 20;
    let mut ctx = PairCtx {
        scratch: &mut RelateScratch::default(),
        prof: &mut Disabled,
        adaptive: None,
    };
    let mut runs = Vec::new();
    println!("\nmethod   relation     time/pair");
    for (name, method) in [
        ("P+C", JoinMethod::PC),
        ("ST2", JoinMethod::St2),
        ("OP2", JoinMethod::Op2),
        ("APRIL", JoinMethod::April),
    ] {
        let (out, dt) = time(|| method.find_relation(lake, park, &mut ctx), iters);
        println!("{name:<8} {:<12} {dt:>10.2?}", out.relation.to_string());
        runs.push((out, dt));
    }
    let [(out_pc, t_pc), (out_st2, t_st2), ..] = runs[..] else {
        unreachable!("four methods ran")
    };

    assert_eq!(out_pc.relation, TopoRelation::Inside);
    assert_eq!(out_pc.determination, Determination::IntermediateFilter);
    assert_eq!(out_st2.relation, TopoRelation::Inside);

    let speedup = t_st2.as_secs_f64() / t_pc.as_secs_f64();
    println!(
        "\nP+C decided `inside` from the interval lists alone — {speedup:.0}x \
         faster than refinement-based methods on this pair"
    );
}
