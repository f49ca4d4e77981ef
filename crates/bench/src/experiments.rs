//! One function per paper table/figure, printing the regenerated rows.

use crate::harness::{
    complexity_levels, default_scale, human_count, mb, profile_pc, run_method, storage_bytes,
    threads, ComboSetup, MethodResult, GRID_ORDER, METHODS,
};
use std::collections::HashSet;
use std::time::{Duration, Instant};
use stj_core::{
    intermediate_filter, mbr_class_labels, relate_p, DatasetArena, IfOutcome, DEFAULT_MAX_INTERVALS,
};
use stj_datagen::{fig9_lake_in_park, generate, ComboId, DatasetId, ALL_COMBOS};
use stj_de9im::{relate, TopoRelation};
use stj_geom::Rect;
use stj_index::{mbr_join_parallel, MbrRelation};
use stj_obs::{JoinProfile, Json};
use stj_raster::Grid;

/// Table 2: dataset description — object counts and storage footprints
/// of polygons, MBRs and `P`+`C` interval lists.
pub fn table2(scale: f64) {
    println!("== Table 2: datasets (synthetic stand-ins at scale {scale}; paper counts in parentheses) ==");
    println!(
        "{:<8} {:>10} {:>14} {:>12} {:>10} {:>10}",
        "Dataset", "#polygons", "(paper)", "Size (MB)", "MBRs (MB)", "P+C (MB)"
    );
    let ids = [
        DatasetId::TL,
        DatasetId::TW,
        DatasetId::TC,
        DatasetId::TZ,
        DatasetId::OBE,
        DatasetId::OLE,
        DatasetId::OPE,
        DatasetId::OBN,
        DatasetId::OLN,
        DatasetId::OPN,
    ];
    for id in ids {
        let polys = generate(id, scale);
        let mut extent = Rect::empty();
        for p in &polys {
            extent.grow_rect(p.mbr());
        }
        let grid = Grid::new(extent, GRID_ORDER);
        let ds = DatasetArena::build(id.name(), &polys, &grid, id.interval_budget(), threads());
        let (poly_b, mbr_b, april_b) = storage_bytes(&ds);
        println!(
            "{:<8} {:>10} {:>14} {:>12} {:>10} {:>10}",
            id.name(),
            ds.len(),
            format!("({})", human_count(id.paper_count())),
            mb(poly_b),
            mb(mbr_b),
            mb(april_b)
        );
    }
}

/// Table 3: candidate pairs (MBR-filter survivors) per combination.
pub fn table3(scale: f64) {
    println!("== Table 3: candidate pairs per combination (scale {scale}) ==");
    println!(
        "{:<10} {:>10} {:>10} {:>16}",
        "Datasets", "|R|", "|S|", "Candidate pairs"
    );
    for combo in ALL_COMBOS {
        let (r_polys, s_polys) = stj_datagen::generate_combo(combo, scale);
        let r_mbrs: Vec<Rect> = r_polys.iter().map(|p| *p.mbr()).collect();
        let s_mbrs: Vec<Rect> = s_polys.iter().map(|p| *p.mbr()).collect();
        let pairs = mbr_join_parallel(&r_mbrs, &s_mbrs, threads());
        println!(
            "{:<10} {:>10} {:>10} {:>16}",
            combo.name(),
            r_polys.len(),
            s_polys.len(),
            human_count(pairs.len() as u64)
        );
    }
}

/// One combination's full Figure-7 measurement: the per-method results
/// (parallel to [`METHODS`]) plus, optionally, a profiled P+C pass run
/// after the timed sweeps so throughput is never measured instrumented.
pub struct ComboReport {
    /// Which combination was measured.
    pub combo: ComboId,
    /// Candidate pairs in the stream.
    pub pairs: usize,
    /// One [`MethodResult`] per [`METHODS`] entry, same order.
    pub results: Vec<MethodResult>,
    /// Per-stage/per-class P+C profile (only when requested).
    pub pc_profile: Option<JoinProfile>,
}

/// Measures every combination for Figure 7 and returns the raw results.
/// With `profile` set, each combo also gets an instrumented P+C pass
/// (used by [`repro_all`] to emit `BENCH_PR1.json`).
pub fn fig7_collect(scale: f64, profile: bool) -> Vec<ComboReport> {
    ALL_COMBOS
        .into_iter()
        .map(|combo| {
            let setup = ComboSetup::build(combo, scale);
            let results = METHODS.iter().map(|m| run_method(&setup, m)).collect();
            let pc_profile = profile.then(|| profile_pc(&setup));
            ComboReport {
                combo,
                pairs: setup.pairs.len(),
                results,
                pc_profile,
            }
        })
        .collect()
}

/// Prints the Figure 7 table from collected reports.
pub fn fig7_print(reports: &[ComboReport]) {
    println!("== Figure 7(a): find relation throughput (pairs/sec) + 7(b): % undetermined ==");
    println!(
        "{:<10} {:>8} | {:>9} {:>9} {:>9} {:>9} | {:>6} {:>6} {:>6} {:>6}",
        "Combo", "pairs", "ST2", "OP2", "APRIL", "P+C", "ST2%", "OP2%", "APR%", "P+C%"
    );
    for rep in reports {
        let r = &rep.results;
        println!(
            "{:<10} {:>8} | {:>9.0} {:>9.0} {:>9.0} {:>9.0} | {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
            rep.combo.name(),
            rep.pairs,
            r[0].throughput,
            r[1].throughput,
            r[2].throughput,
            r[3].throughput,
            r[0].undetermined_pct,
            r[1].undetermined_pct,
            r[2].undetermined_pct,
            r[3].undetermined_pct,
        );
    }
    println!("(paper shape: P+C ~= 10x ST2/OP2 throughput, a few x APRIL; undetermined ~100% -> ~50% -> ~25%)");
}

/// Figure 7: (a) find-relation throughput of ST2/OP2/APRIL/P+C per
/// combination; (b) % of undetermined (refined) pairs per method.
pub fn fig7(scale: f64) {
    fig7_print(&fig7_collect(scale, false));
}

/// Builds the machine-readable benchmark telemetry (`stj-bench/v1`):
/// one entry per combination with per-method throughput and outcome
/// stats, plus the profiled P+C pass (per-stage latency histograms and
/// per-MBR-class breakdown) where one was collected.
pub fn bench_report(reports: &[ComboReport], scale: f64) -> Json {
    let labels = mbr_class_labels();
    let mut combos = Vec::with_capacity(reports.len());
    for rep in reports {
        let methods = METHODS
            .iter()
            .zip(&rep.results)
            .map(|(m, r)| r.to_json(m.name))
            .collect();
        let mut combo = Json::object([
            ("combo", Json::str(rep.combo.name())),
            ("pairs", Json::U64(rep.pairs as u64)),
            ("methods", Json::Arr(methods)),
        ]);
        if let Some(profile) = &rep.pc_profile {
            combo.push("pc_profile", profile.to_json(&labels));
        }
        combos.push(combo);
    }
    Json::object([
        ("schema", Json::str("stj-bench/v1")),
        ("scale", Json::F64(scale)),
        ("grid_order", Json::U64(u64::from(GRID_ORDER))),
        ("threads", Json::U64(threads() as u64)),
        ("combos", Json::Arr(combos)),
    ])
}

/// Where a bench binary writes its telemetry. All harness binaries
/// resolve their output through this one rule so `$STJ_BENCH_JSON`
/// works uniformly:
///
/// - unset → `default_name` in the working directory;
/// - set to a directory (existing, or any value ending in `/`) →
///   `dir/default_name`, letting one variable redirect *every* bench
///   artifact without filename collisions;
/// - set to anything else → used verbatim as the output file.
pub fn bench_output_path(default_name: &str) -> String {
    resolve_bench_output(
        std::env::var("STJ_BENCH_JSON").ok().as_deref(),
        default_name,
    )
}

/// The pure resolution rule behind [`bench_output_path`].
pub fn resolve_bench_output(env: Option<&str>, default_name: &str) -> String {
    match env {
        None => default_name.to_string(),
        Some(v) if v.ends_with('/') || std::path::Path::new(v).is_dir() => std::path::Path::new(v)
            .join(default_name)
            .display()
            .to_string(),
        Some(v) => v.to_string(),
    }
}

/// Where [`repro_all`] writes its telemetry: `$STJ_BENCH_JSON` (see
/// [`bench_output_path`]), or `BENCH_PR1.json` by default.
pub fn bench_json_path() -> String {
    bench_output_path("BENCH_PR1.json")
}

/// Table 4 + Figure 8: OLE-OPE pairs grouped into 10 equi-depth
/// complexity levels; per level, P+C filter effectiveness (8a) and the
/// cost split OP2-REF vs P+C-IF vs P+C-REF (8b). Also reports the
/// data-access saving (Sec 4.3).
pub fn fig8(scale: f64) {
    fig8_with(&ComboSetup::build(ComboId::OleOpe, scale));
}

/// [`fig8`] over a prebuilt setup (lets `repro_all` reuse OLE-OPE).
pub fn fig8_with(setup: &ComboSetup) {
    let levels = 10;
    let (ranges, groups) = complexity_levels(setup, levels);

    println!("== Table 4: OLE-OPE pairs by complexity level (sum of vertices) ==");
    println!(
        "{:<6} {:>18} {:>12}",
        "Level", "Sum of vertices", "Pair count"
    );
    for (l, (range, group)) in ranges.iter().zip(&groups).enumerate() {
        println!(
            "{:<6} {:>18} {:>12}",
            l + 1,
            format!("[{},{}]", range.0, range.1),
            group.len()
        );
    }

    println!("\n== Figure 8(a): P+C % undetermined, 8(b): time per level (OP2-REF / P+C-IF / P+C-REF) ==");
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "Level", "undet. %", "OP2-REF", "P+C-IF", "P+C-REF", "P+C total"
    );
    let op2 = &METHODS[1];
    let mut pc_refined_objects: HashSet<(bool, u32)> = HashSet::new();
    let mut all_objects: HashSet<(bool, u32)> = HashSet::new();
    for (l, group) in groups.iter().enumerate() {
        // OP2: effectively refinement for (almost) every pair.
        let t = Instant::now();
        for &(i, j) in group {
            let (r, s) = setup.pair(i, j);
            let _ = op2.run(r, s);
        }
        let op2_time = t.elapsed();

        // P+C split: intermediate-filter pass, then refinement pass.
        let t = Instant::now();
        let mut to_refine: Vec<(u32, u32, &[TopoRelation])> = Vec::new();
        for &(i, j) in group {
            let (r, s) = setup.pair(i, j);
            let mbr_rel = MbrRelation::classify(r.mbr, s.mbr);
            match intermediate_filter(mbr_rel, r, s) {
                IfOutcome::Definite(_) => {}
                IfOutcome::Refine(c) => to_refine.push((i, j, c)),
            }
        }
        let if_time = t.elapsed();
        let t = Instant::now();
        for &(i, j, _) in &to_refine {
            let (r, s) = setup.pair(i, j);
            let _ = TopoRelation::most_specific(&relate(&r.geom, &s.geom));
        }
        let ref_time = t.elapsed();

        for &(i, j) in group {
            all_objects.insert((true, i));
            all_objects.insert((false, j));
        }
        for &(i, j, _) in &to_refine {
            pc_refined_objects.insert((true, i));
            pc_refined_objects.insert((false, j));
        }

        let undet = to_refine.len() as f64 / group.len().max(1) as f64 * 100.0;
        println!(
            "{:<6} {:>11.1}% {:>12} {:>12} {:>12} {:>12}",
            l + 1,
            undet,
            fmt_dur(op2_time),
            fmt_dur(if_time),
            fmt_dur(ref_time),
            fmt_dur(if_time + ref_time),
        );
    }
    println!(
        "\ndata access: P+C loads {:.1}% of the unique objects OP2 loads (paper: 48.5%)",
        pc_refined_objects.len() as f64 / all_objects.len().max(1) as f64 * 100.0
    );
    println!("(paper shape: undetermined % falls with complexity; OP2-REF grows superlinearly; P+C total stays nearly flat)");
}

/// Table 5: find-relation vs `relate_p` throughput on OLE-OPE for the
/// equals / meets / inside predicates.
pub fn table5(scale: f64) {
    table5_with(&ComboSetup::build(ComboId::OleOpe, scale));
}

/// [`table5`] over a prebuilt setup (lets `repro_all` reuse OLE-OPE).
pub fn table5_with(setup: &ComboSetup) {
    println!("== Table 5: throughput (pairs/sec), find relation vs relate_p (OLE-OPE) ==");
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "Method", "Equals", "Meets", "Inside"
    );

    let fr = run_method(setup, &METHODS[3]);
    println!(
        "{:<14} {:>12.1} {:>12.1} {:>12.1}",
        "find relation", fr.throughput, fr.throughput, fr.throughput
    );

    let mut row = vec![];
    for p in [
        TopoRelation::Equals,
        TopoRelation::Meets,
        TopoRelation::Inside,
    ] {
        let t = Instant::now();
        let mut holds = 0u64;
        for &(i, j) in &setup.pairs {
            let (r, s) = setup.pair(i, j);
            if relate_p(r, s, p).holds {
                holds += 1;
            }
        }
        let dt = t.elapsed();
        row.push(setup.pairs.len() as f64 / dt.as_secs_f64().max(1e-12));
        let _ = holds;
    }
    println!(
        "{:<14} {:>12.1} {:>12.1} {:>12.1}",
        "relate_p", row[0], row[1], row[2]
    );
    println!(
        "(paper shape: relate_p >= find relation for all predicates; meets is dramatically faster)"
    );
}

/// Figure 9: the high-complexity lake-inside-park case study.
pub fn fig9() {
    let (lake_poly, park_poly) = fig9_lake_in_park(42);
    let grid = Grid::new(Rect::from_coords(0.0, 0.0, 1000.0, 1000.0), GRID_ORDER);
    let pair = DatasetArena::build(
        "fig9",
        &[lake_poly, park_poly],
        &grid,
        DEFAULT_MAX_INTERVALS,
        1,
    );
    let (lake, park) = (pair.object(0), pair.object(1));

    println!("== Figure 9: level-10 complexity pair (lake inside park) ==");
    println!("{:<14} {:>10} {:>10}", "", "Lake", "Park");
    println!(
        "{:<14} {:>10} {:>10}",
        "Vertices",
        lake.num_vertices(),
        park.num_vertices()
    );
    println!(
        "{:<14} {:>10.4} {:>10.4}",
        "MBR area",
        lake.mbr.area() / grid.extent().area(),
        park.mbr.area() / grid.extent().area()
    );
    println!(
        "{:<14} {:>10} {:>10}",
        "C-intervals",
        lake.april.c.len(),
        park.april.c.len()
    );
    println!(
        "{:<14} {:>10} {:>10}",
        "P-intervals",
        lake.april.p.len(),
        park.april.p.len()
    );

    let reps = 20u32;
    let mut times = Vec::new();
    for m in METHODS {
        let t = Instant::now();
        let mut out = None;
        for _ in 0..reps {
            out = Some(m.run(lake, park));
        }
        let dt = t.elapsed() / reps;
        times.push((m.name, out.unwrap().relation, dt));
    }
    println!("\n{:<8} {:<12} {:>12}", "Method", "Relation", "time/pair");
    for (name, rel, dt) in &times {
        println!("{:<8} {:<12} {:>12}", name, rel.to_string(), fmt_dur(*dt));
    }
    let pc = times.iter().find(|t| t.0 == "P+C").unwrap().2;
    let st2 = times.iter().find(|t| t.0 == "ST2").unwrap().2;
    println!(
        "\nP+C speedup on this pair: {:.0}x (paper: 50x)",
        st2.as_secs_f64() / pc.as_secs_f64()
    );
}

/// Runs every experiment in sequence (the `repro_all` binary) and
/// writes the `stj-bench/v1` telemetry to [`bench_json_path`].
pub fn repro_all() {
    let scale = default_scale();
    println!("# Scalable Spatial Topology Joins — full reproduction run");
    println!(
        "# scale={scale} grid_order={GRID_ORDER} threads={}  (set STJ_SCALE to change)\n",
        threads()
    );
    let t = Instant::now();
    table2(scale);
    println!();
    table3(scale);
    println!();
    let reports = fig7_collect(scale, true);
    fig7_print(&reports);
    println!();
    // OLE-OPE is reused by the complexity and relate_p experiments.
    let ole_ope = ComboSetup::build(ComboId::OleOpe, scale);
    fig8_with(&ole_ope);
    println!();
    table5_with(&ole_ope);
    println!();
    fig9();

    let path = bench_json_path();
    match std::fs::write(&path, bench_report(&reports, scale).render()) {
        Ok(()) => println!("\nwrote bench telemetry: {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
    println!("total reproduction time: {:.1?}", t.elapsed());
}

/// Compact duration formatting for table cells.
fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}
