//! End-to-end topology joins over generated scenario datasets: all four
//! methods must produce identical relation results pair-by-pair, and the
//! filter-effectiveness ordering the paper reports (P+C refines ≤ APRIL
//! refines ≤ OP2/ST2 refine) must hold.

use std::collections::BTreeMap;
use stjoin::datagen::{generate_combo, ComboId};
use stjoin::de9im::RelateScratch;
use stjoin::obs::Disabled;
use stjoin::prelude::*;

/// Builds both datasets of a combo at a tiny scale into columnar arenas
/// and returns them plus the candidate pairs.
fn setup(combo: ComboId, scale: f64) -> (DatasetArena, DatasetArena, Vec<(u32, u32)>) {
    let (r_polys, s_polys) = generate_combo(combo, scale);
    let mut extent = Rect::empty();
    for p in r_polys.iter().chain(&s_polys) {
        extent.grow_rect(p.mbr());
    }
    let grid = Grid::new(extent, 12);
    let r = DatasetArena::build("R", &r_polys, &grid, DEFAULT_MAX_INTERVALS, 1);
    let s = DatasetArena::build("S", &s_polys, &grid, DEFAULT_MAX_INTERVALS, 1);
    let pairs = mbr_join(r.mbrs(), s.mbrs());
    (r, s, pairs)
}

fn run_combo(combo: ComboId, scale: f64, expect_if_decisions: bool) {
    let (r, s, pairs) = setup(combo, scale);
    assert!(!pairs.is_empty(), "{}: no candidate pairs", combo.name());

    let mut pc = PipelineStats::default();
    let mut st2 = PipelineStats::default();
    let mut op2 = PipelineStats::default();
    let mut april = PipelineStats::default();
    let mut histogram: BTreeMap<String, u64> = BTreeMap::new();
    let mut ctx = PairCtx {
        scratch: &mut RelateScratch::default(),
        prof: &mut Disabled,
        adaptive: None,
    };

    for &(i, j) in &pairs {
        let (ro, so) = (r.object(i as usize), s.object(j as usize));
        let a = find_relation(ro, so);
        let [b, c, d] = [JoinMethod::St2, JoinMethod::Op2, JoinMethod::April]
            .map(|m| m.find_relation(ro, so, &mut ctx));
        assert_eq!(a.relation, b.relation, "{} pair ({i},{j})", combo.name());
        assert_eq!(a.relation, c.relation, "{} pair ({i},{j})", combo.name());
        assert_eq!(a.relation, d.relation, "{} pair ({i},{j})", combo.name());
        pc.record(a.determination);
        st2.record(b.determination);
        op2.record(c.determination);
        april.record(d.determination);
        *histogram.entry(a.relation.to_string()).or_default() += 1;
    }

    // Filter-effectiveness ordering (Figure 7(b) shape).
    assert!(
        pc.refined <= april.refined,
        "{}: P+C refined {} > APRIL refined {}",
        combo.name(),
        pc.refined,
        april.refined
    );
    assert!(
        april.refined <= st2.refined,
        "{}: APRIL refined {} > ST2 refined {}",
        combo.name(),
        april.refined,
        st2.refined
    );
    assert!(
        op2.refined <= st2.refined,
        "{}: OP2 refined more than ST2",
        combo.name()
    );
    // The P+C pipeline must actually be doing intermediate-filter work on
    // scenario data — except in pure coverage scenarios (TC-TZ), where
    // every candidate pair shares boundary cells and legitimately needs
    // refinement or is decided by the MBR filter.
    if expect_if_decisions {
        assert!(
            pc.by_intermediate > 0,
            "{}: intermediate filters never fired",
            combo.name()
        );
    }
}

#[test]
fn lakes_parks_combo() {
    run_combo(ComboId::OleOpe, 0.012, true);
}

#[test]
fn buildings_parks_combo() {
    run_combo(ComboId::ObeOpe, 0.006, true);
}

#[test]
fn landmarks_water_combo() {
    run_combo(ComboId::TlTw, 0.02, true);
}

#[test]
fn counties_zipcodes_combo() {
    run_combo(ComboId::TcTz, 0.03, false);
}

#[test]
fn counties_zipcodes_have_rich_relation_mix() {
    // The nested coverage scenario must produce covered-by relations (zip
    // inside county) and meets (adjacent cells), not just intersects.
    let (r, s, pairs) = setup(ComboId::TcTz, 0.03);
    let mut covered = 0u64;
    let mut meets = 0u64;
    for &(i, j) in &pairs {
        match find_relation(r.object(i as usize), s.object(j as usize)).relation {
            TopoRelation::Covers | TopoRelation::Contains => covered += 1,
            TopoRelation::Meets => meets += 1,
            _ => {}
        }
    }
    assert!(covered > 0, "no county covers a zip code");
    assert!(meets > 0, "no county meets a zip code");
}

#[test]
fn relation_histogram_is_diverse_on_lakes_parks() {
    let (r, s, pairs) = setup(ComboId::OleOpe, 0.04);
    let mut seen = std::collections::BTreeSet::new();
    for &(i, j) in &pairs {
        seen.insert(find_relation(r.object(i as usize), s.object(j as usize)).relation);
    }
    // Expect at least intersects, one containment flavour, and a third
    // distinct relation (the exact mix depends on the sampled scale).
    assert!(seen.contains(&TopoRelation::Intersects), "{seen:?}");
    assert!(
        seen.contains(&TopoRelation::Inside) || seen.contains(&TopoRelation::CoveredBy),
        "{seen:?}"
    );
    assert!(seen.len() >= 3, "{seen:?}");
}
