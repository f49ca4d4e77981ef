//! Differential property suite for the `TopologyJoin` executor: over
//! seeded datasets spanning several tiling resolutions, skew shapes, and
//! edge cases, the parallel streaming executor must produce exactly the
//! links (up to order), `PipelineStats`, candidate count, and profile
//! totals of a plain sequential loop — `mbr_join` candidates through the
//! per-pair entry point with a `Recorder` profiler
//! (`stjoin::check::reference_join`), which shares no scheduling code
//! with the executor — at every thread count, in find-relation and
//! predicate mode.

use stjoin::check::reference_join;
use stjoin::obs::Stage;
use stjoin::prelude::*;

/// Deterministic xorshift64* in [0, 1).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` axis-aligned rectangles scattered over `span` with the given max
/// edge length.
fn random_rect_polys(n: usize, seed: u64, span: f64, size: f64) -> Vec<Polygon> {
    let mut rng = Rng(seed.max(1));
    (0..n)
        .map(|_| {
            let x = rng.next() * span;
            let y = rng.next() * span;
            let w = rng.next().mul_add(size, 1.0);
            let h = rng.next().mul_add(size, 1.0);
            Polygon::rect(Rect::from_coords(x, y, x + w, y + h))
        })
        .collect()
}

fn arena(name: &str, polys: Vec<Polygon>, extent: Rect) -> DatasetArena {
    let grid = Grid::new(extent, 10);
    DatasetArena::build(name, &polys, &grid, DEFAULT_MAX_INTERVALS, 1)
}

fn sorted_links(mut links: Vec<Link>) -> Vec<Link> {
    links.sort_by_key(|l| (l.r, l.s));
    links
}

/// Runs the executor over the configuration across thread counts
/// (including `0` = auto-detect) and asserts full equivalence with the
/// sequential reference: links, stats, candidates, and exact profile
/// totals.
fn assert_equivalent(
    label: &str,
    left: &DatasetArena,
    right: &DatasetArena,
    method: JoinMethod,
    predicate: Option<TopoRelation>,
) {
    let baseline = reference_join(left, right, method, predicate);
    let base_links = sorted_links(baseline.links.clone());
    let base_profile = baseline.profile.as_ref().expect("profiled");
    let mut join = TopologyJoin::new().method(method);
    if let Some(p) = predicate {
        join = join.predicate(p);
    }
    for threads in [0, 1, 2, 4, 8] {
        let got = join.threads(threads).profiled(true).run(left, right);
        let tag = format!("{label}: x{threads}");
        assert_eq!(got.candidates, baseline.candidates, "{tag}: candidates");
        assert_eq!(got.stats, baseline.stats, "{tag}: stats");
        assert_eq!(sorted_links(got.links.clone()), base_links, "{tag}: links");
        let profile = got.profile.as_ref().expect("profiled");
        assert_eq!(
            profile.pairs_decided(),
            base_profile.pairs_decided(),
            "{tag}: pairs decided"
        );
        for stage in Stage::ALL {
            assert_eq!(
                profile.stage(stage).decided,
                base_profile.stage(stage).decided,
                "{tag}: {} decided",
                stage.name()
            );
            assert_eq!(
                profile.stage(stage).latency.count(),
                base_profile.stage(stage).latency.count(),
                "{tag}: {} latency count",
                stage.name()
            );
        }
        for (c, (got_c, base_c)) in profile
            .classes
            .iter()
            .zip(&base_profile.classes)
            .enumerate()
        {
            assert_eq!(got_c.pairs, base_c.pairs, "{tag}: class {c} pairs");
        }
    }
}

#[test]
fn random_datasets_across_tiling_resolutions() {
    // n drives the tile grid resolution k = ceil(sqrt(n / 32)): these
    // sizes produce three different tilings.
    for (n, seed) in [(40usize, 11u64), (300, 12), (1100, 13)] {
        let span = 1000.0;
        let extent = Rect::from_coords(-5.0, -5.0, span + 40.0, span + 40.0);
        let l = arena("L", random_rect_polys(n, seed, span, 28.0), extent);
        let r = arena("R", random_rect_polys(n, seed + 100, span, 28.0), extent);
        assert_equivalent(&format!("random n={n}"), &l, &r, JoinMethod::PC, None);
    }
}

#[test]
fn skewed_hot_spot_splits_without_divergence() {
    // A dense city block — 150 × 150 candidates in one tile, beyond the
    // skew-split threshold — plus a sparse countryside.
    let extent = Rect::from_coords(0.0, 0.0, 1100.0, 1100.0);
    let mut l = random_rect_polys(150, 21, 9.0, 4.0);
    l.extend(random_rect_polys(100, 22, 1000.0, 30.0));
    let mut r = random_rect_polys(150, 23, 9.0, 4.0);
    r.extend(random_rect_polys(100, 24, 1000.0, 30.0));
    let l = arena("L", l, extent);
    let r = arena("R", r, extent);
    assert_equivalent("skewed", &l, &r, JoinMethod::PC, None);
}

#[test]
fn empty_datasets() {
    let extent = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
    let empty = arena("E", vec![], extent);
    let some = arena("S", random_rect_polys(25, 31, 90.0, 10.0), extent);
    assert_equivalent("empty x empty", &empty, &empty, JoinMethod::PC, None);
    assert_equivalent("empty x some", &empty, &some, JoinMethod::PC, None);
    assert_equivalent("some x empty", &some, &empty, JoinMethod::PC, None);
}

#[test]
fn single_giant_object_replicated_across_all_tiles() {
    let extent = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let giant = arena(
        "G",
        vec![Polygon::rect(Rect::from_coords(1.0, 1.0, 999.0, 999.0))],
        extent,
    );
    let many = arena("M", random_rect_polys(400, 41, 980.0, 12.0), extent);
    assert_equivalent("giant x many", &giant, &many, JoinMethod::PC, None);
    assert_equivalent("many x giant", &many, &giant, JoinMethod::PC, None);
}

#[test]
fn identical_point_like_mbrs() {
    // Dozens of identical tiny squares: every MBR ties with every other
    // on all four sides, the regime where reference-point dedup and
    // xmin-sorted event partitioning are easiest to get wrong.
    let extent = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
    let sq = Polygon::rect(Rect::from_coords(50.0, 50.0, 50.5, 50.5));
    let l = arena("L", vec![sq.clone(); 40], extent);
    let r = arena("R", vec![sq; 30], extent);
    assert_equivalent("identical mbrs", &l, &r, JoinMethod::PC, None);
}

#[test]
fn all_methods_and_predicate_mode_agree_across_strategies() {
    let extent = Rect::from_coords(0.0, 0.0, 520.0, 520.0);
    let l = arena("L", random_rect_polys(220, 51, 500.0, 24.0), extent);
    let r = arena("R", random_rect_polys(220, 52, 500.0, 24.0), extent);
    for method in [
        JoinMethod::PC,
        JoinMethod::St2,
        JoinMethod::Op2,
        JoinMethod::April,
    ] {
        assert_equivalent(&format!("{method:?}"), &l, &r, method, None);
    }
    for predicate in [
        TopoRelation::Intersects,
        TopoRelation::Meets,
        TopoRelation::Contains,
    ] {
        assert_equivalent(
            &format!("predicate {predicate:?}"),
            &l,
            &r,
            JoinMethod::PC,
            Some(predicate),
        );
    }
}
