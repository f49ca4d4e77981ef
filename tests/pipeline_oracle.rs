//! The headline correctness property of the reproduction: for arbitrary
//! polygon pairs, every method (P+C pipeline, ST2, OP2, APRIL) returns
//! exactly the relation the DE-9IM oracle dictates, and `relate_p`
//! agrees with mask semantics for every predicate.
//!
//! Random pairs are drawn to hit all MBR classes (disjoint, equal,
//! containment, cross-ish, partial overlap) and all determination paths.

use proptest::prelude::*;
use stjoin::datagen::{pair_with_relation, star_polygon, StarParams};
use stjoin::de9im::RelateScratch;
use stjoin::obs::Disabled;
use stjoin::prelude::*;

const ALL_RELATIONS: [TopoRelation; 8] = [
    TopoRelation::Disjoint,
    TopoRelation::Intersects,
    TopoRelation::Meets,
    TopoRelation::Equals,
    TopoRelation::Inside,
    TopoRelation::Contains,
    TopoRelation::CoveredBy,
    TopoRelation::Covers,
];

fn grid() -> Grid {
    Grid::new(Rect::from_coords(-200.0, -200.0, 1200.0, 1200.0), 11)
}

/// Oracle: the most specific relation per the DE-9IM matrix.
fn oracle(r: &SpatialObject, s: &SpatialObject) -> TopoRelation {
    TopoRelation::most_specific(&relate(&r.polygon, &s.polygon))
}

fn assert_all_methods_agree(r: &SpatialObject, s: &SpatialObject, ctx: &str) {
    let expect = oracle(r, s);
    assert_eq!(
        find_relation(r.view(), s.view()).relation,
        expect,
        "P+C {ctx}"
    );
    let mut pair = PairCtx {
        scratch: &mut RelateScratch::default(),
        prof: &mut Disabled,
        adaptive: None,
    };
    for method in [JoinMethod::St2, JoinMethod::Op2, JoinMethod::April] {
        assert_eq!(
            method.find_relation(r.view(), s.view(), &mut pair).relation,
            expect,
            "{method:?} {ctx}"
        );
    }
    for p in ALL_RELATIONS {
        let want = p.holds(&relate(&r.polygon, &s.polygon));
        assert_eq!(
            relate_p(r.view(), s.view(), p).holds,
            want,
            "relate_p({p:?}) {ctx}"
        );
    }
}

/// A random star polygon strategy with proptest-controlled parameters.
fn star_strategy() -> impl Strategy<Value = Polygon> {
    (
        0u64..1_000_000,  // seed
        4usize..60,       // vertices
        -50.0..1000.0f64, // cx
        -50.0..1000.0f64, // cy
        0.5..120.0f64,    // radius
    )
        .prop_map(|(seed, n, cx, cy, radius)| {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(seed);
            star_polygon(
                &mut rng,
                &StarParams {
                    center: Point::new(cx, cy),
                    avg_radius: radius,
                    irregularity: 0.5,
                    spikiness: 0.3,
                    num_vertices: n,
                },
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Independent random pairs — mostly disjoint or partial overlaps.
    #[test]
    fn pipeline_matches_oracle_on_random_pairs(a in star_strategy(), b in star_strategy()) {
        let g = grid();
        let r = SpatialObject::build(a, &g);
        let s = SpatialObject::build(b, &g);
        assert_all_methods_agree(&r, &s, "random pair");
    }

    /// Nested pairs — exercises containment paths and the Inside/Contains
    /// intermediate filters.
    #[test]
    fn pipeline_matches_oracle_on_nested_pairs(
        a in star_strategy(),
        factor in 0.05..1.4f64,
        dx in -20.0..20.0f64,
        dy in -20.0..20.0f64,
    ) {
        let g = grid();
        let c = a.mbr().center();
        let scaled: Vec<Point> = a
            .outer()
            .vertices()
            .iter()
            .map(|v| Point::new(c.x + (v.x - c.x) * factor + dx, c.y + (v.y - c.y) * factor + dy))
            .collect();
        let b = Polygon::new(Ring::new(scaled).unwrap(), Vec::new());
        let r = SpatialObject::build(a, &g);
        let s = SpatialObject::build(b, &g);
        assert_all_methods_agree(&r, &s, "nested pair");
        assert_all_methods_agree(&s, &r, "nested pair swapped");
    }
}

#[test]
fn pipeline_matches_oracle_on_targeted_relations() {
    let g = grid();
    for rel in ALL_RELATIONS {
        for seed in 0..8u64 {
            for complexity in [16usize, 100, 700] {
                let (a, b) = pair_with_relation(rel, complexity, seed);
                let r = SpatialObject::build(a, &g);
                let s = SpatialObject::build(b, &g);
                assert_eq!(oracle(&r, &s), rel, "generator contract {rel:?}");
                assert_all_methods_agree(&r, &s, &format!("{rel:?} seed {seed} c {complexity}"));
            }
        }
    }
}

#[test]
fn determination_paths_are_all_reachable() {
    // Over a diverse polygon soup, the P+C pipeline must exercise every
    // determination path (MBR, intermediate, refinement).
    let g = grid();
    // Scale chosen so the soup is dense enough that containment pairs
    // (intermediate-filter decisions) occur for any RNG stream.
    let polys = stjoin::datagen::generate(stjoin::datagen::DatasetId::OLE, 0.03);
    let objs: Vec<SpatialObject> = polys
        .into_iter()
        .map(|p| SpatialObject::build(p, &g))
        .collect();
    let mut stats = PipelineStats::default();
    for (i, r) in objs.iter().enumerate() {
        for s in objs.iter().skip(i + 1) {
            stats.record(find_relation(r.view(), s.view()).determination);
        }
    }
    assert!(stats.pairs > 0);
    assert!(stats.by_mbr > 0, "no MBR-decided pairs: {stats:?}");
    assert!(
        stats.by_intermediate > 0,
        "no intermediate-filter-decided pairs: {stats:?}"
    );
    assert_eq!(
        stats.pairs,
        stats.by_mbr + stats.by_intermediate + stats.refined
    );
}
