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
fn oracle(a: &Polygon, b: &Polygon) -> TopoRelation {
    TopoRelation::most_specific(&relate(a, b))
}

/// Preprocesses `(a, b)` into a two-row arena and checks every method
/// and predicate on its rows against the oracle on the polygons.
fn assert_all_methods_agree(a: &Polygon, b: &Polygon, ctx: &str) {
    let pair = DatasetArena::build(
        "pair",
        &[a.clone(), b.clone()],
        &grid(),
        DEFAULT_MAX_INTERVALS,
        1,
    );
    let (r, s) = (pair.object(0), pair.object(1));
    let expect = oracle(a, b);
    assert_eq!(find_relation(r, s).relation, expect, "P+C {ctx}");
    let mut pctx = PairCtx {
        scratch: &mut RelateScratch::default(),
        prof: &mut Disabled,
        adaptive: None,
    };
    for method in [JoinMethod::St2, JoinMethod::Op2, JoinMethod::April] {
        assert_eq!(
            method.find_relation(r, s, &mut pctx).relation,
            expect,
            "{method:?} {ctx}"
        );
    }
    for p in ALL_RELATIONS {
        let want = p.holds(&relate(a, b));
        assert_eq!(relate_p(r, s, p).holds, want, "relate_p({p:?}) {ctx}");
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
        assert_all_methods_agree(&a, &b, "random pair");
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
        let c = a.mbr().center();
        let scaled: Vec<Point> = a
            .outer()
            .vertices()
            .iter()
            .map(|v| Point::new(c.x + (v.x - c.x) * factor + dx, c.y + (v.y - c.y) * factor + dy))
            .collect();
        let b = Polygon::new(Ring::new(scaled).unwrap(), Vec::new());
        assert_all_methods_agree(&a, &b, "nested pair");
        assert_all_methods_agree(&b, &a, "nested pair swapped");
    }
}

#[test]
fn pipeline_matches_oracle_on_targeted_relations() {
    for rel in ALL_RELATIONS {
        for seed in 0..8u64 {
            for complexity in [16usize, 100, 700] {
                let (a, b) = pair_with_relation(rel, complexity, seed);
                assert_eq!(oracle(&a, &b), rel, "generator contract {rel:?}");
                assert_all_methods_agree(&a, &b, &format!("{rel:?} seed {seed} c {complexity}"));
            }
        }
    }
}

#[test]
fn determination_paths_are_all_reachable() {
    // Over a diverse polygon soup, the P+C pipeline must exercise every
    // determination path (MBR, intermediate, refinement).
    // Scale chosen so the soup is dense enough that containment pairs
    // (intermediate-filter decisions) occur for any RNG stream.
    let polys = stjoin::datagen::generate(stjoin::datagen::DatasetId::OLE, 0.03);
    let objs = DatasetArena::build("soup", &polys, &grid(), DEFAULT_MAX_INTERVALS, 1);
    let mut stats = PipelineStats::default();
    for i in 0..objs.len() {
        for j in i + 1..objs.len() {
            stats.record(find_relation(objs.object(i), objs.object(j)).determination);
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
