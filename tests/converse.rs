//! Converse symmetry across every join method: for any pair `(r, s)`
//! and any relation `p`, `p(r, s)` holds iff `p.converse()(s, r)` does,
//! and the most specific relation of the swapped pair is the converse
//! of the original. Pairs are drawn per target relation so that all
//! eight relations — including the asymmetric `Inside`/`Contains` and
//! `CoveredBy`/`Covers` pairs — are exercised, not just whatever a
//! uniform sampler happens to produce.

use proptest::prelude::*;
use stjoin::datagen::pair_with_relation;
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
    Grid::new(Rect::from_coords(-200.0, -200.0, 1200.0, 1200.0), 10)
}

/// Asserts converse symmetry for one preprocessed pair, for every join
/// method and every `relate_p` predicate.
fn assert_converse(r: &SpatialObject, s: &SpatialObject, ctx: &str) {
    let mut pair = PairCtx {
        scratch: &mut RelateScratch::default(),
        prof: &mut Disabled,
        adaptive: None,
    };
    let methods = [
        ("P+C", JoinMethod::PC),
        ("ST2", JoinMethod::St2),
        ("OP2", JoinMethod::Op2),
        ("APRIL", JoinMethod::April),
    ];
    for (name, method) in methods {
        let fwd = method.find_relation(r.view(), s.view(), &mut pair).relation;
        let rev = method.find_relation(s.view(), r.view(), &mut pair).relation;
        assert_eq!(rev, fwd.converse(), "{name} {ctx}: {fwd:?} vs {rev:?}");
        // converse is an involution, so the reverse direction follows.
        assert_eq!(fwd, rev.converse(), "{name} {ctx} (back)");
    }
    for p in ALL_RELATIONS {
        let fwd = relate_p(r.view(), s.view(), p).holds;
        let rev = relate_p(s.view(), r.view(), p.converse()).holds;
        assert_eq!(fwd, rev, "relate_p({p:?}) {ctx}");
    }
}

#[test]
fn converse_holds_for_all_target_relations() {
    let grid = grid();
    for rel in ALL_RELATIONS {
        for seed in 0..12u64 {
            let complexity = 8 + (seed as usize % 5) * 24;
            let (a, b) = pair_with_relation(rel, complexity, 0x5EED_0000 + seed);
            let r = SpatialObject::build(a, &grid);
            let s = SpatialObject::build(b, &grid);
            assert_converse(&r, &s, &format!("target {rel:?} seed {seed}"));
        }
    }
}

#[test]
fn converse_holds_on_adversarial_pairs() {
    let grid = grid();
    for index in 0..220u64 {
        let pair = stjoin::datagen::adversarial_pair(0xC0_FFEE, index);
        let r = SpatialObject::build(pair.a, &grid);
        let s = SpatialObject::build(pair.b, &grid);
        assert_converse(&r, &s, &format!("adversarial {} #{index}", pair.category));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random (relation, complexity, seed) draws: the swapped pair's
    /// most specific relation is always the converse of the original's.
    #[test]
    fn converse_is_involutive_on_random_pairs(
        rel_idx in 0usize..8,
        complexity in 8usize..96,
        seed in any::<u64>(),
    ) {
        let grid = grid();
        let (a, b) = pair_with_relation(ALL_RELATIONS[rel_idx], complexity, seed);
        let r = SpatialObject::build(a, &grid);
        let s = SpatialObject::build(b, &grid);
        let fwd = find_relation(r.view(), s.view()).relation;
        let rev = find_relation(s.view(), r.view()).relation;
        prop_assert_eq!(rev, fwd.converse());
        // The DE-9IM oracle agrees with itself under transposition.
        let fwd_truth = TopoRelation::most_specific(&relate(&r.polygon, &s.polygon));
        let rev_truth = TopoRelation::most_specific(&relate(&s.polygon, &r.polygon));
        prop_assert_eq!(rev_truth, fwd_truth.converse());
    }
}
