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

/// The pair `(a, b)` preprocessed into a two-row arena.
fn pair_arena(a: Polygon, b: Polygon) -> DatasetArena {
    DatasetArena::build("pair", &[a, b], &grid(), DEFAULT_MAX_INTERVALS, 1)
}

/// Asserts converse symmetry for one preprocessed pair (rows 0 and 1),
/// for every join method and every `relate_p` predicate.
fn assert_converse(pair: &DatasetArena, ctx: &str) {
    let (r, s) = (pair.object(0), pair.object(1));
    let mut pctx = PairCtx {
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
        let fwd = method.find_relation(r, s, &mut pctx).relation;
        let rev = method.find_relation(s, r, &mut pctx).relation;
        assert_eq!(rev, fwd.converse(), "{name} {ctx}: {fwd:?} vs {rev:?}");
        // converse is an involution, so the reverse direction follows.
        assert_eq!(fwd, rev.converse(), "{name} {ctx} (back)");
    }
    for p in ALL_RELATIONS {
        let fwd = relate_p(r, s, p).holds;
        let rev = relate_p(s, r, p.converse()).holds;
        assert_eq!(fwd, rev, "relate_p({p:?}) {ctx}");
    }
}

#[test]
fn converse_holds_for_all_target_relations() {
    for rel in ALL_RELATIONS {
        for seed in 0..12u64 {
            let complexity = 8 + (seed as usize % 5) * 24;
            let (a, b) = pair_with_relation(rel, complexity, 0x5EED_0000 + seed);
            assert_converse(&pair_arena(a, b), &format!("target {rel:?} seed {seed}"));
        }
    }
}

#[test]
fn converse_holds_on_adversarial_pairs() {
    for index in 0..220u64 {
        let pair = stjoin::datagen::adversarial_pair(0xC0_FFEE, index);
        let ctx = format!("adversarial {} #{index}", pair.category);
        assert_converse(&pair_arena(pair.a, pair.b), &ctx);
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
        let (a, b) = pair_with_relation(ALL_RELATIONS[rel_idx], complexity, seed);
        let fwd_truth = TopoRelation::most_specific(&relate(&a, &b));
        let rev_truth = TopoRelation::most_specific(&relate(&b, &a));
        let pair = pair_arena(a, b);
        let (r, s) = (pair.object(0), pair.object(1));
        let fwd = find_relation(r, s).relation;
        let rev = find_relation(s, r).relation;
        prop_assert_eq!(rev, fwd.converse());
        // The DE-9IM oracle agrees with itself under transposition.
        prop_assert_eq!(rev_truth, fwd_truth.converse());
    }
}
