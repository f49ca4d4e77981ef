//! `relate_p` — predicate-specific topology tests (Sec 3.3, Figure 6).
//!
//! Instead of finding the most specific relation, `relate_p` answers
//! "does relation `p` hold for this pair?" with a filter sequence
//! tailored to `p`. Three short-circuit layers:
//!
//! 1. **Impossible relation** — the MBR classification already rules `p`
//!    out (e.g. `equals` with different MBRs, `meets` with crossing
//!    MBRs).
//! 2. **Raster verdicts** — merge-joins on the `P`/`C` lists that either
//!    confirm (`rC ⊆ sP` proves containment) or refute (`rC ⊄ sC`
//!    refutes containment; interior cell contact refutes `meets`).
//! 3. **Refinement** — DE-9IM as the fallback.

use crate::adaptive::elapsed_ns;
use crate::arena::ObjectRef;
use crate::pipeline::{Determination, PairCtx};
use std::time::Instant;
use stj_de9im::{relate_with, RelateScratch, TopoRelation};
use stj_index::MbrRelation;
use stj_obs::{Disabled, Profiler, Stage};

/// Result of a [`relate_p`] query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RelateOutcome {
    /// Whether relation `p` holds for the pair.
    pub holds: bool,
    /// The deciding stage ([`Determination::MbrFilter`] includes the
    /// impossible-relation short-circuits).
    pub determination: Determination,
}

/// Layer 1 verdict from the MBR classification alone: `Some(holds)` for
/// impossible-relation short-circuits and the two self-confirming MBR
/// cases, `None` if the rasters must be consulted.
fn mbr_verdict(mbr_rel: MbrRelation, p: TopoRelation) -> Option<bool> {
    use TopoRelation::*;
    match mbr_rel {
        MbrRelation::Disjoint => Some(p == Disjoint),
        // Definite `intersects`: the only relation consistent with a
        // crossing-MBR pair is plain intersects.
        MbrRelation::Cross => Some(p == Intersects),
        _ if !mbr_rel.admits(p) => Some(false),
        _ => None,
    }
}

/// Layer 2 verdict from the predicate-specific raster filters
/// (Figure 6): `Some(holds)` when the `P`/`C` merge-joins confirm or
/// refute `p`, `None` when the pair must be refined.
fn raster_verdict(r: ObjectRef<'_>, s: ObjectRef<'_>, p: TopoRelation) -> Option<bool> {
    use TopoRelation::*;
    let (ra, sa) = (r.april, s.april);
    match p {
        Equals => {
            if !ra.c.matches(sa.c) || !ra.p.matches(sa.p) {
                return Some(false);
            }
        }
        Inside | CoveredBy => {
            if !ra.c.inside(sa.c) {
                return Some(false);
            }
            if ra.c.inside(sa.p) {
                // Proves r ⊂ int(s): strict containment, which satisfies
                // both `inside` and `covered by`.
                return Some(true);
            }
        }
        Contains | Covers => {
            if !ra.c.contains(sa.c) {
                return Some(false);
            }
            if ra.p.contains(sa.c) {
                return Some(true);
            }
        }
        Meets => {
            if !ra.c.overlaps(sa.c) {
                // Disjoint: no boundary contact.
                return Some(false);
            }
            if ra.c.overlaps(sa.p) || ra.p.overlaps(sa.c) {
                // Interiors provably meet: not `meets`.
                return Some(false);
            }
        }
        Intersects => {
            if !ra.c.overlaps(sa.c) {
                return Some(false);
            }
            if ra.c.overlaps(sa.p) || ra.p.overlaps(sa.c) {
                return Some(true);
            }
        }
        Disjoint => {
            if !ra.c.overlaps(sa.c) {
                return Some(true);
            }
            if ra.c.overlaps(sa.p) || ra.p.overlaps(sa.c) {
                return Some(false);
            }
        }
    }
    None
}

/// Tests whether topological relation `p` holds between `r` and `s`,
/// through fresh scratch memory.
pub fn relate_p(r: ObjectRef<'_>, s: ObjectRef<'_>, p: TopoRelation) -> RelateOutcome {
    relate_p_with(
        r,
        s,
        p,
        &mut PairCtx {
            scratch: &mut RelateScratch::default(),
            prof: &mut Disabled,
            adaptive: None,
        },
    )
}

/// [`relate_p`] through a worker's [`PairCtx`], mirroring
/// [`crate::pipeline::find_relation_with`]: each layer's latency and
/// decisions, plus the pair's MBR class, go to `ctx.prof`, and an
/// adaptive worker may skip the raster layer for the pair's
/// (class × predicate) cell without changing the answer.
pub fn relate_p_with<P: Profiler>(
    r: ObjectRef<'_>,
    s: ObjectRef<'_>,
    p: TopoRelation,
    ctx: &mut PairCtx<'_, '_, P>,
) -> RelateOutcome {
    // Layer 1: MBR classification and its short-circuits.
    let t = ctx.prof.start();
    let mbr_rel = MbrRelation::classify(r.mbr, s.mbr);
    let l1 = mbr_verdict(mbr_rel, p);
    ctx.prof.stage(Stage::MbrClassify, t);
    if let Some(holds) = l1 {
        ctx.prof.decided(Stage::MbrClassify);
        ctx.prof.mbr_class(mbr_rel as usize, false);
        return RelateOutcome {
            holds,
            determination: Determination::MbrFilter,
        };
    }

    // Layer 2: predicate-specific raster filters, unless the cell skips
    // them.
    let gate = ctx.gate(mbr_rel, Some(p));
    let timed = gate.is_some_and(|g| g.timed);
    let mut april_ns = None;
    if !gate.is_some_and(|g| g.skip) {
        let t = ctx.prof.start();
        let t0 = timed.then(Instant::now);
        let l2 = raster_verdict(r, s, p);
        april_ns = t0.map(elapsed_ns);
        ctx.prof.stage(Stage::IntermediateFilter, t);
        if let Some(holds) = l2 {
            ctx.prof.decided(Stage::IntermediateFilter);
            ctx.prof.mbr_class(mbr_rel as usize, false);
            ctx.note(gate, true, april_ns, None);
            return RelateOutcome {
                holds,
                determination: Determination::IntermediateFilter,
            };
        }
    }

    // Layer 3: refinement.
    let t = ctx.prof.start();
    let t1 = timed.then(Instant::now);
    let holds = p.holds(&relate_with(&r.geom, &s.geom, ctx.scratch));
    let refine_ns = t1.map(elapsed_ns);
    ctx.prof.stage(Stage::Refinement, t);
    ctx.prof.decided(Stage::Refinement);
    ctx.prof.mbr_class(mbr_rel as usize, true);
    ctx.note(gate, false, april_ns, refine_ns);
    RelateOutcome {
        holds,
        determination: Determination::Refinement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{one_row, DatasetArena};
    use stj_de9im::relate;
    use stj_geom::{Polygon, Rect};
    use stj_raster::Grid;
    use TopoRelation::*;

    fn grid() -> Grid {
        Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 8)
    }

    fn obj(x0: f64, y0: f64, x1: f64, y1: f64) -> DatasetArena {
        one_row(Polygon::rect(Rect::from_coords(x0, y0, x1, y1)), &grid())
    }

    /// Oracle: full relate + relation semantics.
    fn oracle(r: &DatasetArena, s: &DatasetArena, p: TopoRelation) -> bool {
        p.holds(&relate(&r.object(0).geom, &s.object(0).geom))
    }

    const ALL: [TopoRelation; 8] = [
        Disjoint, Intersects, Meets, Equals, Inside, Contains, CoveredBy, Covers,
    ];

    #[test]
    fn agrees_with_oracle_on_catalog() {
        let objects = [
            obj(0.0, 0.0, 50.0, 50.0),   // base
            obj(10.0, 10.0, 30.0, 30.0), // deep inside base
            obj(0.0, 0.0, 50.0, 50.0),   // equal to base
            obj(50.0, 0.0, 90.0, 50.0),  // meets base on an edge
            obj(60.0, 60.0, 90.0, 90.0), // disjoint from base
            obj(25.0, 25.0, 75.0, 75.0), // overlaps base
            obj(0.0, 0.0, 25.0, 25.0),   // covered by base (corner)
        ];
        for (i, r) in objects.iter().enumerate() {
            for (j, s) in objects.iter().enumerate() {
                for p in ALL {
                    let got = relate_p(r.object(0), s.object(0), p);
                    assert_eq!(got.holds, oracle(r, s, p), "pair ({i},{j}) predicate {p:?}");
                }
            }
        }
    }

    #[test]
    fn impossible_relations_short_circuit() {
        let small = obj(10.0, 10.0, 20.0, 20.0);
        let big = obj(0.0, 0.0, 50.0, 50.0);
        // small's MBR is inside big's: contains/covers/equals impossible.
        for p in [Contains, Covers, Equals] {
            let out = relate_p(small.object(0), big.object(0), p);
            assert!(!out.holds);
            assert_eq!(out.determination, Determination::MbrFilter, "{p:?}");
        }
    }

    #[test]
    fn cross_mbrs_answer_from_mbr_alone() {
        let wide = obj(0.0, 40.0, 100.0, 60.0);
        let tall = obj(40.0, 0.0, 60.0, 100.0);
        let out = relate_p(wide.object(0), tall.object(0), Intersects);
        assert!(out.holds);
        assert_eq!(out.determination, Determination::MbrFilter);
        let out = relate_p(wide.object(0), tall.object(0), Meets);
        assert!(!out.holds);
        assert_eq!(out.determination, Determination::MbrFilter);
    }

    #[test]
    fn meets_refuted_cheaply_for_clear_overlaps() {
        let a = obj(0.0, 0.0, 60.0, 60.0);
        let b = obj(30.0, 30.0, 90.0, 90.0);
        let out = relate_p(a.object(0), b.object(0), Meets);
        assert!(!out.holds);
        assert_eq!(out.determination, Determination::IntermediateFilter);
    }

    #[test]
    fn deep_containment_confirmed_by_raster() {
        let outer = obj(0.0, 0.0, 90.0, 90.0);
        let inner = obj(40.0, 40.0, 50.0, 50.0);
        for p in [Inside, CoveredBy] {
            let out = relate_p(inner.object(0), outer.object(0), p);
            assert!(out.holds, "{p:?}");
            assert_eq!(out.determination, Determination::IntermediateFilter);
        }
        for p in [Contains, Covers] {
            let out = relate_p(outer.object(0), inner.object(0), p);
            assert!(out.holds, "{p:?}");
            assert_eq!(out.determination, Determination::IntermediateFilter);
        }
    }

    #[test]
    fn equals_refuted_by_differing_lists() {
        // Same MBR, different footprints.
        let square = obj(0.0, 0.0, 60.0, 60.0);
        let tri = one_row(
            Polygon::from_coords(
                vec![
                    (0.0, 0.0),
                    (60.0, 0.0),
                    (60.0, 60.0),
                    (0.0, 60.0),
                    (0.0, 30.0),
                    (30.0, 30.0),
                    (30.0, 15.0),
                    (0.0, 15.0),
                ],
                vec![],
            )
            .unwrap(),
            &grid(),
        );
        let out = relate_p(square.object(0), tri.object(0), Equals);
        assert!(!out.holds);
        assert_eq!(out.determination, Determination::IntermediateFilter);
    }

    #[test]
    fn equals_needs_refinement_when_lists_match() {
        let a = obj(0.0, 0.0, 60.0, 60.0);
        let b = obj(0.0, 0.0, 60.0, 60.0);
        let out = relate_p(a.object(0), b.object(0), Equals);
        assert!(out.holds);
        assert_eq!(out.determination, Determination::Refinement);
    }

    #[test]
    fn disjoint_predicate_paths() {
        let a = obj(0.0, 0.0, 10.0, 10.0);
        let far = obj(50.0, 50.0, 60.0, 60.0);
        let out = relate_p(a.object(0), far.object(0), Disjoint);
        assert!(out.holds);
        assert_eq!(out.determination, Determination::MbrFilter);

        // Bodies near but separate with overlapping MBRs.
        let t1 = one_row(
            Polygon::from_coords(vec![(0.0, 0.0), (40.0, 0.0), (0.0, 40.0)], vec![]).unwrap(),
            &grid(),
        );
        let t2 = one_row(
            Polygon::from_coords(vec![(40.0, 40.0), (40.0, 39.0), (39.0, 40.0)], vec![]).unwrap(),
            &grid(),
        );
        let out = relate_p(t1.object(0), t2.object(0), Disjoint);
        assert!(out.holds);
        assert_eq!(out.determination, Determination::IntermediateFilter);
    }
}
