//! The comparison methods of the paper's evaluation (Sec 4): ST2, OP2
//! and APRIL, alongside the P+C pipeline in
//! [`crate::pipeline::find_relation`].
//!
//! All four methods consume the same candidate stream (pairs whose MBRs
//! intersect) and produce the same relations; they differ in how much
//! work decides each pair:
//!
//! | method | MBR usage | intermediate filter | refinement |
//! |---|---|---|---|
//! | ST2 | intersect test only | — | every pair |
//! | OP2 | Figure 4 classification (narrows masks; decides cross pairs) | — | almost every pair |
//! | APRIL | intersect test only | intersection-only \[14\] (detects disjoint) | every non-disjoint pair |
//! | P+C | Figure 4 classification | full Figure 5 flows | undetermined pairs only |

use crate::arena::ObjectRef;
use crate::pipeline::{find_relation_with, Determination, FindOutcome, PairCtx};
use stj_de9im::{relate_with, RelateScratch, TopoRelation};
use stj_index::MbrRelation;
use stj_obs::Profiler;

/// Which find-relation method a pair (or a [`crate::TopologyJoin`]) uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JoinMethod {
    /// The paper's P+C pipeline (default).
    #[default]
    PC,
    /// Standard two-phase (MBR + full DE-9IM).
    St2,
    /// Typed-MBR two-phase.
    Op2,
    /// APRIL intersection-only intermediate filter.
    April,
}

impl JoinMethod {
    /// Solves *find relation* for one pair with this method, through the
    /// worker's [`PairCtx`]. P+C runs [`find_relation_with`]. The
    /// baselines are not instrumented internally: when profiling, the
    /// whole call is timed and attributed to the stage that decided the
    /// pair (no per-MBR-class breakdown), and they never consult the
    /// adaptive worker.
    #[inline]
    pub fn find_relation<P: Profiler>(
        self,
        r: ObjectRef<'_>,
        s: ObjectRef<'_>,
        ctx: &mut PairCtx<'_, '_, P>,
    ) -> FindOutcome {
        let baseline = match self {
            JoinMethod::PC => return find_relation_with(r, s, ctx),
            JoinMethod::St2 => st2,
            JoinMethod::Op2 => op2,
            JoinMethod::April => april,
        };
        let t = ctx.prof.start();
        let out = baseline(r, s, ctx.scratch);
        if P::ENABLED {
            let stage = out.determination.stage();
            ctx.prof.stage(stage, t);
            ctx.prof.decided(stage);
        }
        out
    }
}

/// Refinement's answer: the most specific relation of the full matrix.
fn refined(relation: TopoRelation) -> FindOutcome {
    FindOutcome {
        relation,
        determination: Determination::Refinement,
    }
}

/// ST2 — standard 2-phase: MBR intersect test, then a full DE-9IM
/// computation matched against all masks.
fn st2(r: ObjectRef<'_>, s: ObjectRef<'_>, scratch: &mut RelateScratch) -> FindOutcome {
    if !r.mbr.intersects(s.mbr) {
        return FindOutcome {
            relation: TopoRelation::Disjoint,
            determination: Determination::MbrFilter,
        };
    }
    refined(TopoRelation::most_specific(&relate_with(
        &r.geom, &s.geom, scratch,
    )))
}

/// OP2 — optimized 2-phase: the Figure 4 MBR classification narrows the
/// candidate masks (and decides crossing-MBR pairs outright), but every
/// other pair still pays for the DE-9IM matrix.
fn op2(r: ObjectRef<'_>, s: ObjectRef<'_>, scratch: &mut RelateScratch) -> FindOutcome {
    let mbr_rel = MbrRelation::classify(r.mbr, s.mbr);
    match mbr_rel {
        MbrRelation::Disjoint => FindOutcome {
            relation: TopoRelation::Disjoint,
            determination: Determination::MbrFilter,
        },
        MbrRelation::Cross => FindOutcome {
            relation: TopoRelation::Intersects,
            determination: Determination::MbrFilter,
        },
        _ => {
            let m = relate_with(&r.geom, &s.geom, scratch);
            // Walk only the candidate masks, specific→general; the
            // narrowed sets are provably complete for each MBR class.
            refined(
                mbr_rel
                    .candidates()
                    .iter()
                    .copied()
                    .find(|rel| rel.holds(&m))
                    .unwrap_or_else(|| TopoRelation::most_specific(&m)),
            )
        }
    }
}

/// APRIL — the intermediate filter of \[14\]: detects raster-level
/// disjointness and definite intersection, but as it cannot specialize
/// beyond `intersects`, every non-disjoint pair still requires the DE-9IM
/// matrix to find the *most specific* relation.
fn april(r: ObjectRef<'_>, s: ObjectRef<'_>, scratch: &mut RelateScratch) -> FindOutcome {
    if !r.mbr.intersects(s.mbr) {
        return FindOutcome {
            relation: TopoRelation::Disjoint,
            determination: Determination::MbrFilter,
        };
    }
    if !r.april.c.overlaps(s.april.c) {
        return FindOutcome {
            relation: TopoRelation::Disjoint,
            determination: Determination::IntermediateFilter,
        };
    }
    // The APRIL filter can also prove intersection (C∩P contact), but for
    // find-relation that knowledge cannot skip refinement: a more
    // specific relation may hold. Only disjointness short-circuits.
    refined(TopoRelation::most_specific(&relate_with(
        &r.geom, &s.geom, scratch,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{one_row, DatasetArena};
    use crate::pipeline::find_relation;
    use stj_geom::{Polygon, Rect};
    use stj_obs::Disabled;
    use stj_raster::Grid;

    fn grid() -> Grid {
        Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 8)
    }

    fn obj(x0: f64, y0: f64, x1: f64, y1: f64) -> DatasetArena {
        one_row(Polygon::rect(Rect::from_coords(x0, y0, x1, y1)), &grid())
    }

    fn run(method: JoinMethod, r: &DatasetArena, s: &DatasetArena) -> FindOutcome {
        method.find_relation(
            r.object(0),
            s.object(0),
            &mut PairCtx {
                scratch: &mut RelateScratch::default(),
                prof: &mut Disabled,
                adaptive: None,
            },
        )
    }

    fn catalog() -> Vec<DatasetArena> {
        vec![
            obj(0.0, 0.0, 50.0, 50.0),
            obj(10.0, 10.0, 30.0, 30.0),
            obj(0.0, 0.0, 50.0, 50.0),
            obj(50.0, 0.0, 90.0, 50.0),
            obj(60.0, 60.0, 90.0, 90.0),
            obj(25.0, 25.0, 75.0, 75.0),
            obj(0.0, 0.0, 25.0, 25.0),
            one_row(
                Polygon::from_coords(vec![(0.0, 0.0), (40.0, 0.0), (0.0, 40.0)], vec![]).unwrap(),
                &grid(),
            ),
            one_row(
                Polygon::from_coords(
                    vec![(0.0, 40.0), (100.0, 40.0), (100.0, 60.0), (0.0, 60.0)],
                    vec![],
                )
                .unwrap(),
                &grid(),
            ),
            one_row(
                Polygon::from_coords(
                    vec![(40.0, 0.0), (60.0, 0.0), (60.0, 100.0), (40.0, 100.0)],
                    vec![],
                )
                .unwrap(),
                &grid(),
            ),
        ]
    }

    #[test]
    fn all_methods_agree_on_relations() {
        let objs = catalog();
        for r in &objs {
            for s in &objs {
                let expect = run(JoinMethod::St2, r, s).relation;
                assert_eq!(run(JoinMethod::Op2, r, s).relation, expect);
                assert_eq!(run(JoinMethod::April, r, s).relation, expect);
                assert_eq!(find_relation(r.object(0), s.object(0)).relation, expect);
            }
        }
    }

    #[test]
    fn st2_refines_everything_non_disjoint_mbr() {
        let a = obj(0.0, 0.0, 50.0, 50.0);
        let b = obj(10.0, 10.0, 30.0, 30.0);
        assert_eq!(
            run(JoinMethod::St2, &a, &b).determination,
            Determination::Refinement
        );
        let far = obj(90.0, 90.0, 95.0, 95.0);
        assert_eq!(
            run(JoinMethod::St2, &a, &far).determination,
            Determination::MbrFilter
        );
    }

    #[test]
    fn op2_decides_cross_without_refinement() {
        let wide = obj(0.0, 40.0, 100.0, 60.0);
        let tall = obj(40.0, 0.0, 60.0, 100.0);
        let out = run(JoinMethod::Op2, &wide, &tall);
        assert_eq!(out.determination, Determination::MbrFilter);
        assert_eq!(out.relation, TopoRelation::Intersects);
    }

    #[test]
    fn april_detects_raster_disjoint_without_refinement() {
        let t1 = one_row(
            Polygon::from_coords(vec![(0.0, 0.0), (40.0, 0.0), (0.0, 40.0)], vec![]).unwrap(),
            &grid(),
        );
        let t2 = one_row(
            Polygon::from_coords(vec![(40.0, 40.0), (40.0, 39.0), (39.0, 40.0)], vec![]).unwrap(),
            &grid(),
        );
        let out = run(JoinMethod::April, &t1, &t2);
        assert_eq!(out.relation, TopoRelation::Disjoint);
        assert_eq!(out.determination, Determination::IntermediateFilter);
    }

    #[test]
    fn april_still_refines_deep_containment() {
        // The containment P+C decides cheaply still costs APRIL a full
        // refinement — the crux of the paper's contribution.
        let outer = obj(0.0, 0.0, 90.0, 90.0);
        let inner = obj(40.0, 40.0, 50.0, 50.0);
        assert_eq!(
            run(JoinMethod::April, &inner, &outer).determination,
            Determination::Refinement
        );
        assert_eq!(
            find_relation(inner.object(0), outer.object(0)).determination,
            Determination::IntermediateFilter
        );
    }
}
