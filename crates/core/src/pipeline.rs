//! Algorithm 1: the *find relation* pipeline (P+C method).
//!
//! For a pair whose MBRs intersect: classify the MBR intersection
//! (Sec 3.1), run the matching intermediate filter on the `P`/`C`
//! interval lists (Sec 3.2), and only when the filter cannot decide,
//! compute the DE-9IM matrix and match candidate masks specific→general
//! (selective refinement).

use crate::adaptive::{elapsed_ns, AdaptiveWorker, Gate};
use crate::arena::ObjectRef;
use crate::filters::{intermediate_filter, IfOutcome};
use std::time::Instant;
use stj_de9im::{relate_with, RelateScratch, TopoRelation};
use stj_index::MbrRelation;
use stj_obs::{Disabled, Profiler, Stage};

/// How a pair's relation (or [`crate::relate_p`] answer) was
/// determined — the pipeline stage that produced the answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Determination {
    /// Decided by the MBR filter alone (disjoint MBRs, or the crossing
    /// case of Figure 4(d)).
    MbrFilter,
    /// Decided by an intermediate raster filter without touching the
    /// geometries.
    IntermediateFilter,
    /// Required the DE-9IM matrix (the pair was *undetermined* in the
    /// paper's terminology).
    Refinement,
}

impl Determination {
    /// The profiling [`Stage`] this determination corresponds to.
    pub fn stage(self) -> Stage {
        match self {
            Determination::MbrFilter => Stage::MbrClassify,
            Determination::IntermediateFilter => Stage::IntermediateFilter,
            Determination::Refinement => Stage::Refinement,
        }
    }
}

/// Result of [`find_relation`]: the most specific relation plus which
/// stage decided it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FindOutcome {
    /// The most specific topological relation of the pair.
    pub relation: TopoRelation,
    /// The deciding pipeline stage.
    pub determination: Determination,
}

/// Per-worker state one pair runs through: the relate scratch arena,
/// the profiler, and the worker's view of the adaptive model. Join
/// workers and the serve handlers build one per worker or request and
/// pass it to every pair, so steady-state pairs reuse the same buffers.
pub struct PairCtx<'a, 'm, P: Profiler> {
    /// Reusable DE-9IM buffers: steady-state refinement allocates nothing.
    pub scratch: &'a mut RelateScratch,
    /// Per-stage observation; [`Disabled`] compiles to the uninstrumented
    /// pipeline.
    pub prof: &'a mut P,
    /// The adaptive controller, when on: the pair's (MBR class × mode)
    /// cell verdict decides whether the APRIL stage runs. `None` always
    /// runs it, with no timing and no counters.
    pub adaptive: Option<&'a mut AdaptiveWorker<'m>>,
}

impl<P: Profiler> PairCtx<'_, '_, P> {
    /// The adaptive route for a pair of MBR class `class` in query mode
    /// `predicate`; `None` without a worker (always keep, untimed).
    pub(crate) fn gate(
        &mut self,
        class: MbrRelation,
        predicate: Option<TopoRelation>,
    ) -> Option<Gate> {
        self.adaptive
            .as_deref_mut()
            .map(|w| w.gate(class, predicate))
    }

    /// Feeds a gated pair's outcome back to the adaptive worker.
    pub(crate) fn note(
        &mut self,
        gate: Option<Gate>,
        decided: bool,
        april_ns: Option<u64>,
        refine_ns: Option<u64>,
    ) {
        if let (Some(gate), Some(w)) = (gate, self.adaptive.as_deref_mut()) {
            w.record(gate, decided, april_ns, refine_ns);
        }
    }
}

/// Selective refinement: computes the DE-9IM matrix and resolves the most
/// specific relation.
///
/// `candidates` — the narrowed, specific→general list produced by the
/// MBR/intermediate filters — is consulted only by a debug assertion
/// validating the filters' soundness argument (the true relation must be
/// in the set); the returned relation is derived from the matrix alone.
fn refine(
    r: ObjectRef<'_>,
    s: ObjectRef<'_>,
    candidates: &[TopoRelation],
    scratch: &mut RelateScratch,
) -> TopoRelation {
    let m = relate_with(&r.geom, &s.geom, scratch);
    let best = TopoRelation::most_specific(&m);
    debug_assert!(
        candidates.contains(&best),
        "refinement found {best:?} outside candidate set {candidates:?} (matrix {m:?})"
    );
    best
}

/// Solves *find relation* for one candidate pair with the paper's P+C
/// pipeline (Algorithm 1), through fresh scratch memory.
pub fn find_relation(r: ObjectRef<'_>, s: ObjectRef<'_>) -> FindOutcome {
    find_relation_with(
        r,
        s,
        &mut PairCtx {
            scratch: &mut RelateScratch::default(),
            prof: &mut Disabled,
            adaptive: None,
        },
    )
}

/// [`find_relation`] through a worker's [`PairCtx`]: each stage's
/// latency and decisions, plus the pair's MBR class, go to `ctx.prof`,
/// and an adaptive worker may skip the APRIL stage for the pair's cell.
/// A skipped pair refines over its MBR class's own candidate set, so the
/// relation is the same either way; only the deciding stage moves.
pub fn find_relation_with<P: Profiler>(
    r: ObjectRef<'_>,
    s: ObjectRef<'_>,
    ctx: &mut PairCtx<'_, '_, P>,
) -> FindOutcome {
    let t = ctx.prof.start();
    let mbr_rel = MbrRelation::classify(r.mbr, s.mbr);
    ctx.prof.stage(Stage::MbrClassify, t);
    let out = match mbr_rel {
        MbrRelation::Disjoint => {
            ctx.prof.decided(Stage::MbrClassify);
            FindOutcome {
                relation: TopoRelation::Disjoint,
                determination: Determination::MbrFilter,
            }
        }
        MbrRelation::Cross => {
            ctx.prof.decided(Stage::MbrClassify);
            FindOutcome {
                relation: TopoRelation::Intersects,
                determination: Determination::MbrFilter,
            }
        }
        _ => {
            let gate = ctx.gate(mbr_rel, None);
            let timed = gate.is_some_and(|g| g.timed);
            let (filtered, april_ns) = if gate.is_some_and(|g| g.skip) {
                (IfOutcome::Refine(mbr_rel.candidates()), None)
            } else {
                let t = ctx.prof.start();
                let t0 = timed.then(Instant::now);
                let filtered = intermediate_filter(mbr_rel, r, s);
                let april_ns = t0.map(elapsed_ns);
                ctx.prof.stage(Stage::IntermediateFilter, t);
                (filtered, april_ns)
            };
            match filtered {
                IfOutcome::Definite(relation) => {
                    ctx.prof.decided(Stage::IntermediateFilter);
                    ctx.note(gate, true, april_ns, None);
                    FindOutcome {
                        relation,
                        determination: Determination::IntermediateFilter,
                    }
                }
                IfOutcome::Refine(cands) => {
                    let t = ctx.prof.start();
                    let t1 = timed.then(Instant::now);
                    let relation = refine(r, s, cands, ctx.scratch);
                    let refine_ns = t1.map(elapsed_ns);
                    ctx.prof.stage(Stage::Refinement, t);
                    ctx.prof.decided(Stage::Refinement);
                    ctx.note(gate, false, april_ns, refine_ns);
                    FindOutcome {
                        relation,
                        determination: Determination::Refinement,
                    }
                }
            }
        }
    };
    ctx.prof.mbr_class(
        mbr_rel as usize,
        out.determination == Determination::Refinement,
    );
    out
}

/// Aggregate statistics of a pipeline run over a pair stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Pairs processed.
    pub pairs: u64,
    /// Pairs decided by the MBR filter alone.
    pub by_mbr: u64,
    /// Pairs decided by the intermediate filters.
    pub by_intermediate: u64,
    /// Pairs requiring DE-9IM refinement (*undetermined* pairs).
    pub refined: u64,
}

impl PipelineStats {
    /// Records one pair decided at `determination`.
    pub fn record(&mut self, determination: Determination) {
        self.pairs += 1;
        match determination {
            Determination::MbrFilter => self.by_mbr += 1,
            Determination::IntermediateFilter => self.by_intermediate += 1,
            Determination::Refinement => self.refined += 1,
        }
    }

    /// Percentage of pairs that needed refinement — the paper's
    /// "% of undetermined pairs" metric (Figure 7(b), Figure 8(a)).
    pub fn undetermined_pct(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.refined as f64 / self.pairs as f64 * 100.0
        }
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &PipelineStats) {
        self.pairs += other.pairs;
        self.by_mbr += other.by_mbr;
        self.by_intermediate += other.by_intermediate;
        self.refined += other.refined;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{one_row, DatasetArena};
    use stj_geom::{Polygon, Rect};
    use stj_raster::Grid;

    fn grid() -> Grid {
        Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 8)
    }

    fn obj(x0: f64, y0: f64, x1: f64, y1: f64) -> DatasetArena {
        one_row(Polygon::rect(Rect::from_coords(x0, y0, x1, y1)), &grid())
    }

    #[test]
    fn disjoint_mbrs_decided_by_mbr_filter() {
        let a = obj(0.0, 0.0, 10.0, 10.0);
        let b = obj(50.0, 50.0, 60.0, 60.0);
        let out = find_relation(a.object(0), b.object(0));
        assert_eq!(out.relation, TopoRelation::Disjoint);
        assert_eq!(out.determination, Determination::MbrFilter);
    }

    #[test]
    fn crossing_mbrs_decided_by_mbr_filter() {
        let wide = obj(0.0, 40.0, 100.0, 60.0);
        let tall = obj(40.0, 0.0, 60.0, 100.0);
        let out = find_relation(wide.object(0), tall.object(0));
        assert_eq!(out.relation, TopoRelation::Intersects);
        assert_eq!(out.determination, Determination::MbrFilter);
    }

    #[test]
    fn deep_containment_decided_by_intermediate_filter() {
        let outer = obj(0.0, 0.0, 90.0, 90.0);
        let inner = obj(40.0, 40.0, 50.0, 50.0);
        let out = find_relation(inner.object(0), outer.object(0));
        assert_eq!(out.relation, TopoRelation::Inside);
        assert_eq!(out.determination, Determination::IntermediateFilter);
        let out2 = find_relation(outer.object(0), inner.object(0));
        assert_eq!(out2.relation, TopoRelation::Contains);
        assert_eq!(out2.determination, Determination::IntermediateFilter);
    }

    #[test]
    fn overlapping_bodies_decided_by_intermediate_filter() {
        // Big overlap: C of one overlaps P of the other.
        let a = obj(0.0, 0.0, 60.0, 60.0);
        let b = obj(30.0, 30.0, 90.0, 90.0);
        let out = find_relation(a.object(0), b.object(0));
        assert_eq!(out.relation, TopoRelation::Intersects);
        assert_eq!(out.determination, Determination::IntermediateFilter);
    }

    #[test]
    fn raster_disjoint_decided_by_intermediate_filter() {
        // MBRs overlap, bodies (and rasters) far apart within them.
        let a = one_row(
            Polygon::from_coords(vec![(0.0, 0.0), (40.0, 0.0), (0.0, 40.0)], vec![]).unwrap(),
            &grid(),
        );
        let b = one_row(
            Polygon::from_coords(vec![(40.0, 40.0), (40.0, 39.0), (39.0, 40.0)], vec![]).unwrap(),
            &grid(),
        );
        let out = find_relation(a.object(0), b.object(0));
        assert_eq!(out.relation, TopoRelation::Disjoint);
        assert_eq!(out.determination, Determination::IntermediateFilter);
    }

    #[test]
    fn touching_pair_requires_refinement() {
        // Shared edge: rasters cannot distinguish meets from a hairline
        // gap; refinement must resolve it.
        let a = obj(0.0, 0.0, 50.0, 50.0);
        let b = obj(50.0, 0.0, 90.0, 50.0);
        let out = find_relation(a.object(0), b.object(0));
        assert_eq!(out.relation, TopoRelation::Meets);
        assert_eq!(out.determination, Determination::Refinement);
    }

    #[test]
    fn equal_pair_requires_refinement_but_is_correct() {
        let a = obj(10.0, 10.0, 60.0, 60.0);
        let b = obj(10.0, 10.0, 60.0, 60.0);
        let out = find_relation(a.object(0), b.object(0));
        assert_eq!(out.relation, TopoRelation::Equals);
        assert_eq!(out.determination, Determination::Refinement);
    }

    #[test]
    fn covered_by_with_equal_mbrs() {
        // b fills a's full extent; a is a diagonal-ish slice covered by b.
        let b = obj(0.0, 0.0, 60.0, 60.0);
        let a = one_row(
            Polygon::from_coords(vec![(0.0, 0.0), (60.0, 0.0), (60.0, 60.0)], vec![]).unwrap(),
            &grid(),
        );
        let out = find_relation(a.object(0), b.object(0));
        assert_eq!(out.relation, TopoRelation::CoveredBy);
        let out2 = find_relation(b.object(0), a.object(0));
        assert_eq!(out2.relation, TopoRelation::Covers);
    }

    #[test]
    fn stats_accumulate() {
        let mut st = PipelineStats::default();
        let a = obj(0.0, 0.0, 10.0, 10.0);
        let b = obj(50.0, 50.0, 60.0, 60.0);
        let c = obj(2.0, 2.0, 8.0, 8.0);
        st.record(find_relation(a.object(0), b.object(0)).determination); // mbr
        st.record(find_relation(c.object(0), a.object(0)).determination); // intermediate (deep inside)
        st.record(find_relation(a.object(0), a.object(0)).determination); // refinement (equals)
        assert_eq!(st.pairs, 3);
        assert_eq!(st.by_mbr, 1);
        assert_eq!(st.by_intermediate, 1);
        assert_eq!(st.refined, 1);
        assert!((st.undetermined_pct() - 33.333).abs() < 0.01);
        let mut st2 = PipelineStats::default();
        st2.merge(&st);
        st2.merge(&st);
        assert_eq!(st2.pairs, 6);
        assert_eq!(st2.refined, 2);
    }

    #[test]
    fn pair_ctx_forms_agree_with_fresh_entry_points_on_adversarial_corpus() {
        use crate::adaptive::{AdaptiveMode, AdaptiveModel};
        use crate::relate_pred::{relate_p, relate_p_with};
        use stj_datagen::adversarial::{adversarial_pair, adversarial_space};
        use stj_obs::Recorder;
        use TopoRelation::*;

        let grid = Grid::new(adversarial_space(), 8);
        // A four-pair warm-up settles cells within the corpus, so both
        // warming and settled verdicts are exercised.
        let on = AdaptiveModel::with_warmup(AdaptiveMode::On, 4);
        let skip = AdaptiveModel::new(AdaptiveMode::ForceSkip);
        let mut on_worker = AdaptiveWorker::new(&on);
        let mut skip_worker = AdaptiveWorker::new(&skip);
        let mut scratch = RelateScratch::default();
        let mut rec = Recorder::default();
        for index in 0..220 {
            let pair = adversarial_pair(0xF01D, index);
            let a = one_row(pair.a, &grid);
            let b = one_row(pair.b, &grid);
            for (r, s) in [(&a, &b), (&b, &a)] {
                let (r, s) = (r.object(0), s.object(0));
                let want = find_relation(r, s);
                for adaptive in [None, Some(&mut on_worker), Some(&mut skip_worker)] {
                    let gated = adaptive.is_some();
                    let mut ctx = PairCtx {
                        scratch: &mut scratch,
                        prof: &mut rec,
                        adaptive,
                    };
                    let got = find_relation_with(r, s, &mut ctx);
                    if gated {
                        assert_eq!(got.relation, want.relation, "pair {index}");
                    } else {
                        assert_eq!(got, want, "pair {index}");
                    }
                    for p in [
                        Disjoint, Intersects, Meets, Equals, Inside, Contains, CoveredBy, Covers,
                    ] {
                        assert_eq!(
                            relate_p_with(r, s, p, &mut ctx).holds,
                            relate_p(r, s, p).holds,
                            "pair {index} predicate {p:?}"
                        );
                    }
                }
            }
            on_worker.flush();
        }
        skip_worker.flush();
        let on_report = on.report();
        assert!(
            on_report.classes.iter().any(|c| c.verdict != "warming"),
            "the on-mode cells must settle within the corpus"
        );
        assert!(skip.report().skipped_pairs() > 0, "force-skip must skip");
    }

    #[test]
    fn empty_stats_pct_is_zero() {
        assert_eq!(PipelineStats::default().undetermined_pct(), 0.0);
    }
}
