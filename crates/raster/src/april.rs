//! The APRIL object approximation: a Progressive and a Conservative
//! interval list per object.

use crate::grid::Grid;
use crate::intervals::{IntervalList, IntervalsRef};
use crate::rasterize::rasterize;
use stj_geom::Polygon;

/// A borrowed, `Copy`-able APRIL approximation: two interval-slice views
/// (progressive + conservative) carved out of an owned [`AprilApprox`] or
/// a columnar interval pool. The intermediate-filter relations run on
/// this type so both representations share one code path.
#[derive(Clone, Copy, Debug)]
pub struct AprilRef<'a> {
    /// Progressive list (full cells).
    pub p: IntervalsRef<'a>,
    /// Conservative list (full + partial cells).
    pub c: IntervalsRef<'a>,
}

/// The APRIL approximation of one object on a shared [`Grid`].
///
/// - `p` (*Progressive*): intervals over cells lying **entirely in the
///   object's interior** — a lower approximation; any cell of `p` proves
///   interior material.
/// - `c` (*Conservative*): intervals over **all cells the object
///   touches** — an upper approximation; a cell outside `c` proves
///   absence.
///
/// Invariant: `p ⊆ c` (cell-set inclusion).
#[derive(Clone, Debug, PartialEq)]
pub struct AprilApprox {
    /// Progressive list (full cells).
    pub p: IntervalList,
    /// Conservative list (full + partial cells).
    pub c: IntervalList,
}

impl AprilApprox {
    /// Builds the approximation of `poly` on `grid`.
    ///
    /// This is the paper's per-object preprocessing step — executed once
    /// per object, off the measured join path.
    pub fn build(poly: &Polygon, grid: &Grid) -> AprilApprox {
        let (p, c) = rasterize(poly, grid);
        debug_assert!(p.inside(&c), "progressive list must be within conservative");
        AprilApprox { p, c }
    }

    /// Builds the approximation of `poly` on `grid` and caps it at
    /// `max_intervals` intervals per list in one call.
    ///
    /// This is the entry point for *ad-hoc probe* polygons — e.g. an
    /// online `relate` query rasterizing a request geometry once and
    /// reusing the approximation across every candidate of the probe —
    /// where the polygon is not part of a preprocessed dataset but must
    /// receive exactly the same treatment (same rasterization, same
    /// budget coarsening) as stored objects so filter decisions agree
    /// with the offline pipeline bit-for-bit.
    pub fn build_capped(poly: &Polygon, grid: &Grid, max_intervals: usize) -> AprilApprox {
        AprilApprox::build(poly, grid).with_max_intervals(max_intervals)
    }

    /// An approximation with empty lists (used for placeholder slots in
    /// tests; a real object always has a non-empty `c`).
    pub fn empty() -> AprilApprox {
        AprilApprox {
            p: IntervalList::new(),
            c: IntervalList::new(),
        }
    }

    /// Caps the approximation at `max_intervals` intervals per list by
    /// progressively coarsening both lists (APRIL-style compression).
    ///
    /// Each coarsening step snaps `C` outward and `P` inward to
    /// power-of-two-aligned Hilbert ranges, so both stay *sound*
    /// (`C` conservative, `P` progressive) with strictly fewer
    /// intervals. Huge objects (counties, large parks) would otherwise
    /// carry tens of thousands of intervals, making the intermediate
    /// filter's merge-joins as expensive as the refinement they exist to
    /// avoid.
    pub fn with_max_intervals(self, max_intervals: usize) -> AprilApprox {
        if self.c.len().max(self.p.len()) <= max_intervals {
            return self;
        }
        // Re-derive from the originals at each step so the erosion is
        // exactly one alignment of 2^bits, not a compounding of all
        // previous attempts.
        for bits in (2..=24).step_by(2) {
            let c = self.c.coarsen_conservative(bits);
            let p = self.p.coarsen_progressive(bits);
            if c.len().max(p.len()) <= max_intervals || bits == 24 {
                debug_assert!(p.inside(&c));
                return AprilApprox { p, c };
            }
        }
        unreachable!("loop always returns at bits == 24");
    }

    /// A borrowed [`AprilRef`] over both lists.
    #[inline]
    pub fn as_ref(&self) -> AprilRef<'_> {
        AprilRef {
            p: self.p.as_ref(),
            c: self.c.as_ref(),
        }
    }

    /// Total interval count across both lists.
    pub fn num_intervals(&self) -> usize {
        self.p.len() + self.c.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stj_geom::Rect;

    fn grid() -> Grid {
        Grid::new(Rect::from_coords(0.0, 0.0, 64.0, 64.0), 6)
    }

    #[test]
    fn build_square() {
        let g = grid();
        let poly = Polygon::rect(Rect::from_coords(10.0, 10.0, 30.0, 30.0));
        let a = AprilApprox::build(&poly, &g);
        assert!(!a.c.is_empty());
        assert!(!a.p.is_empty());
        assert!(a.p.inside(&a.c));
        assert!(a.p.num_cells() < a.c.num_cells());
        assert_eq!(a.num_intervals(), a.p.len() + a.c.len());
    }

    #[test]
    fn small_objects_have_empty_p() {
        // The paper's Sec 4.3 observation: tiny polygons produce few or no
        // full cells. A polygon within one cell has an empty P list.
        let g = grid();
        let poly = Polygon::from_coords(vec![(5.1, 5.1), (5.6, 5.1), (5.4, 5.8)], vec![]).unwrap();
        let a = AprilApprox::build(&poly, &g);
        assert!(a.p.is_empty());
        assert_eq!(a.c.num_cells(), 1);
    }

    #[test]
    fn disjoint_objects_have_disjoint_c() {
        let g = grid();
        let a = AprilApprox::build(&Polygon::rect(Rect::from_coords(1.0, 1.0, 8.0, 8.0)), &g);
        let b = AprilApprox::build(
            &Polygon::rect(Rect::from_coords(40.0, 40.0, 60.0, 60.0)),
            &g,
        );
        assert!(!a.c.overlaps(&b.c));
    }

    #[test]
    fn contained_object_lists_nest() {
        let g = grid();
        let outer = AprilApprox::build(&Polygon::rect(Rect::from_coords(8.0, 8.0, 56.0, 56.0)), &g);
        let inner = AprilApprox::build(
            &Polygon::rect(Rect::from_coords(24.0, 24.0, 40.0, 40.0)),
            &g,
        );
        // The inner object's conservative cells sit inside the outer
        // object's progressive cells (it is deep inside).
        assert!(inner.c.inside(&outer.p));
        assert!(inner.c.inside(&outer.c));
    }

    #[test]
    fn identical_objects_have_identical_lists() {
        let g = grid();
        let p1 = Polygon::from_coords(vec![(3.0, 3.0), (20.0, 5.0), (12.0, 25.0)], vec![]).unwrap();
        let p2 = p1.clone();
        let a1 = AprilApprox::build(&p1, &g);
        let a2 = AprilApprox::build(&p2, &g);
        assert!(a1.c.matches(&a2.c));
        assert!(a1.p.matches(&a2.p));
    }

    #[test]
    fn interval_budget_caps_and_stays_sound() {
        let g = Grid::new(Rect::from_coords(0.0, 0.0, 64.0, 64.0), 10);
        // A big polygon: thousands of boundary cells at order 10.
        let poly = Polygon::rect(Rect::from_coords(1.3, 1.3, 62.7, 62.7));
        let full = AprilApprox::build(&poly, &g);
        assert!(full.c.len() > 256);
        let capped = full.clone().with_max_intervals(256);
        assert!(capped.c.len() <= 256);
        assert!(capped.p.len() <= 256);
        // Soundness: capped C covers everything the full C covered;
        // capped P stays within the full P.
        assert!(full.c.inside(&capped.c));
        assert!(capped.p.inside(&full.p));
        assert!(capped.p.inside(&capped.c));
        // A generous budget leaves the approximation untouched.
        let untouched = full.clone().with_max_intervals(usize::MAX);
        assert_eq!(untouched, full);
    }

    #[test]
    fn edge_budgets_stay_sound() {
        // `build_capped` at the degenerate budgets: 0, 1, and a budget
        // at or above the natural interval count. Whatever the budget,
        // the capped lists must keep the APRIL contract — capped C
        // covers the full C, capped P stays within the full P, and
        // P ⊆ C — because an unsound probe approximation would flip
        // filter verdicts against the offline pipeline.
        let g = Grid::new(Rect::from_coords(0.0, 0.0, 64.0, 64.0), 10);
        let poly = Polygon::rect(Rect::from_coords(1.3, 1.3, 62.7, 62.7));
        let full = AprilApprox::build(&poly, &g);

        // Budget 0 cannot be met — a non-empty object always needs at
        // least one conservative interval — so coarsening bottoms out
        // at the maximum alignment instead of returning an empty
        // (unsound) C list.
        let zero = AprilApprox::build_capped(&poly, &g, 0);
        assert!(!zero.c.is_empty());
        assert!(full.c.inside(&zero.c));
        assert!(zero.p.inside(&full.p));
        assert!(zero.p.inside(&zero.c));

        // Budget 1: maximal coarsening that actually satisfies the cap.
        let one = AprilApprox::build_capped(&poly, &g, 1);
        assert!(one.c.len() <= 1);
        assert!(one.p.len() <= 1);
        assert!(full.c.inside(&one.c));
        assert!(one.p.inside(&full.p));
        assert!(one.p.inside(&one.c));

        // A budget at the natural interval count leaves the lists
        // untouched, as does anything larger.
        let natural = full.c.len().max(full.p.len());
        assert_eq!(AprilApprox::build_capped(&poly, &g, natural), full);
        assert_eq!(AprilApprox::build_capped(&poly, &g, natural + 1), full);
    }

    #[test]
    fn coarsening_directions() {
        use crate::intervals::IntervalList;
        let l = IntervalList::from_ranges(vec![(3, 9), (17, 18), (33, 47)]);
        let cons = l.coarsen_conservative(2); // align to multiples of 4
        assert_eq!(cons.intervals(), &[(0, 12), (16, 20), (32, 48)]);
        assert!(l.inside(&cons));
        let prog = l.coarsen_progressive(2);
        assert_eq!(prog.intervals(), &[(4, 8), (36, 44)]); // (17,18) vanishes
        assert!(prog.inside(&l));
    }

    #[test]
    fn empty_placeholder() {
        let e = AprilApprox::empty();
        assert!(e.p.is_empty() && e.c.is_empty());
    }
}
