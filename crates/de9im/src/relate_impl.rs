//! DE-9IM matrix computation for areal geometries.
//!
//! This is the refinement oracle of the pipeline — the expensive step the
//! intermediate raster filters exist to avoid. The algorithm (see
//! DESIGN.md §2 for the full argument):
//!
//! 1. Find all boundary–boundary segment intersections with a plane sweep
//!    over segment MBRs.
//! 2. If any **proper crossing** exists, the matrix is all-`T`: at a
//!    transversal crossing each boundary locally passes from the other
//!    geometry's interior to its exterior, which populates every cell.
//! 3. Otherwise **node** both boundaries at the touch points and
//!    collinear-overlap endpoints. Every resulting sub-edge lies entirely
//!    in one part (interior/boundary/exterior) of the other geometry, so
//!    classifying its midpoint fills the boundary rows/columns exactly.
//! 4. The three interior/exterior cells (`II`, `IE`, `EI`) follow from
//!    the sub-edge classes plus representative interior points — one per
//!    connected interior component — which close the remaining
//!    shared-boundary cases (e.g. a polygon exactly filling another's
//!    hole).
//!
//! Inputs are assumed OGC-valid (simple rings, holes inside shells,
//! touching allowed, crossing not). Validity matches the datasets the
//! paper evaluates on; invalid inputs degrade gracefully to *some*
//! matrix but without the guarantees tested here.
//!
//! ## Scratch arenas
//!
//! A single `relate` call needs roughly a dozen transient buffers —
//! noding output, sweep event lists, the intersection hit list, sub-edge
//! parameter vectors. Allocating them per call is what made the join's
//! refine stage allocator-bound (~5.6M allocations on the OBE self-join;
//! see DESIGN.md §10). [`RelateScratch`] owns all of them; callers on the
//! hot path hold one scratch per worker and call [`relate_with`], which
//! only *clears* the buffers between pairs, so steady-state refinement
//! performs no allocations at all. [`relate`] stays as the allocating
//! one-shot wrapper.
//!
//! The scratch also bounds the *work* of a pair by the part of it that
//! can interact, not by the larger geometry. For a building paired with a
//! park, nothing below walks the park's whole boundary:
//!
//! - the sweep takes its window `mbr(r) ∩ mbr(s)` from the prepared
//!   locators' strip indexes (see [`stj_geom::sweep`]), so it visits the
//!   park strips around the building, and sorts and scans only the park
//!   edges whose MBR meets the window;
//! - `classify_boundary` walks only those windowed edges. Every edge left
//!   out of the window has an MBR that misses the window, hence misses
//!   the other geometry's MBR (its own lies inside its geometry's MBR).
//!   Such an edge has no hits, so it is one sub-edge with midpoint
//!   `at(0.5)`, which lies inside the edge's MBR (rounding is monotone)
//!   and so outside the other geometry's MBR: `Outside`, by `locate`'s
//!   first test. One left-out edge therefore sets "boundary meets
//!   exterior", and the left-out edges can set nothing else;
//! - the two [`Prepared`] slots keep their point-location index across
//!   calls and rebuild it only when the incoming geometry's edges differ
//!   bit for bit from the prepared ones, so a run of pairs sharing the
//!   park prepares the park once. The check is by content, not address:
//!   serve workers keep one scratch across requests and reloads, where a
//!   new probe or a remapped arena can land at an old address. It streams
//!   the geometry's rings against the prepared edges without copying
//!   them; this `O(n)` comparison is the one part of a pair that still
//!   scales with the park.
//!
//! Each step yields exactly the matrix the unwindowed, unprepared path
//! does.

use crate::matrix::{De9Im, Part};
use stj_geom::locator::EdgeSetLocator;
use stj_geom::multipolygon::Areal;
use stj_geom::polygon::Location;
use stj_geom::seg_intersect::SegSegIntersection;
use stj_geom::sweep::{located_boundary_pairs_into, EdgePairHit, SweepScratch};
use stj_geom::{InteriorScratch, Point, Rect, Segment};

/// A geometry preprocessed for repeated `relate` calls: boundary edges,
/// strip-indexed point locator and representative interior points.
///
/// The edge list lives inside the locator; [`Prepared::prepare`] rebuilds
/// everything in place so one `Prepared` can be recycled across
/// geometries without allocating, and skips the locator rebuild when the
/// incoming geometry's edges are bit-identical to the ones it holds. The
/// locator's strip index serves point location and the sweep's window
/// query alike.
pub struct Prepared {
    locator: EdgeSetLocator,
    interior_points: Vec<Point>,
    mbr: Rect,
    num_vertices: usize,
}

impl Prepared {
    /// Preprocesses `g` (cost `O(n log n)` in the number of vertices).
    pub fn new<G: Areal>(g: &G) -> Prepared {
        let mut p = Prepared::empty();
        p.prepare(g, &mut InteriorScratch::default());
        p
    }

    /// An empty shell holding no geometry; pair with
    /// [`prepare`](Self::prepare) to populate it in place.
    pub fn empty() -> Prepared {
        Prepared {
            locator: EdgeSetLocator::empty(),
            interior_points: Vec::new(),
            mbr: Rect::empty(),
            num_vertices: 0,
        }
    }

    /// Re-targets this `Prepared` at `g`, rebuilding edges, locator index
    /// and interior points inside the retained buffers.
    ///
    /// When `g`'s edge sequence is bit-identical to the one already
    /// prepared — consecutive pairs of a join usually share their large
    /// side — the locator index is kept as it is. Reuse is decided by
    /// content, never by address: a geometry mutated in place, or a new
    /// one allocated where an old one lived, still gets a fresh index.
    /// The comparison streams `g`'s rings against the prepared edges
    /// ([`Areal::same_edges`]) and stops at the first difference; only a
    /// mismatch collects `g`'s edges, straight into the locator.
    pub fn prepare<G: Areal + ?Sized>(&mut self, g: &G, interior: &mut InteriorScratch) {
        let _site = stj_obs::alloc::enter(stj_obs::AllocSite::Noding);
        if !g.same_edges(self.locator.edges()) {
            self.locator.rebuild(|out| g.collect_edges(out));
        }
        self.interior_points.clear();
        g.collect_interior_points(interior, &mut self.interior_points);
        self.mbr = g.mbr();
        self.num_vertices = g.num_vertices();
    }

    /// The boundary edges, in collection order.
    #[inline]
    pub fn edges(&self) -> &[Segment] {
        self.locator.edges()
    }

    /// The geometry's MBR.
    #[inline]
    pub fn mbr(&self) -> &Rect {
        &self.mbr
    }

    /// Total vertex count (the paper's complexity measure).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Exact point location against the prepared geometry.
    #[inline]
    pub fn locate(&self, p: Point) -> Location {
        self.locator.locate(p)
    }
}

/// Reusable working memory for [`relate_with`]: two recyclable
/// [`Prepared`] slots plus every transient buffer the sweep and sub-edge
/// classification need. One per worker thread; buffers are cleared (never
/// shrunk) between calls, so a warmed scratch relates without allocating.
#[derive(Default)]
pub struct RelateScratch {
    pa: Prepared,
    pb: Prepared,
    sweep: SweepScratch,
    hits: Vec<EdgePairHit>,
    classify: ClassifyScratch,
    interior: InteriorScratch,
}

impl Default for Prepared {
    fn default() -> Prepared {
        Prepared::empty()
    }
}

/// Computes the boolean DE-9IM matrix of `(r, s)`.
///
/// Convenience wrapper that prepares both geometries with one-shot
/// buffers; use [`relate_with`] on hot paths.
pub fn relate<A: Areal, B: Areal>(r: &A, s: &B) -> De9Im {
    relate_with(r, s, &mut RelateScratch::default())
}

/// Computes the boolean DE-9IM matrix of `(r, s)` using caller-owned
/// scratch memory. Steady-state allocation-free: after a few warm-up
/// calls the scratch's buffers have grown to working size and are only
/// cleared between pairs.
///
/// A geometry that participates in many pairs needs no separate
/// [`relate_prepared`] call: the scratch keeps `r` and `s` prepared in
/// its two slots, and a following call whose `r` (or `s`) has the same
/// edges reuses that slot's point-location index instead of rebuilding
/// it (see [`Prepared::prepare`]).
pub fn relate_with<A: Areal, B: Areal>(r: &A, s: &B, scratch: &mut RelateScratch) -> De9Im {
    let RelateScratch {
        pa,
        pb,
        sweep,
        hits,
        classify,
        interior,
    } = scratch;
    pa.prepare(r, interior);
    pb.prepare(s, interior);
    relate_prepared_into(pa, pb, sweep, hits, classify)
}

/// Computes the boolean DE-9IM matrix of `(r, s)` from prepared
/// geometries. Rows index parts of `r`, columns parts of `s`.
pub fn relate_prepared(r: &Prepared, s: &Prepared) -> De9Im {
    relate_prepared_into(
        r,
        s,
        &mut SweepScratch::default(),
        &mut Vec::new(),
        &mut ClassifyScratch::default(),
    )
}

fn relate_prepared_into(
    r: &Prepared,
    s: &Prepared,
    sweep: &mut SweepScratch,
    hits: &mut Vec<EdgePairHit>,
    classify: &mut ClassifyScratch,
) -> De9Im {
    if !r.mbr.intersects(&s.mbr) {
        return De9Im::DISJOINT;
    }

    located_boundary_pairs_into(
        &r.locator, &s.locator, /*stop_on_proper=*/ true, sweep, hits,
    );
    if matches!(
        hits.last(),
        Some(EdgePairHit {
            kind: SegSegIntersection::Proper(_),
            ..
        })
    ) {
        // A transversal boundary crossing populates all nine cells.
        return De9Im::ALL_TRUE;
    }

    // Classify r's boundary sub-edges against s and vice versa, walking
    // only the edges the sweep windowed.
    let r_flags = classify_boundary(r, sweep, hits, HitSide::First, s, classify);
    let s_flags = classify_boundary(s, sweep, hits, HitSide::Second, r, classify);

    let boundaries_touch = !hits.is_empty();
    debug_assert!(
        !(r_flags.on_boundary ^ s_flags.on_boundary),
        "collinear overlap must be seen from both sides"
    );

    let mut m = De9Im::EMPTY;
    m.set(Part::Boundary, Part::Interior, r_flags.in_interior);
    m.set(Part::Boundary, Part::Exterior, r_flags.in_exterior);
    m.set(Part::Interior, Part::Boundary, s_flags.in_interior);
    m.set(Part::Exterior, Part::Boundary, s_flags.in_exterior);
    m.set(Part::Boundary, Part::Boundary, boundaries_touch);
    m.set(Part::Exterior, Part::Exterior, true);

    // II: a boundary sub-edge of either geometry inside the other implies
    // interior overlap (open neighborhoods); otherwise only whole-interior
    // coincidences remain, closed by the representative points.
    let mut rep_r_inside = false;
    let mut rep_r_outside = false;
    for &p in &r.interior_points {
        match s.locate(p) {
            Location::Inside => rep_r_inside = true,
            Location::Outside => rep_r_outside = true,
            Location::Boundary => {}
        }
    }
    let mut rep_s_inside = false;
    let mut rep_s_outside = false;
    for &p in &s.interior_points {
        match r.locate(p) {
            Location::Inside => rep_s_inside = true,
            Location::Outside => rep_s_outside = true,
            Location::Boundary => {}
        }
    }
    let ii = r_flags.in_interior || s_flags.in_interior || rep_r_inside || rep_s_inside;
    m.set(Part::Interior, Part::Interior, ii);

    // IE: r's interior reaches s's exterior.
    let ie = r_flags.in_exterior || s_flags.in_interior || rep_r_outside;
    m.set(Part::Interior, Part::Exterior, ie);

    // EI: s's interior reaches r's exterior.
    let ei = s_flags.in_exterior || r_flags.in_interior || rep_s_outside;
    m.set(Part::Exterior, Part::Interior, ei);

    m
}

/// Which side of an [`EdgePairHit`] an edge index refers to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum HitSide {
    First,
    Second,
}

/// Aggregate classification of one geometry's boundary against the other
/// geometry: does any sub-edge lie in its interior / exterior / on its
/// boundary?
#[derive(Clone, Copy, Debug, Default)]
struct BoundaryFlags {
    in_interior: bool,
    in_exterior: bool,
    on_boundary: bool,
}

/// Reusable buffers for [`classify_boundary`]: a CSR per-windowed-edge
/// grouping of the hit list plus the per-edge parameter vectors.
#[derive(Debug, Default)]
struct ClassifyScratch {
    /// CSR offsets: windowed edge `w`'s hits are
    /// `hit_idx[offs[w]..offs[w + 1]]`.
    offs: Vec<u32>,
    /// Indices into the hit list, grouped by our-side windowed edge.
    hit_idx: Vec<u32>,
    /// Split parameters of the edge under classification.
    ts: Vec<f64>,
    /// Collinear-overlap parameter ranges of that edge.
    on_ranges: Vec<(f64, f64)>,
}

/// Splits every windowed edge of `ours` at its recorded intersection
/// points and classifies each sub-edge midpoint against `other`. Sub-edges
/// falling inside a collinear-overlap range are classified as on-boundary
/// directly (their midpoints are only floating-point-close to the other
/// boundary).
///
/// Only the edges of `ours` that the sweep windowed are visited. An edge
/// left out of the window lies off `other`'s MBR, has no hits, and is
/// classified exterior without being visited (see the module docs).
fn classify_boundary(
    ours: &Prepared,
    sweep: &SweepScratch,
    hits: &[EdgePairHit],
    side: HitSide,
    other: &Prepared,
    scratch: &mut ClassifyScratch,
) -> BoundaryFlags {
    let _site = stj_obs::alloc::enter(stj_obs::AllocSite::SubEdge);
    let (a_window, b_window) = sweep.windowed();
    let window = match side {
        HitSide::First => a_window,
        HitSide::Second => b_window,
    };
    let pos = |p: &(u32, u32)| match side {
        HitSide::First => p.0 as usize,
        HitSide::Second => p.1 as usize,
    };

    // Group hits by our-side windowed edge, CSR-style in the retained
    // buffers: count per edge, prefix-sum to start offsets, scatter with
    // the offsets as cursors, shift the cursors back to starts. Sized by
    // the window, not the boundary.
    let offs = &mut scratch.offs;
    offs.clear();
    offs.resize(window.len() + 1, 0);
    for p in sweep.hit_positions() {
        offs[pos(p) + 1] += 1;
    }
    for w in 0..window.len() {
        offs[w + 1] += offs[w];
    }
    scratch.hit_idx.clear();
    scratch.hit_idx.resize(hits.len(), 0);
    // Scattering in hit order keeps each edge's hits in hit-list order.
    for (k, p) in sweep.hit_positions().iter().enumerate() {
        let w = pos(p);
        scratch.hit_idx[offs[w] as usize] = k as u32;
        offs[w] += 1;
    }
    for w in (1..=window.len()).rev() {
        offs[w] = offs[w - 1];
    }
    offs[0] = 0;

    let mut flags = BoundaryFlags {
        in_exterior: window.len() < ours.edges().len(),
        ..BoundaryFlags::default()
    };
    let ts = &mut scratch.ts;
    let on_ranges = &mut scratch.on_ranges;

    for (w, (_, edge)) in window.iter().enumerate() {
        if flags.in_interior && flags.in_exterior && flags.on_boundary {
            break; // all information gathered
        }
        let (lo, hi) = (offs[w] as usize, offs[w + 1] as usize);
        if lo == hi && !other.locator.mbr().contains_point(edge.at(0.5)) {
            // An unhit edge is one sub-edge with midpoint `at(0.5)`; off
            // the other's MBR that midpoint is `Outside`, which is the
            // first test `locate` makes.
            flags.in_exterior = true;
            continue;
        }
        ts.clear();
        on_ranges.clear();
        ts.push(0.0);
        ts.push(1.0);
        for &k in &scratch.hit_idx[lo..hi] {
            match hits[k as usize].kind {
                SegSegIntersection::Proper(p) | SegSegIntersection::Touch(p) => {
                    ts.push(param_on(edge, p));
                }
                SegSegIntersection::CollinearOverlap(p, q) => {
                    let (tp, tq) = (param_on(edge, p), param_on(edge, q));
                    let (lo, hi) = if tp <= tq { (tp, tq) } else { (tq, tp) };
                    ts.push(lo);
                    ts.push(hi);
                    on_ranges.push((lo, hi));
                }
                SegSegIntersection::None => unreachable!("sweep only reports intersections"),
            }
        }
        ts.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite parameter"));
        ts.dedup();

        for w in ts.windows(2) {
            let (t0, t1) = (w[0].max(0.0), w[1].min(1.0));
            if t1 <= t0 {
                continue;
            }
            let tm = (t0 + t1) * 0.5;
            if on_ranges.iter().any(|&(lo, hi)| lo <= tm && tm <= hi) {
                flags.on_boundary = true;
                continue;
            }
            match other.locate(edge.at(tm)) {
                Location::Inside => flags.in_interior = true,
                Location::Outside => flags.in_exterior = true,
                Location::Boundary => flags.on_boundary = true,
            }
        }
    }
    flags
}

/// Parameter of point `p` (known to lie on `edge`) along the edge,
/// projected on the dominant axis for conditioning.
#[inline]
fn param_on(edge: &Segment, p: Point) -> f64 {
    let dx = edge.b.x - edge.a.x;
    let dy = edge.b.y - edge.a.y;
    let t = if dx.abs() >= dy.abs() {
        if dx == 0.0 {
            0.0
        } else {
            (p.x - edge.a.x) / dx
        }
    } else {
        (p.y - edge.a.y) / dy
    };
    t.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::TopoRelation;
    use stj_geom::{MultiPolygon, Polygon};

    fn sq(x0: f64, y0: f64, x1: f64, y1: f64) -> Polygon {
        Polygon::rect(Rect::from_coords(x0, y0, x1, y1))
    }

    fn rel(a: &Polygon, b: &Polygon) -> TopoRelation {
        TopoRelation::most_specific(&relate(a, b))
    }

    #[test]
    fn disjoint_far_apart() {
        let m = relate(&sq(0.0, 0.0, 1.0, 1.0), &sq(5.0, 5.0, 6.0, 6.0));
        assert_eq!(m, De9Im::DISJOINT);
        assert_eq!(m.code(), "FFTFFTTTT");
    }

    #[test]
    fn disjoint_with_overlapping_mbrs() {
        // Two thin triangles whose MBRs overlap but bodies do not.
        let a = Polygon::from_coords(vec![(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], vec![]).unwrap();
        let b = Polygon::from_coords(vec![(10.0, 10.0), (10.0, 2.0), (2.0, 10.0)], vec![]).unwrap();
        assert_eq!(rel(&a, &b), TopoRelation::Disjoint);
    }

    #[test]
    fn proper_overlap_is_all_true() {
        let m = relate(&sq(0.0, 0.0, 10.0, 10.0), &sq(5.0, 5.0, 15.0, 15.0));
        assert_eq!(m, De9Im::ALL_TRUE);
        assert_eq!(TopoRelation::most_specific(&m), TopoRelation::Intersects);
    }

    #[test]
    fn strict_containment() {
        let outer = sq(0.0, 0.0, 10.0, 10.0);
        let inner = sq(2.0, 2.0, 4.0, 4.0);
        assert_eq!(relate(&inner, &outer).code(), "TFFTFFTTT");
        assert_eq!(rel(&inner, &outer), TopoRelation::Inside);
        assert_eq!(rel(&outer, &inner), TopoRelation::Contains);
    }

    #[test]
    fn covered_by_shared_edge() {
        // Inner square sharing its bottom edge with the outer square.
        let outer = sq(0.0, 0.0, 10.0, 10.0);
        let inner = sq(2.0, 0.0, 4.0, 4.0);
        assert_eq!(rel(&inner, &outer), TopoRelation::CoveredBy);
        assert_eq!(rel(&outer, &inner), TopoRelation::Covers);
    }

    #[test]
    fn covered_by_corner_touch() {
        let outer = sq(0.0, 0.0, 10.0, 10.0);
        let inner = sq(0.0, 0.0, 3.0, 3.0); // shares the corner and two edge parts
        assert_eq!(rel(&inner, &outer), TopoRelation::CoveredBy);
    }

    #[test]
    fn equal_polygons() {
        let a = sq(1.0, 1.0, 7.0, 5.0);
        let b = sq(1.0, 1.0, 7.0, 5.0);
        assert_eq!(relate(&a, &b).code(), "TFFFTFFFT");
        assert_eq!(rel(&a, &b), TopoRelation::Equals);
    }

    #[test]
    fn equal_up_to_vertex_set() {
        // Same region, but b has an extra collinear vertex on one edge.
        let a = sq(0.0, 0.0, 4.0, 4.0);
        let b = Polygon::from_coords(
            vec![(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)],
            vec![],
        )
        .unwrap();
        assert_eq!(rel(&a, &b), TopoRelation::Equals);
    }

    #[test]
    fn meets_edge_contact() {
        let a = sq(0.0, 0.0, 5.0, 5.0);
        let b = sq(5.0, 0.0, 10.0, 5.0); // shares the x=5 edge
        let m = relate(&a, &b);
        assert_eq!(rel(&a, &b), TopoRelation::Meets);
        assert!(m.get(Part::Boundary, Part::Boundary));
        assert!(!m.get(Part::Interior, Part::Interior));
    }

    #[test]
    fn meets_corner_contact() {
        let a = sq(0.0, 0.0, 5.0, 5.0);
        let b = sq(5.0, 5.0, 10.0, 10.0); // single corner point
        assert_eq!(rel(&a, &b), TopoRelation::Meets);
    }

    #[test]
    fn meets_vertex_on_edge() {
        // Triangle tip touching square's edge interior.
        let a = sq(0.0, 0.0, 5.0, 5.0);
        let b = Polygon::from_coords(vec![(5.0, 2.0), (8.0, 0.0), (8.0, 4.0)], vec![]).unwrap();
        assert_eq!(rel(&a, &b), TopoRelation::Meets);
        assert_eq!(rel(&b, &a), TopoRelation::Meets);
    }

    #[test]
    fn polygon_in_hole_meets() {
        // b exactly fills a's hole: boundaries coincide, interiors are
        // disjoint — the representative-point fallback case.
        let a = Polygon::from_coords(
            vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
            vec![vec![(3.0, 3.0), (7.0, 3.0), (7.0, 7.0), (3.0, 7.0)]],
        )
        .unwrap();
        let b = sq(3.0, 3.0, 7.0, 7.0);
        assert_eq!(rel(&a, &b), TopoRelation::Meets);
        assert_eq!(rel(&b, &a), TopoRelation::Meets);
    }

    #[test]
    fn polygon_strictly_in_hole_is_disjoint() {
        let a = Polygon::from_coords(
            vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
            vec![vec![(3.0, 3.0), (7.0, 3.0), (7.0, 7.0), (3.0, 7.0)]],
        )
        .unwrap();
        let b = sq(4.0, 4.0, 6.0, 6.0);
        assert_eq!(rel(&a, &b), TopoRelation::Disjoint);
        assert_eq!(rel(&b, &a), TopoRelation::Disjoint);
    }

    #[test]
    fn hole_filler_larger_than_hole_overlaps() {
        let a = Polygon::from_coords(
            vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
            vec![vec![(3.0, 3.0), (7.0, 3.0), (7.0, 7.0), (3.0, 7.0)]],
        )
        .unwrap();
        let b = sq(2.0, 2.0, 8.0, 8.0); // covers hole plus some material
        assert_eq!(rel(&a, &b), TopoRelation::Intersects);
    }

    #[test]
    fn containment_with_hole_avoidance() {
        // b inside a, positioned away from a's hole.
        let a = Polygon::from_coords(
            vec![(0.0, 0.0), (20.0, 0.0), (20.0, 20.0), (0.0, 20.0)],
            vec![vec![(12.0, 12.0), (16.0, 12.0), (16.0, 16.0), (12.0, 16.0)]],
        )
        .unwrap();
        let b = sq(2.0, 2.0, 6.0, 6.0);
        assert_eq!(rel(&b, &a), TopoRelation::Inside);
        assert_eq!(rel(&a, &b), TopoRelation::Contains);
    }

    #[test]
    fn overlap_through_hole_boundary() {
        // b overlaps a's hole partially and a's material partially.
        let a = Polygon::from_coords(
            vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
            vec![vec![(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0)]],
        )
        .unwrap();
        let b = sq(5.0, 5.0, 9.0, 9.0);
        assert_eq!(rel(&a, &b), TopoRelation::Intersects);
    }

    #[test]
    fn transpose_consistency() {
        let a = sq(0.0, 0.0, 10.0, 10.0);
        let cases = [
            sq(2.0, 2.0, 4.0, 4.0),
            sq(5.0, 5.0, 15.0, 15.0),
            sq(10.0, 0.0, 20.0, 10.0),
            sq(20.0, 20.0, 30.0, 30.0),
            sq(0.0, 0.0, 10.0, 10.0),
        ];
        for b in &cases {
            assert_eq!(
                relate(&a, b).transposed(),
                relate(b, &a),
                "transpose mismatch for {:?}",
                b.mbr()
            );
        }
    }

    #[test]
    fn multipolygon_component_detection() {
        // One member of the multipolygon is inside `a`, the other far
        // outside — interiors overlap AND each side reaches the other's
        // exterior: all-T without any boundary crossing? Boundaries do not
        // touch here, so BB must be F.
        let a = sq(0.0, 0.0, 10.0, 10.0);
        let mp = MultiPolygon::new(vec![sq(2.0, 2.0, 4.0, 4.0), sq(20.0, 20.0, 24.0, 24.0)]);
        let m = relate(&mp, &a);
        assert!(m.get(Part::Interior, Part::Interior));
        assert!(m.get(Part::Interior, Part::Exterior));
        assert!(m.get(Part::Exterior, Part::Interior));
        assert!(!m.get(Part::Boundary, Part::Boundary));
        assert_eq!(TopoRelation::most_specific(&m), TopoRelation::Intersects);
    }

    #[test]
    fn prepared_reuse_matches_fresh() {
        let a = sq(0.0, 0.0, 10.0, 10.0);
        let pa = Prepared::new(&a);
        for b in [sq(2.0, 2.0, 4.0, 4.0), sq(9.0, 9.0, 12.0, 12.0)] {
            let pb = Prepared::new(&b);
            assert_eq!(relate_prepared(&pa, &pb), relate(&a, &b));
        }
        assert_eq!(pa.num_vertices(), 4);
        assert!(pa.mbr().contains_point(Point::new(5.0, 5.0)));
        assert_eq!(pa.locate(Point::new(5.0, 5.0)), Location::Inside);
    }

    #[test]
    fn scratch_reuse_matches_fresh() {
        // One scratch cycled through pairs of very different shapes and
        // sizes must reproduce the one-shot wrapper's matrix exactly.
        let holed = Polygon::from_coords(
            vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
            vec![vec![(3.0, 3.0), (7.0, 3.0), (7.0, 7.0), (3.0, 7.0)]],
        )
        .unwrap();
        let cases = [
            (sq(0.0, 0.0, 10.0, 10.0), sq(5.0, 5.0, 15.0, 15.0)),
            (sq(0.0, 0.0, 1.0, 1.0), sq(5.0, 5.0, 6.0, 6.0)),
            (holed.clone(), sq(3.0, 3.0, 7.0, 7.0)),
            (sq(2.0, 0.0, 4.0, 4.0), sq(0.0, 0.0, 10.0, 10.0)),
            (holed, sq(2.0, 2.0, 8.0, 8.0)),
        ];
        let mut scratch = RelateScratch::default();
        for (a, b) in &cases {
            assert_eq!(relate_with(a, b, &mut scratch), relate(a, b));
            assert_eq!(relate_with(b, a, &mut scratch), relate(b, a));
        }
    }

    #[test]
    fn sliver_overlap_same_mbr() {
        // Two triangles splitting a square along the diagonal: boundaries
        // share the diagonal, interiors disjoint -> meets, with equal MBRs.
        let a = Polygon::from_coords(vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)], vec![]).unwrap();
        let b = Polygon::from_coords(vec![(0.0, 0.0), (10.0, 10.0), (0.0, 10.0)], vec![]).unwrap();
        assert_eq!(rel(&a, &b), TopoRelation::Meets);
    }
}
