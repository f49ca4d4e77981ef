//! Multi-polygons and the [`Areal`] abstraction shared by the DE-9IM
//! engine.

use crate::interior_point::{try_interior_point_with, InteriorScratch};
use crate::point::Point;
use crate::polygon::{Location, Polygon};
use crate::rect::Rect;
use crate::segment::Segment;

/// Behaviour required of an areal geometry by the topology algorithms:
/// boundary ring enumeration, exact point location, and one representative
/// interior point per connected interior component.
///
/// Implemented by [`Polygon`] (one component) and [`MultiPolygon`] (one
/// per member). The DE-9IM completeness argument (see `stj-de9im`) needs
/// exactly these three capabilities.
pub trait Areal {
    /// The geometry's MBR.
    fn mbr(&self) -> Rect;
    /// Calls `f` with the vertices of every boundary ring (every ring of
    /// every component), unclosed, in edge order: ring `v` has the edges
    /// `v[k] → v[(k + 1) % v.len()]`.
    fn for_each_ring(&self, f: &mut dyn FnMut(&[Point]));
    /// All boundary edges (every ring of every component).
    fn collect_edges(&self, out: &mut Vec<Segment>) {
        self.for_each_ring(&mut |v| {
            let n = v.len();
            out.extend((0..n).map(|k| Segment::new(v[k], v[(k + 1) % n])));
        });
    }
    /// Whether `edges` is exactly [`collect_edges`](Self::collect_edges)'s
    /// output, bit for bit (so `-0.0` and `0.0` differ), compared ring by
    /// ring as the rings stream past without materializing any edge.
    fn same_edges(&self, edges: &[Segment]) -> bool {
        let same_point =
            |p: Point, q: Point| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits();
        let mut rest = edges;
        let mut same = true;
        self.for_each_ring(&mut |v| {
            if !same {
                return;
            }
            let Some((run, tail)) = rest.split_at_checked(v.len()) else {
                same = false;
                return;
            };
            rest = tail;
            let next = v.iter().skip(1).chain(v.first());
            same = run
                .iter()
                .zip(v.iter().zip(next))
                .all(|(e, (&a, &b))| same_point(e.a, a) && same_point(e.b, b));
        });
        same && rest.is_empty()
    }
    /// Exact location of `p` (interior / boundary / exterior).
    fn locate(&self, p: Point) -> Location;
    /// Appends one strictly-interior point per connected interior
    /// component to `out`, computing through the caller's scratch
    /// buffers; a component with no detectable interior (a degenerate
    /// sliver) contributes none. The hot-path entry used by the relate
    /// scratch arena.
    fn collect_interior_points(&self, scratch: &mut InteriorScratch, out: &mut Vec<Point>);
    /// One strictly-interior point per connected interior component.
    /// Allocating convenience over [`collect_interior_points`](Self::collect_interior_points).
    fn interior_points(&self) -> Vec<Point> {
        let mut out = Vec::new();
        self.collect_interior_points(&mut InteriorScratch::default(), &mut out);
        out
    }
    /// Total vertex count (the paper's complexity measure).
    fn num_vertices(&self) -> usize;
}

impl Areal for Polygon {
    fn mbr(&self) -> Rect {
        *Polygon::mbr(self)
    }

    fn for_each_ring(&self, f: &mut dyn FnMut(&[Point])) {
        f(self.outer().vertices());
        for h in self.holes() {
            f(h.vertices());
        }
    }

    fn locate(&self, p: Point) -> Location {
        Polygon::locate(self, p)
    }

    fn collect_interior_points(&self, scratch: &mut InteriorScratch, out: &mut Vec<Point>) {
        // A degenerate sliver has no detectable interior: push nothing,
        // as arena rows with the NaN interior sentinel do.
        out.extend(try_interior_point_with(self, scratch));
    }

    fn num_vertices(&self) -> usize {
        Polygon::num_vertices(self)
    }
}

/// A collection of disjoint polygons treated as one areal geometry.
///
/// Validity assumption (OGC): members' interiors are pairwise disjoint;
/// boundaries may touch at finitely many points.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiPolygon {
    members: Vec<Polygon>,
    mbr: Rect,
}

impl MultiPolygon {
    /// Builds a multi-polygon from its members.
    ///
    /// # Panics
    /// Panics if `members` is empty (an empty geometry has no MBR and no
    /// meaningful topology).
    pub fn new(members: Vec<Polygon>) -> Self {
        assert!(!members.is_empty(), "MultiPolygon requires >= 1 member");
        let mut mbr = Rect::empty();
        for m in &members {
            mbr.grow_rect(m.mbr());
        }
        MultiPolygon { members, mbr }
    }

    /// The member polygons.
    #[inline]
    pub fn members(&self) -> &[Polygon] {
        &self.members
    }

    /// The multi-polygon's MBR.
    #[inline]
    pub fn mbr(&self) -> &Rect {
        &self.mbr
    }

    /// Total enclosed area.
    pub fn area(&self) -> f64 {
        self.members.iter().map(Polygon::area).sum()
    }
}

impl Areal for MultiPolygon {
    fn mbr(&self) -> Rect {
        self.mbr
    }

    fn for_each_ring(&self, f: &mut dyn FnMut(&[Point])) {
        for m in &self.members {
            m.for_each_ring(f);
        }
    }

    fn locate(&self, p: Point) -> Location {
        // Members have disjoint interiors: the first non-outside answer
        // wins, except that a boundary hit must not be overridden.
        let mut loc = Location::Outside;
        for m in &self.members {
            match m.locate(p) {
                Location::Inside => return Location::Inside,
                Location::Boundary => loc = Location::Boundary,
                Location::Outside => {}
            }
        }
        loc
    }

    fn collect_interior_points(&self, scratch: &mut InteriorScratch, out: &mut Vec<Point>) {
        for m in &self.members {
            m.collect_interior_points(scratch, out);
        }
    }

    fn num_vertices(&self) -> usize {
        self.members.iter().map(Polygon::num_vertices).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq(x0: f64, y0: f64, x1: f64, y1: f64) -> Polygon {
        Polygon::rect(Rect::from_coords(x0, y0, x1, y1))
    }

    #[test]
    fn mbr_and_area() {
        let mp = MultiPolygon::new(vec![sq(0.0, 0.0, 1.0, 1.0), sq(5.0, 5.0, 7.0, 7.0)]);
        assert_eq!(*mp.mbr(), Rect::from_coords(0.0, 0.0, 7.0, 7.0));
        assert_eq!(mp.area(), 1.0 + 4.0);
        assert_eq!(Areal::num_vertices(&mp), 8);
    }

    #[test]
    fn locate_across_members() {
        let mp = MultiPolygon::new(vec![sq(0.0, 0.0, 1.0, 1.0), sq(5.0, 5.0, 7.0, 7.0)]);
        assert_eq!(Areal::locate(&mp, Point::new(0.5, 0.5)), Location::Inside);
        assert_eq!(Areal::locate(&mp, Point::new(6.0, 6.0)), Location::Inside);
        assert_eq!(Areal::locate(&mp, Point::new(3.0, 3.0)), Location::Outside);
        assert_eq!(Areal::locate(&mp, Point::new(1.0, 0.5)), Location::Boundary);
    }

    #[test]
    fn interior_points_one_per_member() {
        let mp = MultiPolygon::new(vec![sq(0.0, 0.0, 1.0, 1.0), sq(5.0, 5.0, 7.0, 7.0)]);
        let pts = Areal::interior_points(&mp);
        assert_eq!(pts.len(), 2);
        for p in pts {
            assert_eq!(Areal::locate(&mp, p), Location::Inside);
        }
    }

    #[test]
    #[should_panic]
    fn empty_rejected() {
        let _ = MultiPolygon::new(vec![]);
    }

    #[test]
    fn polygon_implements_areal() {
        let p = sq(0.0, 0.0, 4.0, 4.0);
        let mut edges = Vec::new();
        Areal::collect_edges(&p, &mut edges);
        assert_eq!(edges.len(), 4);
        assert_eq!(Areal::interior_points(&p).len(), 1);
        assert_eq!(Areal::mbr(&p), Rect::from_coords(0.0, 0.0, 4.0, 4.0));
    }
}
