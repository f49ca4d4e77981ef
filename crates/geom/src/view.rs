//! Borrowed polygon views over columnar vertex/ring pools.
//!
//! A [`PolyView`] is the zero-copy counterpart of [`Polygon`]: instead of
//! owning its rings it borrows slices of a dataset-wide vertex pool plus a
//! ring-offset table, so an arena can hand out `Copy`-able geometry
//! handles without allocating. It implements [`Areal`], so the DE-9IM
//! refinement runs on it exactly as on an owned [`Polygon`].

use crate::interior_point::InteriorScratch;
use crate::multipolygon::Areal;
use crate::point::Point;
#[cfg(doc)]
use crate::polygon::Polygon;
use crate::polygon::{locate_in_ring, Location};
use crate::rect::Rect;

/// A borrowed polygon: ring vertex slices carved out of a shared vertex
/// pool by a ring-offset table.
///
/// Ring `i` occupies `verts[ring_offs[i] as usize..ring_offs[i+1] as
/// usize]` (vertices stored unclosed, like [`crate::Ring`]). Ring 0 is the
/// outer ring; any further rings are holes. Winding is assumed normalized
/// at build time (outer counter-clockwise, holes clockwise) — the locate
/// and edge algorithms here are winding-agnostic, matching [`Polygon`].
///
/// The representative interior point is precomputed at build time and
/// stored in the arena's interior column; a NaN sentinel marks "no
/// detectable interior" (degenerate slivers), in which case
/// [`Areal::interior_points`] returns an empty set.
#[derive(Clone, Copy, Debug)]
pub struct PolyView<'a> {
    verts: &'a [Point],
    ring_offs: &'a [u64],
    mbr: Rect,
    interior: Point,
}

impl<'a> PolyView<'a> {
    /// Builds a view from its columns.
    ///
    /// `ring_offs` must hold `num_rings + 1` monotonically non-decreasing
    /// global offsets into `verts`, with at least one ring of at least
    /// three vertices. Callers (the arena, the v2 loader) validate this
    /// once per dataset; here it is only debug-asserted.
    #[inline]
    pub fn new(verts: &'a [Point], ring_offs: &'a [u64], mbr: Rect, interior: Point) -> Self {
        debug_assert!(ring_offs.len() >= 2, "PolyView needs >= 1 ring");
        debug_assert!(
            ring_offs.windows(2).all(|w| w[0] + 3 <= w[1]),
            "PolyView rings need >= 3 vertices each"
        );
        debug_assert!(
            ring_offs.last().is_none_or(|&e| e as usize <= verts.len()),
            "PolyView ring offsets out of pool bounds"
        );
        PolyView {
            verts,
            ring_offs,
            mbr,
            interior,
        }
    }

    /// Number of rings (outer + holes).
    #[inline]
    pub fn num_rings(&self) -> usize {
        self.ring_offs.len() - 1
    }

    /// Vertex slice of ring `i` (unclosed).
    #[inline]
    pub fn ring(&self, i: usize) -> &'a [Point] {
        &self.verts[self.ring_offs[i] as usize..self.ring_offs[i + 1] as usize]
    }

    /// The polygon's MBR.
    #[inline]
    pub fn mbr(&self) -> &Rect {
        &self.mbr
    }

    /// The precomputed representative interior point (NaN sentinel when
    /// none is known).
    #[inline]
    pub fn interior(&self) -> Point {
        self.interior
    }

    /// Total vertex count over all rings.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        (self.ring_offs[self.ring_offs.len() - 1] - self.ring_offs[0]) as usize
    }

    /// Locates `p` relative to the polygon (interior / boundary /
    /// exterior), with [`Polygon::locate`] semantics.
    pub fn locate(&self, p: Point) -> Location {
        let ring_box = |verts: &[Point]| Rect::of_points(verts.iter().copied());
        let outer = self.ring(0);
        match locate_in_ring(outer, &ring_box(outer), p) {
            Location::Outside => Location::Outside,
            Location::Boundary => Location::Boundary,
            Location::Inside => {
                for i in 1..self.num_rings() {
                    let hole = self.ring(i);
                    match locate_in_ring(hole, &ring_box(hole), p) {
                        Location::Inside => return Location::Outside,
                        Location::Boundary => return Location::Boundary,
                        Location::Outside => {}
                    }
                }
                Location::Inside
            }
        }
    }
}

impl Areal for PolyView<'_> {
    fn mbr(&self) -> Rect {
        self.mbr
    }

    fn for_each_ring(&self, f: &mut dyn FnMut(&[Point])) {
        for i in 0..self.num_rings() {
            f(self.ring(i));
        }
    }

    fn locate(&self, p: Point) -> Location {
        PolyView::locate(self, p)
    }

    fn collect_interior_points(&self, _scratch: &mut InteriorScratch, out: &mut Vec<Point>) {
        // Precomputed at arena build time; NaN sentinel means "none".
        if self.interior.is_finite() {
            out.push(self.interior);
        }
    }

    fn num_vertices(&self) -> usize {
        PolyView::num_vertices(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interior_point::interior_point;
    use crate::polygon::Polygon;

    /// Flattens a polygon into pool columns and returns a view over them.
    fn columns(p: &Polygon) -> (Vec<Point>, Vec<u64>, Rect, Point) {
        let mut verts = Vec::new();
        let mut offs = vec![0u64];
        for ring in std::iter::once(p.outer()).chain(p.holes().iter()) {
            verts.extend_from_slice(ring.vertices());
            offs.push(verts.len() as u64);
        }
        (verts, offs, *p.mbr(), interior_point(p))
    }

    fn holed() -> Polygon {
        Polygon::from_coords(
            vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
            vec![vec![(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0)]],
        )
        .unwrap()
    }

    #[test]
    fn view_matches_polygon_locate() {
        let p = holed();
        let (verts, offs, mbr, ip) = columns(&p);
        let v = PolyView::new(&verts, &offs, mbr, ip);
        assert_eq!(v.num_rings(), 2);
        assert_eq!(v.num_vertices(), p.num_vertices());
        for (x, y) in [
            (1.0, 1.0),
            (5.0, 5.0),
            (4.0, 5.0),
            (0.0, 5.0),
            (-1.0, 5.0),
            (10.0, 10.0),
        ] {
            let pt = Point::new(x, y);
            assert_eq!(v.locate(pt), p.locate(pt), "at {pt:?}");
        }
    }

    #[test]
    fn view_areal_matches_polygon_areal() {
        let p = holed();
        let (verts, offs, mbr, ip) = columns(&p);
        let v = PolyView::new(&verts, &offs, mbr, ip);
        assert_eq!(Areal::mbr(&v), Areal::mbr(&p));
        assert_eq!(Areal::num_vertices(&v), Areal::num_vertices(&p));
        let (mut ev, mut ep) = (Vec::new(), Vec::new());
        v.collect_edges(&mut ev);
        p.collect_edges(&mut ep);
        assert_eq!(ev, ep);
        let pts = Areal::interior_points(&v);
        assert_eq!(pts.len(), 1);
        assert_eq!(p.locate(pts[0]), Location::Inside);
    }

    #[test]
    fn nan_interior_sentinel_yields_no_points() {
        let p = holed();
        let (verts, offs, mbr, _) = columns(&p);
        let v = PolyView::new(&verts, &offs, mbr, Point::new(f64::NAN, f64::NAN));
        assert!(Areal::interior_points(&v).is_empty());
    }
}
