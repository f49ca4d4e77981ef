//! Rings and polygons (with holes).

use crate::point::Point;
use crate::predicates::{orient2d, point_on_segment, Orientation};
use crate::rect::Rect;
use crate::segment::Segment;

/// Where a point lies relative to an areal geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Location {
    /// Strictly inside the geometry's interior.
    Inside,
    /// Exactly on the geometry's boundary.
    Boundary,
    /// Strictly outside (in the exterior).
    Outside,
}

/// A simple closed ring of vertices.
///
/// Stored *unclosed*: the edge from the last vertex back to the first is
/// implicit. Construction collapses consecutive duplicate vertices and
/// requires at least three distinct vertices. Rings do not enforce an
/// orientation; [`Polygon`] normalizes its rings on construction (outer
/// counter-clockwise, holes clockwise).
#[derive(Clone, Debug, PartialEq)]
pub struct Ring {
    vertices: Vec<Point>,
    mbr: Rect,
}

/// Errors raised by ring/polygon construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GeomError {
    /// Fewer than three distinct vertices.
    TooFewVertices,
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate,
}

impl std::fmt::Display for GeomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeomError::TooFewVertices => write!(f, "ring needs at least 3 distinct vertices"),
            GeomError::NonFiniteCoordinate => write!(f, "non-finite coordinate"),
        }
    }
}

impl std::error::Error for GeomError {}

impl Ring {
    /// Builds a ring from a vertex list.
    ///
    /// Consecutive duplicates (including a closing vertex equal to the
    /// first) are collapsed. Returns an error for non-finite coordinates
    /// or fewer than three remaining vertices.
    pub fn new(mut vertices: Vec<Point>) -> Result<Self, GeomError> {
        if vertices.iter().any(|p| !p.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        vertices.dedup();
        while vertices.len() > 1 && vertices.first() == vertices.last() {
            vertices.pop();
        }
        if vertices.len() < 3 {
            return Err(GeomError::TooFewVertices);
        }
        // `dedup` only removes *consecutive* duplicates: a zig-zag like
        // (0,0),(1,1),(0,0),(1,1) still passes the length check with only
        // two distinct vertices and zero area. Count distinct vertices
        // the O(n log n) way rather than trusting adjacency.
        let mut distinct: Vec<Point> = vertices.clone();
        distinct.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        distinct.dedup();
        if distinct.len() < 3 {
            return Err(GeomError::TooFewVertices);
        }
        let mbr = Rect::of_points(vertices.iter().copied());
        Ok(Ring { vertices, mbr })
    }

    /// The ring's vertices (unclosed).
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Rings are never empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The ring's MBR.
    #[inline]
    pub fn mbr(&self) -> &Rect {
        &self.mbr
    }

    /// Iterates over the ring's edges, including the closing edge.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Twice the signed area (positive for counter-clockwise orientation).
    ///
    /// Computed with the shoelace formula anchored at the first vertex for
    /// better conditioning on rings far from the origin.
    pub fn signed_area2(&self) -> f64 {
        let o = self.vertices[0];
        let mut acc = 0.0;
        for w in self.vertices.windows(2) {
            let (a, b) = (w[0] - o, w[1] - o);
            acc += a.x * b.y - a.y * b.x;
        }
        acc
    }

    /// Absolute enclosed area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area2().abs() * 0.5
    }

    /// Whether the ring winds counter-clockwise.
    #[inline]
    pub fn is_ccw(&self) -> bool {
        self.signed_area2() > 0.0
    }

    /// Reverses the winding direction in place.
    pub fn reverse(&mut self) {
        self.vertices.reverse();
    }

    /// Locates `p` relative to the closed region bounded by this ring
    /// (ignoring any holes — see [`Polygon::locate`] for full semantics).
    ///
    /// Uses exact ray-crossing parity: for a rightward ray from `p`, an
    /// edge contributes a crossing iff it spans `p.y` half-open upward or
    /// downward and `p` lies strictly on the corresponding side; boundary
    /// incidence is detected first with [`point_on_segment`]. Exactness
    /// follows from [`orient2d`].
    pub fn locate(&self, p: Point) -> Location {
        locate_in_ring(&self.vertices, &self.mbr, p)
    }
}

/// Locates `p` relative to the closed region bounded by the (unclosed)
/// ring `vertices` with bounding box `mbr` — the slice-based core of
/// [`Ring::locate`], shared with borrowed views over vertex pools.
///
/// Uses exact ray-crossing parity: for a rightward ray from `p`, an edge
/// contributes a crossing iff it spans `p.y` half-open upward or downward
/// and `p` lies strictly on the corresponding side; boundary incidence is
/// detected first with [`point_on_segment`]. Exactness follows from
/// [`orient2d`].
pub fn locate_in_ring(vertices: &[Point], mbr: &Rect, p: Point) -> Location {
    if !mbr.contains_point(p) {
        return Location::Outside;
    }
    let mut inside = false;
    let n = vertices.len();
    for i in 0..n {
        let a = vertices[i];
        let b = vertices[(i + 1) % n];
        if point_on_segment(p, a, b) {
            return Location::Boundary;
        }
        // Half-open vertical span avoids double counting at vertices.
        if (a.y > p.y) != (b.y > p.y) {
            // The edge crosses the horizontal line through p. It
            // crosses the rightward ray iff p is strictly left of the
            // edge, oriented to point upward.
            let (lo, hi) = if a.y < b.y { (a, b) } else { (b, a) };
            if orient2d(lo, hi, p) == Orientation::CounterClockwise {
                inside = !inside;
            }
        }
    }
    if inside {
        Location::Inside
    } else {
        Location::Outside
    }
}

/// A polygon: one outer ring plus zero or more hole rings.
///
/// Construction normalizes winding (outer counter-clockwise, holes
/// clockwise) so downstream code can rely on orientation. Validity
/// assumptions for the topology algorithms (matching the OGC "valid
/// polygon" rules the paper's datasets satisfy): rings are simple, holes
/// lie within the outer ring, and rings may touch at finitely many points
/// but not cross.
#[derive(Clone, Debug, PartialEq)]
pub struct Polygon {
    outer: Ring,
    holes: Vec<Ring>,
    mbr: Rect,
    num_vertices: usize,
}

impl Polygon {
    /// Builds a polygon from an outer ring and holes, normalizing winding.
    pub fn new(mut outer: Ring, mut holes: Vec<Ring>) -> Self {
        if !outer.is_ccw() {
            outer.reverse();
        }
        for h in &mut holes {
            if h.is_ccw() {
                h.reverse();
            }
        }
        let mut mbr = *outer.mbr();
        for h in &holes {
            mbr.grow_rect(h.mbr());
        }
        let num_vertices = outer.len() + holes.iter().map(Ring::len).sum::<usize>();
        Polygon {
            outer,
            holes,
            mbr,
            num_vertices,
        }
    }

    /// Convenience constructor from bare vertex lists.
    pub fn from_coords(
        outer: Vec<(f64, f64)>,
        holes: Vec<Vec<(f64, f64)>>,
    ) -> Result<Self, GeomError> {
        let outer = Ring::new(outer.into_iter().map(Point::from).collect())?;
        let holes = holes
            .into_iter()
            .map(|h| Ring::new(h.into_iter().map(Point::from).collect()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Polygon::new(outer, holes))
    }

    /// Axis-aligned rectangle as a polygon.
    pub fn rect(r: Rect) -> Self {
        Polygon::from_coords(
            vec![
                (r.min.x, r.min.y),
                (r.max.x, r.min.y),
                (r.max.x, r.max.y),
                (r.min.x, r.max.y),
            ],
            vec![],
        )
        .expect("rect polygon is valid")
    }

    /// The outer ring.
    #[inline]
    pub fn outer(&self) -> &Ring {
        &self.outer
    }

    /// The hole rings.
    #[inline]
    pub fn holes(&self) -> &[Ring] {
        &self.holes
    }

    /// The polygon's MBR.
    #[inline]
    pub fn mbr(&self) -> &Rect {
        &self.mbr
    }

    /// Total vertex count over all rings — the paper's complexity measure
    /// (Sec 4.3).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Iterates over all boundary edges (outer ring first, then holes).
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        self.outer
            .edges()
            .chain(self.holes.iter().flat_map(|h| h.edges()))
    }

    /// Enclosed area (outer area minus hole areas).
    pub fn area(&self) -> f64 {
        self.outer.area() - self.holes.iter().map(Ring::area).sum::<f64>()
    }

    /// Locates `p` relative to the polygon: inside its interior, on its
    /// boundary (outer or hole ring), or outside (including inside holes).
    pub fn locate(&self, p: Point) -> Location {
        match self.outer.locate(p) {
            Location::Outside => Location::Outside,
            Location::Boundary => Location::Boundary,
            Location::Inside => {
                for h in &self.holes {
                    match h.locate(p) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn square(x0: f64, y0: f64, x1: f64, y1: f64) -> Ring {
        Ring::new(vec![
            Point::new(x0, y0),
            Point::new(x1, y0),
            Point::new(x1, y1),
            Point::new(x0, y1),
        ])
        .unwrap()
    }

    #[test]
    fn ring_construction_rules() {
        assert_eq!(
            Ring::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]),
            Err(GeomError::TooFewVertices)
        );
        // Closing vertex and consecutive duplicates collapse.
        let r = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0),
        ])
        .unwrap();
        assert_eq!(r.len(), 3);
        assert!(Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(f64::NAN, 0.0),
            Point::new(1.0, 1.0)
        ])
        .is_err());
    }

    #[test]
    fn ring_rejects_too_few_distinct_vertices() {
        // Non-consecutive duplicates survive dedup but leave only two
        // distinct points — a degenerate zig-zag, not an areal ring.
        assert_eq!(
            Ring::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 1.0),
                Point::new(0.0, 0.0),
                Point::new(1.0, 1.0),
            ]),
            Err(GeomError::TooFewVertices)
        );
        // Repeats of valid vertices are fine as long as 3 distinct remain.
        let r = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
        ]);
        assert!(r.is_ok());
    }

    #[test]
    fn ring_area_and_winding() {
        let r = square(0.0, 0.0, 2.0, 3.0);
        assert_eq!(r.area(), 6.0);
        assert!(r.is_ccw());
        let mut rev = r.clone();
        rev.reverse();
        assert!(!rev.is_ccw());
        assert_eq!(rev.area(), 6.0);
    }

    #[test]
    fn ring_edges_close_the_loop() {
        let r = square(0.0, 0.0, 1.0, 1.0);
        let edges: Vec<_> = r.edges().collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[3].b, edges[0].a);
    }

    #[test]
    fn ring_locate() {
        let r = square(0.0, 0.0, 10.0, 10.0);
        assert_eq!(r.locate(Point::new(5.0, 5.0)), Location::Inside);
        assert_eq!(r.locate(Point::new(0.0, 5.0)), Location::Boundary);
        assert_eq!(r.locate(Point::new(0.0, 0.0)), Location::Boundary);
        assert_eq!(r.locate(Point::new(10.0, 10.0)), Location::Boundary);
        assert_eq!(r.locate(Point::new(-0.1, 5.0)), Location::Outside);
        assert_eq!(r.locate(Point::new(15.0, 5.0)), Location::Outside);
    }

    #[test]
    fn ring_locate_concave() {
        // A "C" shape: point in the notch is outside.
        let r = Ring::new(
            vec![
                (0.0, 0.0),
                (10.0, 0.0),
                (10.0, 3.0),
                (3.0, 3.0),
                (3.0, 7.0),
                (10.0, 7.0),
                (10.0, 10.0),
                (0.0, 10.0),
            ]
            .into_iter()
            .map(Point::from)
            .collect(),
        )
        .unwrap();
        assert_eq!(r.locate(Point::new(6.0, 5.0)), Location::Outside);
        assert_eq!(r.locate(Point::new(1.5, 5.0)), Location::Inside);
        assert_eq!(r.locate(Point::new(3.0, 5.0)), Location::Boundary);
    }

    #[test]
    fn ring_locate_ray_through_vertex() {
        // A diamond whose leftmost vertex is at the test point's y: the
        // rightward ray from an inside point passes exactly through the
        // right vertex.
        let r = Ring::new(
            vec![(0.0, 0.0), (5.0, -5.0), (10.0, 0.0), (5.0, 5.0)]
                .into_iter()
                .map(Point::from)
                .collect(),
        )
        .unwrap();
        assert_eq!(r.locate(Point::new(5.0, 0.0)), Location::Inside);
        assert_eq!(r.locate(Point::new(-1.0, 0.0)), Location::Outside);
        assert_eq!(r.locate(Point::new(11.0, 0.0)), Location::Outside);
    }

    #[test]
    fn polygon_normalizes_winding() {
        let mut outer = square(0.0, 0.0, 10.0, 10.0);
        outer.reverse(); // clockwise on purpose
        let hole = square(2.0, 2.0, 4.0, 4.0); // ccw on purpose
        let p = Polygon::new(outer, vec![hole]);
        assert!(p.outer().is_ccw());
        assert!(!p.holes()[0].is_ccw());
    }

    #[test]
    fn polygon_locate_with_hole() {
        let p = Polygon::from_coords(
            vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
            vec![vec![(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0)]],
        )
        .unwrap();
        assert_eq!(p.locate(Point::new(1.0, 1.0)), Location::Inside);
        assert_eq!(p.locate(Point::new(5.0, 5.0)), Location::Outside); // in hole
        assert_eq!(p.locate(Point::new(4.0, 5.0)), Location::Boundary); // hole edge
        assert_eq!(p.locate(Point::new(0.0, 5.0)), Location::Boundary); // outer edge
        assert_eq!(p.locate(Point::new(-1.0, 5.0)), Location::Outside);
    }

    #[test]
    fn polygon_area_subtracts_holes() {
        let p = Polygon::from_coords(
            vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
            vec![vec![(2.0, 2.0), (4.0, 2.0), (4.0, 4.0), (2.0, 4.0)]],
        )
        .unwrap();
        assert_eq!(p.area(), 100.0 - 4.0);
        assert_eq!(p.num_vertices(), 8);
    }

    #[test]
    fn polygon_mbr_and_edges() {
        let p = Polygon::from_coords(vec![(1.0, 1.0), (9.0, 2.0), (8.0, 9.0)], vec![]).unwrap();
        assert_eq!(*p.mbr(), Rect::from_coords(1.0, 1.0, 9.0, 9.0));
        assert_eq!(p.edges().count(), 3);
        let pr = Polygon::rect(Rect::from_coords(0.0, 0.0, 2.0, 2.0));
        assert_eq!(pr.area(), 4.0);
    }
}
