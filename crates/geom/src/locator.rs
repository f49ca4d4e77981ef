//! Accelerated point location over a boundary edge set.
//!
//! DE-9IM refinement classifies O(n) sub-edge midpoints against each
//! polygon; a naive O(n) point-in-polygon per query makes refinement
//! O(n²). [`EdgeSetLocator`] buckets edges into horizontal strips so each
//! even–odd parity query only visits edges whose y-span overlaps the query
//! strip — expected O(1)–O(√n) edges per query for real-world boundaries.
//!
//! The even–odd rule over the *complete* boundary edge set gives correct
//! interior/exterior classification for valid polygons with holes and
//! multi-polygons alike, because every ring contributes its crossings.
//!
//! The strip index is stored CSR-style (one offsets array plus one flat
//! edge-index array) rather than as a `Vec<Vec<u32>>`: two allocations
//! instead of `n_strips + 1`, and a [`EdgeSetLocator::rebuild`] that
//! re-indexes a new edge set entirely inside the retained buffers, which
//! is what lets a relate scratch arena reuse one locator across calls.
//!
//! The same strips also answer window queries:
//! [`EdgeSetLocator::window_edges_into`] lists the edges whose MBR meets
//! a rectangle by visiting only the strips the rectangle's y-range
//! covers, so DE-9IM refinement of a small geometry against a large one
//! touches the large boundary near the small one and nowhere else.

use crate::point::Point;
use crate::polygon::Location;
use crate::predicates::{orient2d, point_on_segment, Orientation};
use crate::rect::Rect;
use crate::segment::Segment;

/// Strip-indexed even–odd point locator over a set of boundary edges.
pub struct EdgeSetLocator {
    edges: Vec<Segment>,
    /// CSR offsets: strip `s` owns `strip_edges[strip_offs[s]..strip_offs[s + 1]]`.
    strip_offs: Vec<u32>,
    /// Edge indices, grouped by strip, in edge order within each strip.
    strip_edges: Vec<u32>,
    y0: f64,
    inv_dy: f64,
    mbr: Rect,
}

impl EdgeSetLocator {
    /// Builds a locator over `edges` (the complete boundary of one areal
    /// geometry). The strip count scales with the edge count. An empty
    /// edge set yields a locator that answers `Outside` everywhere.
    pub fn new(edges: Vec<Segment>) -> Self {
        let mut loc = EdgeSetLocator::empty();
        loc.edges = edges;
        loc.reindex();
        loc
    }

    /// An indexless locator over no edges; answers `Outside` everywhere.
    /// Pair with [`rebuild`](Self::rebuild) to populate it in place.
    pub fn empty() -> Self {
        EdgeSetLocator {
            edges: Vec::new(),
            strip_offs: Vec::new(),
            strip_edges: Vec::new(),
            y0: 0.0,
            inv_dy: 0.0,
            mbr: Rect::empty(),
        }
    }

    /// Replaces the edge set in place: clears the edge buffer, lets
    /// `fill` repopulate it, then re-indexes — all inside the retained
    /// allocations, so a warmed locator rebuilds without allocating.
    pub fn rebuild(&mut self, fill: impl FnOnce(&mut Vec<Segment>)) {
        self.edges.clear();
        fill(&mut self.edges);
        self.reindex();
    }

    /// Recomputes MBR, strip geometry, and the CSR strip index from
    /// `self.edges`, reusing the offset and index buffers.
    fn reindex(&mut self) {
        self.mbr = Rect::empty();
        for e in &self.edges {
            self.mbr.grow_rect(&e.mbr());
        }
        let n_strips = (self.edges.len() / 4).clamp(1, 4096);
        let height = (self.mbr.max.y - self.mbr.min.y).max(f64::MIN_POSITIVE);
        let dy = height / n_strips as f64;
        self.inv_dy = 1.0 / dy;
        self.y0 = self.mbr.min.y;
        let (y0, inv_dy) = (self.y0, self.inv_dy);
        let strip_of = |y: f64| strip_index(y, y0, inv_dy, n_strips);

        if self.edges.is_empty() {
            self.strip_offs.clear();
            self.strip_offs.resize(n_strips + 1, 0);
            self.strip_edges.clear();
            return;
        }

        // CSR build in three passes over the retained buffers: count
        // entries per strip, prefix-sum into start offsets, scatter with
        // the offsets as write cursors, then shift the cursors (now ends)
        // back into start offsets.
        let offs = &mut self.strip_offs;
        offs.clear();
        offs.resize(n_strips + 1, 0);
        for e in &self.edges {
            let lo = strip_of(e.a.y.min(e.b.y));
            let hi = strip_of(e.a.y.max(e.b.y));
            for s in lo..=hi {
                offs[s + 1] += 1;
            }
        }
        for s in 0..n_strips {
            offs[s + 1] += offs[s];
        }
        let total = offs[n_strips] as usize;
        self.strip_edges.clear();
        self.strip_edges.resize(total, 0);
        // Scattering in ascending edge order keeps each strip's indices
        // in edge order, matching the old per-strip push construction.
        for (i, e) in self.edges.iter().enumerate() {
            let lo = strip_of(e.a.y.min(e.b.y));
            let hi = strip_of(e.a.y.max(e.b.y));
            for cursor in &mut offs[lo..=hi] {
                self.strip_edges[*cursor as usize] = i as u32;
                *cursor += 1;
            }
        }
        for s in (1..=n_strips).rev() {
            offs[s] = offs[s - 1];
        }
        offs[0] = 0;
    }

    /// The edge set's MBR.
    #[inline]
    pub fn mbr(&self) -> &Rect {
        &self.mbr
    }

    /// The underlying edges, in construction order.
    #[inline]
    pub fn edges(&self) -> &[Segment] {
        &self.edges
    }

    /// The strip holding height `y`, clamped to the index. Only valid on
    /// an indexed locator (at least one strip).
    #[inline]
    fn strip_of(&self, y: f64) -> usize {
        strip_index(y, self.y0, self.inv_dy, self.strip_offs.len() - 1)
    }

    /// Appends `(index, edge)` for every edge whose closed MBR meets
    /// `window`, each edge once, visiting only the strips that the
    /// window's y-range covers.
    ///
    /// Exact: an edge whose y-span meets the window's shares a height
    /// with it, and `strip_of` is monotone, so the edge sits in one of
    /// the visited strips. An edge spanning several visited strips is
    /// emitted from the first of them only. The order is strip order;
    /// callers that need another order sort the (few) edges returned.
    pub fn window_edges_into(&self, window: &Rect, out: &mut Vec<(usize, Segment)>) {
        if self.edges.is_empty() {
            return;
        }
        let (lo, hi) = (self.strip_of(window.min.y), self.strip_of(window.max.y));
        for s in lo..=hi {
            let strip =
                &self.strip_edges[self.strip_offs[s] as usize..self.strip_offs[s + 1] as usize];
            for &ei in strip {
                let e = self.edges[ei as usize];
                // In strip `lo` every edge is new; in a later strip only
                // an edge that starts there is, the others were emitted.
                if s > lo && self.strip_of(e.a.y.min(e.b.y)) != s {
                    continue;
                }
                if e.mbr().intersects(window) {
                    out.push((ei as usize, e));
                }
            }
        }
    }

    /// Exact even–odd location of `p` relative to the region bounded by
    /// the edge set.
    pub fn locate(&self, p: Point) -> Location {
        if !self.mbr.contains_point(p) {
            return Location::Outside;
        }
        let si = self.strip_of(p.y);
        let mut inside = false;
        let (lo, hi) = (
            self.strip_offs[si] as usize,
            self.strip_offs[si + 1] as usize,
        );
        for &ei in &self.strip_edges[lo..hi] {
            let e = self.edges[ei as usize];
            if point_on_segment(p, e.a, e.b) {
                return Location::Boundary;
            }
            if (e.a.y > p.y) != (e.b.y > p.y) {
                let (lo, hi) = if e.a.y < e.b.y {
                    (e.a, e.b)
                } else {
                    (e.b, e.a)
                };
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
}

/// The strip of `n_strips` (starting at `y0`, `1 / inv_dy` high) that
/// holds height `y`, clamped to the index. Indexing, point location and
/// window queries share it, so they agree on every edge's strips.
#[inline]
fn strip_index(y: f64, y0: f64, inv_dy: f64, n_strips: usize) -> usize {
    (((y - y0) * inv_dy) as isize).clamp(0, n_strips as isize - 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polygon::Polygon;

    fn locator_of(p: &Polygon) -> EdgeSetLocator {
        EdgeSetLocator::new(p.edges().collect())
    }

    #[test]
    fn agrees_with_polygon_locate_on_grid() {
        let poly = Polygon::from_coords(
            vec![
                (0.0, 0.0),
                (10.0, 0.0),
                (10.0, 3.0),
                (3.0, 3.0),
                (3.0, 7.0),
                (10.0, 7.0),
                (10.0, 10.0),
                (0.0, 10.0),
            ],
            vec![vec![(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)]],
        )
        .unwrap();
        let loc = locator_of(&poly);
        for i in -2..=22 {
            for j in -2..=22 {
                let p = Point::new(i as f64 * 0.5, j as f64 * 0.5);
                assert_eq!(loc.locate(p), poly.locate(p), "at {p:?}");
            }
        }
    }

    #[test]
    fn boundary_detection() {
        let poly =
            Polygon::from_coords(vec![(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)], vec![])
                .unwrap();
        let loc = locator_of(&poly);
        assert_eq!(loc.locate(Point::new(2.0, 0.0)), Location::Boundary);
        assert_eq!(loc.locate(Point::new(4.0, 4.0)), Location::Boundary);
        assert_eq!(loc.locate(Point::new(2.0, 2.0)), Location::Inside);
        assert_eq!(loc.locate(Point::new(5.0, 2.0)), Location::Outside);
    }

    #[test]
    fn empty_locator_is_all_outside() {
        let loc = EdgeSetLocator::empty();
        assert_eq!(loc.locate(Point::new(0.0, 0.0)), Location::Outside);
        let loc = EdgeSetLocator::new(Vec::new());
        assert_eq!(loc.locate(Point::new(1.0, -2.0)), Location::Outside);
    }

    #[test]
    fn rebuild_matches_fresh_construction() {
        let small =
            Polygon::from_coords(vec![(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)], vec![])
                .unwrap();
        let big = Polygon::from_coords(
            vec![
                (0.0, 0.0),
                (10.0, 0.0),
                (10.0, 3.0),
                (3.0, 3.0),
                (3.0, 7.0),
                (10.0, 7.0),
                (10.0, 10.0),
                (0.0, 10.0),
            ],
            vec![vec![(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)]],
        )
        .unwrap();
        // Cycle one locator big → small → big; answers must match a fresh
        // build at every step (shrinking must not leave stale index).
        let mut loc = EdgeSetLocator::empty();
        for poly in [&big, &small, &big] {
            loc.rebuild(|out| out.extend(poly.edges()));
            let fresh = locator_of(poly);
            for i in -2..=22 {
                for j in -2..=22 {
                    let p = Point::new(i as f64 * 0.5, j as f64 * 0.5);
                    assert_eq!(loc.locate(p), fresh.locate(p), "at {p:?}");
                }
            }
        }
    }

    #[test]
    fn agrees_on_random_star_polygon() {
        let mut seed = 7u64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = 200;
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            let ang = (i as f64 / n as f64) * std::f64::consts::TAU;
            let r = 5.0 + 10.0 * rnd();
            pts.push((r * ang.cos(), r * ang.sin()));
        }
        let poly = Polygon::from_coords(pts, vec![]).unwrap();
        let loc = locator_of(&poly);
        for _ in 0..2000 {
            let p = Point::new(rnd() * 40.0 - 20.0, rnd() * 40.0 - 20.0);
            assert_eq!(loc.locate(p), poly.locate(p), "at {p:?}");
        }
    }
}
