//! Integer-lattice polygons and their exact predicates.
//!
//! Every coordinate the benchmark generates is an integer in
//! `[0, LATTICE)`, with `LATTICE = 2^16`. Orientation tests on such
//! points need 35 bits, and the oracle's rational test points (see
//! `oracle.rs`) stay below 2^110, so all arithmetic here is exact in
//! `i128`. Nothing in this module is shared with the program under test.

use std::fmt::Write as _;

/// Exclusive upper bound of every generated coordinate.
pub const LATTICE: i64 = 1 << 16;

pub type Pt = (i64, i64);

/// Closed axis-aligned rectangle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mbr {
    pub x0: i64,
    pub y0: i64,
    pub x1: i64,
    pub y1: i64,
}

impl Mbr {
    pub fn of(points: &[Pt]) -> Mbr {
        let mut m = Mbr {
            x0: i64::MAX,
            y0: i64::MAX,
            x1: i64::MIN,
            y1: i64::MIN,
        };
        for &(x, y) in points {
            m.x0 = m.x0.min(x);
            m.y0 = m.y0.min(y);
            m.x1 = m.x1.max(x);
            m.y1 = m.y1.max(y);
        }
        m
    }

    /// Closed intersection test: rectangles that share only an edge or a
    /// corner intersect.
    pub fn intersects(&self, o: &Mbr) -> bool {
        self.x0 <= o.x1 && o.x0 <= self.x1 && self.y0 <= o.y1 && o.y0 <= self.y1
    }

    pub fn contains_rect(&self, o: &Mbr) -> bool {
        self.x0 <= o.x0 && o.x1 <= self.x1 && self.y0 <= o.y0 && o.y1 <= self.y1
    }

    pub fn width(&self) -> i64 {
        self.x1 - self.x0
    }

    pub fn height(&self) -> i64 {
        self.y1 - self.y0
    }
}

/// A polygon: `rings[0]` is the shell, the rest are holes. Rings are
/// stored open (the first vertex is not repeated). After
/// [`Poly::normalized`] the shell runs counter-clockwise and holes run
/// clockwise, so the interior always lies left of every edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Poly {
    pub rings: Vec<Vec<Pt>>,
}

/// Twice the signed area of a ring (positive when counter-clockwise).
pub fn signed_area2(ring: &[Pt]) -> i128 {
    let n = ring.len();
    let mut s: i128 = 0;
    for i in 0..n {
        let (ax, ay) = ring[i];
        let (bx, by) = ring[(i + 1) % n];
        s += ax as i128 * by as i128 - bx as i128 * ay as i128;
    }
    s
}

/// Sign of the turn `a → b → c`: positive left, negative right, 0 collinear.
pub fn orient(a: Pt, b: Pt, c: Pt) -> i128 {
    (b.0 - a.0) as i128 * (c.1 - a.1) as i128 - (b.1 - a.1) as i128 * (c.0 - a.0) as i128
}

/// Whether `p` lies on the closed segment `ab`.
pub fn on_segment(p: Pt, a: Pt, b: Pt) -> bool {
    orient(a, b, p) == 0
        && a.0.min(b.0) <= p.0
        && p.0 <= a.0.max(b.0)
        && a.1.min(b.1) <= p.1
        && p.1 <= a.1.max(b.1)
}

/// Whether the closed segments `ab` and `cd` share a point.
pub fn segments_meet(a: Pt, b: Pt, c: Pt, d: Pt) -> bool {
    let o1 = orient(a, b, c).signum();
    let o2 = orient(a, b, d).signum();
    let o3 = orient(c, d, a).signum();
    let o4 = orient(c, d, b).signum();
    if o1 * o2 < 0 && o3 * o4 < 0 {
        return true;
    }
    on_segment(c, a, b) || on_segment(d, a, b) || on_segment(a, c, d) || on_segment(b, c, d)
}

impl Poly {
    pub fn new(rings: Vec<Vec<Pt>>) -> Poly {
        Poly { rings }.normalized()
    }

    /// Orients the shell counter-clockwise and holes clockwise.
    pub fn normalized(mut self) -> Poly {
        for (k, ring) in self.rings.iter_mut().enumerate() {
            let a = signed_area2(ring);
            if (k == 0 && a < 0) || (k > 0 && a > 0) {
                ring.reverse();
            }
        }
        self
    }

    pub fn mbr(&self) -> Mbr {
        Mbr::of(&self.rings[0])
    }

    pub fn num_vertices(&self) -> usize {
        self.rings.iter().map(Vec::len).sum()
    }

    /// Every boundary edge, ring by ring.
    pub fn edges(&self) -> impl Iterator<Item = (Pt, Pt)> + '_ {
        self.rings.iter().flat_map(|r| {
            let n = r.len();
            (0..n).map(move |i| (r[i], r[(i + 1) % n]))
        })
    }

    /// The polygon as one WKT line (integer coordinates, closed rings).
    pub fn to_wkt(&self) -> String {
        let mut s = String::from("POLYGON(");
        for (k, ring) in self.rings.iter().enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            s.push('(');
            for (i, &(x, y)) in ring.iter().chain(ring.first()).enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "{x} {y}");
            }
            s.push(')');
        }
        s.push(')');
        s
    }

    /// Exact validity: every ring has at least three vertices, no ring
    /// touches or crosses itself or another ring, and every hole lies
    /// strictly inside the shell. Quadratic in the vertex count; the
    /// generator only calls it on rings it cannot prove simple by
    /// construction.
    pub fn is_valid(&self) -> bool {
        if self
            .rings
            .iter()
            .any(|r| r.len() < 3 || signed_area2(r) == 0)
        {
            return false;
        }
        let edges: Vec<(usize, usize, Pt, Pt)> = self
            .rings
            .iter()
            .enumerate()
            .flat_map(|(k, r)| {
                let n = r.len();
                (0..n).map(move |i| (k, i, r[i], r[(i + 1) % n]))
            })
            .collect();
        for (x, &(ka, ia, a, b)) in edges.iter().enumerate() {
            for &(kb, ib, c, d) in &edges[x + 1..] {
                if ka == kb {
                    let n = self.rings[ka].len();
                    let adjacent = ib == ia + 1 || (ia == 0 && ib == n - 1);
                    if adjacent {
                        // Neighbours share exactly one vertex; they must
                        // not fold back onto each other.
                        let (p, q, r) = if ib == ia + 1 { (a, b, d) } else { (c, a, b) };
                        if orient(p, q, r) == 0
                            && (r.0 - q.0) * (q.0 - p.0) + (r.1 - q.1) * (q.1 - p.1) <= 0
                        {
                            return false;
                        }
                        continue;
                    }
                }
                if segments_meet(a, b, c, d) {
                    return false;
                }
            }
        }
        self.rings[1..]
            .iter()
            .all(|h| point_in_ring(h[0], &self.rings[0]) == Some(true))
    }
}

/// Point in a single ring: `Some(true)` strictly inside, `Some(false)`
/// strictly outside, `None` on the ring.
pub fn point_in_ring(p: Pt, ring: &[Pt]) -> Option<bool> {
    let n = ring.len();
    let mut inside = false;
    for i in 0..n {
        let (a, b) = (ring[i], ring[(i + 1) % n]);
        if on_segment(p, a, b) {
            return None;
        }
        if (a.1 > p.1) != (b.1 > p.1) {
            let o = orient(a, b, p);
            if (b.1 > a.1) == (o > 0) {
                inside = !inside;
            }
        }
    }
    Some(inside)
}

/// Star-shaped ring around integer `center`: vertices at the given angles
/// and radii, rounded to the lattice. Vertices that would break the
/// strictly counter-clockwise angular order (after rounding) are dropped,
/// so the result is simple by construction; `None` when fewer than three
/// vertices survive or the ring does not wind exactly once.
pub fn star_ring(center: Pt, polar: &[(f64, f64)]) -> Option<Vec<Pt>> {
    let mut ring: Vec<Pt> = Vec::with_capacity(polar.len());
    for &(ang, r) in polar {
        let p = (
            (center.0 as f64 + r * ang.cos()).round() as i64,
            (center.1 as f64 + r * ang.sin()).round() as i64,
        );
        if !(0..LATTICE).contains(&p.0) || !(0..LATTICE).contains(&p.1) {
            return None;
        }
        match ring.last() {
            Some(&last) if orient(center, last, p) <= 0 => continue,
            _ => ring.push(p),
        }
    }
    while ring.len() >= 3 && orient(center, ring[ring.len() - 1], ring[0]) <= 0 {
        ring.pop();
    }
    if ring.len() < 3 || !winds_once(center, &ring) {
        return None;
    }
    Some(ring)
}

/// Whether a ring whose every step turns counter-clockwise around `c`
/// goes around it exactly once (one upward crossing of the ray from `c`
/// towards +x).
fn winds_once(c: Pt, ring: &[Pt]) -> bool {
    let n = ring.len();
    let crossings = (0..n)
        .filter(|&i| ring[i].1 < c.1 && ring[(i + 1) % n].1 >= c.1)
        .count();
    crossings == 1 && (0..n).all(|i| orient(c, ring[i], ring[(i + 1) % n]) > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq(x: i64, y: i64, s: i64) -> Vec<Pt> {
        vec![(x, y), (x + s, y), (x + s, y + s), (x, y + s)]
    }

    #[test]
    fn orientation_and_wkt() {
        let ccw = Poly::new(vec![sq(0, 0, 10)]);
        assert_eq!(ccw.to_wkt(), "POLYGON((0 0, 10 0, 10 10, 0 10, 0 0))");
        let cw = Poly::new(vec![sq(0, 0, 10).into_iter().rev().collect()]);
        assert!(signed_area2(&cw.rings[0]) > 0);
        let holed = Poly::new(vec![sq(0, 0, 10), sq(2, 2, 3)]);
        assert!(signed_area2(&holed.rings[1]) < 0);
        assert!(ccw.is_valid() && holed.is_valid());
    }

    #[test]
    fn validity_rejects_bowtie_and_stray_hole() {
        let bowtie = Poly {
            rings: vec![vec![(0, 0), (10, 10), (10, 0), (0, 10)]],
        };
        assert!(!bowtie.is_valid());
        let ok = Poly::new(vec![sq(0, 0, 10), sq(2, 2, 3)]);
        assert!(ok.is_valid());
        let stray = Poly::new(vec![sq(0, 0, 10), sq(20, 20, 3)]);
        assert!(!stray.is_valid());
        let touching = Poly::new(vec![sq(0, 0, 10), sq(0, 2, 3)]);
        assert!(!touching.is_valid());
    }

    #[test]
    fn star_rings_are_simple() {
        let polar: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                let a = i as f64 / 40.0 * std::f64::consts::TAU;
                (a, if i % 2 == 0 { 100.0 } else { 40.0 })
            })
            .collect();
        let ring = star_ring((1000, 1000), &polar).unwrap();
        assert!(Poly::new(vec![ring]).is_valid());
    }
}
