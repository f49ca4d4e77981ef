//! The exact topology oracle.
//!
//! Decides the most specific of the eight relations for two integer
//! polygons with exact `i128` arithmetic, by overlaying their boundaries:
//! every edge of one polygon is split at every point where the other's
//! boundary touches it, and each piece is then located against the other
//! polygon by a rational test point strictly inside the piece. A piece
//! lies wholly in the other's interior, wholly in its exterior, or along
//! one of its edges (with the interiors on the same or on opposite sides).
//! Those four facts, gathered both ways, decide the relation:
//!
//! - interiors meet ⟺ a piece of either boundary lies in the other's
//!   interior, or a shared piece has both interiors on the same side;
//! - `A ⊆ B` ⟺ no piece of `∂A` lies in `ext(B)`, no piece of `∂B` lies
//!   in `int(A)`, and no shared piece has the interiors on opposite sides;
//! - boundaries meet ⟺ any edge of one touches any edge of the other.
//!
//! The semantics are those of the paper's Fig. 1(a): `inside`/`contains`
//! are containment without boundary contact, `covered by`/`covers` with
//! it, `meets` is boundary contact with disjoint interiors and
//! `intersects` any other interior overlap. Nothing here is shared with
//! the geometry or DE-9IM code of the program under test.

use crate::geom::{orient, Mbr, Poly, Pt};

/// The eight relations, named as the program prints them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rel {
    Disjoint,
    Intersects,
    Meets,
    Equals,
    Inside,
    Contains,
    CoveredBy,
    Covers,
}

impl Rel {
    pub const ALL: [Rel; 8] = [
        Rel::Disjoint,
        Rel::Intersects,
        Rel::Meets,
        Rel::Equals,
        Rel::Inside,
        Rel::Contains,
        Rel::CoveredBy,
        Rel::Covers,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Rel::Disjoint => "disjoint",
            Rel::Intersects => "intersects",
            Rel::Meets => "meets",
            Rel::Equals => "equals",
            Rel::Inside => "inside",
            Rel::Contains => "contains",
            Rel::CoveredBy => "covered by",
            Rel::Covers => "covers",
        }
    }

    pub fn parse(s: &str) -> Option<Rel> {
        Rel::ALL.into_iter().find(|r| r.name() == s)
    }

    /// The relation of `(b, a)` given that of `(a, b)`.
    pub fn converse(self) -> Rel {
        match self {
            Rel::Inside => Rel::Contains,
            Rel::Contains => Rel::Inside,
            Rel::CoveredBy => Rel::Covers,
            Rel::Covers => Rel::CoveredBy,
            other => other,
        }
    }

    /// The GeoSPARQL simple-features property a link of this relation is
    /// written with (`None` for `disjoint`, which yields no link).
    pub fn geosparql(self) -> Option<&'static str> {
        Some(match self {
            Rel::Disjoint => return None,
            Rel::Meets => "sfTouches",
            Rel::Intersects => "sfOverlaps",
            Rel::Equals => "sfEquals",
            Rel::Inside | Rel::CoveredBy => "sfWithin",
            Rel::Contains | Rel::Covers => "sfContains",
        })
    }
}

/// What the pieces of one polygon's boundary showed about the other.
#[derive(Clone, Copy, Debug, Default)]
struct Sides {
    /// A piece lies in the other's interior.
    in_interior: bool,
    /// A piece lies in the other's exterior.
    in_exterior: bool,
    /// A piece runs along the other's boundary, interiors on one side.
    shared_same: bool,
    /// A piece runs along the other's boundary, interiors on either side.
    shared_opposite: bool,
    /// Some edge touches some edge of the other.
    boundaries_meet: bool,
}

/// A non-negative rational `n / d` with `d > 0`, used for positions along
/// an edge.
#[derive(Clone, Copy, Debug)]
struct Frac {
    n: i128,
    d: i128,
}

impl Frac {
    fn new(n: i128, d: i128) -> Frac {
        if d < 0 {
            Frac { n: -n, d: -d }
        } else {
            Frac { n, d }
        }
    }

    fn cmp(self, o: Frac) -> std::cmp::Ordering {
        (self.n * o.d).cmp(&(o.n * self.d))
    }
}

/// A rational point `(x / d, y / d)`, `d > 0`.
#[derive(Clone, Copy, Debug)]
struct RPt {
    x: i128,
    y: i128,
    d: i128,
}

/// Where a rational point lies relative to a polygon.
enum Loc {
    Interior,
    Exterior,
    /// On the edge with this direction vector.
    Boundary(Pt),
}

fn bbox(a: Pt, b: Pt) -> Mbr {
    Mbr {
        x0: a.0.min(b.0),
        y0: a.1.min(b.1),
        x1: a.0.max(b.0),
        y1: a.1.max(b.1),
    }
}

/// Locates `m` against the polygon whose edges crossing `m`'s row are all
/// in `edges` (edges are oriented with the interior on their left).
fn locate(m: RPt, edges: &[(Pt, Pt)]) -> Loc {
    let mut inside = false;
    for &(a, b) in edges {
        let (ax, ay, bx, by) = (a.0 as i128, a.1 as i128, b.0 as i128, b.1 as i128);
        let o = (bx - ax) * (m.y - ay * m.d) - (by - ay) * (m.x - ax * m.d);
        if o == 0
            && ax.min(bx) * m.d <= m.x
            && m.x <= ax.max(bx) * m.d
            && ay.min(by) * m.d <= m.y
            && m.y <= ay.max(by) * m.d
        {
            return Loc::Boundary((b.0 - a.0, b.1 - a.1));
        }
        if (ay * m.d > m.y) != (by * m.d > m.y) && (by > ay) == (o > 0) {
            inside = !inside;
        }
    }
    if inside {
        Loc::Interior
    } else {
        Loc::Exterior
    }
}

/// Adds to `ts` every position along `p → q` where the closed segment
/// `c → d` touches it; returns whether they touch at all.
fn split_points(p: Pt, q: Pt, c: Pt, d: Pt, ts: &mut Vec<Frac>) -> bool {
    let o1 = orient(p, q, c);
    let o2 = orient(p, q, d);
    if o1 == 0 && o2 == 0 {
        // Collinear: the overlap, if any, is bounded by endpoints.
        let (ux, uy) = ((q.0 - p.0) as i128, (q.1 - p.1) as i128);
        let len2 = ux * ux + uy * uy;
        let mut touch = false;
        for e in [c, d] {
            let t = (e.0 - p.0) as i128 * ux + (e.1 - p.1) as i128 * uy;
            if (0..=len2).contains(&t) {
                ts.push(Frac::new(t, len2));
                touch = true;
            }
        }
        return touch || crate::geom::on_segment(p, c, d) || crate::geom::on_segment(q, c, d);
    }
    let o3 = orient(c, d, p);
    let o4 = orient(c, d, q);
    if o1.signum() * o2.signum() > 0 || o3.signum() * o4.signum() > 0 {
        return false;
    }
    // Non-parallel and touching: one intersection point at parameter
    // t = cross(c - p, d - c) / cross(q - p, d - c).
    let (ex, ey) = ((d.0 - c.0) as i128, (d.1 - c.1) as i128);
    let num = (c.0 - p.0) as i128 * ey - (c.1 - p.1) as i128 * ex;
    let den = (q.0 - p.0) as i128 * ey - (q.1 - p.1) as i128 * ex;
    ts.push(Frac::new(num, den));
    true
}

/// Walks the boundary of `x` against polygon `y`.
fn sides(x: &Poly, y: &Poly) -> Sides {
    let (xm, ym) = (x.mbr(), y.mbr());
    let mut out = Sides::default();
    // Every boundary point of `x` that can touch `y` lies in both MBRs, so
    // only `y`'s edges spanning that window's rows matter — for splitting
    // and for the ray cast alike.
    let (wy0, wy1) = (xm.y0.max(ym.y0), xm.y1.min(ym.y1));
    let y_edges: Vec<(Pt, Pt)> = y
        .edges()
        .filter(|&(a, b)| a.1.max(b.1) >= wy0 && a.1.min(b.1) <= wy1)
        .collect();
    let mut ts: Vec<Frac> = Vec::new();
    for (p, q) in x.edges() {
        let eb = bbox(p, q);
        if !eb.intersects(&ym) {
            out.in_exterior = true;
            continue;
        }
        ts.clear();
        ts.push(Frac::new(0, 1));
        ts.push(Frac::new(1, 1));
        for &(c, d) in &y_edges {
            if bbox(c, d).intersects(&eb) && split_points(p, q, c, d, &mut ts) {
                out.boundaries_meet = true;
            }
        }
        ts.sort_by(|a, b| a.cmp(*b));
        ts.dedup_by(|a, b| a.cmp(*b).is_eq());
        for w in ts.windows(2) {
            let (t0, t1) = (w[0], w[1]);
            if t0.n < 0 || t1.n > t1.d {
                continue;
            }
            // Midpoint parameter (t0 + t1) / 2 as one fraction.
            let n = t0.n * t1.d + t1.n * t0.d;
            let d = 2 * t0.d * t1.d;
            let m = RPt {
                x: p.0 as i128 * d + n * (q.0 - p.0) as i128,
                y: p.1 as i128 * d + n * (q.1 - p.1) as i128,
                d,
            };
            let outside_mbr = m.x < ym.x0 as i128 * d
                || m.x > ym.x1 as i128 * d
                || m.y < ym.y0 as i128 * d
                || m.y > ym.y1 as i128 * d;
            let loc = if outside_mbr {
                Loc::Exterior
            } else {
                locate(m, &y_edges)
            };
            match loc {
                Loc::Interior => out.in_interior = true,
                Loc::Exterior => out.in_exterior = true,
                Loc::Boundary(dir) => {
                    let dot =
                        (q.0 - p.0) as i128 * dir.0 as i128 + (q.1 - p.1) as i128 * dir.1 as i128;
                    if dot > 0 {
                        out.shared_same = true;
                    } else {
                        out.shared_opposite = true;
                    }
                }
            }
        }
    }
    out
}

/// The most specific relation of `(a, b)`. Both polygons must be valid
/// and normalized (see [`Poly::new`]).
pub fn relate(a: &Poly, b: &Poly) -> Rel {
    if !a.mbr().intersects(&b.mbr()) {
        return Rel::Disjoint;
    }
    let sa = sides(a, b);
    let sb = sides(b, a);
    let interiors_meet = sa.in_interior || sb.in_interior || sa.shared_same || sb.shared_same;
    let boundaries_meet = sa.boundaries_meet || sb.boundaries_meet;
    let opposite = sa.shared_opposite || sb.shared_opposite;
    let a_in_b = !sa.in_exterior && !sb.in_interior && !opposite;
    let b_in_a = !sb.in_exterior && !sa.in_interior && !opposite;
    match (a_in_b, b_in_a) {
        (true, true) => Rel::Equals,
        (true, false) if !boundaries_meet => Rel::Inside,
        (false, true) if !boundaries_meet => Rel::Contains,
        (true, false) => Rel::CoveredBy,
        (false, true) => Rel::Covers,
        _ if interiors_meet => Rel::Intersects,
        _ if boundaries_meet => Rel::Meets,
        _ => Rel::Disjoint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: i64, y0: i64, x1: i64, y1: i64) -> Vec<Pt> {
        vec![(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    }

    fn poly(rings: Vec<Vec<Pt>>) -> Poly {
        let p = Poly::new(rings);
        assert!(p.is_valid(), "test polygon must be valid: {p:?}");
        p
    }

    fn check(a: &Poly, b: &Poly, want: Rel) {
        assert_eq!(relate(a, b), want, "relate({a:?}, {b:?})");
        assert_eq!(relate(b, a), want.converse(), "converse");
    }

    #[test]
    fn one_case_per_relation() {
        let big = poly(vec![rect(0, 0, 100, 100)]);
        check(&big, &poly(vec![rect(200, 0, 300, 100)]), Rel::Disjoint);
        check(&big, &poly(vec![rect(50, 50, 150, 150)]), Rel::Intersects);
        check(&big, &poly(vec![rect(100, 0, 200, 100)]), Rel::Meets);
        check(&big, &poly(vec![rect(0, 0, 100, 100)]), Rel::Equals);
        check(&poly(vec![rect(10, 10, 20, 20)]), &big, Rel::Inside);
        check(&big, &poly(vec![rect(10, 10, 20, 20)]), Rel::Contains);
        check(&poly(vec![rect(0, 0, 20, 20)]), &big, Rel::CoveredBy);
        check(&big, &poly(vec![rect(0, 10, 20, 20)]), Rel::Covers);
    }

    #[test]
    fn shared_edge_vertex_touch_and_holes() {
        let big = poly(vec![rect(0, 0, 100, 100)]);
        // Shared edge, partly: only boundaries meet.
        check(&big, &poly(vec![rect(100, 20, 150, 60)]), Rel::Meets);
        // A triangle built on part of an edge, pointing inward.
        check(
            &poly(vec![vec![(20, 0), (60, 0), (40, 30)]]),
            &big,
            Rel::CoveredBy,
        );
        // Vertex touch: one corner on the other's edge.
        check(
            &big,
            &poly(vec![vec![(100, 50), (150, 20), (150, 80)]]),
            Rel::Meets,
        );
        // Corner to corner.
        check(&big, &poly(vec![rect(100, 100, 120, 130)]), Rel::Meets);
        // Holes: a square filling the hole exactly only touches.
        let holed = poly(vec![rect(0, 0, 100, 100), rect(40, 40, 60, 60)]);
        check(&holed, &poly(vec![rect(40, 40, 60, 60)]), Rel::Meets);
        // Strictly inside the hole: disjoint, although the MBRs nest.
        check(&holed, &poly(vec![rect(45, 45, 55, 55)]), Rel::Disjoint);
        // Touching the hole's boundary from inside the hole.
        check(&holed, &poly(vec![rect(40, 45, 50, 55)]), Rel::Meets);
        // Around the hole, inside the shell: not contained (the hole's
        // points are missing) but overlapping.
        check(&holed, &poly(vec![rect(30, 30, 70, 70)]), Rel::Intersects);
        // Covering the hole from the outside: the holed polygon lies
        // inside the solid square whose boundary it shares.
        check(&holed, &big, Rel::CoveredBy);
        // Touching the hole boundary from the solid side.
        check(&holed, &poly(vec![rect(20, 40, 40, 60)]), Rel::Covers);
        // Crossing a hole edge.
        check(&holed, &poly(vec![rect(50, 10, 55, 50)]), Rel::Intersects);
    }

    #[test]
    fn collinear_overlap_in_the_same_direction_is_interior_contact() {
        // Two L-shapes that share a whole edge with both interiors on the
        // same side overlap; shapes mirrored across the edge only touch.
        let a = poly(vec![rect(0, 0, 40, 10)]);
        let b = poly(vec![rect(10, 0, 30, 20)]);
        check(&a, &b, Rel::Intersects);
        let c = poly(vec![rect(10, -20, 30, 0)]);
        check(&a, &c, Rel::Meets);
    }

    #[test]
    fn non_axis_crossings_are_exact() {
        let a = poly(vec![vec![(0, 0), (65535, 1), (65534, 65535)]]);
        let b = poly(vec![vec![(1, 0), (65535, 65534), (0, 65535)]]);
        check(&a, &b, Rel::Intersects);
        // A sliver whose apex touches the other's hypotenuse exactly.
        let c = poly(vec![vec![(0, 0), (100, 0), (0, 100)]]);
        let d = poly(vec![vec![(50, 50), (100, 100), (120, 60)]]);
        check(&c, &d, Rel::Meets);
        let e = poly(vec![vec![(49, 50), (100, 100), (120, 60)]]);
        check(&c, &e, Rel::Intersects);
    }
}
