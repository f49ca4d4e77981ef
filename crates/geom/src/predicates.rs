//! Robust geometric predicates.
//!
//! The central predicate is [`orient2d`]: the sign of the signed area of
//! the triangle `(a, b, c)`. Everything in the topology pipeline that must
//! be *decided* (rather than estimated) reduces to orientation signs:
//! segment intersection classification, point-on-segment tests, ray
//! crossing parity, and therefore the entire DE-9IM computation.
//!
//! A naive floating-point determinant can report the wrong sign when the
//! true value is near zero, which corrupts topology (e.g. a `meets` pair
//! misclassified as `intersects`). Following Shewchuk's classic approach
//! we first evaluate the determinant with a cheap error-bound filter; only
//! when the filter cannot certify the sign do we fall back to an exact
//! evaluation using floating-point expansion arithmetic (error-free
//! transformations). The exact path is hit rarely in practice, so the
//! common case stays at the cost of four subtractions and two
//! multiplications.

use crate::point::Point;

/// Result of an orientation test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orientation {
    /// `c` lies to the left of the directed line `a -> b`
    /// (counter-clockwise turn).
    CounterClockwise,
    /// `c` lies to the right of the directed line `a -> b`
    /// (clockwise turn).
    Clockwise,
    /// `a`, `b`, `c` are exactly collinear.
    Collinear,
}

impl Orientation {
    /// Maps the sign of a determinant to an orientation.
    #[inline]
    pub fn from_sign(s: f64) -> Orientation {
        if s > 0.0 {
            Orientation::CounterClockwise
        } else if s < 0.0 {
            Orientation::Clockwise
        } else {
            Orientation::Collinear
        }
    }

    /// The opposite turn direction (collinear is its own reverse).
    #[inline]
    pub fn reverse(self) -> Orientation {
        match self {
            Orientation::CounterClockwise => Orientation::Clockwise,
            Orientation::Clockwise => Orientation::CounterClockwise,
            Orientation::Collinear => Orientation::Collinear,
        }
    }
}

/// Machine epsilon for `f64` halved, as used by Shewchuk's error bounds.
const EPSILON: f64 = f64::EPSILON / 2.0;
/// Error bound coefficient for the orient2d filter: (3 + 16ε)ε.
const CCWERRBOUND_A: f64 = (3.0 + 16.0 * EPSILON) * EPSILON;

/// Exact orientation of point `c` relative to the directed line `a -> b`.
///
/// Returns [`Orientation::CounterClockwise`] when the triangle `(a, b, c)`
/// has positive signed area, [`Orientation::Clockwise`] when negative and
/// [`Orientation::Collinear`] when the three points are exactly collinear.
/// The answer is exact for all finite inputs (no epsilon tolerance).
#[inline]
pub fn orient2d(a: Point, b: Point, c: Point) -> Orientation {
    Orientation::from_sign(orient2d_sign(a, b, c))
}

/// Sign of the signed area of the triangle `(a, b, c)` as `-1.0`, `0.0`
/// or `+1.0`-scaled value: positive for counter-clockwise, negative for
/// clockwise, zero for collinear. The magnitude is only meaningful in the
/// fast path; callers should use the sign alone.
pub fn orient2d_sign(a: Point, b: Point, c: Point) -> f64 {
    let detleft = (a.x - c.x) * (b.y - c.y);
    let detright = (a.y - c.y) * (b.x - c.x);
    let det = detleft - detright;

    // Fast filter: if |det| is safely above the rounding error accumulated
    // by the four subtractions and two multiplications, its sign is exact.
    let detsum = if detleft > 0.0 {
        if detright <= 0.0 {
            return det;
        }
        detleft + detright
    } else if detleft < 0.0 {
        if detright >= 0.0 {
            return det;
        }
        -detleft - detright
    } else {
        // detleft == 0: det == -detright, computed exactly.
        return det;
    };

    let errbound = CCWERRBOUND_A * detsum;
    if det >= errbound || -det >= errbound {
        return det;
    }

    orient2d_exact(a, b, c)
}

/// Exact evaluation of the orient2d determinant with expansion arithmetic.
///
/// Expands `ax·by − ax·cy + ay·cx − ay·bx + bx·cy − by·cx` into a sum of
/// non-overlapping doubles and returns its most significant component,
/// whose sign equals the sign of the exact value.
fn orient2d_exact(a: Point, b: Point, c: Point) -> f64 {
    // Each product becomes a two-term expansion via an error-free
    // transformation; the six expansions are summed exactly.
    let (p1h, p1l) = two_product(a.x, b.y);
    let (p2h, p2l) = two_product(a.x, c.y);
    let (p3h, p3l) = two_product(a.y, c.x);
    let (p4h, p4l) = two_product(a.y, b.x);
    let (p5h, p5l) = two_product(b.x, c.y);
    let (p6h, p6l) = two_product(b.y, c.x);

    let mut acc = Expansion::default();
    for v in [
        p1l, p1h, -p2l, -p2h, p3l, p3h, -p4l, -p4h, p5l, p5h, -p6l, -p6h,
    ] {
        acc.grow(v);
    }

    // The expansion is sorted by increasing magnitude and non-overlapping;
    // the last nonzero component dominates the sum's sign.
    acc.components()
        .iter()
        .rev()
        .copied()
        .find(|v| *v != 0.0)
        .unwrap_or(0.0)
}

/// Terms [`orient2d_exact`] sums: twelve, and each [`Expansion::grow`]
/// adds at most one component.
const EXPANSION_TERMS: usize = 12;

/// A floating-point expansion of at most [`EXPANSION_TERMS`] components,
/// on the stack: non-overlapping, in increasing magnitude.
#[derive(Default)]
struct Expansion {
    parts: [f64; EXPANSION_TERMS],
    len: usize,
}

impl Expansion {
    /// Adds scalar `b` exactly (Shewchuk's `GROW-EXPANSION` with zero
    /// elimination), in place: the `i`-th output component is written
    /// only after the `i`-th input component has been read.
    fn grow(&mut self, b: f64) {
        let mut q = b;
        let mut n = 0;
        for i in 0..self.len {
            let (s, err) = two_sum(q, self.parts[i]);
            if err != 0.0 {
                self.parts[n] = err;
                n += 1;
            }
            q = s;
        }
        if q != 0.0 || n == 0 {
            self.parts[n] = q;
            n += 1;
        }
        self.len = n;
    }

    fn components(&self) -> &[f64] {
        &self.parts[..self.len]
    }
}

/// Error-free transformation of a sum: returns `(s, e)` with `s = fl(a+b)`
/// and `a + b = s + e` exactly (Knuth's TwoSum).
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bv = s - a;
    let av = s - bv;
    let br = b - bv;
    let ar = a - av;
    (s, ar + br)
}

/// Error-free transformation of a product using FMA-free splitting
/// (Dekker/Veltkamp): returns `(p, e)` with `p = fl(a*b)` and
/// `a * b = p + e` exactly.
#[inline]
fn two_product(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let (ah, al) = split(a);
    let (bh, bl) = split(b);
    let err1 = p - ah * bh;
    let err2 = err1 - al * bh;
    let err3 = err2 - ah * bl;
    let e = al * bl - err3;
    (p, e)
}

/// Veltkamp splitting of a double into high/low halves with 26-bit
/// significands, such that `a = hi + lo` exactly.
#[inline]
fn split(a: f64) -> (f64, f64) {
    const SPLITTER: f64 = 134_217_729.0; // 2^27 + 1
    let c = SPLITTER * a;
    let hi = c - (c - a);
    let lo = a - hi;
    (hi, lo)
}

/// Returns `true` if point `p` lies on the closed segment `a -> b`.
///
/// Exact: `p` must be collinear with `a`, `b` and within the segment's
/// coordinate range.
#[inline]
pub fn point_on_segment(p: Point, a: Point, b: Point) -> bool {
    if orient2d(a, b, p) != Orientation::Collinear {
        return false;
    }
    in_closed_range(p.x, a.x, b.x) && in_closed_range(p.y, a.y, b.y)
}

#[inline]
fn in_closed_range(v: f64, lo: f64, hi: f64) -> bool {
    let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    lo <= v && v <= hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_turns() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert_eq!(
            orient2d(a, b, Point::new(0.5, 1.0)),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orient2d(a, b, Point::new(0.5, -1.0)),
            Orientation::Clockwise
        );
        assert_eq!(orient2d(a, b, Point::new(2.0, 0.0)), Orientation::Collinear);
    }

    #[test]
    fn reverse_orientation() {
        assert_eq!(
            Orientation::CounterClockwise.reverse(),
            Orientation::Clockwise
        );
        assert_eq!(
            Orientation::Clockwise.reverse(),
            Orientation::CounterClockwise
        );
        assert_eq!(Orientation::Collinear.reverse(), Orientation::Collinear);
    }

    /// The classic robustness stress: points nearly collinear where naive
    /// arithmetic flips signs. Walk tiny offsets along a line and demand
    /// consistent answers with the exact predicate's symmetry property
    /// orient(a,b,c) == -orient(b,a,c).
    #[test]
    fn near_degenerate_consistency() {
        let a = Point::new(12.0, 12.0);
        let b = Point::new(24.0, 24.0);
        for i in 0..64 {
            for j in 0..64 {
                let c = Point::new(0.5 + i as f64 * f64::EPSILON, 0.5 + j as f64 * f64::EPSILON);
                let o1 = orient2d(a, b, c);
                let o2 = orient2d(b, a, c);
                assert_eq!(o1, o2.reverse(), "i={i} j={j}");
                // Invariance under cyclic permutation.
                let o3 = orient2d(b, c, a);
                assert_eq!(o1, o3, "cyclic i={i} j={j}");
            }
        }
    }

    /// `orient2d_exact` against an independent exact evaluation: on
    /// integer coordinates below 2^52 every product fits an `i128`, so
    /// the determinant's sign is known exactly. The triples are nearly
    /// collinear (a point on the line through `a` and `b`, nudged by at
    /// most one unit), where the floating-point filter cannot decide.
    #[test]
    fn exact_path_matches_i128_determinant() {
        let mut seed = 0x0D1E_C0DEu64;
        let mut next = move |bits: u32| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> (64 - bits)) as i64
        };
        for _ in 0..20_000 {
            let (ax, ay) = (next(48), next(48));
            let (dx, dy) = (next(20) - (1 << 19), next(20) - (1 << 19));
            let (m1, m2) = (next(24), next(24));
            let (bx, by) = (ax + dx * m1, ay + dy * m1);
            let (cx, cy) = (ax + dx * m2 + next(2) - 1, ay + dy * m2 + next(2) - 1);
            let det = i128::from(bx - ax) * i128::from(cy - ay)
                - i128::from(by - ay) * i128::from(cx - ax);
            let want = Orientation::from_sign(det.signum() as f64);
            let [a, b, c] =
                [(ax, ay), (bx, by), (cx, cy)].map(|(x, y)| Point::new(x as f64, y as f64));
            assert_eq!(Orientation::from_sign(orient2d_exact(a, b, c)), want);
            assert_eq!(orient2d(a, b, c), want);
        }
    }

    #[test]
    fn exact_collinear_detected() {
        // Points on the line y = x with coordinates that stress rounding.
        let a = Point::new(1e-30, 1e-30);
        let b = Point::new(1e30, 1e30);
        let c = Point::new(123.456, 123.456);
        assert_eq!(orient2d(a, b, c), Orientation::Collinear);
    }

    #[test]
    fn two_sum_exactness() {
        let (s, e) = two_sum(1e16, 1.0);
        // 1e16 + 1 is not representable; the error term must capture it.
        assert_eq!(s + e, 1e16 + 1.0); // f64 sum rounds, but s==fl(sum)
        assert_eq!(s, 1e16 + 1.0);
        assert_ne!(e, 0.0);
        // The pair must reconstruct exactly in higher precision terms:
        // s = 10000000000000002.0 rounded -> actually fl(1e16+1) == 1e16+2.
        // What matters is a + b == s + e exactly, checked via integers.
        let a = 1e16f64;
        let b = 1.0f64;
        assert_eq!(a as u64 as f64, a);
        // s + e == a + b exactly as rationals: verify with 128-bit ints.
        let total = (a as i128) + (b as i128);
        assert_eq!((s as i128) + (e as i128), total);
    }

    #[test]
    fn two_product_exactness() {
        let a = 1.0 + f64::EPSILON;
        let b = 1.0 + 2.0 * f64::EPSILON;
        let (p, e) = two_product(a, b);
        // a*b = 1 + 3eps + 2eps^2; p rounds, e holds the rest.
        assert!(e != 0.0);
        assert!((p + e) >= p); // sanity: decomposition ordered
    }

    #[test]
    fn point_on_segment_cases() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 10.0);
        assert!(point_on_segment(Point::new(5.0, 5.0), a, b));
        assert!(point_on_segment(a, a, b));
        assert!(point_on_segment(b, a, b));
        assert!(!point_on_segment(Point::new(5.0, 5.1), a, b));
        assert!(!point_on_segment(Point::new(11.0, 11.0), a, b));
    }

    #[test]
    fn filter_agrees_with_exact_on_random_grid() {
        // All answers on a modest integer grid are exactly representable,
        // so a plain integer determinant is an oracle.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 2001) as i64 - 1000
        };
        for _ in 0..2000 {
            let (ax, ay, bx, by, cx, cy) = (next(), next(), next(), next(), next(), next());
            let det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx);
            let expect = Orientation::from_sign(det as f64);
            let got = orient2d(
                Point::new(ax as f64, ay as f64),
                Point::new(bx as f64, by as f64),
                Point::new(cx as f64, cy as f64),
            );
            assert_eq!(got, expect);
        }
    }
}
