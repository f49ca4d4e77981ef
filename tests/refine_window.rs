//! Exactness of the windowed, prepared DE-9IM refinement.
//!
//! Refinement bounds its work by the part of a pair that can interact:
//! the boundary sweep only admits edges whose MBR meets the window
//! `mbr(A) ∩ mbr(B)`, and a long-lived `RelateScratch` keeps a geometry's
//! point-location index while the next pair brings the same edges. Both
//! are claimed to change nothing about the answer. These tests hold them
//! to it:
//!
//! - the windowed sweep returns the very `Vec<EdgePairHit>` — contents and
//!   order, with and without `stop_on_proper` — that an unwindowed sweep
//!   returns, and the hit set a brute-force all-pairs test finds;
//! - one scratch cycled through a 1,200-vertex park and many small
//!   polygons on, inside and outside its boundary, in four pair orders,
//!   returns the same `De9Im` matrix as a fresh `relate`;
//! - a geometry mutated in place, in the same buffer, between two calls is
//!   not answered from the stale preparation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stjoin::datagen::adversarial::adversarial_pair;
use stjoin::datagen::{star_polygon, StarParams};
use stjoin::de9im::{relate_with, RelateScratch};
use stjoin::geom::{
    boundary_pairs, boundary_pairs_into, interior_point, intersect_segments, EdgePairHit, PolyView,
    SegSegIntersection, SweepScratch,
};
use stjoin::prelude::*;

// ---------------------------------------------------------------------
// (a) The windowed sweep against unwindowed references.
// ---------------------------------------------------------------------

/// The sweep as it ran before windowing: every edge of both lists is
/// sorted by MBR xmin (index tie-break) and scanned. The windowed sweep
/// must reproduce its hit list exactly, order included.
fn unwindowed_sweep(a: &[Segment], b: &[Segment], stop_on_proper: bool) -> Vec<EdgePairHit> {
    let xmin = |s: &Segment| s.a.x.min(s.b.x);
    let sorted = |edges: &[Segment]| {
        let mut v: Vec<(usize, Segment)> = edges.iter().copied().enumerate().collect();
        v.sort_by(|l, r| xmin(&l.1).partial_cmp(&xmin(&r.1)).unwrap());
        v
    };
    let (a_sorted, b_sorted) = (sorted(a), sorted(b));
    let mut hits = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a_sorted.len() && j < b_sorted.len() {
        let a_first = xmin(&a_sorted[i].1) <= xmin(&b_sorted[j].1);
        let (probe, rest) = if a_first {
            (a_sorted[i], &b_sorted[j..])
        } else {
            (b_sorted[j], &a_sorted[i..])
        };
        let probe_mbr = probe.1.mbr();
        for &other in rest {
            if xmin(&other.1) > probe_mbr.max.x {
                break;
            }
            if !probe_mbr.intersects(&other.1.mbr()) {
                continue;
            }
            let ((ia, sa), (ib, sb)) = if a_first {
                (probe, other)
            } else {
                (other, probe)
            };
            let kind = intersect_segments(sa, sb);
            if kind.is_some() {
                hits.push(EdgePairHit { ia, ib, kind });
                if stop_on_proper && matches!(kind, SegSegIntersection::Proper(_)) {
                    return hits;
                }
            }
        }
        if a_first {
            i += 1;
        } else {
            j += 1;
        }
    }
    hits
}

/// Every intersecting `(ia, ib)` by testing all pairs, sorted.
fn brute_force(a: &[Segment], b: &[Segment]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (ia, &sa) in a.iter().enumerate() {
        for (ib, &sb) in b.iter().enumerate() {
            if intersect_segments(sa, sb).is_some() {
                out.push((ia, ib));
            }
        }
    }
    out
}

/// Checks the windowed sweep on one input against both references, with
/// `stop_on_proper` off and on, through the one-shot wrapper and a reused
/// scratch alike.
fn check_sweep(a: &[Segment], b: &[Segment], scratch: &mut SweepScratch, what: &str) {
    let mut hits = Vec::new();
    for stop in [false, true] {
        let reference = unwindowed_sweep(a, b, stop);
        boundary_pairs_into(a, b, stop, scratch, &mut hits);
        assert_eq!(hits, reference, "{what}: stop_on_proper={stop}");
        assert_eq!(boundary_pairs(a, b, stop), reference, "{what}: one-shot");
    }
    let mut found: Vec<(usize, usize)> = boundary_pairs(a, b, false)
        .iter()
        .map(|h| (h.ia, h.ib))
        .collect();
    found.sort_unstable();
    assert_eq!(found, brute_force(a, b), "{what}: hit set vs brute force");
}

fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
    Segment::new(Point::new(ax, ay), Point::new(bx, by))
}

/// `n` random segments of length up to `len` starting in `[x0, x0 + w]²`,
/// snapped to a coarse lattice now and then so touches and collinear
/// overlaps occur too.
fn random_segments(rng: &mut StdRng, n: usize, x0: f64, w: f64, len: f64) -> Vec<Segment> {
    (0..n)
        .map(|_| {
            let snap = rng.gen_bool(0.3);
            let c = |v: f64| if snap { v.round() } else { v };
            let (x, y) = (c(x0 + rng.gen::<f64>() * w), c(x0 + rng.gen::<f64>() * w));
            let (dx, dy) = (
                c((rng.gen::<f64>() - 0.5) * len),
                c((rng.gen::<f64>() - 0.5) * len),
            );
            seg(x, y, x + dx, y + dy)
        })
        .collect()
}

#[test]
fn windowed_sweep_matches_unwindowed_on_random_segments() {
    let mut rng = StdRng::seed_from_u64(0x5EE9);
    let mut scratch = SweepScratch::default();
    for trial in 0..60 {
        // Same spread, one list nested in the other, and partial overlap:
        // the window covers everything, a small part, or a strip.
        let a = random_segments(&mut rng, 10 + trial, 0.0, 100.0, 20.0);
        let b = match trial % 3 {
            0 => random_segments(&mut rng, 10 + trial, 0.0, 100.0, 20.0),
            1 => random_segments(&mut rng, 8, 40.0, 15.0, 6.0),
            _ => random_segments(&mut rng, 25, 80.0, 60.0, 20.0),
        };
        check_sweep(&a, &b, &mut scratch, &format!("trial {trial}"));
        check_sweep(&b, &a, &mut scratch, &format!("trial {trial}, swapped"));
    }
}

#[test]
fn windowed_sweep_handles_empty_and_degenerate_windows() {
    let mut rng = StdRng::seed_from_u64(0xE);
    let mut scratch = SweepScratch::default();
    let a = random_segments(&mut rng, 40, 0.0, 10.0, 3.0);
    // MBR-disjoint inputs: the window is empty, so are the hits.
    let far = random_segments(&mut rng, 40, 50.0, 10.0, 3.0);
    check_sweep(&a, &far, &mut scratch, "disjoint");
    assert!(boundary_pairs(&a, &far, false).is_empty());
    // No edges on one side.
    check_sweep(&a, &[], &mut scratch, "empty B");
    check_sweep(&[], &a, &mut scratch, "empty A");
    // MBRs that only share the line x = 10: a zero-width window that
    // still holds touches and a collinear overlap.
    let left = vec![seg(0.0, 0.0, 10.0, 5.0), seg(10.0, 5.0, 10.0, 8.0)];
    let right = vec![
        seg(10.0, 5.0, 20.0, 0.0),
        seg(10.0, 6.0, 10.0, 9.0),
        seg(10.0, 2.0, 20.0, 2.0),
    ];
    check_sweep(&left, &right, &mut scratch, "line window");
    assert_eq!(boundary_pairs(&left, &right, false).len(), 3);
}

#[test]
fn windowed_sweep_matches_unwindowed_on_adversarial_corpus() {
    let mut scratch = SweepScratch::default();
    let edges = |p: &Polygon| p.edges().collect::<Vec<_>>();
    for i in 0..110 {
        let pair = adversarial_pair(0x5EEB, i);
        let (a, b) = (edges(&pair.a), edges(&pair.b));
        let what = format!("pair {i} ({})", pair.category);
        check_sweep(&a, &b, &mut scratch, &what);
        check_sweep(&b, &a, &mut scratch, &what);
        check_sweep(&a, &a, &mut scratch, &format!("{what}, self"));
    }
}

// ---------------------------------------------------------------------
// (b) One long-lived scratch against fresh `relate`, in four orders.
// ---------------------------------------------------------------------

const CENTER: Point = Point::new(500.0, 500.0);

fn park(seed: u64, n: usize) -> Polygon {
    star_polygon(
        &mut StdRng::seed_from_u64(seed),
        &StarParams {
            center: CENTER,
            avg_radius: 300.0,
            irregularity: 0.5,
            spikiness: 0.35,
            num_vertices: n,
        },
    )
}

/// `p` moved radially from the park's center by factor `t`.
fn radial(p: Point, t: f64) -> Point {
    Point::new(
        CENTER.x + (p.x - CENTER.x) * t,
        CENTER.y + (p.y - CENTER.y) * t,
    )
}

fn poly(pts: &[Point]) -> Polygon {
    Polygon::from_coords(pts.iter().map(|p| (p.x, p.y)).collect(), vec![]).unwrap()
}

fn square(c: Point, h: f64) -> Polygon {
    poly(&[
        Point::new(c.x - h, c.y - h),
        Point::new(c.x + h, c.y - h),
        Point::new(c.x + h, c.y + h),
        Point::new(c.x - h, c.y + h),
    ])
}

/// Small polygons placed against the park's boundary: sharing one of its
/// edges from inside and from outside, straddling a vertex, touching a
/// vertex from outside, well inside, and outside.
fn buildings(park: &Polygon) -> Vec<Polygon> {
    let v = park.outer().vertices();
    let mut out = Vec::new();
    for k in (0..v.len()).step_by(29) {
        let (p, q) = (v[k], v[(k + 1) % v.len()]);
        let m = p.midpoint(q);
        out.push(poly(&[p, q, radial(m, 0.98)]));
        out.push(poly(&[p, q, radial(m, 1.02)]));
        out.push(square(p, 0.3));
        let out_p = radial(p, 1.01);
        out.push(poly(&[p, out_p, Point::new(out_p.x + 0.5, out_p.y + 0.5)]));
        out.push(square(radial(p, 0.5), 1.0));
        out.push(square(radial(p, 1.3), 1.0));
    }
    out
}

fn assert_fresh(scratch: &mut RelateScratch, r: &Polygon, s: &Polygon, what: &str) -> De9Im {
    let got = relate_with(r, s, scratch);
    assert_eq!(got, relate(r, s), "{what}");
    got
}

#[test]
fn long_lived_scratch_matches_fresh_relate_in_every_pair_order() {
    let big = park(7, 1_200);
    let big2 = park(8, 1_100);
    let small = buildings(&big);
    let mut scratch = RelateScratch::default();
    let mut seen = std::collections::BTreeSet::new();

    // Same-r run: the park stays in the first slot.
    for (i, b) in small.iter().enumerate() {
        let m = assert_fresh(&mut scratch, &big, b, &format!("same-r {i}"));
        seen.insert(TopoRelation::most_specific(&m));
    }
    // Same-s run: the park stays in the second slot.
    for (i, b) in small.iter().enumerate() {
        assert_fresh(&mut scratch, b, &big, &format!("same-s {i}"));
    }
    // Alternating parks: the first slot changes on every call.
    for (i, b) in small.iter().enumerate() {
        let p = if i % 2 == 0 { &big } else { &big2 };
        assert_fresh(&mut scratch, p, b, &format!("alternating {i}"));
    }
    // Operands swapped on every call: the park moves between slots.
    for (i, b) in small.iter().enumerate() {
        assert_fresh(&mut scratch, &big, b, &format!("swapped {i}, park first"));
        assert_fresh(&mut scratch, b, &big, &format!("swapped {i}, park second"));
    }
    // The corpus must exercise the cases refinement tells apart.
    for rel in [
        TopoRelation::Contains,
        TopoRelation::Covers,
        TopoRelation::Meets,
        TopoRelation::Intersects,
        TopoRelation::Disjoint,
    ] {
        assert!(seen.contains(&rel), "no building gave {rel:?}: {seen:?}");
    }
}

// ---------------------------------------------------------------------
// (c) In-place mutation must not be served from a stale preparation.
// ---------------------------------------------------------------------

/// A view over `verts` (one ring) with its MBR and interior point
/// computed from the buffer's current contents.
fn view_of<'a>(verts: &'a [Point], offs: &'a [u64]) -> PolyView<'a> {
    let owned = poly(verts);
    PolyView::new(verts, offs, *owned.mbr(), interior_point(&owned))
}

#[test]
fn geometry_mutated_in_place_is_prepared_again() {
    let big = park(11, 1_200);
    let mut verts: Vec<Point> = big.outer().vertices().to_vec();
    let offs = [0u64, verts.len() as u64];
    let addr = verts.as_ptr();
    // One scratch holds the view in its first slot, the other in its
    // second, so each slot meets the mutated geometry right after the
    // original.
    let mut as_r = RelateScratch::default();
    let mut as_s = RelateScratch::default();

    for k in [17, 400, 999] {
        let probe = square(radial(verts[k], 0.7), 0.5);
        let before = {
            let view = view_of(&verts, &offs);
            let m = relate(&view, &probe);
            assert_eq!(relate_with(&view, &probe, &mut as_r), m, "vertex {k}, r");
            assert_eq!(relate_with(&probe, &view, &mut as_s), m.transposed());
            m
        };
        // Pull vertex k in past the probe, in place: same buffer, same
        // address, same length — only the contents differ.
        verts[k] = radial(verts[k], 0.3);
        assert_eq!(verts.as_ptr(), addr);
        let view = view_of(&verts, &offs);
        let after = relate(&view, &probe);
        assert_ne!(before, after, "vertex {k}: the move must change the answer");
        assert_eq!(
            relate_with(&view, &probe, &mut as_r),
            after,
            "vertex {k}, mutated r"
        );
        assert_eq!(
            relate_with(&probe, &view, &mut as_s),
            after.transposed(),
            "vertex {k}, mutated s"
        );
    }
}
