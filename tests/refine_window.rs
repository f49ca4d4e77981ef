//! Exactness of the windowed, prepared DE-9IM refinement.
//!
//! Refinement bounds its work by the part of a pair that can interact:
//! the boundary sweep only admits edges whose MBR meets the window
//! `mbr(A) ∩ mbr(B)`, it asks the prepared locators' strip indexes for
//! those edges, sub-edge classification walks only them, and a long-lived
//! `RelateScratch` keeps a geometry's point-location index while the next
//! pair brings the same edges. All of it is claimed to change nothing
//! about the answer. These tests hold it to that:
//!
//! - the windowed sweep returns the very `Vec<EdgePairHit>` — contents and
//!   order, with and without `stop_on_proper` — that an unwindowed sweep
//!   returns, and the hit set a brute-force all-pairs test finds;
//! - one scratch cycled through a 1,200-vertex park and many small
//!   polygons on, inside and outside its boundary, in four pair orders,
//!   returns the same `De9Im` matrix as a fresh `relate`;
//! - a geometry mutated in place, in the same buffer, between two calls is
//!   not answered from the stale preparation;
//! - a locator's strip-window query lists exactly the edges whose MBR
//!   meets the window, each once;
//! - the located sweep returns what `boundary_pairs` returns on the same
//!   edges, order included;
//! - `relate_with` through one long-lived scratch equals a reference
//!   matrix that uses no locator, no sweep and no window: every edge split
//!   at every hit against every edge of the other geometry, sub-edge
//!   midpoints located with `Polygon::locate`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stjoin::datagen::adversarial::adversarial_pair;
use stjoin::datagen::{star_polygon, StarParams};
use stjoin::de9im::{relate_with, Part, RelateScratch};
use stjoin::geom::polygon::Location;
use stjoin::geom::{
    boundary_pairs, boundary_pairs_into, interior_point, intersect_segments,
    located_boundary_pairs_into, EdgePairHit, EdgeSetLocator, PolyView, SegSegIntersection,
    SweepScratch,
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

// ---------------------------------------------------------------------
// (d) The strip-window query against a brute-force filter.
// ---------------------------------------------------------------------

/// Checks `window_edges_into` on one window: exactly the edges whose MBR
/// meets it, each once.
fn check_window(loc: &EdgeSetLocator, window: &Rect, what: &str) {
    let mut got = Vec::new();
    loc.window_edges_into(window, &mut got);
    let mut indices: Vec<usize> = got.iter().map(|&(i, _)| i).collect();
    indices.sort_unstable();
    let expected: Vec<usize> = (0..loc.edges().len())
        .filter(|&i| loc.edges()[i].mbr().intersects(window))
        .collect();
    assert_eq!(indices, expected, "{what}: window {window:?}");
    for &(i, e) in &got {
        assert_eq!(
            e,
            loc.edges()[i],
            "{what}: edge {i} paired with the wrong segment"
        );
    }
}

/// Windows of many shapes around `mbr`: random ones inside and around it,
/// zero-height and zero-width ones, ones touching each side from outside,
/// and ones wholly outside.
fn windows_around(rng: &mut StdRng, mbr: &Rect) -> Vec<Rect> {
    let (w, h) = (mbr.max.x - mbr.min.x, mbr.max.y - mbr.min.y);
    let mut out = Vec::new();
    for _ in 0..40 {
        let x = mbr.min.x - 0.2 * w + rng.gen::<f64>() * 1.4 * w;
        let y = mbr.min.y - 0.2 * h + rng.gen::<f64>() * 1.4 * h;
        let (dx, dy) = (rng.gen::<f64>() * 0.3 * w, rng.gen::<f64>() * 0.3 * h);
        out.push(Rect::from_coords(x, y, x + dx, y + dy));
        out.push(Rect::from_coords(x, y, x + dx, y));
        out.push(Rect::from_coords(x, y, x, y + dy));
    }
    let (cx, cy) = ((mbr.min.x + mbr.max.x) / 2.0, (mbr.min.y + mbr.max.y) / 2.0);
    out.extend([
        *mbr,
        Rect::from_coords(cx, mbr.max.y, cx + 1.0, mbr.max.y + 5.0),
        Rect::from_coords(cx, mbr.min.y - 5.0, cx + 1.0, mbr.min.y),
        Rect::from_coords(mbr.max.x, cy, mbr.max.x + 5.0, cy + 1.0),
        Rect::from_coords(mbr.min.x - 5.0, cy, mbr.min.x, cy + 1.0),
        Rect::from_coords(
            mbr.min.x - 9.0,
            mbr.min.y - 9.0,
            mbr.max.x + 9.0,
            mbr.max.y + 9.0,
        ),
        Rect::from_coords(cx, mbr.max.y + 1.0, cx + 1.0, mbr.max.y + 2.0),
        Rect::from_coords(cx, mbr.min.y - 2.0, cx + 1.0, mbr.min.y - 1.0),
        Rect::from_coords(mbr.max.x + 1.0, cy, mbr.max.x + 2.0, cy + 1.0),
    ]);
    out
}

#[test]
fn strip_window_lists_each_meeting_edge_once() {
    let mut rng = StdRng::seed_from_u64(0x571B);
    // Random segment sets from one strip (fewer than 8 edges) to many.
    for (trial, n) in [1usize, 3, 7, 8, 40, 200, 900].into_iter().enumerate() {
        let edges = random_segments(&mut rng, n, 0.0, 100.0, 25.0);
        let loc = EdgeSetLocator::new(edges);
        for w in windows_around(&mut rng, loc.mbr()) {
            check_window(&loc, &w, &format!("random set {trial} ({n} edges)"));
        }
    }

    // 40 edges over y in [0, 100]: 10 strips of height 10. Vertical edges
    // spanning every strip, horizontal edges lying on strip borders, and
    // short edges ending on them.
    let mut edges = vec![seg(0.0, 0.0, 0.0, 100.0), seg(100.0, 100.0, 100.0, 0.0)];
    for k in 0..=10 {
        let y = 10.0 * f64::from(k);
        edges.push(seg(5.0 * f64::from(k), y, 5.0 * f64::from(k) + 20.0, y));
        if k > 0 {
            edges.push(seg(50.0, y - 3.0, 60.0, y));
        }
    }
    while edges.len() < 40 {
        let x = 10.0 + edges.len() as f64;
        edges.push(seg(x, 0.0, x + 1.0, 100.0));
    }
    let loc = EdgeSetLocator::new(edges);
    assert_eq!(*loc.mbr(), Rect::from_coords(0.0, 0.0, 100.0, 100.0));
    for w in windows_around(&mut rng, loc.mbr()) {
        check_window(&loc, &w, "strip borders");
    }
    for k in 0..=10 {
        let y = 10.0 * f64::from(k);
        check_window(
            &loc,
            &Rect::from_coords(0.0, y, 100.0, y),
            &format!("line y={y}"),
        );
        check_window(
            &loc,
            &Rect::from_coords(52.0, y, 53.0, y + 10.0),
            &format!("strip {k}"),
        );
    }

    // An empty locator, built and rebuilt, lists nothing.
    let mut empty = EdgeSetLocator::empty();
    check_window(&empty, &Rect::from_coords(0.0, 0.0, 1.0, 1.0), "empty");
    empty.rebuild(|_| {});
    check_window(
        &empty,
        &Rect::from_coords(0.0, 0.0, 1.0, 1.0),
        "rebuilt empty",
    );
    assert_eq!(EdgeSetLocator::new(Vec::new()).edges().len(), 0);

    // One-strip locators: a triangle and a single horizontal edge (a
    // locator of zero height).
    for edges in [
        vec![
            seg(0.0, 0.0, 4.0, 0.0),
            seg(4.0, 0.0, 2.0, 3.0),
            seg(2.0, 3.0, 0.0, 0.0),
        ],
        vec![seg(0.0, 5.0, 9.0, 5.0)],
    ] {
        let loc = EdgeSetLocator::new(edges);
        for w in windows_around(&mut rng, loc.mbr()) {
            check_window(&loc, &w, "one strip");
        }
    }
}

// ---------------------------------------------------------------------
// (e) The located sweep against `boundary_pairs` on the same edges.
// ---------------------------------------------------------------------

/// `located_boundary_pairs_into` over locators of `a` and `b` must return
/// `boundary_pairs(a, b, stop)` exactly, and leave the windowed edges of
/// both sides, and each hit's position in them, in the scratch.
fn check_located(a: &[Segment], b: &[Segment], scratch: &mut SweepScratch, what: &str) {
    let (la, lb) = (
        EdgeSetLocator::new(a.to_vec()),
        EdgeSetLocator::new(b.to_vec()),
    );
    let mut hits = Vec::new();
    for stop in [false, true] {
        located_boundary_pairs_into(&la, &lb, stop, scratch, &mut hits);
        assert_eq!(
            hits,
            boundary_pairs(a, b, stop),
            "{what}: stop_on_proper={stop}"
        );
        let mut plain = SweepScratch::default();
        boundary_pairs_into(a, b, stop, &mut plain, &mut Vec::new());
        assert_eq!(
            scratch.windowed(),
            plain.windowed(),
            "{what}: windowed edges"
        );
        assert_eq!(scratch.hit_positions(), plain.hit_positions(), "{what}");
        // Each hit's positions name its own two edges in the windowed lists.
        let (wa, wb) = scratch.windowed();
        assert_eq!(scratch.hit_positions().len(), hits.len(), "{what}");
        for (h, &(pa, pb)) in hits.iter().zip(scratch.hit_positions()) {
            assert_eq!(
                (wa[pa as usize].0, wb[pb as usize].0),
                (h.ia, h.ib),
                "{what}"
            );
        }
    }
}

#[test]
fn located_sweep_matches_boundary_pairs_on_random_segments() {
    let mut rng = StdRng::seed_from_u64(0x10C);
    let mut scratch = SweepScratch::default();
    for trial in 0..60 {
        let a = random_segments(&mut rng, 5 + 7 * trial, 0.0, 100.0, 20.0);
        let b = match trial % 4 {
            0 => random_segments(&mut rng, 10 + trial, 0.0, 100.0, 20.0),
            1 => random_segments(&mut rng, 8, 40.0, 15.0, 6.0),
            2 => random_segments(&mut rng, 25, 80.0, 60.0, 20.0),
            _ => random_segments(&mut rng, 3, 200.0, 5.0, 2.0),
        };
        check_located(&a, &b, &mut scratch, &format!("trial {trial}"));
        check_located(&b, &a, &mut scratch, &format!("trial {trial}, swapped"));
    }
    check_located(&[], &[seg(0.0, 0.0, 1.0, 1.0)], &mut scratch, "empty A");
}

#[test]
fn located_sweep_matches_boundary_pairs_on_adversarial_corpus() {
    let mut scratch = SweepScratch::default();
    let edges = |p: &Polygon| p.edges().collect::<Vec<_>>();
    for i in 0..110 {
        let pair = adversarial_pair(0x10CA, i);
        let (a, b) = (edges(&pair.a), edges(&pair.b));
        let what = format!("pair {i} ({})", pair.category);
        check_located(&a, &b, &mut scratch, &what);
        check_located(&b, &a, &mut scratch, &what);
        check_located(&a, &a, &mut scratch, &format!("{what}, self"));
    }
}

// ---------------------------------------------------------------------
// (f) `relate_with` against a reference with no locator, sweep or window.
// ---------------------------------------------------------------------

/// Parameter of `p` (on `e`) along `e`, on the dominant axis.
fn param(e: &Segment, p: Point) -> f64 {
    let (dx, dy) = (e.b.x - e.a.x, e.b.y - e.a.y);
    let t = if dx.abs() >= dy.abs() {
        (p.x - e.a.x) / dx
    } else {
        (p.y - e.a.y) / dy
    };
    t.clamp(0.0, 1.0)
}

/// Where `a`'s boundary lies against `b`: (meets interior, meets
/// exterior, meets boundary). Every edge of `a` is split at its hits with
/// every edge of `b`; a sub-edge inside a collinear overlap is on `b`'s
/// boundary, any other is located by its midpoint.
fn boundary_against(a: &Polygon, b: &Polygon) -> (bool, bool, bool) {
    let b_edges: Vec<Segment> = b.edges().collect();
    let (mut inside, mut outside, mut on) = (false, false, false);
    for e in a.edges() {
        let mut ts = vec![0.0, 1.0];
        let mut overlaps = Vec::new();
        for &f in &b_edges {
            match intersect_segments(e, f) {
                SegSegIntersection::None => {}
                SegSegIntersection::Proper(p) | SegSegIntersection::Touch(p) => {
                    ts.push(param(&e, p))
                }
                SegSegIntersection::CollinearOverlap(p, q) => {
                    let (tp, tq) = (param(&e, p), param(&e, q));
                    ts.extend([tp, tq]);
                    overlaps.push((tp.min(tq), tp.max(tq)));
                }
            }
        }
        ts.sort_by(|x, y| x.partial_cmp(y).unwrap());
        ts.dedup();
        for w in ts.windows(2) {
            let tm = (w[0] + w[1]) / 2.0;
            if overlaps.iter().any(|&(lo, hi)| lo <= tm && tm <= hi) {
                on = true;
                continue;
            }
            match b.locate(e.at(tm)) {
                Location::Inside => inside = true,
                Location::Outside => outside = true,
                Location::Boundary => on = true,
            }
        }
    }
    (inside, outside, on)
}

/// The DE-9IM matrix of `(a, b)` from all-pairs edge tests, sub-edge
/// midpoints and one interior point per polygon, all located with
/// `Polygon::locate`.
fn reference_matrix(a: &Polygon, b: &Polygon) -> De9Im {
    let mut touch = false;
    for ea in a.edges() {
        for eb in b.edges() {
            match intersect_segments(ea, eb) {
                SegSegIntersection::None => {}
                SegSegIntersection::Proper(_) => return De9Im::ALL_TRUE,
                _ => touch = true,
            }
        }
    }
    let (a_in, a_out, _) = boundary_against(a, b);
    let (b_in, b_out, _) = boundary_against(b, a);
    let rep_a = b.locate(interior_point(a));
    let rep_b = a.locate(interior_point(b));
    let mut m = De9Im::EMPTY;
    m.set(Part::Boundary, Part::Interior, a_in);
    m.set(Part::Boundary, Part::Exterior, a_out);
    m.set(Part::Interior, Part::Boundary, b_in);
    m.set(Part::Exterior, Part::Boundary, b_out);
    m.set(Part::Boundary, Part::Boundary, touch);
    m.set(Part::Exterior, Part::Exterior, true);
    let ii = a_in || b_in || rep_a == Location::Inside || rep_b == Location::Inside;
    m.set(Part::Interior, Part::Interior, ii);
    m.set(
        Part::Interior,
        Part::Exterior,
        a_out || b_in || rep_a == Location::Outside,
    );
    m.set(
        Part::Exterior,
        Part::Interior,
        b_out || a_in || rep_b == Location::Outside,
    );
    m
}

/// A `n`-vertex park whose boundary is an arc on the right of `x = 500`
/// closed by one vertical edge: that edge spans the park's full height,
/// so it sits in every strip of the park's locator.
fn chord_park(n: usize) -> Polygon {
    let mut rng = StdRng::seed_from_u64(0xC0D);
    let r = 300.0;
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            let th =
                -std::f64::consts::FRAC_PI_2 + std::f64::consts::PI * i as f64 / (n - 1) as f64;
            let x = if i == 0 || i == n - 1 {
                CENTER.x
            } else {
                CENTER.x + r * th.cos() * (0.7 + 0.3 * rng.gen::<f64>())
            };
            Point::new(x, CENTER.y + r * th.sin())
        })
        .collect();
    poly(&pts)
}

/// Buildings against `park`'s MBR sides that meet it only along a line:
/// touching the park's extreme vertex on that line, or off the park.
fn line_window_buildings(park: &Polygon) -> Vec<Polygon> {
    let v = park.outer().vertices();
    let mbr = park.mbr();
    let top = *v.iter().find(|p| p.y == mbr.max.y).unwrap();
    let right = *v.iter().find(|p| p.x == mbr.max.x).unwrap();
    let rect =
        |x0: f64, y0: f64, x1: f64, y1: f64| Polygon::rect(Rect::from_coords(x0, y0, x1, y1));
    vec![
        rect(top.x - 5.0, top.y, top.x + 5.0, top.y + 10.0),
        rect(top.x + 100.0, top.y, top.x + 120.0, top.y + 10.0),
        rect(right.x, right.y - 1.0, right.x + 2.0, right.y + 1.0),
        rect(right.x, right.y + 40.0, right.x + 2.0, right.y + 42.0),
    ]
}

/// Buildings on, across, inside and outside the chord of `chord_park`.
fn chord_buildings() -> Vec<Polygon> {
    let rect =
        |x0: f64, y0: f64, x1: f64, y1: f64| Polygon::rect(Rect::from_coords(x0, y0, x1, y1));
    let mut out = Vec::new();
    for y in [210.0, 400.0, 500.0, 777.0] {
        out.push(rect(495.0, y, 505.0, y + 10.0)); // across the chord
        out.push(rect(490.0, y, 500.0, y + 10.0)); // on it, from outside
        out.push(rect(500.0, y, 510.0, y + 10.0)); // on it, from inside
        out.push(rect(540.0, y, 550.0, y + 10.0)); // inside
        out.push(rect(450.0, y, 460.0, y + 10.0)); // outside
    }
    out.push(rect(490.0, 195.0, 510.0, 205.0)); // across the bottom corner
    out
}

#[test]
fn long_lived_scratch_matches_independent_reference() {
    let star = park(7, 1_200);
    let chord = chord_park(1_300);
    let mut cases: Vec<(&Polygon, Polygon)> = Vec::new();
    for b in buildings(&star)
        .into_iter()
        .chain(line_window_buildings(&star))
    {
        cases.push((&star, b));
    }
    for b in chord_buildings()
        .into_iter()
        .chain(line_window_buildings(&chord))
    {
        cases.push((&chord, b));
    }
    let refs: Vec<De9Im> = cases.iter().map(|(p, b)| reference_matrix(p, b)).collect();
    let mut scratch = RelateScratch::default();
    let mut seen = std::collections::BTreeSet::new();

    // Same-r, then same-s: the park stays in one slot.
    for ((p, b), m) in cases.iter().zip(&refs) {
        assert_eq!(relate_with(*p, b, &mut scratch), *m, "same-r {:?}", b.mbr());
        seen.insert(TopoRelation::most_specific(m));
    }
    for ((p, b), m) in cases.iter().zip(&refs) {
        assert_eq!(
            relate_with(b, *p, &mut scratch),
            m.transposed(),
            "same-s {:?}",
            b.mbr()
        );
    }
    // Alternating: every call brings the other park into the first slot.
    for i in 0..cases.len() {
        let k = if i % 2 == 0 { i } else { cases.len() - 1 - i };
        let (p, b) = &cases[k];
        assert_eq!(relate_with(*p, b, &mut scratch), refs[k], "alternating {k}");
    }
    // Swapped: the park moves between slots on every call.
    for ((p, b), m) in cases.iter().zip(&refs) {
        assert_eq!(relate_with(*p, b, &mut scratch), *m, "swapped, park first");
        assert_eq!(
            relate_with(b, *p, &mut scratch),
            m.transposed(),
            "swapped, park second"
        );
    }
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

#[test]
fn relate_with_matches_independent_reference_on_adversarial_corpus() {
    let mut scratch = RelateScratch::default();
    for i in 0..330 {
        let pair = adversarial_pair(0x5EF, i);
        let m = reference_matrix(&pair.a, &pair.b);
        let what = format!("pair {i} ({})", pair.category);
        assert_eq!(relate_with(&pair.a, &pair.b, &mut scratch), m, "{what}");
        assert_eq!(
            relate_with(&pair.b, &pair.a, &mut scratch),
            m.transposed(),
            "{what}, swapped"
        );
    }
}
