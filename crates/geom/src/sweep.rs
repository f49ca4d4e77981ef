//! Plane sweep over segment bounding boxes.
//!
//! Finding all intersections between two polygon boundaries is the hot
//! inner loop of DE-9IM refinement. A full Bentley–Ottmann sweep is
//! unnecessary: like the production geometry libraries the paper compares
//! against, we sweep segment *MBRs* along x with a forward scan (the same
//! technique the paper's filter step uses for object MBRs \[39\]) and run
//! the exact segment test only on box-overlapping pairs.
//!
//! The sweep is **windowed**: two closed edges can only meet at a point
//! inside both boundaries' MBRs, so only edges whose MBR meets the window
//! `mbr(A) ∩ mbr(B)` enter the sort and the scan. The dropped edges could
//! never emit a hit, and the kept ones are sorted by `(xmin, index)`, a
//! total order, so the hit list — contents *and* order, `stop_on_proper`
//! included — is the one the unwindowed sweep would produce.
//!
//! Two front ends feed one shared scan:
//!
//! - [`boundary_pairs`] / [`boundary_pairs_into`] take plain edge slices
//!   and filter them in one pass, `O(n + w log w + k)` for `n` edges in
//!   total, `w` of them in the window and `k` box-overlapping pairs;
//! - [`located_boundary_pairs_into`] takes two [`EdgeSetLocator`]s and
//!   asks their strip indexes for the window's edges
//!   ([`EdgeSetLocator::window_edges_into`]), so the cost is per window:
//!   the strips the window covers, plus `O(w log w + k)`. A tiny
//!   building against a 1,400-edge park visits the few park strips
//!   around the building and never the park's far edges.
//!
//! The sweep needs two sorted event lists plus the output hit list. On
//! the relate hot path these live in a caller-owned [`SweepScratch`] and
//! output vector, so a warmed scratch runs the sweep without allocating.
//! The scratch keeps the windowed lists after the sweep
//! ([`SweepScratch::windowed`]) and each hit's positions in them
//! ([`SweepScratch::hit_positions`]); DE-9IM classification walks the
//! windowed edges and groups their hits without touching the rest of
//! either boundary.

use crate::locator::EdgeSetLocator;
use crate::rect::Rect;
use crate::seg_intersect::{intersect_segments, SegSegIntersection};
use crate::segment::Segment;

/// An intersection found between edge `ia` of boundary A and edge `ib` of
/// boundary B.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgePairHit {
    /// Index into the A edge list handed to [`boundary_pairs`].
    pub ia: usize,
    /// Index into the B edge list handed to [`boundary_pairs`].
    pub ib: usize,
    /// How the two edges intersect.
    pub kind: SegSegIntersection,
}

/// An edge with its index in the edge list it came from.
pub type IndexedEdge = (usize, Segment);

/// Reusable event lists for the sweep. `clear()`-and-reuse: each sweep
/// empties the lists but keeps their capacity.
#[derive(Debug, Default)]
pub struct SweepScratch {
    a_sorted: Vec<IndexedEdge>,
    b_sorted: Vec<IndexedEdge>,
    /// Per hit, the positions of its two edges in the sorted lists.
    hit_pos: Vec<(u32, u32)>,
}

impl SweepScratch {
    /// The `(index, edge)` lists of A and B that entered the last sweep:
    /// every edge whose MBR meets the window, sorted by `(xmin, index)`.
    /// Both are complete even when `stop_on_proper` cut the scan short,
    /// and both are empty when the window was.
    pub fn windowed(&self) -> (&[IndexedEdge], &[IndexedEdge]) {
        (&self.a_sorted, &self.b_sorted)
    }

    /// For each hit of the last sweep, in hit order, the positions of its
    /// A and B edge in the [`windowed`](Self::windowed) lists: lets a
    /// caller group hits per windowed edge in `O(w + k)`, with no array
    /// the size of the whole boundary.
    pub fn hit_positions(&self) -> &[(u32, u32)] {
        &self.hit_pos
    }

    fn clear(&mut self) {
        self.a_sorted.clear();
        self.b_sorted.clear();
        self.hit_pos.clear();
    }
}

/// Reports every intersecting pair of edges between the two edge lists,
/// with its classification.
///
/// Set `stop_on_proper` to return early as soon as a proper crossing is
/// found — callers that only need to know "do the boundaries properly
/// cross?" (which decides the whole DE-9IM matrix) avoid the full scan.
pub fn boundary_pairs(
    a_edges: &[Segment],
    b_edges: &[Segment],
    stop_on_proper: bool,
) -> Vec<EdgePairHit> {
    let mut hits = Vec::new();
    boundary_pairs_into(
        a_edges,
        b_edges,
        stop_on_proper,
        &mut SweepScratch::default(),
        &mut hits,
    );
    hits
}

/// [`boundary_pairs`] into caller-owned buffers: `hits` is cleared and
/// filled, `scratch` holds the sweep's sorted event lists.
pub fn boundary_pairs_into(
    a_edges: &[Segment],
    b_edges: &[Segment],
    stop_on_proper: bool,
    scratch: &mut SweepScratch,
    hits: &mut Vec<EdgePairHit>,
) {
    hits.clear();
    scratch.clear();
    let mbr = |edges: &[Segment]| {
        let mut mbr = Rect::empty();
        for e in edges {
            mbr.grow_rect(&e.mbr());
        }
        mbr
    };
    let Some(window) = mbr(a_edges).intersection(&mbr(b_edges)) else {
        return;
    };
    let in_window = |&(_, s): &IndexedEdge| s.mbr().intersects(&window);
    {
        let _site = stj_obs::alloc::enter(stj_obs::AllocSite::SweepEvents);
        let windowed = |edges: &[Segment], out: &mut Vec<IndexedEdge>| {
            out.extend(edges.iter().copied().enumerate().filter(in_window));
        };
        windowed(a_edges, &mut scratch.a_sorted);
        windowed(b_edges, &mut scratch.b_sorted);
    }
    scan(scratch, stop_on_proper, hits);
}

/// [`boundary_pairs_into`] over the edges of two locators, with the window
/// answered by their strip indexes instead of a pass over every edge.
/// Returns the same `hits`, in the same order, as [`boundary_pairs_into`]
/// on `a.edges()` and `b.edges()`: both gather the same windowed edges
/// (the locator's MBR is the edges' MBR, grown in the same order) and the
/// scan sorts them into the same total order.
pub fn located_boundary_pairs_into(
    a: &EdgeSetLocator,
    b: &EdgeSetLocator,
    stop_on_proper: bool,
    scratch: &mut SweepScratch,
    hits: &mut Vec<EdgePairHit>,
) {
    hits.clear();
    scratch.clear();
    let Some(window) = a.mbr().intersection(b.mbr()) else {
        return;
    };
    {
        let _site = stj_obs::alloc::enter(stj_obs::AllocSite::SweepEvents);
        a.window_edges_into(&window, &mut scratch.a_sorted);
        b.window_edges_into(&window, &mut scratch.b_sorted);
    }
    scan(scratch, stop_on_proper, hits);
}

/// Sorts both windowed lists by `(xmin, index)` and reports every
/// intersecting pair between them: a forward scan over MBR x-ranges, with
/// the exact segment test on box-overlapping pairs.
fn scan(scratch: &mut SweepScratch, stop_on_proper: bool, hits: &mut Vec<EdgePairHit>) {
    let SweepScratch {
        a_sorted,
        b_sorted,
        hit_pos,
    } = scratch;
    let xmin = |s: &Segment| s.a.x.min(s.b.x);
    // Unstable sort with the original index as tie-break: reproduces the
    // stable order exactly without a stable sort's temp-buffer allocation,
    // and makes the order independent of the order edges were gathered in.
    let by_xmin = |l: &IndexedEdge, r: &IndexedEdge| {
        xmin(&l.1)
            .partial_cmp(&xmin(&r.1))
            .expect("finite")
            .then(l.0.cmp(&r.0))
    };
    a_sorted.sort_unstable_by(by_xmin);
    b_sorted.sort_unstable_by(by_xmin);

    // Growth of `hits` and `hit_pos` during the scan is the
    // intersection-list site.
    let _site = stj_obs::alloc::enter(stj_obs::AllocSite::IntersectionList);
    let mut i = 0;
    let mut j = 0;
    while i < a_sorted.len() && j < b_sorted.len() {
        let ax = xmin(&a_sorted[i].1);
        let bx = xmin(&b_sorted[j].1);
        if ax <= bx {
            // Scan forward in B while B's xmin is within A[i]'s x-range.
            let (ia, sa) = a_sorted[i];
            let a_mbr = sa.mbr();
            for (jb, &(ib, sb)) in (j..).zip(&b_sorted[j..]) {
                if xmin(&sb) > a_mbr.max.x {
                    break;
                }
                if a_mbr.intersects(&sb.mbr()) {
                    let kind = intersect_segments(sa, sb);
                    if kind.is_some() {
                        let proper = matches!(kind, SegSegIntersection::Proper(_));
                        hits.push(EdgePairHit { ia, ib, kind });
                        hit_pos.push((i as u32, jb as u32));
                        if proper && stop_on_proper {
                            return;
                        }
                    }
                }
            }
            i += 1;
        } else {
            // Symmetric: scan forward in A for B[j].
            let (ib, sb) = b_sorted[j];
            let b_mbr = sb.mbr();
            for (ja, &(ia, sa)) in (i..).zip(&a_sorted[i..]) {
                if xmin(&sa) > b_mbr.max.x {
                    break;
                }
                if b_mbr.intersects(&sa.mbr()) {
                    let kind = intersect_segments(sa, sb);
                    if kind.is_some() {
                        let proper = matches!(kind, SegSegIntersection::Proper(_));
                        hits.push(EdgePairHit { ia, ib, kind });
                        hit_pos.push((ja as u32, j as u32));
                        if proper && stop_on_proper {
                            return;
                        }
                    }
                }
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    /// Brute-force oracle.
    fn brute(a: &[Segment], b: &[Segment]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (ia, sa) in a.iter().enumerate() {
            for (ib, sb) in b.iter().enumerate() {
                if intersect_segments(*sa, *sb).is_some() {
                    out.push((ia, ib));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn sweep_pairs(a: &[Segment], b: &[Segment]) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = boundary_pairs(a, b, false)
            .into_iter()
            .map(|h| (h.ia, h.ib))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn simple_crossing_grid() {
        // Horizontal lines vs vertical lines: every pair crosses.
        let a: Vec<_> = (0..4).map(|i| seg(0.0, i as f64, 10.0, i as f64)).collect();
        let b: Vec<_> = (0..4)
            .map(|i| seg(i as f64 + 0.5, -1.0, i as f64 + 0.5, 11.0))
            .collect();
        let hits = sweep_pairs(&a, &b);
        assert_eq!(hits.len(), 16);
        assert_eq!(hits, brute(&a, &b));
    }

    #[test]
    fn no_intersections() {
        let a = vec![seg(0.0, 0.0, 1.0, 1.0), seg(2.0, 2.0, 3.0, 3.0)];
        let b = vec![seg(0.0, 5.0, 3.0, 5.0)];
        assert!(sweep_pairs(&a, &b).is_empty());
    }

    #[test]
    fn matches_bruteforce_on_random_segments() {
        let mut seed = 0xDEADBEEFu64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..20 {
            let mk = |rnd: &mut dyn FnMut() -> f64, n: usize| -> Vec<Segment> {
                (0..n)
                    .map(|_| {
                        let x = rnd() * 100.0;
                        let y = rnd() * 100.0;
                        seg(x, y, x + rnd() * 20.0 - 10.0, y + rnd() * 20.0 - 10.0)
                    })
                    .collect()
            };
            let a = mk(&mut rnd, 30);
            let b = mk(&mut rnd, 30);
            assert_eq!(sweep_pairs(&a, &b), brute(&a, &b), "trial {trial}");
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh() {
        // The same scratch driven over different-size inputs (grid, tiny,
        // empty) must reproduce the one-shot wrapper's hits exactly,
        // including order.
        let a: Vec<_> = (0..4).map(|i| seg(0.0, i as f64, 10.0, i as f64)).collect();
        let b: Vec<_> = (0..4)
            .map(|i| seg(i as f64 + 0.5, -1.0, i as f64 + 0.5, 11.0))
            .collect();
        let tiny = vec![seg(0.0, 0.0, 10.0, 0.0)];
        let none: Vec<Segment> = Vec::new();
        let mut scratch = SweepScratch::default();
        let mut hits = Vec::new();
        for (l, r) in [(&a, &b), (&tiny, &b), (&a, &none), (&a, &b)] {
            for stop in [false, true] {
                boundary_pairs_into(l, r, stop, &mut scratch, &mut hits);
                assert_eq!(hits, boundary_pairs(l, r, stop));
            }
        }
    }

    #[test]
    fn stop_on_proper_short_circuits() {
        let a: Vec<_> = (0..100)
            .map(|i| seg(0.0, i as f64, 10.0, i as f64))
            .collect();
        let b: Vec<_> = (0..100)
            .map(|i| seg(i as f64 * 0.1, -1.0, i as f64 * 0.1, 101.0))
            .collect();
        let hits = boundary_pairs(&a, &b, true);
        assert!(matches!(
            hits.last().unwrap().kind,
            SegSegIntersection::Proper(_)
        ));
        // Far fewer than the full 10k pairs.
        assert!(hits.len() < 10_000);
    }

    #[test]
    fn touch_classification_propagates() {
        let a = vec![seg(0.0, 0.0, 10.0, 0.0)];
        let b = vec![seg(5.0, 0.0, 5.0, 5.0)];
        let hits = boundary_pairs(&a, &b, false);
        assert_eq!(hits.len(), 1);
        assert_eq!(
            hits[0].kind,
            SegSegIntersection::Touch(Point::new(5.0, 0.0))
        );
    }
}
