//! Polygon rasterization into APRIL `P`/`C` interval lists.
//!
//! Enumerating every cell a large polygon covers is infeasible on a
//! `2^16 × 2^16` grid. Instead we descend the Hilbert *quadtree*: an
//! aligned `2^k × 2^k` block of cells corresponds to one contiguous
//! Hilbert id range, so a block classified as uniformly-interior is
//! emitted as a single interval of `4^k` cells without ever visiting
//! them. Only blocks that contain boundary edges are subdivided. Total
//! work is proportional to the boundary's cell footprint, not the
//! polygon's area.
//!
//! The edges meeting each block sit on one retained stack. While a block
//! still contains the boundary's whole MBR its children inherit the list
//! unfiltered (every edge lies inside them), and a child off both the
//! boundary's and the polygon's MBR is skipped outright; the contact test
//! itself is the separating-axis theorem (see `segment_intersects_rect`).
//!
//! **The block kernel.** The descent stops at blocks of `KERNEL_SIDE`
//! (16) cells a side that still hold boundary edges and classifies their
//! cells one by one, clipped to the polygon's MBR: each active edge walks
//! the cells it crosses row by row, marking them partial with the same
//! exact contact test; one left-to-right sweep per row over the row's
//! boundary crossings gives every other cell its center's parity; and a
//! state-table Hilbert encoder (one table lookup per cell,
//! `hilbert::HilbertBlock`) sets the cells in two bitmaps in curve
//! order, whose runs are the emitted ranges. Everything lands in a retained
//! [`RasterScratch`], so a worker rasterizing many objects allocates
//! nothing per object.
//!
//! *Cost model behind the side.* Below the kernel the descent would
//! spend, per level, one contact test per active edge and child (a
//! building of 8 edges and ~40 cells at order 12 made ~75 nodes and ~180
//! tests, ~13 µs); the kernel spends about one contact test per cell an
//! edge crosses plus a margin (~60 per such building, ~40 reaching the
//! orientation tests) and a few nanoseconds per cell of the block ∩ MBR
//! to sweep and encode. A larger block saves descent levels but sweeps
//! more cells the descent would have emitted as whole uniform ranges —
//! the cost for large objects, whose boundary blocks are mostly interior
//! or exterior. Measured on the benchmark's buildings and parks (order
//! 12, one thread, µs per object): side 8 — 4.5 / 145, side 16 — 3.7 /
//! 124, side 32 (encoded level by level) — 3.7 / 143; so 16, the fastest
//! on parks and level with 32 on buildings, with a 1 KiB offset table.
//!
//! Cell semantics (exact, decided with the robust kernel):
//!
//! - **partial** — the closed cell rectangle intersects the polygon
//!   boundary;
//! - **full** — no boundary contact and the cell center is interior, so
//!   the whole closed cell lies in the polygon's interior;
//! - **outside** — no boundary contact, center exterior.
//!
//! `P` = full cells, `C` = full ∪ partial cells. These definitions give
//! the conservative/progressive guarantees the intermediate filters rely
//! on: every `P` cell is wholly interior, every cell meeting the polygon
//! is in `C`. The descent and the kernel decide every cell by them, so
//! where a cell is decided does not change the lists.

use crate::april::{AprilApprox, AprilRef};
use crate::grid::Grid;
use crate::hilbert::{block_range, HilbertBlock, TABLE_LEVEL};
use crate::intervals::{normalize, IntervalList, IntervalsRef};
use std::ops::Range;
use stj_geom::predicates::{orient2d, Orientation};
use stj_geom::{Point, Polygon, Rect, Segment};

/// Quadtree level at and below which the descent hands a block with
/// boundary edges to the block kernel: blocks of `2^KERNEL_LEVEL` cells a
/// side. See the module docs for the cost model behind the value.
const KERNEL_LEVEL: u32 = 4;
/// Cells per side of a kernel block.
const KERNEL_SIDE: usize = 1 << KERNEL_LEVEL;
/// `u64` words of a kernel block's cell bitmap in curve order.
const KERNEL_WORDS: usize = (1usize << (2 * KERNEL_LEVEL)).div_ceil(64);
// One `u32` of partial-cell bits per kernel row, and one table lookup per
// cell for the curve offsets.
const _: () = assert!(KERNEL_SIDE <= 32 && KERNEL_LEVEL == TABLE_LEVEL);

/// Retained rasterization buffers: one per worker, reused across objects
/// so rasterizing allocates nothing once the buffers have grown (the
/// scratch idiom of `RelateScratch`).
#[derive(Debug, Default)]
pub struct RasterScratch {
    edges: Vec<Segment>,
    crossings: RowCrossings,
    /// Stack of active edge indices: each block's active edges are one
    /// range of it, and a child's filtered list is pushed on top and
    /// truncated away after the child is done.
    active: Vec<u32>,
    p: Vec<(u64, u64)>,
    c: Vec<(u64, u64)>,
}

impl RasterScratch {
    /// Rasterizes `poly` on `grid` and caps the lists at `max_intervals`
    /// intervals each: the approximation [`AprilApprox::build_capped`]
    /// returns, borrowed from this scratch until its next use.
    pub fn april(&mut self, poly: &Polygon, grid: &Grid, max_intervals: usize) -> AprilRef<'_> {
        self.rasterize(poly, grid);
        if self.c.len().max(self.p.len()) > max_intervals {
            let capped = AprilApprox {
                p: IntervalList::from_normalized(std::mem::take(&mut self.p)),
                c: IntervalList::from_normalized(std::mem::take(&mut self.c)),
            }
            .with_max_intervals(max_intervals);
            self.p = capped.p.into_intervals();
            self.c = capped.c.into_intervals();
        }
        AprilRef {
            p: IntervalsRef::new(&self.p),
            c: IntervalsRef::new(&self.c),
        }
    }

    /// The lists of the last [`RasterScratch::april`] call, by value.
    pub(crate) fn into_april(self) -> AprilApprox {
        AprilApprox {
            p: IntervalList::from_normalized(self.p),
            c: IntervalList::from_normalized(self.c),
        }
    }

    /// Fills `self.p` / `self.c` with the normalized `(P, C)` lists of
    /// `poly` on `grid`.
    fn rasterize(&mut self, poly: &Polygon, grid: &Grid) {
        self.edges.clear();
        self.edges.extend(poly.edges());
        self.crossings.rebuild(&self.edges, grid);
        let mut edges_mbr = Rect::empty();
        for e in &self.edges {
            edges_mbr.grow_rect(&e.mbr());
        }
        let n = self.edges.len();
        self.active.clear();
        self.active.extend(0..n as u32);
        self.p.clear();
        self.c.clear();
        let mut ctx = Ctx {
            grid,
            edges: &self.edges,
            edges_mbr,
            poly_mbr: *poly.mbr(),
            crossings: &self.crossings,
            active: &mut self.active,
            p: &mut self.p,
            c: &mut self.c,
        };
        descend(&mut ctx, 0, 0, grid.order(), 0..n);
        normalize(&mut self.p);
        normalize(&mut self.c);
    }
}

struct Ctx<'a> {
    grid: &'a Grid,
    edges: &'a [Segment],
    /// MBR of `edges` (every ring, holes included).
    edges_mbr: Rect,
    poly_mbr: Rect,
    crossings: &'a RowCrossings,
    active: &'a mut Vec<u32>,
    p: &'a mut Vec<(u64, u64)>,
    c: &'a mut Vec<(u64, u64)>,
}

/// Recursively classifies the aligned block at `(col0, row0)` with side
/// `2^level`; `ctx.active[active]` lists the indices of edges
/// intersecting the block.
fn descend(ctx: &mut Ctx<'_>, col0: u32, row0: u32, level: u32, active: Range<usize>) {
    if active.is_empty() {
        // Uniform block: no boundary inside it, so one parity query at the
        // block's center cell classifies every cell.
        let half = (1u32 << level) / 2;
        let (qc, qr) = (col0 + half.saturating_sub(1), row0 + half.saturating_sub(1));
        if !ctx
            .grid
            .block_rect(col0, row0, level)
            .intersects(&ctx.poly_mbr)
        {
            return; // cannot be interior
        }
        if ctx.crossings.is_inside(ctx.grid, qc, qr) {
            let r = block_range(ctx.grid.order(), col0, row0, level);
            ctx.p.push(r);
            ctx.c.push(r);
        }
        return;
    }
    if level <= KERNEL_LEVEL {
        kernel(ctx, col0, row0, level, active);
        return;
    }

    let half = 1u32 << (level - 1);
    let children = [
        (col0, row0),
        (col0 + half, row0),
        (col0, row0 + half),
        (col0 + half, row0 + half),
    ];
    for (cc, cr) in children {
        let rect = ctx.grid.block_rect(cc, cr, level - 1);
        if rect.contains_rect(&ctx.edges_mbr) {
            // Every edge lies inside the block, so every active edge
            // meets it: the filter would keep them all.
            descend(ctx, cc, cr, level - 1, active.clone());
            continue;
        }
        if !rect.intersects(&ctx.edges_mbr) && !rect.intersects(&ctx.poly_mbr) {
            // No edge meets the block and none of it can be interior:
            // the child would find no active edge and emit nothing.
            continue;
        }
        let start = ctx.active.len();
        for k in active.clone() {
            let ei = ctx.active[k];
            if segment_intersects_rect(&ctx.edges[ei as usize], &rect) {
                ctx.active.push(ei);
            }
        }
        let end = ctx.active.len();
        descend(ctx, cc, cr, level - 1, start..end);
        ctx.active.truncate(start);
    }
}

/// Classifies, cell by cell, the cells of the aligned block at
/// `(col0, row0)` with side `2^level <= KERNEL_SIDE` that the polygon can
/// reach, given the edges `ctx.active[active]` that meet the block.
///
/// 1. Each edge marks the cells it touches, row by row: the cells under
///    its x-span within the row, one cell of margin either side, each
///    decided by the same exact closed test as the descent
///    ([`segment_intersects_rect`]). The margins take in the neighbor
///    whose border the span ends on and any rounding in
///    `col_of`/`row_of` and in the span's interpolation.
/// 2. One left-to-right sweep per row over the row's boundary crossings
///    gives every other cell its center's even–odd parity.
/// 3. Cells are set in two bitmaps in curve order (one table lookup per
///    cell, [`HilbertBlock::offset`]), whose runs become the emitted
///    ranges.
fn kernel(ctx: &mut Ctx<'_>, col0: u32, row0: u32, level: u32, active: Range<usize>) {
    let g = ctx.grid;
    let last = (1u32 << level) - 1;
    // The block ∩ the polygon's reach, widened by a cell on each side: a
    // closed cell whose border the MBR starts on touches it, and
    // `col_of`/`row_of` may round across a border.
    let mut reach = ctx.edges_mbr;
    reach.grow_rect(&ctx.poly_mbr);
    let c_lo = g.col_of(reach.min.x).saturating_sub(1).max(col0);
    let c_hi = (g.col_of(reach.max.x) + 1).min(col0 + last);
    let r_lo = g.row_of(reach.min.y).saturating_sub(1).max(row0);
    let r_hi = (g.row_of(reach.max.y) + 1).min(row0 + last);
    if c_lo > c_hi || r_lo > r_hi {
        return;
    }

    // Partial cells: bit `col - col0` of `partial[row - row0]`.
    let mut partial = [0u32; KERNEL_SIDE];
    for k in active {
        let e = &ctx.edges[ctx.active[k] as usize];
        let er_lo = g.row_of(e.a.y.min(e.b.y)).saturating_sub(1).max(r_lo);
        let er_hi = (g.row_of(e.a.y.max(e.b.y)) + 1).min(r_hi);
        for r in er_lo..=er_hi {
            let y0 = g.extent().min.y + f64::from(r) * g.cell_height();
            let Some((x0, x1)) = x_span(e, y0, y0 + g.cell_height()) else {
                continue;
            };
            let ec_lo = g.col_of(x0).saturating_sub(1).max(c_lo);
            let ec_hi = (g.col_of(x1) + 1).min(c_hi);
            let bits = &mut partial[(r - row0) as usize];
            for c in ec_lo..=ec_hi {
                let bit = 1u32 << (c - col0);
                if *bits & bit == 0 && segment_intersects_rect(e, &g.cell_rect(c, r)) {
                    *bits |= bit;
                }
            }
        }
    }

    let hb = HilbertBlock::new(g.order(), col0, row0, level);
    let mut p_bits = [0u64; KERNEL_WORDS];
    let mut c_bits = [0u64; KERNEL_WORDS];
    for r in r_lo..=r_hi {
        let xs = ctx.crossings.row(r);
        let mut k = xs.partition_point(|&x| x < g.cell_center(c_lo, r).x);
        let row_partial = partial[(r - row0) as usize];
        for c in c_lo..=c_hi {
            let qx = g.cell_center(c, r).x;
            while k < xs.len() && xs[k] < qx {
                k += 1;
            }
            let is_partial = row_partial >> (c - col0) & 1 == 1;
            if is_partial || k % 2 == 1 {
                let off = hb.offset(c - col0, r - row0) as usize;
                let (w, bit) = (off / 64, 1u64 << (off % 64));
                c_bits[w] |= bit;
                if !is_partial {
                    p_bits[w] |= bit;
                }
            }
        }
    }
    push_runs(ctx.p, &p_bits, hb.base());
    push_runs(ctx.c, &c_bits, hb.base());
}

/// The x-extent of `e` within the horizontal slab `y0 ≤ y ≤ y1`, or
/// `None` when the edge misses the slab (decided exactly).
fn x_span(e: &Segment, y0: f64, y1: f64) -> Option<(f64, f64)> {
    let (a, b) = (e.a, e.b);
    if a.y.max(b.y) < y0 || a.y.min(b.y) > y1 {
        return None;
    }
    if a.y == b.y {
        return Some((a.x.min(b.x), a.x.max(b.x)));
    }
    let at = |y: f64| a.x + ((y - a.y) / (b.y - a.y)).clamp(0.0, 1.0) * (b.x - a.x);
    let (xa, xb) = (at(y0), at(y1));
    Some((xa.min(xb), xa.max(xb)))
}

/// Appends the runs of set bits of `bits` (bit `i` = cell id `base + i`)
/// to `out` as `[start, end)` ranges.
fn push_runs(out: &mut Vec<(u64, u64)>, bits: &[u64], base: u64) {
    for (i, &word) in bits.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let s = w.trailing_zeros();
            let len = (w >> s).trailing_ones();
            let start = base + (i as u64) * 64 + u64::from(s);
            match out.last_mut() {
                Some(last) if last.1 == start => last.1 += u64::from(len),
                _ => out.push((start, start + u64::from(len))),
            }
            w = if s + len >= 64 {
                0
            } else {
                w & (!0u64 << (s + len))
            };
        }
    }
}

/// Exact closed segment–rectangle intersection test.
///
/// Both shapes are closed and convex, so by the separating-axis theorem
/// they are disjoint iff their projections are disjoint on one of the
/// candidate axes: the rectangle's two edge normals (x and y) and the
/// segment's normal. The closed MBR test decides the x and y axes
/// exactly; the corner orientation test decides the segment's normal
/// exactly (all four corners strictly on one side of the segment's line
/// means disjoint projections). When neither separates, the shapes meet,
/// and no segment–rectangle-edge intersection test is needed.
fn segment_intersects_rect(seg: &Segment, rect: &Rect) -> bool {
    if !seg.mbr().intersects(rect) {
        return false;
    }
    if rect.contains_point(seg.a) || rect.contains_point(seg.b) {
        return true;
    }
    let corners = [
        rect.min,
        Point::new(rect.max.x, rect.min.y),
        rect.max,
        Point::new(rect.min.x, rect.max.y),
    ];
    let mut pos = false;
    let mut neg = false;
    for corner in corners {
        match orient2d(seg.a, seg.b, corner) {
            Orientation::CounterClockwise => pos = true,
            Orientation::Clockwise => neg = true,
            Orientation::Collinear => return true,
        }
        if pos && neg {
            return true;
        }
    }
    false
}

/// Per-cell-row boundary crossings, in CSR layout, for interior parity
/// queries at cell centers.
#[derive(Debug, Default)]
struct RowCrossings {
    row_lo: u32,
    /// `offsets[i]..offsets[i+1]` indexes `xs` for row `row_lo + i`.
    offsets: Vec<u32>,
    xs: Vec<f64>,
}

impl RowCrossings {
    /// Refills the table for `edges`, reusing its buffers.
    fn rebuild(&mut self, edges: &[Segment], grid: &Grid) {
        self.row_lo = 0;
        self.offsets.clear();
        self.xs.clear();
        if edges.is_empty() {
            self.offsets.push(0);
            return;
        }
        let mut ymin = f64::INFINITY;
        let mut ymax = f64::NEG_INFINITY;
        for e in edges {
            ymin = ymin.min(e.a.y.min(e.b.y));
            ymax = ymax.max(e.a.y.max(e.b.y));
        }
        let row_lo = grid.row_of(ymin);
        let row_hi = grid.row_of(ymax);
        let n_rows = (row_hi - row_lo + 1) as usize;
        self.row_lo = row_lo;

        // Pass 1: count crossings per row into `offsets[row + 1]`, then
        // turn the counts into row starts in place.
        self.offsets.resize(n_rows + 1, 0);
        for e in edges {
            let (r0, r1) = edge_row_span(e, grid, row_lo, row_hi);
            for r in r0..=r1 {
                let yc = grid.row_center_y(r);
                if (e.a.y > yc) != (e.b.y > yc) {
                    self.offsets[(r - row_lo) as usize + 1] += 1;
                }
            }
        }
        let mut start = 0;
        for o in &mut self.offsets[1..] {
            let count = *o;
            *o = start;
            start += count;
        }
        self.xs.resize(start as usize, 0.0);

        // Pass 2: fill, advancing `offsets[row + 1]` from the row's start
        // to its end.
        for e in edges {
            let (r0, r1) = edge_row_span(e, grid, row_lo, row_hi);
            for r in r0..=r1 {
                let yc = grid.row_center_y(r);
                if (e.a.y > yc) != (e.b.y > yc) {
                    let t = (yc - e.a.y) / (e.b.y - e.a.y);
                    let x = e.a.x + t * (e.b.x - e.a.x);
                    let slot = &mut self.offsets[(r - row_lo) as usize + 1];
                    self.xs[*slot as usize] = x;
                    *slot += 1;
                }
            }
        }

        // Sort each row's crossings.
        for i in 0..n_rows {
            self.xs[self.offsets[i] as usize..self.offsets[i + 1] as usize]
                .sort_by(|a, b| a.partial_cmp(b).expect("finite crossing"));
        }
    }

    /// The sorted crossings of cell row `row` (empty off the boundary's
    /// rows).
    fn row(&self, row: u32) -> &[f64] {
        let Some(i) = row.checked_sub(self.row_lo) else {
            return &[];
        };
        let i = i as usize;
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.xs[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Even–odd parity of cell `(col, row)`'s center against the boundary
    /// (valid only when no boundary passes through the cell).
    fn is_inside(&self, grid: &Grid, col: u32, row: u32) -> bool {
        let qx = grid.cell_center(col, row).x;
        self.row(row).partition_point(|&x| x < qx) % 2 == 1
    }
}

/// Rows of the grid whose center line the edge's y-extent reaches,
/// clamped to the boundary's row span.
fn edge_row_span(e: &Segment, grid: &Grid, row_lo: u32, row_hi: u32) -> (u32, u32) {
    let ymin = e.a.y.min(e.b.y);
    let ymax = e.a.y.max(e.b.y);
    // Center of row r is extent.min.y + (r + 0.5) * cell_h; the first row
    // whose center >= ymin and the last whose center <= ymax.
    let y0 = grid.extent().min.y;
    let h = grid.cell_height();
    let r0 = ((ymin - y0) / h - 0.5).ceil().max(0.0) as i64;
    let r1 = ((ymax - y0) / h - 0.5).floor().max(-1.0) as i64;
    let r0 = (r0.clamp(0, i64::from(grid.side() - 1)) as u32).clamp(row_lo, row_hi);
    if r1 < r0 as i64 {
        // Edge spans no row center; return an empty-ish span handled by
        // the caller loop bounds (r0..=r1 with r1 < r0 iterates nothing —
        // but u32 reverse ranges would iterate; signal emptiness by a
        // (1, 0)-style span clamped below).
        return (1, 0);
    }
    let r1 = (r1.clamp(0, i64::from(grid.side() - 1)) as u32).clamp(row_lo, row_hi);
    (r0, r1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rasterize(poly: &Polygon, g: &Grid) -> (IntervalList, IntervalList) {
        let a = AprilApprox::build(poly, g);
        (a.p, a.c)
    }

    fn grid(order: u32, size: f64) -> Grid {
        Grid::new(Rect::from_coords(0.0, 0.0, size, size), order)
    }

    /// Brute-force oracle on small grids: exact per-cell classification.
    fn oracle(poly: &Polygon, g: &Grid) -> (Vec<u64>, Vec<u64>) {
        use stj_geom::polygon::Location;
        let mut p_cells = Vec::new();
        let mut c_cells = Vec::new();
        let edges: Vec<Segment> = poly.edges().collect();
        for col in 0..g.side() {
            for row in 0..g.side() {
                let rect = g.cell_rect(col, row);
                let touched = edges.iter().any(|e| segment_intersects_rect(e, &rect));
                let d = crate::hilbert::xy_to_d(g.order(), col, row);
                if touched {
                    c_cells.push(d);
                } else if poly.locate(g.cell_center(col, row)) == Location::Inside {
                    p_cells.push(d);
                    c_cells.push(d);
                }
            }
        }
        p_cells.sort_unstable();
        c_cells.sort_unstable();
        (p_cells, c_cells)
    }

    fn check_against_oracle(poly: &Polygon, g: &Grid) {
        let (p, c) = rasterize(poly, g);
        let (po, co) = oracle(poly, g);
        assert_eq!(
            p.iter_cells().collect::<Vec<_>>(),
            po,
            "P mismatch for {:?}",
            poly.mbr()
        );
        assert_eq!(
            c.iter_cells().collect::<Vec<_>>(),
            co,
            "C mismatch for {:?}",
            poly.mbr()
        );
        // Structural invariants.
        assert!(p.inside(&c), "P must be a subset of C");
    }

    #[test]
    fn axis_aligned_square() {
        // Grid 8x8 over [0,8]^2, polygon [2,6]^2: boundary lies exactly on
        // cell borders.
        let g = grid(3, 8.0);
        let poly = Polygon::rect(Rect::from_coords(2.0, 2.0, 6.0, 6.0));
        check_against_oracle(&poly, &g);
        let (p, c) = rasterize(&poly, &g);
        // Full cells: strictly interior cells only (the 2x2 core at
        // [3,5]^2... boundary on borders of cells (2..6)x(2..6) rings).
        assert_eq!(p.num_cells(), 4);
        assert!(c.num_cells() >= 16);
    }

    #[test]
    fn off_grid_square() {
        let g = grid(3, 8.0);
        let poly = Polygon::rect(Rect::from_coords(1.5, 1.5, 6.5, 6.5));
        check_against_oracle(&poly, &g);
        let (p, c) = rasterize(&poly, &g);
        // Interior 2..6 cells are full (no boundary), ring at 1 and 6 partial.
        assert_eq!(p.num_cells(), 16);
        assert_eq!(c.num_cells(), 36);
    }

    #[test]
    fn triangle_matches_oracle() {
        let g = grid(4, 16.0);
        let poly =
            Polygon::from_coords(vec![(1.0, 1.0), (14.5, 2.5), (7.3, 13.9)], vec![]).unwrap();
        check_against_oracle(&poly, &g);
    }

    #[test]
    fn polygon_with_hole_matches_oracle() {
        let g = grid(4, 16.0);
        let poly = Polygon::from_coords(
            vec![(1.0, 1.0), (15.0, 1.0), (15.0, 15.0), (1.0, 15.0)],
            vec![vec![(5.0, 5.0), (11.0, 5.0), (11.0, 11.0), (5.0, 11.0)]],
        )
        .unwrap();
        check_against_oracle(&poly, &g);
        let (p, c) = rasterize(&poly, &g);
        // Hole interior cells are neither P nor C.
        let d_hole = crate::hilbert::xy_to_d(4, 8, 8);
        assert!(!c.contains_cell(d_hole));
        assert!(!p.contains_cell(d_hole));
    }

    #[test]
    fn tiny_polygon_single_cell() {
        let g = grid(4, 16.0);
        let poly = Polygon::from_coords(vec![(3.2, 3.2), (3.6, 3.2), (3.4, 3.7)], vec![]).unwrap();
        check_against_oracle(&poly, &g);
        let (p, c) = rasterize(&poly, &g);
        assert_eq!(p.num_cells(), 0, "sub-cell polygons have empty P");
        assert_eq!(c.num_cells(), 1);
    }

    #[test]
    fn concave_polygon_matches_oracle() {
        let g = grid(4, 16.0);
        let poly = Polygon::from_coords(
            vec![
                (1.0, 1.0),
                (15.0, 1.0),
                (15.0, 5.0),
                (5.0, 5.0),
                (5.0, 9.0),
                (15.0, 9.0),
                (15.0, 15.0),
                (1.0, 15.0),
            ],
            vec![],
        )
        .unwrap();
        check_against_oracle(&poly, &g);
    }

    #[test]
    fn random_star_polygons_match_oracle() {
        let mut seed = 0xABCDu64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..10 {
            let n = 6 + (rnd() * 20.0) as usize;
            let cx = 6.0 + rnd() * 4.0;
            let cy = 6.0 + rnd() * 4.0;
            let mut pts = Vec::with_capacity(n);
            for i in 0..n {
                let ang = (i as f64 / n as f64) * std::f64::consts::TAU;
                let r = 1.0 + rnd() * 5.0;
                pts.push((cx + r * ang.cos(), cy + r * ang.sin()));
            }
            let poly = Polygon::from_coords(pts, vec![]).unwrap();
            let g = grid(4, 16.0);
            check_against_oracle(&poly, &g);
            let _ = trial;
        }
    }

    #[test]
    fn full_grid_polygon() {
        // Polygon covering the whole grid: C covers everything, P is the
        // interior block.
        let g = grid(3, 8.0);
        let poly = Polygon::rect(Rect::from_coords(0.0, 0.0, 8.0, 8.0));
        check_against_oracle(&poly, &g);
        let (_, c) = rasterize(&poly, &g);
        assert_eq!(c.num_cells(), 64);
    }

    #[test]
    fn segment_rect_intersection_cases() {
        let r = Rect::from_coords(2.0, 2.0, 4.0, 4.0);
        let seg = |ax: f64, ay: f64, bx: f64, by: f64| {
            Segment::new(Point::new(ax, ay), Point::new(bx, by))
        };
        // Crossing through.
        assert!(segment_intersects_rect(&seg(0.0, 3.0, 6.0, 3.0), &r));
        // Endpoint inside.
        assert!(segment_intersects_rect(&seg(3.0, 3.0, 9.0, 9.0), &r));
        // Touching a corner.
        assert!(segment_intersects_rect(&seg(0.0, 4.0, 2.0, 2.0), &r)); // passes through? line x+y=4 touches corner (2,2)? 2+2=4 yes
                                                                        // Missing entirely.
        assert!(!segment_intersects_rect(&seg(0.0, 0.0, 1.0, 1.0), &r));
        // Bbox overlaps but segment passes outside the corner.
        assert!(!segment_intersects_rect(&seg(0.0, 3.9, 2.1, 6.0), &r));
        // Collinear with an edge.
        assert!(segment_intersects_rect(&seg(1.0, 2.0, 5.0, 2.0), &r));
    }

    #[test]
    fn larger_grid_consistency() {
        // Same polygon at higher order: P grows toward the true area,
        // C shrinks toward it; both stay sound w.r.t. each other.
        let poly = Polygon::from_coords(
            vec![(1.0, 1.0), (14.0, 3.0), (12.0, 14.0), (3.0, 12.0)],
            vec![],
        )
        .unwrap();
        let mut last_p = 0.0;
        let mut last_c = f64::INFINITY;
        for order in [3u32, 4, 5, 6] {
            let g = grid(order, 16.0);
            let (p, c) = rasterize(&poly, &g);
            let cell_area = g.cell_width() * g.cell_height();
            let p_area = p.num_cells() as f64 * cell_area;
            let c_area = c.num_cells() as f64 * cell_area;
            let area = poly.area();
            assert!(p_area <= area + 1e-9, "order {order}: P exceeds area");
            assert!(c_area >= area - 1e-9, "order {order}: C undershoots area");
            assert!(p_area >= last_p - 1e-9);
            assert!(c_area <= last_c + 1e-9);
            last_p = p_area;
            last_c = c_area;
        }
    }
}
