//! Hilbert curve encoding for grid cells.
//!
//! APRIL (and Raster Intervals before it) enumerate grid cells along a
//! Hilbert space-filling curve so that spatially clustered cells form few,
//! long runs of consecutive ids — exactly what makes interval lists a
//! compact object approximation. A further property this crate's
//! rasterizer exploits: every quadtree-aligned `2^k × 2^k` block of cells
//! maps to one *contiguous* id range of length `4^k`.

/// Maximum supported curve order (grid of `2^16 × 2^16` cells, the
/// granularity used throughout the paper's experiments). Cell ids then
/// span `[0, 2^32)` and fit in a `u32`; this crate uses `u64` ids so that
/// exclusive interval ends cannot overflow.
pub const MAX_ORDER: u32 = 16;

/// Converts cell coordinates `(x, y)` to the Hilbert distance for a curve
/// of the given `order` (grid side `2^order`).
///
/// # Panics
/// Debug-panics if `order > MAX_ORDER` or a coordinate is out of range.
pub fn xy_to_d(order: u32, mut x: u32, mut y: u32) -> u64 {
    debug_assert!(order <= MAX_ORDER);
    debug_assert!(x < (1 << order) && y < (1 << order));
    let mut d: u64 = 0;
    let mut s: u32 = 1 << (order - 1);
    while s > 0 {
        let rx = u32::from(x & s > 0);
        let ry = u32::from(y & s > 0);
        d += (s as u64) * (s as u64) * u64::from((3 * rx) ^ ry);
        rotate(s, &mut x, &mut y, rx, ry);
        s /= 2;
    }
    d
}

/// Converts a Hilbert distance back to cell coordinates for a curve of
/// the given `order`.
pub fn d_to_xy(order: u32, d: u64) -> (u32, u32) {
    debug_assert!(order <= MAX_ORDER);
    debug_assert!(d < 1u64 << (2 * order));
    let mut t = d;
    let (mut x, mut y) = (0u32, 0u32);
    let mut s: u32 = 1;
    while s < (1 << order) {
        let rx = (1 & (t / 2)) as u32;
        let ry = (1 & (t ^ u64::from(rx))) as u32;
        rotate(s, &mut x, &mut y, rx, ry);
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x, y)
}

/// Rotates/reflects a quadrant as required by the Hilbert recursion.
#[inline]
fn rotate(s: u32, x: &mut u32, y: &mut u32, rx: u32, ry: u32) {
    if ry == 0 {
        if rx == 1 {
            *x = s.wrapping_sub(1).wrapping_sub(*x);
            *y = s.wrapping_sub(1).wrapping_sub(*y);
        }
        std::mem::swap(x, y);
    }
}

/// Transition table of the Hilbert curve as a state machine, indexed by
/// `state << 2 | bx << 1 | by` for the next bits `(bx, by)` of `x` and
/// `y`: low two bits the quadrant digit, high two bits the next state.
///
/// A state is the transform [`xy_to_d`]'s `rotate` has applied so far to
/// the remaining low bits: bit 0 swaps `x` and `y`, bit 1 complements
/// both (the two commute). Stepping through it yields the same digits as
/// `xy_to_d` without a branch per level.
const STATE_TABLE: [u8; 16] = {
    let mut t = [0u8; 16];
    let mut i = 0;
    while i < 16 {
        let (state, bx, by) = (i >> 2, (i >> 1) & 1, i & 1);
        let flip = (state >> 1) as u8;
        let (mut rx, mut ry) = if state & 1 == 1 { (by, bx) } else { (bx, by) };
        rx ^= flip as usize;
        ry ^= flip as usize;
        let mut next = state;
        if ry == 0 {
            next ^= 1;
            if rx == 1 {
                next ^= 2;
            }
        }
        t[i] = (((3 * rx) ^ ry) | next << 2) as u8;
        i += 1;
    }
    t
};

/// Level of the blocks whose cell offsets [`HilbertBlock::offset`] reads
/// from [`OFFSET_TABLE`]: the rasterizer's kernel blocks.
pub(crate) const TABLE_LEVEL: u32 = 4;

/// Steps the [`STATE_TABLE`] machine from `state` through bit levels
/// `hi - 1` down to `lo` of `(x, y)`: the digits those levels contribute,
/// and the state after them.
const fn walk(mut state: usize, x: u32, y: u32, lo: u32, hi: u32) -> (u64, usize) {
    let mut d = 0u64;
    let mut i = hi;
    while i > lo {
        i -= 1;
        let q = (((x >> i) & 1) << 1 | ((y >> i) & 1)) as usize;
        let e = STATE_TABLE[state << 2 | q] as usize;
        d = d << 2 | (e & 3) as u64;
        state = e >> 2;
    }
    (d, state)
}

/// `OFFSET_TABLE[state][dy << TABLE_LEVEL | dx]`: the offset of cell
/// `(dx, dy)` within a level-[`TABLE_LEVEL`] block entered in `state`.
static OFFSET_TABLE: [[u8; 1 << (2 * TABLE_LEVEL)]; 4] = {
    let side = 1 << TABLE_LEVEL;
    let mut t = [[0u8; 1 << (2 * TABLE_LEVEL)]; 4];
    let mut entry = 0;
    while entry < 4 {
        let mut i = 0;
        while i < side * side {
            let (dx, dy) = ((i % side) as u32, (i / side) as u32);
            t[entry][i] = walk(entry, dx, dy, 0, TABLE_LEVEL).0 as u8;
            i += 1;
        }
        entry += 1;
    }
    t
};

/// A Hilbert-curve encoder positioned at an aligned block: the id of the
/// block's first cell and the curve's state on entering it. Ids of the
/// block's cells are then `base() + offset(dx, dy)`: `level` table steps
/// per cell instead of `order`, and one table lookup for a level-4
/// block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct HilbertBlock {
    base: u64,
    state: u8,
    level: u32,
}

impl HilbertBlock {
    /// The block with lower-left cell `(x0, y0)` and side `2^level` on a
    /// curve of `order` (`(x0, y0)` aligned to the side, as for
    /// [`block_range`]).
    pub(crate) fn new(order: u32, x0: u32, y0: u32, level: u32) -> HilbertBlock {
        debug_assert!(level <= order && order <= MAX_ORDER);
        let (d, state) = walk(0, x0, y0, level, order);
        HilbertBlock {
            base: d << (2 * level),
            state: state as u8,
            level,
        }
    }

    /// The id of the block's first cell on the curve.
    #[inline]
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// The offset within the block of the cell `(dx, dy)` cells from its
    /// lower-left corner: the cell's id is `base() + offset(dx, dy)`.
    #[inline]
    pub(crate) fn offset(&self, dx: u32, dy: u32) -> u64 {
        if self.level == TABLE_LEVEL {
            let table = &OFFSET_TABLE[usize::from(self.state)];
            return u64::from(table[(dy << TABLE_LEVEL | dx) as usize]);
        }
        walk(usize::from(self.state), dx, dy, 0, self.level).0
    }
}

/// The contiguous Hilbert id range `[start, end)` covered by the aligned
/// block whose lower-left cell is `(x0, y0)` and whose side is
/// `2^level` cells.
///
/// `(x0, y0)` must be aligned to the block size. Alignment guarantees the
/// block equals one node of the Hilbert quadtree, hence a contiguous
/// range of length `4^level`.
pub fn block_range(order: u32, x0: u32, y0: u32, level: u32) -> (u64, u64) {
    debug_assert!(level <= order);
    let side: u32 = 1 << level;
    debug_assert!(
        x0.is_multiple_of(side) && y0.is_multiple_of(side),
        "block must be quadtree-aligned"
    );
    let cells = 1u64 << (2 * level);
    let d = xy_to_d(order, x0, y0);
    let start = d & !(cells - 1);
    (start, start + cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_small_orders() {
        for order in 1..=6u32 {
            let side = 1u32 << order;
            for x in 0..side {
                for y in 0..side {
                    let d = xy_to_d(order, x, y);
                    assert_eq!(d_to_xy(order, d), (x, y), "order {order} ({x},{y})");
                }
            }
        }
    }

    #[test]
    fn bijective_order2() {
        // All 16 ids hit exactly once.
        let mut seen = [false; 16];
        for x in 0..4 {
            for y in 0..4 {
                let d = xy_to_d(2, x, y) as usize;
                assert!(!seen[d]);
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn curve_is_continuous() {
        // Consecutive ids map to 4-adjacent cells — the defining Hilbert
        // property.
        for order in [3u32, 5, 8] {
            let n = 1u64 << (2 * order);
            let (mut px, mut py) = d_to_xy(order, 0);
            for d in 1..n.min(1 << 12) {
                let (x, y) = d_to_xy(order, d);
                let dist = x.abs_diff(px) + y.abs_diff(py);
                assert_eq!(dist, 1, "order {order} step {d}");
                (px, py) = (x, y);
            }
        }
    }

    #[test]
    fn known_order1_layout() {
        // Order 1: the curve visits (0,0), (0,1), (1,1), (1,0).
        assert_eq!(xy_to_d(1, 0, 0), 0);
        assert_eq!(xy_to_d(1, 0, 1), 1);
        assert_eq!(xy_to_d(1, 1, 1), 2);
        assert_eq!(xy_to_d(1, 1, 0), 3);
    }

    #[test]
    fn roundtrip_max_order_samples() {
        let order = MAX_ORDER;
        let side = 1u64 << order;
        let mut seed = 12345u64;
        for _ in 0..1000 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (seed >> 16) as u32 & (side as u32 - 1);
            let y = (seed >> 40) as u32 & (side as u32 - 1);
            let d = xy_to_d(order, x, y);
            assert!(d < side * side);
            assert_eq!(d_to_xy(order, d), (x, y));
        }
    }

    #[test]
    fn block_ranges_tile_the_curve() {
        // At order 4, level-2 blocks partition the 256 ids into 16
        // contiguous ranges of 16.
        let order = 4;
        let mut covered = vec![false; 256];
        for bx in 0..4u32 {
            for by in 0..4u32 {
                let (s, e) = block_range(order, bx * 4, by * 4, 2);
                assert_eq!(e - s, 16);
                for d in s..e {
                    let (x, y) = d_to_xy(order, d);
                    assert!(x / 4 == bx && y / 4 == by, "id {d} escapes block");
                    assert!(!covered[d as usize]);
                    covered[d as usize] = true;
                }
            }
        }
        assert!(covered.iter().all(|&b| b));
    }

    #[test]
    fn block_range_level0_is_single_cell() {
        let (s, e) = block_range(8, 13, 77, 0);
        assert_eq!(e - s, 1);
        assert_eq!(s, xy_to_d(8, 13, 77));
    }

    #[test]
    fn state_table_encoder_equals_xy_to_d() {
        // Exhaustively for small orders, at every block level: the block's
        // base plus the cell's offset is the cell's id.
        for order in 1..=7u32 {
            let side = 1u32 << order;
            for x in 0..side {
                for y in 0..side {
                    let d = xy_to_d(order, x, y);
                    for level in 0..=order.min(4) {
                        let mask = (1u32 << level) - 1;
                        let b = HilbertBlock::new(order, x & !mask, y & !mask, level);
                        assert_eq!(b.base() + b.offset(x & mask, y & mask), d);
                        assert_eq!(b.base(), block_range(order, x & !mask, y & !mask, level).0);
                    }
                }
            }
        }
        // Random cells of the finest curve.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..1_000_000 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let (x, y) = (seed as u32 & 0xFFFF, (seed >> 32) as u32 & 0xFFFF);
            let level = (seed >> 60) as u32 % 5;
            let mask = (1u32 << level) - 1;
            let b = HilbertBlock::new(MAX_ORDER, x & !mask, y & !mask, level);
            assert_eq!(
                b.base() + b.offset(x & mask, y & mask),
                xy_to_d(MAX_ORDER, x, y)
            );
        }
    }

    #[test]
    fn block_range_full_grid() {
        let (s, e) = block_range(5, 0, 0, 5);
        assert_eq!((s, e), (0, 1 << 10));
    }
}
