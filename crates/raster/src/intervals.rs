//! Sorted interval lists over Hilbert cell ids and the four list
//! relations of Sec 3.2.
//!
//! An [`IntervalList`] is a normalized sequence of half-open `[start,
//! end)` ranges: sorted, pairwise disjoint and non-adjacent (adjacent
//! runs are merged). Normalization is what makes each of the paper's four
//! relations a single linear merge-join:
//!
//! - **overlap** — some cell id belongs to both lists;
//! - **match** — the lists denote identical cell sets;
//! - **inside** — every interval of `X` is contained in one interval of
//!   `Y` (⇔ cell-set inclusion, thanks to normalization);
//! - **contains** — the converse of inside.
//!
//! The relations are implemented over bare `&[(u64, u64)]` slices
//! ([`ivs_overlaps`], [`ivs_matches`], [`ivs_inside`], [`ivs_contains`])
//! so an owned [`IntervalList`] and a borrowed span of a columnar
//! interval pool ([`IntervalsRef`]) share one code path.

/// Length ratio beyond which the list relations switch from merge-join
/// to per-interval binary search over the longer list.
const GALLOP_FACTOR: usize = 16;

/// `X, Y overlap` over normalized slices: the lists share at least one
/// cell id.
///
/// Single-pass merge-join, `O(|X| + |Y|)`; when one list is much shorter
/// it switches to per-interval binary search, `O(|X| log |Y|)` — the
/// common case when a tiny object (building) is checked against a huge
/// one (park, county).
pub fn ivs_overlaps(a: &[(u64, u64)], b: &[(u64, u64)]) -> bool {
    if a.len() * GALLOP_FACTOR < b.len() {
        return overlaps_gallop(a, b);
    }
    if b.len() * GALLOP_FACTOR < a.len() {
        return overlaps_gallop(b, a);
    }
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (s1, e1) = a[i];
        let (s2, e2) = b[j];
        if s1 < e2 && s2 < e1 {
            return true;
        }
        if e1 <= e2 {
            i += 1;
        } else {
            j += 1;
        }
    }
    false
}

/// Overlap via binary search: `small` must be the (much) shorter list.
fn overlaps_gallop(small: &[(u64, u64)], big: &[(u64, u64)]) -> bool {
    for &(s, e) in small {
        // First interval of `big` ending after `s` is the only one that
        // can overlap `[s, e)` from the left.
        let idx = big.partition_point(|&(_, be)| be <= s);
        if idx < big.len() && big[idx].0 < e {
            return true;
        }
    }
    false
}

/// `X, Y match` over normalized slices: identical interval sequences
/// (⇔ identical cell sets, thanks to normalization).
#[inline]
pub fn ivs_matches(a: &[(u64, u64)], b: &[(u64, u64)]) -> bool {
    a == b
}

/// `X inside Y` over normalized slices: every interval of `a` is
/// contained in one interval of `b` (⇔ cell-set inclusion).
///
/// Single-pass merge-join, `O(|X| + |Y|)`, switching to binary search
/// (`O(|X| log |Y|)`) when `b` is much longer.
pub fn ivs_inside(a: &[(u64, u64)], b: &[(u64, u64)]) -> bool {
    if a.len() * GALLOP_FACTOR < b.len() {
        return a.iter().all(|&(s, e)| {
            // The first Y interval ending at or after `e` is the only
            // candidate container.
            let idx = b.partition_point(|&(_, ye)| ye < e);
            idx < b.len() && b[idx].0 <= s
        });
    }
    let mut j = 0;
    'outer: for &(s, e) in a {
        while j < b.len() {
            let (ys, ye) = b[j];
            if ye < e {
                // This Y interval ends before X's does; X can only be
                // covered by a later Y interval (Y intervals are
                // disjoint and sorted).
                j += 1;
                continue;
            }
            if ys <= s {
                continue 'outer; // covered by b[j]
            }
            return false; // the first Y interval reaching e starts too late
        }
        return false;
    }
    true
}

/// `X contains Y` over normalized slices: the converse of [`ivs_inside`].
#[inline]
pub fn ivs_contains(a: &[(u64, u64)], b: &[(u64, u64)]) -> bool {
    ivs_inside(b, a)
}

/// A borrowed, `Copy`-able view of a normalized interval list — a span of
/// a columnar interval pool, or a whole [`IntervalList`] via
/// [`IntervalList::as_ref`]. Supports the same four relations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntervalsRef<'a> {
    ivs: &'a [(u64, u64)],
}

impl<'a> IntervalsRef<'a> {
    /// Wraps a normalized slice (sorted, disjoint, non-adjacent, each
    /// `end > start`). Normalization is the caller's invariant — arena
    /// construction and the v2 loader validate it once per dataset.
    #[inline]
    pub fn new(ivs: &'a [(u64, u64)]) -> Self {
        IntervalsRef { ivs }
    }

    /// The underlying intervals.
    #[inline]
    pub fn intervals(self) -> &'a [(u64, u64)] {
        self.ivs
    }

    /// Number of intervals.
    #[inline]
    pub fn len(self) -> usize {
        self.ivs.len()
    }

    /// Whether the list denotes the empty cell set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.ivs.is_empty()
    }

    /// See [`ivs_overlaps`].
    #[inline]
    pub fn overlaps(self, other: IntervalsRef<'_>) -> bool {
        ivs_overlaps(self.ivs, other.ivs)
    }

    /// See [`ivs_matches`].
    #[inline]
    pub fn matches(self, other: IntervalsRef<'_>) -> bool {
        ivs_matches(self.ivs, other.ivs)
    }

    /// See [`ivs_inside`].
    #[inline]
    pub fn inside(self, other: IntervalsRef<'_>) -> bool {
        ivs_inside(self.ivs, other.ivs)
    }

    /// See [`ivs_contains`].
    #[inline]
    pub fn contains(self, other: IntervalsRef<'_>) -> bool {
        ivs_contains(self.ivs, other.ivs)
    }
}

/// A normalized list of half-open `[start, end)` id intervals.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct IntervalList {
    ivs: Vec<(u64, u64)>,
    num_cells: u64,
}

impl IntervalList {
    /// The empty list.
    pub fn new() -> IntervalList {
        IntervalList::default()
    }

    /// Builds a list from arbitrary `[start, end)` ranges, normalizing
    /// (sorting, dropping empties, merging overlaps and adjacencies).
    pub fn from_ranges(mut ranges: Vec<(u64, u64)>) -> IntervalList {
        ranges.retain(|&(s, e)| e > s);
        ranges.sort_unstable();
        let mut ivs: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
        for (s, e) in ranges {
            match ivs.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => ivs.push((s, e)),
            }
        }
        let num_cells = ivs.iter().map(|&(s, e)| e - s).sum();
        IntervalList { ivs, num_cells }
    }

    /// Builds a list from individual cell ids (need not be sorted or
    /// unique).
    pub fn from_cells(mut cells: Vec<u64>) -> IntervalList {
        cells.sort_unstable();
        cells.dedup();
        let mut ivs: Vec<(u64, u64)> = Vec::new();
        for c in cells {
            match ivs.last_mut() {
                Some(last) if c == last.1 => last.1 += 1,
                _ => ivs.push((c, c + 1)),
            }
        }
        let num_cells = ivs.iter().map(|&(s, e)| e - s).sum();
        IntervalList { ivs, num_cells }
    }

    /// The normalized intervals.
    #[inline]
    pub fn intervals(&self) -> &[(u64, u64)] {
        &self.ivs
    }

    /// Number of intervals.
    #[inline]
    pub fn len(&self) -> usize {
        self.ivs.len()
    }

    /// Whether the list denotes the empty cell set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// Total number of cells covered.
    #[inline]
    pub fn num_cells(&self) -> u64 {
        self.num_cells
    }

    /// Whether cell `id` belongs to the list (binary search).
    pub fn contains_cell(&self, id: u64) -> bool {
        match self.ivs.binary_search_by(|&(s, _)| s.cmp(&id)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => id < self.ivs[i - 1].1,
        }
    }

    /// Iterates over every covered cell id (test/debug helper — linear in
    /// the *cell* count, not the interval count).
    pub fn iter_cells(&self) -> impl Iterator<Item = u64> + '_ {
        self.ivs.iter().flat_map(|&(s, e)| s..e)
    }

    /// Conservative coarsening: aligns every interval *outward* to
    /// multiples of `2^bits` (start rounded down, end rounded up) and
    /// re-merges.
    ///
    /// The result covers a superset of the original cells with far fewer
    /// intervals — still a sound *conservative* approximation. Because
    /// Hilbert block boundaries are power-of-two aligned, rounding to
    /// `2^bits` corresponds to snapping to level-`bits/2` quadtree
    /// blocks.
    pub fn coarsen_conservative(&self, bits: u32) -> IntervalList {
        let mask = (1u64 << bits) - 1;
        IntervalList::from_ranges(
            self.ivs
                .iter()
                .map(|&(s, e)| (s & !mask, (e + mask) & !mask))
                .collect(),
        )
    }

    /// Progressive coarsening: aligns every interval *inward* to
    /// multiples of `2^bits` (start rounded up, end rounded down),
    /// dropping intervals that vanish.
    ///
    /// The result covers a subset of the original cells — still a sound
    /// *progressive* approximation.
    pub fn coarsen_progressive(&self, bits: u32) -> IntervalList {
        let mask = (1u64 << bits) - 1;
        IntervalList::from_ranges(
            self.ivs
                .iter()
                .map(|&(s, e)| ((s + mask) & !mask, e & !mask))
                .filter(|&(s, e)| e > s)
                .collect(),
        )
    }

    /// A borrowed [`IntervalsRef`] over this list.
    #[inline]
    pub fn as_ref(&self) -> IntervalsRef<'_> {
        IntervalsRef::new(&self.ivs)
    }

    /// `X, Y overlap`: the lists share at least one cell id. See
    /// [`ivs_overlaps`].
    #[inline]
    pub fn overlaps(&self, other: &IntervalList) -> bool {
        ivs_overlaps(&self.ivs, &other.ivs)
    }

    /// `X, Y match`: identical interval lists (⇔ identical cell sets,
    /// thanks to normalization).
    #[inline]
    pub fn matches(&self, other: &IntervalList) -> bool {
        ivs_matches(&self.ivs, &other.ivs)
    }

    /// `X inside Y`: every interval of `self` is contained in one
    /// interval of `other` (⇔ the cell set of `self` is a subset of
    /// `other`'s). See [`ivs_inside`]; the cached cell counts give an
    /// extra O(1) early exit the slice path cannot have.
    #[inline]
    pub fn inside(&self, other: &IntervalList) -> bool {
        if self.num_cells > other.num_cells {
            return false;
        }
        ivs_inside(&self.ivs, &other.ivs)
    }

    /// `X contains Y`: every interval of `other` is contained in one
    /// interval of `self`.
    #[inline]
    pub fn contains(&self, other: &IntervalList) -> bool {
        other.inside(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn il(ranges: &[(u64, u64)]) -> IntervalList {
        IntervalList::from_ranges(ranges.to_vec())
    }

    #[test]
    fn normalization_merges_and_sorts() {
        let l = il(&[(10, 12), (0, 3), (3, 5), (11, 15), (20, 20)]);
        assert_eq!(l.intervals(), &[(0, 5), (10, 15)]);
        assert_eq!(l.num_cells(), 10);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn from_cells_builds_runs() {
        let l = IntervalList::from_cells(vec![7, 1, 2, 3, 9, 8, 3]);
        assert_eq!(l.intervals(), &[(1, 4), (7, 10)]);
        let cells: Vec<u64> = l.iter_cells().collect();
        assert_eq!(cells, vec![1, 2, 3, 7, 8, 9]);
    }

    #[test]
    fn contains_cell_lookup() {
        let l = il(&[(5, 8), (12, 13), (100, 200)]);
        for id in [5, 6, 7, 12, 100, 199] {
            assert!(l.contains_cell(id), "{id}");
        }
        for id in [0, 4, 8, 11, 13, 99, 200, 1000] {
            assert!(!l.contains_cell(id), "{id}");
        }
        assert!(!IntervalList::new().contains_cell(0));
    }

    #[test]
    fn overlap_cases() {
        let a = il(&[(0, 5), (10, 15)]);
        assert!(a.overlaps(&il(&[(4, 6)])));
        assert!(a.overlaps(&il(&[(14, 20)])));
        assert!(a.overlaps(&a));
        assert!(!a.overlaps(&il(&[(5, 10)]))); // half-open: touching ≠ overlap
        assert!(!a.overlaps(&il(&[(15, 100)])));
        assert!(!a.overlaps(&IntervalList::new()));
        assert!(!IntervalList::new().overlaps(&a));
        // Symmetry.
        assert!(il(&[(4, 6)]).overlaps(&a));
        assert!(!il(&[(5, 10)]).overlaps(&a));
    }

    #[test]
    fn match_cases() {
        let a = il(&[(0, 5), (10, 15)]);
        let b = il(&[(10, 12), (0, 5), (12, 15)]); // same set, different input form
        assert!(a.matches(&b));
        assert!(!a.matches(&il(&[(0, 5)])));
        assert!(IntervalList::new().matches(&IntervalList::new()));
    }

    #[test]
    fn inside_cases() {
        let big = il(&[(0, 10), (20, 30)]);
        assert!(il(&[(2, 5)]).inside(&big));
        assert!(il(&[(0, 10)]).inside(&big));
        assert!(il(&[(2, 5), (25, 30)]).inside(&big));
        assert!(big.inside(&big));
        assert!(IntervalList::new().inside(&big));
        // Straddles a gap.
        assert!(!il(&[(5, 25)]).inside(&big));
        // Reaches past the end.
        assert!(!il(&[(25, 31)]).inside(&big));
        // Entirely in the gap.
        assert!(!il(&[(12, 15)]).inside(&big));
        // A set can't be inside the empty set.
        assert!(!il(&[(0, 1)]).inside(&IntervalList::new()));
        // Spanning two adjacent-but-separate Y intervals fails even if
        // every cell is covered... (cannot happen post-normalization, but
        // inclusion across a true gap must fail).
        assert!(!il(&[(8, 22)]).inside(&big));
    }

    #[test]
    fn contains_is_converse_of_inside() {
        let big = il(&[(0, 10), (20, 30)]);
        let small = il(&[(2, 5), (22, 23)]);
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
    }

    #[test]
    fn gallop_paths_agree_with_merge_join() {
        // Asymmetric sizes force the binary-search paths; compare against
        // set semantics.
        use std::collections::HashSet;
        let big_ranges: Vec<(u64, u64)> = (0..2000u64).map(|i| (i * 10, i * 10 + 6)).collect();
        let big = IntervalList::from_ranges(big_ranges.clone());
        let big_set: HashSet<u64> = big_ranges.iter().flat_map(|&(s, e)| s..e).collect();
        let mut seed = 77u64;
        let mut rnd = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        for _ in 0..500 {
            let s0 = rnd(20_100);
            let len = 1 + rnd(15);
            let small = IntervalList::from_ranges(vec![(s0, s0 + len)]);
            let small_set: HashSet<u64> = (s0..s0 + len).collect();
            assert_eq!(
                small.overlaps(&big),
                !small_set.is_disjoint(&big_set),
                "overlap gallop small->big at {s0}+{len}"
            );
            assert_eq!(
                big.overlaps(&small),
                !small_set.is_disjoint(&big_set),
                "overlap gallop big->small at {s0}+{len}"
            );
            assert_eq!(
                small.inside(&big),
                small_set.is_subset(&big_set),
                "inside gallop at {s0}+{len}"
            );
            assert_eq!(
                big.contains(&small),
                small_set.is_subset(&big_set),
                "contains gallop at {s0}+{len}"
            );
        }
    }

    #[test]
    fn slice_refs_agree_with_owned_lists() {
        let a = il(&[(0, 5), (10, 15), (20, 40)]);
        let cases = [
            il(&[(4, 6)]),
            il(&[(5, 10)]),
            il(&[(0, 5), (10, 15), (20, 40)]),
            il(&[(11, 14), (22, 23)]),
            il(&[]),
            il(&[(0, 100)]),
        ];
        for b in &cases {
            let (ra, rb) = (a.as_ref(), b.as_ref());
            assert_eq!(ra.overlaps(rb), a.overlaps(b));
            assert_eq!(ra.matches(rb), a.matches(b));
            assert_eq!(ra.inside(rb), a.inside(b));
            assert_eq!(ra.contains(rb), a.contains(b));
            assert_eq!(rb.inside(ra), b.inside(&a));
        }
        assert_eq!(a.as_ref().len(), a.len());
        assert!(!a.as_ref().is_empty());
        assert_eq!(a.as_ref().intervals(), a.intervals());
    }

    #[test]
    fn relations_agree_with_set_semantics() {
        // Cross-check all four relations against naive HashSet semantics
        // on pseudo-random lists.
        use std::collections::HashSet;
        let mut seed = 99u64;
        let mut rnd = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        for _ in 0..200 {
            let mk = |rnd: &mut dyn FnMut(u64) -> u64| {
                let n = rnd(8);
                let mut v = Vec::new();
                for _ in 0..n {
                    let s = rnd(40);
                    v.push((s, s + 1 + rnd(6)));
                }
                v
            };
            let ra = mk(&mut rnd);
            let rb = mk(&mut rnd);
            let a = IntervalList::from_ranges(ra.clone());
            let b = IntervalList::from_ranges(rb.clone());
            let sa: HashSet<u64> = ra.iter().flat_map(|&(s, e)| s..e).collect();
            let sb: HashSet<u64> = rb.iter().flat_map(|&(s, e)| s..e).collect();
            assert_eq!(a.overlaps(&b), !sa.is_disjoint(&sb), "{ra:?} {rb:?}");
            assert_eq!(a.matches(&b), sa == sb, "{ra:?} {rb:?}");
            assert_eq!(a.inside(&b), sa.is_subset(&sb), "{ra:?} {rb:?}");
            assert_eq!(a.contains(&b), sb.is_subset(&sa), "{ra:?} {rb:?}");
        }
    }
}
