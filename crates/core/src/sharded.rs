//! Hilbert-range partitioning and the external (out-of-core) join
//! driver.
//!
//! The single-arena executor assumes both inputs are resident. To join
//! datasets larger than RAM, preprocessing splits each dataset into
//! *shards*: objects sorted by the Hilbert index of their MBR-center
//! cell and cut into contiguous, count-balanced runs. Hilbert order
//! keeps each shard spatially tight, so most shard pairs have disjoint
//! extents and are skipped outright; the driver walks the overlapping
//! pairs, keeps at most two shards loaded at a time, and runs the
//! existing streaming executor on each pair.
//!
//! Correctness rests on the partition being *disjoint and exhaustive*:
//! every object lives in exactly one shard, so an object pair (i, j) is
//! examined in exactly one shard pair — provided every shard pair with
//! intersecting extents runs. The per-pair candidate generator is the
//! same MBR join as the single-arena path, and skipped shard pairs can
//! contain no MBR-intersecting object pairs (their extents are the
//! unions of member MBRs), so the union of per-pair candidate sets is
//! exactly the single-arena candidate set: links *and* pipeline stats
//! are bit-identical, which invariant (g) of `stj-check` enforces.

use crate::arena::DatasetArena;
use crate::exec::{JoinResult, Link, TopologyJoin};
use crate::pipeline::PipelineStats;
use std::sync::Arc;
use stj_geom::Rect;
use stj_obs::JoinProfile;
use stj_raster::{hilbert::xy_to_d, Grid};

/// One planned shard: which objects it holds (original indices, in
/// Hilbert order) and the metadata the driver schedules on.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Original dataset indices of the member objects.
    pub ids: Vec<u32>,
    /// Smallest member Hilbert key.
    pub d_lo: u64,
    /// Largest member Hilbert key (inclusive).
    pub d_hi: u64,
    /// Union of member MBRs.
    pub extent: Rect,
}

/// Partitions objects into at most `n` shards: sorted by the Hilbert
/// index of each MBR-center cell on `grid`, then cut into contiguous
/// runs with counts differing by at most one. Returns fewer than `n`
/// shards when there are fewer than `n` objects (never an empty shard),
/// and none for an empty input.
pub fn hilbert_partition(mbrs: &[Rect], grid: &Grid, n: usize) -> Vec<ShardPlan> {
    assert!(n > 0, "shard count must be positive");
    if mbrs.is_empty() {
        return Vec::new();
    }
    let mut keyed: Vec<(u64, u32)> = mbrs
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let (cx, cy) = grid.cell_of(m.center());
            (xy_to_d(grid.order(), cx, cy), i as u32)
        })
        .collect();
    // Ties on the key keep original order (the index tiebreak), so the
    // partition is fully deterministic.
    keyed.sort_unstable();

    let n = n.min(keyed.len());
    let (base, extra) = (keyed.len() / n, keyed.len() % n);
    let mut shards = Vec::with_capacity(n);
    let mut at = 0usize;
    for k in 0..n {
        let take = base + usize::from(k < extra);
        let chunk = &keyed[at..at + take];
        at += take;
        let mut extent = Rect::empty();
        for &(_, id) in chunk {
            extent.grow_rect(&mbrs[id as usize]);
        }
        shards.push(ShardPlan {
            ids: chunk.iter().map(|&(_, id)| id).collect(),
            d_lo: chunk[0].0,
            d_hi: chunk[chunk.len() - 1].0,
            extent,
        });
    }
    shards
}

/// Which input of the join a shard belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The `R` (left) input.
    Left,
    /// The `S` (right) input.
    Right,
}

/// Shard-set metadata for one join input: per-shard data extents and
/// the shard-local → original index maps used to restore global link
/// indices.
#[derive(Clone, Copy, Debug)]
pub struct ShardSet<'a> {
    /// Union of member MBRs, per shard.
    pub extents: &'a [Rect],
    /// `ids[shard][local] = original index`, per shard.
    pub ids: &'a [&'a [u32]],
}

impl ShardSet<'_> {
    fn len(&self) -> usize {
        self.extents.len()
    }
}

/// Joins two shard sets with bounded residency: for each left shard
/// (loaded once), every right shard whose extent intersects it is
/// loaded, joined with the in-memory executor, and released — at most
/// two shards are resident at any moment (one for a self-join's
/// diagonal pairs, where `same_source` lets the driver reuse the left
/// arena instead of loading the shard twice).
///
/// Links come back remapped to original dataset indices and canonically
/// sorted by `(r, s)`; the deterministic cross-shard dedup (a disjoint
/// partition can produce no duplicates, but a corrupt shard set could)
/// is a sorted `dedup`, making merge order irrelevant. `stats` and
/// `candidates` are exact sums over the executed pairs, and equal the
/// single-arena join's by the argument in the module docs. Profiles are
/// merged when the join is profiled; scheduler reports and traces are
/// per-run artifacts and come back `None`.
///
/// The `loader` returns an `Arc` so callers may cache; the driver holds
/// each arena only as long as stated above.
pub fn external_join(
    join: &TopologyJoin,
    left: ShardSet<'_>,
    right: ShardSet<'_>,
    same_source: bool,
    loader: &mut dyn FnMut(Side, usize) -> Result<Arc<DatasetArena>, String>,
) -> Result<JoinResult, String> {
    for (side, set) in [(Side::Left, &left), (Side::Right, &right)] {
        if set.extents.len() != set.ids.len() {
            return Err(format!(
                "{side:?} shard set: {} extents for {} id maps",
                set.extents.len(),
                set.ids.len()
            ));
        }
    }

    let mut links = Vec::new();
    let mut stats = PipelineStats::default();
    let mut candidates = 0u64;
    let mut profile = None;
    for a in 0..left.len() {
        let mut left_arena: Option<Arc<DatasetArena>> = None;
        for b in 0..right.len() {
            if !left.extents[a].intersects(&right.extents[b]) {
                continue;
            }
            // Load lazily: a left shard overlapped by nothing is never
            // touched.
            let la = match &left_arena {
                Some(la) => Arc::clone(la),
                None => {
                    let la = loader(Side::Left, a)?;
                    left_arena = Some(Arc::clone(&la));
                    la
                }
            };
            let rb = if same_source && a == b {
                Arc::clone(&la)
            } else {
                loader(Side::Right, b)?
            };
            let out = join.run(&la, &rb);
            drop(rb);
            let (lmap, rmap) = (&left.ids[a], &right.ids[b]);
            links.extend(out.links.iter().map(|l| Link {
                r: lmap[l.r as usize],
                s: rmap[l.s as usize],
                relation: l.relation,
            }));
            stats.merge(&out.stats);
            candidates += out.candidates;
            if let Some(p) = out.profile {
                profile.get_or_insert_with(JoinProfile::new).merge(&p);
            }
        }
    }

    links.sort_unstable_by_key(|l| (l.r, l.s));
    let before = links.len();
    links.dedup();
    debug_assert_eq!(
        before,
        links.len(),
        "disjoint shard partition produced duplicate links"
    );
    Ok(JoinResult {
        links,
        candidates,
        stats,
        profile,
        sched: None,
        trace: None,
        // Shard-pair joins run statically; no cross-shard model to
        // aggregate.
        adaptive: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_MAX_INTERVALS;
    use stj_geom::Polygon;

    fn grid() -> Grid {
        Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 8)
    }

    fn scatter(seed: u64, count: usize) -> Vec<Polygon> {
        // Deterministic pseudo-random boxes spread over the grid.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..count)
            .map(|_| {
                let x = next() * 90.0;
                let y = next() * 90.0;
                let w = 1.0 + next() * 8.0;
                let h = 1.0 + next() * 8.0;
                Polygon::rect(Rect::from_coords(x, y, x + w, y + h))
            })
            .collect()
    }

    #[test]
    fn partition_is_disjoint_exhaustive_and_balanced() {
        let polys = scatter(7, 103);
        let arena = DatasetArena::build("t", &polys, &grid(), DEFAULT_MAX_INTERVALS, 1);
        for n in [1usize, 2, 4, 16, 103, 500] {
            let shards = hilbert_partition(arena.mbrs(), &grid(), n);
            assert_eq!(shards.len(), n.min(103));
            let mut seen = vec![false; arena.len()];
            for s in &shards {
                assert!(!s.ids.is_empty(), "empty shard");
                assert!(s.d_lo <= s.d_hi);
                for &id in &s.ids {
                    assert!(!std::mem::replace(&mut seen[id as usize], true));
                    let m = &arena.mbrs()[id as usize];
                    assert!(s.extent.intersects(m), "member MBR outside shard extent");
                }
            }
            assert!(seen.iter().all(|&s| s), "partition not exhaustive");
            let (min, max) = shards.iter().fold((usize::MAX, 0), |(lo, hi), s| {
                (lo.min(s.ids.len()), hi.max(s.ids.len()))
            });
            assert!(max - min <= 1, "unbalanced: {min}..{max}");
        }
        assert!(hilbert_partition(&[], &grid(), 4).is_empty());
    }

    #[test]
    fn external_self_join_matches_single_arena() {
        let polys = scatter(42, 160);
        let arena = DatasetArena::build("t", &polys, &grid(), DEFAULT_MAX_INTERVALS, 1);
        let join = TopologyJoin::new();
        let mut single = join.run(&arena, &arena);
        single.links.sort_unstable_by_key(|l| (l.r, l.s));

        for n in [1usize, 3, 8] {
            let shards = hilbert_partition(arena.mbrs(), &grid(), n);
            let arenas: Vec<Arc<DatasetArena>> = shards
                .iter()
                .map(|s| Arc::new(arena.select("t", &s.ids)))
                .collect();
            let extents: Vec<Rect> = shards.iter().map(|s| s.extent).collect();
            let ids: Vec<&[u32]> = shards.iter().map(|s| s.ids.as_slice()).collect();
            let set = ShardSet {
                extents: &extents,
                ids: &ids,
            };
            let mut loads = 0usize;
            let out = external_join(&join, set, set, true, &mut |_, i| {
                loads += 1;
                Ok(Arc::clone(&arenas[i]))
            })
            .unwrap();
            assert_eq!(out.links, single.links, "{n} shards");
            assert_eq!(out.stats, single.stats, "{n} shards");
            assert_eq!(out.candidates, single.candidates, "{n} shards");
            // The diagonal reuses the left arena: at most n left loads
            // plus the off-diagonal right loads.
            assert!(loads <= n * n, "{loads} loads for {n} shards");
        }
    }

    #[test]
    fn external_join_two_datasets_matches() {
        let a = DatasetArena::build("a", &scatter(1, 90), &grid(), DEFAULT_MAX_INTERVALS, 1);
        let b = DatasetArena::build("b", &scatter(2, 110), &grid(), DEFAULT_MAX_INTERVALS, 1);
        let join = TopologyJoin::new();
        let mut single = join.run(&a, &b);
        single.links.sort_unstable_by_key(|l| (l.r, l.s));

        let sa = hilbert_partition(a.mbrs(), &grid(), 3);
        let sb = hilbert_partition(b.mbrs(), &grid(), 5);
        let arenas_a: Vec<Arc<DatasetArena>> =
            sa.iter().map(|s| Arc::new(a.select("a", &s.ids))).collect();
        let arenas_b: Vec<Arc<DatasetArena>> =
            sb.iter().map(|s| Arc::new(b.select("b", &s.ids))).collect();
        let (ea, ia): (Vec<Rect>, Vec<&[u32]>) =
            sa.iter().map(|s| (s.extent, s.ids.as_slice())).unzip();
        let (eb, ib): (Vec<Rect>, Vec<&[u32]>) =
            sb.iter().map(|s| (s.extent, s.ids.as_slice())).unzip();
        let out = external_join(
            &join,
            ShardSet {
                extents: &ea,
                ids: &ia,
            },
            ShardSet {
                extents: &eb,
                ids: &ib,
            },
            false,
            &mut |side, i| {
                Ok(Arc::clone(match side {
                    Side::Left => &arenas_a[i],
                    Side::Right => &arenas_b[i],
                }))
            },
        )
        .unwrap();
        assert_eq!(out.links, single.links);
        assert_eq!(out.stats, single.stats);
        assert_eq!(out.candidates, single.candidates);
    }
}
