//! The legacy STJD v1 record format: read-only.
//!
//! `stj` writes STJD v2 ([`crate::v2`]); v1 files still open, migrating
//! into a [`DatasetArena`] as they are read. Layout (all integers
//! little-endian):
//!
//! ```text
//! magic   b"STJD"
//! version u32 (currently 1)
//! grid    extent: 4 × f64, order: u32
//! name    u32 length + UTF-8 bytes
//! count   u64 objects
//! per object:
//!   rings   u32 ring count (outer first)
//!   per ring: u32 vertex count, then x,y f64 pairs
//!   P list  u32 interval count, then (start, end) u64 pairs
//!   C list  u32 interval count, then (start, end) u64 pairs
//! ```
//!
//! MBRs are rederived from the polygons on load (cheaper than storing
//! and guaranteed consistent). `tests/fixtures/stjd-v1.stjd` is a v1
//! file kept for the reader's tests.

use std::io::{self, Read};
use stj_core::{ArenaColumns, DatasetArena};
use stj_geom::{InteriorScratch, Point, Polygon, Rect, Ring};
use stj_raster::{AprilRef, Grid, IntervalList};

pub(crate) const MAGIC: &[u8; 4] = b"STJD";

/// Upper bound on any single `Vec::with_capacity` derived from an
/// untrusted length field. Counts above this are still honored — the
/// vector just grows by doubling as elements actually arrive — so a
/// hostile header claiming 2^26 vertices costs nothing up front: the
/// very next `read_exact` hits EOF and fails cleanly instead of first
/// committing gigabytes.
const MAX_TRUSTED_PREALLOC: usize = 1 << 12;

/// Preallocation for an untrusted element count.
#[inline]
fn bounded_capacity(n: usize) -> usize {
    n.min(MAX_TRUSTED_PREALLOC)
}

/// Errors raised by dataset (de)serialization.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Not an stj dataset file, or an unsupported version.
    Format(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Format(s) => write!(f, "format error: {s}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Reads the v1 payload after magic + version (dispatched to by
/// [`crate::v2::read_arena`]), appending each record straight into arena
/// columns through [`ArenaColumns::push`]: MBRs are rederived from the
/// polygons and interior points computed, as for any arena built from
/// polygons.
pub(crate) fn read_dataset_v1_body<R: Read>(r: &mut R) -> Result<(DatasetArena, Grid), StoreError> {
    let (minx, miny, maxx, maxy) = (read_f64(r)?, read_f64(r)?, read_f64(r)?, read_f64(r)?);
    if !(minx < maxx && miny < maxy) {
        return Err(StoreError::Format("degenerate grid extent".into()));
    }
    let order = read_u32(r)?;
    if !(1..=16).contains(&order) {
        return Err(StoreError::Format(format!(
            "grid order {order} out of range"
        )));
    }
    let grid = Grid::new(Rect::from_coords(minx, miny, maxx, maxy), order);

    let name_len = read_u32(r)? as usize;
    if name_len > 1 << 20 {
        return Err(StoreError::Format("unreasonable name length".into()));
    }
    let mut name_bytes = vec![0u8; name_len];
    r.read_exact(&mut name_bytes)?;
    let name = String::from_utf8(name_bytes)
        .map_err(|_| StoreError::Format("dataset name is not UTF-8".into()))?;

    let count = read_u64(r)?;
    let mut cols = ArenaColumns::new(name);
    let mut scratch = InteriorScratch::default();
    for _ in 0..count {
        let polygon = read_polygon(r)?;
        let p = read_intervals(r)?;
        let c = read_intervals(r)?;
        cols.push(
            &polygon,
            AprilRef {
                p: p.as_ref(),
                c: c.as_ref(),
            },
            &mut scratch,
        );
    }
    let arena = DatasetArena::from_columns(cols).map_err(|e| StoreError::Format(e.to_string()))?;
    Ok((arena, grid))
}

fn read_polygon<R: Read>(r: &mut R) -> Result<Polygon, StoreError> {
    let rings = read_u32(r)? as usize;
    if rings == 0 || rings > 1 << 20 {
        return Err(StoreError::Format(format!("bad ring count {rings}")));
    }
    let outer = read_ring(r)?;
    let mut holes = Vec::with_capacity(bounded_capacity(rings - 1));
    for _ in 1..rings {
        holes.push(read_ring(r)?);
    }
    Ok(Polygon::new(outer, holes))
}

fn read_ring<R: Read>(r: &mut R) -> Result<Ring, StoreError> {
    let n = read_u32(r)? as usize;
    if !(3..=1 << 26).contains(&n) {
        return Err(StoreError::Format(format!("bad vertex count {n}")));
    }
    let mut pts = Vec::with_capacity(bounded_capacity(n));
    for _ in 0..n {
        pts.push(Point::new(read_f64(r)?, read_f64(r)?));
    }
    Ring::new(pts).map_err(|e| StoreError::Format(format!("invalid ring: {e}")))
}

fn read_intervals<R: Read>(r: &mut R) -> Result<IntervalList, StoreError> {
    let n = read_u32(r)? as usize;
    if n > 1 << 28 {
        return Err(StoreError::Format(format!("bad interval count {n}")));
    }
    let mut ranges = Vec::with_capacity(bounded_capacity(n));
    for _ in 0..n {
        let s = read_u64(r)?;
        let e = read_u64(r)?;
        if e <= s {
            return Err(StoreError::Format(format!("empty interval [{s},{e})")));
        }
        ranges.push((s, e));
    }
    Ok(IntervalList::from_ranges(ranges))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, StoreError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, StoreError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64<R: Read>(r: &mut R) -> Result<f64, StoreError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    let v = f64::from_le_bytes(b);
    if !v.is_finite() {
        return Err(StoreError::Format("non-finite coordinate".into()));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use crate::v2::{open_arena_from_bytes, read_arena};
    use crate::{read_wkt_polygons, StoreError};
    use stj_core::{DatasetArena, TopologyJoin, DEFAULT_MAX_INTERVALS};
    use stj_geom::Rect;
    use stj_raster::Grid;

    /// The committed v1 file and the WKT it was written from.
    const V1: &[u8] = include_bytes!("../../../tests/fixtures/stjd-v1.stjd");
    const V1_WKT: &[u8] = include_bytes!("../../../tests/fixtures/stjd-v1.wkt");

    /// Byte offset of the v1 object-count u64: after magic (4), version
    /// (4), extent (32), order (4), name length (4) + name bytes.
    const COUNT_OFF: usize = 4 + 4 + 32 + 4 + 4 + "v1fixture".len();

    /// The fixture's polygons built directly, on the fixture's grid.
    fn fixture_arena() -> (DatasetArena, Grid) {
        let polys = read_wkt_polygons(V1_WKT).unwrap();
        let grid = Grid::new(Rect::from_coords(0.0, 0.0, 1000.0, 1000.0), 6);
        let arena = DatasetArena::build("v1fixture", &polys, &grid, DEFAULT_MAX_INTERVALS, 1);
        (arena, grid)
    }

    #[test]
    fn v1_migrates_to_the_built_arena() {
        let (arena, grid) = fixture_arena();
        let (migrated, grid2) = read_arena(&mut &V1[..]).unwrap();
        assert_eq!(grid2, grid);
        assert_eq!(migrated.len(), 16);
        assert_eq!(migrated, arena, "v1 → arena equals direct build");
        let a = TopologyJoin::new().run(&arena, &arena);
        let b = TopologyJoin::new().run(&migrated, &migrated);
        assert_eq!(a.links, b.links);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = b"NOPE".to_vec();
        buf.extend_from_slice(&V1[4..]);
        assert!(matches!(
            read_arena(&mut buf.as_slice()),
            Err(StoreError::Format(_))
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = V1.to_vec();
        buf[4] = 99; // corrupt the version field
        assert!(matches!(
            read_arena(&mut buf.as_slice()),
            Err(StoreError::Format(_))
        ));
    }

    #[test]
    fn rejects_truncation_at_every_byte() {
        // Cutting the file at EVERY byte offset must fail cleanly —
        // never panic, never succeed with partial data.
        for cut in 0..V1.len() {
            let err = read_arena(&mut &V1[..cut]);
            assert!(err.is_err(), "cut at {cut}/{} succeeded", V1.len());
        }
        assert!(read_arena(&mut &V1[..]).is_ok());
    }

    #[test]
    fn hostile_counts_fail_without_allocating() {
        let header = &V1[..COUNT_OFF];

        // A header claiming u64::MAX objects (then EOF) must error out,
        // not preallocate.
        let mut buf = header.to_vec();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_arena(&mut buf.as_slice()),
            Err(StoreError::Io(_) | StoreError::Format(_))
        ));

        // Max-allowed vertex count (2^26, passes the range check) with
        // no vertex data: must fail on EOF, not OOM on with_capacity.
        let mut buf = header.to_vec();
        buf.extend_from_slice(&1u64.to_le_bytes()); // one object
        buf.extend_from_slice(&1u32.to_le_bytes()); // one ring
        buf.extend_from_slice(&(1u32 << 26).to_le_bytes()); // huge ring
        assert!(read_arena(&mut buf.as_slice()).is_err());

        // Same for a huge interval count on the P list.
        let mut buf = header.to_vec();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes()); // 3 vertices
        for v in [0.0f64, 0.0, 10.0, 0.0, 0.0, 10.0] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&(1u32 << 28).to_le_bytes()); // huge P list
        assert!(read_arena(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn byte_flips_never_panic() {
        // Flip every byte position in turn and demand no panic: either a
        // clean error or a (structurally re-validated) successful parse,
        // on both the stream and the byte-open path.
        for pos in 0..V1.len() {
            let mut corrupt = V1.to_vec();
            corrupt[pos] ^= 0xFF;
            let _ = read_arena(&mut corrupt.as_slice());
            let _ = open_arena_from_bytes(&corrupt);
        }
    }

    #[test]
    fn empty_v1_dataset_reads() {
        // The fixture's header with an object count of zero.
        let mut buf = V1[..COUNT_OFF].to_vec();
        buf.extend_from_slice(&0u64.to_le_bytes());
        let (arena, _) = read_arena(&mut buf.as_slice()).unwrap();
        assert!(arena.is_empty());
        assert_eq!(arena.name(), "v1fixture");
    }
}
