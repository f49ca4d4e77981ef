//! STJD v2: a columnar, section-aligned dataset format that loads
//! straight into a [`DatasetArena`].
//!
//! Layout (all integers and floats little-endian; every section starts
//! on an 8-byte boundary and the file length is always a multiple of 8):
//!
//! ```text
//! magic    b"STJD"
//! version  u32 (2)
//! grid     extent: 4 × f64, order: u32
//! name     u32 length + UTF-8 bytes, zero-padded to an 8-byte boundary
//! counts   5 × u64: objects, rings, vertices, P intervals, C intervals
//! sections (contiguous, in this order):
//!   mbrs            n_objects  × 32  per-object MBR (minx miny maxx maxy)
//!   interior        n_objects  × 16  representative interior point
//!                                    (NaN pair = none)
//!   p_offs          (n_objects + 1) × 8   P span prefix offsets
//!   c_offs          (n_objects + 1) × 8   C span prefix offsets
//!   p_pool          n_p        × 16  P intervals (start, end)
//!   c_pool          n_c        × 16  C intervals (start, end)
//!   obj_ring_offs   (n_objects + 1) × 8   object → ring offsets
//!   ring_vert_offs  (n_rings + 1)   × 8   ring → vertex offsets
//!   verts           n_vertices × 16  ring vertices (x, y)
//! ```
//!
//! Unlike v1 (one length-prefixed record per object), every column is one
//! contiguous run, so loading is a handful of bulk reads — and on
//! little-endian targets ([`stj_core::zero_copy_supported`]) the whole
//! file can be read into a single word-aligned buffer and the arena's
//! columns borrowed from it directly, with no per-object work at all.
//!
//! Structural validation (offset monotonicity, ring/vertex minimums,
//! finiteness, interval normalization) is delegated to
//! [`DatasetArena::from_columns`]/[`DatasetArena::from_backing`]; this
//! module enforces the framing: header sanity, checked section sizes,
//! exact file length.

use crate::binary::{read_dataset_v1_body, StoreError, MAGIC};
use crate::mmap::Mapping;
use std::io::{BufReader, Read, Write};
use stj_core::{zero_copy_supported, ArenaBacking, ArenaColumns, ColumnSpans, DatasetArena};
use stj_geom::{Point, Rect};
use stj_raster::Grid;

const VERSION2: u32 = 2;

/// Hard ceiling on any v2 count field (2^40 elements ≈ 16 TiB of the
/// widest section): purely an overflow guard, far above any real
/// dataset. Actual allocation is still bounded by the bytes present.
const MAX_COUNT: u64 = 1 << 40;

fn fmt_err(msg: impl Into<String>) -> StoreError {
    StoreError::Format(msg.into())
}

/// Writes an arena and its grid in v2 format.
pub fn write_arena_v2<W: Write>(
    w: &mut W,
    arena: &DatasetArena,
    grid: &Grid,
) -> Result<(), StoreError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION2.to_le_bytes())?;
    for v in [
        grid.extent().min.x,
        grid.extent().min.y,
        grid.extent().max.x,
        grid.extent().max.y,
    ] {
        w.write_all(&v.to_le_bytes())?;
    }
    w.write_all(&grid.order().to_le_bytes())?;
    let name = arena.name().as_bytes();
    w.write_all(&(name.len() as u32).to_le_bytes())?;
    w.write_all(name)?;
    w.write_all(&[0u8; 8][..pad8(name.len())])?;
    for count in [
        arena.len() as u64,
        (arena.ring_vert_offs().len() - 1) as u64,
        arena.verts().len() as u64,
        arena.p_pool().len() as u64,
        arena.c_pool().len() as u64,
    ] {
        w.write_all(&count.to_le_bytes())?;
    }
    write_rects(w, arena.mbrs())?;
    write_points(w, arena.interior_points())?;
    write_u64s(w, arena.p_offs())?;
    write_u64s(w, arena.c_offs())?;
    write_pairs(w, arena.p_pool())?;
    write_pairs(w, arena.c_pool())?;
    write_u64s(w, arena.obj_ring_offs())?;
    write_u64s(w, arena.ring_vert_offs())?;
    write_points(w, arena.verts())?;
    Ok(())
}

/// Reads any STJD stream into an arena: v2 via bulk column decode, v1 via
/// the per-object parser appending rows as it goes.
pub fn read_arena<R: Read>(r: &mut R) -> Result<(DatasetArena, Grid), StoreError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(fmt_err("bad magic (not an STJD file)"));
    }
    match read_u32(r)? {
        1 => read_dataset_v1_body(r),
        2 => read_v2_body(r),
        v => Err(fmt_err(format!("unsupported version {v}"))),
    }
}

/// Opens an in-memory STJD image. For v2 on a zero-copy-capable target
/// the bytes are copied once into a word-aligned backing buffer and the
/// arena's columns borrow from it (no per-object or per-column
/// allocation); otherwise falls back to [`read_arena`].
pub fn open_arena_from_bytes(bytes: &[u8]) -> Result<(DatasetArena, Grid), StoreError> {
    if bytes.len() >= 8
        && &bytes[..4] == MAGIC
        && u32::from_le_bytes(bytes[4..8].try_into().unwrap()) == VERSION2
        && bytes.len().is_multiple_of(8)
        && zero_copy_supported()
    {
        return open_v2_zero_copy(bytes);
    }
    read_arena(&mut { bytes })
}

/// Opens a dataset file. For v2 on a zero-copy-capable target the file
/// is memory-mapped and the arena's columns borrow the page cache
/// directly — an O(1) open that copies nothing and shares physical
/// pages with every other process mapping the same file. Otherwise
/// (v1, foreign layout, mapping failure) falls back to the buffered
/// [`open_arena_from_bytes`] path.
pub fn open_arena(path: &std::path::Path) -> Result<(DatasetArena, Grid), StoreError> {
    let mut file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    if file_len >= 8 && file_len % 8 == 0 && zero_copy_supported() && Mapping::supported() {
        let mut head = [0u8; 8];
        file.read_exact(&mut head)?;
        if &head[..4] == MAGIC && u32::from_le_bytes(head[4..8].try_into().unwrap()) == VERSION2 {
            if let Ok(m) = Mapping::map(&file) {
                drop(file); // the mapping keeps the pages alive
                return open_v2_mapped(m);
            }
        }
    }
    drop(file);
    let bytes = std::fs::read(path)?;
    open_arena_from_bytes(&bytes)
}

/// Summary of a stored dataset, as reported by `stj info`.
#[derive(Clone, Debug)]
pub struct DatasetInfo {
    /// Format version (1 or 2).
    pub version: u32,
    /// Dataset name.
    pub name: String,
    /// Grid order.
    pub order: u32,
    /// Grid extent.
    pub extent: Rect,
    /// Object count.
    pub n_objects: u64,
    /// Total ring count.
    pub n_rings: u64,
    /// Total vertex count.
    pub n_vertices: u64,
    /// Total `P` interval count.
    pub n_p: u64,
    /// Total `C` interval count.
    pub n_c: u64,
    /// Whole-file size in bytes.
    pub file_bytes: u64,
    /// Per-section byte sizes (v2 only; empty for v1, whose sizes are
    /// interleaved per object).
    pub sections: Vec<(&'static str, u64)>,
}

/// Reads the summary of a stored dataset. For v2 only the bounded
/// header (grid + name + counts) is read — constant work regardless of
/// file size, so `stj info` on a 10 GB dataset is instant. v1 still
/// requires a full parse (its counts are interleaved per object) but
/// streams through a `BufReader` instead of buffering the whole file.
pub fn dataset_info(path: &std::path::Path) -> Result<DatasetInfo, StoreError> {
    let file = std::fs::File::open(path)?;
    let file_bytes = file.metadata()?.len();
    let r = &mut BufReader::new(file);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(fmt_err("bad magic (not an STJD file)"));
    }
    match read_u32(r)? {
        1 => {
            let (arena, grid) = read_dataset_v1_body(r)?;
            Ok(DatasetInfo {
                version: 1,
                name: arena.name().to_string(),
                order: grid.order(),
                extent: *grid.extent(),
                n_objects: arena.len() as u64,
                n_rings: (arena.ring_vert_offs().len() - 1) as u64,
                n_vertices: arena.verts().len() as u64,
                n_p: arena.p_pool().len() as u64,
                n_c: arena.c_pool().len() as u64,
                file_bytes,
                sections: Vec::new(),
            })
        }
        2 => {
            let header = read_v2_header(r)?;
            let sizes = section_sizes(&header.counts)?;
            Ok(DatasetInfo {
                version: 2,
                name: header.name,
                order: header.grid.order(),
                extent: *header.grid.extent(),
                n_objects: header.counts.n_objects,
                n_rings: header.counts.n_rings,
                n_vertices: header.counts.n_vertices,
                n_p: header.counts.n_p,
                n_c: header.counts.n_c,
                file_bytes,
                sections: SECTION_NAMES.iter().copied().zip(sizes).collect(),
            })
        }
        v => Err(fmt_err(format!("unsupported version {v}"))),
    }
}

const SECTION_NAMES: [&str; 9] = [
    "mbrs",
    "interior",
    "p_offs",
    "c_offs",
    "p_pool",
    "c_pool",
    "obj_ring_offs",
    "ring_vert_offs",
    "verts",
];

#[derive(Clone, Copy, Debug)]
struct V2Counts {
    n_objects: u64,
    n_rings: u64,
    n_vertices: u64,
    n_p: u64,
    n_c: u64,
}

struct V2Header {
    grid: Grid,
    name: String,
    counts: V2Counts,
}

/// Zero padding after a `len`-byte field to reach an 8-byte boundary.
fn pad8(len: usize) -> usize {
    (8 - len % 8) % 8
}

/// Parses everything between the version field and the first section.
fn read_v2_header<R: Read>(r: &mut R) -> Result<V2Header, StoreError> {
    let (minx, miny, maxx, maxy) = (read_f64(r)?, read_f64(r)?, read_f64(r)?, read_f64(r)?);
    if !(minx < maxx && miny < maxy) {
        return Err(fmt_err("degenerate grid extent"));
    }
    let order = read_u32(r)?;
    if !(1..=16).contains(&order) {
        return Err(fmt_err(format!("grid order {order} out of range")));
    }
    let grid = Grid::new(Rect::from_coords(minx, miny, maxx, maxy), order);

    let name_len = read_u32(r)? as usize;
    if name_len > 1 << 20 {
        return Err(fmt_err("unreasonable name length"));
    }
    let mut name_bytes = vec![0u8; name_len + pad8(name_len)];
    r.read_exact(&mut name_bytes)?;
    name_bytes.truncate(name_len);
    let name = String::from_utf8(name_bytes).map_err(|_| fmt_err("dataset name is not UTF-8"))?;

    let mut counts = [0u64; 5];
    for c in &mut counts {
        *c = read_u64(r)?;
        if *c > MAX_COUNT {
            return Err(fmt_err(format!("count {c} exceeds format maximum")));
        }
    }
    Ok(V2Header {
        grid,
        name,
        counts: V2Counts {
            n_objects: counts[0],
            n_rings: counts[1],
            n_vertices: counts[2],
            n_p: counts[3],
            n_c: counts[4],
        },
    })
}

/// Per-section byte sizes in [`SECTION_NAMES`] order, checked against
/// overflow.
fn section_sizes(c: &V2Counts) -> Result<[u64; 9], StoreError> {
    let n = c.n_objects;
    let offs = n
        .checked_add(1)
        .and_then(|x| x.checked_mul(8))
        .ok_or_else(|| fmt_err("offset table size overflows"))?;
    let ring_offs = c
        .n_rings
        .checked_add(1)
        .and_then(|x| x.checked_mul(8))
        .ok_or_else(|| fmt_err("ring offset table size overflows"))?;
    let mul = |count: u64, w: u64, what: &str| {
        count
            .checked_mul(w)
            .ok_or_else(|| fmt_err(format!("{what} section size overflows")))
    };
    Ok([
        mul(n, 32, "mbrs")?,
        mul(n, 16, "interior")?,
        offs,
        offs,
        mul(c.n_p, 16, "p_pool")?,
        mul(c.n_c, 16, "c_pool")?,
        offs,
        ring_offs,
        mul(c.n_vertices, 16, "verts")?,
    ])
}

/// Bulk-decoding v2 reader: one `Vec` per column, ~10 allocations total
/// regardless of object count.
fn read_v2_body<R: Read>(r: &mut R) -> Result<(DatasetArena, Grid), StoreError> {
    let header = read_v2_header(r)?;
    let sizes = section_sizes(&header.counts)?;
    let mut sections: Vec<Vec<u8>> = Vec::with_capacity(9);
    for (size, name) in sizes.iter().zip(SECTION_NAMES) {
        // `take` + `read_to_end` grows with the bytes actually present,
        // so a hostile count costs at most the real file size — the v2
        // analogue of v1's bounded preallocation.
        let mut buf = Vec::new();
        r.take(*size).read_to_end(&mut buf)?;
        if buf.len() as u64 != *size {
            return Err(fmt_err(format!(
                "truncated {name} section ({} of {size} bytes)",
                buf.len()
            )));
        }
        sections.push(buf);
    }
    let cols = ArenaColumns {
        name: header.name,
        mbrs: decode_rects(&sections[0]),
        interior: decode_points(&sections[1]),
        p_offs: decode_u64s(&sections[2]),
        c_offs: decode_u64s(&sections[3]),
        p_pool: decode_pairs(&sections[4]),
        c_pool: decode_pairs(&sections[5]),
        obj_ring_offs: decode_u64s(&sections[6]),
        ring_vert_offs: decode_u64s(&sections[7]),
        verts: decode_points(&sections[8]),
    };
    let arena = DatasetArena::from_columns(cols).map_err(|e| fmt_err(e.to_string()))?;
    Ok((arena, header.grid))
}

/// Parses the v2 header of a whole-file image and computes the word
/// offsets of every column, verifying the exact file length — shared by
/// the copying and mapped zero-copy opens.
fn v2_image_spans(bytes: &[u8]) -> Result<(String, Grid, ColumnSpans), StoreError> {
    let r = &mut &bytes[8..]; // past magic + version
    let header = read_v2_header(r)?;
    let header_bytes = bytes.len() - r.len();
    debug_assert_eq!(header_bytes % 8, 0, "v2 header is 8-aligned by format");
    let sizes = section_sizes(&header.counts)?;
    let total = sizes
        .iter()
        .try_fold(header_bytes as u64, |acc, s| acc.checked_add(*s))
        .ok_or_else(|| fmt_err("file size overflows"))?;
    if total != bytes.len() as u64 {
        return Err(fmt_err(format!(
            "file is {} bytes, sections demand {total}",
            bytes.len()
        )));
    }

    let mut word_off = header_bytes / 8;
    let mut offs = [0usize; 9];
    for (slot, size) in offs.iter_mut().zip(sizes) {
        *slot = word_off;
        word_off += (size / 8) as usize;
    }
    let spans = ColumnSpans {
        mbrs: offs[0],
        interior: offs[1],
        p_offs: offs[2],
        c_offs: offs[3],
        p_pool: offs[4],
        c_pool: offs[5],
        obj_ring_offs: offs[6],
        ring_vert_offs: offs[7],
        verts: offs[8],
        n_objects: header.counts.n_objects as usize,
        n_rings: header.counts.n_rings as usize,
        n_vertices: header.counts.n_vertices as usize,
        n_p: header.counts.n_p as usize,
        n_c: header.counts.n_c as usize,
    };
    Ok((header.name, header.grid, spans))
}

/// The copying zero-copy open: word-aligned copy of the whole image,
/// columns borrowed at their section offsets.
fn open_v2_zero_copy(bytes: &[u8]) -> Result<(DatasetArena, Grid), StoreError> {
    let (name, grid, spans) = v2_image_spans(bytes)?;
    let mut backing = vec![0u64; bytes.len() / 8].into_boxed_slice();
    // SAFETY: a [u64] is always valid as a byte view of the same size;
    // on the little-endian targets this path is gated to, the byte copy
    // is the in-memory representation.
    unsafe {
        std::slice::from_raw_parts_mut(backing.as_mut_ptr().cast::<u8>(), bytes.len())
            .copy_from_slice(bytes);
    }
    let arena =
        DatasetArena::from_backing(name, backing, spans).map_err(|e| fmt_err(e.to_string()))?;
    Ok((arena, grid))
}

/// The mapped open: columns borrow the page cache directly; the mapping
/// is owned by the arena and unmapped when it drops. Validation runs on
/// the mapped bytes, so a hostile file is rejected exactly like on the
/// copying path.
fn open_v2_mapped(m: Mapping) -> Result<(DatasetArena, Grid), StoreError> {
    let (name, grid, spans) = v2_image_spans(m.bytes())?;
    let arena = DatasetArena::from_backing(name, ArenaBacking::Mapped(Box::new(m)), spans)
        .map_err(|e| fmt_err(e.to_string()))?;
    Ok((arena, grid))
}

fn write_rects<W: Write>(w: &mut W, rects: &[Rect]) -> Result<(), StoreError> {
    let mut buf = Vec::with_capacity(rects.len() * 32);
    for r in rects {
        for v in [r.min.x, r.min.y, r.max.x, r.max.y] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    Ok(w.write_all(&buf)?)
}

fn write_points<W: Write>(w: &mut W, pts: &[Point]) -> Result<(), StoreError> {
    let mut buf = Vec::with_capacity(pts.len() * 16);
    for p in pts {
        buf.extend_from_slice(&p.x.to_le_bytes());
        buf.extend_from_slice(&p.y.to_le_bytes());
    }
    Ok(w.write_all(&buf)?)
}

fn write_u64s<W: Write>(w: &mut W, vals: &[u64]) -> Result<(), StoreError> {
    let mut buf = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    Ok(w.write_all(&buf)?)
}

fn write_pairs<W: Write>(w: &mut W, pairs: &[(u64, u64)]) -> Result<(), StoreError> {
    let mut buf = Vec::with_capacity(pairs.len() * 16);
    for (s, e) in pairs {
        buf.extend_from_slice(&s.to_le_bytes());
        buf.extend_from_slice(&e.to_le_bytes());
    }
    Ok(w.write_all(&buf)?)
}

fn decode_u64s(b: &[u8]) -> Vec<u64> {
    b.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn decode_pairs(b: &[u8]) -> Vec<(u64, u64)> {
    b.chunks_exact(16)
        .map(|c| {
            (
                u64::from_le_bytes(c[..8].try_into().unwrap()),
                u64::from_le_bytes(c[8..].try_into().unwrap()),
            )
        })
        .collect()
}

fn decode_points(b: &[u8]) -> Vec<Point> {
    b.chunks_exact(16)
        .map(|c| {
            Point::new(
                f64::from_le_bytes(c[..8].try_into().unwrap()),
                f64::from_le_bytes(c[8..].try_into().unwrap()),
            )
        })
        .collect()
}

fn decode_rects(b: &[u8]) -> Vec<Rect> {
    b.chunks_exact(32)
        .map(|c| Rect {
            min: Point::new(
                f64::from_le_bytes(c[..8].try_into().unwrap()),
                f64::from_le_bytes(c[8..16].try_into().unwrap()),
            ),
            max: Point::new(
                f64::from_le_bytes(c[16..24].try_into().unwrap()),
                f64::from_le_bytes(c[24..].try_into().unwrap()),
            ),
        })
        .collect()
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
        return Err(fmt_err("non-finite header coordinate"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stj_core::DEFAULT_MAX_INTERVALS;
    use stj_datagen::{generate, DatasetId};
    use stj_geom::Polygon;

    /// The committed STJD v1 file (see `tests/fixtures/README.md`).
    const V1: &[u8] = include_bytes!("../../../tests/fixtures/stjd-v1.stjd");
    const V1_WKT: &[u8] = include_bytes!("../../../tests/fixtures/stjd-v1.wkt");

    /// The v1 fixture's polygons built directly on its grid.
    fn v1_fixture_arena() -> DatasetArena {
        let polys = crate::read_wkt_polygons(V1_WKT).unwrap();
        let grid = Grid::new(Rect::from_coords(0.0, 0.0, 1000.0, 1000.0), 6);
        DatasetArena::build("v1fixture", &polys, &grid, DEFAULT_MAX_INTERVALS, 1)
    }

    fn sample_arena() -> (DatasetArena, Grid) {
        let polys = generate(DatasetId::OLE, 0.005);
        let mut extent = Rect::empty();
        for p in &polys {
            extent.grow_rect(p.mbr());
        }
        let grid = Grid::new(extent, 10);
        (
            DatasetArena::build("OLE", &polys, &grid, DEFAULT_MAX_INTERVALS, 1),
            grid,
        )
    }

    fn tiny_arena() -> (DatasetArena, Grid) {
        let polys = vec![
            Polygon::rect(Rect::from_coords(5.0, 5.0, 40.0, 40.0)),
            Polygon::from_coords(
                vec![(50.0, 10.0), (90.0, 10.0), (90.0, 45.0), (50.0, 45.0)],
                vec![vec![(60.0, 20.0), (80.0, 20.0), (80.0, 35.0), (60.0, 35.0)]],
            )
            .unwrap(),
            Polygon::from_coords(vec![(10.0, 60.0), (45.0, 60.0), (20.0, 90.0)], vec![]).unwrap(),
        ];
        let grid = Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 6);
        (
            DatasetArena::build("tiny", &polys, &grid, DEFAULT_MAX_INTERVALS, 1),
            grid,
        )
    }

    fn encode(arena: &DatasetArena, grid: &Grid) -> Vec<u8> {
        let mut buf = Vec::new();
        write_arena_v2(&mut buf, arena, grid).unwrap();
        buf
    }

    #[test]
    fn v2_roundtrip_is_bit_identical() {
        let (arena, grid) = sample_arena();
        let buf = encode(&arena, &grid);
        assert_eq!(buf.len() % 8, 0, "v2 files are word-aligned");

        let (bulk, grid2) = read_arena(&mut buf.as_slice()).unwrap();
        assert_eq!(grid2, grid);
        assert!(!bulk.is_zero_copy());
        assert_eq!(bulk, arena);

        let (zc, grid3) = open_arena_from_bytes(&buf).unwrap();
        assert_eq!(grid3, grid);
        assert_eq!(zc.is_zero_copy(), zero_copy_supported());
        assert_eq!(zc, arena);
    }

    #[test]
    fn v2_rewrite_of_loaded_arena_is_byte_identical() {
        let (arena, grid) = sample_arena();
        let buf = encode(&arena, &grid);
        let (loaded, grid2) = open_arena_from_bytes(&buf).unwrap();
        assert_eq!(encode(&loaded, &grid2), buf);
    }

    #[test]
    fn v1_files_migrate_on_read() {
        let arena = v1_fixture_arena();
        let (migrated, grid) = read_arena(&mut &V1[..]).unwrap();
        assert_eq!(grid.order(), 6);
        assert_eq!(migrated, arena, "v1 → arena equals direct build");

        // And via the byte-open path (which must detect v1 and fall back).
        let (migrated2, _) = open_arena_from_bytes(V1).unwrap();
        assert!(!migrated2.is_zero_copy());
        assert_eq!(migrated2, arena);
    }

    #[test]
    fn v2_rejects_truncation_at_every_byte() {
        let (arena, grid) = tiny_arena();
        let buf = encode(&arena, &grid);
        for cut in 0..buf.len() {
            assert!(
                read_arena(&mut &buf[..cut]).is_err(),
                "stream cut at {cut}/{} succeeded",
                buf.len()
            );
            assert!(
                open_arena_from_bytes(&buf[..cut]).is_err(),
                "open cut at {cut}/{} succeeded",
                buf.len()
            );
        }
        assert!(read_arena(&mut buf.as_slice()).is_ok());
    }

    #[test]
    fn v2_survives_byte_flips_without_panicking() {
        let (arena, grid) = tiny_arena();
        let buf = encode(&arena, &grid);
        for pos in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[pos] ^= 0xFF;
            // Either a clean error or a structurally valid parse — never
            // a panic, on both load paths.
            let _ = read_arena(&mut corrupt.as_slice());
            let _ = open_arena_from_bytes(&corrupt);
        }
    }

    #[test]
    fn v2_hostile_counts_fail_without_allocating() {
        let (arena, grid) = tiny_arena();
        let buf = encode(&arena, &grid);
        // Counts live right after the padded name field.
        let name_pad = pad8(arena.name().len());
        let counts_off = 4 + 4 + 32 + 4 + 4 + arena.name().len() + name_pad;
        for slot in 0..5 {
            let mut hostile = buf.clone();
            let off = counts_off + slot * 8;
            hostile[off..off + 8].copy_from_slice(&(MAX_COUNT - 1).to_le_bytes());
            assert!(read_arena(&mut hostile.as_slice()).is_err());
            assert!(open_arena_from_bytes(&hostile).is_err());
            // Beyond the ceiling: rejected at the header.
            hostile[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(read_arena(&mut hostile.as_slice()).is_err());
            assert!(open_arena_from_bytes(&hostile).is_err());
        }
    }

    #[test]
    fn open_arena_maps_v2_files() {
        let (arena, grid) = sample_arena();
        let dir = std::env::temp_dir().join(format!("stj-v2-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ole.stjd");
        std::fs::write(&path, encode(&arena, &grid)).unwrap();

        let (mapped, grid2) = open_arena(&path).unwrap();
        assert_eq!(grid2, grid);
        assert_eq!(mapped, arena);
        if Mapping::supported() && zero_copy_supported() {
            assert_eq!(mapped.backing_kind(), "mapped");
        }
        // The mapped arena joins identically to the built one.
        use stj_core::TopologyJoin;
        let a = TopologyJoin::new().run(&arena, &arena);
        let b = TopologyJoin::new().run(&mapped, &mapped);
        assert_eq!(a.links, b.links);
        assert_eq!(a.stats, b.stats);
        drop(mapped); // unmaps; the file must still be removable

        // Corrupt files are rejected through the mapped path too.
        let buf = encode(&arena, &grid);
        let bad = dir.join("bad.stjd");
        std::fs::write(&bad, &buf[..buf.len() - 8]).unwrap();
        assert!(open_arena(&bad).is_err());

        // v1 files fall back to the migrating open.
        let v1_path = dir.join("fixture-v1.stjd");
        std::fs::write(&v1_path, V1).unwrap();
        let (migrated, _) = open_arena(&v1_path).unwrap();
        assert_eq!(migrated.backing_kind(), "columns");
        assert_eq!(migrated, v1_fixture_arena());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loaded_v2_joins_identically_to_built_arena() {
        use stj_core::TopologyJoin;
        let (arena, grid) = sample_arena();
        let buf = encode(&arena, &grid);
        let (zc, _) = open_arena_from_bytes(&buf).unwrap();
        let a = TopologyJoin::new().run(&arena, &arena);
        let b = TopologyJoin::new().run(&zc, &zc);
        assert_eq!(a.links, b.links);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn empty_arena_roundtrips() {
        let grid = Grid::new(Rect::from_coords(0.0, 0.0, 1.0, 1.0), 4);
        let arena = DatasetArena::build("empty", &[], &grid, DEFAULT_MAX_INTERVALS, 1);
        let buf = encode(&arena, &grid);
        let (loaded, _) = open_arena_from_bytes(&buf).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.name(), "empty");
        assert_eq!(loaded, arena);
    }

    #[test]
    fn info_reports_v2_sections() {
        let (arena, grid) = tiny_arena();
        let dir = std::env::temp_dir().join("stj_v2_info_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.stjd");
        std::fs::write(&path, encode(&arena, &grid)).unwrap();
        let info = dataset_info(&path).unwrap();
        assert_eq!(info.version, 2);
        assert_eq!(info.name, "tiny");
        assert_eq!(info.order, 6);
        assert_eq!(info.n_objects, 3);
        assert_eq!(info.n_rings, 4);
        assert_eq!(info.n_vertices as usize, arena.total_vertices());
        assert_eq!(info.sections.len(), 9);
        let section_total: u64 = info.sections.iter().map(|(_, s)| s).sum();
        assert!(section_total < info.file_bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn info_reads_v1_files() {
        let dir = std::env::temp_dir().join("stj_v1_info_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fixture_v1.stjd");
        std::fs::write(&path, V1).unwrap();
        let info = dataset_info(&path).unwrap();
        assert_eq!(info.version, 1);
        assert_eq!(info.name, "v1fixture");
        assert_eq!(info.n_objects, 16);
        assert_eq!(
            info.n_vertices as usize,
            v1_fixture_arena().total_vertices()
        );
        assert!(info.sections.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
