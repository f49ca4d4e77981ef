//! Columnar dataset arena and borrowed object views.
//!
//! A [`DatasetArena`] stores a whole preprocessed dataset as a handful of
//! contiguous columns:
//!
//! - one MBR column (`Rect` per object) — the MBR join sweeps this
//!   directly, no gather step;
//! - one precomputed interior-point column (`Point` per object, NaN
//!   sentinel for "no detectable interior");
//! - two flat `(start, end)` interval pools (`P` and `C`) with per-object
//!   spans encoded as `n + 1` prefix offsets;
//! - one vertex pool plus two offset tables (object → ring range,
//!   ring → vertex range) for the geometry.
//!
//! [`DatasetArena::object`] hands out an [`ObjectRef`] — a `Copy` bundle
//! of borrowed views (`&Rect`, [`AprilRef`], [`PolyView`]) that the whole
//! pipeline consumes. Arenas are the only object representation: every
//! arena made from polygons — [`DatasetArena::build`], the v1 store
//! migration, [`DatasetArena::from_dataset`], and the one-row arenas
//! `stj serve` builds for probes — appends its rows through
//! [`ArenaColumns::push`].
//!
//! Columns are either owned `Vec`s (built in memory, or bulk-loaded from
//! the v2 store) or *views* into a single `u64`-aligned backing buffer
//! (the zero-copy open path of the v2 store). The only `unsafe` in this
//! crate is the view-column slice cast, guarded by construction-time
//! validation plus [`zero_copy_supported`].

use crate::object::Dataset;
use std::sync::atomic::{AtomicUsize, Ordering};
use stj_geom::{try_interior_point_with, Areal, InteriorScratch, Point, PolyView, Polygon, Rect};
use stj_raster::{AprilRef, Grid, IntervalsRef, RasterScratch};

/// Objects per work unit of [`DatasetArena::build`]: small enough that a
/// few huge polygons cannot leave a worker idle for long, large enough
/// that per-chunk column vectors stay cheap.
const BUILD_CHUNK: usize = 64;

/// A `Copy` borrowed view of one preprocessed object: everything the
/// find-relation pipeline needs, with no owned allocations behind it.
#[derive(Clone, Copy, Debug)]
pub struct ObjectRef<'a> {
    /// Minimum bounding rectangle.
    pub mbr: &'a Rect,
    /// APRIL `P`/`C` interval-slice views on the shared grid.
    pub april: AprilRef<'a>,
    /// The exact geometry (used only by the refinement step).
    pub geom: PolyView<'a>,
}

impl ObjectRef<'_> {
    /// Vertex count (the paper's complexity measure).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.geom.num_vertices()
    }
}

/// Error raised when arena columns fail structural validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArenaError(pub String);

impl std::fmt::Display for ArenaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid arena: {}", self.0)
    }
}

impl std::error::Error for ArenaError {}

fn err(msg: impl Into<String>) -> ArenaError {
    ArenaError(msg.into())
}

/// Marker for column element types that may be reinterpreted from the
/// arena's `u64`-word backing buffer: fixed size in whole words, align
/// ≤ 8, any bit pattern structurally meaningful (semantic checks run at
/// construction).
///
/// # Safety
/// `WORDS * 8` must equal `size_of::<Self>()`, the alignment must divide
/// 8, and the type must be plain data (no padding, no invariants enforced
/// by construction) under the layout verified by [`zero_copy_supported`].
unsafe trait Pod: Copy {
    /// Element size in `u64` words.
    const WORDS: usize;
}

// SAFETY: one word, trivially plain data.
unsafe impl Pod for u64 {
    const WORDS: usize = 1;
}
// SAFETY: `Point` is `#[repr(C)] { x: f64, y: f64 }` — two words, no
// padding; every bit pattern is a (possibly non-finite) f64 pair, and
// finiteness is validated at construction.
unsafe impl Pod for Point {
    const WORDS: usize = 2;
}
// SAFETY: `Rect` is `#[repr(C)] { min: Point, max: Point }` — four words.
unsafe impl Pod for Rect {
    const WORDS: usize = 4;
}
// SAFETY: two words *if* the tuple layout matches two consecutive u64s,
// which `zero_copy_supported` verifies at runtime before any view column
// of this type can be constructed.
unsafe impl Pod for (u64, u64) {
    const WORDS: usize = 2;
}

/// Whether this target supports zero-copy view columns: little-endian
/// words (the store format is little-endian) and the expected in-memory
/// layout for `(u64, u64)` interval pairs (not guaranteed by the Rust
/// ABI, hence probed). When `false`, loaders must fall back to bulk
/// decoding into owned columns.
pub fn zero_copy_supported() -> bool {
    if !cfg!(target_endian = "little") {
        return false;
    }
    if std::mem::size_of::<(u64, u64)>() != 16 || std::mem::align_of::<(u64, u64)>() > 8 {
        return false;
    }
    let probe: (u64, u64) = (0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
    let words: [u64; 2] = unsafe { std::mem::transmute(probe) };
    words == [0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210]
}

/// A read-only region of `u64` words that an arena's view columns may
/// borrow from. Heap buffers implement it here; the store layer
/// implements it for file mappings, which is how a mapped arena keeps
/// its mapping alive without this crate knowing about files.
pub trait WordRegion: Send + Sync {
    /// The words of the region.
    fn words(&self) -> &[u64];
}

impl WordRegion for Box<[u64]> {
    fn words(&self) -> &[u64] {
        self
    }
}

/// The buffer a zero-copy arena's view columns borrow from.
pub enum ArenaBacking {
    /// A heap-owned word buffer (the copying open path, and the only
    /// option when the platform lacks memory mapping).
    Owned(Box<[u64]>),
    /// An externally managed region — typically a read-only file mapping
    /// whose pages the OS loads on demand. Dropped (unmapped) with the
    /// arena.
    Mapped(Box<dyn WordRegion>),
}

impl ArenaBacking {
    fn words(&self) -> &[u64] {
        match self {
            ArenaBacking::Owned(b) => b,
            ArenaBacking::Mapped(m) => m.words(),
        }
    }

    /// `"owned"` or `"mapped"`.
    pub fn kind(&self) -> &'static str {
        match self {
            ArenaBacking::Owned(_) => "owned",
            ArenaBacking::Mapped(_) => "mapped",
        }
    }
}

impl From<Box<[u64]>> for ArenaBacking {
    fn from(b: Box<[u64]>) -> Self {
        ArenaBacking::Owned(b)
    }
}

/// One arena column: owned, or a span of the shared backing buffer
/// (`off`/`len` in words/elements, resolved by [`DatasetArena::col`]).
#[derive(Clone)]
enum Col<T> {
    Owned(Vec<T>),
    View { off: usize, len: usize },
}

/// Owned columns for building a [`DatasetArena`] — the bulk-load input of
/// the v2 store, and the row buffer every arena made from polygons is
/// appended to ([`ArenaColumns::push`]). Field meanings match the module
/// docs; all offset tables are `len + 1` prefix arrays starting at 0.
#[derive(Clone, Debug, Default)]
pub struct ArenaColumns {
    /// Scenario-unique dataset name (e.g. `"OLE"`).
    pub name: String,
    /// Per-object MBR.
    pub mbrs: Vec<Rect>,
    /// Per-object representative interior point (NaN pair = none).
    pub interior: Vec<Point>,
    /// Per-object span of `p_pool`: `n + 1` prefix offsets.
    pub p_offs: Vec<u64>,
    /// Per-object span of `c_pool`: `n + 1` prefix offsets.
    pub c_offs: Vec<u64>,
    /// Flat pool of `P` intervals, normalized within each object span.
    pub p_pool: Vec<(u64, u64)>,
    /// Flat pool of `C` intervals, normalized within each object span.
    pub c_pool: Vec<(u64, u64)>,
    /// Per-object span of rings: `n + 1` prefix offsets into the ring
    /// table (ring 0 of each object is its outer ring).
    pub obj_ring_offs: Vec<u64>,
    /// Per-ring span of `verts`: `n_rings + 1` global prefix offsets.
    pub ring_vert_offs: Vec<u64>,
    /// Flat pool of ring vertices (unclosed, winding normalized).
    pub verts: Vec<Point>,
}

impl ArenaColumns {
    /// Empty columns for a dataset called `name`, offset tables seeded.
    pub fn new(name: impl Into<String>) -> ArenaColumns {
        ArenaColumns {
            name: name.into(),
            p_offs: vec![0],
            c_offs: vec![0],
            obj_ring_offs: vec![0],
            ring_vert_offs: vec![0],
            ..ArenaColumns::default()
        }
    }

    /// Appends `polygon` with its approximation `april` as the next
    /// object: MBR from the polygon, representative interior point
    /// computed here (NaN sentinel for degenerate slivers), then the
    /// interval spans and rings. This is the row-append routine every
    /// arena made from polygons goes through.
    pub fn push(&mut self, polygon: &Polygon, april: AprilRef<'_>, scratch: &mut InteriorScratch) {
        let interior = try_interior_point_with(polygon, scratch).unwrap_or(NO_INTERIOR);
        self.push_row(*polygon.mbr(), interior, april, polygon);
    }

    /// Appends one row from its parts (shared by [`ArenaColumns::push`]
    /// and [`DatasetArena::select`]).
    fn push_row(&mut self, mbr: Rect, interior: Point, april: AprilRef<'_>, geom: &dyn Areal) {
        self.mbrs.push(mbr);
        self.interior.push(interior);
        self.p_pool.extend_from_slice(april.p.intervals());
        self.c_pool.extend_from_slice(april.c.intervals());
        self.p_offs.push(self.p_pool.len() as u64);
        self.c_offs.push(self.c_pool.len() as u64);
        geom.for_each_ring(&mut |ring| {
            self.verts.extend_from_slice(ring);
            self.ring_vert_offs.push(self.verts.len() as u64);
        });
        self.obj_ring_offs
            .push((self.ring_vert_offs.len() - 1) as u64);
    }

    /// Appends every row of `chunk` (columns seeded by
    /// [`ArenaColumns::new`]), rebasing its offsets.
    fn append(&mut self, chunk: &ArenaColumns) {
        fn rebase(dst: &mut Vec<u64>, src: &[u64], base: u64) {
            dst.extend(src[1..].iter().map(|o| o + base));
        }
        rebase(&mut self.p_offs, &chunk.p_offs, self.p_pool.len() as u64);
        rebase(&mut self.c_offs, &chunk.c_offs, self.c_pool.len() as u64);
        let rings = (self.ring_vert_offs.len() - 1) as u64;
        rebase(&mut self.obj_ring_offs, &chunk.obj_ring_offs, rings);
        rebase(
            &mut self.ring_vert_offs,
            &chunk.ring_vert_offs,
            self.verts.len() as u64,
        );
        self.mbrs.extend_from_slice(&chunk.mbrs);
        self.interior.extend_from_slice(&chunk.interior);
        self.p_pool.extend_from_slice(&chunk.p_pool);
        self.c_pool.extend_from_slice(&chunk.c_pool);
        self.verts.extend_from_slice(&chunk.verts);
    }
}

/// One build worker's retained buffers: the rasterizer's and the
/// interior-point search's.
#[derive(Default)]
struct BuildScratch {
    raster: RasterScratch,
    interior: InteriorScratch,
}

/// The interior-column sentinel for "no detectable interior".
const NO_INTERIOR: Point = Point::new(f64::NAN, f64::NAN);

/// Word offsets (into the backing buffer) and element counts of each
/// column for a zero-copy open — computed by the v2 store from its
/// section layout.
#[derive(Clone, Copy, Debug)]
pub struct ColumnSpans {
    /// Word offset of the MBR column.
    pub mbrs: usize,
    /// Word offset of the interior-point column.
    pub interior: usize,
    /// Word offset of the `P` span table.
    pub p_offs: usize,
    /// Word offset of the `C` span table.
    pub c_offs: usize,
    /// Word offset of the `P` interval pool.
    pub p_pool: usize,
    /// Word offset of the `C` interval pool.
    pub c_pool: usize,
    /// Word offset of the object → ring offset table.
    pub obj_ring_offs: usize,
    /// Word offset of the ring → vertex offset table.
    pub ring_vert_offs: usize,
    /// Word offset of the vertex pool.
    pub verts: usize,
    /// Object count.
    pub n_objects: usize,
    /// Total ring count.
    pub n_rings: usize,
    /// Total vertex count.
    pub n_vertices: usize,
    /// Total `P` interval count.
    pub n_p: usize,
    /// Total `C` interval count.
    pub n_c: usize,
}

/// A whole preprocessed dataset in columnar form. See the module docs.
pub struct DatasetArena {
    name: String,
    mbrs: Col<Rect>,
    interior: Col<Point>,
    p_offs: Col<u64>,
    c_offs: Col<u64>,
    p_pool: Col<(u64, u64)>,
    c_pool: Col<(u64, u64)>,
    obj_ring_offs: Col<u64>,
    ring_vert_offs: Col<u64>,
    verts: Col<Point>,
    backing: Option<ArenaBacking>,
}

impl DatasetArena {
    /// Preprocesses `polygons` into an arena: rasterizes each polygon's
    /// APRIL approximation on `grid`, capped at `max_intervals` intervals
    /// per list (the lists of [`stj_raster::AprilApprox::build_capped`],
    /// from a per-worker [`RasterScratch`]; `usize::MAX` keeps full
    /// resolution), and computes its interior point. `threads` workers
    /// claim chunks of objects dynamically and fill per-worker column
    /// chunks, which are concatenated in input order, so the result does
    /// not depend on `threads`.
    pub fn build(
        name: &str,
        polygons: &[Polygon],
        grid: &Grid,
        max_intervals: usize,
        threads: usize,
    ) -> DatasetArena {
        let fill = |cols: &mut ArenaColumns, polys: &[Polygon], scratch: &mut BuildScratch| {
            for p in polys {
                let april = scratch.raster.april(p, grid, max_intervals);
                cols.push(p, april, &mut scratch.interior);
            }
        };
        let mut cols = ArenaColumns::new(name);
        let chunks: Vec<&[Polygon]> = polygons.chunks(BUILD_CHUNK).collect();
        let threads = threads.clamp(1, chunks.len().max(1));
        if threads == 1 {
            fill(&mut cols, polygons, &mut BuildScratch::default());
        } else {
            let next = AtomicUsize::new(0);
            let mut built: Vec<(usize, ArenaColumns)> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut scratch = BuildScratch::default();
                            let mut mine = Vec::new();
                            loop {
                                let k = next.fetch_add(1, Ordering::Relaxed);
                                let Some(polys) = chunks.get(k) else {
                                    break mine;
                                };
                                let mut chunk = ArenaColumns::new(String::new());
                                fill(&mut chunk, polys, &mut scratch);
                                mine.push((k, chunk));
                            }
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("arena build worker panicked"))
                    .collect()
            });
            built.sort_unstable_by_key(|&(k, _)| k);
            for (_, chunk) in built {
                cols.append(&chunk);
            }
        }
        DatasetArena::from_columns(cols).expect("built columns are valid")
    }

    /// Converts owned rows into columnar form through
    /// [`ArenaColumns::push`] (the row's MBR is the polygon's).
    pub fn from_dataset(ds: &Dataset) -> DatasetArena {
        let mut cols = ArenaColumns::new(ds.name.clone());
        let mut scratch = InteriorScratch::default();
        for o in &ds.objects {
            cols.push(&o.polygon, o.april.as_ref(), &mut scratch);
        }
        DatasetArena::from_columns(cols).expect("dataset invariants hold")
    }

    /// Builds an arena from owned columns, validating structure: offset
    /// tables monotone and bounded, ≥ 1 ring per object, ≥ 3 vertices per
    /// ring, finite coordinates, normalized interval spans.
    pub fn from_columns(cols: ArenaColumns) -> Result<DatasetArena, ArenaError> {
        validate_columns(
            &cols.mbrs,
            &cols.interior,
            &cols.p_offs,
            &cols.c_offs,
            &cols.p_pool,
            &cols.c_pool,
            &cols.obj_ring_offs,
            &cols.ring_vert_offs,
            &cols.verts,
        )?;
        Ok(DatasetArena {
            name: cols.name,
            mbrs: Col::Owned(cols.mbrs),
            interior: Col::Owned(cols.interior),
            p_offs: Col::Owned(cols.p_offs),
            c_offs: Col::Owned(cols.c_offs),
            p_pool: Col::Owned(cols.p_pool),
            c_pool: Col::Owned(cols.c_pool),
            obj_ring_offs: Col::Owned(cols.obj_ring_offs),
            ring_vert_offs: Col::Owned(cols.ring_vert_offs),
            verts: Col::Owned(cols.verts),
            backing: None,
        })
    }

    /// Builds a zero-copy arena whose columns are views into `backing`
    /// at the word offsets given by `spans` — the v2 store's mmap-style
    /// open. Runs the same structural validation as
    /// [`DatasetArena::from_columns`] plus bounds checks of every span.
    ///
    /// Fails with a descriptive error when the target lacks zero-copy
    /// support (see [`zero_copy_supported`]); callers should bulk-load
    /// instead.
    pub fn from_backing(
        name: String,
        backing: impl Into<ArenaBacking>,
        spans: ColumnSpans,
    ) -> Result<DatasetArena, ArenaError> {
        if !zero_copy_supported() {
            return Err(err("zero-copy views unsupported on this target"));
        }
        let backing = backing.into();
        let words = backing.words().len();
        let span = |off: usize, len: usize, w: usize, what: &str| -> Result<(), ArenaError> {
            let need = len
                .checked_mul(w)
                .and_then(|n| n.checked_add(off))
                .ok_or_else(|| err(format!("{what} span overflows")))?;
            if need > words {
                return Err(err(format!(
                    "{what} span [{off}, {need}) exceeds backing ({words} words)"
                )));
            }
            Ok(())
        };
        let n = spans.n_objects;
        span(spans.mbrs, n, 4, "mbrs")?;
        span(spans.interior, n, 2, "interior")?;
        span(spans.p_offs, n + 1, 1, "p_offs")?;
        span(spans.c_offs, n + 1, 1, "c_offs")?;
        span(spans.p_pool, spans.n_p, 2, "p_pool")?;
        span(spans.c_pool, spans.n_c, 2, "c_pool")?;
        span(spans.obj_ring_offs, n + 1, 1, "obj_ring_offs")?;
        span(spans.ring_vert_offs, spans.n_rings + 1, 1, "ring_vert_offs")?;
        span(spans.verts, spans.n_vertices, 2, "verts")?;
        let arena = DatasetArena {
            name,
            mbrs: Col::View {
                off: spans.mbrs,
                len: n,
            },
            interior: Col::View {
                off: spans.interior,
                len: n,
            },
            p_offs: Col::View {
                off: spans.p_offs,
                len: n + 1,
            },
            c_offs: Col::View {
                off: spans.c_offs,
                len: n + 1,
            },
            p_pool: Col::View {
                off: spans.p_pool,
                len: spans.n_p,
            },
            c_pool: Col::View {
                off: spans.c_pool,
                len: spans.n_c,
            },
            obj_ring_offs: Col::View {
                off: spans.obj_ring_offs,
                len: n + 1,
            },
            ring_vert_offs: Col::View {
                off: spans.ring_vert_offs,
                len: spans.n_rings + 1,
            },
            verts: Col::View {
                off: spans.verts,
                len: spans.n_vertices,
            },
            backing: Some(backing),
        };
        validate_columns(
            arena.mbrs(),
            arena.col(&arena.interior),
            arena.col(&arena.p_offs),
            arena.col(&arena.c_offs),
            arena.col(&arena.p_pool),
            arena.col(&arena.c_pool),
            arena.col(&arena.obj_ring_offs),
            arena.col(&arena.ring_vert_offs),
            arena.col(&arena.verts),
        )?;
        Ok(arena)
    }

    /// Resolves a column to its slice.
    fn col<'a, T: Pod>(&'a self, c: &'a Col<T>) -> &'a [T] {
        match c {
            Col::Owned(v) => v,
            Col::View { off, len } => {
                let backing = self.backing.as_ref().expect("view column without backing");
                let words = &backing.words()[*off..*off + *len * T::WORDS];
                // SAFETY: the span was bounds-checked at construction,
                // `words` is 8-aligned (it borrows a `[u64]`), `T: Pod`
                // guarantees size/alignment, and `from_backing` refused
                // targets where the reinterpretation is unsound.
                unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<T>(), *len) }
            }
        }
    }

    /// Number of objects.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.mbrs {
            Col::Owned(v) => v.len(),
            Col::View { len, .. } => *len,
        }
    }

    /// Whether the arena holds no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dataset name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the columns are zero-copy views into a backing buffer
    /// (as opposed to owned, bulk-decoded vectors).
    #[inline]
    pub fn is_zero_copy(&self) -> bool {
        self.backing.is_some()
    }

    /// How the arena's memory is held: `"columns"` for owned column
    /// vectors, `"owned"` for a zero-copy arena over a heap buffer,
    /// `"mapped"` for one borrowing a file mapping.
    #[inline]
    pub fn backing_kind(&self) -> &'static str {
        match &self.backing {
            None => "columns",
            Some(b) => b.kind(),
        }
    }

    /// The MBR column — the MBR join sweeps this directly.
    #[inline]
    pub fn mbrs(&self) -> &[Rect] {
        self.col(&self.mbrs)
    }

    /// Tight bounding rectangle of the whole dataset.
    pub fn extent(&self) -> Rect {
        let mut r = Rect::empty();
        for m in self.mbrs() {
            r.grow_rect(m);
        }
        r
    }

    /// Borrowed view of object `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn object(&self, i: usize) -> ObjectRef<'_> {
        let mbr = &self.mbrs()[i];
        let p_offs = self.col(&self.p_offs);
        let c_offs = self.col(&self.c_offs);
        let april = AprilRef {
            p: IntervalsRef::new(
                &self.col(&self.p_pool)[p_offs[i] as usize..p_offs[i + 1] as usize],
            ),
            c: IntervalsRef::new(
                &self.col(&self.c_pool)[c_offs[i] as usize..c_offs[i + 1] as usize],
            ),
        };
        let ring_offs = self.col(&self.obj_ring_offs);
        let (rlo, rhi) = (ring_offs[i] as usize, ring_offs[i + 1] as usize);
        let geom = PolyView::new(
            self.col(&self.verts),
            &self.col(&self.ring_vert_offs)[rlo..=rhi],
            *mbr,
            self.col(&self.interior)[i],
        );
        ObjectRef { mbr, april, geom }
    }

    /// Total vertex count across all objects.
    pub fn total_vertices(&self) -> usize {
        self.col(&self.verts).len()
    }

    /// The interior-point column (NaN pair = no detectable interior).
    pub fn interior_points(&self) -> &[Point] {
        self.col(&self.interior)
    }

    /// Per-object `P` span table (`len() + 1` prefix offsets).
    pub fn p_offs(&self) -> &[u64] {
        self.col(&self.p_offs)
    }

    /// Per-object `C` span table (`len() + 1` prefix offsets).
    pub fn c_offs(&self) -> &[u64] {
        self.col(&self.c_offs)
    }

    /// The flat `P` interval pool.
    pub fn p_pool(&self) -> &[(u64, u64)] {
        self.col(&self.p_pool)
    }

    /// The flat `C` interval pool.
    pub fn c_pool(&self) -> &[(u64, u64)] {
        self.col(&self.c_pool)
    }

    /// Object → ring prefix offsets (`len() + 1` entries).
    pub fn obj_ring_offs(&self) -> &[u64] {
        self.col(&self.obj_ring_offs)
    }

    /// Ring → vertex prefix offsets (`n_rings + 1` entries, global).
    pub fn ring_vert_offs(&self) -> &[u64] {
        self.col(&self.ring_vert_offs)
    }

    /// The flat vertex pool.
    pub fn verts(&self) -> &[Point] {
        self.col(&self.verts)
    }

    /// Gathers the objects at `ids` (in that order) into a new arena
    /// with owned columns — the shard-extraction step of out-of-core
    /// preprocessing. APRIL intervals, rings and vertices are copied
    /// verbatim, so a gathered object is bit-identical to its source
    /// slot and joins involving it produce identical outcomes.
    ///
    /// # Panics
    /// Panics if any id is `>= self.len()`.
    pub fn select(&self, name: &str, ids: &[u32]) -> DatasetArena {
        let mut cols = ArenaColumns::new(name);
        for &id in ids {
            let o = self.object(id as usize);
            cols.push_row(*o.mbr, o.geom.interior(), o.april, &o.geom);
        }
        DatasetArena::from_columns(cols).expect("gather from a valid arena stays valid")
    }

    /// Clones the arena's contents back into owned columns.
    #[cfg(test)]
    fn to_columns(&self) -> ArenaColumns {
        ArenaColumns {
            name: self.name.clone(),
            mbrs: self.mbrs().to_vec(),
            interior: self.col(&self.interior).to_vec(),
            p_offs: self.col(&self.p_offs).to_vec(),
            c_offs: self.col(&self.c_offs).to_vec(),
            p_pool: self.col(&self.p_pool).to_vec(),
            c_pool: self.col(&self.c_pool).to_vec(),
            obj_ring_offs: self.col(&self.obj_ring_offs).to_vec(),
            ring_vert_offs: self.col(&self.ring_vert_offs).to_vec(),
            verts: self.col(&self.verts).to_vec(),
        }
    }
}

impl PartialEq for DatasetArena {
    /// Content equality over resolved columns (representation — owned vs
    /// zero-copy — does not matter).
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.mbrs() == other.mbrs()
            && self
                .col(&self.interior)
                .iter()
                .zip(other.col(&other.interior))
                .all(|(a, b)| {
                    a == b || (a.x.is_nan() && a.y.is_nan() && b.x.is_nan() && b.y.is_nan())
                })
            && self.col(&self.interior).len() == other.col(&other.interior).len()
            && self.col(&self.p_offs) == other.col(&other.p_offs)
            && self.col(&self.c_offs) == other.col(&other.c_offs)
            && self.col(&self.p_pool) == other.col(&other.p_pool)
            && self.col(&self.c_pool) == other.col(&other.c_pool)
            && self.col(&self.obj_ring_offs) == other.col(&other.obj_ring_offs)
            && self.col(&self.ring_vert_offs) == other.col(&other.ring_vert_offs)
            && self.col(&self.verts) == other.col(&other.verts)
    }
}

impl std::fmt::Debug for DatasetArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatasetArena")
            .field("name", &self.name)
            .field("objects", &self.len())
            .field("rings", &(self.col(&self.ring_vert_offs).len() - 1))
            .field("vertices", &self.col(&self.verts).len())
            .field("p_intervals", &self.col(&self.p_pool).len())
            .field("c_intervals", &self.col(&self.c_pool).len())
            .field("backing", &self.backing_kind())
            .finish()
    }
}

/// A one-row arena at the default interval budget (unit-test shorthand).
#[cfg(test)]
pub(crate) fn one_row(polygon: Polygon, grid: &Grid) -> DatasetArena {
    DatasetArena::build("one", &[polygon], grid, crate::DEFAULT_MAX_INTERVALS, 1)
}

/// Shared structural validation — see [`DatasetArena::from_columns`].
#[allow(clippy::too_many_arguments)]
fn validate_columns(
    mbrs: &[Rect],
    interior: &[Point],
    p_offs: &[u64],
    c_offs: &[u64],
    p_pool: &[(u64, u64)],
    c_pool: &[(u64, u64)],
    obj_ring_offs: &[u64],
    ring_vert_offs: &[u64],
    verts: &[Point],
) -> Result<(), ArenaError> {
    let n = mbrs.len();
    if interior.len() != n {
        return Err(err("interior column length mismatch"));
    }
    check_offsets(p_offs, n, p_pool.len(), "p_offs")?;
    check_offsets(c_offs, n, c_pool.len(), "c_offs")?;
    let n_rings = ring_vert_offs.len().saturating_sub(1);
    check_offsets(obj_ring_offs, n, n_rings, "obj_ring_offs")?;
    check_offsets(ring_vert_offs, n_rings, verts.len(), "ring_vert_offs")?;
    for w in obj_ring_offs.windows(2) {
        if w[1] == w[0] {
            return Err(err("object with zero rings"));
        }
    }
    for w in ring_vert_offs.windows(2) {
        if w[1] - w[0] < 3 {
            return Err(err(format!("ring with {} vertices (< 3)", w[1] - w[0])));
        }
    }
    for (i, m) in mbrs.iter().enumerate() {
        if !(m.min.is_finite() && m.max.is_finite() && m.min.x <= m.max.x && m.min.y <= m.max.y) {
            return Err(err(format!("object {i}: invalid MBR")));
        }
    }
    for (i, p) in interior.iter().enumerate() {
        let nan_sentinel = p.x.is_nan() && p.y.is_nan();
        if !p.is_finite() && !nan_sentinel {
            return Err(err(format!("object {i}: invalid interior point")));
        }
    }
    if verts.iter().any(|v| !v.is_finite()) {
        return Err(err("non-finite vertex coordinate"));
    }
    check_pool(p_offs, p_pool, "P")?;
    check_pool(c_offs, c_pool, "C")?;
    Ok(())
}

/// Validates a prefix-offset table: `n + 1` entries, first 0, monotone
/// non-decreasing, last equal to the pool length.
fn check_offsets(offs: &[u64], n: usize, pool_len: usize, what: &str) -> Result<(), ArenaError> {
    if offs.len() != n + 1 {
        return Err(err(format!(
            "{what}: {} entries for {n} objects (want {})",
            offs.len(),
            n + 1
        )));
    }
    if offs[0] != 0 {
        return Err(err(format!("{what}: first offset {} != 0", offs[0])));
    }
    if offs.windows(2).any(|w| w[1] < w[0]) {
        return Err(err(format!("{what}: offsets not monotone")));
    }
    if offs[offs.len() - 1] != pool_len as u64 {
        return Err(err(format!(
            "{what}: last offset {} != pool length {pool_len}",
            offs[offs.len() - 1]
        )));
    }
    Ok(())
}

/// Validates that every object span of an interval pool is normalized:
/// non-empty intervals, sorted, pairwise disjoint and non-adjacent.
fn check_pool(offs: &[u64], pool: &[(u64, u64)], what: &str) -> Result<(), ArenaError> {
    for (i, w) in offs.windows(2).enumerate() {
        let span = &pool[w[0] as usize..w[1] as usize];
        for &(s, e) in span {
            if e <= s {
                return Err(err(format!("object {i}: empty {what} interval [{s},{e})")));
            }
        }
        for pair in span.windows(2) {
            if pair[1].0 <= pair[0].1 {
                return Err(err(format!("object {i}: {what} intervals not normalized")));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::SpatialObject;
    use crate::DEFAULT_MAX_INTERVALS;
    use stj_raster::AprilApprox;

    fn grid() -> Grid {
        Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 8)
    }

    fn polygons() -> Vec<Polygon> {
        vec![
            Polygon::rect(Rect::from_coords(5.0, 5.0, 40.0, 40.0)),
            Polygon::from_coords(
                vec![(50.0, 10.0), (90.0, 10.0), (90.0, 45.0), (50.0, 45.0)],
                vec![vec![(60.0, 20.0), (80.0, 20.0), (80.0, 35.0), (60.0, 35.0)]],
            )
            .unwrap(),
            Polygon::from_coords(vec![(10.0, 60.0), (45.0, 60.0), (20.0, 90.0)], vec![]).unwrap(),
        ]
    }

    fn arena() -> DatasetArena {
        DatasetArena::build("tiny", &polygons(), &grid(), DEFAULT_MAX_INTERVALS, 1)
    }

    /// `n` small squares on a 10 × 10 lattice, cycling.
    fn squares(n: usize) -> Vec<Polygon> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64 * 10.0;
                let y = (i / 10 % 10) as f64 * 10.0;
                Polygon::rect(Rect::from_coords(x + 1.0, y + 1.0, x + 8.0, y + 8.0))
            })
            .collect()
    }

    #[test]
    fn build_mirrors_polygons() {
        let polys = polygons();
        let arena = arena();
        assert_eq!(arena.len(), polys.len());
        assert_eq!(arena.name(), "tiny");
        assert!(!arena.is_zero_copy());
        let mut extent = Rect::empty();
        for (i, p) in polys.iter().enumerate() {
            let v = arena.object(i);
            let april = AprilApprox::build_capped(p, &grid(), DEFAULT_MAX_INTERVALS);
            assert_eq!(*v.mbr, *p.mbr());
            assert_eq!(v.num_vertices(), p.num_vertices());
            assert_eq!(v.april.p.intervals(), april.p.intervals());
            assert_eq!(v.april.c.intervals(), april.c.intervals());
            assert_eq!(p.locate(v.geom.interior()), stj_geom::Location::Inside);
            extent.grow_rect(p.mbr());
        }
        assert_eq!(arena.total_vertices(), 4 + 8 + 3);
        assert_eq!(arena.extent(), extent);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // Uneven chunks: the last one is partial.
        let polys = squares(3 * BUILD_CHUNK + 7);
        let seq = DatasetArena::build("T", &polys, &grid(), DEFAULT_MAX_INTERVALS, 1);
        for threads in [2, 3, 64] {
            let par = DatasetArena::build("T", &polys, &grid(), DEFAULT_MAX_INTERVALS, threads);
            assert_eq!(par, seq, "{threads} threads");
        }
    }

    #[test]
    fn from_dataset_matches_build() {
        let polys = polygons();
        let ds = Dataset {
            name: "tiny".to_string(),
            objects: polys
                .iter()
                .map(|p| {
                    let april = AprilApprox::build_capped(p, &grid(), DEFAULT_MAX_INTERVALS);
                    SpatialObject::from_parts(p.clone(), april)
                })
                .collect(),
        };
        assert_eq!(DatasetArena::from_dataset(&ds), arena());
    }

    #[test]
    fn degenerate_sliver_stores_nan_interior() {
        // Zero-area: every vertex on x = 100.
        let sliver =
            Polygon::from_coords(vec![(100.0, 10.0), (100.0, 50.0), (100.0, 90.0)], vec![])
                .unwrap();
        let a = DatasetArena::build("s", &[sliver], &grid(), DEFAULT_MAX_INTERVALS, 1);
        assert!(a.interior_points()[0].x.is_nan());
        assert!(stj_geom::Areal::interior_points(&a.object(0).geom).is_empty());
    }

    #[test]
    fn arena_views_relate_like_polygons() {
        use stj_de9im::relate;
        let polys = polygons();
        let arena = arena();
        for i in 0..polys.len() {
            for j in 0..polys.len() {
                let owned = relate(&polys[i], &polys[j]);
                let viewed = relate(&arena.object(i).geom, &arena.object(j).geom);
                assert_eq!(owned, viewed, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn columns_roundtrip_and_compare_equal() {
        let arena = arena();
        let rebuilt = DatasetArena::from_columns(arena.to_columns()).unwrap();
        assert_eq!(arena, rebuilt);
    }

    #[test]
    fn validation_rejects_corrupt_columns() {
        let base = arena().to_columns();

        let mut c = base.clone();
        c.p_offs[1] = u64::MAX;
        assert!(DatasetArena::from_columns(c).is_err());

        let mut c = base.clone();
        c.ring_vert_offs.pop();
        assert!(DatasetArena::from_columns(c).is_err());

        let mut c = base.clone();
        if let Some(iv) = c.c_pool.first_mut() {
            *iv = (5, 5); // empty interval
        }
        assert!(DatasetArena::from_columns(c).is_err());

        let mut c = base.clone();
        c.verts[0] = Point::new(f64::NAN, 0.0);
        assert!(DatasetArena::from_columns(c).is_err());

        let mut c = base.clone();
        c.mbrs[0] = Rect {
            min: Point::new(1.0, 1.0),
            max: Point::new(0.0, 0.0),
        };
        assert!(DatasetArena::from_columns(c).is_err());
    }

    #[test]
    fn empty_dataset_arena() {
        for threads in [1, 4] {
            let arena = DatasetArena::build("empty", &[], &grid(), DEFAULT_MAX_INTERVALS, threads);
            assert!(arena.is_empty());
            assert_eq!(arena.mbrs(), &[] as &[Rect]);
        }
    }

    #[test]
    fn select_gathers_bit_identical_objects() {
        let arena = arena();
        // Reversed subset: order must follow `ids`, not the source.
        let sub = arena.select("sub", &[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.name(), "sub");
        assert_eq!(sub.backing_kind(), "columns");
        for (k, &src) in [2u32, 0].iter().enumerate() {
            let a = sub.object(k);
            let b = arena.object(src as usize);
            assert_eq!(a.mbr, b.mbr);
            assert_eq!(a.april.p.intervals(), b.april.p.intervals());
            assert_eq!(a.april.c.intervals(), b.april.c.intervals());
            assert_eq!(a.num_vertices(), b.num_vertices());
        }
        // Selecting everything in order reproduces the arena.
        let all: Vec<u32> = (0..arena.len() as u32).collect();
        let full = arena.select(arena.name(), &all);
        assert_eq!(full, arena);
        // Empty selection is a valid empty arena.
        assert!(arena.select("none", &[]).is_empty());
    }

    #[test]
    fn zero_copy_probe_runs() {
        // The probe must at least not lie on the build host: on x86-64 /
        // aarch64 Linux it is expected to hold.
        let _ = zero_copy_supported();
    }
}
