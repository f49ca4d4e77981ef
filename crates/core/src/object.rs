//! Owned rows accepted by [`DatasetArena::from_dataset`](crate::DatasetArena::from_dataset).
//!
//! The pipeline has one object representation, the arena row
//! ([`crate::ObjectRef`]); these records only carry already-built
//! approximations (e.g. timed separately by a tracer) into an arena.

use stj_geom::{Polygon, Rect};
use stj_raster::AprilApprox;

/// One polygon with its MBR and APRIL approximation on the scenario grid:
/// the row record [`crate::DatasetArena::from_dataset`] appends.
#[derive(Clone, Debug)]
pub struct SpatialObject {
    /// The exact geometry.
    pub polygon: Polygon,
    /// Minimum bounding rectangle.
    pub mbr: Rect,
    /// APRIL `P`/`C` interval lists on the shared grid.
    pub april: AprilApprox,
}

/// Default cap on intervals per APRIL list. Oversized approximations
/// (huge coverage polygons) are coarsened to this budget so the
/// intermediate filter's merge-joins stay far cheaper than the
/// refinement they replace; see [`AprilApprox::with_max_intervals`].
pub const DEFAULT_MAX_INTERVALS: usize = 4096;

impl SpatialObject {
    /// Assembles a row from an already-built approximation. The
    /// approximation must have been built for this polygon on the
    /// scenario grid; this is not re-verified.
    pub fn from_parts(polygon: Polygon, april: AprilApprox) -> SpatialObject {
        let mbr = *polygon.mbr();
        SpatialObject {
            polygon,
            mbr,
            april,
        }
    }
}

/// A named list of rows sharing one grid.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Scenario-unique dataset name (e.g. `"OLE"`).
    pub name: String,
    /// The rows, in object-id order.
    pub objects: Vec<SpatialObject>,
}
