//! `stj-raster`: raster interval approximations (APRIL) for spatial
//! objects.
//!
//! Implements the substrate of the paper's intermediate filter (Sec 2.3):
//!
//! - [`hilbert`]: Hilbert curve cell enumeration (order ≤ 16, matching
//!   the paper's `2^16 × 2^16` grids);
//! - [`grid::Grid`]: the shared per-scenario raster grid;
//! - [`intervals::IntervalList`]: normalized interval lists with the four
//!   linear merge-join relations of Sec 3.2 (`overlap`, `match`,
//!   `inside`, `contains`);
//! - [`mod@rasterize`]: quadtree descent with a block kernel at its
//!   bottom, emitting `P`/`C` interval lists in time proportional to the
//!   boundary footprint, into a retained [`RasterScratch`];
//! - [`april::AprilApprox`]: the per-object `(P, C)` approximation pair.

pub mod april;
pub mod grid;
pub mod hilbert;
pub mod intervals;
pub mod rasterize;

pub use april::{AprilApprox, AprilRef};
pub use grid::Grid;
pub use intervals::{
    ivs_contains, ivs_inside, ivs_matches, ivs_overlaps, IntervalList, IntervalsRef,
};
pub use rasterize::RasterScratch;
