//! `stj-store`: persistence for preprocessed join inputs.
//!
//! APRIL approximations are computed once per object (the paper's
//! preprocessing step) and reused across joins; this crate provides the
//! storage side of that workflow:
//!
//! - [`v2`]: the columnar STJD v2 format — polygons, MBRs, interior
//!   points and `P`/`C` interval lists plus the grid they were built on —
//!   that bulk-loads (or zero-copy opens) straight into a
//!   [`stj_core::DatasetArena`], so a join can start without
//!   re-rasterizing anything;
//! - [`binary`]: the legacy v1 record-per-object format, read-only: v1
//!   files migrate into an arena as they are read;
//! - [`wktio`]: plain-text WKT files (one geometry per line) for
//!   interchange with PostGIS/GEOS tooling.

pub mod binary;
pub mod external;
pub mod manifest;
pub mod mmap;
pub mod v2;
pub mod wktio;

pub use binary::StoreError;
pub use external::{external_join_files, write_sharded, ShardedDataset};
pub use manifest::{
    is_manifest_file, read_manifest, read_manifest_file, write_manifest, write_manifest_file,
    ShardEntry, ShardManifest, MANIFEST_MAGIC,
};
pub use mmap::Mapping;
pub use v2::{
    dataset_info, open_arena, open_arena_from_bytes, read_arena, write_arena_v2, DatasetInfo,
};
pub use wktio::{read_wkt_polygons, write_wkt_polygons};
