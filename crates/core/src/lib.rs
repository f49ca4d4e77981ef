//! `stj-core`: scalable spatial topology joins — the paper's primary
//! contribution.
//!
//! Implements the three-stage *find relation* pipeline of Georgiadis &
//! Mamoulis (EDBT 2026):
//!
//! 1. an enhanced MBR filter that classifies *how* two MBRs intersect
//!    (via `stj-index`), constraining candidate relations (Sec 3.1);
//! 2. intermediate filters over precomputed APRIL `P`/`C` interval lists
//!    (via `stj-raster`) that decide most pairs without touching the
//!    geometries (Sec 3.2, Figure 5);
//! 3. selective DE-9IM refinement (via `stj-de9im`) for the undetermined
//!    remainder.
//!
//! Entry points:
//!
//! - [`find_relation`] — the P+C pipeline (Algorithm 1);
//! - [`relate_p`] — predicate-specific tests (Sec 3.3, Figure 6);
//! - [`find_relation_with`] / [`relate_p_with`] — the same two pipelines
//!   through a worker's [`PairCtx`] (reused scratch, a profiler, and the
//!   optional adaptive worker); [`JoinMethod::find_relation`] dispatches
//!   a pair to P+C or to one of the paper's comparison methods
//!   ST2 / OP2 / APRIL ([`baselines`]);
//! - [`TopologyJoin`] — the parallel streaming join over two datasets;
//! - [`DatasetArena`] — preprocessed join inputs, one row per object
//!   ([`DatasetArena::build`] rasterizes polygons into it).
//!
//! # Example
//!
//! ```
//! use stj_core::{find_relation, DatasetArena, DEFAULT_MAX_INTERVALS};
//! use stj_geom::{Polygon, Rect};
//! use stj_raster::Grid;
//! use stj_de9im::TopoRelation;
//!
//! let grid = Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 10);
//! let polygons = [
//!     Polygon::rect(Rect::from_coords(10.0, 10.0, 80.0, 80.0)), // park
//!     Polygon::rect(Rect::from_coords(30.0, 30.0, 50.0, 50.0)), // lake
//! ];
//! let arena = DatasetArena::build("demo", &polygons, &grid, DEFAULT_MAX_INTERVALS, 1);
//! // The pipeline consumes borrowed arena rows.
//! let out = find_relation(arena.object(1), arena.object(0));
//! assert_eq!(out.relation, TopoRelation::Inside);
//! ```

pub mod adaptive;
pub mod arena;
pub mod baselines;
pub mod exec;
pub mod filters;
pub mod linking;
pub mod object;
pub mod pipeline;
pub mod relate_pred;
pub mod sharded;

pub use adaptive::{
    AdaptiveCellReport, AdaptiveMode, AdaptiveModel, AdaptiveReport, AdaptiveWorker,
    SKIP_PROBE_INTERVALS, WARMUP_SAMPLES,
};
pub use arena::{
    zero_copy_supported, ArenaBacking, ArenaColumns, ArenaError, ColumnSpans, DatasetArena,
    ObjectRef, WordRegion,
};
pub use baselines::JoinMethod;
pub use exec::{
    mbr_class_labels, BoundedJoinResult, JoinBounds, JoinResult, Link, TopologyJoin,
    STREAM_BATCH_PAIRS,
};
pub use filters::{intermediate_filter, IfOutcome};
pub use object::{Dataset, SpatialObject, DEFAULT_MAX_INTERVALS};
pub use pipeline::{
    find_relation, find_relation_with, Determination, FindOutcome, PairCtx, PipelineStats,
};
pub use relate_pred::{relate_p, relate_p_with, RelateOutcome};
pub use sharded::{external_join, hilbert_partition, ShardPlan, ShardSet, Side};
pub use stj_de9im::RelateScratch;
