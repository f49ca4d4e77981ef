//! # stjoin — Scalable Spatial Topology Joins
//!
//! A from-scratch Rust implementation of the spatial topology join
//! pipeline of Georgiadis & Mamoulis, *Scalable Spatial Topology Joins*
//! (EDBT 2026): detect the most specific topological relation
//! (`disjoint`, `meets`, `intersects`, `equals`, `inside`, `contains`,
//! `covered by`, `covers`) between polygon pairs at scale, using raster
//! interval approximations to avoid most DE-9IM matrix computations.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`geom`] — geometry kernel (robust predicates, polygons, point
//!   location, WKT);
//! - [`de9im`] — DE-9IM matrices, Table-1 masks, topological relations,
//!   and the `relate` refinement oracle;
//! - [`raster`] — Hilbert grid, interval lists, APRIL approximations;
//! - [`index`] — MBR classification (Figure 4) and the MBR join filter
//!   step;
//! - [`core`] — the P+C pipeline ([`find_relation`]), `relate_p`
//!   ([`relate_p`]), their per-worker [`PairCtx`] forms
//!   ([`find_relation_with`], [`relate_p_with`]), the ST2/OP2/APRIL
//!   baselines behind [`JoinMethod::find_relation`], and the
//!   streaming [`TopologyJoin`] executor;
//! - [`datagen`] — seeded synthetic datasets mirroring the paper's
//!   evaluation scenarios;
//! - [`store`] — persistence: the columnar STJD v2 format (bulk-load
//!   or zero-copy open into a [`DatasetArena`]), reading of the legacy
//!   v1 record format, and WKT interchange;
//! - [`obs`] — observability: per-stage latency histograms, join
//!   profiles, JSON telemetry, progress heartbeats;
//! - [`check`] — the differential & metamorphic correctness harness
//!   behind `stj check` (adversarial pairs, invariants (a)–(e),
//!   shrinking, WKT repro dumps);
//! - [`serve`] — the online query service behind `stj serve`: ad-hoc
//!   relate probes, stored-pair lookups, and bounded joins over
//!   resident zero-copy arenas, with load shedding, deadlines, a probe
//!   cache, and a `/stats` report.
//!
//! ## Quickstart
//!
//! ```
//! use stjoin::geom::wkt::polygon_from_wkt;
//! use stjoin::prelude::*;
//!
//! // One shared grid per join scenario (the paper uses order 16).
//! let grid = Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 12);
//!
//! // A park with a clearing (a hole), a lake in the park, and a pond in
//! // the clearing.
//! let polygons = [
//!     "POLYGON ((5 5, 95 5, 95 95, 5 95, 5 5), (60 60, 80 60, 80 80, 60 80, 60 60))",
//!     "POLYGON ((30 30, 60 35, 55 60, 30 30))",
//!     "POLYGON ((65 65, 75 65, 75 75, 65 75, 65 65))",
//! ]
//! .map(|w| polygon_from_wkt(w).unwrap());
//!
//! // Preprocess once into an arena: per row an MBR, APRIL `P`/`C`
//! // interval lists and an interior point (1 worker thread here).
//! let arena = DatasetArena::build("demo", &polygons, &grid, DEFAULT_MAX_INTERVALS, 1);
//! let (park, lake, pond) = (arena.object(0), arena.object(1), arena.object(2));
//!
//! // The pipeline works on borrowed arena rows.
//! let out = find_relation(lake, park);
//! assert_eq!(out.relation, TopoRelation::Inside);
//! // Decided from interval lists alone — no DE-9IM computation:
//! assert_eq!(out.determination, Determination::IntermediateFilter);
//! // The pond sits in the park's hole, not in its material.
//! assert_eq!(find_relation(pond, park).relation, TopoRelation::Disjoint);
//!
//! // Predicate queries test one relation, cheaper than the most
//! // specific one; the full DE-9IM matrix is there when you need it.
//! assert!(relate_p(lake, park, TopoRelation::Inside).holds);
//! let m = relate(&lake.geom, &park.geom);
//! assert_eq!(TopoRelation::most_specific(&m), TopoRelation::Inside);
//! ```

pub use stj_check as check;
pub use stj_core as core;
pub use stj_datagen as datagen;
pub use stj_de9im as de9im;
pub use stj_geom as geom;
pub use stj_index as index;
pub use stj_obs as obs;
pub use stj_raster as raster;
pub use stj_serve as serve;
pub use stj_store as store;

pub use stj_core::{
    find_relation, find_relation_with, relate_p, relate_p_with, AdaptiveMode, AdaptiveModel,
    AdaptiveReport, DatasetArena, Determination, FindOutcome, JoinMethod, JoinResult, Link,
    ObjectRef, PairCtx, PipelineStats, RelateOutcome, TopologyJoin, DEFAULT_MAX_INTERVALS,
};
pub use stj_de9im::{relate, De9Im, Mask, TopoRelation};
pub use stj_geom::{MultiPolygon, Point, Polygon, Rect, Ring, Segment};
pub use stj_index::{mbr_join, mbr_join_parallel, MbrRelation, TileTask, Tiling};
pub use stj_raster::{AprilApprox, Grid, IntervalList};

/// Convenience glob-import module: `use stjoin::prelude::*;`.
pub mod prelude {
    pub use stj_core::{
        find_relation, find_relation_with, relate_p, relate_p_with, AdaptiveMode, DatasetArena,
        Determination, FindOutcome, JoinMethod, Link, ObjectRef, PairCtx, PipelineStats,
        TopologyJoin, DEFAULT_MAX_INTERVALS,
    };
    pub use stj_de9im::{relate, De9Im, TopoRelation};
    pub use stj_geom::{MultiPolygon, Point, Polygon, Rect, Ring, Segment};
    pub use stj_index::{mbr_join, mbr_join_parallel, MbrRelation};
    pub use stj_raster::{AprilApprox, Grid, IntervalList};
}
