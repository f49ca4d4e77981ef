//! `stj-geom`: the geometry kernel underneath the spatial topology join
//! pipeline.
//!
//! This crate implements, from scratch, every geometric primitive and
//! predicate the rest of the workspace needs:
//!
//! - [`Point`], [`Segment`], [`Rect`] (axis-aligned MBR), [`Polygon`]
//!   (outer ring + holes) and [`MultiPolygon`];
//! - robust orientation predicates ([`predicates::orient2d`]) using
//!   Shewchuk-style adaptive floating-point filters backed by exact
//!   expansion arithmetic;
//! - exact segment–segment intersection classification
//!   ([`seg_intersect::intersect_segments`]);
//! - point-in-polygon with explicit boundary detection
//!   ([`Polygon::locate`]);
//! - an interior ("representative") point construction
//!   ([`interior_point::interior_point`]);
//! - a plane sweep over segment bounding boxes that reports all
//!   intersecting boundary segment pairs between two polygons
//!   ([`sweep::boundary_pairs`]);
//! - WKT parsing/formatting for interoperability ([`wkt`]).
//!
//! The kernel is deliberately dependency-free: the paper's refinement step
//! uses boost::geometry, and this crate plays that role for the Rust
//! reproduction.

pub mod interior_point;
pub mod locator;
pub mod multipolygon;
pub mod point;
pub mod polygon;
pub mod predicates;
pub mod rect;
pub mod seg_intersect;
pub mod segment;
pub mod sweep;
pub mod validate;
pub mod view;
pub mod wkt;

pub use interior_point::{
    interior_point, try_interior_point, try_interior_point_with, InteriorScratch,
};
pub use locator::EdgeSetLocator;
pub use multipolygon::{Areal, MultiPolygon};
pub use point::Point;
pub use polygon::{locate_in_ring, Location, Polygon, Ring};
pub use predicates::{orient2d, Orientation};
pub use rect::Rect;
pub use seg_intersect::{intersect_segments, SegSegIntersection};
pub use segment::Segment;
pub use sweep::{
    boundary_pairs, boundary_pairs_into, located_boundary_pairs_into, EdgePairHit, SweepScratch,
};
pub use validate::{validate_polygon, validate_ring, ValidityError};
pub use view::PolyView;
