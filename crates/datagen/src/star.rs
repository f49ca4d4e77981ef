//! Random star-shaped polygon generation.
//!
//! Star-shaped polygons (vertices at increasing angles around a center,
//! with varying radii) are the workhorse of the synthetic datasets: they
//! are guaranteed simple, their vertex count and radius directly control
//! the paper's two complexity drivers (refinement cost and raster
//! footprint), and irregularity/spikiness parameters let a scenario mimic
//! smooth lakes versus jagged park boundaries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;
use stj_geom::{Location, Point, Polygon, Ring};

/// Parameters of a star polygon.
#[derive(Clone, Copy, Debug)]
pub struct StarParams {
    /// Center of the polygon.
    pub center: Point,
    /// Mean vertex distance from the center.
    pub avg_radius: f64,
    /// Angular irregularity in `[0, 1]`: 0 gives evenly spaced vertices,
    /// 1 gives highly uneven angular steps.
    pub irregularity: f64,
    /// Radial variation in `[0, 1)`: 0 gives a circle-like shape, larger
    /// values produce spiky boundaries.
    pub spikiness: f64,
    /// Number of vertices (≥ 3).
    pub num_vertices: usize,
}

/// Generates a random star-shaped polygon.
///
/// Vertices are placed at strictly increasing angles, so the result is
/// always a simple polygon containing its center.
pub fn star_polygon<R: Rng>(rng: &mut R, params: &StarParams) -> Polygon {
    let ring = star_ring(rng, params);
    Polygon::new(ring, Vec::new())
}

/// Draws per hole before [`star_polygon_with_holes`] drops it.
const HOLE_ATTEMPTS: usize = 8;

/// Generates a star polygon with up to `num_holes` small star holes
/// placed inside it: each hole is kept off the outer ring and off the
/// other holes, so the polygon is valid, and a hole that finds no room
/// in a bounded number of draws is left out.
pub fn star_polygon_with_holes<R: Rng>(
    rng: &mut R,
    params: &StarParams,
    num_holes: usize,
    hole_vertices: usize,
) -> Polygon {
    let min_radius = params.avg_radius * (1.0 - params.spikiness).max(0.05);
    let outer = star_ring(rng, params);
    let mut holes = Vec::with_capacity(num_holes);
    let mut discs: Vec<(Point, f64)> = Vec::with_capacity(num_holes);
    for _ in 0..num_holes {
        // A hole ring lies within 1.2 × its average radius (spikiness
        // 0.2); with 1.25 for rounding, a hole whose disc of that radius
        // stays off the shell's edges and off the other holes' discs
        // crosses neither.
        let fits = |&(c, r): &(Point, f64)| {
            outer.locate(c) == Location::Inside
                && outer.edges().all(|e| seg_dist(c, e.a, e.b) > 1.25 * r)
                && discs.iter().all(|&(d, s)| c.dist(d) > 1.25 * (r + s))
        };
        let first = hole_disc(rng, params.center, min_radius);
        let disc = if fits(&first) {
            Some(first)
        } else {
            // Redraws come from their own generator, seeded by the first
            // draw, and the ring below is drawn from `rng` even for a
            // dropped hole: `rng` advances exactly as when the first
            // draw fits, so the polygons drawn after this one do not
            // change.
            let seed =
                first.0.x.to_bits() ^ first.0.y.to_bits().rotate_left(17) ^ first.1.to_bits();
            let mut redraw = StdRng::seed_from_u64(seed);
            (1..HOLE_ATTEMPTS)
                .map(|_| hole_disc(&mut redraw, params.center, min_radius))
                .find(fits)
        };
        let (center, avg_radius) = disc.unwrap_or(first);
        let ring = star_ring(
            rng,
            &StarParams {
                center,
                avg_radius,
                irregularity: 0.3,
                spikiness: 0.2,
                num_vertices: hole_vertices.max(3),
            },
        );
        if disc.is_some() {
            discs.push((center, avg_radius));
            holes.push(ring);
        }
    }
    Polygon::new(outer, holes)
}

/// A hole's `(center, average radius)`, in a disc around `center` small
/// enough that hole_center_dist + hole_max_radius < `min_radius`, the
/// outer ring's minimum radius.
fn hole_disc<R: Rng>(rng: &mut R, center: Point, min_radius: f64) -> (Point, f64) {
    let hole_r = min_radius * rng.gen_range(0.08..0.2);
    let max_off = (min_radius - hole_r * 1.5).max(0.0) * 0.5;
    let ang = rng.gen_range(0.0..TAU);
    let off = rng.gen_range(0.0..=max_off);
    let c = Point::new(center.x + off * ang.cos(), center.y + off * ang.sin());
    (c, hole_r)
}

/// Distance from `p` to the segment `ab`.
fn seg_dist(p: Point, a: Point, b: Point) -> f64 {
    let (dx, dy) = (b.x - a.x, b.y - a.y);
    let len2 = dx * dx + dy * dy;
    let t = if len2 > 0.0 {
        (((p.x - a.x) * dx + (p.y - a.y) * dy) / len2).clamp(0.0, 1.0)
    } else {
        0.0
    };
    p.dist(Point::new(a.x + t * dx, a.y + t * dy))
}

fn star_ring<R: Rng>(rng: &mut R, params: &StarParams) -> Ring {
    let n = params.num_vertices.max(3);
    let irregularity = params.irregularity.clamp(0.0, 1.0);
    let spikiness = params.spikiness.clamp(0.0, 0.95);

    // Angular steps: uniform in [step*(1-irr), step*(1+irr)], then
    // normalized to sum to exactly 2π (keeps angles strictly increasing).
    let base = TAU / n as f64;
    let mut steps: Vec<f64> = (0..n)
        .map(|_| base * (1.0 + irregularity * rng.gen_range(-1.0..1.0)))
        .collect();
    let total: f64 = steps.iter().sum();
    for s in &mut steps {
        *s *= TAU / total;
    }

    let start = rng.gen_range(0.0..TAU);
    let mut angle = start;
    let mut pts = Vec::with_capacity(n);
    for step in steps {
        let radius = params.avg_radius * (1.0 + spikiness * rng.gen_range(-1.0..1.0));
        let radius = radius.max(params.avg_radius * 0.05);
        pts.push(Point::new(
            params.center.x + radius * angle.cos(),
            params.center.y + radius * angle.sin(),
        ));
        angle += step;
    }
    Ring::new(pts).expect("star ring has >= 3 distinct vertices")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stj_geom::polygon::Location;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn generates_requested_vertex_counts() {
        let mut r = rng(1);
        for n in [3usize, 4, 16, 100, 1000] {
            let p = star_polygon(
                &mut r,
                &StarParams {
                    center: Point::new(50.0, 50.0),
                    avg_radius: 10.0,
                    irregularity: 0.5,
                    spikiness: 0.4,
                    num_vertices: n,
                },
            );
            assert_eq!(p.num_vertices(), n);
            assert!(p.area() > 0.0);
        }
    }

    #[test]
    fn center_is_interior() {
        let mut r = rng(2);
        for seed_run in 0..50 {
            let c = Point::new(10.0 + seed_run as f64, 20.0);
            let p = star_polygon(
                &mut r,
                &StarParams {
                    center: c,
                    avg_radius: 3.0,
                    irregularity: 0.8,
                    spikiness: 0.6,
                    num_vertices: 12,
                },
            );
            assert_eq!(p.locate(c), Location::Inside);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let params = StarParams {
            center: Point::new(0.0, 0.0),
            avg_radius: 5.0,
            irregularity: 0.5,
            spikiness: 0.3,
            num_vertices: 24,
        };
        let a = star_polygon(&mut rng(42), &params);
        let b = star_polygon(&mut rng(42), &params);
        assert_eq!(a, b);
        let c = star_polygon(&mut rng(43), &params);
        assert_ne!(a, c);
    }

    #[test]
    fn holes_stay_inside() {
        let mut r = rng(3);
        for _ in 0..20 {
            let p = star_polygon_with_holes(
                &mut r,
                &StarParams {
                    center: Point::new(0.0, 0.0),
                    avg_radius: 10.0,
                    irregularity: 0.4,
                    spikiness: 0.3,
                    num_vertices: 40,
                },
                2,
                8,
            );
            // A hole with no room apart from the other is left out.
            assert!((1..=2).contains(&p.holes().len()));
            // Hole vertices must be strictly inside the outer ring.
            for h in p.holes() {
                for v in h.vertices() {
                    assert_eq!(p.outer().locate(*v), Location::Inside);
                }
            }
            // Area accounting is consistent.
            let holes_area: f64 = p.holes().iter().map(|h| h.area()).sum();
            assert!((p.area() - (p.outer().area() - holes_area)).abs() < 1e-9);
        }
    }

    #[test]
    fn holed_stars_are_valid() {
        // Holes are kept off the shell and apart, so every draw is a
        // valid polygon (crossing holes used to fail 88 of the 200 draws
        // at these parameters).
        let mut r = rng(0x401E);
        for k in 0..200 {
            let holes = 1 + k % 3;
            // Few-vertex shells (as `parks()` draws) cut deep inside
            // their minimum radius.
            let shell = StarParams {
                center: Point::new(50.0, 50.0),
                avg_radius: 35.0,
                irregularity: 0.5,
                spikiness: 0.4,
                num_vertices: 4 + k % 9,
            };
            let p = star_polygon_with_holes(&mut r, &shell, 2, 8);
            assert_eq!(stj_geom::validate_polygon(&p), Ok(()), "shell draw {k}");
            let p = star_polygon_with_holes(
                &mut r,
                &StarParams {
                    center: Point::new(50.0, 50.0),
                    avg_radius: 35.0,
                    irregularity: 0.5,
                    spikiness: 0.4,
                    num_vertices: 30,
                },
                holes,
                6,
            );
            assert_eq!(stj_geom::validate_polygon(&p), Ok(()), "draw {k}");
            assert!((1..=holes).contains(&p.holes().len()), "draw {k}");
        }
    }

    #[test]
    fn radius_bounds_mbr() {
        let mut r = rng(4);
        let p = star_polygon(
            &mut r,
            &StarParams {
                center: Point::new(0.0, 0.0),
                avg_radius: 10.0,
                irregularity: 0.2,
                spikiness: 0.5,
                num_vertices: 64,
            },
        );
        let m = p.mbr();
        // All vertices within avg_radius * (1 + spikiness).
        assert!(m.max.x <= 15.0 + 1e-9 && m.min.x >= -15.0 - 1e-9);
        assert!(m.max.y <= 15.0 + 1e-9 && m.min.y >= -15.0 - 1e-9);
    }
}
