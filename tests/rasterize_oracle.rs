//! The rasterizer (`AprilApprox::build`) against a brute-force per-cell oracle.
//!
//! The rasterizer descends the Hilbert quadtree, filters the edges that
//! meet each block, passes every edge through unfiltered once a block
//! contains the whole boundary, skips blocks off both MBRs, classifies
//! small blocks cell by cell in a kernel (edge walks, row sweeps, a
//! state-table curve encoder), and decides segment–cell contact with the
//! separating-axis theorem. None of that may change a single cell. The
//! oracle here visits every cell the polygon can reach and decides it
//! from the definitions alone:
//!
//! - **partial** — an edge has an endpoint in the closed cell, or meets
//!   one of the cell's four sides (`intersect_segments`);
//! - **full** — not partial, and the cell centre is interior
//!   (`Polygon::locate`).
//!
//! `P` must be exactly the full cells and `C` the full and partial ones,
//! at every order up to 8, and for objects a few dozen cells wide at
//! orders 12 and 16. From order 5 up the quadtree descent stops at blocks
//! of 16 × 16 cells and hands them to the block kernel, so those cases
//! exercise both.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stjoin::datagen::{star_polygon, star_polygon_with_holes, StarParams};
use stjoin::geom::polygon::Location;
use stjoin::geom::{intersect_segments, validate_polygon};
use stjoin::prelude::*;
use stjoin::raster::hilbert::xy_to_d;

/// `(P, C)` cell ids of `poly` on `grid`, decided cell by cell over a
/// window two cells wider on each side than the polygon's MBR: a cell
/// outside it cannot meet the polygon, even if `col_of`/`row_of` round
/// the MBR into the neighbouring cell.
fn oracle(poly: &Polygon, grid: &Grid) -> (Vec<u64>, Vec<u64>) {
    let edges: Vec<Segment> = poly.edges().collect();
    let (mut p, mut c) = (Vec::new(), Vec::new());
    let mbr = poly.mbr();
    let last = grid.side() - 1;
    let cols = grid.col_of(mbr.min.x).saturating_sub(2)..=(grid.col_of(mbr.max.x) + 2).min(last);
    let rows = grid.row_of(mbr.min.y).saturating_sub(2)..=(grid.row_of(mbr.max.y) + 2).min(last);
    for col in cols {
        for row in rows.clone() {
            let r = grid.cell_rect(col, row);
            let corners = [
                r.min,
                Point::new(r.max.x, r.min.y),
                r.max,
                Point::new(r.min.x, r.max.y),
            ];
            let partial = edges.iter().any(|e| {
                r.contains_point(e.a)
                    || r.contains_point(e.b)
                    || (0..4).any(|k| {
                        let side = Segment::new(corners[k], corners[(k + 1) % 4]);
                        intersect_segments(*e, side).is_some()
                    })
            });
            let d = xy_to_d(grid.order(), col, row);
            if partial {
                c.push(d);
            } else if poly.locate(grid.cell_center(col, row)) == Location::Inside {
                p.push(d);
                c.push(d);
            }
        }
    }
    p.sort_unstable();
    c.sort_unstable();
    (p, c)
}

fn check(poly: &Polygon, grid: &Grid, what: &str) {
    let a = AprilApprox::build(poly, grid);
    let (po, co) = oracle(poly, grid);
    assert_eq!(a.p.iter_cells().collect::<Vec<_>>(), po, "{what}: P");
    assert_eq!(a.c.iter_cells().collect::<Vec<_>>(), co, "{what}: C");
}

fn grid(order: u32, size: f64) -> Grid {
    Grid::new(Rect::from_coords(0.0, 0.0, size, size), order)
}

fn star_params(cx: f64, cy: f64, radius: f64, n: usize) -> StarParams {
    StarParams {
        center: Point::new(cx, cy),
        avg_radius: radius,
        irregularity: 0.5,
        spikiness: 0.4,
        num_vertices: n,
    }
}

#[test]
fn random_stars_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5A5);
    for trial in 0..24 {
        let order = 3 + trial % 6;
        let n = 5 + rng.gen_range(0..40usize);
        let (cx, cy) = (rng.gen_range(20.0..80.0), rng.gen_range(20.0..80.0));
        let radius = rng.gen_range(1.0..30.0);
        let poly = star_polygon(&mut rng, &star_params(cx, cy, radius, n));
        check(
            &poly,
            &grid(order, 100.0),
            &format!("star {trial}, order {order}"),
        );
    }
}

#[test]
fn polygons_with_holes_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0x401E);
    for trial in 0..8 {
        let order = 4 + trial as u32 % 5;
        let poly = star_polygon_with_holes(
            &mut rng,
            &star_params(50.0, 50.0, 35.0, 30),
            1 + trial % 3,
            6,
        );
        assert_eq!(validate_polygon(&poly), Ok(()), "holed star {trial}");
        check(&poly, &grid(order, 100.0), &format!("holed star {trial}"));
    }
    // Lattice square with a lattice hole: every boundary on cell borders.
    let framed = Polygon::from_coords(
        vec![(2.0, 2.0), (30.0, 2.0), (30.0, 30.0), (2.0, 30.0)],
        vec![vec![(10.0, 10.0), (20.0, 10.0), (20.0, 20.0), (10.0, 20.0)]],
    )
    .unwrap();
    for order in [3, 5, 8] {
        check(
            &framed,
            &grid(order, 32.0),
            &format!("framed, order {order}"),
        );
    }
}

#[test]
fn integer_vertices_on_cell_borders_and_corners_match_oracle() {
    // On a 2^order grid over [0, 2^order]² every cell is 1×1, so integer
    // vertices are cell corners and half-integer ones lie on cell sides.
    let shapes: Vec<Vec<(f64, f64)>> = vec![
        vec![
            (3.0, 3.0),
            (11.0, 3.0),
            (11.0, 5.0),
            (5.0, 5.0),
            (5.0, 12.0),
            (3.0, 12.0),
        ],
        vec![(8.0, 1.0), (15.0, 8.0), (8.0, 15.0), (1.0, 8.0)],
        vec![(2.0, 2.5), (9.0, 2.5), (5.5, 14.0)],
        vec![
            (1.0, 1.0),
            (14.0, 2.0),
            (13.0, 13.0),
            (6.0, 9.0),
            (2.0, 14.0),
        ],
        vec![(4.0, 4.0), (5.0, 4.0), (5.0, 5.0), (4.0, 5.0)],
        vec![(0.0, 0.0), (16.0, 0.0), (16.0, 16.0), (0.0, 16.0)],
    ];
    for (k, pts) in shapes.into_iter().enumerate() {
        let poly = Polygon::from_coords(pts, vec![]).unwrap();
        check(&poly, &grid(4, 16.0), &format!("lattice shape {k}"));
        // The same shape, scaled into an order-8 grid's cells.
        let scaled: Vec<(f64, f64)> = poly
            .outer()
            .vertices()
            .iter()
            .map(|p| (p.x * 16.0, p.y * 16.0))
            .collect();
        let poly = Polygon::from_coords(scaled, vec![]).unwrap();
        check(
            &poly,
            &grid(8, 256.0),
            &format!("lattice shape {k}, order 8"),
        );
    }
}

#[test]
fn polygons_straddling_the_grid_centre_lines_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0xCE17);
    for trial in 0..10 {
        let order = 4 + trial % 5;
        // Centred on the grid's centre, on one centre line, or near it.
        let (cx, cy) = match trial % 3 {
            0 => (50.0, 50.0),
            1 => (50.0, rng.gen_range(20.0..80.0)),
            _ => (rng.gen_range(45.0..55.0), 50.0),
        };
        let n = 6 + rng.gen_range(0..30usize);
        let radius = rng.gen_range(2.0..40.0);
        let poly = star_polygon(&mut rng, &star_params(cx, cy, radius, n));
        check(&poly, &grid(order, 100.0), &format!("centred star {trial}"));
    }
    // A diamond whose vertices sit on the centre lines themselves.
    let diamond = Polygon::from_coords(
        vec![(50.0, 10.0), (90.0, 50.0), (50.0, 90.0), (10.0, 50.0)],
        vec![],
    )
    .unwrap();
    for order in [1, 2, 5, 8] {
        check(
            &diamond,
            &grid(order, 100.0),
            &format!("diamond, order {order}"),
        );
    }
}

#[test]
fn kernel_blocks_match_oracle_at_borders_corners_and_grid_edges() {
    // Order 8 over [0, 256]²: 1×1 cells, kernel blocks of 16×16 cells, so
    // integer coordinates are cell corners and multiples of 16 are kernel
    // block borders.
    let g = grid(8, 256.0);
    type Ring = Vec<(f64, f64)>;
    let shapes: Vec<(&str, Ring, Vec<Ring>)> = vec![
        // Edges along diagonals through cell corners, across block borders.
        (
            "corner diagonals",
            vec![(16.0, 16.0), (48.0, 48.0), (16.0, 48.0)],
            vec![],
        ),
        (
            "lattice diamond",
            vec![(32.0, 20.0), (44.0, 32.0), (32.0, 44.0), (20.0, 32.0)],
            vec![],
        ),
        // Vertices on cell sides, edges along cell borders.
        (
            "border edges",
            vec![(64.0, 64.5), (70.0, 64.5), (70.0, 80.0), (64.0, 80.0)],
            vec![],
        ),
        // Column 0 / row 0, and column/row side − 1.
        (
            "grid origin",
            vec![(0.0, 0.0), (5.0, 0.0), (5.0, 3.0), (0.0, 3.0)],
            vec![],
        ),
        (
            "left column",
            vec![(0.0, 100.2), (0.7, 101.0), (0.0, 103.5)],
            vec![],
        ),
        (
            "top right",
            vec![
                (250.0, 250.0),
                (256.0, 250.0),
                (256.0, 256.0),
                (250.0, 256.0),
            ],
            vec![],
        ),
        (
            "bottom right",
            vec![(251.5, 0.0), (256.0, 0.0), (256.0, 7.0)],
            vec![],
        ),
        // Straddling the four top-level Hilbert quadrants.
        (
            "grid centre",
            vec![(126.5, 127.0), (130.0, 126.0), (129.0, 130.5)],
            vec![],
        ),
        (
            "centre square",
            vec![
                (127.0, 127.0),
                (129.0, 127.0),
                (129.0, 129.0),
                (127.0, 129.0),
            ],
            vec![],
        ),
        // Holes inside one kernel block, on and off the lattice.
        (
            "holed block",
            vec![(33.0, 33.0), (46.0, 33.0), (46.0, 46.0), (33.0, 46.0)],
            vec![vec![(37.0, 37.0), (41.0, 37.0), (41.0, 41.0), (37.0, 41.0)]],
        ),
        (
            "holed off-lattice",
            vec![(81.3, 81.7), (94.6, 82.1), (93.9, 95.2), (82.2, 94.4)],
            vec![vec![(85.5, 85.5), (90.25, 86.0), (88.0, 90.75)]],
        ),
        // Larger than a kernel block: uniform blocks above it.
        (
            "large",
            vec![(3.5, 3.5), (200.0, 10.0), (180.0, 190.0), (20.0, 170.0)],
            vec![],
        ),
    ];
    for (what, outer, holes) in shapes {
        let poly = Polygon::from_coords(outer, holes).unwrap();
        assert_eq!(validate_polygon(&poly), Ok(()), "{what}");
        check(&poly, &g, what);
    }
}

#[test]
fn non_dyadic_extent_matches_oracle() {
    // On [-10, 1010]², `col_of`'s division and `cell_rect`'s
    // multiplication round differently: the kernel must still agree with
    // the per-cell oracle on every cell.
    let mut rng = StdRng::seed_from_u64(0xD1AD1C);
    for order in [12, 16] {
        let g = Grid::new(Rect::from_coords(-10.0, -10.0, 1010.0, 1010.0), order);
        let cw = g.cell_width();
        // A grid line's coordinate, computed as `cell_rect` computes it.
        let line = |k: u32| -10.0 + f64::from(k) * cw;
        for trial in 0..40 {
            let radius = cw * rng.gen_range(0.3..25.0);
            let (cx, cy) = match trial % 4 {
                0 => (rng.gen_range(-10.0..1010.0), rng.gen_range(-10.0..1010.0)),
                // Near the extent's borders: grid column/row 0 and side − 1.
                1 => (-10.0 + radius, rng.gen_range(-10.0..1010.0)),
                2 => (rng.gen_range(-10.0..1010.0), 1010.0 - radius),
                // Around the grid's centre lines.
                _ => (500.0 + rng.gen_range(-2.0..2.0) * radius, 500.0),
            };
            let n = 4 + rng.gen_range(0..16usize);
            let poly = star_polygon(&mut rng, &star_params(cx, cy, radius, n));
            if validate_polygon(&poly).is_ok() {
                check(&poly, &g, &format!("star {trial}, order {order}"));
            }
        }
        // Vertices and edges exactly on grid lines.
        let k = g.side() / 3;
        let lattice = Polygon::from_coords(
            vec![
                (line(k), line(k)),
                (line(k + 9), line(k)),
                (line(k + 9), line(k + 4)),
                (line(k + 4), line(k + 4)),
                (line(k + 4), line(k + 11)),
                (line(k), line(k + 11)),
            ],
            vec![],
        )
        .unwrap();
        check(&lattice, &g, &format!("lattice, order {order}"));
        let edge = g.side() - 1;
        let corner = Polygon::from_coords(
            vec![
                (line(edge - 5), line(edge - 3)),
                (1010.0, line(edge - 6)),
                (1010.0, 1010.0),
            ],
            vec![],
        )
        .unwrap();
        check(&corner, &g, &format!("top-right corner, order {order}"));
    }
}
