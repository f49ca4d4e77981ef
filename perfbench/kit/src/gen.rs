//! Seeded inputs: OSM-like parks and buildings, and the relate probe
//! stream.
//!
//! All coordinates are integers on the `[0, 2^16)` lattice; the program
//! preprocesses them on an order-12 grid over that square, so one grid
//! cell is 16 × 16 lattice units.
//!
//! The inputs have two parts:
//!
//! - The **seeded part** (the lower three quarters of the square) changes
//!   with `--seed`. Its parks are smooth star polygons whose size and
//!   vertex count are drawn stratified by rank, so the total work of a
//!   join barely moves from seed to seed. Every park is small enough to
//!   stay under the program's 4096-interval APRIL budget. Each park owns a
//!   private cell (its MBR plus a margin) into which its buildings are
//!   placed; a building either overlaps its park's MBR ("in") or lies in
//!   the margin ("out"), and the number of each per park depends only on
//!   the park's rank. So the number of candidate pairs — pairs whose MBRs
//!   intersect — is the same for every seed.
//! - The **fixed part** (the top strip) never changes: three huge, jagged
//!   parks whose APRIL lists exceed the interval budget, with buildings
//!   and probes around them. It is where the program's coarsening fault
//!   shows, so the failed-operation count is the same in every run.

use crate::geom::{orient, Mbr, Poly, Pt, LATTICE};
use crate::rng::Rng;
use std::f64::consts::TAU;

/// Grid order the benchmark preprocesses with (`stj preprocess --order`).
pub const GRID_ORDER: u32 = 12;
/// Lattice units per grid cell side.
pub const CELL: f64 = (LATTICE >> GRID_ORDER) as f64;
/// Seeded parks and their buildings live below this y.
pub const SEEDED_TOP: i64 = 49_152;
/// The fixed part lives at or above this y.
pub const FIXED_Y0: i64 = 50_176;
/// Seed of the fixed part.
const FIXED_SEED: u64 = 0x5EED_F1CE;
/// Free margin around each seeded park's MBR, in lattice units.
const MARGIN: i64 = 320;
/// Seeded parks.
pub const PARKS: usize = 400;
/// Park radius range, in grid cells.
const PARK_R_CELLS: (f64, f64) = (2.0, 150.0);
/// Building radius range, in grid cells.
const BUILDING_R_CELLS: (f64, f64) = (1.5, 5.0);
/// Probes per round of the relate stream, fixed probes included.
pub const ROUND: usize = 1000;
/// Fixed probes per round (every `ROUND / FIXED_PROBES`-th slot).
pub const FIXED_PROBES: usize = 100;
/// Share of seeded slots that repeat an earlier probe of the round.
pub const REPEAT_SHARE: f64 = 0.2;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OsmRelation,
    OsmIntersects,
    ServeRelate,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "osm-relation" => Workload::OsmRelation,
            "osm-intersects" => Workload::OsmIntersects,
            "serve-relate" => Workload::ServeRelate,
            _ => return None,
        })
    }

    /// Buildings overlapping a seeded park's MBR, over all parks.
    fn in_buildings(self) -> usize {
        match self {
            Workload::OsmRelation | Workload::ServeRelate => 100_000,
            Workload::OsmIntersects => 150_000,
        }
    }

    /// How this workload's buildings sit on their parks.
    fn mix(self) -> Mix {
        match self {
            Workload::OsmIntersects => Mix::SCATTERED,
            _ => Mix::ALONG_BOUNDARIES,
        }
    }
}

/// Shares of in-MBR buildings by placement: dropped uniformly in the
/// park's MBR, placed around a boundary vertex, built on a boundary edge,
/// touching a boundary vertex.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub uniform: f64,
    pub near_vertex: f64,
    pub on_edge: f64,
    pub on_vertex: f64,
}

impl Mix {
    /// Many buildings hug park boundaries: a large share of pairs needs
    /// refinement (the find-relation journey).
    pub const ALONG_BOUNDARIES: Mix = Mix {
        uniform: 0.6,
        near_vertex: 0.25,
        on_edge: 0.10,
        on_vertex: 0.05,
    };
    /// Buildings scattered over the parks' MBRs: the raster filter decides
    /// nearly every pair (the predicate journey).
    pub const SCATTERED: Mix = Mix {
        uniform: 1.0,
        near_vertex: 0.0,
        on_edge: 0.0,
        on_vertex: 0.0,
    };
}

/// One workload's generated inputs.
pub struct Inputs {
    pub parks: Vec<Poly>,
    pub buildings: Vec<Poly>,
    /// Parks `fixed_parks_from..` belong to the fixed part.
    pub fixed_parks_from: usize,
    /// Buildings `fixed_buildings_from..` belong to the fixed part.
    pub fixed_buildings_from: usize,
    /// Relative weight of each seeded park for placing probes.
    pub park_weights: Vec<f64>,
}

/// Rank-stratified sample: value `i` of `n` is drawn from the `i`-th
/// equal-probability slice of `[0, 1)`.
fn stratified(rng: &mut Rng, i: usize, n: usize) -> f64 {
    (i as f64 + rng.unit()) / n as f64
}

fn log_lerp(lo: f64, hi: f64, t: f64) -> f64 {
    (lo.ln() + (hi.ln() - lo.ln()) * t).exp()
}

/// Vertex count of a park of radius `r` cells (before the per-park noise).
fn park_vertices(r_cells: f64) -> f64 {
    0.95 * r_cells.powf(1.45)
}

/// Polar outline of a star polygon: `n` angles in increasing order and a
/// radius for each.
fn star_polar(
    rng: &mut Rng,
    n: usize,
    radius: impl Fn(&mut Rng, f64) -> f64,
    irregularity: f64,
) -> Vec<(f64, f64)> {
    let steps: Vec<f64> = (0..n)
        .map(|_| 1.0 + irregularity * rng.range(-1.0, 1.0))
        .collect();
    let total: f64 = steps.iter().sum();
    let start = rng.range(0.0, TAU);
    let mut acc = 0.0;
    let mut out = Vec::with_capacity(n);
    for s in steps {
        let ang = start + acc / total * TAU;
        acc += s;
        out.push((ang, radius(rng, ang)));
    }
    out
}

/// A smooth park outline: low harmonics plus a small per-vertex jitter
/// (at most about one vertex spacing), so even 1,400-vertex parks keep a
/// short boundary in grid cells.
fn smooth_park(rng: &mut Rng, center: Pt, r: f64, n: usize) -> Option<Vec<Pt>> {
    let harmonics: Vec<(f64, f64, f64)> = (2..=6)
        .map(|k| {
            (
                k as f64,
                rng.range(0.0, 0.3) / k as f64,
                rng.range(0.0, TAU),
            )
        })
        .collect();
    let jitter = rng.range(0.2, 1.0) * TAU * r / n as f64;
    let irregularity = rng.range(0.2, 0.6);
    let polar = star_polar(
        rng,
        n,
        |rng, ang| {
            let h: f64 = harmonics
                .iter()
                .map(|&(k, a, ph)| a * (k * ang + ph).cos())
                .sum();
            r * (1.0 + h) + jitter * rng.range(-1.0, 1.0)
        },
        irregularity,
    );
    crate::geom::star_ring(center, &polar)
}

/// A jagged outline: independent radius per vertex.
fn jagged_ring(
    rng: &mut Rng,
    center: Pt,
    r: f64,
    n: usize,
    spikiness: f64,
    irregularity: f64,
) -> Option<Vec<Pt>> {
    let polar = star_polar(
        rng,
        n,
        |rng, _| r * (1.0 + spikiness * rng.range(-1.0, 1.0)),
        irregularity,
    );
    crate::geom::star_ring(center, &polar)
}

/// Smallest distance from `c` to the ring's edges.
fn inner_radius(c: Pt, ring: &[Pt]) -> f64 {
    let n = ring.len();
    (0..n)
        .map(|i| {
            let (a, b) = (ring[i], ring[(i + 1) % n]);
            let (ax, ay) = ((a.0 - c.0) as f64, (a.1 - c.1) as f64);
            let (bx, by) = ((b.0 - c.0) as f64, (b.1 - c.1) as f64);
            let (dx, dy) = (bx - ax, by - ay);
            let len2 = dx * dx + dy * dy;
            let t = if len2 > 0.0 {
                (-(ax * dx + ay * dy) / len2).clamp(0.0, 1.0)
            } else {
                0.0
            };
            ((ax + t * dx).powi(2) + (ay + t * dy).powi(2)).sqrt()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Up to two small holes near the centre, well inside the shell.
fn holes(rng: &mut Rng, center: Pt, shell: &[Pt]) -> Vec<Vec<Pt>> {
    let d = inner_radius(center, shell);
    if d < 200.0 {
        return Vec::new();
    }
    let count = if rng.chance(0.5) { 1 } else { 2 };
    let phase = rng.range(0.0, TAU);
    (0..count)
        .filter_map(|k| {
            let ang = phase + k as f64 * TAU / 2.0;
            let c = (
                center.0 + (0.22 * d * ang.cos()).round() as i64,
                center.1 + (0.22 * d * ang.sin()).round() as i64,
            );
            let hr = 0.15 * d * rng.range(0.5, 1.0);
            let n = rng.int(6, 12) as usize;
            jagged_ring(rng, c, hr, n, 0.15, 0.3)
        })
        .collect()
}

fn translate(ring: &mut [Pt], dx: i64, dy: i64) {
    for p in ring {
        p.0 += dx;
        p.1 += dy;
    }
}

/// A building-sized star around `center`.
fn building_at(rng: &mut Rng, center: Pt) -> Option<Poly> {
    let r = CELL * rng.range(BUILDING_R_CELLS.0, BUILDING_R_CELLS.1);
    let n = rng.int(4, 14) as usize;
    let spk = rng.range(0.05, 0.3);
    let irr = rng.range(0.1, 0.5);
    jagged_ring(rng, center, r, n, spk, irr).map(|ring| Poly::new(vec![ring]))
}

/// Largest extent of any building from its centre, in lattice units.
fn building_reach() -> i64 {
    (CELL * BUILDING_R_CELLS.1 * 1.3).ceil() as i64 + 2
}

/// A building that overlaps `park`'s MBR, placed as `mix` says.
fn building_in(rng: &mut Rng, park: &Poly, mix: Mix) -> Poly {
    let m = park.mbr();
    let shell = &park.rings[0];
    loop {
        let roll = rng.unit();
        let b = if roll < mix.uniform {
            let c = (rng.int(m.x0, m.x1), rng.int(m.y0, m.y1));
            building_at(rng, c)
        } else if roll < mix.uniform + mix.near_vertex {
            let v = shell[rng.int(0, shell.len() as i64 - 1) as usize];
            let off = (3.0 * CELL) as i64;
            let c = (
                (v.0 + rng.int(-off, off)).clamp(m.x0, m.x1),
                (v.1 + rng.int(-off, off)).clamp(m.y0, m.y1),
            );
            building_at(rng, c)
        } else if roll < mix.uniform + mix.near_vertex + mix.on_edge {
            edge_building(rng, shell)
        } else {
            vertex_building(rng, shell)
        };
        if let Some(b) = b {
            debug_assert!(b.mbr().intersects(&m));
            return b;
        }
    }
}

/// A triangle sharing one whole edge of the shell, pointing in or out.
fn edge_building(rng: &mut Rng, shell: &[Pt]) -> Option<Poly> {
    let i = rng.int(0, shell.len() as i64 - 1) as usize;
    let (a, b) = (shell[i], shell[(i + 1) % shell.len()]);
    let (dx, dy) = ((b.0 - a.0) as f64, (b.1 - a.1) as f64);
    let len = (dx * dx + dy * dy).sqrt();
    if len < 8.0 {
        return None;
    }
    let h = CELL
        * rng.range(BUILDING_R_CELLS.0, BUILDING_R_CELLS.1)
        * if rng.chance(0.5) { 1.0 } else { -1.0 };
    // Left of a counter-clockwise shell edge is inward.
    let c = (
        ((a.0 + b.0) as f64 / 2.0 - dy / len * h).round() as i64,
        ((a.1 + b.1) as f64 / 2.0 + dx / len * h).round() as i64,
    );
    (orient(a, b, c) != 0).then(|| Poly::new(vec![vec![a, b, c]]))
}

/// A triangle with one corner on a shell vertex, pointing in or out.
fn vertex_building(rng: &mut Rng, shell: &[Pt]) -> Option<Poly> {
    let n = shell.len();
    let i = rng.int(0, n as i64 - 1) as usize;
    let (prev, v, next) = (shell[(i + n - 1) % n], shell[i], shell[(i + 1) % n]);
    let (tx, ty) = ((next.0 - prev.0) as f64, (next.1 - prev.1) as f64);
    let len = (tx * tx + ty * ty).sqrt().max(1.0);
    let (tx, ty) = (tx / len, ty / len);
    // Outward normal of a counter-clockwise shell is the tangent turned
    // clockwise.
    let s = if rng.chance(0.5) { 1.0 } else { -1.0 };
    let (nx, ny) = (ty * s, -tx * s);
    let r = CELL * rng.range(BUILDING_R_CELLS.0, BUILDING_R_CELLS.1);
    let p = |w: f64| {
        (
            (v.0 as f64 + r * (nx + w * tx)).round() as i64,
            (v.1 as f64 + r * (ny + w * ty)).round() as i64,
        )
    };
    let (b, c) = (p(-0.5), p(0.5));
    (orient(v, b, c) != 0).then(|| Poly::new(vec![vec![v, b, c]]))
}

/// A building inside `cell` but clear of `park_mbr` (no MBR contact).
fn building_out(rng: &mut Rng, park_mbr: &Mbr, cell: &Mbr) -> Poly {
    let reach = building_reach();
    loop {
        let c = (
            rng.int(cell.x0 + reach, cell.x1 - reach),
            rng.int(cell.y0 + reach, cell.y1 - reach),
        );
        let near_x = c.0 > park_mbr.x0 - reach && c.0 < park_mbr.x1 + reach;
        let near_y = c.1 > park_mbr.y0 - reach && c.1 < park_mbr.y1 + reach;
        if near_x && near_y {
            continue;
        }
        if let Some(b) = building_at(rng, c) {
            debug_assert!(!b.mbr().intersects(park_mbr) && cell.contains_rect(&b.mbr()));
            return b;
        }
    }
}

/// One seeded park per rank: `(park, weight)` where the weight (a function
/// of the rank alone) sets how many buildings overlap it.
fn seeded_parks(seed: u64) -> Vec<(Poly, f64)> {
    let mut rng = Rng::stream(seed, 1);
    // Per-park vertex-count noise spread evenly over the ranks by a fixed
    // low-discrepancy sequence: big parks hold most buildings, so letting
    // the seed pick their vertex counts would move the join's total work.
    let noise: Vec<f64> = (0..PARKS)
        .map(|i| log_lerp(0.7, 1.4, (i as f64 * 0.618_033_988_75).fract()))
        .collect();
    (0..PARKS)
        .map(|i| {
            let q = (i as f64 + 0.5) / PARKS as f64;
            let weight = log_lerp(PARK_R_CELLS.0, PARK_R_CELLS.1, q).powf(1.5);
            let r_cells = log_lerp(
                PARK_R_CELLS.0,
                PARK_R_CELLS.1,
                stratified(&mut rng, i, PARKS),
            );
            let n = ((park_vertices(r_cells) * noise[i]).round() as usize).clamp(4, 1400);
            let r = r_cells * CELL;
            let c = (LATTICE / 2, LATTICE / 2);
            loop {
                let Some(shell) = smooth_park(&mut rng, c, r, n) else {
                    continue;
                };
                let mut rings = vec![shell];
                if n >= 24 && rng.chance(0.08) {
                    let hs = holes(&mut rng, c, &rings[0]);
                    rings.extend(hs);
                }
                let p = Poly::new(rings);
                if p.rings.len() == 1 || p.is_valid() {
                    break (p, weight);
                }
            }
        })
        .collect()
}

/// Shelf-packs the parks' cells (MBR plus margin) into the seeded region,
/// tallest first, and moves each park into its cell. Returns the cells.
fn pack(parks: &mut [(Poly, f64)]) -> Vec<Mbr> {
    let mut order: Vec<usize> = (0..parks.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse((parks[i].0.mbr().height(), i)));
    let mut cells = vec![
        Mbr {
            x0: 0,
            y0: 0,
            x1: 0,
            y1: 0
        };
        parks.len()
    ];
    let (mut x, mut y, mut shelf_h) = (0i64, 0i64, 0i64);
    for i in order {
        let m = parks[i].0.mbr();
        let (w, h) = (m.width() + 2 * MARGIN, m.height() + 2 * MARGIN);
        if x + w > LATTICE {
            x = 0;
            y += shelf_h;
            shelf_h = 0;
        }
        assert!(y + h <= SEEDED_TOP, "seeded parks overflow their region");
        let (dx, dy) = (x + MARGIN - m.x0, y + MARGIN - m.y0);
        for ring in &mut parks[i].0.rings {
            translate(ring, dx, dy);
        }
        cells[i] = Mbr {
            x0: x,
            y0: y,
            x1: x + w - 1,
            y1: y + h - 1,
        };
        x += w;
        shelf_h = shelf_h.max(h);
    }
    cells
}

/// Splits `total` over the weights by largest remainder (seed-independent
/// when the weights are).
fn apportion(weights: &[f64], total: usize) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut out: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut rest: Vec<usize> = (0..weights.len()).collect();
    rest.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let missing = total - out.iter().sum::<usize>();
    for &i in rest.iter().take(missing) {
        out[i] += 1;
    }
    out
}

/// The three jagged parks of the fixed part and the buildings around them.
pub fn fixed_part() -> (Vec<Poly>, Vec<Poly>) {
    let mut rng = Rng::stream(FIXED_SEED, 2);
    let cy = (FIXED_Y0 + LATTICE) / 2;
    let parks: Vec<Poly> = [11_000i64, 33_000, 55_000]
        .iter()
        .map(|&cx| loop {
            if let Some(ring) = jagged_ring(&mut rng, (cx, cy), 6_000.0, 1400, 0.2, 0.5) {
                let p = Poly::new(vec![ring]);
                assert!(p.mbr().y0 >= FIXED_Y0);
                break p;
            }
        })
        .collect();
    let mut buildings = Vec::new();
    for p in &parks {
        for _ in 0..200 {
            buildings.push(building_in(&mut rng, p, Mix::ALONG_BOUNDARIES));
        }
    }
    (parks, buildings)
}

/// The workload's parks and buildings for `seed`.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let mut parks = seeded_parks(seed);
    let cells = pack(&mut parks);
    let weights: Vec<f64> = parks.iter().map(|p| p.1).collect();
    let mut rng = Rng::stream(seed, 3);
    let mut buildings = Vec::new();
    let n_in = workload.in_buildings();
    if n_in > 0 {
        let per_park = apportion(&weights, n_in);
        for (i, (park, _)) in parks.iter().enumerate() {
            for _ in 0..per_park[i] {
                buildings.push(building_in(&mut rng, park, workload.mix()));
            }
            for _ in 0..per_park[i].div_ceil(2) {
                buildings.push(building_out(&mut rng, &park.mbr(), &cells[i]));
            }
        }
        rng.shuffle(&mut buildings);
    }
    let fixed_buildings_from = buildings.len();
    let fixed_parks_from = parks.len();
    let (fixed_parks, fixed_buildings) = fixed_part();
    if n_in > 0 {
        buildings.extend(fixed_buildings);
    }
    let mut all_parks: Vec<Poly> = parks.into_iter().map(|p| p.0).collect();
    all_parks.extend(fixed_parks);
    Inputs {
        parks: all_parks,
        buildings,
        fixed_parks_from,
        fixed_buildings_from,
        park_weights: weights,
    }
}

/// A relate probe, the dataset it is sent to, and whether it belongs to
/// the fixed part.
#[derive(Clone)]
pub struct Probe {
    pub poly: Poly,
    /// Sent to the buildings dataset rather than the parks.
    pub to_buildings: bool,
    pub fixed: bool,
}

/// The probes of one round (fixed probes first) and, per slot, the probe
/// it sends; a slot repeats an earlier one when both name the same probe.
pub struct Round {
    pub probes: Vec<Probe>,
    /// For each slot, the index into `probes` it sends.
    pub slots: Vec<usize>,
}

/// The fixed probes, identical in every round of every seed.
pub fn fixed_probes(inputs: &Inputs) -> Vec<Probe> {
    let mut rng = Rng::stream(FIXED_SEED, 4);
    let fixed = &inputs.parks[inputs.fixed_parks_from..];
    (0..FIXED_PROBES)
        .map(|k| Probe {
            poly: building_in(&mut rng, &fixed[k % fixed.len()], Mix::ALONG_BOUNDARIES),
            to_buildings: false,
            fixed: true,
        })
        .collect()
}

/// Round `r` of the relate stream for `seed`: `ROUND` slots, every
/// `ROUND / FIXED_PROBES`-th one a fixed probe (sent to the parks), the
/// others fresh probes around seeded parks (weighted like the buildings)
/// or anywhere in the seeded region, sent to the parks or the buildings
/// with equal odds, with `REPEAT_SHARE` of them repeating an earlier fresh
/// probe of the same round at least 16 slots back.
pub fn round(inputs: &Inputs, fixed: &[Probe], seed: u64, r: u64) -> Round {
    let mut rng = Rng::stream(seed, 1_000 + r);
    let total: f64 = inputs.park_weights.iter().sum();
    let every = ROUND / FIXED_PROBES;
    let mut probes: Vec<Probe> = fixed.to_vec();
    let mut slots = Vec::with_capacity(ROUND);
    let mut fresh_slots: Vec<usize> = Vec::new();
    for s in 0..ROUND {
        if s % every == every - 1 {
            slots.push((s / every) % fixed.len());
            continue;
        }
        if fresh_slots.len() > 16 && rng.chance(REPEAT_SHARE) {
            let k = rng.int(0, fresh_slots.len() as i64 - 17) as usize;
            slots.push(slots[fresh_slots[k]]);
            continue;
        }
        let poly = if rng.chance(0.8) {
            let mut pick = rng.range(0.0, total);
            let mut i = 0;
            while i + 1 < inputs.park_weights.len() && pick >= inputs.park_weights[i] {
                pick -= inputs.park_weights[i];
                i += 1;
            }
            building_in(&mut rng, &inputs.parks[i], Mix::ALONG_BOUNDARIES)
        } else {
            loop {
                let reach = building_reach();
                let c = (
                    rng.int(reach, LATTICE - 1 - reach),
                    rng.int(reach, SEEDED_TOP - reach),
                );
                if let Some(b) = building_at(&mut rng, c) {
                    break b;
                }
            }
        };
        fresh_slots.push(s);
        slots.push(probes.len());
        probes.push(Probe {
            poly,
            to_buildings: rng.chance(0.5),
            fixed: false,
        });
    }
    Round { probes, slots }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wkt(polys: &[Poly]) -> String {
        polys.iter().map(|p| p.to_wkt() + "\n").collect()
    }

    #[test]
    fn one_seed_gives_identical_inputs_and_seeds_differ() {
        let a = inputs(Workload::OsmRelation, 11);
        let b = inputs(Workload::OsmRelation, 11);
        let c = inputs(Workload::OsmRelation, 12);
        assert_eq!(wkt(&a.parks), wkt(&b.parks));
        assert_eq!(wkt(&a.buildings), wkt(&b.buildings));
        assert_ne!(wkt(&a.parks), wkt(&c.parks));
        assert_ne!(wkt(&a.buildings), wkt(&c.buildings));
        // The fixed part is the same for every seed.
        assert_eq!(
            wkt(&a.parks[a.fixed_parks_from..]),
            wkt(&c.parks[c.fixed_parks_from..])
        );
        assert_eq!(
            wkt(&a.buildings[a.fixed_buildings_from..]),
            wkt(&c.buildings[c.fixed_buildings_from..])
        );
    }

    #[test]
    fn candidate_count_does_not_depend_on_the_seed() {
        let count = |seed| {
            let inp = inputs(Workload::OsmRelation, seed);
            let pm: Vec<Mbr> = inp.parks.iter().map(Poly::mbr).collect();
            inp.buildings
                .iter()
                .map(|b| {
                    let m = b.mbr();
                    pm.iter().filter(|p| p.intersects(&m)).count()
                })
                .sum::<usize>()
        };
        assert_eq!(count(1), count(2));
    }

    #[test]
    fn generated_polygons_are_valid_lattice_polygons() {
        let inp = inputs(Workload::OsmRelation, 5);
        for p in inp.parks.iter().filter(|p| p.num_vertices() < 200) {
            assert!(p.is_valid());
        }
        for b in inp.buildings.iter().step_by(37) {
            assert!(b.is_valid());
        }
        for p in inp.parks.iter().chain(&inp.buildings) {
            let m = p.mbr();
            assert!(m.x0 >= 0 && m.y0 >= 0 && m.x1 < LATTICE && m.y1 < LATTICE);
        }
        assert!(inp.parks.iter().map(|p| p.rings[0].len()).max().unwrap() <= 1400);
    }

    #[test]
    fn probe_rounds_repeat_a_minority_and_keep_fixed_slots() {
        let inp = inputs(Workload::ServeRelate, 3);
        let fixed = fixed_probes(&inp);
        let r0 = round(&inp, &fixed, 3, 0);
        let again = round(&inp, &fixed, 3, 0);
        assert_eq!(r0.slots, again.slots);
        assert_eq!(r0.slots.len(), ROUND);
        let fixed_slots = r0.slots.iter().filter(|&&k| r0.probes[k].fixed).count();
        assert_eq!(fixed_slots, FIXED_PROBES);
        let fresh = r0.probes.len() - fixed.len();
        let repeats = ROUND - FIXED_PROBES - fresh;
        let share = repeats as f64 / (ROUND - FIXED_PROBES) as f64;
        assert!((0.1..0.3).contains(&share), "repeat share {share}");
        let r1 = round(&inp, &fixed, 3, 1);
        assert_ne!(
            r0.probes[fixed.len()].poly.to_wkt(),
            r1.probes[fixed.len()].poly.to_wkt()
        );
    }
}
