//! Microbenchmarks of the find-relation pipeline per method and per
//! determination path — the per-pair costs behind Figure 7.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use stj_core::{DatasetArena, JoinMethod, PairCtx, RelateScratch, DEFAULT_MAX_INTERVALS};
use stj_datagen::{pair_with_relation, star_polygon, StarParams};
use stj_de9im::TopoRelation;
use stj_geom::{Point, Rect};
use stj_raster::Grid;

fn grid() -> Grid {
    Grid::new(Rect::from_coords(-300.0, -300.0, 1300.0, 1300.0), 14)
}

/// A two-row arena holding a pair with relation `rel`.
fn obj_pair(rel: TopoRelation, complexity: usize, seed: u64) -> DatasetArena {
    let (a, b) = pair_with_relation(rel, complexity, seed);
    DatasetArena::build("pair", &[a, b], &grid(), DEFAULT_MAX_INTERVALS, 1)
}

fn bench_methods_per_relation(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_methods");
    g.sample_size(30);
    for rel in [
        TopoRelation::Disjoint,
        TopoRelation::Inside,
        TopoRelation::Meets,
        TopoRelation::Intersects,
    ] {
        let pair = obj_pair(rel, 512, 31);
        let (r, s) = (pair.object(0), pair.object(1));
        for (name, method) in [
            ("PC", JoinMethod::PC),
            ("ST2", JoinMethod::St2),
            ("OP2", JoinMethod::Op2),
            ("APRIL", JoinMethod::April),
        ] {
            g.bench_with_input(
                BenchmarkId::new(name, format!("{rel:?}")),
                &rel,
                |bench, _| {
                    bench.iter(|| {
                        let mut ctx = PairCtx {
                            scratch: &mut RelateScratch::default(),
                            prof: &mut stj_obs::Disabled,
                            adaptive: None,
                        };
                        black_box(method.find_relation(black_box(r), black_box(s), &mut ctx))
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_preprocessing(c: &mut Criterion) {
    // APRIL construction cost per object size — the (unmeasured in the
    // paper, but practically relevant) preprocessing step.
    let mut g = c.benchmark_group("april_build");
    g.sample_size(15);
    for &n in &[32usize, 256, 2048] {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(n as u64);
        let poly = star_polygon(
            &mut rng,
            &StarParams {
                center: Point::new(500.0, 500.0),
                avg_radius: 8.0,
                irregularity: 0.5,
                spikiness: 0.3,
                num_vertices: n,
            },
        );
        let gr = grid();
        g.bench_with_input(BenchmarkId::new("vertices", n), &n, |bench, _| {
            bench.iter(|| black_box(stj_raster::AprilApprox::build(black_box(&poly), &gr)))
        });
    }
    g.finish();
}

fn fast_config() -> Criterion {
    // Bounded run time: the suite has ~55 benchmark points and must stay
    // usable on a single-core box.
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = fast_config();
    targets = bench_methods_per_relation, bench_preprocessing
}
criterion_main!(benches);
