//! `pbtrace` — the traced run of the perfbench benchmark.
//!
//! Times calls into the public functions of each stj crate on the inputs
//! `pbkit prepare` generated, one span per call boundary, and prints the
//! per-layer metrics as one JSON object on stdout. Spans are kept in
//! memory and written to `--spans` at the end.
//!
//! ```text
//! pbtrace --dir DATA --out SCRATCH --spans SPANS.json --workload W
//! ```

use pbkit::json::{self, obj, Json};
use std::collections::HashMap;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use stj_core::linking::links_to_ntriples;
use stj_core::{
    intermediate_filter, relate_p, AdaptiveMode, Dataset, DatasetArena, IfOutcome, SpatialObject,
    TopologyJoin, DEFAULT_MAX_INTERVALS,
};
use stj_de9im::{relate_with, RelateScratch, TopoRelation};
use stj_geom::{Polygon, Rect};
use stj_index::{mbr_join, MbrRelation};
use stj_raster::{AprilApprox, Grid};
use stj_serve::{query::dispatch_target, LoadedDataset, ServeConfig, ServeCtx};
use stj_store::{open_arena, read_wkt_polygons, write_arena_v2};

/// Probes timed one by one through the relate handler.
const DISPATCH_PROBES: usize = 2000;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder: a span per layer call, nested by a stack.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's length in seconds.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn opts(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut m = HashMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        m.insert(key.to_string(), v.clone());
    }
    Ok(m)
}

fn read_wkt(path: &Path) -> Result<Vec<Polygon>, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    read_wkt_polygons(std::io::BufReader::new(f)).map_err(|e| format!("{}: {e}", path.display()))
}

/// What the raster layer produced for one input.
struct Rasterized {
    dataset: Dataset,
    intervals: usize,
    capped: usize,
}

fn rasterize(name: &str, polys: Vec<Polygon>, grid: &Grid) -> Rasterized {
    let mut intervals = 0;
    let mut capped = 0;
    let objects = polys
        .into_iter()
        .map(|p| {
            // `AprilApprox::build_capped`, split so the budget's effect
            // can be counted.
            let full = AprilApprox::build(&p, grid);
            if full.c.len().max(full.p.len()) > DEFAULT_MAX_INTERVALS {
                capped += 1;
            }
            let april = full.with_max_intervals(DEFAULT_MAX_INTERVALS);
            intervals += april.num_intervals();
            SpatialObject::from_parts(p, april)
        })
        .collect();
    Rasterized {
        dataset: Dataset {
            name: name.to_string(),
            objects,
        },
        intervals,
        capped,
    }
}

fn run(args: &[String]) -> Result<Json, String> {
    let m = opts(args)?;
    let get = |k: &str| m.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let dir = PathBuf::from(get("dir")?);
    let out = PathBuf::from(get("out")?);
    let spans_path = PathBuf::from(get("spans")?);
    let predicate = (get("workload")? == "osm-intersects").then_some(TopoRelation::Intersects);
    let meta = json::parse(&std::fs::read(dir.join("meta.json")).map_err(|e| e.to_string())?)?;
    let right_name = meta
        .get("right")
        .and_then(Json::as_str)
        .ok_or("meta.json lacks right")?
        .to_string();
    let grid = Grid::new(
        Rect::from_coords(0.0, 0.0, 65536.0, 65536.0),
        pbkit::gen::GRID_ORDER,
    );
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut t = Tracer::new();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let (done, total) = t.span("trace", |t| -> Result<(), String> {
        let (parsed, s) = t.span("wkt.parse", |_| -> Result<_, String> {
            Ok((
                read_wkt(&dir.join("parks.wkt"))?,
                read_wkt(&dir.join(format!("{right_name}.wkt")))?,
            ))
        });
        let (parks, right) = parsed?;
        metrics.push(("wkt.parse_s", s, "s"));
        let right_wkt: Vec<String> = std::fs::read_to_string(dir.join(format!("{right_name}.wkt")))
            .map_err(|e| e.to_string())?
            .lines()
            .take(DISPATCH_PROBES)
            .map(str::to_string)
            .collect();

        let ((lr, rr), s) = t.span("raster.build", |_| {
            (
                rasterize("parks", parks, &grid),
                rasterize(&right_name, right, &grid),
            )
        });
        metrics.push(("raster.build_s", s, "s"));
        metrics.push((
            "raster.intervals",
            (lr.intervals + rr.intervals) as f64,
            "count",
        ));
        metrics.push((
            "raster.capped_objects",
            (lr.capped + rr.capped) as f64,
            "count",
        ));

        let paths = [
            out.join("trace-parks.stjd"),
            out.join(format!("trace-{right_name}.stjd")),
        ];
        let (written, s) = t.span("store.write", |_| -> Result<(), String> {
            for (ds, path) in [&lr.dataset, &rr.dataset].into_iter().zip(&paths) {
                let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
                let mut w = BufWriter::new(f);
                write_arena_v2(&mut w, &DatasetArena::from_dataset(ds), &grid)
                    .map_err(|e| e.to_string())?;
                std::io::Write::flush(&mut w).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        written?;
        metrics.push(("store.write_s", s, "s"));
        let bytes: u64 = paths
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum();
        let objects = lr.dataset.objects.len() + rr.dataset.objects.len();
        metrics.push(("store.bytes_per_object", bytes as f64 / objects as f64, "B"));
        drop((lr, rr));
        let (opened, s) = t.span("store.open", |_| -> Result<_, String> {
            let (l, _) = open_arena(&paths[0]).map_err(|e| e.to_string())?;
            let (r, _) = open_arena(&paths[1]).map_err(|e| e.to_string())?;
            Ok((l, r))
        });
        let (left, right) = opened?;
        metrics.push(("store.open_s", s, "s"));

        let (pairs, s) = t.span("index.mbr_join", |_| mbr_join(left.mbrs(), right.mbrs()));
        metrics.push(("index.mbr_join_s", s, "s"));
        metrics.push(("index.candidates", pairs.len() as f64, "count"));

        let (forwarded, s) = t.span("filter", |_| {
            let mut fwd: Vec<(u32, u32)> = Vec::new();
            for &(i, j) in &pairs {
                let (r, s) = (left.object(i as usize), right.object(j as usize));
                if let IfOutcome::Refine(_) =
                    intermediate_filter(MbrRelation::classify(r.mbr, s.mbr), r, s)
                {
                    fwd.push((i, j));
                }
            }
            fwd
        });
        metrics.push(("filter.s", s, "s"));
        let decided = 100.0 * (pairs.len() - forwarded.len()) as f64 / pairs.len().max(1) as f64;
        metrics.push(("filter.decided_pct", decided, "%"));

        let (_, s) = t.span("refine", |_| {
            let mut scratch = RelateScratch::default();
            for &(i, j) in &forwarded {
                let m = relate_with(
                    &left.object(i as usize).geom,
                    &right.object(j as usize).geom,
                    &mut scratch,
                );
                std::hint::black_box(TopoRelation::most_specific(&m));
            }
        });
        metrics.push(("refine.s", s, "s"));
        metrics.push(("refine.pairs", forwarded.len() as f64, "count"));
        metrics.push((
            "refine.us_per_pair",
            s * 1e6 / forwarded.len().max(1) as f64,
            "us",
        ));

        let (_, s) = t.span("relate_p", |_| {
            for &(i, j) in &pairs {
                std::hint::black_box(relate_p(
                    left.object(i as usize),
                    right.object(j as usize),
                    TopoRelation::Intersects,
                ));
            }
        });
        metrics.push(("relate_p.s", s, "s"));

        let join = |n: usize| {
            let j = TopologyJoin::new().threads(n).adaptive(AdaptiveMode::On);
            match predicate {
                Some(p) => j.predicate(p),
                None => j,
            }
        };
        let (_, s1) = t.span("exec.run_1t", |_| {
            std::hint::black_box(join(1).run(&left, &right).links.len())
        });
        let (result, sn) = t.span("exec.run", |_| join(threads).run(&left, &right));
        metrics.push(("exec.run_1t_s", s1, "s"));
        metrics.push(("exec.run_s", sn, "s"));
        metrics.push(("exec.speedup", s1 / sn, "x"));

        let (nt, s) = t.span("output.ntriples", |_| {
            links_to_ntriples(
                &result.links,
                |i| format!("urn:stj:parks:{i}"),
                |j| format!("urn:stj:{right_name}:{j}"),
                false,
            )
        });
        std::hint::black_box(nt.len());
        metrics.push(("output.ntriples_s", s, "s"));
        drop((left, right));

        let loaded = LoadedDataset::open(&paths[0])?;
        let ctx = ServeCtx::new(ServeConfig::default(), vec![loaded]);
        let (lat, _) = t.span("serve.dispatch", |t| {
            right_wkt
                .iter()
                .map(|w| {
                    let (resp, s) = t.span("serve.relate", |_| {
                        dispatch_target(&ctx, "POST", "/v1/relate?dataset=parks", w.as_bytes())
                    });
                    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                    s
                })
                .collect::<Vec<f64>>()
        });
        metrics.push(("serve.dispatch_us", median(lat) * 1e6, "us"));
        let (lat, _) = t.span("serve.probe_raster", |t| {
            right_wkt
                .iter()
                .map(|w| {
                    t.span("serve.probe", |_| {
                        let poly = read_wkt_polygons(w.as_bytes()).expect("generated WKT parses");
                        std::hint::black_box(AprilApprox::build_capped(
                            &poly[0],
                            &grid,
                            DEFAULT_MAX_INTERVALS,
                        ));
                    })
                    .1
                })
                .collect::<Vec<f64>>()
        });
        metrics.push(("serve.probe_raster_us", median(lat) * 1e6, "us"));
        for p in &paths {
            let _ = std::fs::remove_file(p);
        }
        Ok(())
    });
    done?;
    std::fs::write(&spans_path, t.to_json().render()).map_err(|e| format!("write spans: {e}"))?;
    eprintln!(
        "pbtrace: {} layer metrics, traced run total {total:.3} s",
        metrics.len()
    );
    Ok(obj([
        ("total_s", Json::Num(total)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(k, v, u)| {
                        (
                            k.to_string(),
                            obj([("value", Json::Num(v)), ("unit", Json::Str(u.to_string()))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(doc) => {
            println!("{}", doc.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pbtrace: {e}");
            ExitCode::FAILURE
        }
    }
}
