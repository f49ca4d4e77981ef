//! `pbkit` — input generation, oracle, output checks and relate load.
//!
//! ```text
//! pbkit prepare  --workload W --seed N --dir DIR
//! pbkit check-nt --dir DIR --nt FILE --mode relation|intersects
//! pbkit load     --workload W --seed N --addr HOST:PORT --seconds S --conns C
//! pbkit calibrate --threads N
//! ```
//!
//! Each command prints one JSON object on stdout.

use pbkit::check::{check_ntriples, Mode};
use pbkit::gen::{self, Workload};
use pbkit::geom::Poly;
use pbkit::json::{obj, Json};
use pbkit::load::{self, par_map};
use pbkit::oracle::{relate, Rel};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("prepare") => prepare(&args[1..]),
        Some("check-nt") => check_nt(&args[1..]),
        Some("load") => run_load(&args[1..]),
        Some("calibrate") => calibrate(&args[1..]),
        _ => Err("usage: pbkit prepare|check-nt|load|calibrate ...".into()),
    };
    match result {
        Ok(doc) => {
            println!("{}", doc.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pbkit: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--key value` options.
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

fn opt<'a>(m: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    m.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn workload_and_seed(m: &HashMap<String, String>) -> Result<(Workload, u64), String> {
    let w = opt(m, "workload")?;
    let workload = Workload::parse(w).ok_or_else(|| format!("unknown workload {w:?}"))?;
    let seed = opt(m, "seed")?
        .parse()
        .map_err(|_| "bad --seed".to_string())?;
    Ok((workload, seed))
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn write_wkt(path: &Path, polys: &[Poly]) -> Result<u64, String> {
    let mut text = String::new();
    for p in polys {
        text.push_str(&p.to_wkt());
        text.push('\n');
    }
    std::fs::write(path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(text.len() as u64)
}

/// Every `(left, right)` pair whose MBRs intersect, in left-major order.
fn mbr_pairs(left: &[Poly], right: &[Poly]) -> Vec<(u32, u32)> {
    let lm: Vec<_> = left.iter().map(Poly::mbr).collect();
    let mut out = Vec::new();
    for (j, r) in right.iter().enumerate() {
        let m = r.mbr();
        for (i, l) in lm.iter().enumerate() {
            if l.intersects(&m) {
                out.push((i as u32, j as u32));
            }
        }
    }
    out.sort_unstable();
    out
}

fn num(x: impl Into<f64>) -> Json {
    Json::Num(x.into())
}

/// Generates the workload's inputs and, for the offline workloads, the
/// oracle's relation for every candidate pair.
fn prepare(args: &[String]) -> Result<Json, String> {
    let m = opts(args)?;
    let (workload, seed) = workload_and_seed(&m)?;
    let dir = PathBuf::from(opt(&m, "dir")?);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let inputs = gen::inputs(workload, seed);
    write_wkt(&dir.join("parks.wkt"), &inputs.parks)?;
    write_wkt(&dir.join("buildings.wkt"), &inputs.buildings)?;
    // The right-hand side of the oracle's pairs: the buildings, or for the
    // relate stream the probes of its first round (the traced run joins
    // those with the parks in-process).
    let (right, fixed_right_from) = if workload == Workload::ServeRelate {
        let fixed = gen::fixed_probes(&inputs);
        let round = gen::round(&inputs, &fixed, seed, 0);
        let fresh = &round.probes[fixed.len()..];
        let probes: Vec<Poly> = fresh.iter().chain(&fixed).map(|p| p.poly.clone()).collect();
        (probes, fresh.len())
    } else {
        (inputs.buildings.clone(), inputs.fixed_buildings_from)
    };
    let right_name = if workload == Workload::ServeRelate {
        write_wkt(&dir.join("probes.wkt"), &right)?;
        "probes"
    } else {
        "buildings"
    };

    let pairs = mbr_pairs(&inputs.parks, &right);
    let rels: Vec<Rel> = par_map(&pairs, threads(), |&(i, j)| {
        relate(&inputs.parks[i as usize], &right[j as usize])
    });
    let mut tsv = String::with_capacity(pairs.len() * 16);
    let mut hist: BTreeMap<String, Json> = BTreeMap::new();
    let mut fixed_candidates = 0u64;
    for (&(i, j), rel) in pairs.iter().zip(&rels) {
        tsv.push_str(&format!("{i}\t{j}\t{}\n", rel.name()));
        if let Json::Num(n) = hist.entry(rel.name().to_string()).or_insert(Json::Num(0.0)) {
            *n += 1.0;
        }
        if i as usize >= inputs.fixed_parks_from || j as usize >= fixed_right_from {
            fixed_candidates += 1;
        }
    }
    std::fs::write(dir.join("expected.tsv"), tsv).map_err(|e| e.to_string())?;
    let vertices: Vec<usize> = inputs.parks.iter().map(Poly::num_vertices).collect();
    let meta = obj([
        ("workload", Json::Str(opt(&m, "workload")?.to_string())),
        ("seed", num(seed as f64)),
        ("order", num(gen::GRID_ORDER)),
        (
            "extent",
            Json::Arr(vec![
                num(0),
                num(0),
                num(pbkit::geom::LATTICE as f64),
                num(pbkit::geom::LATTICE as f64),
            ]),
        ),
        ("parks", num(inputs.parks.len() as f64)),
        ("right", Json::Str(right_name.to_string())),
        ("right_objects", num(right.len() as f64)),
        ("fixed_parks_from", num(inputs.fixed_parks_from as f64)),
        ("fixed_right_from", num(fixed_right_from as f64)),
        ("candidates", num(pairs.len() as f64)),
        ("fixed_candidates", num(fixed_candidates as f64)),
        (
            "park_vertices_max",
            num(*vertices.iter().max().unwrap_or(&0) as f64),
        ),
        (
            "park_vertices_total",
            num(vertices.iter().sum::<usize>() as f64),
        ),
        (
            "park_holes",
            num(inputs
                .parks
                .iter()
                .map(|p| p.rings.len() - 1)
                .sum::<usize>() as f64),
        ),
        ("relations", Json::Obj(hist)),
    ]);
    std::fs::write(dir.join("meta.json"), meta.render()).map_err(|e| e.to_string())?;
    Ok(meta)
}

/// Checks an N-Triples file against `expected.tsv` of `--dir`.
fn check_nt(args: &[String]) -> Result<Json, String> {
    let m = opts(args)?;
    let dir = PathBuf::from(opt(&m, "dir")?);
    let mode = match opt(&m, "mode")? {
        "relation" => Mode::Relation,
        "intersects" => Mode::Intersects,
        other => return Err(format!("unknown mode {other:?}")),
    };
    let meta_text = std::fs::read(dir.join("meta.json")).map_err(|e| e.to_string())?;
    let meta = pbkit::json::parse(&meta_text)?;
    let field = |k: &str| {
        meta.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("meta.json lacks {k}"))
    };
    let fixed_from = (
        field("fixed_parks_from")? as u32,
        field("fixed_right_from")? as u32,
    );
    let right = meta
        .get("right")
        .and_then(Json::as_str)
        .ok_or("meta.json lacks right")?
        .to_string();
    let tsv = std::fs::read_to_string(dir.join("expected.tsv")).map_err(|e| e.to_string())?;
    let mut expected = HashMap::new();
    for line in tsv.lines() {
        let mut f = line.split('\t');
        let (Some(i), Some(j), Some(r)) = (f.next(), f.next(), f.next()) else {
            return Err(format!("bad expected line {line:?}"));
        };
        let rel = Rel::parse(r).ok_or_else(|| format!("bad relation {r:?}"))?;
        expected.insert(
            (
                i.parse().map_err(|_| "bad id")?,
                j.parse().map_err(|_| "bad id")?,
            ),
            rel,
        );
    }
    let nt_path = opt(&m, "nt")?;
    let text = std::fs::read_to_string(nt_path).map_err(|e| format!("read {nt_path}: {e}"))?;
    let rep = check_ntriples(&text, &expected, ("parks", &right), mode, fixed_from);
    let mut problems = rep.problems.clone();
    problems.truncate(5);
    Ok(obj([
        ("correct", Json::Bool(rep.problems.is_empty())),
        ("attempted", num(rep.attempted as f64)),
        ("failed", num(rep.failed as f64)),
        ("failed_seeded", num(rep.failed_seeded as f64)),
        ("links", num(rep.links as f64)),
        (
            "problems",
            Json::Arr(problems.into_iter().map(Json::Str).collect()),
        ),
        (
            "mismatches",
            Json::Obj(
                rep.mismatches
                    .into_iter()
                    .map(|(k, v)| (k, num(v as f64)))
                    .collect(),
            ),
        ),
    ]))
}

/// One measurement of the reference computation (see `calib.rs`).
fn calibrate(args: &[String]) -> Result<Json, String> {
    let m = opts(args)?;
    let threads: usize = opt(&m, "threads")?.parse().map_err(|_| "bad --threads")?;
    let secs = pbkit::calib::reference_seconds(threads);
    Ok(obj([("seconds", num(secs))]))
}

/// Closed-loop relate load against a running server.
fn run_load(args: &[String]) -> Result<Json, String> {
    let m = opts(args)?;
    let (workload, seed) = workload_and_seed(&m)?;
    let seconds: f64 = opt(&m, "seconds")?.parse().map_err(|_| "bad --seconds")?;
    let conns: usize = opt(&m, "conns")?.parse().map_err(|_| "bad --conns")?;
    let inputs = gen::inputs(workload, seed);
    load::run(&inputs, seed, opt(&m, "addr")?, conns, seconds)
}
