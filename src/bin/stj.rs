//! `stj` — command-line front end for spatial topology joins.
//!
//! ```text
//! stj relate <WKT> <WKT>                    DE-9IM + most specific relation
//! stj generate <DATASET> <SCALE> <OUT.wkt>  write a synthetic dataset as WKT
//! stj preprocess <IN.wkt> <OUT.stjd> [opts] build MBRs + APRIL, save STJD v2
//!     --order N      grid order (default 16)
//!     --extent x0 y0 x1 y1   grid extent (default: dataset MBR + 1%)
//!     --name NAME    dataset name (default: file stem)
//! stj info <DATASET.stjd>                   format version, counts, sections
//!                                           (reads STJD v2 and legacy v1)
//! stj join <LEFT.stjd> <RIGHT.stjd> [opts]  run the topology join
//!     --method pc|st2|op2|april   (default pc)
//!     --predicate REL             relate_p mode (inside, meets, ...)
//!     --threads N                 worker threads (0 = auto-detect via
//!                                 available_parallelism; default 0)
//!     --ntriples OUT.nt           write GeoSPARQL links as N-Triples
//!     --stats-json OUT.json       write a machine-readable join report
//!                                 (per-stage latency histograms, scheduler
//!                                 contention metrics, and per-site
//!                                 allocation attribution; enables profiling)
//!     --trace OUT.json            flight-recorder trace of the join
//!                                 executor as Chrome trace-event JSON
//!                                 (open in chrome://tracing or Perfetto)
//!     --adaptive on|off|force-skip  adaptive filter ordering (default on):
//!                                 per-MBR-class counters decide after a
//!                                 warm-up whether the APRIL stage pays for
//!                                 itself; links are identical in every
//!                                 mode, only wall time and the stage
//!                                 split move. `off` restores the static
//!                                 pipeline; `force-skip` bypasses APRIL
//!                                 everywhere (debugging/benchmarks)
//!     --progress                  pairs/sec heartbeat on stderr
//!     --quiet                     suppress the human-readable summary
//! stj bench-diff <BASELINE.json> <CURRENT.json> [--threshold PCT]
//!     compare two stj-bench/v1 documents run-by-run; exits non-zero
//!     when any metric regresses beyond the threshold (default 10%)
//! ```
//!
//! ```text
//! stj serve [opts]                          run the online query service
//!     --data FILE.stjd   dataset to load (repeatable; zero-copy when
//!                        the platform supports it)
//!     --addr HOST:PORT   listen address (default 127.0.0.1:7878;
//!                        port 0 picks a free port)
//!     --threads N        worker threads (0 = auto; default 0)
//!     --queue-depth N    bounded accept queue; beyond it connections
//!                        are shed with 429 + Retry-After (default 64)
//!     --cache-mb N       probe-result LRU cache budget (default 64)
//!     --deadline-ms N    per-request deadline; responses that hit it
//!                        carry truncated:true (0 = off; default 2000)
//!     --max-links N      server-side cap for /v1/join (default 100000)
//!     --adaptive on|off|force-skip  adaptive filter ordering (default on);
//!                        one resident model warms across relate requests
//!                        and its decision trace is exported at /stats
//!     --stats-json OUT   write the final stj-serve-report/v1 on drain
//!     --quiet            suppress startup/drain chatter on stderr
//! stj query --addr HOST:PORT [--framed] <SUB>   one-shot client
//!     relate <DATASET> <WKT> [--limit N]
//!     pair <LEFT> <I> <RIGHT> <J>
//!     join <LEFT> <RIGHT> [--method M] [--predicate REL] [--max-links N]
//!     stats | metrics | datasets | healthz
//! ```
//!
//! ```text
//! stj check [opts]                          differential correctness harness
//!     --seed S       run seed: decimal, 0x-hex, or any string (hashed)
//!     --pairs N      adversarial pairs to check (default 1000)
//!     --threads N    worker threads (default 1; results identical)
//!     --order N      grid order for APRIL rasterization (default 8)
//!     --json OUT     write the stj-check-report/v1 JSON summary
//!     --dump OUT     WKT repro file for violations (default stj-check-repro.wkt)
//! ```
//!
//! `check` exits non-zero when any invariant is violated.
//!
//! Join statistics go to **stderr**; stdout stays clean/pipeable.
//! Datasets for `generate`: TL TW TC TZ OBE OLE OPE OBN OLN OPN.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use stjoin::core::linking::links_to_ntriples;
use stjoin::core::DatasetArena;
use stjoin::core::{JoinMethod, TopologyJoin};
use stjoin::datagen::DatasetId;
use stjoin::geom::wkt::polygon_from_wkt;
use stjoin::obs::Json;
use stjoin::prelude::*;
use stjoin::store::{
    dataset_info, external_join_files, is_manifest_file, open_arena, read_manifest_file,
    read_wkt_polygons, write_arena_v2, write_sharded, write_wkt_polygons, ShardedDataset,
};

/// Passthrough to the system allocator that feeds the stage-tagged
/// attribution counters in [`stjoin::obs::alloc`]. The hook is a single
/// relaxed load unless a `--stats-json` join turned tracking on.
struct SiteCountingAlloc;

unsafe impl GlobalAlloc for SiteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        stjoin::obs::alloc::note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        stjoin::obs::alloc::note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: SiteCountingAlloc = SiteCountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("relate") => cmd_relate(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("preprocess") => cmd_preprocess(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("join") => cmd_join(&args[1..]),
        Some("bench-diff") => cmd_bench_diff(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("discover") => cmd_discover(&args[1..]),
        Some("check") => return cmd_check(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            eprint!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
stj — scalable spatial topology joins

USAGE:
  stj relate <WKT> <WKT>
  stj generate <DATASET> <SCALE> <OUT.wkt>
  stj preprocess <IN.wkt> <OUT.stjd> [--order N] [--extent x0 y0 x1 y1] [--name NAME]
                 [--shards N (write OUT as an STJM manifest
                 plus N Hilbert-range shard files for out-of-core joins)]
  stj info <DATASET.stjd|MANIFEST.stjm>
  stj join <LEFT> <RIGHT> [--method pc|st2|op2|april]
           (either side may be a .stjd dataset or a .stjm shard manifest;
            a manifest on either side selects the out-of-core driver)
           [--predicate REL] [--threads N (0 = auto)]
           [--adaptive on|off|force-skip]
           [--ntriples OUT.nt]
           [--stats-json OUT.json] [--trace OUT.json] [--progress] [--quiet]
  stj bench-diff <BASELINE.json> <CURRENT.json> [--threshold PCT]
  stj serve --data <FILE.stjd> [--data <FILE.stjd> ...] [--addr HOST:PORT]
            [--threads N (0 = auto)] [--queue-depth N] [--cache-mb N]
            [--deadline-ms N (0 = off)] [--max-links N]
            [--idle-ms N] [--header-ms N (slow-loris bound)]
            [--adaptive on|off|force-skip]
            [--stats-json OUT.json] [--quiet]
            (SIGHUP or POST /v1/admin/reload hot-swaps the datasets)
  stj query --addr HOST:PORT [--framed] [--no-retry] <SUBCOMMAND>
            relate <DATASET> <WKT> [--limit N]
            pair <LEFT> <I> <RIGHT> <J>
            join <LEFT> <RIGHT> [--method M] [--predicate REL] [--max-links N]
            discover <DATASET> [--format ndjson|nt] [--name NAME]
                     (WKT probes on stdin, streamed links on stdout)
            reload [PATH ...]
            stats | metrics | datasets | healthz
            (429 sheds honor Retry-After with bounded retries unless
             --no-retry)
  stj discover --data <FILE.stjd> [--format ndjson|nt] [--name NAME]
            (offline twin of /v1/discover: WKT probes on stdin,
             links on stdout)
  stj check [--seed S] [--pairs N] [--threads N] [--order N]
            [--json OUT.json] [--dump OUT.wkt]
";

fn cmd_relate(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("relate needs exactly two WKT arguments".into());
    };
    let pa = polygon_from_wkt(a).map_err(|e| format!("first geometry: {e}"))?;
    let pb = polygon_from_wkt(b).map_err(|e| format!("second geometry: {e}"))?;
    let m = relate(&pa, &pb);
    println!("DE-9IM:   {m}");
    println!("relation: {}", TopoRelation::most_specific(&m));
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let [name, scale, out] = args else {
        return Err("generate needs <DATASET> <SCALE> <OUT.wkt>".into());
    };
    let id = parse_dataset(name)?;
    let scale: f64 = scale.parse().map_err(|_| format!("bad scale {scale:?}"))?;
    let polys = stjoin::datagen::generate(id, scale);
    let f = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let mut w = BufWriter::new(f);
    write_wkt_polygons(&mut w, &polys).map_err(|e| format!("write {out}: {e}"))?;
    w.flush().map_err(|e| e.to_string())?;
    println!("wrote {} polygons to {out}", polys.len());
    Ok(())
}

fn cmd_preprocess(args: &[String]) -> Result<(), String> {
    let mut pos = Vec::new();
    let mut order = 16u32;
    let mut name: Option<String> = None;
    let mut extent: Option<Rect> = None;
    let mut shards = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--order" => {
                order = next_arg(&mut it, "--order")?
                    .parse()
                    .map_err(|_| "bad --order value".to_string())?;
            }
            "--shards" => {
                shards = next_arg(&mut it, "--shards")?
                    .parse()
                    .map_err(|_| "bad --shards value".to_string())?;
                if shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--name" => name = Some(next_arg(&mut it, "--name")?),
            "--extent" => {
                let mut v = [0.0f64; 4];
                for slot in &mut v {
                    *slot = next_arg(&mut it, "--extent")?
                        .parse()
                        .map_err(|_| "bad --extent value".to_string())?;
                }
                extent = Some(Rect::from_coords(v[0], v[1], v[2], v[3]));
            }
            other => pos.push(other.to_string()),
        }
    }
    let [input, output] = pos.as_slice() else {
        return Err("preprocess needs <IN.wkt> <OUT.stjd>".into());
    };

    let f = File::open(input).map_err(|e| format!("open {input}: {e}"))?;
    let polys = read_wkt_polygons(BufReader::new(f)).map_err(|e| e.to_string())?;
    if polys.is_empty() {
        return Err("input contains no polygons".into());
    }
    let extent = extent.unwrap_or_else(|| {
        let mut r = Rect::empty();
        for p in &polys {
            r.grow_rect(p.mbr());
        }
        // Pad 1% so border objects don't sit exactly on the grid edge.
        let (w, h) = (r.width() * 0.01, r.height() * 0.01);
        Rect::from_coords(r.min.x - w, r.min.y - h, r.max.x + w, r.max.y + h)
    });
    let grid = Grid::new(extent, order);
    let ds_name = name.unwrap_or_else(|| {
        std::path::Path::new(input)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "dataset".into())
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let count = polys.len();
    let arena = DatasetArena::build(&ds_name, &polys, &grid, DEFAULT_MAX_INTERVALS, threads);
    drop(polys);
    if shards > 0 {
        let manifest = write_sharded(std::path::Path::new(output), &arena, &grid, shards)
            .map_err(|e| format!("write {output}: {e}"))?;
        println!(
            "preprocessed {count} polygons into {} Hilbert shard(s) (grid order {order}) -> {output}",
            manifest.shards.len()
        );
        return Ok(());
    }
    let f = File::create(output).map_err(|e| format!("create {output}: {e}"))?;
    let mut w = BufWriter::new(f);
    write_arena_v2(&mut w, &arena, &grid).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())?;
    println!("preprocessed {count} polygons (grid order {order}, format v2) -> {output}");
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("info needs exactly one <DATASET.stjd> argument".into());
    };
    if is_manifest_file(std::path::Path::new(path)) {
        let bytes = std::fs::metadata(path)
            .map_err(|e| format!("{path}: {e}"))?
            .len();
        let m =
            read_manifest_file(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        println!("file:     {path} ({bytes} bytes)");
        println!("format:   STJM shard manifest");
        println!("name:     {}", m.name);
        let e = m.grid.extent();
        println!(
            "grid:     order {} over ({}, {})..({}, {})",
            m.grid.order(),
            e.min.x,
            e.min.y,
            e.max.x,
            e.max.y
        );
        println!(
            "objects:  {} across {} shard(s)",
            m.total_objects(),
            m.shards.len()
        );
        for (k, s) in m.shards.iter().enumerate() {
            println!(
                "  shard {k}: {} ({} objects, hilbert {}..={}, extent ({}, {})..({}, {}))",
                s.file,
                s.ids.len(),
                s.d_lo,
                s.d_hi,
                s.extent.min.x,
                s.extent.min.y,
                s.extent.max.x,
                s.extent.max.y
            );
        }
        return Ok(());
    }
    let info = dataset_info(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    println!("file:     {path} ({} bytes)", info.file_bytes);
    println!("format:   STJD v{}", info.version);
    println!("name:     {}", info.name);
    println!(
        "grid:     order {} over ({}, {})..({}, {})",
        info.order, info.extent.min.x, info.extent.min.y, info.extent.max.x, info.extent.max.y
    );
    println!(
        "objects:  {} ({} rings, {} vertices)",
        info.n_objects, info.n_rings, info.n_vertices
    );
    println!(
        "april:    {} P intervals, {} C intervals",
        info.n_p, info.n_c
    );
    if !info.sections.is_empty() {
        println!("sections:");
        for (name, bytes) in &info.sections {
            println!("  {name:<14} {bytes} bytes");
        }
    }
    Ok(())
}

fn cmd_join(args: &[String]) -> Result<(), String> {
    let mut pos = Vec::new();
    let mut method = JoinMethod::PC;
    let mut method_name = "pc";
    let mut predicate: Option<TopoRelation> = None;
    // 0 = auto-detect (available_parallelism), resolved by TopologyJoin.
    let mut threads = 0usize;
    let mut ntriples: Option<String> = None;
    let mut stats_json: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut progress = false;
    let mut quiet = false;
    // The CLI defaults adaptive ordering on: skipping APRIL only ever
    // re-routes a pair to exact refinement, so links are identical and
    // `--adaptive off` exists for stage-attribution reproducibility.
    let mut adaptive = AdaptiveMode::On;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--method" => {
                let name = next_arg(&mut it, "--method")?;
                (method, method_name) = match name.as_str() {
                    "pc" => (JoinMethod::PC, "pc"),
                    "st2" => (JoinMethod::St2, "st2"),
                    "op2" => (JoinMethod::Op2, "op2"),
                    "april" => (JoinMethod::April, "april"),
                    other => return Err(format!("unknown method {other:?}")),
                };
            }
            "--predicate" => predicate = Some(parse_relation(&next_arg(&mut it, "--predicate")?)?),
            "--threads" => {
                threads = next_arg(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "bad --threads value".to_string())?;
            }
            "--ntriples" => ntriples = Some(next_arg(&mut it, "--ntriples")?),
            "--stats-json" => stats_json = Some(next_arg(&mut it, "--stats-json")?),
            "--trace" => trace_out = Some(next_arg(&mut it, "--trace")?),
            "--adaptive" => {
                let name = next_arg(&mut it, "--adaptive")?;
                adaptive = AdaptiveMode::parse(&name).ok_or_else(|| {
                    format!("unknown adaptive mode {name:?} (expected on, off, or force-skip)")
                })?;
            }
            "--progress" => progress = true,
            "--quiet" => quiet = true,
            other => pos.push(other.to_string()),
        }
    }
    let [left_path, right_path] = pos.as_slice() else {
        return Err("join needs <LEFT.stjd> <RIGHT.stjd>".into());
    };
    let external = is_manifest_file(std::path::Path::new(left_path))
        || is_manifest_file(std::path::Path::new(right_path));
    if external && trace_out.is_some() {
        return Err("--trace records the per-task spans of a single in-memory \
             run; it cannot be combined with sharded (out-of-core) inputs \
             (an STJM manifest was given). To trace this join, point it at \
             single-arena .stjd files instead — e.g. re-run preprocess \
             without --shards — or drop --trace to run the sharded join."
            .into());
    }

    let mut join = TopologyJoin::new()
        .method(method)
        .threads(threads)
        .adaptive(adaptive)
        .profiled(stats_json.is_some())
        .traced(trace_out.is_some())
        .progress(progress);
    if let Some(p) = predicate {
        join = join.predicate(p);
    }
    // In-memory inputs load outside the timed region, as before; the
    // external driver loads shards lazily, so its wall time includes IO.
    let inputs = if external {
        None
    } else {
        let (left, lgrid) = load(left_path)?;
        let (right, rgrid) = load(right_path)?;
        if lgrid != rgrid {
            return Err(format!(
                "grid mismatch: {left_path} and {right_path} were preprocessed on \
                 different grids; re-run preprocess with a common --extent/--order"
            ));
        }
        Some((left, right))
    };
    // Bracket the run with the site-attribution counters so the report
    // can split the refine path's allocations by site.
    let alloc_before = if stats_json.is_some() {
        stjoin::obs::alloc::reset();
        stjoin::obs::alloc::set_tracking(true);
        Some(stjoin::obs::alloc::snapshot())
    } else {
        None
    };
    let t = std::time::Instant::now();
    let (out, lname, rname) = match &inputs {
        Some((left, right)) => (
            join.run(left, right),
            left.name().to_string(),
            right.name().to_string(),
        ),
        None => {
            let left = ShardedDataset::open(std::path::Path::new(left_path))
                .map_err(|e| format!("{left_path}: {e}"))?;
            let right = ShardedDataset::open(std::path::Path::new(right_path))
                .map_err(|e| format!("{right_path}: {e}"))?;
            let out = external_join_files(&join, &left, &right).map_err(|e| e.to_string())?;
            (out, left.name().to_string(), right.name().to_string())
        }
    };
    let dt = t.elapsed();
    let alloc = alloc_before.map(|before| {
        let snap = stjoin::obs::alloc::snapshot().since(&before);
        stjoin::obs::alloc::set_tracking(false);
        snap
    });

    let mut histogram = std::collections::BTreeMap::new();
    for l in &out.links {
        *histogram.entry(l.relation.to_string()).or_insert(0u64) += 1;
    }

    // Human-readable statistics go to stderr: stdout is reserved for
    // pipeable output.
    if !quiet {
        eprintln!(
            "{} x {} -> {} candidates, {} links in {:.2?} ({:.0} pairs/s, {:.1}% refined)",
            lname,
            rname,
            out.candidates,
            out.links.len(),
            dt,
            out.candidates as f64 / dt.as_secs_f64().max(1e-12),
            out.stats.undetermined_pct()
        );
        for (rel, n) in &histogram {
            eprintln!("  {rel:<12} {n}");
        }
    }

    if let Some(path) = stats_json {
        let effective_threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        let report = join_report(
            &out,
            &lname,
            &rname,
            method_name,
            predicate,
            effective_threads,
            dt,
            &histogram,
            alloc,
            adaptive,
        );
        std::fs::write(&path, report.render()).map_err(|e| format!("write {path}: {e}"))?;
        if !quiet {
            eprintln!("wrote join report to {path}");
        }
    }

    if let Some(path) = trace_out {
        let trace = out
            .trace
            .as_ref()
            .expect("traced streaming run returns a trace");
        std::fs::write(&path, trace.to_chrome_json().render())
            .map_err(|e| format!("write {path}: {e}"))?;
        if !quiet {
            let spans: usize = trace.workers.iter().map(|w| w.spans.len()).sum();
            eprintln!(
                "wrote flight-recorder trace to {path} ({spans} spans on {} workers; \
                 open in chrome://tracing or ui.perfetto.dev)",
                trace.workers.len()
            );
        }
    }

    if let Some(path) = ntriples {
        let nt = links_to_ntriples(
            &out.links,
            |i| format!("urn:stj:{lname}:{i}"),
            |j| format!("urn:stj:{rname}:{j}"),
            false,
        );
        std::fs::write(&path, nt).map_err(|e| format!("write {path}: {e}"))?;
        if !quiet {
            eprintln!("wrote {} link triples to {path}", out.links.len());
        }
    }
    Ok(())
}

/// Assembles the `--stats-json` document (schema `stj-join-report/v1`).
#[allow(clippy::too_many_arguments)]
fn join_report(
    out: &stjoin::core::JoinResult,
    left: &str,
    right: &str,
    method: &str,
    predicate: Option<TopoRelation>,
    threads: usize,
    wall: std::time::Duration,
    histogram: &std::collections::BTreeMap<String, u64>,
    alloc: Option<stjoin::obs::AllocSnapshot>,
    adaptive: AdaptiveMode,
) -> Json {
    let wall_ns = wall.as_nanos().min(u128::from(u64::MAX)) as u64;
    let mut report = Json::object([
        ("schema", Json::str("stj-join-report/v1")),
        ("left", Json::str(left)),
        ("right", Json::str(right)),
        ("method", Json::str(method)),
        // The join has a single executor; the field stays so
        // stj-join-report/v1 keeps its shape.
        ("exec", Json::str("streaming")),
        (
            "predicate",
            predicate.map_or(Json::Null, |p| Json::str(p.to_string())),
        ),
        ("threads", Json::from(threads)),
        ("candidates", Json::U64(out.candidates)),
        ("links", Json::from(out.links.len())),
        ("wall_ns", Json::U64(wall_ns)),
        (
            "pairs_per_sec",
            Json::F64(out.candidates as f64 / wall.as_secs_f64().max(1e-12)),
        ),
        (
            "stats",
            Json::object([
                ("pairs", Json::U64(out.stats.pairs)),
                ("by_mbr", Json::U64(out.stats.by_mbr)),
                ("by_intermediate", Json::U64(out.stats.by_intermediate)),
                ("refined", Json::U64(out.stats.refined)),
                ("undetermined_pct", Json::F64(out.stats.undetermined_pct())),
            ]),
        ),
        (
            "relations",
            Json::Obj(
                histogram
                    .iter()
                    .map(|(rel, n)| (rel.clone(), Json::U64(*n)))
                    .collect(),
            ),
        ),
    ]);
    // The adaptive decision trace when a model ran; otherwise just the
    // requested mode (off, or a baseline method that never runs one),
    // so consumers always find the key.
    report.push(
        "adaptive",
        out.adaptive.as_ref().map_or_else(
            || Json::object([("mode", Json::str(adaptive.label()))]),
            |r| r.to_json(),
        ),
    );
    if let Some(profile) = &out.profile {
        report.push(
            "profile",
            profile.to_json(&stjoin::core::mbr_class_labels()),
        );
    }
    if let Some(sched) = &out.sched {
        report.push("sched", sched.to_json());
    }
    if let Some(alloc) = alloc {
        report.push("alloc", alloc.to_json());
    }
    report
}

/// How a `bench-diff` metric is judged.
#[derive(Clone, Copy, PartialEq)]
enum MetricKind {
    /// Regression when current exceeds baseline by the threshold
    /// (wall times, byte footprints).
    LowerBetter,
    /// Regression when current falls below baseline by the threshold
    /// (throughputs).
    HigherBetter,
    /// Any change at all is a regression (result counts — a join that
    /// finds different links is broken, not slow).
    Exact,
    /// Regression on *any* increase; decreases pass (and should be
    /// promoted into the baseline). Used for allocation counts: the
    /// scratch arenas make steady-state refinement allocation-free,
    /// so alloc totals are deterministic setup costs — a single
    /// reintroduced per-pair allocation multiplies by the candidate
    /// count, and no percentage threshold should forgive that.
    ExactOrLower,
    /// Reported but never judged (configuration echoes).
    Info,
}

fn metric_kind(name: &str) -> MetricKind {
    match name {
        "candidates" | "links" => MetricKind::Exact,
        "threads" | "stream_batch_pairs" | "objects" | "connections" | "requests" => {
            MetricKind::Info
        }
        "allocs" => MetricKind::ExactOrLower,
        // Load-shedding under the benchmark's open-loop arrival rate:
        // any growth means the server keeps up less well.
        "sheds" | "shed_rate" => MetricKind::LowerBetter,
        // Peak resident set (VmHWM) is reported in bytes but doesn't
        // carry the suffix; growth is a regression.
        "peak_rss" => MetricKind::LowerBetter,
        _ if name.ends_with("_ns") || name.ends_with("_bytes") => MetricKind::LowerBetter,
        _ if name.contains("per_sec") || name.contains("throughput") => MetricKind::HigherBetter,
        _ => MetricKind::Info,
    }
}

/// Numeric fields that are part of a run's *identity* (configuration)
/// rather than its results.
fn is_identity_number(key: &str) -> bool {
    matches!(key, "threads" | "connections")
}

/// The identity of one run within an `stj-bench/v1` document: every
/// string-valued field plus the numeric configuration fields
/// (`threads`, `connections`), rendered `key=value` sorted.
fn run_identity(run: &Json) -> String {
    let Json::Obj(entries) = run else {
        return String::new();
    };
    let mut parts: Vec<String> = entries
        .iter()
        .filter_map(|(k, v)| match v {
            Json::Str(s) => Some(format!("{k}={s}")),
            _ if is_identity_number(k) => v.as_u64().map(|n| format!("{k}={n}")),
            _ => None,
        })
        .collect();
    parts.sort();
    parts.join(" ")
}

/// One-sided identity match: every identity field of the *baseline* run
/// must agree in `cur`; identity fields only the current run carries
/// (e.g. a label added by a newer binary) are ignored, so extending a
/// benchmark's schema doesn't orphan every baseline run.
fn identity_covers(base: &Json, cur: &Json) -> bool {
    let Json::Obj(entries) = base else {
        return false;
    };
    entries.iter().all(|(k, v)| match v {
        Json::Str(s) => cur.get(k).and_then(Json::as_str) == Some(s.as_str()),
        _ if is_identity_number(k) => cur.get(k).and_then(Json::as_u64) == v.as_u64(),
        _ => true,
    })
}

fn load_bench_doc(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("stj-bench/v1") => Ok(doc),
        Some(other) => Err(format!("{path}: schema {other:?}, expected stj-bench/v1")),
        None => Err(format!("{path}: missing schema field")),
    }
}

/// `stj bench-diff`: compares two `stj-bench/v1` documents run-by-run
/// and exits non-zero when any metric regresses beyond the threshold.
fn cmd_bench_diff(args: &[String]) -> Result<(), String> {
    let mut threshold = 10.0f64;
    let mut pos = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                threshold = next_arg(&mut it, "--threshold")?
                    .parse()
                    .map_err(|_| "bad --threshold value".to_string())?;
            }
            other => pos.push(other.to_string()),
        }
    }
    let [base_path, cur_path] = pos.as_slice() else {
        return Err("bench-diff needs <BASELINE.json> <CURRENT.json>".into());
    };
    let base = load_bench_doc(base_path)?;
    let cur = load_bench_doc(cur_path)?;

    let empty = Vec::new();
    let base_runs = base.get("runs").and_then(Json::as_arr).unwrap_or(&empty);
    let cur_runs = cur.get("runs").and_then(Json::as_arr).unwrap_or(&empty);

    let mut regressions = 0usize;
    let mut compared = 0usize;
    let mut new_metrics = 0usize;
    for b in base_runs {
        let id = run_identity(b);
        let Some(c) = cur_runs.iter().find(|c| identity_covers(b, c)) else {
            println!("MISSING  [{id}] not present in {cur_path}");
            regressions += 1;
            continue;
        };
        let Json::Obj(fields) = b else { continue };
        for (name, bval) in fields {
            let kind = metric_kind(name);
            let (Some(bv), Some(cv)) = (bval.as_f64(), c.get(name).and_then(Json::as_f64)) else {
                continue;
            };
            let delta_pct = if bv == 0.0 {
                if cv == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (cv - bv) / bv * 100.0
            };
            let regressed = match kind {
                MetricKind::Exact => cv != bv,
                MetricKind::ExactOrLower => cv > bv,
                MetricKind::LowerBetter => delta_pct > threshold,
                MetricKind::HigherBetter => delta_pct < -threshold,
                MetricKind::Info => false,
            };
            if kind == MetricKind::Info {
                continue;
            }
            compared += 1;
            let tag = if regressed { "REGRESS" } else { "ok" };
            println!("{tag:<8} [{id}] {name}: {bv} -> {cv} ({delta_pct:+.1}%)");
            if regressed {
                regressions += 1;
            }
        }
        // Metrics the current run reports that the baseline never had:
        // warn and continue — a freshly instrumented metric has nothing
        // to regress against until the baseline is refreshed.
        if let Json::Obj(cfields) = c {
            for (name, cval) in cfields {
                if b.get(name).is_some() || metric_kind(name) == MetricKind::Info {
                    continue;
                }
                if let Some(cv) = cval.as_f64() {
                    new_metrics += 1;
                    println!("NEW      [{id}] {name}: {cv} (not in baseline; skipped)");
                }
            }
        }
    }
    println!(
        "bench-diff: {compared} metric(s) compared across {} run(s), \
         {regressions} regression(s) at ±{threshold}%, \
         {new_metrics} new metric(s) skipped",
        base_runs.len()
    );
    if regressions > 0 {
        Err(format!(
            "{regressions} regression(s) beyond the {threshold}% threshold"
        ))
    } else {
        Ok(())
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use stjoin::serve::{install_signal_handlers, load_datasets, ServeConfig, ServeCtx, Server};

    let mut cfg = ServeConfig::default();
    let mut data: Vec<String> = Vec::new();
    let mut stats_json: Option<String> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--data" => data.push(next_arg(&mut it, "--data")?),
            "--addr" => cfg.addr = next_arg(&mut it, "--addr")?,
            "--threads" => {
                cfg.threads = next_arg(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "bad --threads value".to_string())?;
            }
            "--queue-depth" => {
                cfg.queue_depth = next_arg(&mut it, "--queue-depth")?
                    .parse()
                    .map_err(|_| "bad --queue-depth value".to_string())?;
            }
            "--cache-mb" => {
                cfg.cache_mb = next_arg(&mut it, "--cache-mb")?
                    .parse()
                    .map_err(|_| "bad --cache-mb value".to_string())?;
            }
            "--deadline-ms" => {
                cfg.deadline_ms = next_arg(&mut it, "--deadline-ms")?
                    .parse()
                    .map_err(|_| "bad --deadline-ms value".to_string())?;
            }
            "--max-links" => {
                cfg.max_links = next_arg(&mut it, "--max-links")?
                    .parse()
                    .map_err(|_| "bad --max-links value".to_string())?;
            }
            "--idle-ms" => {
                cfg.idle_ms = next_arg(&mut it, "--idle-ms")?
                    .parse()
                    .map_err(|_| "bad --idle-ms value".to_string())?;
            }
            "--header-ms" => {
                cfg.header_ms = next_arg(&mut it, "--header-ms")?
                    .parse()
                    .map_err(|_| "bad --header-ms value".to_string())?;
            }
            "--adaptive" => {
                let name = next_arg(&mut it, "--adaptive")?;
                cfg.adaptive = AdaptiveMode::parse(&name).ok_or_else(|| {
                    format!("unknown adaptive mode {name:?} (expected on, off, or force-skip)")
                })?;
            }
            "--stats-json" => stats_json = Some(next_arg(&mut it, "--stats-json")?),
            "--quiet" => quiet = true,
            other => return Err(format!("unknown serve option {other:?}")),
        }
    }
    if data.is_empty() {
        return Err("serve needs at least one --data <FILE.stjd>".into());
    }

    let datasets = load_datasets(&data)?;
    if !quiet {
        for d in &datasets {
            eprintln!(
                "loaded {:?}: {} objects, grid order {}{}",
                d.name,
                d.arena.len(),
                d.grid.order(),
                if d.arena.is_zero_copy() {
                    " (zero-copy)"
                } else {
                    ""
                }
            );
        }
    }
    let server = Server::bind(ServeCtx::new(cfg, datasets)).map_err(|e| format!("bind: {e}"))?;
    // Remember where the datasets came from so SIGHUP and
    // /v1/admin/reload can hot-swap in fresh generations.
    server
        .ctx()
        .generations
        .set_paths(data.iter().map(std::path::PathBuf::from).collect());
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    install_signal_handlers();

    // The address line goes to stdout (and is flushed) so scripts can
    // scrape the picked port when binding to :0.
    println!("listening on {addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    let ctx = server.ctx();
    server.run().map_err(|e| format!("serve: {e}"))?;

    if let Some(path) = stats_json {
        let final_stats = stjoin::serve::dispatch(&ctx, "GET", "/stats", &[], b"");
        std::fs::write(&path, final_stats.body).map_err(|e| format!("write {path}: {e}"))?;
        if !quiet {
            eprintln!("wrote final stats to {path}");
        }
    }
    if !quiet {
        eprintln!(
            "drained after {} request(s), exiting",
            ctx.stats.requests_total.get()
        );
    }
    Ok(())
}

/// Percent-encodes a query-string value (RFC 3986 unreserved set).
fn encode_query_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
        }
    }
    out
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    use stjoin::serve::Client;

    let mut addr: Option<String> = None;
    let mut framed = false;
    let mut no_retry = false;
    let mut limit: Option<u64> = None;
    let mut method: Option<String> = None;
    let mut predicate: Option<String> = None;
    let mut max_links: Option<u64> = None;
    let mut format: Option<String> = None;
    let mut name: Option<String> = None;
    let mut pos: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(next_arg(&mut it, "--addr")?),
            "--framed" => framed = true,
            "--no-retry" => no_retry = true,
            "--format" => format = Some(next_arg(&mut it, "--format")?),
            "--name" => name = Some(next_arg(&mut it, "--name")?),
            "--limit" => {
                limit = Some(
                    next_arg(&mut it, "--limit")?
                        .parse()
                        .map_err(|_| "bad --limit value".to_string())?,
                );
            }
            "--method" => method = Some(next_arg(&mut it, "--method")?),
            "--predicate" => predicate = Some(next_arg(&mut it, "--predicate")?),
            "--max-links" => {
                max_links = Some(
                    next_arg(&mut it, "--max-links")?
                        .parse()
                        .map_err(|_| "bad --max-links value".to_string())?,
                );
            }
            other => pos.push(other.to_string()),
        }
    }
    let addr = addr.ok_or("query needs --addr HOST:PORT")?;

    let (http_method, target, body): (&str, String, Vec<u8>) = match pos.first().map(String::as_str)
    {
        Some("relate") => {
            let [_, dataset, wkt] = pos.as_slice() else {
                return Err("query relate needs <DATASET> <WKT>".into());
            };
            let mut target = format!("/v1/relate?dataset={}", encode_query_value(dataset));
            if let Some(n) = limit {
                target.push_str(&format!("&limit={n}"));
            }
            ("POST", target, wkt.clone().into_bytes())
        }
        Some("pair") => {
            let [_, left, i, right, j] = pos.as_slice() else {
                return Err("query pair needs <LEFT> <I> <RIGHT> <J>".into());
            };
            let target = format!(
                "/v1/pair?left={}&i={}&right={}&j={}",
                encode_query_value(left),
                encode_query_value(i),
                encode_query_value(right),
                encode_query_value(j),
            );
            ("GET", target, Vec::new())
        }
        Some("join") => {
            let [_, left, right] = pos.as_slice() else {
                return Err("query join needs <LEFT> <RIGHT>".into());
            };
            let mut target = format!(
                "/v1/join?left={}&right={}",
                encode_query_value(left),
                encode_query_value(right),
            );
            if let Some(m) = &method {
                target.push_str(&format!("&method={}", encode_query_value(m)));
            }
            if let Some(p) = &predicate {
                target.push_str(&format!("&predicate={}", encode_query_value(p)));
            }
            if let Some(n) = max_links {
                target.push_str(&format!("&max_links={n}"));
            }
            ("POST", target, Vec::new())
        }
        Some("discover") => {
            let [_, dataset] = pos.as_slice() else {
                return Err("query discover needs <DATASET> (WKT probes on stdin)".into());
            };
            let mut target = format!("/v1/discover?dataset={}", encode_query_value(dataset));
            if let Some(f) = &format {
                target.push_str(&format!("&format={}", encode_query_value(f)));
            }
            if let Some(n) = &name {
                target.push_str(&format!("&name={}", encode_query_value(n)));
            }
            let mut body = Vec::new();
            std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut body)
                .map_err(|e| format!("stdin: {e}"))?;
            ("POST", target, body)
        }
        Some("reload") => {
            // Optional positional paths become the new dataset set;
            // with none the server reloads its configured paths.
            let body = pos[1..].join("\n").into_bytes();
            ("POST", "/v1/admin/reload".to_string(), body)
        }
        Some("stats") => ("GET", "/stats".to_string(), Vec::new()),
        Some("metrics") => ("GET", "/metrics".to_string(), Vec::new()),
        Some("datasets") => ("GET", "/v1/datasets".to_string(), Vec::new()),
        Some("healthz") => ("GET", "/healthz".to_string(), Vec::new()),
        _ => {
            return Err(
                "query needs a subcommand: relate | pair | join | discover | reload | stats \
                 | metrics | datasets | healthz"
                    .into(),
            )
        }
    };

    // A shed (429) carries a Retry-After hint; honor it with bounded
    // retries so transient overload doesn't fail scripted clients.
    const MAX_RETRIES: u32 = 3;
    const MAX_RETRY_AFTER_SECS: u64 = 5;
    let mut client = Client::new(addr, framed);
    let mut attempts = 0u32;
    let (status, resp_body) = loop {
        let (status, resp_body) = client
            .request(http_method, &target, &body)
            .map_err(|e| format!("request failed: {e}"))?;
        if status == 429 && !no_retry && attempts < MAX_RETRIES {
            attempts += 1;
            let wait = client
                .retry_after()
                .unwrap_or(1)
                .clamp(1, MAX_RETRY_AFTER_SECS);
            eprintln!("server shed the request (429); retry {attempts}/{MAX_RETRIES} in {wait}s");
            std::thread::sleep(std::time::Duration::from_secs(wait));
            continue;
        }
        break (status, resp_body);
    };
    // The response body goes to stdout verbatim (it is already JSON or
    // NDJSON); the status decides the exit code.
    let mut stdout = std::io::stdout();
    stdout.write_all(&resp_body).map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;
    if (200..300).contains(&status) {
        Ok(())
    } else {
        Err(format!("server returned {status}"))
    }
}

/// `stj discover`: bulk link discovery against a local dataset file —
/// the offline twin of `POST /v1/discover`. WKT probe polygons arrive
/// one per line on stdin; links stream to stdout as they are found, so
/// memory stays bounded by one probe at a time.
fn cmd_discover(args: &[String]) -> Result<(), String> {
    use stjoin::core::{PairCtx, RelateScratch};
    use stjoin::serve::discover::{discover_probe, DiscoverFormat};
    use stjoin::serve::LoadedDataset;

    let mut data: Option<String> = None;
    let mut format = DiscoverFormat::Ndjson;
    let mut name = "probes".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--data" => data = Some(next_arg(&mut it, "--data")?),
            "--format" => {
                let f = next_arg(&mut it, "--format")?;
                format = DiscoverFormat::parse(&f)
                    .ok_or_else(|| format!("unknown format {f:?} (expected ndjson or nt)"))?;
            }
            "--name" => name = next_arg(&mut it, "--name")?,
            other => return Err(format!("unknown discover option {other:?}")),
        }
    }
    let data = data.ok_or("discover needs --data <FILE.stjd>")?;
    let ds = LoadedDataset::open(std::path::Path::new(&data))?;

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut w = BufWriter::new(stdout.lock());
    // The CLI runs the static pipeline: no resident model to warm, and
    // deterministic output for the discover-vs-join equality check.
    let mut pair_ctx = PairCtx {
        scratch: &mut RelateScratch::default(),
        prof: &mut stjoin::obs::Disabled,
        adaptive: None,
    };
    let mut out = String::new();
    let (mut probes, mut candidates, mut links) = (0u64, 0u64, 0u64);
    for (lineno, line) in std::io::BufRead::lines(stdin.lock()).enumerate() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let wkt = line.trim();
        if wkt.is_empty() {
            continue;
        }
        let poly = polygon_from_wkt(wkt).map_err(|e| format!("probe line {}: {e}", lineno + 1))?;
        out.clear();
        let (c, l) = discover_probe(&ds, probes, poly, &name, format, &mut pair_ctx, &mut out);
        probes += 1;
        candidates += c;
        links += l;
        w.write_all(out.as_bytes()).map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())?;
    eprintln!("discover: {probes} probe(s), {candidates} candidate(s), {links} link(s)");
    Ok(())
}

fn cmd_check(args: &[String]) -> ExitCode {
    match run_check_cmd(args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_check_cmd(args: &[String]) -> Result<bool, String> {
    use stjoin::check::{run_check, write_repro, CheckConfig};

    let mut config = CheckConfig::default();
    let mut json_out: Option<String> = None;
    let mut dump_out = "stj-check-repro.wkt".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => config.seed = parse_seed(&next_arg(&mut it, "--seed")?),
            "--pairs" => {
                config.pairs = next_arg(&mut it, "--pairs")?
                    .parse()
                    .map_err(|_| "bad --pairs value".to_string())?;
            }
            "--threads" => {
                config.threads = next_arg(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "bad --threads value".to_string())?;
            }
            "--order" => {
                config.grid_order = next_arg(&mut it, "--order")?
                    .parse()
                    .map_err(|_| "bad --order value".to_string())?;
                if !(1..=16).contains(&config.grid_order) {
                    return Err("--order must be in 1..=16".into());
                }
            }
            "--json" => json_out = Some(next_arg(&mut it, "--json")?),
            "--dump" => dump_out = next_arg(&mut it, "--dump")?,
            other => return Err(format!("unknown check option {other:?}")),
        }
    }

    let report = run_check(&config);

    eprintln!(
        "checked {} adversarial pairs (seed {:#x}, {} thread(s), grid order {}) in {} ms: \
         {} violation(s)",
        report.pairs,
        config.seed,
        config.threads.max(1),
        config.grid_order,
        report.elapsed_ms,
        report.total_violations(),
    );
    for v in &report.violations {
        eprintln!(
            "  pair {} [{}] broke {}: {}",
            v.index,
            v.category,
            v.kind.name(),
            v.detail
        );
    }

    if let Some(path) = json_out {
        std::fs::write(&path, report.to_json().render())
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote check report to {path}");
    }
    if report.has_violations() {
        let f = File::create(&dump_out).map_err(|e| format!("create {dump_out}: {e}"))?;
        let mut w = BufWriter::new(f);
        write_repro(&mut w, &report).map_err(|e| format!("write {dump_out}: {e}"))?;
        w.flush().map_err(|e| e.to_string())?;
        eprintln!("wrote WKT repro dump to {dump_out}");
    }
    Ok(!report.has_violations())
}

/// Parses a check seed: plain decimal, `0x`-prefixed hex, or — for
/// anything else (e.g. `0xEDBT26`, which is not valid hex) — a stable
/// FNV-1a hash of the string, so any token can name a run.
fn parse_seed(s: &str) -> u64 {
    if let Ok(n) = s.parse::<u64>() {
        return n;
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(n) = u64::from_str_radix(hex, 16) {
            return n;
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Loads either format into a [`DatasetArena`]: v2 files open zero-copy
/// when the platform supports it, v1 files migrate through the legacy
/// record reader.
fn load(path: &str) -> Result<(DatasetArena, Grid), String> {
    open_arena(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn next_arg(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_dataset(name: &str) -> Result<DatasetId, String> {
    Ok(match name.to_ascii_uppercase().as_str() {
        "TL" => DatasetId::TL,
        "TW" => DatasetId::TW,
        "TC" => DatasetId::TC,
        "TZ" => DatasetId::TZ,
        "OBE" => DatasetId::OBE,
        "OLE" => DatasetId::OLE,
        "OPE" => DatasetId::OPE,
        "OBN" => DatasetId::OBN,
        "OLN" => DatasetId::OLN,
        "OPN" => DatasetId::OPN,
        other => return Err(format!("unknown dataset {other:?}")),
    })
}

fn parse_relation(name: &str) -> Result<TopoRelation, String> {
    TopoRelation::parse(name).ok_or_else(|| format!("unknown relation {name:?}"))
}
