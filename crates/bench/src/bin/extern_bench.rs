//! Out-of-core join bench: OBE self-join through the external driver at
//! 1/4/16 Hilbert shards vs the single-arena join, measuring wall time
//! and peak resident set (`VmHWM`).
//!
//! Every case runs in its own subprocess (the binary re-execs itself
//! with `STJ_EXTERN_CASE` set) so each `VmHWM` reading is the high-water
//! mark of exactly one join, not of whichever case ran hottest first.
//! The parent generates the dataset once, writes the single v2 file and
//! the three shard manifests to a temp directory, fans out the cases,
//! and verifies that all four produced identical links (count plus an
//! FNV-1a checksum over the sorted link list) before emitting telemetry.
//!
//! Run with:
//! ```text
//! cargo run --release -p stj-bench --bin extern_bench
//! ```
//!
//! Telemetry (`stj-bench/v1`) goes to `BENCH_PR8.json`, or the path in
//! `$STJ_BENCH_JSON`. `$STJ_EXTERN_BENCH_SCALE` scales the dataset
//! (default 10.0 ≈ 300k objects — large enough that mapped file pages
//! dominate process overhead). At full scale the parent additionally
//! asserts the paper-motivating property: the 16-shard join's peak RSS
//! stays under half the single-arena join's.

use std::process::Command;
use std::time::Instant;
use stj_core::{DatasetArena, Link, TopologyJoin, DEFAULT_MAX_INTERVALS};
use stj_geom::Rect;
use stj_obs::Json;
use stj_raster::Grid;
use stj_store::{external_join_files, open_arena, write_arena_v2, write_sharded, ShardedDataset};

const CASES: [&str; 4] = ["single", "sharded1", "sharded4", "sharded16"];

/// Peak resident set of this process in bytes (`VmHWM`), 0 where
/// `/proc` is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB").map(str::trim))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

fn fnv1a(data: &[u8], hash: u64) -> u64 {
    data.iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

/// Order-independent-input link digest: sorted by `(r, s)`, then hashed
/// with relation included, so two joins match iff their link sets do.
fn link_checksum(links: &[Link]) -> u64 {
    let mut sorted: Vec<_> = links.iter().map(|l| (l.r, l.s, l.relation)).collect();
    sorted.sort_unstable_by_key(|&(r, s, _)| (r, s));
    let mut h = 0xcbf29ce484222325u64;
    for (r, s, rel) in sorted {
        h = fnv1a(&r.to_le_bytes(), h);
        h = fnv1a(&s.to_le_bytes(), h);
        h = fnv1a(rel.to_string().as_bytes(), h);
    }
    h
}

/// Child mode: run one case, print `wall_ns peak_rss links candidates
/// checksum` on stdout, exit.
fn run_case(dir: &std::path::Path, case: &str) {
    let join = TopologyJoin::new();
    let t = Instant::now();
    let out = if case == "single" {
        let (arena, _grid) = open_arena(&dir.join("obe.stjd")).expect("open single");
        join.run(&arena, &arena)
    } else {
        let sd =
            ShardedDataset::open(&dir.join(format!("obe-{case}.stjm"))).expect("open manifest");
        external_join_files(&join, &sd, &sd).expect("external join")
    };
    let wall_ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    println!(
        "{wall_ns} {} {} {} {:#x}",
        peak_rss_bytes(),
        out.links.len(),
        out.candidates,
        link_checksum(&out.links)
    );
}

struct CaseResult {
    case: &'static str,
    wall_ns: u64,
    peak_rss: u64,
    links: u64,
    candidates: u64,
    checksum: String,
}

fn main() {
    if let (Ok(dir), Ok(case)) = (
        std::env::var("STJ_EXTERN_DIR"),
        std::env::var("STJ_EXTERN_CASE"),
    ) {
        run_case(std::path::Path::new(&dir), &case);
        return;
    }

    let scale: f64 = std::env::var("STJ_EXTERN_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());

    let polys = stj_datagen::generate(stj_datagen::DatasetId::OBE, scale);
    let mut extent = Rect::empty();
    for p in &polys {
        extent.grow_rect(p.mbr());
    }
    let grid = Grid::new(extent, 12);
    let t = Instant::now();
    let arena = DatasetArena::build("OBE", &polys, &grid, DEFAULT_MAX_INTERVALS, threads);
    let n = arena.len();
    eprintln!("built {} objects in {:.2?}", n, t.elapsed());

    let dir = std::env::temp_dir().join(format!("stj-extern-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let single_path = dir.join("obe.stjd");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&single_path).expect("create v2"));
    write_arena_v2(&mut w, &arena, &grid).expect("write v2");
    std::io::Write::flush(&mut w).expect("flush v2");
    let file_bytes = std::fs::metadata(&single_path).expect("stat v2").len();
    for shards in [1usize, 4, 16] {
        write_sharded(
            &dir.join(format!("obe-sharded{shards}.stjm")),
            &arena,
            &grid,
            shards,
        )
        .expect("write shards");
    }
    eprintln!(
        "wrote {file_bytes}-byte v2 file + 1/4/16-shard manifests to {}",
        dir.display()
    );

    let exe = std::env::current_exe().expect("current exe");
    let mut results = Vec::new();
    for case in CASES {
        let out = Command::new(&exe)
            .env("STJ_EXTERN_DIR", &dir)
            .env("STJ_EXTERN_CASE", case)
            .output()
            .expect("spawn case");
        assert!(
            out.status.success(),
            "case {case} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("case output utf8");
        let fields: Vec<&str> = stdout.split_whitespace().collect();
        let [wall_ns, peak_rss, links, candidates, checksum] = fields.as_slice() else {
            panic!("case {case} printed {stdout:?}");
        };
        let r = CaseResult {
            case,
            wall_ns: wall_ns.parse().unwrap(),
            peak_rss: peak_rss.parse().unwrap(),
            links: links.parse().unwrap(),
            candidates: candidates.parse().unwrap(),
            checksum: checksum.to_string(),
        };
        eprintln!(
            "{:<10} {:>8.1} ms  peak RSS {:>6.1} MB  {} links  {} candidates  {}",
            r.case,
            r.wall_ns as f64 / 1e6,
            r.peak_rss as f64 / 1e6,
            r.links,
            r.candidates,
            r.checksum
        );
        results.push(r);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let single = &results[0];
    for r in &results[1..] {
        assert_eq!(r.links, single.links, "{}: link count diverged", r.case);
        assert_eq!(
            r.candidates, single.candidates,
            "{}: candidates diverged",
            r.case
        );
        assert_eq!(r.checksum, single.checksum, "{}: link set diverged", r.case);
    }
    eprintln!("all cases produced identical links");

    // The headline: with 16 shards at most two are resident at a time,
    // so peak RSS must fall well below the everything-mapped-and-touched
    // single-arena run. Only meaningful when file pages dominate process
    // overhead, so skip at reduced (smoke) scales and where /proc is
    // unavailable.
    let sharded16 = results.iter().find(|r| r.case == "sharded16").unwrap();
    if scale >= 8.0 && single.peak_rss > 0 {
        assert!(
            sharded16.peak_rss * 2 < single.peak_rss,
            "16-shard peak RSS {} not under half the single-arena peak {}",
            sharded16.peak_rss,
            single.peak_rss
        );
        eprintln!(
            "peak RSS: sharded16 {:.1} MB vs single {:.1} MB ({:.0}%)",
            sharded16.peak_rss as f64 / 1e6,
            single.peak_rss as f64 / 1e6,
            sharded16.peak_rss as f64 / single.peak_rss as f64 * 100.0
        );
    }

    let runs: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::object([
                ("case", Json::str(r.case)),
                ("wall_ns", Json::U64(r.wall_ns)),
                ("peak_rss", Json::U64(r.peak_rss)),
                ("links", Json::U64(r.links)),
                ("candidates", Json::U64(r.candidates)),
            ])
        })
        .collect();
    let report = Json::object([
        ("schema", Json::str("stj-bench/v1")),
        ("benchmark", Json::str("extern_join")),
        ("dataset", Json::str("OBE")),
        ("objects", Json::from(n)),
        ("file_bytes", Json::U64(file_bytes)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = stj_bench::experiments::bench_output_path("BENCH_PR8.json");
    std::fs::write(&path, report.render()).expect("write bench json");
    eprintln!("wrote {path}");
}
