//! Serving benchmark: throughput and tail latency of the `stj-serve`
//! request pipeline, closed-loop at 1/4/16 connections and open-loop
//! at 64/256 connections.
//!
//! The server runs in-process on a loopback port with deadlines
//! disabled. Two arrival disciplines:
//!
//! - **closed-loop** (`mode=closed`): each connection fires its next
//!   request the moment the previous response lands — measures the
//!   pipeline + transport floor;
//! - **open-loop** (`mode=open`): requests follow a fixed global
//!   arrival schedule (request `k` of connection `c` fires at
//!   `start + (k*conns + c)/rate`), latency is measured from the
//!   *scheduled* arrival (no coordinated omission), and `429` sheds
//!   are counted instead of asserted — the reactor's bounded queue is
//!   part of what is being measured. Relate runs assert a zero shed
//!   rate at the default queue depth.
//!
//! Endpoints:
//!
//! - **relate** — ad-hoc WKT probes drawn from a fixed pool, revisited
//!   often enough that the probe cache sees a realistic mix of hits and
//!   misses (the per-run hit counts are reported);
//! - **pair** — stored-object lookups, the cheapest full-pipeline
//!   request, which bounds the transport + dispatch overhead.
//!
//! Per-request latency goes into a thread-private
//! [`stj_obs::Histogram`] merged after the run, so recording never
//! serializes the clients.
//!
//! Run with:
//! ```text
//! cargo run --release -p stj-bench --bin serve_bench
//! ```
//!
//! Telemetry (`stj-bench/v1`) goes to `BENCH_PR10.json`, or the path in
//! `$STJ_BENCH_JSON`. `$STJ_SERVE_BENCH_SCALE` scales the dataset
//! (default 0.1); `$STJ_SERVE_BENCH_REQS` sets the closed-loop request
//! count per connection per run (default 400);
//! `$STJ_SERVE_BENCH_OPEN_REQS` the open-loop count (default 40);
//! `$STJ_SERVE_BENCH_RATE` the open-loop arrival rate in req/s
//! (default 2000).

use std::time::Instant;
use stj_core::{AdaptiveMode, DatasetArena, DEFAULT_MAX_INTERVALS};
use stj_datagen::{generate, DatasetId};
use stj_geom::wkt::polygon_to_wkt;
use stj_geom::Rect;
use stj_index::Tiling;
use stj_obs::{Histogram, Json};
use stj_raster::Grid;
use stj_serve::{Client, LoadedDataset, ServeConfig, ServeCtx, Server};

/// One endpoint's measured run at a given connection count.
struct RunSample {
    endpoint: &'static str,
    mode: &'static str,
    transport: &'static str,
    connections: usize,
    requests: u64,
    sheds: u64,
    wall_ns: u64,
    hist: Histogram,
    cache_hits_delta: u64,
}

/// Open-loop drive: `connections` threads, one keep-alive client each,
/// requests fired on the global arrival schedule. Every connection is
/// established and sends one unmeasured warm-up request before the
/// clock starts (a barrier separates setup from the schedule), so
/// connect/spawn churn can't clump the first arrivals into a burst.
/// Latency is measured from the scheduled arrival time; 429s count as
/// sheds.
fn run_open_loop(
    addr: &str,
    framed: bool,
    connections: usize,
    requests_per_conn: u64,
    rate: f64,
    targets: &[(String, Vec<u8>)],
) -> (u64, u64, u64, Histogram) {
    let barrier = std::sync::Barrier::new(connections);
    let start_cell: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let (barrier, start_cell) = (&barrier, &start_cell);
    let results: Vec<(u64, Histogram)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::new(addr, framed);
                    {
                        let (target, body) = &targets[(c * 7) % targets.len()];
                        let method = if body.is_empty() { "GET" } else { "POST" };
                        let (status, _) = client
                            .request(method, target, body)
                            .expect("warm-up request failed");
                        assert!(status == 200 || status == 429, "warm-up got {status}");
                    }
                    barrier.wait();
                    let start = *start_cell.get_or_init(Instant::now);
                    let mut hist = Histogram::new();
                    let mut sheds = 0u64;
                    for k in 0..requests_per_conn {
                        let global = k * connections as u64 + c as u64;
                        let scheduled = std::time::Duration::from_secs_f64(global as f64 / rate);
                        if let Some(wait) = scheduled.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let arrival = start + scheduled;
                        let idx = ((k + c as u64 * 7) % targets.len() as u64) as usize;
                        let (target, body) = &targets[idx];
                        let method = if body.is_empty() { "GET" } else { "POST" };
                        let (status, resp) = client
                            .request(method, target, body)
                            .expect("bench request failed");
                        let ns = arrival.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                        match status {
                            200 => {
                                assert!(!resp.is_empty(), "empty response body: {target}");
                                hist.record(ns);
                            }
                            429 => sheds += 1,
                            other => panic!("bench request got {other}: {target}"),
                        }
                    }
                    (sheds, hist)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall_ns = start_cell
        .get()
        .expect("schedule clock set")
        .elapsed()
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64;
    let mut merged = Histogram::new();
    let mut sheds = 0u64;
    for (s, h) in &results {
        sheds += s;
        merged.merge(h);
    }
    (
        connections as u64 * requests_per_conn,
        sheds,
        wall_ns,
        merged,
    )
}

fn run_clients(
    addr: &str,
    connections: usize,
    requests_per_conn: u64,
    targets: &[(String, Vec<u8>)],
) -> (u64, u64, Histogram) {
    let t = Instant::now();
    let per_thread: Vec<Histogram> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::new(addr, true);
                    let mut hist = Histogram::new();
                    for i in 0..requests_per_conn {
                        // Offset each connection's schedule so concurrent
                        // clients are not in lock-step on one cache entry.
                        let idx = ((i + c as u64 * 7) % targets.len() as u64) as usize;
                        let (target, body) = &targets[idx];
                        let method = if body.is_empty() { "GET" } else { "POST" };
                        let t0 = Instant::now();
                        let (status, resp) = client
                            .request(method, target, body)
                            .expect("bench request failed");
                        let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                        assert_eq!(status, 200, "bench request got {status}: {target}");
                        assert!(!resp.is_empty(), "empty response body: {target}");
                        hist.record(ns);
                    }
                    hist
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall_ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let mut merged = Histogram::new();
    for h in &per_thread {
        merged.merge(h);
    }
    (connections as u64 * requests_per_conn, wall_ns, merged)
}

fn main() {
    let scale: f64 = std::env::var("STJ_SERVE_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1);
    let requests_per_conn: u64 = std::env::var("STJ_SERVE_BENCH_REQS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(400)
        .max(1);
    let build_threads = std::thread::available_parallelism().map_or(4, |n| n.get());

    // Lakes probed against parks: the same correlated pairing the join
    // benches use, so relate probes actually hit candidates.
    let parks = generate(DatasetId::OPE, scale);
    let lakes = generate(DatasetId::OLE, scale);
    let mut extent = Rect::empty();
    for p in parks.iter().chain(&lakes) {
        extent.grow_rect(p.mbr());
    }
    let grid = Grid::new(extent, 12);

    // Probe pool: 64 lake polygons as ad-hoc WKT, reused round-robin so
    // the cache sees repeats.
    let probes: Vec<String> = lakes
        .iter()
        .step_by((lakes.len() / 64).max(1))
        .take(64)
        .map(polygon_to_wkt)
        .collect();

    let arena = DatasetArena::build("OPE", &parks, &grid, DEFAULT_MAX_INTERVALS, build_threads);
    let n = arena.len();
    let tiling = Tiling::for_probes(arena.mbrs());
    let datasets = vec![LoadedDataset {
        name: "OPE".to_string(),
        arena,
        grid,
        tiling,
    }];
    eprintln!("serving {n} objects, {} probe polygons", probes.len());

    // Default queue depth on purpose: the open-loop runs measure the
    // bounded queue's shed behavior as shipped, not a tuned-up one.
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 0,
        cache_mb: 64,
        deadline_ms: 0,
        max_links: 100_000,
        adaptive: AdaptiveMode::On,
        ..ServeConfig::default()
    };
    let queue_depth = config.queue_depth;
    let server = Server::bind(ServeCtx::new(config, datasets)).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = server.shutdown_flag();
    let ctx = server.ctx();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));
    eprintln!("server on {addr}");

    // Request schedules. Bodies ride in the frame payload for relate;
    // pair is a pure GET with query parameters.
    let relate_targets: Vec<(String, Vec<u8>)> = probes
        .iter()
        .map(|wkt| {
            (
                "/v1/relate?dataset=OPE&limit=16".to_string(),
                wkt.clone().into_bytes(),
            )
        })
        .collect();
    let pair_targets: Vec<(String, Vec<u8>)> = (0..64u64)
        .map(|i| {
            let l = (i * 131) % n as u64;
            let r = (i * 137 + 1) % n as u64;
            (
                format!("/v1/pair?left=OPE&i={l}&right=OPE&j={r}"),
                Vec::new(),
            )
        })
        .collect();

    let open_reqs: u64 = std::env::var("STJ_SERVE_BENCH_OPEN_REQS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40)
        .max(1);
    let rate: f64 = std::env::var("STJ_SERVE_BENCH_RATE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(2000.0)
        .max(1.0);

    let mut samples = Vec::new();
    for connections in [1usize, 4, 16] {
        for (endpoint, targets) in [("relate", &relate_targets), ("pair", &pair_targets)] {
            let hits0 = ctx.cache.hits.get();
            let (requests, wall_ns, hist) =
                run_clients(&addr, connections, requests_per_conn, targets);
            let cache_hits_delta = ctx.cache.hits.get() - hits0;
            let req_per_sec = requests as f64 / (wall_ns as f64 / 1e9).max(1e-12);
            eprintln!(
                "closed {endpoint:<7} x{connections:<3}  {:>8.0} req/s  p50 {:>7.1} us  p99 {:>8.1} us  ({} cache hits)",
                req_per_sec,
                hist.p50() as f64 / 1e3,
                hist.p99() as f64 / 1e3,
                cache_hits_delta,
            );
            samples.push(RunSample {
                endpoint,
                mode: "closed",
                transport: "framed",
                connections,
                requests,
                sheds: 0,
                wall_ns,
                hist,
                cache_hits_delta,
            });
        }
    }

    // Open-loop: high connection counts on both transports. Only the
    // relate endpoint — it is the cacheable, latency-sensitive path the
    // reactor exists for.
    for connections in [64usize, 256] {
        for (transport, framed) in [("framed", true), ("http", false)] {
            let hits0 = ctx.cache.hits.get();
            let (requests, sheds, wall_ns, hist) =
                run_open_loop(&addr, framed, connections, open_reqs, rate, &relate_targets);
            let cache_hits_delta = ctx.cache.hits.get() - hits0;
            let shed_rate = sheds as f64 / requests as f64;
            eprintln!(
                "open   relate  x{connections:<3} {transport:<6} {:>7.0} req/s target  p50 {:>7.1} us  p95 {:>8.1} us  p99 {:>8.1} us  sheds {sheds} ({:.2}%)",
                rate,
                hist.p50() as f64 / 1e3,
                hist.p95() as f64 / 1e3,
                hist.p99() as f64 / 1e3,
                shed_rate * 100.0,
            );
            // The acceptance gate: at the default queue depth the
            // reactor must absorb 256 open-loop connections on relate
            // without shedding a single request.
            assert_eq!(
                sheds, 0,
                "relate open-loop shed {sheds}/{requests} requests at \
                 {connections} connections (queue_depth {queue_depth})"
            );
            samples.push(RunSample {
                endpoint: "relate",
                mode: "open",
                transport,
                connections,
                requests,
                sheds,
                wall_ns,
                hist,
                cache_hits_delta,
            });
        }
    }

    shutdown.trigger();
    server_thread.join().expect("server thread");
    eprintln!("server drained");

    let entries: Vec<Json> = samples
        .iter()
        .map(|s| {
            let req_per_sec = s.requests as f64 / (s.wall_ns as f64 / 1e9).max(1e-12);
            Json::object([
                ("endpoint", Json::str(s.endpoint)),
                ("mode", Json::str(s.mode)),
                ("transport", Json::str(s.transport)),
                ("connections", Json::from(s.connections)),
                ("requests", Json::U64(s.requests)),
                ("sheds", Json::U64(s.sheds)),
                (
                    "shed_rate",
                    Json::F64(s.sheds as f64 / (s.requests as f64).max(1.0)),
                ),
                ("wall_ns", Json::U64(s.wall_ns)),
                ("req_per_sec", Json::F64(req_per_sec)),
                ("p50_ns", Json::U64(s.hist.p50())),
                ("p95_ns", Json::U64(s.hist.p95())),
                ("p99_ns", Json::U64(s.hist.p99())),
                ("max_ns", Json::U64(s.hist.max())),
                ("mean_ns", Json::F64(s.hist.mean())),
                ("cache_hits", Json::U64(s.cache_hits_delta)),
            ])
        })
        .collect();
    let report = Json::object([
        ("schema", Json::str("stj-bench/v1")),
        ("benchmark", Json::str("serve_throughput")),
        ("dataset", Json::str("OPE")),
        ("objects", Json::from(n)),
        ("probe_pool", Json::from(probes.len())),
        ("requests_per_connection", Json::U64(requests_per_conn)),
        ("open_loop_rate", Json::F64(rate)),
        ("queue_depth", Json::U64(queue_depth as u64)),
        ("runs", Json::Arr(entries)),
    ]);
    let path = stj_bench::experiments::bench_output_path("BENCH_PR10.json");
    std::fs::write(&path, report.render()).expect("write bench json");
    eprintln!("wrote {path}");
}
