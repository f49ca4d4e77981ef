//! End-to-end tests of the serving stack against a real in-process
//! server: every byte goes over a loopback TCP connection through the
//! production accept/queue/worker/dispatch path.
//!
//! The acceptance bar is *bit-identical results*: for adversarial pair
//! workloads (the same generator the differential check harness uses),
//! the server's `pair`, `relate`, and `join` answers must match the
//! offline pipeline exactly.

use stjoin::core::{find_relation, TopologyJoin};
use stjoin::datagen::{adversarial_pair, adversarial_space};
use stjoin::de9im::TopoRelation;
use stjoin::geom::wkt::polygon_to_wkt;
use stjoin::prelude::*;
use stjoin::serve::{Client, LoadedDataset, ServeConfig, ServeCtx, Server};
use stjoin::store::write_arena_v2;
use stjoin::Tiling;

const SEED: u64 = 0xE2E_5E12;
const PAIRS: u64 = 44; // covers all 11 adversarial categories 4x

/// Builds the two adversarial datasets (all `a` sides, all `b` sides)
/// on a shared grid over the adversarial space.
fn adversarial_arenas() -> (DatasetArena, DatasetArena, Grid) {
    let grid = Grid::new(adversarial_space(), 8);
    let mut left = Vec::new();
    let mut right = Vec::new();
    for i in 0..PAIRS {
        let p = adversarial_pair(SEED, i);
        left.push(p.a);
        right.push(p.b);
    }
    let l = Dataset::build("adv-a", left, &grid).to_arena();
    let r = Dataset::build("adv-b", right, &grid).to_arena();
    (l, r, grid)
}

/// Starts a server on a free port and returns (address, shutdown
/// closure joining the serve thread).
fn start_server(config: ServeConfig) -> (String, impl FnOnce()) {
    let (l, r, grid) = adversarial_arenas();
    let datasets = vec![
        LoadedDataset {
            name: l.name().to_string(),
            tiling: Tiling::for_probes(l.mbrs()),
            arena: l,
            grid: grid.clone(),
        },
        LoadedDataset {
            name: r.name().to_string(),
            tiling: Tiling::for_probes(r.mbrs()),
            arena: r,
            grid,
        },
    ];
    let server = Server::bind(ServeCtx::new(config, datasets)).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    let stop = move || {
        flag.trigger();
        handle.join().expect("join serve thread");
    };
    (addr, stop)
}

fn free_port_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServeConfig::default()
    }
}

#[test]
fn pair_replay_is_bit_identical_to_offline_pipeline() {
    let (addr, stop) = start_server(free_port_config());
    let (l, r, _grid) = adversarial_arenas();
    let mut client = Client::new(addr, false);
    for i in 0..PAIRS as usize {
        let target = format!("/v1/pair?left=adv-a&i={i}&right=adv-b&j={i}");
        let (status, body) = client.request("GET", &target, b"").expect("pair request");
        assert_eq!(status, 200, "pair {i}");
        let body = String::from_utf8(body).expect("utf8");
        let offline = find_relation(l.object(i), r.object(i));
        assert!(
            body.contains(&format!("\"relation\": \"{}\"", offline.relation)),
            "pair {i}: server disagreed with offline pipeline: {body}"
        );
    }
    stop();
}

#[test]
fn relate_replay_matches_offline_bruteforce() {
    let (addr, stop) = start_server(free_port_config());
    let (_l, r, grid) = adversarial_arenas();
    let mut client = Client::new(addr, false);
    // Probe dataset adv-b with each left-side polygon, rebuilt from its
    // WKT round-trip exactly as the server will see it.
    for i in (0..PAIRS as usize).step_by(3) {
        let wkt = polygon_to_wkt(&adversarial_pair(SEED, i as u64).a);
        let target = "/v1/relate?dataset=adv-b&limit=1000000";
        let (status, body) = client
            .request("POST", target, wkt.as_bytes())
            .expect("relate request");
        assert_eq!(
            status,
            200,
            "relate {i}: {}",
            String::from_utf8_lossy(&body)
        );
        let body = String::from_utf8(body).expect("utf8");
        assert!(body.contains("\"truncated\": false"), "{body}");

        // Offline truth: the same probe object built from the same WKT,
        // against every stored object.
        let probe_poly = stjoin::geom::wkt::polygon_from_wkt(&wkt).expect("roundtrip wkt");
        let probe = SpatialObject::build(probe_poly, &grid);
        for j in 0..r.len() {
            let out = find_relation(probe.view(), r.object(j));
            let expected = format!("\"id\": {j},\n      \"relation\": \"{}\"", out.relation);
            if out.relation == TopoRelation::Disjoint {
                assert!(
                    !body.contains(&format!("\"id\": {j},")),
                    "probe {i}: server reported disjoint object {j}: {body}"
                );
            } else {
                assert!(
                    body.contains(&expected),
                    "probe {i}: missing/differing match for object {j} \
                     (expected {:?}): {body}",
                    out.relation
                );
            }
        }
    }
    stop();
}

#[test]
fn join_replay_matches_offline_join() {
    let (addr, stop) = start_server(free_port_config());
    let (l, r, _grid) = adversarial_arenas();
    let offline = TopologyJoin::new().run(&l, &r);
    let mut offline_lines: Vec<String> = offline
        .links
        .iter()
        .map(|k| {
            format!(
                "{{\"r\":{},\"s\":{},\"relation\":\"{}\"}}",
                k.r, k.s, k.relation
            )
        })
        .collect();
    offline_lines.sort();

    let mut client = Client::new(addr, false);
    let (status, body) = client
        .request("POST", "/v1/join?left=adv-a&right=adv-b", b"")
        .expect("join request");
    assert_eq!(status, 200);
    let body = String::from_utf8(body).expect("utf8");
    let mut server_lines: Vec<String> = body
        .lines()
        .filter(|line| !line.starts_with("{\"summary\""))
        .map(str::to_string)
        .collect();
    server_lines.sort();
    assert_eq!(
        server_lines, offline_lines,
        "served join differs from offline join"
    );

    let summary = body
        .lines()
        .find(|line| line.starts_with("{\"summary\""))
        .expect("summary line");
    assert!(
        summary.contains(&format!("\"links\":{}", offline.links.len())),
        "{summary}"
    );
    assert!(summary.contains("\"truncated\":false"), "{summary}");
    stop();
}

#[test]
fn framed_transport_agrees_with_http() {
    let (addr, stop) = start_server(free_port_config());
    let mut http = Client::new(addr.clone(), false);
    let mut framed = Client::new(addr, true);
    for i in 0..8 {
        let target = format!("/v1/pair?left=adv-a&i={i}&right=adv-b&j={i}");
        let (hs, hb) = http.request("GET", &target, b"").expect("http");
        let (fs, fb) = framed.request("GET", &target, b"").expect("framed");
        assert_eq!(hs, fs);
        assert_eq!(hb, fb, "transports disagree on pair {i}");
    }
    stop();
}

#[test]
fn bad_wkt_probe_gets_line_numbered_400() {
    let (addr, stop) = start_server(free_port_config());
    let mut client = Client::new(addr, false);
    let (status, body) = client
        .request("POST", "/v1/relate?dataset=adv-a", b"POLYGON((1 2, 3")
        .expect("request");
    assert_eq!(status, 400);
    let body = String::from_utf8(body).expect("utf8");
    assert!(body.contains("\"kind\": \"bad_wkt\""), "{body}");
    assert!(body.contains("line 1:"), "{body}");
    stop();
}

#[test]
fn server_round_trips_stats_and_cache_hits() {
    let (addr, stop) = start_server(free_port_config());
    let mut client = Client::new(addr, false);
    let wkt = b"POLYGON((100 100, 300 100, 300 300, 100 300, 100 100))";
    let (s1, b1) = client
        .request("POST", "/v1/relate?dataset=adv-a", wkt)
        .expect("first");
    let (s2, b2) = client
        .request("POST", "/v1/relate?dataset=adv-a", wkt)
        .expect("second");
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(b1, b2, "cached response must be byte-identical");

    let (status, stats) = client.request("GET", "/stats", b"").expect("stats");
    assert_eq!(status, 200);
    let stats = String::from_utf8(stats).expect("utf8");
    assert!(
        stats.contains("\"schema\": \"stj-serve-report/v1\""),
        "{stats}"
    );
    assert!(
        stats.contains("\"hits\": 1"),
        "cache hit not recorded: {stats}"
    );
    stop();
}

#[test]
fn load_shedding_returns_429_when_queue_full() {
    // One worker, queue depth 1: at most one join executing plus one
    // queued. Sixteen concurrent join requests must produce at least
    // one shed (429 + Retry-After) and at least one success — and under
    // the reactor a shed is per-request: the connection survives it.
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let (addr, stop) = start_server(cfg);

    let outcomes: Vec<(u16, Option<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::new(addr, false);
                    let (status, _body) = client
                        .request("POST", "/v1/join?left=adv-a&right=adv-b", b"")
                        .expect("join request");
                    (status, client.retry_after())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    let ok = outcomes.iter().filter(|(s, _)| *s == 200).count();
    let shed = outcomes.iter().filter(|(s, _)| *s == 429).count();
    assert!(ok >= 1, "no join succeeded: {outcomes:?}");
    assert!(
        shed >= 1,
        "nothing was shed despite queue depth 1: {outcomes:?}"
    );
    for (status, retry_after) in &outcomes {
        if *status == 429 {
            assert_eq!(
                *retry_after,
                Some(1),
                "shed responses must carry Retry-After"
            );
        }
    }
    stop();
}

/// A byte-at-a-time request writer (slow loris) is bounded by the
/// header deadline and cannot starve well-behaved clients.
#[cfg(target_os = "linux")]
#[test]
fn slow_loris_is_evicted_and_cannot_starve_others() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        header_ms: 400,
        idle_ms: 1000,
        ..ServeConfig::default()
    };
    let (addr, stop) = start_server(cfg);

    // The attacker: dribbles a valid request head one byte at a time,
    // never finishing. Activity must NOT reset the header deadline.
    let attacker_addr = addr.clone();
    let attacker = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(&attacker_addr).expect("attacker connect");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let head = b"GET /healthz HTTP/1.1\r\nhost: stj\r\n";
        let start = Instant::now();
        for b in head.iter().cycle() {
            if conn.write_all(std::slice::from_ref(b)).is_err() {
                break; // server closed on us — expected
            }
            std::thread::sleep(Duration::from_millis(25));
            if start.elapsed() > Duration::from_secs(5) {
                return Err("server never evicted the slow writer");
            }
        }
        // The socket must be fully closed, not just half-shut.
        let mut buf = [0u8; 64];
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => Ok(start.elapsed()),
            Ok(_) => Ok(start.elapsed()),
        }
    });

    // Meanwhile, normal clients must be served promptly on the single
    // worker the attacker would otherwise pin.
    let mut client = Client::new(addr.clone(), false);
    for _ in 0..10 {
        let t0 = Instant::now();
        let (status, _) = client.request("GET", "/healthz", b"").expect("healthz");
        assert_eq!(status, 200);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "well-behaved request starved by the slow writer"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let evicted_after = attacker
        .join()
        .expect("attacker thread")
        .expect("attacker must be evicted");
    // Evicted by the ~400ms header deadline (with scheduling slack),
    // not by the 5s fail-safe.
    assert!(
        evicted_after < Duration::from_secs(3),
        "eviction took {evicted_after:?}"
    );

    let (status, metrics) = client.request("GET", "/metrics", b"").expect("metrics");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).expect("utf8");
    let header_timeouts = metrics
        .lines()
        .find(|l| l.contains("stj_serve_connection_timeouts_total{cause=\"header\"}"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    assert!(
        header_timeouts >= 1,
        "header timeout not counted: {metrics}"
    );
    stop();
}

/// Streaming `/v1/discover` over the wire matches the offline pipeline
/// link-for-link, and the NDJSON variant carries a summary.
#[test]
fn discover_streams_links_matching_offline_pipeline() {
    use stjoin::core::linking::geosparql_property;

    let (addr, stop) = start_server(free_port_config());
    let (_l, r, grid) = adversarial_arenas();

    // Probe body: every third left-side polygon, one WKT per line.
    let probe_idxs: Vec<usize> = (0..PAIRS as usize).step_by(3).collect();
    let body: String = probe_idxs
        .iter()
        .map(|&i| polygon_to_wkt(&adversarial_pair(SEED, i as u64).a))
        .collect::<Vec<_>>()
        .join("\n");

    let mut client = Client::new(addr, false);
    let (status, resp) = client
        .request(
            "POST",
            "/v1/discover?dataset=adv-b&format=nt&name=probes",
            body.as_bytes(),
        )
        .expect("discover request");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    let mut server_lines: Vec<String> = String::from_utf8(resp)
        .expect("utf8")
        .lines()
        .map(str::to_string)
        .collect();
    server_lines.sort();

    // Offline truth: the same probes, rebuilt from their WKT
    // round-trip, against every stored object.
    let mut offline_lines: Vec<String> = Vec::new();
    for (pi, &i) in probe_idxs.iter().enumerate() {
        let wkt = polygon_to_wkt(&adversarial_pair(SEED, i as u64).a);
        let poly = stjoin::geom::wkt::polygon_from_wkt(&wkt).expect("roundtrip");
        let probe = SpatialObject::build(poly, &grid);
        for j in 0..r.len() {
            let out = find_relation(probe.view(), r.object(j));
            if out.relation == TopoRelation::Disjoint {
                continue;
            }
            offline_lines.push(format!(
                "<urn:stj:probes:{pi}> <{}> <urn:stj:adv-b:{j}> .",
                geosparql_property(out.relation)
            ));
        }
    }
    offline_lines.sort();
    assert_eq!(
        server_lines, offline_lines,
        "streamed discover differs from offline pipeline"
    );

    stop();
}

/// Dataset hot-swap under concurrent load: every request succeeds
/// (no failed or mixed-generation responses), the generation id bumps,
/// the probe cache is invalidated, and — on Linux — the old mapping is
/// actually gone from `/proc/self/maps`.
#[test]
fn hot_swap_under_load_is_seamless() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let gen1_dir = std::env::temp_dir().join(format!("stj-hotswap-g1-{}", std::process::id()));
    let gen2_dir = std::env::temp_dir().join(format!("stj-hotswap-g2-{}", std::process::id()));
    for d in [&gen1_dir, &gen2_dir] {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).expect("tempdir");
    }
    let (l, r, grid) = adversarial_arenas();
    let write_gen = |dir: &std::path::Path| -> Vec<std::path::PathBuf> {
        let mut paths = Vec::new();
        for (name, arena) in [("a.stjd", &l), ("b.stjd", &r)] {
            let path = dir.join(name);
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create"));
            write_arena_v2(&mut f, arena, &grid).expect("write v2");
            std::io::Write::flush(&mut f).expect("flush");
            paths.push(path);
        }
        paths
    };
    let gen1_paths = write_gen(&gen1_dir);
    let gen2_paths = write_gen(&gen2_dir);

    let datasets = stjoin::serve::load_datasets(&gen1_paths).expect("load gen1");
    let zero_copy = datasets[0].arena.is_zero_copy();
    let server = Server::bind(ServeCtx::new(free_port_config(), datasets)).expect("bind");
    server.ctx().generations.set_paths(gen1_paths.clone());
    let addr = server.local_addr().expect("addr").to_string();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    // Warm the probe cache so the swap has something to invalidate.
    let mut admin = Client::new(addr.clone(), false);
    let wkt = b"POLYGON((100 100, 300 100, 300 300, 100 300, 100 100))";
    for _ in 0..2 {
        let (s, _) = admin
            .request("POST", "/v1/relate?dataset=adv-a", wkt)
            .expect("warm relate");
        assert_eq!(s, 200);
    }

    // Concurrent load across the swap; every response must be correct.
    let stop_load = AtomicBool::new(false);
    let expected: Vec<String> = (0..PAIRS as usize)
        .map(|i| {
            format!(
                "\"relation\": \"{}\"",
                find_relation(l.object(i), r.object(i)).relation
            )
        })
        .collect();
    std::thread::scope(|scope| {
        let mut loaders = Vec::new();
        for t in 0..4usize {
            let addr = addr.clone();
            let stop_load = &stop_load;
            let expected = &expected;
            loaders.push(scope.spawn(move || {
                let mut client = Client::new(addr, t % 2 == 1);
                let mut served = 0u64;
                while !stop_load.load(Ordering::Relaxed) {
                    let i = (served as usize + t) % PAIRS as usize;
                    let target = format!("/v1/pair?left=adv-a&i={i}&right=adv-b&j={i}");
                    let (status, body) = client.request("GET", &target, b"").expect("pair");
                    assert_eq!(status, 200, "request failed during hot swap");
                    let body = String::from_utf8(body).expect("utf8");
                    assert!(
                        body.contains(&expected[i]),
                        "wrong relation during hot swap: {body}"
                    );
                    served += 1;
                }
                served
            }));
        }

        // Mid-load: swap to generation 2 (same data, different files).
        std::thread::sleep(std::time::Duration::from_millis(150));
        let reload_body = gen2_paths
            .iter()
            .map(|p| p.display().to_string())
            .collect::<Vec<_>>()
            .join("\n");
        let (status, body) = admin
            .request("POST", "/v1/admin/reload", reload_body.as_bytes())
            .expect("reload");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert!(
            String::from_utf8_lossy(&body).contains("\"generation\": 2"),
            "{}",
            String::from_utf8_lossy(&body)
        );
        std::thread::sleep(std::time::Duration::from_millis(150));

        stop_load.store(false, Ordering::Relaxed);
        stop_load.store(true, Ordering::Relaxed);
        let total: u64 = loaders.into_iter().map(|h| h.join().expect("loader")).sum();
        assert!(total > 0, "load threads served nothing");
    });

    // The swap is visible in /stats: generation 2, cache invalidated.
    let (status, stats) = admin.request("GET", "/stats", b"").expect("stats");
    assert_eq!(status, 200);
    let stats = String::from_utf8(stats).expect("utf8");
    assert!(
        stats.contains("\"id\": 2"),
        "generation not bumped: {stats}"
    );
    assert!(
        stats.contains("\"invalidations\": 1"),
        "cache not invalidated: {stats}"
    );

    // The old generation's mapping must actually be gone once nothing
    // pins it (zero-copy arenas mmap the file; the path shows in maps).
    #[cfg(target_os = "linux")]
    if zero_copy {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            let maps = std::fs::read_to_string("/proc/self/maps").expect("maps");
            let gen1 = gen1_dir.display().to_string();
            let gen2 = gen2_dir.display().to_string();
            if !maps.contains(&gen1) {
                assert!(maps.contains(&gen2), "new generation not mapped: {maps}");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "old generation still mapped after swap"
            );
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }
    let _ = zero_copy; // silence unused on non-linux

    flag.trigger();
    handle.join().expect("join");
    for d in [&gen1_dir, &gen2_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// `GET /metrics` over the real wire parses as Prometheus text
/// exposition format 0.0.4 and reflects the requests that hit it.
#[test]
fn metrics_endpoint_serves_valid_prometheus_text() {
    let (addr, stop) = start_server(free_port_config());
    let mut client = Client::new(addr, false);

    // Generate some traffic first so the counters are non-trivial.
    let (status, _) = client
        .request("GET", "/v1/pair?left=adv-a&i=0&right=adv-b&j=0", b"")
        .expect("pair request");
    assert_eq!(status, 200);
    let (status, _) = client.request("GET", "/nope", b"").expect("404 request");
    assert_eq!(status, 404);

    let (status, body) = client
        .request("GET", "/metrics", b"")
        .expect("metrics request");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("utf8 metrics");

    // Every line is a comment (`# HELP name ...` / `# TYPE name kind`)
    // or a sample (`name{labels} value` with a float-parsable value).
    let mut samples = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if let Some(rest) = line.strip_prefix("# ") {
            let mut words = rest.split_whitespace();
            let keyword = words.next().expect("comment keyword");
            assert!(
                matches!(keyword, "HELP" | "TYPE"),
                "unexpected comment line: {line}"
            );
            assert!(words.next().is_some(), "comment missing metric: {line}");
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let name = series.split('{').next().expect("metric name");
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in: {line}"
        );
        if let Some(open) = series.find('{') {
            assert!(series.ends_with('}'), "unclosed labels in: {line}");
            assert!(series[open..].contains('='), "empty label set in: {line}");
        }
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad sample value in: {line}"));
        samples += 1;
    }
    assert!(
        samples >= 20,
        "expected a full exposition, got {samples} samples"
    );

    // The traffic above is visible in the scrape.
    assert!(
        text.contains("stj_serve_responses_total{class=\"2xx\"}"),
        "{text}"
    );
    assert!(
        text.contains("stj_serve_responses_total{class=\"4xx\"}"),
        "{text}"
    );
    assert!(
        text.contains("stj_serve_dataset_objects{dataset=\"adv-a\"}"),
        "{text}"
    );
    let buckets = text.matches("stj_serve_request_latency_ns_bucket").count();
    assert!(buckets > 0, "latency histograms expose buckets: {text}");
    stop();
}

/// Writes both arenas to real STJD v2 files and serves them from disk
/// (zero-copy on supporting platforms), checking results still match.
#[test]
fn disk_loaded_datasets_serve_identically() {
    let dir = std::env::temp_dir().join(format!("stj-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tempdir");
    let (l, r, grid) = adversarial_arenas();
    let mut paths = Vec::new();
    for (name, arena) in [("a.stjd", &l), ("b.stjd", &r)] {
        let path = dir.join(name);
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create"));
        write_arena_v2(&mut f, arena, &grid).expect("write v2");
        std::io::Write::flush(&mut f).expect("flush");
        paths.push(path);
    }
    let datasets = stjoin::serve::load_datasets(&paths).expect("load from disk");
    let server = Server::bind(ServeCtx::new(free_port_config(), datasets)).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let mut client = Client::new(addr, false);
    for i in 0..PAIRS as usize {
        let target = format!("/v1/pair?left=adv-a&i={i}&right=adv-b&j={i}");
        let (status, body) = client.request("GET", &target, b"").expect("pair");
        assert_eq!(status, 200);
        let offline = find_relation(l.object(i), r.object(i));
        assert!(
            String::from_utf8(body)
                .expect("utf8")
                .contains(&format!("\"relation\": \"{}\"", offline.relation)),
            "disk-backed pair {i} disagrees with offline pipeline"
        );
    }
    flag.trigger();
    handle.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}
