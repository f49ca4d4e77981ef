//! End-to-end test of the `stj` command-line binary: generate →
//! preprocess → join → N-Triples, plus the `relate` one-shot.

use std::path::PathBuf;
use std::process::Command;

fn stj() -> Command {
    Command::new(env!("CARGO_BIN_EXE_stj"))
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stj-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn relate_command() {
    let out = stj()
        .args([
            "relate",
            "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
            "POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))",
        ])
        .output()
        .expect("run stj");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("DE-9IM:   TTTFFTFFT"), "{text}");
    assert!(text.contains("relation: contains"), "{text}");
}

#[test]
fn relate_rejects_bad_wkt() {
    let out = stj()
        .args([
            "relate",
            "POLYGON ((0 0))",
            "POLYGON ((0 0, 1 0, 1 1, 0 0))",
        ])
        .output()
        .expect("run stj");
    assert!(!out.status.success());
}

#[test]
fn full_pipeline_via_cli() {
    let dir = tempdir("pipeline");
    let lakes_wkt = dir.join("lakes.wkt");
    let parks_wkt = dir.join("parks.wkt");
    let lakes_bin = dir.join("lakes.stjd");
    let parks_bin = dir.join("parks.stjd");
    let links = dir.join("links.nt");

    for (ds, path) in [("OLE", &lakes_wkt), ("OPE", &parks_wkt)] {
        let out = stj()
            .args(["generate", ds, "0.003"])
            .arg(path)
            .output()
            .expect("generate");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    for (wkt, bin) in [(&lakes_wkt, &lakes_bin), (&parks_wkt, &parks_bin)] {
        let out = stj()
            .arg("preprocess")
            .arg(wkt)
            .arg(bin)
            .args(["--order", "12", "--extent", "0", "0", "1000", "1000"])
            .output()
            .expect("preprocess");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let stats_json = dir.join("report.json");
    let out = stj()
        .arg("join")
        .arg(&lakes_bin)
        .arg(&parks_bin)
        .arg("--ntriples")
        .arg(&links)
        .arg("--stats-json")
        .arg(&stats_json)
        .output()
        .expect("join");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Join statistics go to stderr; stdout stays pipeable (empty here).
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("candidates"), "{text}");
    assert!(String::from_utf8(out.stdout).unwrap().is_empty());

    // The --stats-json report has the stj-join-report/v1 shape.
    let report = std::fs::read_to_string(&stats_json).unwrap();
    assert!(report.trim_start().starts_with('{'), "{report}");
    for key in [
        "\"schema\": \"stj-join-report/v1\"",
        "\"candidates\"",
        "\"wall_ns\"",
        "\"stats\"",
        "\"relations\"",
        "\"profile\"",
        "\"mbr_classify\"",
        "\"intermediate_filter\"",
        "\"refinement\"",
        "\"p99_ns\"",
        "\"mbr_classes\"",
    ] {
        assert!(report.contains(key), "missing {key} in {report}");
    }

    let nt = std::fs::read_to_string(&links).unwrap();
    assert!(nt.lines().count() > 0);
    for line in nt.lines() {
        assert!(line.starts_with("<urn:stj:"), "{line}");
        assert!(line.contains("geosparql#sf"), "{line}");
        assert!(line.ends_with(" ."), "{line}");
    }

    // Predicate mode agrees with the general join's histogram.
    let out = stj()
        .arg("join")
        .arg(&lakes_bin)
        .arg(&parks_bin)
        .args(["--predicate", "inside"])
        .output()
        .expect("predicate join");
    assert!(out.status.success());

    // --quiet silences the summary entirely.
    let out = stj()
        .arg("join")
        .arg(&lakes_bin)
        .arg(&parks_bin)
        .arg("--quiet")
        .output()
        .expect("quiet join");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().is_empty());
    assert!(String::from_utf8(out.stderr).unwrap().is_empty());

    // --progress emits at least a final heartbeat line on stderr.
    let out = stj()
        .arg("join")
        .arg(&lakes_bin)
        .arg(&parks_bin)
        .args(["--quiet", "--progress"])
        .output()
        .expect("progress join");
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("progress:"), "{err}");
    assert!(err.contains("pairs/sec"), "{err}");

    // Mismatched grids are refused.
    let other_bin = dir.join("other.stjd");
    let out = stj()
        .arg("preprocess")
        .arg(&lakes_wkt)
        .arg(&other_bin)
        .args(["--order", "10", "--extent", "0", "0", "1000", "1000"])
        .output()
        .expect("preprocess other");
    assert!(out.status.success());
    let out = stj()
        .arg("join")
        .arg(&other_bin)
        .arg(&parks_bin)
        .output()
        .expect("mismatched join");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("grid mismatch"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_out_of_core_pipeline() {
    let dir = tempdir("sharded");
    let wkt = dir.join("obe.wkt");
    let single = dir.join("obe.stjd");
    let manifest = dir.join("obe.stjm");

    let out = stj()
        .args(["generate", "OBE", "0.01"])
        .arg(&wkt)
        .output()
        .expect("generate");
    assert!(out.status.success());
    for (path, extra) in [(&single, &[][..]), (&manifest, &["--shards", "3"][..])] {
        let out = stj()
            .arg("preprocess")
            .arg(&wkt)
            .arg(path)
            .args(["--order", "10", "--name", "obe"])
            .args(extra)
            .output()
            .expect("preprocess");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // info understands the manifest.
    let out = stj().arg("info").arg(&manifest).output().expect("info");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("STJM shard manifest"), "{text}");
    assert!(text.contains("3 shard(s)"), "{text}");
    assert!(text.contains("hilbert"), "{text}");

    // The out-of-core self-join produces the same link set as the
    // single-arena self-join (orders differ: the external driver
    // canonicalizes to (r, s), the parallel executor emits in
    // completion order).
    let mut link_sets = Vec::new();
    for input in [&single, &manifest] {
        let nt = dir.join(format!(
            "{}.nt",
            input.file_stem().unwrap().to_string_lossy()
        ));
        let out = stj()
            .arg("join")
            .arg(input)
            .arg(input)
            .arg("--ntriples")
            .arg(&nt)
            .output()
            .expect("join");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut lines: Vec<String> = std::fs::read_to_string(&nt)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        assert!(!lines.is_empty());
        lines.sort();
        link_sets.push(lines);
    }
    assert_eq!(link_sets[0], link_sets[1], "sharded links diverged");

    // A manifest on one side joins against a plain dataset on the other.
    let out = stj()
        .arg("join")
        .arg(&manifest)
        .arg(&single)
        .arg("--quiet")
        .output()
        .expect("mixed join");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --trace needs the single in-memory run and is refused — with an
    // error that says why and how to get a traceable input instead of
    // just naming the incompatibility.
    let out = stj()
        .arg("join")
        .arg(&manifest)
        .arg(&manifest)
        .arg("--trace")
        .arg(dir.join("t.json"))
        .output()
        .expect("trace join");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("out-of-core"), "{err}");
    assert!(err.contains("STJM manifest"), "{err}");
    assert!(err.contains("single-arena"), "{err}");
    assert!(err.contains("without --shards"), "{err}");
    assert!(err.contains("drop --trace"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v2_default_v1_interop_and_info() {
    let dir = tempdir("formats");
    // The committed v1 file and the WKT it was written from (see
    // tests/fixtures/README.md): nothing writes v1 any more.
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let wkt = fixtures.join("stjd-v1.wkt");
    let v1_bin = fixtures.join("stjd-v1.stjd");
    let v2_bin = dir.join("fixture-v2.stjd");

    // Preprocess writes the columnar v2 format, on the v1 file's grid.
    let out = stj()
        .arg("preprocess")
        .arg(&wkt)
        .arg(&v2_bin)
        .args(["--order", "6", "--extent", "0", "0", "1000", "1000"])
        .args(["--name", "v1fixture"])
        .output()
        .expect("preprocess v2");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("format v2"));
    // `--format` is gone: v1 is read-only.
    let out = stj()
        .arg("preprocess")
        .arg(&wkt)
        .arg(dir.join("never.stjd"))
        .args(["--format", "v1"])
        .output()
        .expect("preprocess --format");
    assert!(!out.status.success());

    // `stj info` reads both formats; v2 reports per-section sizes.
    let out = stj().arg("info").arg(&v2_bin).output().expect("info v2");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("STJD v2"), "{text}");
    assert!(text.contains("sections:"), "{text}");
    assert!(text.contains("mbrs"), "{text}");
    let out = stj().arg("info").arg(&v1_bin).output().expect("info v1");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("STJD v1"), "{text}");

    // Both formats load into the same join results.
    let mut reports = Vec::new();
    for (bin, tag) in [(&v2_bin, "v2"), (&v1_bin, "v1")] {
        let json = dir.join(format!("report-{tag}.json"));
        let out = stj()
            .arg("join")
            .arg(bin)
            .arg(bin)
            .arg("--quiet")
            .arg("--stats-json")
            .arg(&json)
            .output()
            .expect("join");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let report = std::fs::read_to_string(&json).unwrap();
        let links = report
            .lines()
            .find(|l| l.contains("\"links\""))
            .expect("links line")
            .trim()
            .to_string();
        reports.push(links);
    }
    assert_eq!(reports[0], reports[1], "v1/v2 joins diverged");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_command() {
    let dir = tempdir("check");
    let report = dir.join("check.json");
    let dump = dir.join("repro.wkt");
    let out = stj()
        .args(["check", "--seed", "0xEDBT26", "--pairs", "330"])
        .arg("--json")
        .arg(&report)
        .arg("--dump")
        .arg(&dump)
        .output()
        .expect("run stj check");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Summary on stderr, stdout pipeable.
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("0 violation(s)"), "{err}");
    assert!(String::from_utf8(out.stdout).unwrap().is_empty());

    let json = std::fs::read_to_string(&report).unwrap();
    for key in [
        "\"schema\": \"stj-check-report/v1\"",
        "\"seed\"",
        "\"pairs\"",
        "\"violations\"",
        "\"categories\"",
        "\"pipeline\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // No violations, so no repro dump is written.
    assert!(!dump.exists());

    // The threaded run over the same seed reports identical counts.
    let out = stj()
        .args([
            "check",
            "--seed",
            "0xEDBT26",
            "--pairs",
            "330",
            "--threads",
            "4",
        ])
        .output()
        .expect("run stj check threaded");
    assert!(out.status.success());

    // Bad flags are rejected.
    let out = stj()
        .args(["check", "--pairs", "nope"])
        .output()
        .expect("run stj check bad");
    assert!(!out.status.success());

    let _ = std::fs::remove_dir_all(&dir);
}

/// `stj join --trace`: the flight recorder writes Perfetto-loadable
/// Chrome trace JSON, the `--stats-json` report gains scheduler and
/// allocation-attribution sections, and single-threaded re-runs record
/// bit-identical span sequences (modulo timing).
#[test]
fn join_trace_and_attribution() {
    use stjoin::obs::Json;

    let dir = tempdir("trace");
    let wkt = dir.join("obe.wkt");
    let bin = dir.join("obe.stjd");

    let out = stj()
        .args(["generate", "OBE", "0.02"])
        .arg(&wkt)
        .output()
        .expect("generate");
    assert!(out.status.success());
    let out = stj()
        .arg("preprocess")
        .arg(&wkt)
        .arg(&bin)
        .args(["--order", "10"])
        .output()
        .expect("preprocess");
    assert!(out.status.success());

    let trace_path = dir.join("trace.json");
    let report_path = dir.join("report.json");
    let out = stj()
        .arg("join")
        .arg(&bin)
        .arg(&bin)
        .args(["--threads", "2", "--trace"])
        .arg(&trace_path)
        .arg("--stats-json")
        .arg(&report_path)
        .output()
        .expect("traced join");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("flight-recorder"));

    // The trace is schema-valid Chrome trace-event JSON.
    let doc = Json::parse(&std::fs::read_to_string(&trace_path).unwrap()).expect("trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let tasks: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("tile-task"))
        .collect();
    assert!(!tasks.is_empty(), "trace holds task spans");
    for e in &tasks {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("ts").is_some() && e.get("dur").is_some());
        let args = e.get("args").expect("span args");
        for key in [
            "task",
            "tile",
            "split_depth",
            "pairs",
            "links",
            "refinement_ns",
        ] {
            assert!(args.get(key).is_some(), "span args missing {key}");
        }
    }

    // The report gains scheduler and allocation sections; the refine
    // path must attribute allocations to at least 4 distinct sites.
    let report = Json::parse(&std::fs::read_to_string(&report_path).unwrap()).expect("report");
    let sched = report.get("sched").expect("sched section");
    assert!(sched.get("utilization").and_then(Json::as_f64).is_some());
    assert!(sched
        .get("imbalance_ratio")
        .and_then(Json::as_f64)
        .is_some());
    let alloc = report.get("alloc").expect("alloc section");
    assert!(alloc.get("total_calls").and_then(Json::as_u64).unwrap() > 0);
    let sites = alloc.get("sites").expect("sites");
    let Json::Obj(entries) = sites else {
        panic!("sites is an object")
    };
    let live = entries
        .iter()
        .filter(|(_, v)| v.get("calls").and_then(Json::as_u64).unwrap_or(0) > 0)
        .count();
    assert!(
        live >= 4,
        "expected >=4 live alloc sites, got {live}: {sites:?}"
    );

    // Single-threaded traces are bit-stable across re-runs on the
    // non-timing span fields.
    let span_keys = |path: &std::path::Path| -> Vec<(u64, u64, u64, u64, u64)> {
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).expect("trace parses");
        let mut keys: Vec<(u64, u64, u64, u64, u64)> = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events")
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("tile-task"))
            .map(|e| {
                let a = e.get("args").expect("args");
                let g = |k: &str| a.get(k).and_then(Json::as_u64).expect("span field");
                (
                    g("task"),
                    g("tile"),
                    g("split_depth"),
                    g("pairs"),
                    g("links"),
                )
            })
            .collect();
        keys.sort_unstable();
        keys
    };
    let t1 = dir.join("trace-run1.json");
    let t2 = dir.join("trace-run2.json");
    for t in [&t1, &t2] {
        let out = stj()
            .arg("join")
            .arg(&bin)
            .arg(&bin)
            .args(["--threads", "1", "--quiet", "--trace"])
            .arg(t)
            .output()
            .expect("single-thread traced join");
        assert!(out.status.success());
    }
    let (k1, k2) = (span_keys(&t1), span_keys(&t2));
    assert!(!k1.is_empty());
    assert_eq!(k1, k2, "single-threaded span sequence must be bit-stable");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `stj bench-diff`: equal documents pass, regressions beyond the
/// threshold (or any change to exact-match metrics) exit non-zero.
#[test]
fn bench_diff_command() {
    let dir = tempdir("bench-diff");
    let doc = |wall_ns: u64, links: u64, allocs: u64| {
        format!(
            "{{\"schema\": \"stj-bench/v1\", \"benchmark\": \"join_executor\", \"runs\": [\
             {{\"exec\": \"streaming\", \"threads\": 4, \"wall_ns\": {wall_ns}, \
             \"pairs_per_sec\": {}, \"links\": {links}, \"allocs\": {allocs}}}]}}",
            1e15 / wall_ns as f64
        )
    };
    let base = dir.join("base.json");
    let same = dir.join("same.json");
    let slow = dir.join("slow.json");
    let diverged = dir.join("diverged.json");
    let churn = dir.join("churn.json");
    std::fs::write(&base, doc(1_000_000, 42, 5_000)).unwrap();
    std::fs::write(&same, doc(1_040_000, 42, 4_000)).unwrap(); // +4% wall, fewer allocs: ok
    std::fs::write(&slow, doc(1_500_000, 42, 5_000)).unwrap(); // +50%: regression
    std::fs::write(&diverged, doc(1_000_000, 41, 5_000)).unwrap(); // exact-match miss
    std::fs::write(&churn, doc(1_000_000, 42, 5_001)).unwrap(); // one extra alloc

    let diff = |a: &std::path::Path, b: &std::path::Path, extra: &[&str]| {
        stj()
            .arg("bench-diff")
            .arg(a)
            .arg(b)
            .args(extra)
            .output()
            .expect("run bench-diff")
    };

    let out = diff(&base, &same, &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 regression(s)"));

    let out = diff(&base, &slow, &[]);
    assert!(!out.status.success(), "a +50% wall_ns must regress");
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESS"));

    // A generous threshold lets the slow run pass.
    let out = diff(&base, &slow, &["--threshold", "75"]);
    assert!(out.status.success());

    // Exact-match metrics regress on any change, whatever the threshold.
    let out = diff(&base, &diverged, &["--threshold", "75"]);
    assert!(!out.status.success(), "changed link count must regress");

    // Alloc counts gate exact-or-lower: even one extra allocation
    // regresses regardless of the threshold (decreases pass — `same`
    // above already proved 4000 < 5000 is ok).
    let out = diff(&base, &churn, &["--threshold", "75"]);
    assert!(!out.status.success(), "any alloc increase must regress");
    assert!(String::from_utf8_lossy(&out.stdout).contains("allocs: 5000 -> 5001"));

    // A metric the baseline never measured (freshly instrumented) warns
    // and is skipped rather than failing the diff — old baselines stay
    // usable until they are refreshed.
    let fresh = dir.join("fresh.json");
    std::fs::write(
        &fresh,
        "{\"schema\": \"stj-bench/v1\", \"benchmark\": \"join_executor\", \"runs\": [\
         {\"exec\": \"streaming\", \"threads\": 4, \"wall_ns\": 1000000, \
         \"pairs_per_sec\": 1000000000, \"links\": 42, \"allocs\": 5000, \
         \"refine_p99_ns\": 1234}]}",
    )
    .unwrap();
    let out = diff(&base, &fresh, &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains(
            "NEW      [exec=streaming threads=4] refine_p99_ns: 1234 (not in baseline; skipped)"
        ),
        "{text}"
    );
    assert!(text.contains("1 new metric(s) skipped"), "{text}");
    assert!(text.contains("0 regression(s)"), "{text}");

    let out = stj()
        .args(["bench-diff", "only-one.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let _ = std::fs::remove_dir_all(&dir);
}

/// `stj join --adaptive`: all three modes produce identical sorted
/// N-Triples, the `--stats-json` report carries the `adaptive` block,
/// and an unknown mode name is rejected up front.
#[test]
fn adaptive_join_modes() {
    let dir = tempdir("adaptive");
    let wkt = dir.join("obe.wkt");
    let bin = dir.join("obe.stjd");

    let out = stj()
        .args(["generate", "OBE", "0.02"])
        .arg(&wkt)
        .output()
        .expect("generate");
    assert!(out.status.success());
    let out = stj()
        .arg("preprocess")
        .arg(&wkt)
        .arg(&bin)
        .args(["--order", "10"])
        .output()
        .expect("preprocess");
    assert!(out.status.success());

    let mut link_sets = Vec::new();
    for mode in ["off", "on", "force-skip"] {
        let nt = dir.join(format!("{mode}.nt"));
        let json = dir.join(format!("{mode}.json"));
        let out = stj()
            .arg("join")
            .arg(&bin)
            .arg(&bin)
            .args(["--adaptive", mode, "--quiet"])
            .arg("--ntriples")
            .arg(&nt)
            .arg("--stats-json")
            .arg(&json)
            .output()
            .expect("adaptive join");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut lines: Vec<String> = std::fs::read_to_string(&nt)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        assert!(!lines.is_empty());
        lines.sort();
        link_sets.push(lines);

        // Every report names its mode; the decision trace appears as
        // soon as the adaptive model actually ran (on / force-skip).
        let report = std::fs::read_to_string(&json).unwrap();
        assert!(report.contains("\"adaptive\""), "{report}");
        assert!(
            report.contains(&format!("\"mode\": \"{mode}\"")),
            "missing mode {mode} in {report}"
        );
        if mode != "off" {
            assert!(report.contains("\"classes\""), "{report}");
            assert!(report.contains("\"verdict\""), "{report}");
        }
    }
    assert_eq!(link_sets[0], link_sets[1], "links diverged under on");
    assert_eq!(
        link_sets[0], link_sets[2],
        "links diverged under force-skip"
    );

    // Unknown modes are rejected before any work happens.
    let out = stj()
        .arg("join")
        .arg(&bin)
        .arg(&bin)
        .args(["--adaptive", "sometimes"])
        .output()
        .expect("bad adaptive join");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown adaptive mode"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = stj().arg("frobnicate").output().expect("run stj");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

/// Options a command does not know are rejected by name, not taken as
/// positional arguments.
#[test]
fn unknown_options_are_named() {
    let dir = tempdir("unknown-options");
    let wkt = dir.join("in.wkt");
    std::fs::write(&wkt, "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))\n").unwrap();
    let out_path = dir.join("out.stjd");
    let cases: [(&[&str], &str); 5] = [
        (&["preprocess", "IN", "--bogus", "OUT"], "--bogus"),
        (&["preprocess", "IN", "OUT", "--format", "v1"], "--format"),
        (&["join", "OUT", "OUT", "--exec", "materialized"], "--exec"),
        (
            &["bench-diff", "a.json", "b.json", "--thresh", "5"],
            "--thresh",
        ),
        (
            &["query", "--addr", "127.0.0.1:9", "--retries", "3", "stats"],
            "--retries",
        ),
    ];
    for (args, flag) in cases {
        let out = stj()
            .args(args.iter().map(|a| match *a {
                "IN" => wkt.as_os_str(),
                "OUT" => out_path.as_os_str(),
                a => std::ffi::OsStr::new(a),
            }))
            .output()
            .expect("run stj");
        assert!(!out.status.success(), "{args:?} succeeded");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown option \"{flag}\"")),
            "{args:?}: {err}"
        );
    }
    // Nothing was written, and the same command without the stray option
    // works.
    assert!(!out_path.exists());
    let out = stj()
        .arg("preprocess")
        .arg(&wkt)
        .arg(&out_path)
        .output()
        .expect("run stj");
    assert!(out.status.success());

    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end `stj serve` + `stj query` round trip: start the service
/// on a free port, exercise every query family, assert the structured
/// 400 for bad probe WKT, then drain gracefully via SIGTERM and check
/// the exit code.
#[cfg(unix)]
#[test]
fn serve_and_query_round_trip() {
    use std::io::{BufRead, BufReader};

    let dir = tempdir("serve");
    let wkt = dir.join("boxes.wkt");
    let bin = dir.join("boxes.stjd");
    let stats_json = dir.join("serve-stats.json");

    let out = stj()
        .args(["generate", "TL", "0.02"])
        .arg(&wkt)
        .output()
        .expect("generate");
    assert!(out.status.success());
    let out = stj()
        .arg("preprocess")
        .arg(&wkt)
        .arg(&bin)
        .args(["--order", "8", "--name", "boxes"])
        .output()
        .expect("preprocess");
    assert!(out.status.success());

    let mut server = stj()
        .arg("serve")
        .arg("--data")
        .arg(&bin)
        .args(["--addr", "127.0.0.1:0", "--threads", "2", "--quiet"])
        .arg("--stats-json")
        .arg(&stats_json)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // The first stdout line announces the picked port.
    let mut stdout = BufReader::new(server.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .to_string();

    let query = |args: &[&str]| {
        stj()
            .args(["query", "--addr", &addr])
            .args(args)
            .output()
            .expect("run stj query")
    };

    let out = query(&["healthz"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = query(&[
        "relate",
        "boxes",
        "POLYGON((100 100, 500 100, 500 500, 100 500, 100 100))",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"matches\""), "{text}");

    // Invalid probe WKT: non-zero exit, structured 400 with a
    // line-numbered parse error on stdout.
    let out = query(&["relate", "boxes", "POLYGON((broken"]);
    assert!(!out.status.success(), "bad WKT must fail the client");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"kind\": \"bad_wkt\""), "{text}");
    assert!(text.contains("line 1:"), "{text}");

    let out = query(&["pair", "boxes", "0", "boxes", "0"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"equals\""));

    let out = query(&["join", "boxes", "boxes", "--max-links", "3"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.lines().last().unwrap_or("").contains("\"summary\""),
        "{text}"
    );

    let out = query(&["--framed", "stats"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stj-serve-report/v1"), "{text}");

    // Prometheus scrape via the one-shot client.
    let out = query(&["metrics"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("# TYPE stj_serve_requests_total counter"),
        "{text}"
    );
    assert!(
        text.contains("stj_serve_requests_total{transport=\"http\"}"),
        "{text}"
    );

    // Graceful drain: SIGTERM, then the server must exit 0 and write
    // the final stats report.
    let term = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let status = server.wait().expect("wait for serve");
    assert!(
        status.success(),
        "serve must drain cleanly on SIGTERM: {status:?}"
    );
    let report = std::fs::read_to_string(&stats_json).expect("final stats written");
    assert!(
        report.contains("\"schema\": \"stj-serve-report/v1\""),
        "{report}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `stj query` honors `Retry-After` on a 429 shed: bounded retries
/// against a fake server that sheds once and then serves.
#[test]
fn query_retries_on_429_with_retry_after() {
    use std::io::{Read, Write};
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || {
        let responses = [
            "HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
             retry-after: 1\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}",
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
             content-length: 15\r\nconnection: close\r\n\r\n{\"status\":\"ok\"}",
        ];
        for resp in responses {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut head = Vec::new();
            let mut buf = [0u8; 4096];
            loop {
                let n = conn.read(&mut buf).expect("read request");
                head.extend_from_slice(&buf[..n]);
                if n == 0 || head.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            conn.write_all(resp.as_bytes()).expect("write response");
        }
    });

    let out = stj()
        .args(["query", "--addr", &addr, "healthz"])
        .output()
        .expect("run stj query");
    server.join().expect("fake server");
    assert!(
        out.status.success(),
        "query must succeed after the retry: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("retry 1/3"),
        "retry not announced: {stderr}"
    );
}

/// `--no-retry` turns a 429 into an immediate failure.
#[test]
fn query_no_retry_fails_fast_on_429() {
    use std::io::{Read, Write};
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let mut head = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            let n = conn.read(&mut buf).expect("read request");
            head.extend_from_slice(&buf[..n]);
            if n == 0 || head.windows(4).any(|w| w == b"\r\n\r\n") {
                break;
            }
        }
        conn.write_all(
            b"HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
              retry-after: 1\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}",
        )
        .expect("write response");
    });

    let t0 = std::time::Instant::now();
    let out = stj()
        .args(["query", "--addr", &addr, "--no-retry", "healthz"])
        .output()
        .expect("run stj query");
    server.join().expect("fake server");
    assert!(!out.status.success(), "--no-retry must fail on 429");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("server returned 429"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(3),
        "--no-retry must not sleep"
    );
}

/// Bulk link discovery three ways — offline `stj join --ntriples`,
/// offline `stj discover`, and the served `/v1/discover` stream — all
/// produce the same link set, byte-identical after sorting.
#[cfg(unix)]
#[test]
fn discover_matches_offline_join_ntriples() {
    use std::io::{BufRead, BufReader};

    let dir = tempdir("discover");
    let lakes_wkt = dir.join("lakes.wkt");
    let parks_wkt = dir.join("parks.wkt");
    let lakes_bin = dir.join("lakes.stjd");
    let parks_bin = dir.join("parks.stjd");
    let links_nt = dir.join("links.nt");

    for (ds, path) in [("OLE", &lakes_wkt), ("OPE", &parks_wkt)] {
        let out = stj()
            .args(["generate", ds, "0.003"])
            .arg(path)
            .output()
            .expect("generate");
        assert!(out.status.success());
    }
    // A common extent so the offline join accepts the pair (the served
    // discover path rasterizes probes on the dataset's own grid).
    for (wkt, bin, name) in [
        (&lakes_wkt, &lakes_bin, "lakes"),
        (&parks_wkt, &parks_bin, "parks"),
    ] {
        let out = stj()
            .arg("preprocess")
            .arg(wkt)
            .arg(bin)
            .args([
                "--order", "8", "--extent", "0", "0", "1000", "1000", "--name", name,
            ])
            .output()
            .expect("preprocess");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let sorted = |text: &str| -> Vec<String> {
        let mut lines: Vec<String> = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(str::to_string)
            .collect();
        lines.sort();
        lines
    };

    // Ground truth: the offline join's N-Triples.
    let out = stj()
        .arg("join")
        .arg(&lakes_bin)
        .arg(&parks_bin)
        .args(["--quiet", "--ntriples"])
        .arg(&links_nt)
        .output()
        .expect("join");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let join_lines = sorted(&std::fs::read_to_string(&links_nt).expect("links.nt"));
    assert!(
        !join_lines.is_empty(),
        "join found no links — test is vacuous"
    );

    // Offline discover: lakes WKT on stdin against the parks dataset.
    let out = stj()
        .args(["discover", "--format", "nt", "--name", "lakes", "--data"])
        .arg(&parks_bin)
        .stdin(std::fs::File::open(&lakes_wkt).expect("open lakes.wkt"))
        .output()
        .expect("discover");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let discover_lines = sorted(&String::from_utf8_lossy(&out.stdout));
    assert_eq!(
        discover_lines, join_lines,
        "offline discover disagrees with the offline join"
    );

    // Served discover: the same probes through `/v1/discover`.
    let mut server = stj()
        .arg("serve")
        .arg("--data")
        .arg(&parks_bin)
        .args(["--addr", "127.0.0.1:0", "--threads", "2", "--quiet"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdout = BufReader::new(server.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .to_string();

    let out = stj()
        .args([
            "query", "--addr", &addr, "--format", "nt", "--name", "lakes", "discover", "parks",
        ])
        .stdin(std::fs::File::open(&lakes_wkt).expect("open lakes.wkt"))
        .output()
        .expect("query discover");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let served_lines = sorted(&String::from_utf8_lossy(&out.stdout));
    assert_eq!(
        served_lines, join_lines,
        "served discover disagrees with the offline join"
    );

    let term = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    assert!(server.wait().expect("wait").success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A zero-area probe (every vertex on the square's right edge) has no
/// detectable interior. Preprocessed, `stj join` answers it from the NaN
/// interior sentinel of its arena row; `stj relate`, `stj discover` and
/// the served `/v1/relate` must answer it too (it used to panic the
/// serve worker), and the worker must keep serving.
#[cfg(unix)]
#[test]
fn zero_area_probe_is_answered_everywhere() {
    use std::io::{BufRead, BufReader};

    const SQUARE: &str = "POLYGON((0 0,100 0,100 100,0 100,0 0))";
    const SLIVER: &str = "POLYGON((100 10, 100 50, 100 90, 100 10))";
    let dir = tempdir("sliver");
    let grid = ["--order", "8", "--extent", "-10", "-10", "110", "110"];
    for (name, wkt) in [("square", SQUARE), ("sliver", SLIVER)] {
        let path = dir.join(format!("{name}.wkt"));
        std::fs::write(&path, format!("{wkt}\n")).unwrap();
        let out = stj()
            .arg("preprocess")
            .arg(&path)
            .arg(dir.join(format!("{name}.stjd")))
            .args(grid)
            .args(["--name", name])
            .output()
            .expect("preprocess");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Ground truth: the offline join of the preprocessed sliver.
    let links_nt = dir.join("links.nt");
    let report = dir.join("report.json");
    let out = stj()
        .arg("join")
        .arg(dir.join("sliver.stjd"))
        .arg(dir.join("square.stjd"))
        .args(["--quiet", "--ntriples"])
        .arg(&links_nt)
        .arg("--stats-json")
        .arg(&report)
        .output()
        .expect("join");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let join_nt = std::fs::read_to_string(&links_nt).unwrap();
    assert_eq!(join_nt.lines().count(), 1, "{join_nt}");
    // The one relation the join counted: `"relations": { "<name>": 1 }`.
    let report = std::fs::read_to_string(&report).unwrap();
    let relations = &report[report.find("\"relations\"").expect("relations block")..];
    let relation = relations
        .split('"')
        .nth(3)
        .expect("one relation")
        .to_string();

    let out = stj()
        .args(["relate", SLIVER, SQUARE])
        .output()
        .expect("relate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(&format!("relation: {relation}")), "{text}");

    let out = stj()
        .args(["discover", "--format", "nt", "--name", "sliver", "--data"])
        .arg(dir.join("square.stjd"))
        .stdin(std::fs::File::open(dir.join("sliver.wkt")).unwrap())
        .output()
        .expect("discover");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), join_nt);

    // One worker thread: the follow-up request lands on the same worker.
    let mut server = stj()
        .arg("serve")
        .arg("--data")
        .arg(dir.join("square.stjd"))
        .args(["--addr", "127.0.0.1:0", "--threads", "1", "--quiet"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdout = BufReader::new(server.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .to_string();
    // Answers are checked after the server is stopped, so a failing
    // check cannot leave it running.
    let query = |wkt: &str| {
        let out = stj()
            .args(["query", "--addr", &addr, "relate", "square", wkt])
            .output()
            .expect("query relate");
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        (out.status.success(), text.into_owned())
    };
    let sliver_body = query(SLIVER);
    let followup_body = query("POLYGON((10 10, 20 10, 20 20, 10 20, 10 10))");
    let term = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    assert!(server.wait().expect("wait").success());

    let (ok, body) = sliver_body;
    assert!(ok, "{body}");
    assert!(
        body.contains(&format!("\"relation\": \"{relation}\"")),
        "served {body}, joined {relation}"
    );
    let (ok, body) = followup_body;
    assert!(ok && body.contains("\"relation\": \"inside\""), "{body}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGHUP hot-reloads the dataset generation in a running server.
#[cfg(unix)]
#[test]
fn sighup_reloads_datasets() {
    use std::io::{BufRead, BufReader};

    let dir = tempdir("sighup");
    let wkt = dir.join("boxes.wkt");
    let bin = dir.join("boxes.stjd");
    let out = stj()
        .args(["generate", "TL", "0.02"])
        .arg(&wkt)
        .output()
        .expect("generate");
    assert!(out.status.success());
    let out = stj()
        .arg("preprocess")
        .arg(&wkt)
        .arg(&bin)
        .args(["--order", "8", "--name", "boxes"])
        .output()
        .expect("preprocess");
    assert!(out.status.success());

    let mut server = stj()
        .arg("serve")
        .arg("--data")
        .arg(&bin)
        .args(["--addr", "127.0.0.1:0", "--threads", "2", "--quiet"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdout = BufReader::new(server.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .to_string();

    let hup = Command::new("kill")
        .args(["-HUP", &server.id().to_string()])
        .status()
        .expect("send SIGHUP");
    assert!(hup.success());

    // The reload happens on a background thread; poll /stats for the
    // new generation.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let out = stj()
            .args(["query", "--addr", &addr, "stats"])
            .output()
            .expect("stats");
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        if text.contains("\"id\": 2") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "SIGHUP reload never landed: {text}"
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
    }

    // Requests still serve after the swap.
    let out = stj()
        .args(["query", "--addr", &addr, "pair", "boxes", "0", "boxes", "0"])
        .output()
        .expect("pair");
    assert!(out.status.success());

    let term = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    assert!(server.wait().expect("wait").success());
    let _ = std::fs::remove_dir_all(&dir);
}
