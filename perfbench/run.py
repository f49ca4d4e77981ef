#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the release `stj` binary.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload osm-relation --seed 1 --seconds 15 --trace 0

Workloads:
  osm-relation    preprocess parks + buildings, then repeat a default
                  `stj join ... --ntriples` (find-relation, P+C, auto threads)
  osm-intersects  the same with `--predicate intersects`, on buildings
                  scattered over the parks
  serve-relate    `stj serve` holds parks and buildings; one client process
                  drives `POST /v1/relate` over nproc keep-alive connections
                  in a closed loop (not in BENCHMARK.json: see README.md)

`--trace 0` measures the end-to-end metrics with nothing traced or
profiled. `--trace 1` is a separate run that times calls into each crate's
public functions in-process (the `pbtrace` binary) and reports the
per-layer metrics. Every answer of the program is checked against the
benchmark's own exact oracle (`pbkit`). The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

The script builds `stj` (root package) and the benchmark's own workspace
with cargo into $CARGO_TARGET_DIR (default: .bench_build), generates its
inputs under .bench_work/, and removes every file of a run when it ends.
"""

import argparse
import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("osm-relation", "osm-intersects", "serve-relate")
# Cached generated inputs + oracle answers kept per (workload, seed).
CACHE_KEEP = 6
# The joins' timings are reported at reference speed: divided by the wall
# time of the kit's reference computation run right after each join (see
# kit/src/calib.rs), times this constant (about its duration on two quiet
# vCPUs).
CAL_REF_S = 0.1
# The lattice square the generator draws in, and the grid order over it.
EXTENT = ["0", "0", "65536", "65536"]
ORDER = "12"


START = time.perf_counter()


def log(msg):
    print(f"[perfbench {time.perf_counter() - START:6.1f}s] {msg}", file=sys.stderr, flush=True)


class Fail(Exception):
    """A benchmark that cannot produce a result (no JSON line is printed)."""


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def build():
    """Builds the release `stj` and the benchmark's own binaries."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "stj"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise Fail(f"build failed: {' '.join(cmd)}")
    rel = target_dir() / "release"
    return rel / "stj", rel / "pbkit", rel / "pbtrace"


def run_quiet(cmd, **kw):
    r = subprocess.run([str(c) for c in cmd], capture_output=True, text=True, **kw)
    if r.returncode != 0:
        raise Fail(f"{Path(str(cmd[0])).name} {cmd[1]} failed ({r.returncode}): {r.stderr.strip()[-2000:]}")
    return r.stdout


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def prepare(pbkit, workload, seed):
    """Generated inputs and oracle answers, cached per (workload, seed)
    and per build of the generator."""
    digest = hashlib.sha1(pbkit.read_bytes()).hexdigest()[:12]
    d = WORK / "cache" / f"{workload}-{seed}-{digest}"
    if not (d / "meta.json").exists():
        if d.exists():
            shutil.rmtree(d)
        run_quiet([pbkit, "prepare", "--workload", workload, "--seed", seed, "--dir", d])
        entries = sorted((WORK / "cache").iterdir(), key=lambda p: p.stat().st_mtime, reverse=True)
        for old in entries[CACHE_KEEP:]:
            shutil.rmtree(old, ignore_errors=True)
    os.utime(d)
    return d, json.loads((d / "meta.json").read_text())


def timed(cmd, cwd):
    """Runs `cmd` to the end: (wall s, user+sys CPU s, peak RSS MB, stderr)."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([str(c) for c in cmd], cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    text = err_path.read_text()
    if p.returncode != 0:
        raise Fail(f"{Path(str(cmd[0])).name} {cmd[1]} exited {p.returncode}: {text.strip()[-2000:]}")
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss * 1024 / 1e6, text


def preprocess(stj, data, run, names):
    for name in names:
        run_quiet([stj, "preprocess", data / f"{name}.wkt", run / f"{name}.stjd",
                   "--order", ORDER, "--extent", *EXTENT, "--name", name])


def store_mb(run, names):
    return sum((run / f"{n}.stjd").stat().st_size for n in names) / 1e6


class Server:
    """`stj serve` on an ephemeral port; stopped by SIGTERM, which must
    drain and exit 0."""

    def __init__(self, stj, run, names):
        self.out = open(run / "serve.out", "w+")
        self.err = open(run / "serve.err", "w+")
        data = [a for n in names for a in ("--data", str(run / f"{n}.stjd"))]
        self.proc = subprocess.Popen([str(stj), "serve", *data, "--addr", "127.0.0.1:0"],
                                     cwd=run, stdout=self.out, stderr=self.err)
        self.addr = None
        deadline = time.monotonic() + 60
        while self.addr is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise Fail(f"stj serve did not start: {Path(self.err.name).read_text()[-2000:]}")
            m = re.search(r"listening on (\S+)", Path(self.out.name).read_text())
            if m:
                self.addr = m.group(1)
            else:
                time.sleep(0.002)
        host, port = self.addr.rsplit(":", 1)
        self.host, self.port = host, int(port)
        while True:
            try:
                if self.get("/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise Fail("stj serve never answered /healthz")
            time.sleep(0.002)

    def get(self, path):
        c = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            c.request("GET", path)
            r = c.getresponse()
            return r.status, r.read()
        finally:
            c.close()

    def cpu_s(self):
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
        raise Fail("no VmHWM for the server")

    def stop(self):
        """SIGTERM, wait for the drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise Fail("stj serve did not drain within 30 s of SIGTERM")
        self.out.close()
        self.err.close()
        return self.proc.returncode


def check_join(pbkit, data, meta, nt, mode, stderr_text):
    """Checks one join's output: (attempted, failed, problems, pbkit's report)."""
    problems = []
    m = re.search(r"-> (\d+) candidates", stderr_text)
    if not m or int(m.group(1)) != meta["candidates"]:
        problems.append(f"join reported {m and m.group(1)} candidates, MBR overlaps {meta['candidates']}")
    rep = last_json(run_quiet([pbkit, "check-nt", "--dir", data, "--nt", nt, "--mode", mode]))
    problems += rep["problems"]
    if rep["failed_seeded"]:
        log(f"{rep['failed_seeded']} failed pairs outside the fixed part: {rep['mismatches']}")
    return rep["attempted"], rep["failed"], problems, rep


def join_cmd(stj, run, workload):
    cmd = [stj, "join", run / "parks.stjd", run / "buildings.stjd", "--ntriples", run / "out.nt"]
    if workload == "osm-intersects":
        cmd += ["--predicate", "intersects"]
    return cmd


def offline(args, stj, pbkit, data, meta, run):
    names = ["parks", "buildings"]
    t0 = time.perf_counter()
    preprocess(stj, data, run, names)
    setup = time.perf_counter() - t0
    mode = "intersects" if args.workload == "osm-intersects" else "relation"
    walls, cpus, rsss, cals = [], [], [], []
    attempted = failed = 0
    problems = []
    spent = 0.0
    while spent < args.seconds or not walls:
        wall, cpu, rss, err = timed(join_cmd(stj, run, args.workload), run)
        cal = calibrate(pbkit)
        spent += wall + cal
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        cals.append(cal)
        a, f, p, rep = check_join(pbkit, data, meta, run / "out.nt", mode, err)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    log(f"{len(walls)} joins: median wall {statistics.median(walls):.3f} s, CPU "
        f"{statistics.median(cpus):.3f} s, reference computation {statistics.median(cals):.4f} s; "
        f"per join {rep['failed']} of {rep['attempted']} pairs failed {rep['mismatches']}")
    # Each repetition is scaled by the reference computation run right
    # after it, then the median is taken.
    wall = statistics.median(w / c for w, c in zip(walls, cals)) * CAL_REF_S
    cpu = statistics.median(u / c for u, c in zip(cpus, cals)) * CAL_REF_S
    metrics = {
        "setup_s": (setup, "s"),
        "latency_ms": (wall * 1e3, "ms"),
        "cpu_ms": (cpu * 1e3, "ms"),
        "throughput": (meta["candidates"] / wall, "1/s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
        "store_mb": (store_mb(run, names), "MB"),
    }
    return metrics, attempted, failed, problems


def calibrate(pbkit):
    """Wall seconds of one reference computation on nproc threads."""
    return last_json(run_quiet([pbkit, "calibrate", "--threads", nproc()]))["seconds"]


def load(args, pbkit, server, seconds):
    # The workload's own inputs: the oracle must know the buildings the
    # server holds (the probe stream depends on the parks alone).
    return last_json(run_quiet([pbkit, "load", "--workload", args.workload, "--seed", args.seed,
                                "--addr", server.addr, "--seconds", seconds, "--conns", nproc()]))


def serve(args, stj, pbkit, data, meta, run):
    names = ["parks", "buildings"]
    t0 = time.perf_counter()
    preprocess(stj, data, run, names)
    server = Server(stj, run, names)
    setup = time.perf_counter() - t0
    try:
        cpu0 = server.cpu_s()
        rep = load(args, pbkit, server, args.seconds)
        cpu = server.cpu_s() - cpu0
        rss = server.peak_rss_mb()
    finally:
        code = server.stop()
    problems = list(rep["problems"])
    if code != 0:
        problems.append(f"stj serve exited {code} after SIGTERM")
    if rep["failed_seeded"]:
        log(f"{rep['failed_seeded']} failed requests outside the fixed probes: {rep['failures']}")
    log(f"{rep['attempted']:.0f} requests in {rep['rounds']:.0f} rounds: p50 {rep['p50_ms']:.4f} ms, "
        f"{rep['rps']:.0f} req/s, server CPU {cpu:.2f} s; {rep['failed']:.0f} failed {rep['failures'][:1]}")
    # As measured, not scaled: see "Reference speed" in README.md.
    metrics = {
        "setup_s": (setup, "s"),
        "latency_ms": (rep["p50_ms"], "ms"),
        "cpu_ms": (cpu / rep["attempted"] * 1e3, "ms"),
        "throughput": (rep["rps"], "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "store_mb": (store_mb(run, names), "MB"),
    }
    return metrics, int(rep["attempted"]), int(rep["failed"]), problems


def traced(args, stj, pbkit, pbtrace, data, meta, run):
    """Per-layer metrics: in-process layer calls, one untraced operation
    of the workload for comparison, and a short live relate phase."""
    spans = WORK / "spans" / f"{args.workload}-{args.seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    layers = last_json(run_quiet([pbtrace, "--dir", data, "--out", run, "--spans", spans,
                                  "--workload", args.workload]))
    metrics = {k: (v["value"], v["unit"]) for k, v in layers["metrics"].items()}
    problems = []
    attempted = failed = 0
    names = ["parks", "buildings"]
    preprocess(stj, data, run, names)
    if args.workload != "serve-relate":
        mode = "intersects" if args.workload == "osm-intersects" else "relation"
        wall, _, _, err = timed(join_cmd(stj, run, args.workload), run)
        attempted, failed, problems, _ = check_join(pbkit, data, meta, run / "out.nt", mode, err)
        print(f"traced run: exec.run_s {metrics['exec.run_s'][0]:.4f} s in-process "
              f"(trace total {layers['total_s']:.3f} s) vs untraced stj join {wall:.4f} s")
    server = Server(stj, run, names)
    try:
        live = args.seconds if args.workload == "serve-relate" else min(args.seconds, 3)
        rep = load(args, pbkit, server, live)
        status, body = server.get("/stats")
        hits = json.loads(body)["cache"]["hits"]
    finally:
        code = server.stop()
    if code != 0:
        problems.append(f"stj serve exited {code} after SIGTERM")
    problems += rep["problems"]
    if args.workload == "serve-relate":
        attempted, failed = int(rep["attempted"]), int(rep["failed"])
        print(f"traced run: serve.dispatch_us {metrics['serve.dispatch_us'][0]:.1f} us in-process "
              f"(trace total {layers['total_s']:.3f} s) vs untraced relate p50 {rep['p50_ms'] * 1e3:.1f} us")
    metrics["serve.wire_us"] = (rep["p50_ms"] * 1e3 - metrics["serve.dispatch_us"][0], "us")
    metrics["serve.cache_hits"] = (hits, "count")
    metrics["serve.p99_ms"] = (rep["p99_ms"], "ms")
    return metrics, attempted, failed, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.seed = str(args.seed)
    stj, pbkit, pbtrace = build()
    log("built")
    data, meta = prepare(pbkit, args.workload, args.seed)
    log(f"inputs ready: {meta['parks']} parks, {meta['right_objects']} {meta['right']}, "
        f"{meta['candidates']} candidate pairs")
    run = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run, ignore_errors=True)
    run.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed, problems = traced(args, stj, pbkit, pbtrace, data, meta, run)
        elif args.workload == "serve-relate":
            metrics, attempted, failed, problems = serve(args, stj, pbkit, data, meta, run)
        else:
            metrics, attempted, failed, problems = offline(args, stj, pbkit, data, meta, run)
    finally:
        shutil.rmtree(run, ignore_errors=True)
    for p in problems[:10]:
        log(f"PROBLEM: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except Fail as e:
        log(f"error: {e}")
        sys.exit(2)
