#!/usr/bin/env python3
"""Host-time benchmark of the `ninja` fleet CLI.

Builds the `ninja` binary from this checkout, then times whole `ninja
fleet` invocations -- the command an operator runs -- on one of three
fleet workloads for a fixed wall-clock budget:

    python3 perfbench/run.py --workload queued --seed 1 --seconds 10 --trace 0

`--trace 0` reports the end-to-end metrics: the 10th-percentile host
wall time of one invocation, the median peak RSS of the process, and the
benchmark's set-up time. `--trace 1` attributes host time to the
program's layers from outside: each round runs the workload's fleet
once with no telemetry output and once per telemetry layer switched on
alone, and a layer's cost is the median paired difference. The counts
those layers write about themselves (engine iterations, spans, scrapes)
are reported beside them.

Every invocation's output is checked: the report must account for every
job with a positive blackout and conserved wire bytes, and repeated
invocations with one seed must print identical bytes.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Build and work files live under
`$CARGO_TARGET_DIR` (default `.bench_build`) inside the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Why each workload: see BENCHMARK.json. `queued` is a large fleet with
# every telemetry output off; `observed` turns on every telemetry layer
# at once, as an operator would. Both are evacuations: every job
# triggers at once, so the seed moves only hotplug jitter, not how much
# work a run does (staggered drain arrivals would change the makespan,
# and with it the scrape count).
WORKLOADS = {
    "queued": {"jobs": 1024, "concurrency": 4, "observe": False},
    "observed": {"jobs": 256, "concurrency": 8, "observe": True},
}

# Telemetry layers for the traced run, each switched on alone on top of
# the report-only base run. `alerts` includes the recorder, so its cost
# is taken against the `recorder` variant rather than the base.
LAYERS = ["trace", "metrics", "recorder", "alerts"]
SCRAPE_INTERVAL_S = "30"
SETUP_REPEATS = 3
MIN_SAMPLES = 10
CALL_TIMEOUT_S = 60.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Compile (or confirm up to date) the release `ninja` binary."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("no Cargo.toml at the checkout root; nothing to build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(), CARGO_NET_OFFLINE="true")
    r = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", "-p", "ninja-fleet", "--bin", "ninja"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0:
        fail(f"cargo build failed with exit code {r.returncode}")
    exe = os.path.join(target_dir(), "release", "ninja")
    if not os.path.isfile(exe):
        fail(f"built binary missing at {exe}")
    return exe


def invoke(argv, stdout_path):
    """Run one command to completion. Returns (exit code, host wall
    seconds, peak RSS in MiB)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(CALL_TIMEOUT_S, p.kill)
        timer.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, usage.ru_maxrss / 1024.0


class Workload:
    """One workload's fleet command line, its work files, and the checks
    on what it prints."""

    def __init__(self, exe, name, seed, work):
        self.exe = exe
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.files = {
            k: os.path.join(work, f)
            for k, f in [
                ("trace", "trace.json"),
                ("metrics", "metrics.prom"),
                ("series", "series.jsonl"),
                ("stdout", "stdout.json"),
            ]
        }
        self.digests = {}
        self.attempted = 0
        self.failed = 0

    def argv(self, variant):
        s, f = self.spec, self.files
        recorder = ["--scrape-interval", SCRAPE_INTERVAL_S, "--timeseries-out", f["series"]]
        flags = {
            "base": [],
            "trace": ["--trace-out", f["trace"]],
            "metrics": ["--metrics-out", f["metrics"]],
            "recorder": recorder,
            "alerts": recorder + ["--alerts", "default"],
            "all": ["--trace-out", f["trace"], "--metrics-out", f["metrics"]]
            + recorder
            + ["--alerts", "default"],
        }[variant]
        return [
            self.exe, "fleet",
            "--scenario", "evacuation",
            "--jobs", str(s["jobs"]),
            "--concurrency", str(s["concurrency"]),
            "--seed", str(self.seed),
            "--json",
        ] + flags

    def e2e_variant(self):
        return "all" if self.spec["observe"] else "base"

    def run(self, variant):
        """Run the fleet with `variant`'s telemetry flags. Returns (ok,
        wall seconds, peak RSS MiB)."""
        self.attempted += 1
        code, wall, rss = invoke(self.argv(variant), self.files["stdout"])
        ok = code == 0 and self.output_ok(variant)
        if not ok:
            self.failed += 1
        return ok, wall, rss

    def output_ok(self, variant):
        with open(self.files["stdout"], "rb") as fh:
            out = fh.read()
        digest = hashlib.sha256(out).hexdigest()
        # The report is deterministic in the seed; alert incidents join
        # it under the recorder variants, so each variant has its digest.
        known = self.digests.get(variant)
        if known is not None:
            return digest == known
        ok = self.report_ok(out)
        if ok and variant in ("trace", "all"):
            ok = self.trace_spans(envelopes_only=True) == self.spec["jobs"]
        if ok and variant in ("metrics", "all"):
            ok = self.prom_counter("ninja_migrations_total") == self.spec["jobs"]
        if ok and variant in ("recorder", "alerts", "all"):
            ok = self.scrapes() > 0
        if ok:
            self.digests[variant] = digest
        return ok

    def report_ok(self, out):
        try:
            doc = json.loads(out)
        except ValueError:
            return False
        jobs = self.spec["jobs"]
        outcomes = doc.get("outcomes", [])
        return (
            doc.get("jobs") == jobs
            and "failures" not in doc
            and sorted(o["job"] for o in outcomes) == list(range(jobs))
            and all(
                o["blackout_s"] > 0 and o["triggered_at"] <= o["started_at"] <= o["finished_at"]
                for o in outcomes
            )
            and doc["total_wire_bytes"] == sum(o["report"]["wire_bytes"] for o in outcomes) > 0
            and doc["makespan_s"] > 0
            and doc["p99_blackout_s"] >= doc["p50_blackout_s"] > 0
        )

    def trace_spans(self, envelopes_only):
        """Migration envelope spans, or every complete span."""
        with open(self.files["trace"]) as fh:
            events = json.load(fh)["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        if envelopes_only:
            spans = [e for e in spans if e.get("cat") == "ninja" and e.get("name") == "ninja"]
        return len(spans)

    def prom_counter(self, name):
        with open(self.files["metrics"]) as fh:
            for line in fh:
                if line.startswith(name + " "):
                    return int(float(line.split()[1]))
        return -1

    def scrapes(self):
        with open(self.files["series"]) as fh:
            return sum(1 for line in fh if line.strip())


def setup(name, seed, work):
    """One set-up pass: confirm the build is current and make the
    workload's first (cold) invocation. Returns (seconds, workload)."""
    t0 = time.perf_counter()
    exe = build()
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = Workload(exe, name, seed, work)
    wl.run(wl.e2e_variant())
    return time.perf_counter() - t0, wl


def end_to_end(wl, seconds, setup_s):
    walls, rss = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or wl.attempted < MIN_SAMPLES:
        ok, wall, peak = wl.run(wl.e2e_variant())
        if ok:
            walls.append(wall)
            rss.append(peak)
    # The 10th percentile, not the median: the machine is shared, and
    # contention from other tenants comes in phases longer than one
    # invocation, which moves a run's median by up to a third.
    return {
        "wall_p10_ms": (statistics.quantiles(walls, n=10)[0] * 1e3, "ms"),
        "peak_rss_mib": (statistics.median(rss), "MiB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(wl, seconds):
    deltas = {layer: [] for layer in LAYERS}
    base = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while time.perf_counter() < deadline or rounds < MIN_SAMPLES:
        rounds += 1
        walls = {}
        for variant in ["base"] + LAYERS:
            ok, wall, _ = wl.run(variant)
            if ok:
                walls[variant] = wall
        for layer, ref in [("trace", "base"), ("metrics", "base"), ("recorder", "base"),
                           ("alerts", "recorder")]:
            if layer in walls and ref in walls:
                deltas[layer].append(walls[layer] - walls[ref])
        if "base" in walls:
            base.append(walls["base"])
    # Engine iterations come from the metrics-only run: recorder scrapes
    # are engine events too and would inflate the count.
    wl.run("metrics")
    iterations = wl.prom_counter("ninja_fleet_engine_iterations_total")
    base_ms = statistics.median(base) * 1e3
    ms = lambda xs: statistics.median(xs) * 1e3  # noqa: E731
    return {
        "base_wall_ms": (base_ms, "ms"),
        "engine_iterations": (iterations, "count"),
        "host_us_per_iteration": (base_ms * 1e3 / max(iterations, 1), "us"),
        "trace_export_ms": (ms(deltas["trace"]), "ms"),
        "metrics_export_ms": (ms(deltas["metrics"]), "ms"),
        "recorder_ms": (ms(deltas["recorder"]), "ms"),
        "alerts_ms": (ms(deltas["alerts"]), "ms"),
        "trace_spans": (wl.trace_spans(envelopes_only=False), "count"),
        "recorder_scrapes": (wl.scrapes(), "count"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    work = os.path.join(target_dir(), "perfbench-work", args.workload)
    build()  # the first build may compile; set-up timing starts after it
    setups = []
    for _ in range(SETUP_REPEATS):
        s, wl = setup(args.workload, args.seed, work)
        setups.append(s)
    if wl.failed:
        fail(f"workload {args.workload} failed its first invocation")

    try:
        if args.trace:
            metrics = per_layer(wl, args.seconds)
        else:
            metrics = end_to_end(wl, args.seconds, statistics.median(setups))
    except statistics.StatisticsError:
        fail(f"too few correct invocations: {wl.failed} of {wl.attempted} failed")
    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
