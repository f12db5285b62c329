#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload and
prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build lives in .bench_build/ (reused when
up to date). The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
run is traced, writes a Chrome trace to .bench_build/traces/ and reports
the per-layer metrics. The full record of every run (host block, per-model
results, deterministic values, raw samples) is kept in
.bench_build/results/. The exit code is non-zero when any operation failed
or a deterministic value differs from an earlier run in this checkout.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"

WORKLOADS = ("compile_cold", "compile_warm", "infer_images", "soak_vgg16")
RUN_TIMEOUT_S = 170

# name -> unit. Every end-to-end metric is reported on every workload.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "fmax_mhz": "MHz",
    "peak_rss_mb": "MB",
}

# Per-layer metrics summed over the spans of one traced pass (or set-up
# repetition, or probe), then the median over those. A layer a workload
# does not enter reports 0.
SPAN_METRICS = {
    "service.ensure_s": "s",
    "service.flow_s": "s",
    "service.self_s": "s",
    "service.built": "count",
    "service.dedup_waits": "count",
    "service.hit_rate": "ratio",
    "ooc.function_opt_s": "s",
    "store.disk_loads": "count",
    "store.hits": "count",
    "store.misses": "count",
    "preimpl.stitch_s": "s",
    "preimpl.place_s": "s",
    "preimpl.route_s": "s",
    "preimpl.sta_s": "s",
    "preimpl.drc_s": "s",
    "preimpl.self_s": "s",
    "place.cost_evals": "count",
    "place.backtracks": "count",
    "route.iterations": "count",
    "route.nets_routed": "count",
    "route.wirelength": "tiles",
    "design.cells": "count",
    "synth.flat_netlist_s": "s",
    "mono.cluster_s": "s",
    "mono.place_s": "s",
    "mono.route_s": "s",
    "mono.phys_opt_s": "s",
    "mono.sta_s": "s",
    "mono.drc_s": "s",
    "mono.self_s": "s",
    "sim.plan_compile_s": "s",
    "golden.reference_s": "s",
    "sim.step_s": "s",
    "sim.cycles": "cycles",
    "sim.reset_s": "s",
    "engine.reset_share": "ratio",
    "engine.serve_s": "s",
    "engine.self_s": "s",
    "engine.resets": "count",
    "engine.batches": "count",
    "engine.oracle_checks": "count",
    "engine.oracle_failures": "count",
}

# Per-layer metrics taken from the run record rather than from spans.
RECORD_METRICS = {
    "compile_s": "s",
    "classic_compile_s": "s",
    "classic_fmax_mhz": "MHz",
    "images_per_s": "1/s",
    "latency_cycles": "cycles",
    "lane_cycles_per_s": "1/s",
    "error_rate": "ratio",
    "sim.comb_ops": "count",
    "sim.seq_ops": "count",
    "sim.levels": "count",
    "sim.context_mb": "MB",
    "trace.overhead.compile_s": "s",
    "trace.overhead.images_per_s": "1/s",
    "trace.overhead.lane_cycles_per_s": "1/s",
}

PER_LAYER = {**SPAN_METRICS, **RECORD_METRICS}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def pool_width():
    """The one pool width of every run: at most 4, at most the usable cores."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return max(1, min(4, usable))


def build():
    """Configures (once) and builds the perfbench target; False on failure."""
    jobs = str(pool_width())
    for attempt in range(2):
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", "perfbench"])
        failed = None
        for cmd in steps:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                failed = proc.stdout
                break
        if failed is None:
            return True
        if attempt == 0:
            # A cache from another source location: configure afresh once.
            log("build failed; reconfiguring")
            for stale in ("CMakeCache.txt", "CMakeFiles"):
                path = BUILD_DIR / stale
                if path.is_dir():
                    shutil.rmtree(path)
                elif path.exists():
                    path.unlink()
    sys.stderr.write(failed[-8000:])
    return False


def source_digest():
    """Hash of every source file the binary is built from: deterministic
    values are only compared between runs of identical sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_rev():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def median(values):
    return statistics.median(values) if values else 0.0


def geomean(values):
    values = [v for v in values if v > 0]
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def model_field(record, field):
    return [float(m[field]) for m in record["models"].values() if field in m]


def pass_values(record, key, traced=None):
    return [p[key] for p in record["passes"]
            if key in p and (traced is None or p["traced"] == traced)]


def end_to_end(record):
    return {
        "setup_s": median(record["setup_s"]),
        "pass_s": median(pass_values(record, "pass_s")),
        "fmax_mhz": geomean(model_field(record, "fmax_mhz")),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def span_roots(events):
    """Sums every numeric span attribute per root span (a pass, a set-up
    repetition or a probe) and derives the per-root ratios."""
    by_id = {e["args"]["id"]: e for e in events}
    roots = {}
    for event in events:
        root = event
        while root["args"]["parent"] != 0:
            root = by_id[root["args"]["parent"]]
        sums = roots.setdefault(root["args"]["id"],
                                {"kind": root["name"], "values": defaultdict(float)})
        if event is root:
            continue
        for key, value in event["args"].items():
            if key not in ("id", "parent") and isinstance(value, (int, float)):
                sums["values"][key] += value
    for root in roots.values():
        v = root["values"]
        if v.get("sim.cycles") and "sim.stream_s" in v:
            v["sim.step_s"] = v["sim.stream_s"] / v["sim.cycles"]
        if v.get("service.components"):
            v["service.hit_rate"] = v["service.store_hits"] / v["service.components"]
    return list(roots.values())


def per_layer(record, events):
    roots = span_roots(events)
    metrics = {}
    for name in SPAN_METRICS:
        metrics[name] = 0.0
        # Measured passes first; set-up and probe spans cover what no pass
        # calls (plan compilation, golden model, single-context reset).
        for kind in ("pass", "probe", "setup"):
            values = [r["values"][name] for r in roots if r["kind"] == kind and name in r["values"]]
            if values:
                metrics[name] = median(values)
                break

    def overhead(key):
        traced, untraced = pass_values(record, key, True), pass_values(record, key, False)
        return median(traced) - median(untraced) if traced and untraced else 0.0

    metrics.update({
        # Per pass on the compile workloads, per set-up repetition elsewhere.
        "compile_s": median(pass_values(record, "compile_s", False)
                            or record["setup_values"].get("compile_s", [])),
        "classic_compile_s": median(pass_values(record, "classic_compile_s", False)),
        "classic_fmax_mhz": geomean(model_field(record, "classic_fmax_mhz")),
        "images_per_s": median(pass_values(record, "images_per_s", False)),
        "latency_cycles": geomean(model_field(record, "latency_cycles")),
        "lane_cycles_per_s": median(pass_values(record, "lane_cycles_per_s", False)),
        "error_rate": record["failed"] / max(1, record["attempted"]),
        "sim.comb_ops": sum(model_field(record, "comb_ops")),
        "sim.seq_ops": sum(model_field(record, "seq_ops")),
        "sim.levels": sum(model_field(record, "levels")),
        "sim.context_mb": sum(model_field(record, "context_mb")),
        "trace.overhead.compile_s": overhead("compile_s"),
        "trace.overhead.images_per_s": overhead("images_per_s"),
        "trace.overhead.lane_cycles_per_s": overhead("lane_cycles_per_s"),
    })
    return metrics


def check_pins(record, path=None):
    """Compares the run's deterministic values with the earlier runs of the
    same sources in this checkout; records new ones. Returns mismatches."""
    path = path or BUILD_DIR / "pins" / f"{source_digest()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    stored = json.loads(path.read_text()) if path.exists() else {"pins": {}, "seeded": {}}
    seeded = stored["seeded"].setdefault(str(record["seed"]), {})
    mismatches = []
    for known, fresh in ((stored["pins"], record["pins"]), (seeded, record["seeded_pins"])):
        for key, value in fresh.items():
            if known.setdefault(key, value) != value:
                mismatches.append(f"deterministic value '{key}' differs from an earlier run: "
                                  f"{known[key]} -> {value}")
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
    tmp.replace(path)
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no fpgasim sources under {ROOT / 'src'}; nothing to benchmark")
        return 2
    if not build():
        log("build failed")
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = BUILD_DIR / "work" / f"{tag}-{os.getpid()}"
    trace_path = BUILD_DIR / "traces" / f"{tag}.json"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--threads", str(pool_width()),
           "--work-dir", str(work_dir)]
    if args.trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", str(trace_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        log(f"{args.workload} exited with {proc.returncode} and no record")
        return 1
    record = json.loads(lines[-1])

    failures = list(record["failures"])
    if proc.returncode != 0 and not failures:
        failures.append(f"perfbench exited with {proc.returncode}")
    mismatches = check_pins(record)
    failures += mismatches
    record["attempted"] += 1  # the cross-run comparison is one operation
    record["failed"] += 1 if mismatches else 0
    if failures and record["failed"] == 0:
        record["failed"] = 1

    if args.trace:
        events = json.loads(trace_path.read_text())["traceEvents"]
        values, units = per_layer(record, events), PER_LAYER
    else:
        values, units = end_to_end(record), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record["host"]["git_rev"] = git_rev()
    record["host"]["source_digest"] = source_digest()
    record["failures"] = failures
    record["metrics"] = metrics
    if args.trace:
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    results = BUILD_DIR / "results" / f"{tag}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1))
    for failure in failures:
        log(f"FAILURE: {failure}")

    print(json.dumps({"host": record["host"], "models": record["models"]}))
    print(json.dumps({"correct": not failures, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
