#!/usr/bin/env python3
"""Measures the benchmark's baseline and writes it to perfbench/baseline/.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1] [--workload NAME ...]

For each workload: `--runs` untraced runs, each with its own seed, then one
traced run. BASELINE.json gets, per end-to-end metric, the median, the
quartiles and the spread (interquartile distance over the median, the
figure each metric's bound in BENCHMARK.json is set against); the traced
run's per-layer metrics, tracing overhead included; and the host block.
The traced run's Chrome trace is copied next to it as trace_<workload>.json.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

OUT = run.BENCH_DIR / "baseline"


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed ({proc.returncode})")
    tag = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((run.BUILD_DIR / "results" / f"{tag}.json").read_text())


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    OUT.mkdir(exist_ok=True)
    path = OUT / "BASELINE.json"
    baseline = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    baseline["run_seconds"] = seconds
    for workload in args.workload or run.WORKLOADS:
        started = time.time()
        records = [bench(workload, args.first_seed + i, seconds, 0) for i in range(args.runs)]
        traced = bench(workload, args.first_seed, seconds, 1)
        shutil.copyfile(run.ROOT / traced["trace_file"], OUT / f"trace_{workload}.json")
        metrics = {name: summarize([r["metrics"][name]["value"] for r in records])
                   for name in run.END_TO_END}
        baseline["host"] = records[0]["host"]
        baseline["workloads"][workload] = {
            "seeds": [r["seed"] for r in records],
            "end_to_end": metrics,
            "traced_per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "trace_file": f"trace_{workload}.json",
            "models": records[0]["models"],
            "wall_seconds": time.time() - started,
        }
        print(f"{workload}: " + ", ".join(
            f"{k} {m['median']:.4g} (spread {m['spread']:.3f})" for k, m in metrics.items()),
            flush=True)
    path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
