#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Builds perfbench (as run.py does) and shows that a fault is counted as a
failure and makes the run exit non-zero: a corrupted golden output word on
infer_images, a changed design fingerprint on compile_warm, and a
deterministic value that differs from an earlier run. Also checks that
run.py reports exactly the metrics BENCHMARK.json declares. Each run is
the workload as the benchmark runs it (full zoo, same pool width) with a
measuring window of 0 s, i.e. set-up plus the minimum number of passes.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

WORK = run.BUILD_DIR / "selftest"


def perfbench(workload, *extra):
    """Runs the binary with a 0 s measuring window; returns (exit code, record)."""
    cmd = [str(run.BINARY), "--workload", workload, "--seed", "7", "--seconds", "0",
           "--threads", str(run.pool_width()), "--work-dir", str(WORK / workload), *extra]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_clean_run_passes(self):
        code, record = perfbench("infer_images")
        self.assertEqual(code, 0)
        self.assertEqual(record["failed"], 0)
        self.assertGreater(record["attempted"], 0)

    def test_corrupted_output_word_is_a_failure(self):
        code, record = perfbench("infer_images", "--inject", "corrupt-word")
        self.assertEqual(code, 1)
        self.assertGreater(record["failed"], 0)
        self.assertTrue(any("not bit-exact" in f for f in record["failures"]))

    def test_changed_fingerprint_is_a_failure(self):
        code, record = perfbench("compile_warm", "--inject", "fingerprint")
        self.assertEqual(code, 1)
        self.assertGreater(record["failed"], 0)
        self.assertTrue(any("fingerprint" in f for f in record["failures"]))

    def test_value_differing_from_an_earlier_run_is_a_failure(self):
        path = WORK / "pins.json"
        path.unlink(missing_ok=True)
        record = {"seed": 7, "pins": {"model.x.fingerprint": "aa"},
                  "seeded_pins": {"engine.x.checksum": "01"}}
        self.assertEqual(run.check_pins(record, path), [])
        self.assertEqual(run.check_pins(record, path), [])
        record["pins"]["model.x.fingerprint"] = "ab"
        self.assertEqual(len(run.check_pins(record, path)), 1)
        record["seed"] = 8  # seeded values are compared per seed only
        record["pins"]["model.x.fingerprint"] = "aa"
        record["seeded_pins"]["engine.x.checksum"] = "02"
        self.assertEqual(run.check_pins(record, path), [])

    def test_metrics_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
