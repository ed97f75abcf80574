"""Smoke test of the benchmark on tiny corpora, so that it cannot rot.

Run from the root of a checkout: python3 bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


class SmokeTest(unittest.TestCase):
    def test_every_workload_prints_every_metric_and_no_failures(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, kind, names in (
                (0, "end_to_end", run.END_TO_END_UNITS),
                (1, "per_layer", run.LAYER_UNITS),
            ):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(
                        list(result["metrics"]), [m["name"] for m in spec[kind]]
                    )
                    table = {line.split()[0]: line.split()[1:] for line in lines[1:-1]}
                    for name in names:
                        self.assertIn(name, table)
                    self.assertEqual(table["failed_share"], ["0", "share"])

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench")
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = bench("sweep", 0, cwd=Path(tmp))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
