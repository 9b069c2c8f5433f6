#!/usr/bin/env python3
"""Determinism self-test of the benchmark harness.

    python3 perfbench/tests/test_determinism.py

Runs every workload for a fixed operation count (--ops) in traced mode,
twice with one seed and once with another. The same seed must give the
identical request sequence (a digest of every submitted matrix, right-hand
side and priority) and identical exact counts: criterion LU/QR steps,
engine tasks and critical path on the dense workloads, and the cache
hit/miss split on the serve workloads. A different seed must give a
different sequence. Every run must also pass the harness's own
correctness checks.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402  (perfbench/run.py: build + paths)

# Operations per phase: systems on the dense workloads, requests on
# serve-requests, 256-member bursts on serve-batch.
OPS = {"hybrid-default": 2, "lu-fine": 3, "serve-requests": 40, "serve-batch": 2}
EXACT = {
    "hybrid-default": ("criteria.lu_steps", "criteria.qr_steps",
                       "runtime.tasks", "runtime.critical_path"),
    "lu-fine": ("criteria.lu_steps", "criteria.qr_steps", "runtime.tasks",
                "runtime.critical_path"),
    "serve-requests": ("criteria.lu_steps", "criteria.qr_steps", "serve.hits",
                       "serve.misses"),
    "serve-batch": ("criteria.lu_steps", "criteria.qr_steps", "serve.hits",
                    "serve.misses"),
}


def harness(workload, seed):
    """Run one fixed-count traced invocation; return its DETERMINISM record."""
    cmd = [str(run.BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1", "--ops", str(OPS[workload]),
           "--trace-dir", str(run.TRACE_DIR)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        raise AssertionError("%s seed %d failed: %s" % (workload, seed, lines[-1]))
    record = [l for l in lines if l.startswith("DETERMINISM ")]
    if len(record) != 1:
        raise AssertionError("%s: no DETERMINISM record" % workload)
    return json.loads(record[0][len("DETERMINISM "):])


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise AssertionError("harness build failed")
        run.TRACE_DIR.mkdir(parents=True, exist_ok=True)

    def check(self, workload):
        first = harness(workload, 101)
        again = harness(workload, 101)
        other = harness(workload, 202)
        self.assertEqual(first, again, "same seed, different record")
        for key in EXACT[workload]:
            self.assertIn(key, first)
        self.assertNotEqual(first["sequence"], other["sequence"],
                            "different seeds gave the same request sequence")

    def test_hybrid_default(self):
        self.check("hybrid-default")

    def test_lu_fine(self):
        self.check("lu-fine")

    def test_serve_requests(self):
        self.check("serve-requests")

    def test_serve_batch(self):
        self.check("serve-batch")


if __name__ == "__main__":
    unittest.main()
