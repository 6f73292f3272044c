"""Smoke test of the benchmark runner at a tiny corpus size.

Run from the repository root:

    python3 -m unittest perfbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from types import SimpleNamespace
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

# per-workload names of the human-readable end-to-end lines
HUMAN = {
    "random": ["germs_per_s 1/s", "germ_ms_p50 ms"],
    "sheared": ["germs_per_s 1/s", "germ_ms_p50 ms"],
    "oracle": ["crosschecks_per_s 1/s", "crosscheck_ms_p50 ms"],
}
COMMON = ["fail_share ratio", "peak_rss_mb MB", "setup_s s"]


def tiny_run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def named_units(lines: list[str]) -> set[str]:
    """'name unit' of each 'name value unit' line."""
    out = set()
    for line in lines:
        parts = line.split()
        if len(parts) == 3:
            out.add(f"{parts[0]} {parts[2]}")
    return out


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result: dict, specs: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        for spec in specs:
            got = result["metrics"].get(spec["name"])
            self.assertIsNotNone(got, spec["name"])
            self.assertEqual(got["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_every_workload_reports_every_metric(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name, trace=0):
                lines, result = tiny_run(name, 0)
                self.assertTrue(result["correct"])
                self.check_metrics(result, BENCH["end_to_end"])
                self.assertLessEqual(set(HUMAN[name] + COMMON),
                                     named_units(lines))
            with self.subTest(workload=name, trace=1):
                lines, result = tiny_run(name, 1)
                self.assertTrue(result["correct"])
                self.check_metrics(result, BENCH["per_layer"])
                self.assertFalse(any(ln.startswith("absent:") for ln in lines))

    def tiny_in_process(self, workload: str) -> tuple[dict, float]:
        """An untraced tiny run in this process: the result and fail_share."""
        args = run.parse_args(["--workload", workload, "--seed", "3",
                               "--seconds", "1", "--tiny"])
        with contextlib.redirect_stdout(io.StringIO()) as out:
            result = run.run(args)
        share = [ln for ln in out.getvalue().splitlines()
                 if ln.startswith("fail_share ")]
        self.assertEqual(len(share), 1)
        return result, float(share[0].split()[1])

    def test_wrong_reference_counts_as_failure(self):
        terms, (lo, hi) = corpus.REFERENCE_GERMS[0]
        saved = list(corpus.REFERENCE_GERMS)
        corpus.REFERENCE_GERMS[0] = (terms, (lo, hi + 1))
        try:
            result, share = self.tiny_in_process("random")
        finally:
            corpus.REFERENCE_GERMS[:] = saved
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(share, 0)

    def test_resource_error_is_wrong(self):
        """A germ that gives up instead of answering fails the gate."""
        germinv = run.load_germinv()

        def give_up(f):
            raise germinv.TruncationTooSmallError("stub")

        for workload in ("random", "sheared"):
            with self.subTest(workload=workload), \
                    mock.patch.object(germinv, "analyze_germ", give_up):
                result, share = self.tiny_in_process(workload)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertEqual(share, 1)

    def test_oracle_failure_outside_known_defect_is_wrong(self):
        w = run.OracleWorkload(3, tiny=False)
        w.analyses = [SimpleNamespace(invariant=SimpleNamespace(
            lo=inv[0], hi=inv[1])) if inv else SimpleNamespace(
                invariant=SimpleNamespace(lo=0, hi=0)) for inv in w.expected]
        listed = w.defect.index(True)
        unlisted = next(k for k, (inv, d) in
                        enumerate(zip(w.expected, w.defect))
                        if inv is None and not d)
        missed = "path count 4 != 8 half-branches"
        cases = [
            (listed, [missed], False),
            (listed, [missed, "psi: r2 0.9 < 0.999"], True),
            (listed, ["path count 9 != 8 half-branches"], True),
            (unlisted, [missed], True),
            (0, [missed], True),
        ]
        for k, failures, wrong in cases:
            with self.subTest(germ=w.texts[k], failures=failures):
                results = [SimpleNamespace(failures=[])] * len(w.texts)
                results[k] = SimpleNamespace(failures=failures)
                verdicts = w.check(results)
                self.assertEqual(verdicts[k], ("; ".join(failures), wrong))
                self.assertEqual(sum(v is not None for v in verdicts), 1)
        raised = [SimpleNamespace(failures=[])] * len(w.texts)
        raised[listed] = run.OpError(
            run.load_germinv().PathCountUnstableError("stub", 0.5))
        self.assertTrue(w.check(raised)[listed][1])

    def test_missing_layer_function_is_absent(self):
        run.load_germinv()
        tracer = Tracer()
        tracer.wrap("germinv.puiseux.HalfBranch.no_such_method", "gone.method")
        tracer.wrap("germinv.no_such_module.fn", "gone.module")
        self.assertEqual(tracer.absent, {"gone.method", "gone.module"})
        tracer.unwrap_all()

    def test_missing_program_exits_without_result(self):
        """In a tree holding only BENCHMARK.json and perfbench/, no result."""
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "random",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
