#!/usr/bin/env python3
"""The benchmark's own tests, on tiny sizes (run.py --smoke). Run from the repository root:

    python3 perfbench/selftest.py                  # about a minute
    python3 perfbench/selftest.py --record-goldens # rewrite goldens.json from this tree

The goldens are the SHA-256 of every artifact of the first invocations at the
default workload seed. Re-record them only in a change that means to alter the
program's artifacts, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from slumpgp import cli  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
GOLDEN_OPS = 2
COUNT_SUFFIXES = (".calls", ".node_rows", ".records", ".trees", ".vector_bytes",
                  ".rows", ".depth_reject_ratio")


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", *args]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return done.returncode, None


class SmokeRuns(unittest.TestCase):
    def assert_result(self, result, spec_metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec_metrics}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_untraced_reports_every_end_to_end_metric(self):
        for name in WORKLOAD_NAMES:
            with self.subTest(workload=name):
                code, result = run_bench("--smoke", "--workload", name, "--trace", "0")
                self.assertEqual(code, 0)
                self.assert_result(result, SPEC["end_to_end"])
                for metric in ("op_s", "op_cpu_s", "setup_s", "peak_rss_mb", "artifact_bytes"):
                    self.assertGreater(result["metrics"][metric]["value"], 0)

    def test_traced_counts_repeat_exactly(self):
        for name in WORKLOAD_NAMES:
            with self.subTest(workload=name):
                runs = [run_bench("--smoke", "--workload", name, "--trace", "1")
                        for _ in range(2)]
                for code, result in runs:
                    self.assertEqual(code, 0)
                    self.assert_result(result, SPEC["per_layer"])
                counts = [{k: v["value"] for k, v in r["metrics"].items()
                           if k.endswith(COUNT_SUFFIXES)} for _, r in runs]
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(counts[0]["expr.eval_matrix.calls"], 0)

    def test_fails_without_the_program(self):
        bare = ROOT / workloads.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, result = run_bench("--workload", "train", "--seed", "1", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


class Goldens(unittest.TestCase):
    def test_changed_artifact_is_a_failure(self):
        wl = workloads.Train(workloads.DEFAULT_SEED, True)
        self.assertTrue(wl._goldens, "goldens.json has no smoke entry for train")
        problems = wl.check(0, {"model.json": "0" * 64})
        self.assertIn("artifacts differ from the goldens of invocation 0", problems)

    def test_other_seeds_have_no_goldens(self):
        self.assertEqual(workloads.Train(7, True)._goldens, [])


class TracerTolerance(unittest.TestCase):
    def test_missing_and_uncalled_bindings_read_zero(self):
        fake = types.ModuleType("perfbench_fake_layer")
        fake.present = original = lambda x: x + 1
        sys.modules[fake.__name__] = fake
        try:
            tracer = Tracer(
                bindings=(
                    (fake.__name__, "present", "fake.present"),
                    (fake.__name__, "deleted", "fake.deleted"),
                    ("perfbench_no_such_module", "f", "fake.gone"),
                ),
                leaves=frozenset({"fake.present"}),
            )
            tracer.begin(0)
            with tracer.installed():
                self.assertEqual(fake.present(1), 2)
            totals = tracer.finish()
        finally:
            del sys.modules[fake.__name__]
        self.assertEqual(totals["fake.present.calls"], 1)
        self.assertNotIn("fake.deleted.calls", totals)
        self.assertEqual(
            tracer.missing,
            [f"{fake.__name__}.deleted", "perfbench_no_such_module.f"],
        )
        self.assertIs(fake.present, original)

    def test_self_time_excludes_wrapped_callees(self):
        fake = types.ModuleType("perfbench_fake_nest")
        fake.inner = lambda: sum(range(20000))
        fake.outer = lambda: fake.inner() + fake.inner()
        sys.modules[fake.__name__] = fake
        try:
            tracer = Tracer(
                bindings=((fake.__name__, "outer", "f.outer"), (fake.__name__, "inner", "f.inner")),
                leaves=frozenset({"f.inner"}),
            )
            tracer.begin(0)
            with tracer.installed():
                fake.outer()
            totals = tracer.finish()
        finally:
            del sys.modules[fake.__name__]
        self.assertEqual(totals["f.inner.calls"], 2)
        self.assertAlmostEqual(
            totals["f.outer.self_s"], totals["f.outer.s"] - totals["f.inner.s"], places=12
        )
        self.assertEqual(len(tracer.spans), 1)
        self.assertEqual(tracer.leaf_calls[(0, "f.inner")][0], 2)


def record_goldens() -> None:
    """Rewrite goldens.json with the artifacts of this tree at the default seed."""
    doc = {}
    for mode, smoke in (("full", False), ("smoke", True)):
        doc[mode] = {}
        for name in WORKLOAD_NAMES:
            wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, smoke)
            wl.setup()
            ops = []
            for i in range(GOLDEN_OPS):
                shutil.rmtree(workloads.OUT, ignore_errors=True)
                if cli.main(wl.argv(i)) != 0:
                    raise SystemExit(f"{mode} {name} invocation {i} failed")
                ops.append(workloads.artifact_hashes(workloads.OUT))
            doc[mode][name] = ops
            print(f"recorded {mode} {name}")
    workloads.GOLDENS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", "utf-8")


if __name__ == "__main__":
    os.chdir(ROOT)
    if sys.argv[1:] == ["--record-goldens"]:
        record_goldens()
    else:
        unittest.main()
