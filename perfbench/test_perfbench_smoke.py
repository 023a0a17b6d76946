"""Smoke test of the benchmark harness: one rollout, no solve.

Runs run.py from a temporary copy of the checkout, so the results log it
writes stays out of the repository, and checks that every metric
BENCHMARK.json names is printed with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=ignore)
    return tmp_path


def _run(cwd, trace):
    # --seconds 0: a single rollout
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rollouts",
         "--seed", "3", "--seconds", "0", "--trace", trace],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_every_metric_is_printed_with_its_unit(tmp_path):
    root = _checkout(tmp_path)
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run(root, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert (result["attempted"], result["failed"]) == (1, 0)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[group]}
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if trace == "0":
            assert all(v > 0 for v in metrics.values())
        else:
            # the layer self times account for the traced wall time
            assert metrics["simulation.steps"] > 0
            assert 0 <= metrics["trace.unattributed_s"] \
                < 0.05 * metrics["trace.op_s"]

