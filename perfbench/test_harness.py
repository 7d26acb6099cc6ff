"""Self-check of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench

Runs every workload run.py offers, declared in BENCHMARK.json or not,
once per trace mode with `--tiny`, and checks that each metric
BENCHMARK.json declares is printed by name with its unit, both in the
lines a reader sees and in the final JSON object. Not part of the
package's test suite: the suite's `testpaths` is `tests/`.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LINE = re.compile(r"^([A-Za-z0-9][\w.\-]*)\s+(\S+)\s+([\w/%.\-]+)(\s|$)")
# Printed for a reader but not declared: a tail percentile exists only on
# workloads with enough ops, and failed ops are already in `failed`.
EXTRA_END_TO_END = {"op_tail_s": "s", "failed_frac": "ratio"}


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))

    printed = {m.group(1): m.group(3) for m in map(LINE.match, lines[:-1]) if m}
    expected = dict(declared, **({} if trace else EXTRA_END_TO_END))
    assert {k: printed.get(k) for k in expected} == expected


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, no result is printed."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
