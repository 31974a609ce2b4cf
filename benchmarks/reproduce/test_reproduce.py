"""Tests of the end-to-end benchmark: ``pytest benchmarks/reproduce``.

Every benchmark run is a subprocess at ``--smoke`` scale, as the
benchmark is meant to be run: one workload per process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import layers  # noqa: E402


def _bench(args, cwd=ROOT, code=None, script=HERE / "bench.py"):
    """(returncode, parsed last stdout line or None, stderr)."""
    command = [sys.executable]
    command += ["-c", code] if code else [str(script)]
    proc = subprocess.run(command + args, cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr


#: At smoke scale, seed 1 is one whose fullsys grid writes to a
#: replicated page, so the collapse boundary is reached too.
SMOKE_SEED = "1"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace, tmp_path):
    code, result, stderr = _bench([
        "--workload", workload, "--seed", SMOKE_SEED, "--smoke",
        "--trace", str(trace), "--out", str(tmp_path),
    ])
    assert code == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert (tmp_path / "digests.json").is_file()
    if trace:
        calls = json.loads((tmp_path / "spans.json").read_text())[
            "entry_calls"]
        missed = [entry for entry, _, home in layers.BOUNDARIES
                  if home == workload and calls[entry] == 0]
        assert not missed, f"boundaries never reached: {missed}"


def test_raising_cell_counts_as_failed(tmp_path):
    inject = f"""
import sys
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]
from repro.sim.simulator import SystemSimulator
run = SystemSimulator.run
def flaky(self, trace=None):
    if self.spec.name == "database" and not self.options.dynamic:
        raise RuntimeError("injected")
    return run(self, trace)
SystemSimulator.run = flaky
import bench
sys.exit(bench.main(sys.argv[1:]))
"""
    code, result, stderr = _bench(
        ["--workload", "fullsys", "--seed", "0", "--smoke",
         "--out", str(tmp_path)], code=inject,
    )
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 8
    assert "FAILED system:database:ft: RuntimeError: injected" in stderr
    assert "Traceback" not in stderr


def test_bare_checkout_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    copy = tmp_path / "benchmarks" / "reproduce"
    shutil.copytree(HERE, copy,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result, stderr = _bench(
        ["--workload", "fullsys", "--seed", "0", "--smoke"],
        cwd=tmp_path, script=copy / "bench.py",
    )
    assert code != 0 and result is None
    assert "no repro package" in stderr


@pytest.mark.parametrize("parent, change, better, bound, want", [
    ([10.0 + 0.01 * i for i in range(10)],
     [9.0 + 0.01 * i for i in range(10)], "lower", 0.1, "improved"),
    ([10.0 + 0.01 * i for i in range(10)],
     [12.0 + 0.01 * i for i in range(10)], "lower", 0.1, "worse"),
    ([10.0 + 0.01 * i for i in range(10)],
     [10.2 + 0.01 * i for i in range(10)], "lower", 0.1, "same"),
    ([10.0, 13.0] * 5, [10.5, 12.5] * 5, "lower", 0.1, "unresolved"),
    ([100.0 + i for i in range(10)], [50.0 + i for i in range(10)],
     "higher", None, "worse"),
    # failed_frac: one failing run in ten leaves the median at 0.
    ([0.0] * 10, [0.0] * 9 + [0.125], "lower", 0.0, "worse"),
    ([0.0] * 10, [0.0] * 10, "lower", 0.0, "same"),
])
def test_compare_verdicts(parent, change, better, bound, want):
    assert compare.verdict(parent, change, better, bound) == want


def test_more_failures_withhold_every_improvement():
    faster = [9.0 + 0.01 * i for i in range(10)]
    parent = {
        ("reproduce_fullsys", "wall_s"):
            ([10.0 + 0.01 * i for i in range(10)], "lower", 0.1),
        ("reproduce_fullsys", "failed_frac"): ([0.0] * 10, "lower", 0.0),
    }
    change = {
        ("reproduce_fullsys", "wall_s"): (faster, "lower", 0.1),
        ("reproduce_fullsys", "failed_frac"): ([0.0] * 10, "lower", 0.0),
    }
    verdicts = compare.judge(parent, change)
    assert verdicts[("reproduce_fullsys", "wall_s")] == "improved"
    change[("reproduce_fullsys", "failed_frac")] = (
        [0.0] * 9 + [0.125], "lower", 0.0)
    verdicts = compare.judge(parent, change)
    assert verdicts == {
        ("reproduce_fullsys", "wall_s"): "unresolved",
        ("reproduce_fullsys", "failed_frac"): "worse",
    }
