"""Compare two sets of benchmark runs, one row per (workload, metric).

Run from the repository root::

    python3 benchmarks/reproduce/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``--out`` directories of several ``bench.py``
runs, at any depth.  Runs are paired in path order, so name the i-th
run of both sides alike (``runs/parent/03``, ``runs/change/03``) and
make them one after the other, alternating which side goes first.

Verdicts, with each metric's bound as its artifact records it (the
``BENCHMARK.json`` bound; 0 for ``failed_frac`` and ``fidelity_err_pp``):

* ``improved``: at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither), and the medians differ by more than
  the parent's interquartile range;
* ``unresolved``: the runs of either side spread (IQR / median) wider
  than the bound, unless every change run reads better than every
  parent run;
* ``worse``: the change's median is worse than the parent's by more
  than the bound;
* ``same``: otherwise.  Metrics without a bound are ``worse`` only by
  the mirror of the ``improved`` rule.

A metric with bound 0 may not worsen at all, so it is ``worse`` as soon
as the change's worst run is worse than the parent's worst run; one
failing run in ten cannot hide behind a median of 0.  Such a ``worse``
(more failed cells, or a changed ``fidelity_err_pp``) withholds every
``improved`` of the comparison: those rows read ``unresolved``, since a
gain does not count while the change fails more than the parent.

The digest line says whether both sides simulated identical results
(``digests.json`` of runs with the same workload, seed and scale).
Exit status 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def quartiles(values: List[float]) -> Tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: Optional[float]) -> str:
    """improved / same / worse / unresolved for one metric (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    if bound == 0 and min(sign * c for c in change) < min(
        sign * p for p in parent
    ):
        return "worse"
    q1, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - statistics.median(parent))
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    decisive = len(pairs) >= 10 and abs(gain) > q3 - q1
    if decisive and gain > 0 and wins >= 0.9 * len(pairs):
        return "improved"
    if bound is None:
        if decisive and gain < 0 and losses >= 0.9 * len(pairs):
            return "worse"
        return "same"
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "same"
    for side in (parent, change):
        lo, hi = quartiles(side)
        median = statistics.median(side)
        if median and (hi - lo) / abs(median) > bound:
            return "unresolved"
    if -gain > bound * abs(statistics.median(parent)):
        return "worse"
    return "same"


def judge(parent: dict, change: dict) -> Dict[Tuple[str, str], str]:
    """The verdict of every (artifact, metric) both sets hold.

    Both map a key to ``([value per run], better, bound)``, as
    :func:`load_set` returns them.  A ``worse`` on a bound-0 metric
    turns every ``improved`` into ``unresolved`` (see module doc).
    """
    verdicts = {
        key: verdict(parent[key][0], change[key][0], *parent[key][1:])
        for key in sorted(set(parent) & set(change))
    }
    if any(result == "worse" and parent[key][2] == 0
           for key, result in verdicts.items()):
        verdicts = {key: "unresolved" if result == "improved" else result
                    for key, result in verdicts.items()}
    return verdicts


def load_set(directory: Path):
    """(values, digests) of one set of runs.

    ``values`` maps (artifact, metric) to ([value per run], better,
    bound); ``digests`` maps (workload, seed, scale) to the distinct
    cell digests.
    """
    from repro.obs.bench import read_artifact

    values: Dict[Tuple[str, str], tuple] = {}
    for path in sorted(directory.rglob("BENCH_reproduce_*.json")):
        artifact = read_artifact(path)
        for name, metric in artifact.metrics.items():
            series, _, _ = values.setdefault(
                (artifact.name, name),
                ([], metric.direction, metric.tolerance),
            )
            series.append(metric.value)
    digests: Dict[tuple, set] = {}
    for path in sorted(directory.rglob("digests.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        key = (data["workload"], data["seed"], data["scale"])
        digests.setdefault(key, set()).add(
            json.dumps(data["cells"], sort_keys=True)
        )
    return values, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    parent, parent_digests = load_set(args.parent)
    change, change_digests = load_set(args.change)
    verdicts = judge(parent, change)
    print(f"{'artifact':26s} {'metric':26s} "
          f"{'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} "
          f"{'delta':>8s} {'wins':>6s}  verdict")
    for key, result in verdicts.items():
        artifact, name = key
        (a, better, _), (b, _, _) = parent[key], change[key]
        pairs = list(zip(a, b))
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        base = statistics.median(a)
        delta = (statistics.median(b) - base) / abs(base) if base else 0.0
        print(f"{artifact:26s} {name:26s} "
              f"{_summary(a):>32s} {_summary(b):>32s} "
              f"{delta:+8.1%} {wins:>3d}/{len(pairs):<2d}  {result}")
    for key in sorted(set(parent_digests) & set(change_digests)):
        same = len(parent_digests[key] | change_digests[key]) == 1
        workload, seed, scale = key
        print(f"digests {workload} seed {seed} scale {scale}: "
              f"{'identical' if same else 'DIFFER'}")
    return 1 if "worse" in verdicts.values() else 0


def _summary(values: List[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


if __name__ == "__main__":
    sys.exit(main())
