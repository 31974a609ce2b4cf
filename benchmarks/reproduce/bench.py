"""End-to-end benchmark of the reproduction, one workload per call.

Run from the repository root::

    python3 benchmarks/reproduce/bench.py --workload fullsys --seed 0
    python3 benchmarks/reproduce/bench.py --workload replay --seed 0 --trace 1

Workloads (see ``README.md`` for why each exists): ``fullsys`` (Figure 3
full-system grid), ``replay`` (fig6 + fig8 + fig9 + ptpol6 trace-driven
grids), ``tracegen`` (generate, record and read back all five traces)
and ``traced`` (traced runs plus attribution).

The inputs are generated in-process from ``--seed``, again before
every pass.  Untraced passes repeat until ``--seconds`` would be
exceeded (at least three, five on ``traced``); the end-to-end metrics
are their medians.  ``--trace 1`` runs as many pairs of an untraced and
a traced pass instead and reports the per-layer split.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``, exactly the
metrics ``BENCHMARK.json`` declares for the mode).  ``--out`` also
receives ``BENCH_reproduce_<workload>[_layers].json`` (readable by
``repro history ingest``), ``digests.json`` and ``spans.json``.

Exit status: 0 when every cell passed its checks; 1 when some failed
(the result line is still printed); 2 when the benchmark could not run,
with no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_FILE = ROOT / "BENCHMARK.json"

#: Scale of a ``--smoke`` run (one round, one set-up).
SMOKE_SCALE = 0.02


class BenchError(Exception):
    """The benchmark cannot run here; no result line is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fullsys", "replay", "tracegen", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring budget (default 20)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: report the per-layer split")
    parser.add_argument("--out", default=None,
                        help="output directory (default "
                             "benchmarks/reproduce/out/<workload>-seed<n>)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"scale {SMOKE_SCALE}, one round, one set-up")
    return parser.parse_args(argv)


def isolate(tmp: Path) -> None:
    """Pin everything the library reads from the environment.

    No cache, history or trace store outside ``tmp``; one BLAS thread.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update({
        "REPRO_REPLAY_ENGINE": "auto",
        "REPRO_TRACE_STORE": "0",
        "REPRO_TRACE_DIR": str(tmp / "traces"),
        "REPRO_CACHE_DIR": str(tmp / "cache"),
        "REPRO_HISTORY_DIR": str(tmp / "history"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "TMPDIR": str(tmp),
    })
    tempfile.tempdir = str(tmp)


def checkout_src() -> Path:
    """This checkout's ``src``; the benchmark builds nothing else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {src}")
    return src


def import_checkout(src: Path):
    """Import the harness against ``src``, never an installed copy."""
    sys.path[:0] = [str(src), str(HERE)]
    import harness
    import layers
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {src}")
    return harness, layers


def measure(harness, layers, args, tmp: Path):
    """Set up, run the passes, return (run, trace, calibration).

    Each round is a set-up burst and an untraced pass; with ``--trace
    1`` it adds a traced pass, which goes first in every other round so
    that pass order does not bias the ratio of the two.  Rounds repeat,
    at least the workload's ``min_passes`` of them (one with
    ``--smoke``), until the next one would take the passes past
    ``--seconds``.
    """
    workload = harness.WORKLOADS[args.workload]
    scale = SMOKE_SCALE if args.smoke else workload.scale
    least = 1 if args.smoke else workload.min_passes
    burst_s = 0.0 if args.smoke else harness.SETUP_BURST_S
    run = harness.Run(workload, args.seed, scale, tmp)
    trace = calibration = None
    order = [None]
    if args.trace:
        calibration = layers.calibrate()
        trace = layers.LayerTrace()
        order = [None, trace]
    measured = 0.0
    done = 0
    while True:
        run.set_up(burst_s)
        for layer_trace in order if done % 2 == 0 else order[::-1]:
            measured += run.one_pass(layer_trace).wall_s
        done += 1
        if done >= least and (
            args.smoke or measured * (done + 1) / done > args.seconds
        ):
            break
    return run, trace, calibration


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def report(args, declared: dict, harness, run, trace, calibration,
           out: Path) -> int:
    """Write the artifact, digests and spans; print the result line."""
    from repro.obs.bench import BenchArtifact

    fidelity = harness.fidelity_err_pp(run.results)
    context = {
        **fingerprint(), "workload": args.workload, "seed": args.seed,
        "scale": run.scale, "trace": args.trace,
        "passes": sum(not p.traced for p in run.passes),
        "traced_passes": sum(p.traced for p in run.passes),
        "setups": len(run.setup_s), "cells_per_pass": run.cells_per_pass,
        "tail_pct": run.tail_pct(), "cell_samples": len(run.cell_durations()),
        "attempted": run.attempted, "failed": run.failed,
    }
    spans = {"context": context, "spans": run.spans()}
    per_layer = {}
    if args.trace:
        untraced = [p.wall_s for p in run.passes if not p.traced]
        traced = [p.wall_s for p in run.passes if p.traced]
        per_layer, rows = trace.metrics(untraced, traced, *calibration)
        spans.update(
            calibration=dict(zip(("inner_ns", "outer_ns"), calibration)),
            layers=rows, entry_calls=trace.entry_calls(),
            boundaries=trace.boundary_rows(),
        )
    model = run.model_counts()
    if args.trace:
        # End-to-end numbers come from runs with no traced pass in them.
        wanted, reported = declared["per_layer"], {**per_layer, **model}
    else:
        wanted, reported = declared["end_to_end"], run.end_to_end()
    for metric in wanted:
        got = reported.get(metric["name"])
        if got is None or got[1] != metric["unit"]:
            print(f"error: {metric['name']} not reported in "
                  f"{metric['unit']!r} (got {got!r})", file=sys.stderr)
            return 2

    # Gated metrics carry their bound; the rest are informational.
    gates = {"failed_frac": (run.failed / run.attempted, "fraction")}
    if fidelity is not None:
        gates["fidelity_err_pp"] = (fidelity, "pp")
    declared_by_name = {m["name"]: m for m in
                        declared["end_to_end"] + declared["per_layer"]}
    artifact = BenchArtifact(
        name=f"reproduce_{args.workload}{'_layers' if args.trace else ''}",
        context=context,
    )
    for name, (value, unit) in {**reported, **model, **gates}.items():
        metric = declared_by_name.get(name, {})
        artifact.add(name, value, unit=unit,
                     direction=metric.get("better", "lower"),
                     tolerance=0.0 if name in gates else metric.get("bound"))
    out.mkdir(parents=True, exist_ok=True)
    artifact.write(out)
    (out / "digests.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": run.scale,
        "cells": run.reference,
        "model": {name: value for name, (value, _) in model.items()},
        "fidelity_err_pp": fidelity,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (out / "spans.json").write_text(
        json.dumps(spans, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(f"{args.workload} seed {args.seed} scale {run.scale}: "
          f"{context['passes']} untraced + {context['traced_passes']} traced "
          f"passes, {run.cells_per_pass} cells/pass, cell tail = "
          f"p{context['tail_pct']} of {context['cell_samples']} samples, "
          f"failed {run.failed}/{run.attempted}"
          + (f", fidelity_err_pp {fidelity:.3f}" if fidelity is not None
             else ""))
    for name, (value, unit) in reported.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": reported[m["name"]][0],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if run.failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        declared = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
        suffix = "-trace" if args.trace else ""
        out = Path(args.out) if args.out else (
            HERE / "out" / f"{args.workload}-seed{args.seed}{suffix}"
        )
        tmp = out / "tmp"
        src = checkout_src()
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        isolate(tmp)
        harness, layers = import_checkout(src)
        try:
            run, trace, calibration = measure(harness, layers, args, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except (BenchError, OSError, ValueError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return report(args, declared, harness, run, trace, calibration, out)


if __name__ == "__main__":
    sys.exit(main())
