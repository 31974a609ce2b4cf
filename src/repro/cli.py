"""Command-line interface to the reproduction.

The subcommands cover the common flows:

* ``repro workloads`` — list the five workloads and their structure;
* ``repro run`` — a full-system run (Section 7 methodology): one workload,
  one machine, FT or the dynamic policy, summary to stdout;
* ``repro tracesim`` — the contentionless trace-driven comparison
  (Section 8 methodology) across the six policies or the four metrics;
* ``repro ptsim`` — the page-table placement comparison
  (``docs/PTPOLICY.md``): PT-FT, PT-Migr, PT-Repl and CoPlace replayed
  under the TLB-walk model, with end-to-end event reconciliation;
* ``repro chains`` — Figure 4's read-chain analysis for one workload;
* ``repro analyze`` — the one reader of a ``--trace-out`` JSONL log:
  summary, schema check, per-page lifecycle and decision timeline,
  per-node and per-interval tables, the per-decision payoff ledger,
  Chrome trace export, and ``analyze diff A B`` run comparison
  (``docs/OBSERVABILITY.md``);
* ``repro sweep`` — run a grid of experiments in parallel through the
  content-addressed result cache (``docs/SWEEPS.md``);
* ``repro figures`` — regenerate figure tables from (cached) sweeps;
* ``repro trace`` — manage the record-once/replay-many trace store
  (``docs/TRACESTORE.md``): ``record``, ``info``, ``verify``,
  ``replay``;
* ``repro history`` — the longitudinal run-history store: ``ingest``
  artifacts, ``list`` runs, ``verify`` the database
  (``docs/OBSERVABILITY.md``);
* ``repro report`` — static HTML dashboard + JSON summary over the
  history store.

Examples::

    repro workloads
    repro run --workload engineering --scale 0.25
    repro run --workload engineering --machine ccnow --tracked-flush
    repro run --workload splash --trace-out run.jsonl --metrics-out m.json
    repro tracesim --workload raytrace --scale 0.25 --metrics
    repro ptsim --workload database --scale 0.1 --trace-out pt.jsonl
    repro chains --workload database --scale 0.25
    repro analyze run.jsonl --page 512
    repro analyze run.jsonl --check
    repro tracesim --workload engineering --trace-out mr.jsonl --trace-misses
    repro analyze mr.jsonl --ledger
    repro analyze diff run-a.jsonl run-b.jsonl
    repro sweep --grid fig9 --jobs 4 --scale 0.25
    repro figures --figure fig9 --jobs 4
    repro trace record --scale 0.25
    repro trace verify --scale 0.25
    repro trace replay --workload engineering --scale 0.25
    repro bench --quick --ingest --compare-history
    repro history ingest 'benchmarks/results/BENCH_*.json'
    repro history list --kind bench
    repro history verify
    repro report --out report.html --json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.analysis.readchains import DEFAULT_THRESHOLDS, chain_survival
from repro.analysis.tables import format_table
from repro.common.errors import ConfigurationError, TraceError
from repro.exp.cache import ResultCache
from repro.exp.figures import FIGURE_ARTIFACTS, FIGURE_TABLES, timing_summary
from repro.exp.runner import (
    SweepOutcome,
    SweepReport,
    SweepRunner,
    execute_spec,
)
from repro.exp.spec import (
    BASELINE_POLICIES,
    FIG6_POLICIES,
    METRIC_LABELS,
    NAMED_GRIDS,
    PT_TRACE_POLICIES,
    SYSTEM_POLICIES,
    ExperimentSpec,
    params_for,
    sweep,
)
from repro.obs.attrib import (
    Attribution,
    diff_attributions,
    expected_from_policysim,
    expected_from_ptpol,
    expected_from_system,
    format_diff,
    format_intervals,
    format_ledger,
    format_nodes,
    format_page,
    format_summary,
    format_top_pages,
    sweep_attribution,
)
from repro.obs.events import ALL_KINDS, MissServiced
from repro.obs.export import (
    JsonlSink,
    iter_events,
    write_chrome_trace,
)
from repro.obs.tracer import Tracer
from repro.policy.parameters import PolicyParameters
from repro.ptpol import PtTally, reconcile_events
from repro.trace.policysim import PolicySimConfig, TracePolicySimulator
from repro.trace.record import Trace
from repro.workloads import (
    WORKLOAD_NAMES,
    build_spec,
    load_workload,
    record_workload,
)


def cmd_workloads(args: argparse.Namespace) -> int:
    rows = []
    for name in WORKLOAD_NAMES:
        spec, trace = load_workload(name, scale=args.scale, seed=args.seed)
        d = spec.describe()
        rows.append(
            [name, d["processes"], d["cpus"], d["memory_mb"],
             len(trace), trace.total_misses]
        )
    print(
        format_table(
            f"Workloads (scale {args.scale})",
            ["Name", "Procs", "CPUs", "MB", "Records", "Misses"],
            rows,
        )
    )
    return 0


def _run_profiled(args: argparse.Namespace) -> int:
    """Run the command with every layer boundary timed (``--profile-out``).

    The command's :func:`_write_profile` call reads the installed trace
    from ``args.layer_profile``; the wrappers come off when it returns.
    """
    from repro.obs.layers import LayerTrace, calibrate

    calibration = calibrate()
    with LayerTrace() as trace:
        args.layer_profile = (trace, calibration, time.perf_counter_ns())
        return args.func(args)


def _write_profile(
    args: argparse.Namespace,
    label: str,
    metrics=None,
    context=None,
) -> None:
    """Persist a :class:`RunReport` for ``--profile-out`` and say so."""
    if not getattr(args, "layer_profile", None):
        return
    from repro.obs.prof import RunReport

    trace, calibration, start_ns = args.layer_profile
    wall_ns = time.perf_counter_ns() - start_ns
    layers = trace.rows([wall_ns / 1e9], *calibration)
    report = RunReport.capture(
        label,
        wall_ns,
        layers,
        command=" ".join(sys.argv[1:]) or args.command,
        metrics=metrics,
        context=context,
    )
    with open(args.profile_out, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    ranked = sorted(
        (name for name, row in layers.items()
         if row["calls"] or name == "other"),
        key=lambda name: -layers[name]["share"],
    )
    print()
    print(
        format_table(
            f"Layer profile: {label} ({wall_ns / 1e9:.2f} s wall)",
            ["Layer", "Calls", "Self (s)", "Share"],
            [[name, int(layers[name]["calls"]), layers[name]["self_s"],
              f"{layers[name]['share']:.1%}"] for name in ranked],
            float_format="{:.3f}",
        )
    )
    print(f"wrote profile ({len(layers)} layers) to {args.profile_out}")


def _window_ns(args: argparse.Namespace):
    """(since_ns, until_ns) from the --since/--until millisecond flags."""
    since = getattr(args, "since", None)
    until = getattr(args, "until", None)
    return (
        int(since * 1e6) if since is not None else None,
        int(until * 1e6) if until is not None else None,
    )


def _reconcile_trace(path: str, expected: dict) -> Attribution:
    """Re-attribute a just-written log and enforce conservation.

    Streams the log back through :class:`Attribution` and checks the
    attributed totals against the run's recorded result.  Raises
    :class:`~repro.common.errors.TraceError` listing every mismatch —
    a conservation failure means the log and the result disagree, which
    must never pass silently.
    """
    attrib = Attribution.from_events(iter_events(path))
    errors = attrib.reconcile(expected)
    if errors:
        raise TraceError(
            "attribution conservation failed for "
            + path
            + ": "
            + "; ".join(errors)
        )
    return attrib


def _attrib_metrics(attrib: Attribution) -> dict:
    """Aggregated attribution as ``attrib.*`` RunReport metrics."""
    return {
        "attrib.events": attrib.events,
        "attrib.pages": len(attrib.pages),
        "attrib.stall_ns": attrib.stall_ns,
        "attrib.local_stall_ns": attrib.local_stall_ns,
        "attrib.action_cost_ns": attrib.action_cost_ns,
        "attrib.shootdown_cost_ns": attrib.shootdown_cost_ns,
        "attrib.decisions": attrib.decisions,
        "attrib.regrets": len(attrib.regrets),
    }


def _make_tracer(
    path: Optional[str], include_misses: bool
) -> Optional[Tracer]:
    """A tracer streaming to ``path`` (``None`` when there is no path).

    Per-miss events are opt-in: a full-scale run services millions of
    misses and the decision stream is what ``repro analyze`` needs.
    """
    if not path:
        return None
    kinds = None if include_misses else ALL_KINDS - {MissServiced.KIND}
    return Tracer(sinks=[JsonlSink(path)], kinds=kinds)


def _cell(args: argparse.Namespace, workload: str, **fields) -> ExperimentSpec:
    """One of a command's cells, at the command's scale and seed."""
    return ExperimentSpec(workload, scale=args.scale, seed=args.seed, **fields)


def _run_cells(
    args: argparse.Namespace,
    specs: List[ExperimentSpec],
    traced: Optional[ExperimentSpec] = None,
    tracer: Optional[Tracer] = None,
) -> list:
    """Run a command's cells through ``execute_spec``, in spec order.

    A plain command serves its cells from the result cache and runs the
    rest under ``--jobs`` workers.  A ``--trace-out`` or
    ``--profile-out`` command inspects one execution, so every cell runs
    fresh in this process; ``traced`` runs with ``tracer``, which is
    closed after it.  A failed cell runs once more here, so its own
    exception reaches :func:`main` (a ``ConfigurationError`` exits 2).
    """
    fresh = tracer is not None or getattr(args, "layer_profile", None)
    runner = SweepRunner(
        cache=None if fresh else ResultCache(),
        jobs=1 if fresh else getattr(args, "jobs", 1),
        retries=0,
    )
    results = {}
    if tracer is not None:
        try:
            results[traced] = execute_spec(traced, tracer=tracer)
        finally:
            tracer.close()
    report = runner.run([spec for spec in specs if spec not in results])
    for outcome in report.outcomes:
        results[outcome.spec] = (
            outcome.result if outcome.ok else execute_spec(outcome.spec)
        )
    return [results[spec] for spec in specs]


def cmd_run(args: argparse.Namespace) -> int:
    ft_policy, mr_policy = SYSTEM_POLICIES
    common = dict(
        machine=args.machine, trigger=args.trigger,
        shootdown="tracked" if args.tracked_flush else "all",
    )
    # A static run ignores the adaptive trigger and hotspot migration,
    # so the FT leg is the plain FT cell (and its cache entry).
    ft_spec = _cell(args, args.workload, policy=ft_policy, **common)
    mr_spec = _cell(
        args, args.workload, policy=mr_policy,
        adaptive=args.adaptive, hotspot=args.hotspot, **common,
    )
    # Tracing covers the dynamic (Mig/Rep) run — the one that makes
    # decisions; the FT baseline has no decision stream to record.
    tracer = _make_tracer(args.trace_out, args.trace_misses)
    ft, mr = _run_cells(args, [ft_spec, mr_spec], mr_spec, tracer)
    attrib = None
    rows = []
    for label, r in (("FT", ft), ("Mig/Rep", mr)):
        rows.append(
            [label, r.local_miss_fraction * 100, r.stall.total_ns / 1e9,
             r.kernel_overhead_ns / 1e9, r.execution_time_ns / 1e9]
        )
    print(
        format_table(
            f"{args.workload} on {args.machine} (scale {args.scale})",
            ["Policy", "Local %", "Stall (s)", "Overhead (s)", "Exec (s)"],
            rows,
        )
    )
    tally = mr.tally
    print(
        f"\nstall reduction {mr.stall_reduction_over(ft):.1f}%, execution "
        f"improvement {mr.improvement_over(ft):.1f}%"
    )
    print(
        f"hot pages {tally.hot_pages}: {tally.migrated} migrated, "
        f"{tally.replicated} replicated, {tally.no_action} no action, "
        f"{tally.no_page} no page"
    )
    if args.adaptive and "policy.adaptive.trigger" in mr.metrics:
        print("adaptive trigger settled at "
              f"{mr.metrics['policy.adaptive.trigger']:.0f}")
    if tracer is not None:
        print(f"wrote {tracer.emitted} events to {args.trace_out}")
        try:
            attrib = _reconcile_trace(args.trace_out, expected_from_system(mr))
        except TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(
            f"attribution reconciled: {attrib.events} events over "
            f"{len(attrib.pages)} pages, {len(attrib.intervals)} intervals"
        )
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(mr.metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(mr.metrics)} metrics to {args.metrics_out}")
    _write_profile(
        args, f"run/{args.workload}",
        metrics=_attrib_metrics(attrib) if attrib is not None else None,
        context={"workload": args.workload, "scale": args.scale,
                 "seed": args.seed, "machine": args.machine},
    )
    return 0


def cmd_tracesim(args: argparse.Namespace) -> int:
    if args.metrics and args.competitive:
        raise ConfigurationError(
            "--competitive adds a policy row; it does not combine with "
            "--metrics"
        )

    def cell(**fields) -> ExperimentSpec:
        return _cell(
            args, args.workload, kind="trace", trigger=args.trigger,
            kernel_trace=args.kernel, **fields,
        )

    if args.metrics:
        specs = [cell(metric=metric) for metric in METRIC_LABELS]
        title = f"{args.workload}: information sources (Figure 8 methodology)"
    else:
        policies = FIG6_POLICIES + (BASELINE_POLICIES if args.competitive
                                    else ())
        specs = [cell(policy=policy) for policy in policies]
        title = f"{args.workload}: six policies (Figure 6 methodology)"
    # The traced simulator records only the flagship run (the full-cache
    # Mig/Rep policy) so one log holds one coherent decision stream.
    traced = cell(policy="migrep")
    tracer = _make_tracer(args.trace_out, args.trace_misses)
    results = _run_cells(args, specs, traced, tracer)
    rows = [
        # Every information-source run is labelled Mig/Rep; name the row
        # after its metric.
        [spec.metric if args.metrics else r.label, r.local_fraction * 100,
         r.stall_ns / 1e9, r.overhead_ns / 1e9,
         r.migrations + r.replications + r.collapses]
        for spec, r in zip(specs, results)
    ]
    print(
        format_table(
            title,
            ["Policy", "Local %", "Stall (s)", "Overhead (s)", "Ops"],
            rows,
        )
    )
    attrib = None
    if tracer is not None:
        print(f"wrote {tracer.emitted} events to {args.trace_out}")
        try:
            attrib = _reconcile_trace(
                args.trace_out,
                expected_from_policysim(results[specs.index(traced)]),
            )
        except TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(
            f"attribution reconciled: {attrib.events} events over "
            f"{len(attrib.pages)} pages, "
            f"{len(attrib.intervals)} intervals"
        )
    _write_profile(
        args, f"tracesim/{args.workload}",
        metrics=_attrib_metrics(attrib) if attrib is not None else None,
        context={"workload": args.workload, "scale": args.scale,
                 "seed": args.seed},
    )
    return 0


def cmd_ptsim(args: argparse.Namespace) -> int:
    """Page-table policy comparison (the repro.ptpol subsystem)."""
    specs = [
        _cell(args, args.workload, kind="trace", policy=policy,
              trigger=args.trigger)
        for policy in PT_TRACE_POLICIES
    ]
    # The traced run is the flagship CoPlace leg; walk reconciliation
    # needs the per-miss stream, so misses are always recorded.
    traced = specs[PT_TRACE_POLICIES.index("coplace")]
    tracer = _make_tracer(args.trace_out, include_misses=True)
    results = _run_cells(args, specs, traced, tracer)
    rows = []
    for r in results:
        walks = r.extra.get("pt_walks", 0.0)
        local_walks = r.extra.get("pt_local_walks", 0.0)
        rows.append(
            [
                r.label,
                r.local_fraction * 100,
                (local_walks / walks * 100) if walks else 0.0,
                r.stall_ns / 1e9,
                r.overhead_ns / 1e9,
                int(r.extra.get("pt_replications", 0.0)),
                int(r.extra.get("thread_migrations", 0.0)),
            ]
        )
    print(
        format_table(
            f"{args.workload}: page-table policies (walk stall included)",
            ["Policy", "Local %", "Walk local %", "Stall (s)",
             "Overhead (s)", "PT repl", "Thr migr"],
            rows,
        )
    )
    attrib = None
    if tracer is not None:
        result = results[specs.index(traced)]
        print(f"wrote {tracer.emitted} events to {args.trace_out}")
        try:
            attrib = _reconcile_trace(
                args.trace_out, expected_from_ptpol(result)
            )
        except TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        extra = result.extra
        tally = PtTally(
            walks=int(extra["pt_walks"]),
            local_walks=int(extra["pt_local_walks"]),
            pt_replications=int(extra["pt_replications"]),
            thread_migrations=int(extra["thread_migrations"]),
        )
        errors = reconcile_events(tally, iter_events(args.trace_out))
        if errors:
            print(
                "error: ptpol tally reconciliation failed for "
                + args.trace_out + ": " + "; ".join(errors),
                file=sys.stderr,
            )
            return 1
        print(
            f"ptpol reconciled: {attrib.events} events, "
            f"{attrib.pt_walks} walks ({tally.local_walk_fraction:.1%} "
            f"local), {attrib.pt_replications} PT replications, "
            f"{attrib.thread_migrations} thread migrations"
        )
    _write_profile(
        args, f"ptsim/{args.workload}",
        metrics=_attrib_metrics(attrib) if attrib is not None else None,
        context={"workload": args.workload, "scale": args.scale,
                 "seed": args.seed},
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Quick reproduction smoke test: the headline claims, pass/fail."""
    checks = []

    def check(name, ok, detail):
        checks.append((name, "PASS" if ok else "FAIL", detail))
        return ok

    eng_ft, eng_mr, db_ft, db_mr, fc, sc = _run_cells(args, [
        *(_cell(args, workload, policy=policy)
          for workload in ("engineering", "database")
          for policy in SYSTEM_POLICIES),
        *(_cell(args, "raytrace", kind="trace", metric=metric)
          for metric in ("FC", "SC")),
    ])
    red = eng_mr.stall_reduction_over(eng_ft)
    check("engineering stall reduction (paper 52%)", red > 30,
          f"{red:.1f}%")
    check("engineering uses both mechanisms",
          eng_mr.tally.migrated > 0 and eng_mr.tally.replicated > 0,
          f"{eng_mr.tally.migrated} migr / {eng_mr.tally.replicated} repl")

    pct = db_mr.tally.percentages()
    check("database robustness (paper: 85% no action)",
          pct["% No Action"] > 50 and
          db_mr.execution_time_ns < db_ft.execution_time_ns * 1.05,
          f"{pct['% No Action']:.0f}% no action")

    check("sampled cache matches full cache (paper: identical)",
          abs(fc.local_fraction - sc.local_fraction) < 0.08,
          f"FC {fc.local_fraction:.1%} vs SC {sc.local_fraction:.1%}")

    print(format_table(
        f"Reproduction smoke test (scale {args.scale})",
        ["Check", "Verdict", "Measured"],
        checks,
    ))
    return 0 if all(v == "PASS" for _, v, _ in checks) else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    """Read one event log: attribute stall, audit payoff, or diff two runs.

    Exit codes follow ``diff``'s convention in diff mode: 0 when the
    runs are identical at page granularity, 1 when they diverge, 2 on a
    usage or read error.  ``--check`` exits 0 only for a non-empty log
    whose every line parses.  ``--page`` and ``--chrome`` stream the log
    a second time for the per-event timeline, so the default views hold
    nothing but the attribution in memory.
    """
    since_ns, until_ns = _window_ns(args)
    paths = args.paths
    try:
        if paths[0] == "diff":
            if len(paths) != 3:
                print("error: diff takes exactly two logs: "
                      "repro analyze diff A.jsonl B.jsonl", file=sys.stderr)
                return 2
            a = Attribution.from_events(
                iter_events(paths[1], since_ns, until_ns)
            )
            b = Attribution.from_events(
                iter_events(paths[2], since_ns, until_ns)
            )
            delta = diff_attributions(a, b)
            if args.json:
                with open(args.json, "w", encoding="utf-8") as fh:
                    json.dump(delta.to_dict(), fh, indent=2)
                    fh.write("\n")
                print(f"wrote diff to {args.json}")
            print(f"A: {paths[1]}\nB: {paths[2]}")
            print(format_diff(delta, top=args.top))
            return 0 if delta.is_identical else 1
        if len(paths) != 1:
            print("error: analyze takes one log (or: diff A B)",
                  file=sys.stderr)
            return 2
        path = paths[0]
        attrib = Attribution.from_events(iter_events(path, since_ns, until_ns))
    except (OSError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.check:
        if not attrib.events:
            print(f"{path}: valid but empty", file=sys.stderr)
            return 1
        print(f"{path}: {attrib.events} events, all schema-valid")
        return 0
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(attrib.to_dict(top=args.top), fh, indent=2)
            fh.write("\n")
        print(f"wrote attribution to {args.json}")
    if args.series_out:
        with open(args.series_out, "w", encoding="utf-8") as fh:
            for row in attrib.interval_series():
                fh.write(json.dumps(row, separators=(",", ":")))
                fh.write("\n")
        print(
            f"wrote {len(attrib.intervals)} interval rows to "
            f"{args.series_out}"
        )
    if args.chrome:
        written = write_chrome_trace(
            iter_events(path, since_ns, until_ns), args.chrome,
            counters=attrib.chrome_counters(),
        )
        print(f"wrote {written} trace events to {args.chrome}")
    if args.page is not None:
        print(format_page(
            attrib, args.page, iter_events(path, since_ns, until_ns)
        ))
        return 0
    if args.intervals:
        print(format_intervals(attrib))
        return 0
    if args.nodes:
        print(format_nodes(attrib))
        return 0
    if args.ledger:
        print(format_ledger(attrib, top=args.top))
        return 0
    print(format_summary(attrib))
    if attrib.pages:
        print()
        print(format_top_pages(attrib, top=args.top))
    return 0


def cmd_chains(args: argparse.Namespace) -> int:
    spec, trace = load_workload(args.workload, scale=args.scale, seed=args.seed)
    rows = [
        [threshold, fraction * 100]
        for threshold, fraction in chain_survival(
            trace.user_only(), DEFAULT_THRESHOLDS
        )
    ]
    print(
        format_table(
            f"{args.workload}: % of data misses in read chains >= L "
            "(Figure 4 methodology)",
            ["Chain length", "% of data misses"],
            rows,
        )
    )
    return 0


def _csv(text: str) -> List[str]:
    """Split a comma-separated option value, dropping empties."""
    return [item.strip() for item in text.split(",") if item.strip()]


def _specs_for(args: argparse.Namespace):
    """The grid a ``repro sweep`` invocation names."""
    if args.grid:
        return NAMED_GRIDS[args.grid](scale=args.scale, seed=args.seed)
    if not args.workloads:
        raise ConfigurationError(
            "pick a grid with --grid or workloads with --workloads"
        )
    triggers: List[Optional[int]] = [None]
    if args.triggers:
        try:
            triggers = [
                None if t in ("paper", "default") else int(t)
                for t in _csv(args.triggers)
            ]
        except ValueError as exc:
            raise ConfigurationError(f"--triggers: {exc}") from exc
    return sweep(
        _csv(args.workloads),
        scales=(args.scale,),
        seeds=(args.seed,),
        machines=tuple(_csv(args.machines)),
        kinds=(args.kind,),
        policies=tuple(_csv(args.policies)),
        triggers=tuple(triggers),
        metrics=tuple(_csv(args.metrics)),
    )


def _make_sweep_runner(args: argparse.Namespace):
    """(runner, cache) configured from the shared sweep options."""
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if cache is not None and getattr(args, "clear_cache", False):
        dropped = cache.clear()
        print(f"cleared {dropped} cache entries", file=sys.stderr)

    def progress(outcome: SweepOutcome, done: int, total: int) -> None:
        if outcome.cached:
            status = "cache"
        elif outcome.ok:
            status = f"ran {outcome.duration_s:.2f}s"
            rate = _events_per_s(outcome)
            if rate > 0:
                status += f", {rate:,.0f} events/s"
        else:
            status = f"FAILED: {outcome.error}"
        print(
            f"[{done}/{total}] {outcome.spec.label()} ({status})",
            file=sys.stderr,
        )

    runner = SweepRunner(
        cache=cache,
        jobs=args.jobs,
        retries=args.retries,
        progress=progress,
    )
    return runner, cache


def _events_per_s(outcome: SweepOutcome) -> float:
    """Replay throughput of one executed outcome (0.0 when unknown)."""
    result = outcome.result
    if result is None or outcome.duration_s <= 0:
        return 0.0
    misses = getattr(result, "total_misses", None)
    if misses is None:  # full-system result: misses live on the stall
        misses = getattr(getattr(result, "stall", None), "total_misses", 0)
    return float(misses) / outcome.duration_s


def _sweep_stats(report: SweepReport, cache: Optional[ResultCache]) -> dict:
    """JSON-safe sweep accounting (``--stats-out``, CI assertions)."""
    from repro.store import default_store

    store = default_store()
    task = report.task_stats
    return {
        "specs": len(report.outcomes),
        "jobs": report.jobs,
        "wall_s": report.wall_s,
        "executed": report.executed,
        "from_cache": report.from_cache,
        "failures": len(report.failures) - report.cancelled,
        "cancelled": report.cancelled,
        "interrupted": report.interrupted,
        "cache": cache.stats() if cache is not None else None,
        "trace_store": store.stats() if store is not None else None,
        "attribution": sweep_attribution(report.outcomes),
        "profile": {
            "phase_wall_s": dict(report.phase_wall_s),
            "workers": report.jobs,
            "task_wall_s": {
                "count": task.count,
                "mean": task.mean,
                "p50": task.percentile(50),
                "p95": task.percentile(95),
                "max": task.maximum if task.count else None,
            },
        },
    }


@contextlib.contextmanager
def _graceful_stop(on_stop):
    """SIGINT/SIGTERM → one graceful stop; a second signal is default.

    The handler only sets a flag (via ``on_stop``, e.g.
    ``runner.request_stop``): the sweep finishes its current task,
    marks the rest cancelled, and flushes its stats on the way out.
    Off the main thread (``signal.signal`` raises ValueError) this is a
    no-op, so library callers are unaffected.
    """
    triggered: List[int] = []
    previous = {}

    def handler(signum, frame):
        if triggered:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        triggered.append(signum)
        print(
            "interrupt: finishing the current task, cancelling the rest "
            "(send again to kill)",
            file=sys.stderr,
        )
        on_stop()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except ValueError:  # not the main thread
            pass
    try:
        yield
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


def _write_artifact(args: argparse.Namespace, stem: str, text: str) -> None:
    """Write one ``--out`` table; by default where ``repro bench`` would
    at this scale, so a reduced-scale run leaves the committed set alone."""
    if args.out == "":
        return
    if args.out is None:
        from repro.obs.bench import results_dir

        directory = results_dir("benchmarks", args.scale)
    else:
        directory = Path(args.out)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{stem}.txt").write_text(text + "\n")


def _result_row(spec, result, source: str) -> list:
    """One ``repro sweep`` table row."""
    if spec.kind == "system":
        local, stall, ovhd = (
            result.local_miss_fraction,
            result.stall.total_ns,
            result.kernel_overhead_ns,
        )
    else:
        local, stall, ovhd = (
            result.local_fraction, result.stall_ns, result.overhead_ns
        )
    return [spec.label(), local * 100, stall / 1e9, ovhd / 1e9, source]


def cmd_sweep(args: argparse.Namespace) -> int:
    specs = _specs_for(args)
    runner, cache = _make_sweep_runner(args)
    with _graceful_stop(runner.request_stop):
        report = runner.run(specs)
    rows = []
    for outcome in report.outcomes:
        r = outcome.result
        if r is None:
            status = "cancelled" if outcome.cancelled else "FAILED"
            rows.append([outcome.spec.label(), "-", "-", "-", status])
            continue
        source = "cache" if outcome.cached else f"{outcome.duration_s:.2f}s"
        rows.append(_result_row(outcome.spec, r, source))
    grid_name = args.grid or "custom"
    print(
        format_table(
            f"Sweep {grid_name} (scale {args.scale}, seed {args.seed}, "
            f"jobs {report.jobs})",
            ["Spec", "Local %", "Stall (s)", "Overhead (s)", "Source"],
            rows,
        )
    )
    failed = len(report.failures) - report.cancelled
    print(
        f"\n{len(report.outcomes)} specs in {report.wall_s:.2f} s: "
        f"{report.executed} executed, {report.from_cache} from cache, "
        f"{failed} failed"
        + (f", {report.cancelled} cancelled" if report.cancelled else "")
    )
    stem, text = timing_summary(grid_name, report, args.scale, args.seed)
    _write_artifact(args, stem, text)
    if args.stats_out or args.history_ingest:
        stats = _sweep_stats(report, cache)
        if args.stats_out:
            with open(args.stats_out, "w", encoding="utf-8") as fh:
                json.dump(stats, fh, indent=2)
                fh.write("\n")
        if args.history_ingest:
            from repro.common.errors import ResultSchemaError
            from repro.obs.history import HistoryStore

            try:
                store = HistoryStore(directory=args.history_dir)
                run_id = store.ingest_sweep_stats(stats, name=grid_name)
                print(f"ingested sweep/{grid_name} as run {run_id}")
            except ResultSchemaError as exc:
                print(f"warning: history ingest skipped: {exc}",
                      file=sys.stderr)
    for outcome in report.failures:
        if outcome.cancelled:
            continue
        print(
            f"error: {outcome.spec.label()}: {outcome.error}",
            file=sys.stderr,
        )
    if report.interrupted:
        return 130
    return 1 if failed else 0


#: ``repro bench --quick``: the converted, JSON-emitting benches that
#: gate the perf contract (fastpath speedup, store economics, disabled
#: observability overhead).  ``bench_<name>.py`` writes ``BENCH_<name>.json``.
QUICK_BENCHES = ("replay_fastpath", "trace_store", "obs_overhead")


def _bench_paths(bench_dir: Path, names: List[str]) -> List[Path]:
    """The bench files for ``names``; raises on an unknown name."""
    paths = []
    for name in names:
        path = bench_dir / f"bench_{name}.py"
        if not path.is_file():
            raise ConfigurationError(f"no such bench: {path}")
        paths.append(path)
    return paths


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the benchmark suite and gate on its machine-readable output.

    ``pytest benchmarks/`` writes a schema-versioned ``BENCH_<name>.json``
    per converted bench; this command runs the suite (or the ``--quick``
    subset), validates every artifact, and — with ``--compare`` — fails
    with exit code 1 when any gated metric regressed beyond its baseline
    tolerance band (see docs/PERFORMANCE.md).

    ``--compare-history`` gates against the run-history store instead:
    each metric is judged against the rolling-median band of its last
    ``--history-window`` ingested runs (docs/OBSERVABILITY.md), and
    ``--ingest`` appends the current artifacts to the store afterwards —
    always after comparison, so a run never gates against itself.
    """
    import subprocess

    from repro.common.errors import ResultSchemaError
    from repro.obs.bench import (
        compare_artifacts,
        format_comparison,
        load_artifacts,
        read_artifact,
        regressions,
        results_dir as bench_results_dir,
    )

    bench_dir = Path(args.bench_dir)
    scale = args.scale
    if scale is None:
        scale = 0.1 if args.quick else 1.0
    results_dir = bench_results_dir(bench_dir, scale)

    if not args.compare_only:
        if args.names:
            names = _csv(args.names)
        elif args.quick:
            names = list(QUICK_BENCHES)
        else:
            names = None  # the whole suite
        targets = (
            [str(p) for p in _bench_paths(bench_dir, names)]
            if names is not None
            else [str(bench_dir)]
        )
        env = dict(os.environ)
        env["REPRO_BENCH_SCALE"] = str(scale)
        env.setdefault(
            "REPRO_OBS_BENCH_SCALE", str(min(scale, 0.25))
        )
        # The suite imports ``repro`` and its own conftest; make sure the
        # subprocess resolves the same checkout we are running from.
        src_root = str(Path(__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + [p for p in env.get("PYTHONPATH", "").split(
                os.pathsep) if p]
        )
        cmd = [sys.executable, "-m", "pytest", "-q",
               "--benchmark-disable", *targets]
        print(f"running: {' '.join(cmd)}", file=sys.stderr)
        proc = subprocess.run(cmd, env=env)
        if proc.returncode != 0:
            print(
                f"error: benchmark run failed (pytest exit "
                f"{proc.returncode})",
                file=sys.stderr,
            )
            return proc.returncode

    try:
        current = load_artifacts(results_dir)
    except ResultSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not current:
        print(
            f"error: no BENCH_*.json artifacts under {results_dir}",
            file=sys.stderr,
        )
        return 2
    rows = [
        [name, len(artifact.metrics),
         sum(1 for m in artifact.metrics.values()
             if m.tolerance is not None)]
        for name, artifact in sorted(current.items())
    ]
    print(
        format_table(
            f"Bench artifacts in {results_dir}",
            ["Bench", "Metrics", "Gated"],
            rows,
        )
    )

    if args.write_baseline:
        baseline_dir = Path(args.write_baseline)
        baseline_dir.mkdir(parents=True, exist_ok=True)
        for artifact in current.values():
            artifact.write(baseline_dir)
        print(f"wrote {len(current)} baseline artifact(s) to {baseline_dir}")

    status = 0
    if args.compare:
        baseline_path = Path(args.compare)
        try:
            if baseline_path.is_dir():
                baseline = load_artifacts(baseline_path)
            else:
                artifact = read_artifact(baseline_path)
                baseline = {artifact.name: artifact}
        except ResultSchemaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not baseline:
            print(
                f"error: no baseline artifacts at {baseline_path}",
                file=sys.stderr,
            )
            return 2
        deltas = compare_artifacts(current, baseline)
        print()
        print(format_comparison(deltas))
        failed = regressions(deltas)
        if failed:
            for d in failed:
                print(
                    f"error: {d.bench}/{d.metric} regressed "
                    f"(baseline {d.baseline}, current {d.current}, "
                    f"band {d.tolerance})",
                    file=sys.stderr,
                )
            status = 1
        else:
            print(
                f"\nno regressions across {len(baseline)} baseline bench(es)"
            )

    if args.compare_history or args.ingest:
        from repro.obs.history import (
            HistoryStore,
            compare_history,
            format_trends,
            trend_regressions,
        )

        try:
            store = HistoryStore(directory=args.history_dir)
        except ResultSchemaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.compare_history:
            trends = compare_history(
                current, store, window=args.history_window
            )
            print()
            print(format_trends(trends))
            failed_trends = trend_regressions(trends)
            if failed_trends:
                for d in failed_trends:
                    print(f"error: {d.verdict_line()}", file=sys.stderr)
                status = 1
            else:
                judged = sum(1 for d in trends if d.stats is not None)
                print(
                    f"\nno trend regressions across {judged} "
                    f"metric(s) with history"
                )
        if args.ingest:
            # Always after --compare-history: the current run must never
            # be part of the history window it is judged against.
            for name in sorted(current):
                run_id = store.ingest_bench(current[name].to_dict())
                print(f"ingested bench/{name} as run {run_id}")
    return status


def _history_store(args: argparse.Namespace):
    """Open the history store named by ``--history-dir``, or fail loudly."""
    from repro.common.errors import ResultSchemaError
    from repro.obs.history import HistoryStore

    try:
        return HistoryStore(directory=args.history_dir)
    except ResultSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_report(args: argparse.Namespace) -> int:
    """Render the run-history dashboard (HTML and/or JSON summary)."""
    from repro.obs.report import build_summary, render_html

    store = _history_store(args)
    if store is None:
        return 2
    summary = build_summary(store, window=args.window)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_html(summary))
        metric_cells = sum(
            len(metrics)
            for names in summary["kinds"].values()
            for metrics in names.values()
        )
        print(
            f"wrote {args.out} ({summary['history']['total_runs']} run(s), "
            f"{metric_cells} metric cell(s))",
            file=sys.stderr if args.json else sys.stdout,
        )
    if not args.json and not args.out:
        print(
            "error: nothing to do — pass --out FILE and/or --json",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    """Inspect and maintain the run-history store."""
    store = _history_store(args)
    if store is None:
        return 2

    if args.history_command == "ingest":
        ingested = 0
        skipped = 0
        for pattern in args.paths:
            paths = (
                sorted(Path().glob(pattern))
                if any(ch in pattern for ch in "*?[")
                else [Path(pattern)]
            )
            if not paths:
                print(f"warning: {pattern}: no files matched",
                      file=sys.stderr)
            for path in paths:
                run_id, message = store.ingest_file(path)
                if run_id is None:
                    skipped += 1
                    print(f"warning: {message}", file=sys.stderr)
                else:
                    ingested += 1
                    print(f"{path}: {message} (run {run_id})")
        print(f"{ingested} ingested, {skipped} skipped")
        return 0 if ingested or not skipped else 1

    if args.history_command == "list":
        rows = [
            [
                run.run_id,
                run.kind,
                run.name,
                run.n_metrics,
                time.strftime(
                    "%Y-%m-%d %H:%M:%S", time.localtime(run.t)
                ),
                run.code_token[:12],
            ]
            for run in store.runs(
                kind=args.kind, name=args.name, limit=args.limit
            )
        ]
        print(
            format_table(
                f"History runs in {store.path}",
                ["Run", "Kind", "Name", "Metrics", "When", "Code"],
                rows,
            )
        )
        print(f"\n{store.count()} run(s) total")
        return 0

    if args.history_command == "verify":
        problems = store.verify()
        if problems:
            for problem in problems:
                print(f"error: {store.path}: {problem}", file=sys.stderr)
            return 1
        print(f"{store.path}: ok ({store.count()} run(s))")
        return 0

    print("error: choose one of: ingest, list, verify", file=sys.stderr)
    return 2


def cmd_figures(args: argparse.Namespace) -> int:
    figures = (
        list(FIGURE_TABLES) if args.figure == "all" else [args.figure]
    )
    runner, cache = _make_sweep_runner(args)
    status = 0
    for figure in figures:
        specs = NAMED_GRIDS[figure](scale=args.scale, seed=args.seed)
        report = runner.run(specs)
        if report.failures:
            for outcome in report.failures:
                print(
                    f"error: {outcome.spec.label()}: {outcome.error}",
                    file=sys.stderr,
                )
            status = 1
            continue
        table = FIGURE_TABLES[figure](report.outcomes)
        print(table)
        print(
            f"\n{figure}: {report.executed} executed, "
            f"{report.from_cache} from cache in {report.wall_s:.2f} s"
        )
        _write_artifact(args, FIGURE_ARTIFACTS[figure], table)
        stem, text = timing_summary(figure, report, args.scale, args.seed)
        _write_artifact(args, stem, text)
    return status


def _trace_store_or_fail():
    """The default trace store, or ``None`` (with a message) if disabled."""
    from repro.store import default_store

    store = default_store()
    if store is None:
        print(
            "error: the trace store is disabled (REPRO_TRACE_STORE=0)",
            file=sys.stderr,
        )
    return store


def _trace_workload_names(args: argparse.Namespace) -> List[str]:
    return [args.workload] if args.workload else list(WORKLOAD_NAMES)


def cmd_trace_record(args: argparse.Namespace) -> int:
    """Record workload traces into the store (skip what is recorded)."""
    from repro.store import ContainerReader

    store = _trace_store_or_fail()
    if store is None:
        return 2
    rows = []
    for name in _trace_workload_names(args):
        spec = build_spec(name, scale=args.scale, seed=args.seed)
        if args.force:
            store.invalidate(spec.identity())
        _, already = record_workload(
            name, scale=args.scale, seed=args.seed, store=store
        )
        path = store.path_for(spec.identity())
        with ContainerReader(path) as reader:
            rows.append(
                [name, "recorded" if not already else "kept",
                 reader.n_records, len(reader.chunks),
                 path.stat().st_size / 1e6]
            )
    print(
        format_table(
            f"Trace store {store.directory} (scale {args.scale}, "
            f"seed {args.seed})",
            ["Workload", "Status", "Records", "Chunks", "MB"],
            rows,
        )
    )
    return 0


def cmd_trace_info(args: argparse.Namespace) -> int:
    """Describe the store: location, code token, recorded containers."""
    from repro.common.errors import TraceError as _TraceError
    from repro.store import ContainerReader

    store = _trace_store_or_fail()
    if store is None:
        return 2
    print(f"directory: {store.directory}")
    print(f"generator code token: {store.token[:16]}...")
    rows = []
    for path in store.containers():
        try:
            with ContainerReader(path) as reader:
                ident = reader.identity or {}
                rows.append(
                    [ident.get("name", "?"), str(ident.get("scale", "?")),
                     ident.get("seed", "?"), reader.n_records,
                     len(reader.chunks), path.stat().st_size / 1e6,
                     "current" if path == store.path_for(ident) else "stale"]
                )
        except (_TraceError, OSError) as exc:
            rows.append([path.name[:12], "?", "?", "?", "?", "?",
                         f"unreadable: {exc}"])
    if not rows:
        print("no recorded traces")
        return 0
    print(
        format_table(
            f"{len(rows)} recorded trace(s)",
            ["Workload", "Scale", "Seed", "Records", "Chunks", "MB",
             "Status"],
            rows,
        )
    )
    return 0


def cmd_trace_verify(args: argparse.Namespace) -> int:
    """Checksum-verify recorded containers; exit 1 on any failure."""
    from repro.common.errors import TraceError as _TraceError
    from repro.store import ContainerReader

    store = _trace_store_or_fail()
    if store is None:
        return 2
    rows = []
    failed = False
    for name in _trace_workload_names(args):
        spec = build_spec(name, scale=args.scale, seed=args.seed)
        path = store.path_for(spec.identity())
        if not path.is_file():
            rows.append([name, "MISSING", "not recorded"])
            failed = True
            continue
        try:
            with ContainerReader(path) as reader:
                report = reader.verify()
        except _TraceError as exc:
            rows.append([name, "FAIL", str(exc)])
            failed = True
            continue
        rows.append(
            [name, "PASS",
             f"{report['records']} records / {report['chunks']} chunks"]
        )
    print(
        format_table(
            f"Trace verification (scale {args.scale}, seed {args.seed})",
            ["Workload", "Verdict", "Detail"],
            rows,
        )
    )
    return 1 if failed else 0


def cmd_trace_replay(args: argparse.Namespace) -> int:
    """Stream a recorded trace through the dynamic policy simulator.

    Chunks are decoded as the replay reaches them (peak memory is
    bounded by two chunks — the replay looks one ahead — not the
    trace), which is the point: a recorded trace replays under any
    policy without regenerating or materializing it.
    """
    from repro.common.errors import TraceStoreError

    store = _trace_store_or_fail()
    if store is None:
        return 2
    spec = build_spec(args.workload, scale=args.scale, seed=args.seed)
    sim = TracePolicySimulator(
        PolicySimConfig(n_cpus=spec.n_cpus, n_nodes=spec.n_nodes)
    )
    factories = {
        "migr": PolicyParameters.migration_only,
        "repl": PolicyParameters.replication_only,
        "migrep": PolicyParameters.base,
    }
    trigger = params_for(args.workload, args.trigger).trigger_threshold
    params = factories[args.policy](trigger_threshold=trigger)
    select = Trace.kernel_only if args.kernel else Trace.user_only
    try:
        chunks = (
            select(chunk)
            for chunk in store.iter_chunks(spec.identity(), meta=spec)
        )
        result = sim.simulate_dynamic(chunks, params)
    except TraceStoreError as exc:
        print(
            f"error: {exc}\nrecord it first: repro trace record "
            f"--workload {args.workload} --scale {args.scale} "
            f"--seed {args.seed}",
            file=sys.stderr,
        )
        return 1
    print(
        format_table(
            f"{args.workload} (scale {args.scale}): streamed replay",
            ["Policy", "Local %", "Stall (s)", "Overhead (s)", "Ops"],
            [[result.label, result.local_fraction * 100,
              result.stall_ns / 1e9, result.overhead_ns / 1e9,
              result.migrations + result.replications + result.collapses]],
        )
    )
    stats = store.stats()
    print(
        f"\nstore: {stats['hits']} hit(s), {stats['bytes_read']} bytes "
        f"read, {stats['decode_seconds']:.3f} s decoding"
    )
    _write_profile(
        args, f"trace-replay/{args.workload}",
        metrics={k: float(v) for k, v in stats.items()},
        context={"workload": args.workload, "scale": args.scale,
                 "seed": args.seed, "policy": args.policy},
    )
    return 0


def _add_scale_seed(
    parser: argparse.ArgumentParser, default_scale: float = 0.25
) -> None:
    """The workload-shaping pair every run-like subcommand shares."""
    parser.add_argument(
        "--scale", type=float, default=default_scale,
        help=(
            "fraction of the paper's run length "
            f"(default {default_scale})"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES,
        help="which of the paper's five workloads to use",
    )
    _add_scale_seed(parser)
    parser.add_argument(
        "--trigger", type=int, default=None,
        help="trigger threshold (default: the paper's per-workload value)",
    )


def _add_window_options(parser: argparse.ArgumentParser) -> None:
    """--since/--until time-window filters (simulated milliseconds)."""
    parser.add_argument(
        "--since", type=float, default=None, metavar="MS",
        help="keep only events at or after MS (simulated milliseconds)",
    )
    parser.add_argument(
        "--until", type=float, default=None, metavar="MS",
        help="keep only events at or before MS (simulated milliseconds)",
    )


def _add_profile_option(parser: argparse.ArgumentParser) -> None:
    """The layer-profile report knob (see docs/OBSERVABILITY.md)."""
    parser.add_argument(
        "--profile-out", metavar="PATH", default=None,
        help="time the command's layers and write a schema-versioned "
        "RunReport JSON to PATH (also prints the layer table)",
    )


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    """Grid selection for ``repro sweep``."""
    parser.add_argument(
        "--grid", choices=sorted(NAMED_GRIDS), default=None,
        help="a named figure grid (fig3, fig6, fig9)",
    )
    parser.add_argument(
        "--workloads", metavar="A,B,...", default=None,
        help=f"custom grid: comma-separated workloads {WORKLOAD_NAMES}",
    )
    parser.add_argument(
        "--kind", choices=("system", "trace"), default="trace",
        help="custom grid: simulator kind (default trace)",
    )
    parser.add_argument(
        "--policies", metavar="A,B,...", default="migrep",
        help="custom grid: policies (rr,ft,pf,migr,repl,migrep; "
        "page-table family: ptft,ptmigr,ptrepl,coplace)",
    )
    parser.add_argument(
        "--triggers", metavar="N,N,...", default=None,
        help="custom grid: trigger thresholds ('paper' = per-workload)",
    )
    parser.add_argument(
        "--machines", metavar="A,B,...", default="ccnuma",
        help="custom grid: machine configurations",
    )
    parser.add_argument(
        "--metrics", metavar="A,B,...", default="FC",
        help="custom grid: information sources (FC,SC,FT,ST)",
    )


def _add_history_dir_option(parser: argparse.ArgumentParser) -> None:
    """Where the longitudinal run-history database lives."""
    parser.add_argument(
        "--history-dir", metavar="DIR", default=None,
        help="history store directory (default $REPRO_HISTORY_DIR or "
        "~/.cache/repro/history)",
    )


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``repro sweep`` and ``repro figures``."""
    _add_scale_seed(parser)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = in-process serial execution)",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="retries per failed task (default 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="run everything fresh; do not read or write the result cache",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache location (default $REPRO_CACHE_DIR or ~/.cache/repro/exp)",
    )
    parser.add_argument(
        "--clear-cache", action="store_true",
        help="drop every cache entry before running",
    )
    parser.add_argument(
        "--out", metavar="DIR", default=None,
        help="artifact directory ('' disables writing; default "
        "benchmarks/results at scale 1.0, else "
        "benchmarks/results/scale-<scale>)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'OS Support for Improving Data Locality on "
            "CC-NUMA Compute Servers' (ASPLOS 1996)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("workloads", help="list the synthetic workloads")
    _add_scale_seed(p, default_scale=0.1)
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser("run", help="full-system FT vs Mig/Rep comparison")
    _add_common(p)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the FT and Mig/Rep legs the result "
        "cache does not hold (--trace-out and --profile-out run both "
        "legs in-process and uncached)",
    )
    p.add_argument(
        "--machine", choices=("ccnuma", "ccnow", "zeronet"),
        default="ccnuma", help="machine configuration",
    )
    p.add_argument(
        "--tracked-flush", action="store_true",
        help="flush only TLBs with mappings (the simulated optimisation)",
    )
    p.add_argument(
        "--hotspot", action="store_true",
        help="also migrate write-shared pages (the 7.1.2 extension)",
    )
    p.add_argument(
        "--adaptive", action="store_true",
        help="pick the trigger threshold adaptively (the 8.4 extension)",
    )
    p.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="stream the Mig/Rep run's decision events to a JSONL log",
    )
    p.add_argument(
        "--trace-misses", action="store_true",
        help="also record every serviced miss in the log (large!)",
    )
    p.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="dump the Mig/Rep run's full metrics registry as JSON",
    )
    _add_profile_option(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "tracesim", help="trace-driven policy comparison (contentionless)"
    )
    _add_common(p)
    p.add_argument(
        "--metrics", action="store_true",
        help="compare FC/SC/FT/ST information sources instead of policies",
    )
    p.add_argument(
        "--kernel", action="store_true",
        help="use the kernel-mode miss trace (Figure 7 methodology)",
    )
    p.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="stream the Mig/Rep run's decision events to a JSONL log",
    )
    p.add_argument(
        "--trace-misses", action="store_true",
        help="also record every serviced miss in the log (large!); "
        "lets 'repro analyze' attribute stall time byte-exactly",
    )
    p.add_argument(
        "--competitive", action="store_true",
        help="add the Black-Gupta-Weber competitive strategy as a "
        "related-work baseline row (Section 2 comparator)",
    )
    _add_profile_option(p)
    p.set_defaults(func=cmd_tracesim)

    p = sub.add_parser(
        "ptsim",
        help="page-table policy comparison (PT-FT/PT-Migr/PT-Repl/CoPlace)",
    )
    _add_common(p)
    p.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="stream the CoPlace run (decisions AND misses/walks) to a "
        "JSONL log and reconcile it against the result and the PT tally",
    )
    _add_profile_option(p)
    p.set_defaults(func=cmd_ptsim)

    p = sub.add_parser("chains", help="read-chain analysis (Figure 4)")
    _add_common(p)
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser(
        "analyze",
        help="read a --trace-out log: attribution, payoff ledger, "
             "timelines, schema check",
    )
    p.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="a --trace-out JSONL log (plain or .gz), or: diff A B",
    )
    p.add_argument(
        "--ledger", action="store_true",
        help="print the per-decision payoff ledger (worst net first)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="validate only: exit 0 iff the log is non-empty and parses",
    )
    p.add_argument(
        "--nodes", action="store_true",
        help="print the per-node residency and demand table",
    )
    p.add_argument(
        "--intervals", action="store_true",
        help="print the per-reset-interval decision activity table",
    )
    p.add_argument(
        "--page", type=int, default=None,
        help="print one page's lifecycle, ledger and decision timeline",
    )
    p.add_argument(
        "--top", type=int, default=10,
        help="rows in ranked tables (0 = all; default 10)",
    )
    p.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the full attribution (or diff) as JSON to PATH",
    )
    p.add_argument(
        "--series-out", metavar="PATH", default=None,
        help="write per-interval miss-ratio/stall rows as JSONL to PATH",
    )
    p.add_argument(
        "--chrome", metavar="PATH", default=None,
        help="write the decision timeline and counter series as Chrome "
             "trace-event JSON to PATH",
    )
    _add_window_options(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "verify", help="quick smoke test of the headline reproductions"
    )
    # The smoke test checks the headline at the paper's own triggers.
    _add_scale_seed(p)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the six cells the result cache does "
        "not hold",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "sweep",
        help="run an experiment grid in parallel through the result cache",
    )
    _add_grid_options(p)
    p.add_argument(
        "--stats-out", metavar="PATH", default=None,
        help="write sweep/cache accounting as JSON to PATH",
    )
    p.add_argument(
        "--history-ingest", action="store_true",
        help="append the sweep's stats to the run-history store",
    )
    _add_history_dir_option(p)
    _add_sweep_options(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "trace",
        help="manage the record-once/replay-many trace store",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    tp = trace_sub.add_parser(
        "record", help="record workload traces into the store"
    )
    tp.add_argument(
        "--workload", choices=WORKLOAD_NAMES, default=None,
        help="one workload (default: all five)",
    )
    _add_scale_seed(tp)
    tp.add_argument(
        "--force", action="store_true",
        help="re-record even when a current recording exists",
    )
    tp.set_defaults(func=cmd_trace_record)

    tp = trace_sub.add_parser(
        "info", help="show the store location and recorded containers"
    )
    tp.set_defaults(func=cmd_trace_info)

    tp = trace_sub.add_parser(
        "verify", help="checksum-verify recorded containers"
    )
    tp.add_argument(
        "--workload", choices=WORKLOAD_NAMES, default=None,
        help="one workload (default: all five)",
    )
    _add_scale_seed(tp)
    tp.set_defaults(func=cmd_trace_verify)

    tp = trace_sub.add_parser(
        "replay",
        help="stream a recorded trace through the policy simulator",
    )
    tp.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES,
        help="which recorded workload to replay",
    )
    _add_scale_seed(tp)
    tp.add_argument(
        "--policy", choices=("migr", "repl", "migrep"), default="migrep",
        help="dynamic policy to replay under (default migrep)",
    )
    tp.add_argument(
        "--trigger", type=int, default=None,
        help="trigger threshold (default: the paper's per-workload value)",
    )
    tp.add_argument(
        "--kernel", action="store_true",
        help="replay the kernel-mode records instead of user-mode",
    )
    _add_profile_option(tp)
    tp.set_defaults(func=cmd_trace_replay)

    p = sub.add_parser(
        "bench",
        help="run the benchmark suite with machine-readable output and "
        "perf-regression gating",
    )
    p.add_argument(
        "--quick", action="store_true",
        help=f"run only the gating benches {QUICK_BENCHES} at scale 0.1",
    )
    p.add_argument(
        "--names", metavar="A,B,...", default=None,
        help="comma-separated bench names (bench_<name>.py); overrides "
        "--quick",
    )
    p.add_argument(
        "--scale", type=float, default=None,
        help="REPRO_BENCH_SCALE for the run (default: 0.1 with --quick, "
        "else 1.0); results below 1.0 go to results/scale-<scale>/",
    )
    p.add_argument(
        "--bench-dir", metavar="DIR", default="benchmarks",
        help="benchmark suite directory (default benchmarks)",
    )
    p.add_argument(
        "--compare", metavar="BASELINE", default=None,
        help="baseline BENCH_*.json file or directory; exit 1 when a "
        "gated metric regressed beyond its tolerance band",
    )
    p.add_argument(
        "--compare-only", action="store_true",
        help="skip running; validate/compare existing artifacts only",
    )
    p.add_argument(
        "--write-baseline", metavar="DIR", default=None,
        help="copy the current artifacts to DIR as a new baseline",
    )
    p.add_argument(
        "--compare-history", action="store_true",
        help="gate each metric against the rolling-median band of its "
        "ingested history (exit 1 on a trend regression)",
    )
    p.add_argument(
        "--history-window", type=int, default=10, metavar="N",
        help="history runs per metric the trend band is fit to "
        "(default 10)",
    )
    p.add_argument(
        "--ingest", action="store_true",
        help="append the current artifacts to the run-history store "
        "(after --compare-history, never before)",
    )
    _add_history_dir_option(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "history",
        help="inspect and maintain the longitudinal run-history store",
    )
    history_sub = p.add_subparsers(dest="history_command", required=True)

    hp = history_sub.add_parser(
        "ingest",
        help="ingest BENCH_*.json / profile / sweep-stats artifacts",
    )
    hp.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="artifact files (quoted globs are expanded)",
    )
    _add_history_dir_option(hp)
    hp.set_defaults(func=cmd_history)

    hp = history_sub.add_parser("list", help="list ingested runs")
    hp.add_argument(
        "--kind", choices=("bench", "report", "sweep"),
        default=None, help="only runs of this kind",
    )
    hp.add_argument(
        "--name", default=None, help="only runs with this artifact name"
    )
    hp.add_argument(
        "--limit", type=int, default=20,
        help="most recent N runs (default 20)",
    )
    _add_history_dir_option(hp)
    hp.set_defaults(func=cmd_history)

    hp = history_sub.add_parser(
        "verify", help="re-check the database (exit 1 on any problem)"
    )
    _add_history_dir_option(hp)
    hp.set_defaults(func=cmd_history)

    p = sub.add_parser(
        "report",
        help="render the run-history dashboard (self-contained HTML)",
    )
    p.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the HTML dashboard to PATH",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the machine-readable summary to stdout",
    )
    p.add_argument(
        "--window", type=int, default=30, metavar="N",
        help="history runs per metric in sparklines/trends (default 30)",
    )
    _add_history_dir_option(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "figures",
        help="regenerate figure tables from (cached) parallel sweeps",
    )
    p.add_argument(
        "--figure", choices=sorted(FIGURE_TABLES) + ["all"], default="all",
        help="which figure to regenerate (default all)",
    )
    _add_sweep_options(p)
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    A :class:`ConfigurationError` — bad input on the command line or in
    a file it names — is a usage error: one ``error:`` line, exit 2.
    """
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigurationError(
                f"--jobs must be at least 1, not {args.jobs}"
            )
        if getattr(args, "profile_out", None):
            return _run_profiled(args)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
