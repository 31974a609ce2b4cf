"""The command-line interface."""

import argparse
import json
import os
import signal
import threading

import pytest

from repro.cli import build_parser, main
from repro.obs.events import (
    CollapseEvent,
    HotPageTriggered,
    NoActionDecision,
    ReplicationDecision,
)
from repro.obs.export import read_events, write_jsonl


def test_workloads_command(capsys):
    assert main(["workloads", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    for name in ("engineering", "raytrace", "splash", "database", "pmake"):
        assert name in out


def test_run_command(capsys):
    assert main(["run", "--workload", "database", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Mig/Rep" in out
    assert "stall reduction" in out
    assert "hot pages" in out


def test_run_ccnow(capsys):
    assert main(
        ["run", "--workload", "database", "--scale", "0.05",
         "--machine", "ccnow"]
    ) == 0
    assert "ccnow" in capsys.readouterr().out


def test_run_with_extensions(capsys):
    assert main(
        ["run", "--workload", "database", "--scale", "0.05",
         "--tracked-flush", "--hotspot"]
    ) == 0


def test_tracesim_policies(capsys):
    assert main(
        ["tracesim", "--workload", "database", "--scale", "0.05"]
    ) == 0
    out = capsys.readouterr().out
    for label in ("RR", "FT", "PF", "Migr", "Repl", "Mig/Rep"):
        assert label in out


def test_tracesim_metrics(capsys):
    assert main(
        ["tracesim", "--workload", "database", "--scale", "0.05",
         "--metrics"]
    ) == 0
    out = capsys.readouterr().out
    for label in ("FC", "SC", "FT", "ST"):
        assert label in out


def test_tracesim_kernel(capsys):
    assert main(
        ["tracesim", "--workload", "pmake", "--scale", "0.05", "--kernel"]
    ) == 0


def test_chains_command(capsys):
    assert main(["chains", "--workload", "raytrace", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "512" in out


def test_trigger_override(capsys):
    assert main(
        ["tracesim", "--workload", "database", "--scale", "0.05",
         "--trigger", "64"]
    ) == 0


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--workload", "nope"])


def test_command_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_adaptive(capsys):
    assert main(
        ["run", "--workload", "database", "--scale", "0.05", "--adaptive"]
    ) == 0
    assert "adaptive trigger settled at" in capsys.readouterr().out


def test_verify_command(capsys):
    assert main(["verify", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out
    assert "robustness" in out


def test_tracesim_metrics_rejects_competitive(capsys):
    assert main(
        ["tracesim", "--workload", "database", "--scale", "0.05",
         "--metrics", "--competitive"]
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --competitive")
    assert captured.err.count("\n") == 1


def _forbid(what):
    def forbid(*args, **kwargs):
        raise AssertionError(what)

    return forbid


def test_verify_rerun_is_served_from_the_cache(tmp_path, capsys, monkeypatch):
    import repro.cli as cli
    import repro.exp.runner as runner
    from repro.exp.cache import ResultCache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["verify", "--scale", "0.05"]
    code = main(argv)
    first = capsys.readouterr()
    assert len(ResultCache(tmp_path)) == 6
    forbid = _forbid("a cell ran on a warm rerun")
    monkeypatch.setattr(runner, "execute_spec", forbid)
    monkeypatch.setattr(cli, "execute_spec", forbid)
    assert main(argv) == code
    assert capsys.readouterr() == first


def test_adaptive_run_shares_the_plain_ft_cell(tmp_path, monkeypatch):
    from repro.exp.cache import ResultCache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["run", "--workload", "database", "--scale", "0.02"]
    assert main(argv) == 0
    assert len(ResultCache(tmp_path)) == 2
    # The adaptive trigger only changes the Mig/Rep leg: FT, Mig/Rep
    # and adaptive Mig/Rep, not a second copy of FT.
    assert main([*argv, "--adaptive"]) == 0
    assert len(ResultCache(tmp_path)) == 3


@pytest.mark.parametrize("flag", ["--trace-out", "--profile-out"])
def test_inspected_run_neither_reads_nor_writes_the_cache(
    flag, tmp_path, capsys, monkeypatch
):
    from repro.exp.cache import ResultCache

    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.setattr(ResultCache, "get", _forbid("cache read"))
    monkeypatch.setattr(ResultCache, "put", _forbid("cache written"))
    assert main(
        ["run", "--workload", "database", "--scale", "0.05",
         flag, str(tmp_path / "out")]
    ) == 0
    assert not cache_dir.exists()


def test_run_jobs_two_matches_jobs_one(tmp_path, capsys, monkeypatch):
    import repro.exp.runner as runner

    pools = []

    class CountingPool(runner.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", CountingPool)
    outputs = []
    for jobs in ("1", "2"):
        # A cold cache each time, so both legs really run.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"cache{jobs}"))
        metrics = tmp_path / f"metrics{jobs}.json"
        assert main(
            ["run", "--workload", "database", "--scale", "0.05",
             "--jobs", jobs, "--metrics-out", str(metrics)]
        ) == 0
        outputs.append(
            (capsys.readouterr().out.replace(str(metrics), "METRICS"),
             metrics.read_bytes())
        )
    assert outputs[0] == outputs[1]
    assert pools == [{"max_workers": 2}]


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced run shared by the trace/metrics/analyze CLI tests."""
    tmp = tmp_path_factory.mktemp("cli-trace")
    trace_path = str(tmp / "run.jsonl")
    metrics_path = str(tmp / "metrics.json")
    code = main(
        ["run", "--workload", "database", "--scale", "0.05",
         "--trace-out", trace_path, "--metrics-out", metrics_path]
    )
    assert code == 0
    return trace_path, metrics_path


def test_run_trace_out_writes_valid_jsonl(traced_run):
    trace_path, _ = traced_run
    events = read_events(trace_path)
    assert events
    # Misses are excluded by default; decision kinds are present.
    kinds = {e.KIND for e in events}
    assert "miss" not in kinds
    assert "hot-page" in kinds


def test_run_metrics_out_dumps_registry(traced_run):
    _, metrics_path = traced_run
    with open(metrics_path) as fh:
        metrics = json.load(fh)
    assert metrics["kernel.pager.hot_pages"] > 0
    assert "machine.memory.local_fraction" in metrics


def test_run_trace_misses_includes_miss_events(tmp_path, capsys):
    path = str(tmp_path / "miss.jsonl")
    assert main(
        ["run", "--workload", "database", "--scale", "0.02",
         "--trace-out", path, "--trace-misses"]
    ) == 0
    assert any(e.KIND == "miss" for e in read_events(path))


def test_analyze_decision_only_log_says_payoff_needs_misses(
    traced_run, capsys
):
    trace_path, _ = traced_run
    events = read_events(trace_path)
    assert not any(e.KIND == "miss" for e in events)
    assert main(["analyze", trace_path]) == 0
    out = capsys.readouterr().out
    assert "payoff needs miss events" in out
    assert "--trace-misses" in out
    assert "net-regret" not in out
    assert main(["analyze", trace_path, "--ledger", "--top", "0"]) == 0
    out = capsys.readouterr().out
    assert "--trace-misses" in out
    assert "REGRET" not in out
    page = next(e.page for e in events if e.KIND == "migration")
    assert main(["analyze", trace_path, "--page", str(page)]) == 0
    out = capsys.readouterr().out
    assert "first touch unknown" in out
    assert "--trace-misses" in out
    assert "node -1" not in out


def test_analyze_check(traced_run, capsys):
    trace_path, _ = traced_run
    assert main(["analyze", trace_path, "--check"]) == 0
    assert "schema-valid" in capsys.readouterr().out


def test_analyze_check_fails_on_empty(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["analyze", str(path), "--check"]) == 1
    assert "valid but empty" in capsys.readouterr().err


def test_analyze_check_rejects_corrupt_log(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    assert main(["analyze", str(path), "--check"]) == 1
    assert "error:" in capsys.readouterr().err


#: A run-meta header as logs written before the replay engine switch was
#: retired carry it (``"engine"``), and the same header without it.
OLD_RUN_META = (
    '{"kind":"run-meta","t":0,"label":"Mig/Rep","n_cpus":2,"n_nodes":2,'
    '"local_ns":300.0,"remote_ns":1200.0,"op_cost_ns":350000.0,'
    '"trigger":128,"reset_interval_ns":100000000,"engine":"auto",'
    '"pt_walk_local_ns":0.0,"pt_walk_remote_ns":0.0,"pt_span_pages":0}'
)
NEW_RUN_META = OLD_RUN_META.replace('"engine":"auto",', "")
MISS_LINES = (
    '{"kind":"miss","t":5,"cpu":1,"page":3,"node":0,"weight":2,'
    '"latency_ns":1200.0,"remote":true}\n'
    '{"kind":"miss","t":9,"cpu":0,"page":3,"node":0,"weight":1,'
    '"latency_ns":300.0,"remote":false}\n'
)


def test_analyze_loads_logs_with_an_engine_header(tmp_path, capsys):
    old = tmp_path / "old.jsonl"
    old.write_text(OLD_RUN_META + "\n" + MISS_LINES)
    new = tmp_path / "new.jsonl"
    new.write_text(NEW_RUN_META + "\n" + MISS_LINES)
    assert main(["analyze", str(old), "--check"]) == 0
    capsys.readouterr()
    reports = []
    for path in (old, new):
        out = tmp_path / f"{path.stem}.json"
        assert main(["analyze", str(path), "--json", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0] == reports[1]
    assert reports[0]["meta"]["label"] == "Mig/Rep"
    assert reports[0]["totals"]["stall_ns"] == 2 * 1200.0 + 300.0


def test_analyze_rejects_old_engine_fallback_log(tmp_path, capsys):
    path = tmp_path / "old.jsonl"
    path.write_text(
        '{"kind":"hot-page","t":1}\n'
        '{"kind":"engine-fallback","t":0,"requested":"auto",'
        '"chosen":"scalar","reason":"active tracer"}\n'
    )
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{path}:2: unknown event kind" in err
    assert "Traceback" not in err


def test_analyze_rejects_an_ill_typed_field(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind":"hot-page","t":"x","page":1,"cpu":0,'
                    '"count":3,"threshold":2}\n')
    assert main(["analyze", str(path)]) != 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}:1: ")
    assert "field 't'" in err
    assert "Traceback" not in err


def test_analyze_check_rejects_old_span_log(tmp_path, capsys):
    # Profiler spans could once be written to a log as `span` events.
    path = tmp_path / "old.jsonl"
    path.write_text(
        '{"kind":"run-meta","t":0}\n'
        '{"kind":"span","t":1000,"name":"sim.run","path":"sim.run",'
        '"dur_ns":5000,"depth":0,"items":3,"alloc_bytes":0}\n'
    )
    assert main(["analyze", str(path), "--check"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{path}:2: unknown event kind: 'span'" in err
    assert "Traceback" not in err


def test_analyze_page_timeline(traced_run, tmp_path, capsys):
    trace_path, _ = traced_run
    page = next(e.page for e in read_events(trace_path)
                if e.KIND == "no-action")
    assert main(["analyze", trace_path, "--page", str(page)]) == 0
    out = capsys.readouterr().out
    assert f"page {page}:" in out
    assert "decision timeline" in out
    assert "hot-page " in out
    assert "no action " in out
    # The database run collapses nothing; a hand-built log covers it.
    path = str(tmp_path / "collapse.jsonl")
    write_jsonl([
        HotPageTriggered(t=100, page=7, cpu=1, count=130, threshold=128),
        NoActionDecision(t=200, page=7, cpu=1, reason="write-shared"),
        ReplicationDecision(t=300, page=7, cpu=2, src=0, dst=2,
                            outcome="replicated", reason="shared-read"),
        CollapseEvent(t=400, page=7, cpu=0, keep_node=0,
                      replicas_dropped=1),
        HotPageTriggered(t=500, page=8, cpu=3, count=140, threshold=128),
    ], path)
    assert main(["analyze", path, "--page", "7"]) == 0
    out = capsys.readouterr().out
    assert "decision timeline (4 events)" in out
    for label in ("hot-page ", "no action ", "replication ", "collapse "):
        assert label in out
    assert "cpu 3" not in out


def test_analyze_page_absent_from_log(traced_run, capsys):
    trace_path, _ = traced_run
    absent = 1 + max(e.page for e in read_events(trace_path)
                     if hasattr(e, "page"))
    assert main(["analyze", trace_path, "--page", str(absent)]) == 0
    out = capsys.readouterr().out
    assert out.strip() == f"page {absent}: never appears in this stream"


def test_analyze_intervals_count_decisions(traced_run, capsys):
    trace_path, _ = traced_run
    expected, row = [], [0, 0, 0, 0, 0]
    fields = {"hot-page": 0, "migration": 1, "replication": 2,
              "no-action": 3, "collapse": 4}
    for e in read_events(trace_path):
        if e.KIND == "interval-reset":
            expected.append(row)
            row = [0, 0, 0, 0, 0]
        elif e.KIND in fields and getattr(e, "outcome", "") != "no-page":
            row[fields[e.KIND]] += 1
    if any(row):
        expected.append(row)
    assert main(["analyze", trace_path, "--intervals"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["interval", "end"]
    counts = [[int(x) for x in line.split()[2:]] for line in lines[2:]]
    assert counts == expected
    assert lines[-1].split()[0] == "tail"


def test_analyze_chrome_holds_timeline_and_counters(
    traced_run, tmp_path, capsys
):
    trace_path, _ = traced_run
    chrome_path = str(tmp_path / "chrome.json")
    assert main(["analyze", trace_path, "--chrome", chrome_path]) == 0
    with open(chrome_path) as fh:
        payload = json.load(fh)
    phases = {e["ph"] for e in payload["traceEvents"]}
    assert {"i", "C"} <= phases


def test_tracesim_trace_out(tmp_path, capsys):
    path = str(tmp_path / "policysim.jsonl")
    assert main(
        ["tracesim", "--workload", "database", "--scale", "0.05",
         "--trace-out", path]
    ) == 0
    events = read_events(path)
    assert events
    assert {e.KIND for e in events} <= {
        "hot-page", "migration", "replication", "no-action",
        "collapse", "interval-reset", "run-meta",
    }
    assert events[0].KIND == "run-meta"


def test_ptsim_policies(capsys):
    assert main(
        ["ptsim", "--workload", "splash", "--scale", "0.05"]
    ) == 0
    out = capsys.readouterr().out
    for label in ("PT-FT", "PT-Migr", "PT-Repl", "CoPlace"):
        assert label in out
    assert "walk" in out


def test_ptsim_trace_out_reconciles(tmp_path, capsys):
    path = str(tmp_path / "ptsim.jsonl")
    assert main(
        ["ptsim", "--workload", "splash", "--scale", "0.05",
         "--trace-out", path]
    ) == 0
    out = capsys.readouterr().out
    assert "ptpol reconciled" in out
    events = read_events(path)
    assert events[0].KIND == "run-meta"
    assert events[0].pt_span_pages > 0
    kinds = {e.KIND for e in events}
    assert "miss" in kinds          # walk reconciliation needs misses


@pytest.mark.parametrize("argv", [
    ["tracesim", "--workload", "splash"],
    ["ptsim", "--workload", "splash"],
    ["trace", "replay", "--workload", "splash"],
    ["sweep", "--grid", "fig9"],
    ["figures", "--figure", "fig9"],
], ids=lambda argv: " ".join(argv[:2]))
def test_replay_engine_flag_is_gone(argv, capsys):
    # There is one replay path; the old engine switch is an unknown
    # argument on every command that used to take it.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--engine", "scalar"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --engine scalar" in capsys.readouterr().err


def test_verify_takes_no_trigger(capsys):
    # verify checks the headline at the paper's own triggers, so a
    # trigger it would ignore is an unknown argument.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trigger", "5"])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert errors == ["repro: error: unrecognized arguments: --trigger 5"]


@pytest.mark.parametrize("argv", [
    ["run", "--workload", "database", "--scale", "0"],
    ["run", "--workload", "database", "--scale", "1.5"],
    ["workloads", "--scale", "0"],
    ["chains", "--workload", "database", "--scale", "-1"],
    ["verify", "--scale", "0"],
    ["trace", "record", "--workload", "database", "--scale", "0"],
    ["figures", "--figure", "fig9", "--scale", "0", "--no-cache",
     "--out", ""],
    ["sweep", "--grid", "fig9", "--scale", "1.5", "--no-cache", "--out", ""],
    ["run", "--workload", "database", "--scale", "0.02", "--trigger", "0"],
    ["tracesim", "--workload", "database", "--scale", "0.02",
     "--trigger", "0"],
    ["ptsim", "--workload", "database", "--scale", "0.02",
     "--trigger", "-5"],
    ["run", "--workload", "database", "--scale", "0.02", "--jobs", "0"],
    ["sweep", "--grid", "fig9", "--scale", "0.02", "--jobs", "-1",
     "--no-cache", "--out", ""],
    ["sweep", "--workloads", "database", "--triggers", "lots",
     "--no-cache", "--out", ""],
], ids=lambda argv: " ".join(argv))
def test_bad_input_is_a_one_line_usage_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_run_with_out_of_range_cpu_is_a_one_line_error(
    capsys, monkeypatch, tmp_path
):
    import repro.exp.runner as runner
    from repro.trace.record import TraceBuilder

    spec, trace = runner.load_workload("database", scale=0.02, seed=0)
    builder = TraceBuilder()
    builder.append(0, cpu=0, process=1, page=7)
    builder.append(10, cpu=spec.n_cpus, process=1, page=8)
    monkeypatch.setattr(
        runner, "load_workload", lambda *a, **k: (spec, builder.build())
    )
    # A fresh result cache, so the cells run on the patched trace.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["run", "--workload", "database", "--scale", "0.02"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: trace names cpu {spec.n_cpus}")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def _sweep_args(tmp_path, *extra):
    return [
        "sweep", "--scale", "0.02",
        "--cache-dir", str(tmp_path / "cache"), "--out", "",
        *extra,
    ]


def test_sweep_custom_grid_cold_then_warm(tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    args = _sweep_args(
        tmp_path, "--workloads", "database", "--kind", "trace",
        "--policies", "ft,migrep", "--stats-out", str(stats_path),
    )
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "trace:database:ft" in out
    assert "trace:database:migrep" in out
    with open(stats_path) as fh:
        cold = json.load(fh)
    assert cold["specs"] == 2
    assert cold["executed"] == 2
    assert cold["from_cache"] == 0

    assert main(args) == 0
    assert "cache" in capsys.readouterr().out
    with open(stats_path) as fh:
        warm = json.load(fh)
    assert warm["executed"] == 0
    assert warm["from_cache"] == 2
    assert warm["cache"]["hits"] == 2


def test_sweep_no_cache(tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    assert main(_sweep_args(
        tmp_path, "--workloads", "database", "--kind", "trace",
        "--policies", "ft", "--no-cache", "--stats-out", str(stats_path),
    )) == 0
    with open(stats_path) as fh:
        stats = json.load(fh)
    assert stats["cache"] is None
    assert stats["executed"] == 1


def test_sweep_trigger_list(tmp_path, capsys):
    assert main(_sweep_args(
        tmp_path, "--workloads", "database", "--kind", "trace",
        "--triggers", "paper,64",
    )) == 0
    out = capsys.readouterr().out
    assert "trace:database:migrep:t64" in out


def test_sweep_writes_timing_artifact(tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main([
        "sweep", "--workloads", "database", "--kind", "trace",
        "--policies", "ft", "--scale", "0.02",
        "--cache-dir", str(tmp_path / "cache"), "--out", str(out_dir),
    ]) == 0
    timing = (out_dir / "sweep_custom_timing.txt").read_text()
    assert "specs:      1" in timing
    assert "wall clock:" in timing


@pytest.mark.parametrize("command, written", [
    (["sweep", "--workloads", "database", "--kind", "trace",
      "--policies", "ft"], ["sweep_custom_timing.txt"]),
    (["figures", "--figure", "fig9"],
     ["fig9_trigger.txt", "sweep_fig9_timing.txt"]),
])
def test_default_out_below_full_scale_leaves_committed_tables(
    tmp_path, capsys, monkeypatch, command, written
):
    # Without --out, a reduced-scale run writes where `repro bench`
    # would at that scale, not over the committed full-scale tables.
    monkeypatch.chdir(tmp_path)
    committed = tmp_path / "benchmarks" / "results"
    committed.mkdir(parents=True)
    for name in written:
        (committed / name).write_text("committed\n")
    assert main([
        *command, "--scale", "0.02", "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    for name in written:
        assert (committed / name).read_text() == "committed\n"
    scaled = committed / "scale-0.02"
    assert sorted(p.name for p in scaled.iterdir()) == written


def test_sweep_without_grid_or_workloads_errors(tmp_path, capsys):
    assert main(_sweep_args(tmp_path)) == 2
    assert "pick a grid" in capsys.readouterr().err


@pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
def test_sweep_signal_finishes_current_task_and_cancels_rest(
    tmp_path, capsys, monkeypatch, signame
):
    import repro.cli as cli

    make_runner = cli._make_sweep_runner
    calls = []

    def interrupt_on_second_spec(spec, attempt):
        calls.append(spec.label())
        if len(calls) == 2:
            os.kill(os.getpid(), getattr(signal, signame))

    def interrupting_runner(args):
        runner, cache = make_runner(args)
        runner.fault_hook = interrupt_on_second_spec
        return runner, cache

    monkeypatch.setattr(cli, "_make_sweep_runner", interrupting_runner)
    stats_path = tmp_path / "stats.json"
    args = _sweep_args(
        tmp_path, "--workloads", "database", "--kind", "trace",
        "--policies", "ft,repl,migrep", "--jobs", "1",
        "--stats-out", str(stats_path),
    )
    assert main(args) == 130
    captured = capsys.readouterr()
    assert "interrupt: finishing the current task" in captured.err
    assert len(calls) == 2
    cancelled = [
        line for line in captured.out.splitlines() if "cancelled" in line
    ]
    assert len(cancelled) == 2  # the table row and the totals line
    assert "trace:database:migrep" in cancelled[0]
    stats = json.loads(stats_path.read_text())
    assert (stats["executed"], stats["cancelled"]) == (2, 1)
    assert stats["interrupted"] is True

    monkeypatch.setattr(cli, "_make_sweep_runner", make_runner)
    assert main(args) == 0
    rerun = json.loads(stats_path.read_text())
    assert (rerun["from_cache"], rerun["executed"]) == (2, 1)


class TestGracefulStop:
    """``cli._graceful_stop``: the signal discipline behind ``sweep``."""

    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    def test_first_signal_calls_on_stop_once(self, capsys, signame):
        from repro.cli import _graceful_stop

        stops = []
        with _graceful_stop(lambda: stops.append(1)):
            os.kill(os.getpid(), getattr(signal, signame))
        assert stops == [1]
        assert capsys.readouterr().err.startswith("interrupt:")

    def test_previous_handlers_restored(self):
        from repro.cli import _graceful_stop

        before = {
            s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)
        }
        with _graceful_stop(lambda: None):
            assert signal.getsignal(signal.SIGINT) is not before[signal.SIGINT]
        after = {
            s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)
        }
        assert after == before

    def test_off_main_thread_is_a_noop(self):
        from repro.cli import _graceful_stop

        before = signal.getsignal(signal.SIGINT)
        seen = []

        def body():
            with _graceful_stop(lambda: None):
                seen.append(signal.getsignal(signal.SIGINT))

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=10)
        assert seen == [before]

    def test_second_signal_kills(self):
        from repro.cli import _graceful_stop

        pid = os.fork()
        if pid == 0:  # child: two SIGTERMs inside the handler's scope
            try:
                with _graceful_stop(lambda: None):
                    os.kill(os.getpid(), signal.SIGTERM)
                    os.kill(os.getpid(), signal.SIGTERM)
            finally:
                os._exit(0)  # only reached if the second signal was eaten
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status)
        assert os.WTERMSIG(status) == signal.SIGTERM


@pytest.mark.parametrize(
    "command", ["serve", "submit", "status", "results", "cancel", "inspect"]
)
def test_retired_service_and_inspect_commands_are_invalid_choices(
    capsys, command
):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def _command_paths(parser, prefix=()):
    """Every (sub)command path the parser accepts, e.g. ("trace", "info")."""
    paths = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                paths.append(prefix + (name,))
                paths.extend(_command_paths(sub, prefix + (name,)))
    return paths


@pytest.mark.parametrize(
    "command", _command_paths(build_parser()), ids="-".join
)
def test_every_command_renders_help(capsys, command):
    # argparse formats help strings only when rendering them, so a bad
    # %-placeholder in any option's help surfaces only here.
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: repro " + " ".join(command))


def test_help_lists_no_service_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    commands = out.split("{", 1)[1].split("}", 1)[0].split(",")
    assert "sweep" in commands
    for retired in ("serve", "submit", "status", "results", "cancel",
                    "inspect"):
        assert retired not in commands


def test_figures_fig9_cold_then_warm(tmp_path, capsys):
    out_dir = tmp_path / "results"
    args = [
        "figures", "--figure", "fig9", "--scale", "0.02",
        "--cache-dir", str(tmp_path / "cache"), "--out", str(out_dir),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Figure 9" in out
    assert (out_dir / "fig9_trigger.txt").exists()
    assert (out_dir / "sweep_fig9_timing.txt").exists()
    cold_table = (out_dir / "fig9_trigger.txt").read_text()

    assert main(args) == 0
    assert "16 from cache" in capsys.readouterr().out
    assert (out_dir / "fig9_trigger.txt").read_text() == cold_table


class TestTraceCommands:
    """The record-once/replay-many store CLI (docs/TRACESTORE.md)."""

    @pytest.fixture
    def trace_store_dir(self, tmp_path, monkeypatch):
        from repro.store import reset_default_store

        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        reset_default_store()
        yield tmp_path
        monkeypatch.undo()
        reset_default_store()

    def test_record_info_verify_replay(self, capsys, trace_store_dir):
        assert main(
            ["trace", "record", "--workload", "database", "--scale", "0.05"]
        ) == 0
        assert "recorded" in capsys.readouterr().out

        assert main(["trace", "info"]) == 0
        out = capsys.readouterr().out
        assert "database" in out and "current" in out

        assert main(
            ["trace", "verify", "--workload", "database", "--scale", "0.05"]
        ) == 0
        assert "PASS" in capsys.readouterr().out

        assert main(
            ["trace", "replay", "--workload", "database", "--scale", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "Mig/Rep" in out and "1 hit(s)" in out

    def test_record_twice_keeps(self, capsys, trace_store_dir):
        args = ["trace", "record", "--workload", "database", "--scale", "0.05"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "kept" in capsys.readouterr().out

    def test_verify_missing_recording_fails(self, capsys, trace_store_dir):
        assert main(
            ["trace", "verify", "--workload", "database", "--scale", "0.05"]
        ) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_verify_corrupt_recording_fails(self, capsys, trace_store_dir):
        from repro.store import default_store
        from repro.workloads import build_spec

        assert main(
            ["trace", "record", "--workload", "database", "--scale", "0.05"]
        ) == 0
        capsys.readouterr()
        path = default_store().path_for(
            build_spec("database", scale=0.05).identity()
        )
        blob = bytearray(path.read_bytes())
        blob[-2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(
            ["trace", "verify", "--workload", "database", "--scale", "0.05"]
        ) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_replay_unrecorded_fails_with_hint(self, capsys, trace_store_dir):
        assert main(
            ["trace", "replay", "--workload", "database", "--scale", "0.05"]
        ) == 1
        assert "repro trace record" in capsys.readouterr().err

    def test_info_empty_store(self, capsys, trace_store_dir):
        assert main(["trace", "info"]) == 0
        assert "no recorded traces" in capsys.readouterr().out

    def test_disabled_store_errors(self, capsys, monkeypatch):
        from repro.store import reset_default_store

        monkeypatch.setenv("REPRO_TRACE_STORE", "0")
        reset_default_store()
        try:
            assert main(["trace", "info"]) == 2
            assert "disabled" in capsys.readouterr().err
        finally:
            monkeypatch.undo()
            reset_default_store()

    def test_sweep_stats_include_trace_store(
        self, capsys, trace_store_dir, tmp_path
    ):
        from repro.workloads import clear_cache

        clear_cache()   # the in-process memo would hide the store
        stats_path = tmp_path / "stats.json"
        assert main(
            ["sweep", "--workloads", "database", "--scale", "0.05",
             "--no-cache", "--out", "", "--stats-out", str(stats_path)]
        ) == 0
        stats = json.loads(stats_path.read_text())
        assert stats["trace_store"]["stores"] + stats["trace_store"]["hits"] >= 1


class TestBenchCommand:
    """Artifact validation and regression gating, without running pytest."""

    def _artifact(self, speedup=4.0):
        from repro.obs.bench import BenchArtifact, BenchMetric

        return BenchArtifact(
            name="demo",
            metrics={
                "speedup.all": BenchMetric(speedup, unit="x", tolerance=0.5),
                "wall_s": BenchMetric(1.0, unit="s", direction="lower"),
            },
            context={"scale": 0.1},
        )

    def _bench_dir(self, tmp_path, **kwargs):
        bench_dir = tmp_path / "benchmarks"
        self._artifact(**kwargs).write(bench_dir / "results")
        return bench_dir

    def test_compare_only_passes_within_band(self, tmp_path, capsys):
        bench_dir = self._bench_dir(tmp_path)
        baseline = tmp_path / "baseline"
        self._artifact(speedup=4.2).write(baseline)
        assert main([
            "bench", "--compare-only", "--bench-dir", str(bench_dir),
            "--compare", str(baseline),
        ]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out
        assert "Bench artifacts" in out

    def test_compare_only_regression_exits_nonzero(self, tmp_path, capsys):
        bench_dir = self._bench_dir(tmp_path, speedup=1.0)
        baseline = tmp_path / "baseline"
        self._artifact(speedup=4.0).write(baseline)  # floor 2.0 > 1.0
        assert main([
            "bench", "--compare-only", "--bench-dir", str(bench_dir),
            "--compare", str(baseline),
        ]) == 1
        captured = capsys.readouterr()
        assert "REGRESS" in captured.out
        assert "demo/speedup.all regressed" in captured.err

    def test_compare_against_single_file(self, tmp_path, capsys):
        bench_dir = self._bench_dir(tmp_path)
        baseline = self._artifact().write(tmp_path / "baseline")
        assert main([
            "bench", "--compare-only", "--bench-dir", str(bench_dir),
            "--compare", str(baseline),
        ]) == 0

    def test_no_artifacts_is_an_error(self, tmp_path, capsys):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        assert main([
            "bench", "--compare-only", "--bench-dir", str(bench_dir),
        ]) == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_unknown_bench_name_is_an_error(self, tmp_path, capsys):
        assert main([
            "bench", "--names", "nosuch", "--bench-dir", str(tmp_path),
        ]) == 2
        assert "no such bench" in capsys.readouterr().err

    def test_scaled_run_leaves_full_scale_results_alone(self, tmp_path,
                                                        capsys):
        # A bench run below scale 1.0 writes results/scale-<s>/ and
        # reads them back; the committed results/ stay byte-identical.
        pytest.importorskip("pytest_benchmark")  # `repro bench` needs it
        import shutil
        from pathlib import Path

        real = Path(__file__).resolve().parent.parent / "benchmarks"
        bench_dir = self._bench_dir(tmp_path)
        for name in ("conftest.py", "_reporting.py"):
            shutil.copy(real / name, bench_dir / name)
        (bench_dir / "bench_stub.py").write_text(
            "def test_stub(report):\n"
            "    run = report('demo')\n"
            "    run.metric('speedup.all', 9.0, unit='x', tolerance=0.5)\n"
            "    run.emit('stub table')\n"
        )
        committed = bench_dir / "results" / "BENCH_demo.json"
        before = committed.read_bytes()
        assert main([
            "bench", "--names", "stub", "--scale", "0.1",
            "--bench-dir", str(bench_dir),
        ]) == 0
        assert committed.read_bytes() == before
        scaled = bench_dir / "results" / "scale-0.1"
        assert (scaled / "BENCH_demo.json").is_file()
        assert (scaled / "demo.txt").read_text() == "stub table\n"
        assert f"Bench artifacts in {scaled}" in capsys.readouterr().out
        # --compare-only reads the directory of the scale it names.
        assert main([
            "bench", "--compare-only", "--quick",
            "--bench-dir", str(bench_dir),
            "--compare", str(committed),
        ]) == 0
        assert "speedup.all" in capsys.readouterr().out

    def test_write_baseline_copies_artifacts(self, tmp_path, capsys):
        bench_dir = self._bench_dir(tmp_path)
        baseline = tmp_path / "new-baseline"
        assert main([
            "bench", "--compare-only", "--bench-dir", str(bench_dir),
            "--write-baseline", str(baseline),
        ]) == 0
        assert (baseline / "BENCH_demo.json").is_file()


class TestHistoryCommands:
    """`repro history` / `repro report` / trend-gated `repro bench`."""

    def _artifact(self, wall=1.0):
        from repro.obs.bench import BenchArtifact, BenchMetric

        return BenchArtifact(
            name="demo",
            metrics={
                "speedup.all": BenchMetric(4.0, unit="x", tolerance=0.5),
                "wall_s": BenchMetric(wall, unit="s", direction="lower"),
            },
            context={"scale": 0.1},
        )

    def _bench_dir(self, tmp_path, wall=1.0):
        bench_dir = tmp_path / "benchmarks"
        self._artifact(wall=wall).write(bench_dir / "results")
        return bench_dir

    def _hist(self, tmp_path):
        return str(tmp_path / "hist")

    def _ingest_runs(self, tmp_path, n=3):
        bench_dir = self._bench_dir(tmp_path)
        for _ in range(n):
            assert main([
                "bench", "--compare-only", "--bench-dir", str(bench_dir),
                "--ingest", "--history-dir", self._hist(tmp_path),
            ]) == 0
        return bench_dir

    def test_identical_reruns_stay_flat(self, tmp_path, capsys):
        bench_dir = self._ingest_runs(tmp_path)
        assert main([
            "bench", "--compare-only", "--bench-dir", str(bench_dir),
            "--compare-history", "--history-dir", self._hist(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "no trend regressions" in out
        assert "flat" in out

    def test_synthetic_slowdown_is_flagged(self, tmp_path, capsys):
        self._ingest_runs(tmp_path)
        slow_dir = tmp_path / "slow"
        self._artifact(wall=2.0).write(slow_dir / "results")
        assert main([
            "bench", "--compare-only", "--bench-dir", str(slow_dir),
            "--compare-history", "--history-dir", self._hist(tmp_path),
        ]) == 1
        captured = capsys.readouterr()
        assert "demo/wall_s: regressed" in captured.err
        assert "regressed" in captured.out

    def test_first_run_never_gates_against_itself(self, tmp_path, capsys):
        """--ingest runs after --compare-history, so the very first run
        judges against an empty window and ingests itself afterwards."""
        bench_dir = self._bench_dir(tmp_path)
        assert main([
            "bench", "--compare-only", "--bench-dir", str(bench_dir),
            "--compare-history", "--ingest",
            "--history-dir", self._hist(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "no-history" in out
        assert "ingested bench/demo" in out

    def test_history_ingest_list_verify(self, tmp_path, capsys):
        artifact = self._artifact().write(tmp_path / "artifacts")
        hist = self._hist(tmp_path)
        assert main([
            "history", "ingest", str(artifact), "--history-dir", hist,
        ]) == 0
        assert "1 ingested, 0 skipped" in capsys.readouterr().out

        assert main(["history", "list", "--history-dir", hist]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "1 run(s) total" in out

        assert main(["history", "verify", "--history-dir", hist]) == 0
        assert "ok (1 run(s))" in capsys.readouterr().out

    def test_history_ingest_degrades_on_garbage(self, tmp_path, capsys):
        garbage = tmp_path / "noise.json"
        garbage.write_text("{not json")
        hist = self._hist(tmp_path)
        assert main([
            "history", "ingest", str(garbage), "--history-dir", hist,
        ]) == 1
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "Traceback" not in captured.err
        # A good artifact alongside garbage still lands; exit 0.
        good = self._artifact().write(tmp_path / "artifacts")
        assert main([
            "history", "ingest", str(garbage), str(good),
            "--history-dir", hist,
        ]) == 0
        assert "1 ingested, 1 skipped" in capsys.readouterr().out

    def test_report_json_and_html(self, tmp_path, capsys):
        self._ingest_runs(tmp_path, n=2)
        capsys.readouterr()  # drain the ingest chatter
        html_path = tmp_path / "report.html"
        assert main([
            "report", "--json", "--out", str(html_path),
            "--history-dir", self._hist(tmp_path),
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["history"]["total_runs"] == 2
        assert "wall_s" in summary["kinds"]["bench"]["demo"]
        html_text = html_path.read_text()
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<svg" in html_text

    def test_report_without_outputs_errors(self, tmp_path, capsys):
        assert main([
            "report", "--history-dir", self._hist(tmp_path),
        ]) == 2
        assert "--out" in capsys.readouterr().err

    def test_sweep_history_ingest(self, tmp_path, capsys):
        hist = self._hist(tmp_path)
        argv = _sweep_args(
            tmp_path, "--workloads", "database", "--kind", "trace",
            "--policies", "ft", "--history-ingest", "--history-dir", hist,
        )
        assert main(argv) == 0
        assert "ingested sweep/" in capsys.readouterr().out
        assert main(["history", "list", "--kind", "sweep",
                     "--history-dir", hist]) == 0
        assert "1 run(s) total" in capsys.readouterr().out


class TestProfileOut:
    """``--profile-out`` times the command's layers (repro.obs.layers)."""

    @staticmethod
    def load(path):
        from repro.obs.prof import RunReport

        with open(path) as fh:
            return RunReport.from_dict(json.load(fh))

    @pytest.mark.parametrize("command, label, busy", [
        (["run"], "run/database", {"sim", "machine.memory", "kernel.vm"}),
        (["tracesim"], "tracesim/database", {"trace.replay", "policy"}),
        (["ptsim"], "ptsim/database", {"ptpol", "trace.tlbsim"}),
    ])
    def test_command_writes_a_layer_report(
        self, tmp_path, capsys, command, label, busy
    ):
        from repro.obs.layers import LAYERS

        path = tmp_path / "profile.json"
        assert main([
            *command, "--workload", "database", "--scale", "0.05",
            "--profile-out", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"Layer profile: {label}" in out
        assert f"wrote profile ({len(LAYERS)} layers) to {path}" in out
        report = self.load(path)
        assert report.label == label
        assert report.wall_ns > 0
        assert report.peak_rss > 0
        assert set(report.layers) == set(LAYERS)
        assert {name for name, row in report.layers.items()
                if row["calls"]} >= busy
        shares = sum(row["share"] for row in report.layers.values())
        assert shares == pytest.approx(1.0)
        assert report.context["workload"] == "database"

    def test_run_profile_times_the_full_system_layers(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.workloads import load_workload

        # A fresh process, as the CI smoke step runs it.  Inside the
        # full test session one run charged machine.memory 72 ms (16 ms
        # standalone), enough to outrank sim in this 0.2 s profile.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p]
        )
        path = tmp_path / "profile.json"
        metrics_path = tmp_path / "metrics.json"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "run",
             "--workload", "engineering", "--scale", "0.05",
             "--profile-out", str(path), "--metrics-out", str(metrics_path)],
            env=env, check=True, capture_output=True,
        )
        layers = self.load(path).layers
        assert max(layers, key=lambda name: layers[name]["share"]) == "sim"
        # Each leg faults every (process, page) once, in runs of first
        # touches (so fewer VM calls than faults), and observes only the
        # records whose count reached the trigger.
        _, trace = load_workload("engineering", scale=0.05, seed=0)
        user = ~trace.is_kernel
        first_touches = len(set(zip(trace.process[user].tolist(),
                                    trace.page[user].tolist())))
        metrics = json.loads(metrics_path.read_text())
        assert metrics["vm.faults"] == first_touches
        assert 0 < layers["kernel.vm"]["calls"] < 2 * first_touches
        assert 0 < layers["machine.directory"]["calls"] < user.sum()
        # Both legs ran here: a profiled run never takes a cached result.
        assert layers["sim"]["calls"] == 2
        for name in ("machine.memory", "machine.directory", "kernel.vm",
                     "kernel.pager"):
            assert layers[name]["calls"] > 0, name
        for name in ("trace.replay", "trace.tlbsim", "ptpol"):
            assert layers[name]["calls"] == 0, name

    def test_wrappers_come_off_after_the_command(self, tmp_path, capsys):
        from repro.sim.simulator import SystemSimulator

        run = vars(SystemSimulator)["run"]
        assert main([
            "run", "--workload", "database", "--scale", "0.05",
            "--profile-out", str(tmp_path / "p.json"),
        ]) == 0
        assert vars(SystemSimulator)["run"] is run

    def test_no_wrapper_without_the_flag(self, monkeypatch, capsys):
        from repro.obs.layers import LayerTrace

        def refuse(self):
            raise AssertionError("layer wrappers installed")

        monkeypatch.setattr(LayerTrace, "__enter__", refuse)
        assert main([
            "tracesim", "--workload", "database", "--scale", "0.05",
        ]) == 0
        assert "Layer profile" not in capsys.readouterr().out

    def test_parallel_run_stays_in_process_when_profiled(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.exp.runner as runner

        monkeypatch.setattr(
            runner, "ProcessPoolExecutor",
            _forbid("profiled run left the process"),
        )
        path = tmp_path / "p.json"
        assert main([
            "run", "--workload", "database", "--scale", "0.05",
            "--jobs", "2", "--profile-out", str(path),
        ]) == 0
        assert self.load(path).layers["sim"]["calls"] == 2

    def test_history_ingests_old_span_report(self, tmp_path, capsys):
        # A --profile-out report from the span profiler, whose older
        # spans also carried tracemalloc ``alloc_bytes``.
        from repro.sim.results import RESULT_SCHEMA_VERSION

        data = {
            "kind": "report", "schema_version": RESULT_SCHEMA_VERSION,
            "label": "run/splash", "command": "run --workload splash",
            "wall_ns": 1000, "peak_rss": 4096, "metrics": {}, "context": {},
            "spans": [{
                "name": "sim.run", "path": "sim.run", "start_ns": 0,
                "wall_ns": 1000, "depth": 0, "items": 10,
                "alloc_bytes": 8192,
            }],
        }
        path = tmp_path / "old-profile.json"
        path.write_text(json.dumps(data))
        hist = str(tmp_path / "hist")
        assert main(["history", "ingest", str(path),
                     "--history-dir", hist]) == 0
        captured = capsys.readouterr()
        assert "1 ingested, 0 skipped" in captured.out
        assert "warning:" not in captured.err
        assert main(["history", "list", "--kind", "report",
                     "--history-dir", hist]) == 0
        assert "run/splash" in capsys.readouterr().out

    def test_history_records_each_layer_self_time(self, tmp_path, capsys):
        from repro.obs.history import HistoryStore

        path = tmp_path / "profile.json"
        assert main([
            "ptsim", "--workload", "database", "--scale", "0.05",
            "--profile-out", str(path),
        ]) == 0
        hist = tmp_path / "hist"
        assert main(["history", "ingest", str(path),
                     "--history-dir", str(hist)]) == 0
        names = HistoryStore(directory=hist).metric_names(
            "report", "ptsim/database"
        )
        assert "layer.ptpol.self_s" in names
        assert "spans" not in names

    def test_trace_replay_profile_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "store"))
        assert main([
            "trace", "record", "--workload", "database", "--scale", "0.05",
        ]) == 0
        path = tmp_path / "profile.json"
        assert main([
            "trace", "replay", "--workload", "database", "--scale", "0.05",
            "--profile-out", str(path),
        ]) == 0
        assert "Layer profile: trace-replay/database" in (
            capsys.readouterr().out
        )
        report = self.load(path)
        assert report.label == "trace-replay/database"
        assert report.context["policy"] == "migrep"
        assert report.layers["other"]["self_s"] > 0
        assert report.metrics  # replay stats snapshot rides along

    def test_trace_replay_times_the_streamed_replay(
        self, tmp_path, capsys, monkeypatch
    ):
        # Streamed replay enters through simulate_dynamic, the
        # trace.replay boundary, so the table shows it once.
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "store"))
        assert main([
            "trace", "record", "--workload", "database", "--scale", "0.05",
        ]) == 0
        path = tmp_path / "profile.json"
        assert main([
            "trace", "replay", "--workload", "database", "--scale", "0.05",
            "--profile-out", str(path),
        ]) == 0
        capsys.readouterr()
        replay = self.load(path).layers["trace.replay"]
        assert replay["calls"] == 1
        assert replay["self_s"] > 0


@pytest.fixture(scope="module")
def analyze_logs(tmp_path_factory):
    """Miss-traced logs of the traced tracesim leg: the command's own
    (production) log, and the scalar reference core's log of the same
    run."""
    from repro.exp.spec import params_for
    from repro.obs.export import JsonlSink
    from repro.obs.tracer import Tracer
    from repro.policy.parameters import PolicyParameters
    from repro.trace.policysim import (
        PolicySimConfig,
        ReferenceTracePolicySimulator,
    )
    from repro.workloads import load_workload

    tmp = tmp_path_factory.mktemp("cli-analyze")
    production = str(tmp / "production.jsonl")
    assert main([
        "tracesim", "--workload", "database", "--scale", "0.05",
        "--trace-out", production, "--trace-misses",
    ]) == 0
    reference = str(tmp / "reference.jsonl")
    spec, trace = load_workload("database", scale=0.05, seed=0)
    tracer = Tracer(sinks=[JsonlSink(reference)])
    ReferenceTracePolicySimulator(
        PolicySimConfig(n_cpus=spec.n_cpus, n_nodes=spec.n_nodes),
        tracer=tracer,
    ).simulate_dynamic(
        trace.user_only(),
        PolicyParameters.base(
            trigger_threshold=params_for("database", None).trigger_threshold
        ),
        label="Mig/Rep",
    )
    tracer.close()
    return {"production": production, "reference": reference}


class TestAnalyzeCommand:
    def test_tracesim_reports_reconciliation(self, tmp_path, capsys):
        path = str(tmp_path / "mr.jsonl")
        assert main([
            "tracesim", "--workload", "database", "--scale", "0.02",
            "--trace-out", path, "--trace-misses",
        ]) == 0
        assert "attribution reconciled:" in capsys.readouterr().out

    def test_run_reports_reconciliation(self, tmp_path, capsys):
        path = str(tmp_path / "sys.jsonl")
        assert main([
            "run", "--workload", "database", "--scale", "0.02",
            "--trace-out", path, "--trace-misses",
        ]) == 0
        assert "attribution reconciled:" in capsys.readouterr().out

    def test_summary_and_top_pages(self, analyze_logs, capsys):
        assert main(["analyze", analyze_logs["production"]]) == 0
        out = capsys.readouterr().out
        assert "stall:" in out
        assert "actions:" in out
        assert "page" in out

    def test_ledger(self, analyze_logs, capsys):
        assert main(["analyze", analyze_logs["production"], "--ledger"]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out

    def test_nodes(self, analyze_logs, capsys):
        assert main(["analyze", analyze_logs["production"], "--nodes"]) == 0
        assert "resident" in capsys.readouterr().out

    def test_page_lifecycle(self, analyze_logs, capsys):
        events = read_events(analyze_logs["production"])
        page = next(e.page for e in events if e.KIND == "migration")
        assert main([
            "analyze", analyze_logs["production"], "--page", str(page),
        ]) == 0
        assert f"page {page}:" in capsys.readouterr().out

    def test_json_series_and_chrome_outputs(self, analyze_logs, tmp_path,
                                            capsys):
        json_path = tmp_path / "attrib.json"
        series_path = tmp_path / "series.jsonl"
        chrome_path = tmp_path / "counters.json"
        assert main([
            "analyze", analyze_logs["production"],
            "--json", str(json_path),
            "--series-out", str(series_path),
            "--chrome", str(chrome_path),
        ]) == 0
        data = json.loads(json_path.read_text())
        assert data["kind"] == "attribution"
        assert data["schema_version"] == 3
        assert data["totals"]["misses"] > 0
        rows = [json.loads(l) for l in series_path.read_text().splitlines()]
        assert rows and "local_ratio" in rows[0]
        chrome = json.loads(chrome_path.read_text())
        assert {"i", "C"} <= {c["ph"] for c in chrome["traceEvents"]}

    def test_diff_reference_vs_production_is_identical(self, analyze_logs,
                                                        capsys):
        production, reference = (
            analyze_logs["production"], analyze_logs["reference"]
        )
        # Compared as written: the two logs are the same bytes.
        with open(production, "rb") as a, open(reference, "rb") as b:
            assert a.read() == b.read()
        assert main(["analyze", "diff", production, reference]) == 0
        out = capsys.readouterr().out
        assert "identical at page granularity" in out
        assert "0 divergent" in out

    def test_diff_divergent_runs_exit_one(self, analyze_logs, tmp_path,
                                          capsys):
        other = str(tmp_path / "other.jsonl")
        assert main([
            "tracesim", "--workload", "database", "--scale", "0.05",
            "--trigger", "64", "--trace-out", other, "--trace-misses",
        ]) == 0
        capsys.readouterr()
        assert main([
            "analyze", "diff", analyze_logs["production"], other,
        ]) == 1
        assert "divergent" in capsys.readouterr().out

    def test_diff_wrong_arity_is_usage_error(self, analyze_logs, capsys):
        assert main(["analyze", "diff", analyze_logs["production"]]) == 2
        assert "diff takes exactly two logs" in capsys.readouterr().err

    def test_too_many_logs_is_usage_error(self, analyze_logs, capsys):
        assert main([
            "analyze", analyze_logs["production"], analyze_logs["reference"],
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_gzip_input(self, analyze_logs, tmp_path, capsys):
        import gzip as gz

        path = tmp_path / "scalar.jsonl.gz"
        with open(analyze_logs["production"], "rb") as src:
            with gz.open(path, "wb") as dst:
                dst.write(src.read())
        assert main(["analyze", str(path)]) == 0
        assert "stall:" in capsys.readouterr().out
        assert main(["analyze", str(path), "--check"]) == 0

    def test_time_window(self, analyze_logs, capsys):
        assert main([
            "analyze", analyze_logs["production"], "--since", "0",
            "--until", "1e9",
        ]) == 0
        capsys.readouterr()
        assert main([
            "analyze", analyze_logs["production"], "--intervals", "--since", "0",
            "--until", "1e9",
        ]) == 0

    def test_malformed_line_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"hot-page","t":1}\nnot json\n')
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "bad.jsonl:2" in err
        assert "Traceback" not in err

    def test_truncated_gzip_is_one_line_error(self, tmp_path, capsys):
        import gzip as gz

        path = tmp_path / "trunc.jsonl.gz"
        with gz.open(path, "wt", encoding="utf-8") as fh:
            fh.write('{"kind":"hot-page","t":1}\n' * 200)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "gzip" in err

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


def test_sweep_retries_flag():
    args = build_parser().parse_args(
        ["sweep", "--grid", "fig9", "--retries", "3"]
    )
    assert args.retries == 3
