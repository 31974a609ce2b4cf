"""The run-history store: schema, ingest, queries, trend gating."""

import json
import math
import sqlite3
import threading

import pytest

from repro.cli import main
from repro.common.errors import ResultSchemaError
from repro.obs.bench import BenchArtifact
from repro.obs.history import (
    DEFAULT_MIN_BAND,
    HISTORY_SCHEMA_VERSION,
    RUN_KINDS,
    HistoryStore,
    MetricSample,
    TrendStats,
    compare_history,
    format_trends,
    trend_delta,
    trend_regressions,
)
from repro.obs.prof import RunReport


def store_in(tmp_path):
    return HistoryStore(directory=tmp_path / "hist", token="tok")


def bench_artifact(name="replay_fastpath", wall=1.0):
    artifact = BenchArtifact(name=name, context={"python": "3"})
    artifact.add("wall_s.scalar", wall, unit="s", direction="lower")
    artifact.add("speedup.all", 3.0, unit="x", direction="higher",
                 tolerance=0.25)
    return artifact


class TestSchema:
    def test_fresh_db_gets_current_version(self, tmp_path):
        store = store_in(tmp_path)
        assert store.schema_version() == HISTORY_SCHEMA_VERSION
        assert store.path.exists()
        assert store.count() == 0

    def test_reopen_is_idempotent(self, tmp_path):
        store_in(tmp_path).ingest(
            "bench", "x", [MetricSample("m", 1.0)], t=1.0
        )
        assert store_in(tmp_path).count() == 1

    def test_unknown_schema_version_refuses_to_open(self, tmp_path):
        store = store_in(tmp_path)
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute(
                "UPDATE meta SET value='99' WHERE key='schema_version'"
            )
            conn.commit()
        with pytest.raises(ResultSchemaError, match="schema version"):
            store_in(tmp_path)


class TestIngest:
    def test_ingest_and_get_run(self, tmp_path):
        store = store_in(tmp_path)
        run_id = store.ingest(
            "bench", "b",
            [MetricSample("m", 2.5, unit="s", direction="lower")],
            t=100.0, context={"k": "v"},
        )
        run = store.get_run(run_id)
        assert run.kind == "bench"
        assert run.name == "b"
        assert run.code_token == "tok"
        assert run.t == 100.0
        assert run.context == {"k": "v"}
        assert run.n_metrics == 1

    def test_rejects_unknown_kind_and_empty(self, tmp_path):
        store = store_in(tmp_path)
        with pytest.raises(ResultSchemaError, match="unknown run kind"):
            store.ingest("nope", "b", [MetricSample("m", 1.0)])
        with pytest.raises(ResultSchemaError, match="no finite"):
            store.ingest("bench", "b", [])
        with pytest.raises(ResultSchemaError, match="non-empty name"):
            store.ingest("bench", "", [MetricSample("m", 1.0)])

    def test_non_finite_samples_are_dropped(self, tmp_path):
        store = store_in(tmp_path)
        run_id = store.ingest(
            "bench", "b",
            [MetricSample("bad", math.nan), MetricSample("ok", 1.0)],
        )
        assert store.get_run(run_id).n_metrics == 1
        with pytest.raises(ResultSchemaError, match="no finite"):
            store.ingest("bench", "b", [MetricSample("bad", math.inf)])

    def test_ingest_bench_artifact(self, tmp_path):
        store = store_in(tmp_path)
        run_id = store.ingest_bench(bench_artifact().to_dict(), t=5.0)
        run = store.get_run(run_id)
        assert run.kind == "bench"
        assert run.name == "replay_fastpath"
        assert run.n_metrics == 2
        meta = store.metric_meta("bench", "replay_fastpath")
        assert meta["wall_s.scalar"] == ("s", "lower")
        assert meta["speedup.all"] == ("x", "higher")

    def test_ingest_report(self, tmp_path):
        report = RunReport.capture(
            "run-1", 1_000_000,
            {"sim": {"calls": 2.0, "self_s": 0.75, "share": 0.75},
             "other": {"calls": 0.0, "self_s": 0.25, "share": 0.25}},
            metrics={"extra": 7.0},
        )
        store = store_in(tmp_path)
        run_id = store.ingest_report(report.to_dict(), t=9.0)
        values = {
            m: store.series("report", "run-1", m)[-1][1]
            for m in store.metric_names("report", "run-1")
        }
        assert values["extra"] == 7.0
        assert "wall_ns" in values
        assert "peak_rss_bytes" in values
        assert "cpu_user_s" in values
        assert "cpu_sys_s" in values
        assert values["layer.sim.self_s"] == 0.75
        assert values["layer.other.self_s"] == 0.25
        assert "spans" not in values
        meta = store.metric_meta("report", "run-1")
        assert meta["layer.sim.self_s"] == ("s", "lower")
        assert store.get_run(run_id).kind == "report"

    def test_ingest_sweep_stats(self, tmp_path):
        store = store_in(tmp_path)
        stats = {
            "specs": 4, "executed": 2, "from_cache": 2, "wall_s": 1.5,
            "cache": {"hits": 2, "misses": 2},
            "non_numeric": "ignored",
        }
        store.ingest_sweep_stats(stats, name="fig9", t=1.0)
        metrics = store.metric_names("sweep", "fig9")
        assert "cache.hits" in metrics
        assert "executed" in metrics
        assert "non_numeric" not in metrics
        with pytest.raises(ResultSchemaError, match="specs"):
            store.ingest_sweep_stats({"executed": 1}, name="x")

    def test_concurrent_ingest_is_atomic(self, tmp_path):
        store = store_in(tmp_path)
        errors = []

        def writer(n):
            try:
                for i in range(10):
                    store.ingest(
                        "bench", f"b{n}",
                        [MetricSample("m", float(i))], t=float(i),
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(n,)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.count() == 40
        assert store.verify() == []


class TestIngestFile:
    def test_bench_file(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(bench_artifact().to_dict()))
        run_id, message = store_in(tmp_path).ingest_file(path)
        assert run_id is not None
        assert "bench/replay_fastpath" in message

    def test_unreadable_and_unknown_never_raise(self, tmp_path):
        store = store_in(tmp_path)
        missing = tmp_path / "missing.json"
        run_id, message = store.ingest_file(missing)
        assert run_id is None
        assert str(missing) in message

        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        run_id, message = store.ingest_file(garbage)
        assert run_id is None
        assert "unreadable" in message

        alien = tmp_path / "alien.json"
        alien.write_text(json.dumps({"hello": "world"}))
        run_id, message = store.ingest_file(alien)
        assert run_id is None
        assert "not a recognised artifact" in message

    def test_bad_schema_version_degrades_to_warning(self, tmp_path):
        data = bench_artifact().to_dict()
        data["schema_version"] = 999
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps(data))
        run_id, message = store_in(tmp_path).ingest_file(path)
        assert run_id is None
        assert str(path) in message
        # One line, path:reason — printable as-is by callers.
        assert "\n" not in message

    def test_sweep_stats_file_sniffed_by_shape(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text(json.dumps({"specs": 2, "executed": 1, "wall_s": 1.0}))
        store = store_in(tmp_path)
        run_id, _ = store.ingest_file(path)
        assert store.get_run(run_id).kind == "sweep"
        assert store.get_run(run_id).name == "stats"


class TestQueries:
    def test_series_ordering_and_limit(self, tmp_path):
        store = store_in(tmp_path)
        for i in range(5):
            store.ingest(
                "bench", "b", [MetricSample("m", float(i))], t=float(i)
            )
        assert store.series("bench", "b", "m") == [
            (0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)
        ]
        # limit keeps the most recent N, still oldest-first.
        assert store.series("bench", "b", "m", limit=2) == [
            (3.0, 3.0), (4.0, 4.0)
        ]

    def test_runs_newest_first_and_filters(self, tmp_path):
        store = store_in(tmp_path)
        store.ingest("bench", "a", [MetricSample("m", 1.0)], t=1.0)
        store.ingest("sweep", "g", [MetricSample("specs", 2.0)], t=2.0)
        assert [r.kind for r in store.runs()] == ["sweep", "bench"]
        assert [r.name for r in store.runs(kind="bench")] == ["a"]
        assert store.names("bench") == ["a"]
        assert store.names("report") == []

    @pytest.mark.parametrize("kind", RUN_KINDS)
    def test_every_run_kind_lists_alone(self, tmp_path, capsys, kind):
        store = store_in(tmp_path)
        for other in RUN_KINDS:
            store.ingest(other, f"{other}-run", [MetricSample("m", 1.0)])
        assert store.names(kind) == [f"{kind}-run"]
        assert [r.kind for r in store.runs(kind=kind)] == [kind]
        assert main([
            "history", "list", "--kind", kind,
            "--history-dir", str(store.directory),
        ]) == 0
        out = capsys.readouterr().out
        listed = [o for o in RUN_KINDS if f"{o}-run" in out]
        assert listed == [kind]

    def test_list_rejects_the_retired_serve_kind(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "history", "list", "--kind", "serve",
                "--history-dir", str(tmp_path / "hist"),
            ])
        assert exc.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err

class TestVerify:
    def test_clean_db(self, tmp_path):
        store = store_in(tmp_path)
        store.ingest("bench", "b", [MetricSample("m", 1.0)])
        assert store.verify() == []

    # 'serve' rows were written by the retired sweep service; databases
    # that still hold them must open, list and report like any other.
    @pytest.mark.parametrize("kind", ["alien", "serve"])
    def test_flags_orphans_bad_kinds_and_empty_runs(
        self, tmp_path, capsys, kind
    ):
        store = store_in(tmp_path)
        store.ingest("bench", "b", [MetricSample("m", 1.0)])
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute(
                "INSERT INTO samples (run_id, metric, value) "
                "VALUES (999, 'orphan', 1.0)"
            )
            conn.execute(
                "INSERT INTO runs (kind, name, code_token, t, context) "
                "VALUES (?, 'x', 't', 1.0, 'not-json')",
                (kind,),
            )
            conn.commit()
        problems = store.verify()
        assert [p for p in problems if kind in p] == [
            f"unknown run kind {kind!r}"
        ]
        joined = " | ".join(problems)
        assert "orphaned sample" in joined
        assert "without metric rows" in joined
        assert "not JSON" in joined

        history_dir = str(store.directory)
        assert main(["history", "list", "--history-dir", history_dir]) == 0
        assert kind in capsys.readouterr().out
        assert main(["report", "--json", "--history-dir", history_dir]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["history"]["total_runs"] == 2
        assert main(["history", "verify", "--history-dir", history_dir]) == 1
        err = capsys.readouterr().err
        assert f"unknown run kind {kind!r}" in err
        assert "Traceback" not in err


class TestTrendMath:
    def test_band_floor_is_tolerance_or_default(self):
        stats = TrendStats.from_values([1.0, 1.0, 1.0])
        assert stats.band == DEFAULT_MIN_BAND
        stats = TrendStats.from_values([1.0, 1.0, 1.0], tolerance=0.1)
        assert stats.band == 0.1

    def test_noisy_history_widens_band(self):
        values = [1.0, 2.0, 0.5, 3.0, 1.5]
        stats = TrendStats.from_values(values, tolerance=0.05)
        assert stats.band > 0.05  # MAD-driven widening

    def test_ewma_tracks_recent_values(self):
        stats = TrendStats.from_values([1.0] * 9 + [2.0])
        assert stats.ewma > 1.0
        assert stats.median == 1.0

    def test_flat_improved_regressed_lower_is_better(self):
        history = [1.0, 1.0, 1.0, 1.0]
        assert trend_delta("b", "m", 1.1, history,
                           direction="lower").verdict == "flat"
        regressed = trend_delta("b", "m", 2.0, history, direction="lower")
        assert regressed.verdict == "regressed"
        assert regressed.regressed
        assert regressed.effect == pytest.approx(-1.0)
        improved = trend_delta("b", "m", 0.3, history, direction="lower")
        assert improved.verdict == "improved"
        assert improved.effect == pytest.approx(0.7)

    def test_higher_is_better_flips_sign(self):
        history = [2.0, 2.0, 2.0]
        assert trend_delta("b", "m", 1.0, history,
                           direction="higher").verdict == "regressed"
        assert trend_delta("b", "m", 4.0, history,
                           direction="higher").verdict == "improved"

    def test_no_history_is_informational(self):
        delta = trend_delta("b", "m", 1.0, [])
        assert delta.verdict == "no-history"
        assert not delta.regressed
        assert "no history" in delta.verdict_line()

    def test_non_finite_current_regresses(self):
        delta = trend_delta("b", "m", math.nan, [1.0, 1.0])
        assert delta.verdict == "regressed"

    def test_zero_median_history(self):
        assert trend_delta("b", "m", 0.0, [0.0, 0.0]).verdict == "flat"
        assert trend_delta(
            "b", "m", 5.0, [0.0, 0.0], direction="lower"
        ).verdict == "regressed"

    def test_verdict_line_and_table(self):
        delta = trend_delta("b", "wall", 2.0, [1.0, 1.0], direction="lower")
        line = delta.verdict_line()
        assert "b/wall: regressed" in line
        assert "effect" in line
        table = format_trends([delta, trend_delta("b", "new", 1.0, [])])
        assert "regressed" in table
        assert "no-history" in table
        assert format_trends([]).endswith("(nothing to compare)")

    def test_to_dict_is_json_safe(self):
        delta = trend_delta("b", "m", 1.0, [1.0, 2.0])
        json.dumps(delta.to_dict())


class TestCompareHistory:
    def test_gates_against_ingested_window(self, tmp_path):
        store = store_in(tmp_path)
        for i in range(3):
            store.ingest_bench(bench_artifact(wall=1.0).to_dict(), t=float(i))
        # Unchanged artifacts: everything flat, nothing regressed.
        deltas = compare_history(
            {"replay_fastpath": bench_artifact(wall=1.0)}, store
        )
        assert {d.verdict for d in deltas} == {"flat"}
        assert trend_regressions(deltas) == []
        # A 2x slowdown in one metric is flagged.
        deltas = compare_history(
            {"replay_fastpath": bench_artifact(wall=2.0)}, store
        )
        failed = trend_regressions(deltas)
        assert [d.metric for d in failed] == ["wall_s.scalar"]

    def test_current_run_never_gates_against_itself(self, tmp_path):
        store = store_in(tmp_path)
        artifact = bench_artifact(wall=5.0)
        deltas = compare_history({"replay_fastpath": artifact}, store)
        assert {d.verdict for d in deltas} == {"no-history"}
        store.ingest_bench(artifact.to_dict())
        deltas = compare_history(
            {"replay_fastpath": bench_artifact(wall=5.0)}, store
        )
        assert {d.verdict for d in deltas} == {"flat"}

    def test_window_limits_lookback(self, tmp_path):
        store = store_in(tmp_path)
        # Old slow era, then a fast era: a small window only sees fast.
        for i in range(5):
            store.ingest_bench(bench_artifact(wall=10.0).to_dict(), t=float(i))
        for i in range(5, 10):
            store.ingest_bench(bench_artifact(wall=1.0).to_dict(), t=float(i))
        deltas = compare_history(
            {"replay_fastpath": bench_artifact(wall=2.0)}, store, window=3
        )
        wall = next(d for d in deltas if d.metric == "wall_s.scalar")
        assert wall.stats.median == pytest.approx(1.0)
        assert wall.verdict == "regressed"
