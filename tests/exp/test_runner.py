"""The sweep runner: determinism, parallelism, retries.

The fault hooks live at module level so they stay picklable for the
process-pool path.
"""

import json
import multiprocessing

import pytest

from repro.exp.cache import ResultCache
from repro.exp.runner import SweepRunner, derive_seed, execute_spec
from repro.exp.spec import ExperimentSpec, sweep

SCALE = 0.02


def trace_specs(n=4):
    """Small, cheap trace-driven specs (one per workload)."""
    return sweep(
        ("database", "splash", "raytrace", "engineering")[:n],
        kinds=("trace",), policies=("ft",), scales=(SCALE,),
    )


def canonical(results):
    return [
        json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":"))
        for r in results
    ]


def fail_first(spec, attempt):
    if attempt == 0:
        raise RuntimeError("injected fault")


def always_fail(spec, attempt):
    raise RuntimeError("persistent fault")


class TestExecuteSpec:
    def test_system_and_trace_kinds(self):
        system = execute_spec(
            ExperimentSpec(workload="database", scale=SCALE, policy="ft")
        )
        assert system.to_dict()["kind"] == "system"
        trace = execute_spec(
            ExperimentSpec(
                workload="database", scale=SCALE, kind="trace", policy="ft"
            )
        )
        assert trace.to_dict()["kind"] == "trace"
        assert trace.total_misses > 0

    def test_deterministic(self):
        spec = ExperimentSpec(
            workload="database", scale=SCALE, kind="trace", policy="migrep"
        )
        assert canonical([execute_spec(spec)]) == canonical([execute_spec(spec)])

    def test_competitive_is_a_trace_policy(self):
        from repro.common.errors import ConfigurationError
        from repro.trace.policysim import PolicySimConfig, TracePolicySimulator
        from repro.workloads import load_workload

        spec = ExperimentSpec(
            workload="database", scale=SCALE, kind="trace",
            policy="competitive",
        )
        workload, trace = load_workload("database", scale=SCALE)
        direct = TracePolicySimulator(
            PolicySimConfig(n_cpus=workload.n_cpus, n_nodes=workload.n_nodes)
        ).simulate_competitive(trace.user_only())
        assert direct.label == "Competitive"
        assert canonical([execute_spec(spec)]) == canonical([direct])
        assert spec.dynamic
        with pytest.raises(ConfigurationError):
            spec.replace(kind="system")

    @pytest.mark.parametrize("kind, policy", [
        ("system", "migrep"), ("trace", "migrep"), ("trace", "coplace"),
    ])
    def test_tracer_records_the_run_and_leaves_the_result(self, kind, policy):
        from repro.obs.tracer import Tracer

        spec = ExperimentSpec(
            workload="database", scale=SCALE, kind=kind, policy=policy
        )
        tracer = Tracer()
        traced = execute_spec(spec, tracer=tracer)
        assert tracer.emitted > 0
        assert canonical([traced]) == canonical([execute_spec(spec)])

    def test_derive_seed_is_per_spec(self):
        a = ExperimentSpec(workload="database")
        assert derive_seed(a) == derive_seed(a)
        assert derive_seed(a) != derive_seed(a.replace(seed=1))


class TestSerial:
    def test_runs_all_specs_in_order(self):
        specs = trace_specs(2)
        report = SweepRunner(jobs=1).run(specs)
        assert [o.spec for o in report.outcomes] == specs
        assert report.failures == []
        assert report.executed == 2
        assert report.from_cache == 0
        assert all(o.attempts == 1 for o in report.outcomes)

    def test_progress_callback(self):
        seen = []
        runner = SweepRunner(
            jobs=1, progress=lambda o, done, total: seen.append((done, total))
        )
        runner.run(trace_specs(2))
        assert seen == [(1, 2), (2, 2)]

    def test_retry_recovers(self):
        report = SweepRunner(jobs=1, retries=1, fault_hook=fail_first).run(
            trace_specs(1)
        )
        outcome = report.outcomes[0]
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.error is None

    def test_retries_exhausted(self):
        report = SweepRunner(jobs=1, retries=1, fault_hook=always_fail).run(
            trace_specs(1)
        )
        outcome = report.outcomes[0]
        assert not outcome.ok
        assert outcome.attempts == 2
        assert "persistent fault" in outcome.error
        assert report.failures == [outcome]


class TestCacheIntegration:
    def test_second_run_fully_cached(self, tmp_path):
        cache = ResultCache(directory=tmp_path, token="t")
        specs = trace_specs(2)
        cold = SweepRunner(cache=cache, jobs=1).run(specs)
        assert cold.executed == 2 and cold.from_cache == 0

        warm = SweepRunner(
            cache=ResultCache(directory=tmp_path, token="t"), jobs=1
        ).run(specs)
        assert warm.executed == 0 and warm.from_cache == 2
        assert canonical(warm.results) == canonical(cold.results)

    def test_failed_specs_not_cached(self, tmp_path):
        cache = ResultCache(directory=tmp_path, token="t")
        SweepRunner(
            cache=cache, jobs=1, retries=0, fault_hook=always_fail
        ).run(trace_specs(1))
        assert len(cache) == 0


class TestParallel:
    def test_matches_serial_byte_for_byte(self):
        specs = trace_specs(4)
        serial = SweepRunner(jobs=1).run(specs)
        parallel = SweepRunner(jobs=4).run(specs)
        assert parallel.failures == []
        assert parallel.jobs == 4
        assert canonical(parallel.results) == canonical(serial.results)

    def test_pool_failure_retried_serially(self):
        report = SweepRunner(jobs=2, retries=1, fault_hook=fail_first).run(
            trace_specs(2)
        )
        assert report.failures == []
        assert all(o.attempts == 2 for o in report.outcomes)

    def test_no_per_task_timeout(self):
        # A pool worker cannot be interrupted mid-task, so a timeout
        # could only discard a result the pool still waited for.
        from repro.cli import build_parser

        with pytest.raises(TypeError):
            SweepRunner(jobs=2, timeout_s=0.05)
        for command in ("sweep", "figures"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--timeout", "7"])

    def test_parallel_populates_shared_cache(self, tmp_path):
        cache = ResultCache(directory=tmp_path, token="t")
        specs = trace_specs(2)
        report = SweepRunner(cache=cache, jobs=2).run(specs)
        assert report.failures == []
        assert len(cache) == 2


class TestSweepProfile:
    def test_serial_phase_walls_and_task_stats(self):
        report = SweepRunner(jobs=1).run(trace_specs(3))
        assert set(report.phase_wall_s) == {"cache", "serial"}
        assert all(v >= 0.0 for v in report.phase_wall_s.values())
        assert report.task_stats.count == 3
        assert report.task_stats.percentile(95) >= report.task_stats.percentile(50)

    def test_parallel_records_pool_phase(self):
        report = SweepRunner(jobs=2).run(trace_specs(3))
        assert {"cache", "prewarm", "pool", "serial"} <= set(report.phase_wall_s)
        assert report.task_stats.count == 3

    def test_cached_tasks_excluded_from_task_stats(self, tmp_path):
        cache = ResultCache(directory=tmp_path, token="t")
        specs = trace_specs(2)
        SweepRunner(cache=cache, jobs=1).run(specs)
        warm = SweepRunner(cache=cache, jobs=1).run(specs)
        assert warm.task_stats.count == 0
        assert warm.phase_wall_s["cache"] >= 0.0

    def test_phase_walls_fit_inside_the_sweep_wall(self):
        report = SweepRunner(jobs=1).run(trace_specs(2))
        assert sum(report.phase_wall_s.values()) <= report.wall_s + 1e-3
        assert report.phase_wall_s["serial"] > 0.0

    def test_fully_cached_sweep_times_only_the_cache_phase(self, tmp_path):
        cache = ResultCache(directory=tmp_path, token="t")
        specs = trace_specs(2)
        SweepRunner(cache=cache, jobs=2).run(specs)
        warm = SweepRunner(cache=cache, jobs=2).run(specs)
        assert set(warm.phase_wall_s) == {"cache"}


class TestGracefulStop:
    def test_stop_before_run_cancels_everything(self):
        runner = SweepRunner(jobs=1)
        runner.request_stop()
        report = runner.run(trace_specs(3))
        assert report.interrupted
        assert report.cancelled == 3
        assert report.executed == 0
        assert all(o.error == "cancelled" for o in report.outcomes)

    def test_stop_mid_run_keeps_completed_results(self):
        runner = SweepRunner(jobs=1)
        seen = []

        def progress(outcome, done, total):
            seen.append(outcome)
            if len(seen) == 1:
                runner.request_stop()

        runner.progress = progress
        report = runner.run(trace_specs(3))
        assert report.interrupted
        assert report.executed == 1
        assert report.cancelled == 2
        assert report.outcomes[0].ok

    def test_stop_still_serves_cache_hits(self, tmp_path):
        cache = ResultCache(directory=tmp_path, token="t")
        specs = trace_specs(2)
        SweepRunner(cache=cache).run(specs)
        warm = SweepRunner(cache=cache)
        warm.request_stop()
        report = warm.run(specs)
        # The cache phase runs before the stop check: hits are free.
        assert report.from_cache == 2
        assert report.cancelled == 0

    def test_shared_stop_event(self):
        import threading

        stop = threading.Event()
        runner = SweepRunner(jobs=1, stop_event=stop)
        stop.set()
        assert runner.stopped
        report = runner.run(trace_specs(2))
        assert report.interrupted

    def test_cancelled_specs_not_cached(self, tmp_path):
        cache = ResultCache(directory=tmp_path, token="t")
        runner = SweepRunner(cache=cache, jobs=1)
        runner.request_stop()
        runner.run(trace_specs(2))
        assert cache.stats()["stores"] == 0

    def test_request_stop_sets_the_event(self):
        runner = SweepRunner(jobs=1)
        assert not runner.stopped
        runner.request_stop()
        assert runner.stop_event.is_set()
        assert runner.stopped

    def test_stop_before_parallel_run_never_starts_a_pool(self):
        runner = SweepRunner(jobs=2)
        runner.request_stop()
        report = runner.run(trace_specs(3))
        assert report.cancelled == 3
        assert report.executed == 0
        assert "pool" not in report.phase_wall_s
        assert all(o.attempts == 0 for o in report.outcomes)

    def test_stop_mid_parallel_run_cancels_unstarted_work(self, tmp_path):
        cache = ResultCache(directory=tmp_path, token="t")
        runner = SweepRunner(cache=cache, jobs=2)

        def progress(outcome, done, total):
            if done == 1:
                runner.request_stop()

        runner.progress = progress
        report = runner.run(trace_specs(4))
        assert report.interrupted
        # Chunks already running finish; the rest come back cancelled.
        assert report.executed >= 1
        assert report.executed + report.cancelled == 4
        assert all(o.ok or o.cancelled for o in report.outcomes)
        assert len(cache) == report.executed

    def test_stop_between_attempts_cancels_the_retry(self, tmp_path):
        cache = ResultCache(directory=tmp_path, token="t")
        runner = SweepRunner(cache=cache, jobs=1, retries=2)

        def fail_then_stop(spec, attempt):
            runner.request_stop()
            raise RuntimeError("injected fault")

        runner.fault_hook = fail_then_stop
        report = runner.run(trace_specs(2))
        first, second = report.outcomes
        assert first.cancelled and first.attempts == 1
        assert second.cancelled and second.attempts == 0
        assert len(cache) == 0

    def test_rerun_executes_only_what_was_cancelled(self, tmp_path):
        cache = ResultCache(directory=tmp_path, token="t")
        specs = trace_specs(3)
        runner = SweepRunner(cache=cache, jobs=1)
        runner.progress = lambda o, done, total: runner.request_stop()
        stopped = runner.run(specs)
        assert (stopped.executed, stopped.cancelled) == (1, 2)

        rerun = SweepRunner(cache=cache, jobs=1).run(specs)
        assert (rerun.from_cache, rerun.executed) == (1, 2)
        assert canonical(rerun.results) == canonical(
            SweepRunner(jobs=1).run(specs).results
        )


def _concurrent_sweep(directory, barrier, out):
    cache = ResultCache(directory=directory, token="t")
    barrier.wait()
    report = SweepRunner(cache=cache, jobs=1).run(trace_specs(2))
    out.put((len(report.failures), cache.stats()))


class TestConcurrentSweeps:
    def test_two_sweeps_share_one_cache_without_corruption(self, tmp_path):
        # Two sweeps may both execute a spec, but each cache key is
        # written exactly once and every entry reads back intact.
        n = 2
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(n)
        out = ctx.Queue()
        procs = [
            ctx.Process(
                target=_concurrent_sweep, args=(str(tmp_path), barrier, out)
            )
            for _ in range(n)
        ]
        for proc in procs:
            proc.start()
        results = [out.get(timeout=120) for _ in range(n)]
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        assert [failures for failures, _ in results] == [0, 0]
        assert sum(stats["stores"] for _, stats in results) == 2

        specs = trace_specs(2)
        warm = SweepRunner(
            cache=ResultCache(directory=tmp_path, token="t"), jobs=1
        ).run(specs)
        assert (warm.from_cache, warm.executed) == (2, 0)
        assert canonical(warm.results) == canonical(
            SweepRunner(jobs=1).run(specs).results
        )
