"""PT policies through the experiment layer: specs, grids, figures."""

import pytest

from repro.common.errors import ConfigurationError
from repro.exp.figures import (
    FIGURE_ARTIFACTS,
    FIGURE_TABLES,
    ptpol6_table,
    ptpol9_table,
)
from repro.exp.runner import POLICY_LABELS, SweepOutcome, execute_spec
from repro.exp.spec import (
    FIG6_POLICIES,
    FIG9_TRIGGERS,
    PT_TRACE_POLICIES,
    TRACE_POLICIES,
    USER_WORKLOADS,
    ExperimentSpec,
    figure6_grid,
    ptpol6_grid,
    ptpol9_grid,
)
from repro.trace.policysim import PolicySimResult


def _pt_spec(policy="coplace", **overrides):
    overrides.setdefault("workload", "splash")
    overrides.setdefault("kind", "trace")
    overrides.setdefault("scale", 0.05)
    return ExperimentSpec(policy=policy, **overrides)


class TestSpecs:
    def test_pt_policies_are_trace_policies(self):
        assert TRACE_POLICIES == FIG6_POLICIES + PT_TRACE_POLICIES
        for policy in PT_TRACE_POLICIES:
            assert POLICY_LABELS[policy]

    def test_pt_policy_property(self):
        assert _pt_spec("ptrepl").pt_policy
        assert not _pt_spec("migrep").pt_policy

    def test_pt_policies_need_the_trace_simulator(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(workload="splash", kind="system", policy="coplace")

    def test_pt_spec_hashes_are_distinct(self):
        hashes = {
            _pt_spec(policy).spec_hash()
            for policy in PT_TRACE_POLICIES + ("migrep", "ft")
        }
        assert len(hashes) == 6

    def test_pt_params_derive_the_walk_trigger(self):
        params = _pt_spec("coplace", workload="database").params()
        assert params.enable_thread_migration
        assert params.pt_trigger_threshold == params.trigger_threshold // 2
        # Engineering's trigger-96 override carries into the PT family.
        eng = _pt_spec("ptrepl", workload="engineering").params()
        assert eng.trigger_threshold == 96
        assert eng.pt_trigger_threshold == 48

    def test_round_trip_preserves_pt_policy(self):
        spec = _pt_spec("ptmigr")
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec


class TestGrids:
    def test_ptpol6_is_workloads_by_policies(self):
        grid = ptpol6_grid(scale=0.1, seed=3)
        assert len(grid) == len(USER_WORKLOADS) * len(PT_TRACE_POLICIES)
        assert {s.policy for s in grid} == set(PT_TRACE_POLICIES)
        assert all(s.kind == "trace" for s in grid)
        assert all(s.scale == 0.1 and s.seed == 3 for s in grid)

    def test_ptpol9_sweeps_triggers_for_coplace(self):
        grid = ptpol9_grid()
        assert len(grid) == len(USER_WORKLOADS) * len(FIG9_TRIGGERS)
        assert {s.policy for s in grid} == {"coplace"}
        assert {s.trigger for s in grid} == set(FIG9_TRIGGERS)

    def test_fig6_grid_is_untouched_by_the_pt_family(self):
        grid = figure6_grid()
        assert {s.policy for s in grid} == set(FIG6_POLICIES)
        assert len(grid) == len(USER_WORKLOADS) * len(FIG6_POLICIES)


class TestExecuteSpec:
    def test_pt_cell_runs_on_the_production_replay(self):
        # A sweep's PT rows replay on PtPolicySimulator like any other
        # call site: every PT-family policy runs there.
        result = execute_spec(_pt_spec("coplace"))
        assert result.label == "CoPlace"
        assert result.total_misses > 0
        assert result.extra["pt_walks"] > 0
        # Walk stall is in the run time, and some walks went local.
        assert result.extra["pt_walk_stall_ns"] > 0
        assert result.extra["pt_local_walks"] > 0


def _result(label, stall_ns, **extra):
    return PolicySimResult(
        label=label, total_misses=100, local_misses=50,
        stall_ns=stall_ns, overhead_ns=0.0,
        extra={k: float(v) for k, v in extra.items()},
    )


class TestTables:
    def _outcomes(self):
        stalls = {
            "ptft": 4e9, "ptmigr": 3e9, "ptrepl": 2e9, "coplace": 1e9,
        }
        outcomes = []
        for policy, stall in stalls.items():
            extra = {}
            if policy == "coplace":
                extra = {"pt_replications": 3, "thread_migrations": 2}
            outcomes.append(
                SweepOutcome(
                    spec=_pt_spec(policy, workload="database"),
                    result=_result(POLICY_LABELS[policy], stall, **extra),
                )
            )
        return outcomes

    def test_ptpol6_table_normalises_to_ptft(self):
        text = ptpol6_table(self._outcomes())
        assert "database" in text
        assert "1.000" in text       # the PT-FT column is its own baseline
        assert "0.250" in text       # coplace: 1e9 / 4e9
        assert "PT-FT" in text and "CoPlace" in text
        assert "Co PT-repl" in text and "Co thr-migr" in text

    def test_ptpol6_table_skips_incomplete_workloads(self):
        # Without all four policies a workload has no baseline row.
        text = ptpol6_table(self._outcomes()[:3])
        assert "database" not in text

    def test_ptpol9_table_reports_walk_locality(self):
        outcomes = [
            SweepOutcome(
                spec=_pt_spec("coplace", workload="splash", trigger=64),
                result=_result(
                    "CoPlace", 1e9,
                    pt_walks=200, pt_local_walks=150,
                    pt_replications=4, thread_migrations=1,
                ),
            )
        ]
        text = ptpol9_table(outcomes)
        assert "splash" in text
        assert "75.0" in text        # 150/200 walk-local percent
        assert "Walk local %" in text

    def test_registry_has_the_pt_entries(self):
        for grid in ("ptpol6", "ptpol9"):
            assert grid in FIGURE_TABLES
            assert grid in FIGURE_ARTIFACTS
        assert FIGURE_ARTIFACTS["ptpol6"] == "ptpol6_summary"
