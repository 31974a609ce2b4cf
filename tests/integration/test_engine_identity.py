"""Production replay identity with the scalar reference over the grids.

The production replay (the fastpath engines ``repro.trace.fastpath``
and ``repro.ptpol.fastpath``) must reproduce the scalar reference
cores byte-for-byte on the real paper workloads, not just on synthetic
traces.  This runs every fig6, fig9, ptpol6 and ptpol9 grid cell at the
default experiment scale (0.25) on both and compares
``PolicySimResult.to_dict()`` exactly — the same bar the trace store
replay tests hold themselves to — plus a competitive-baseline cell and
a traced cell per workload, where identity extends to the event log,
compared unmasked.
"""

import pytest

from repro.exp.runner import POLICY_LABELS, _METRICS_BY_LABEL, _STATIC_POLICIES
from repro.exp.spec import NAMED_GRIDS
from repro.obs.tracer import Tracer
from repro.ptpol import PtPolicySimulator
from repro.ptpol.sim import ReferencePtPolicySimulator
from repro.trace.policysim import (
    PolicySimConfig,
    ReferenceTracePolicySimulator,
    TracePolicySimulator,
)
from repro.workloads import build_spec, generate_trace

SCALE = 0.25
SEED = 0

GRID = (
    NAMED_GRIDS["fig6"](scale=SCALE, seed=SEED)
    + NAMED_GRIDS["fig9"](scale=SCALE, seed=SEED)
    + NAMED_GRIDS["ptpol6"](scale=SCALE, seed=SEED)
    + NAMED_GRIDS["ptpol9"](scale=SCALE, seed=SEED)
)


@pytest.fixture(scope="module")
def traces():
    """{workload: (spec, trace)} shared across the grid."""
    out = {}
    for name in sorted({spec.workload for spec in GRID}):
        spec = build_spec(name, scale=SCALE, seed=SEED)
        out[name] = (spec, generate_trace(spec))
    return out


#: (data-policy, PT-policy) simulators: the reference cores, then the
#: production path.
REFERENCE = (ReferenceTracePolicySimulator, ReferencePtPolicySimulator)
PRODUCTION = (TracePolicySimulator, PtPolicySimulator)


def _config(workload_spec):
    return PolicySimConfig(
        n_cpus=workload_spec.n_cpus, n_nodes=workload_spec.n_nodes
    )


def run_cell(cell, workload_spec, trace, simulators):
    """One grid cell exactly as ``execute_spec`` runs it."""
    data_sim, pt_sim = simulators
    stream = trace.kernel_only() if cell.kernel_trace else trace.user_only()
    if cell.pt_policy:
        sim = pt_sim(_config(workload_spec))
        return sim.simulate(
            stream, cell.params(), label=POLICY_LABELS[cell.policy]
        )
    sim = data_sim(_config(workload_spec))
    if cell.policy in _STATIC_POLICIES:
        return sim.simulate_static(stream, _STATIC_POLICIES[cell.policy])
    return sim.simulate_dynamic(
        stream,
        cell.params(),
        metric=_METRICS_BY_LABEL[cell.metric],
        label=POLICY_LABELS[cell.policy],
    )


@pytest.mark.parametrize("cell", GRID, ids=lambda c: c.label())
def test_grid_cell_identical_scalar_vs_vector(cell, traces):
    spec, trace = traces[cell.workload]
    assert (
        run_cell(cell, spec, trace, REFERENCE).to_dict()
        == run_cell(cell, spec, trace, PRODUCTION).to_dict()
    )


def _events(tracer):
    return [e.to_dict() for e in tracer.events()]


@pytest.mark.parametrize(
    "workload", sorted({spec.workload for spec in GRID})
)
def test_competitive_identical_scalar_vs_vector(workload, traces):
    spec, trace = traces[workload]
    stream = trace.user_only()
    reference, production = (
        sims[0](_config(spec)).simulate_competitive(stream).to_dict()
        for sims in (REFERENCE, PRODUCTION)
    )
    assert reference == production


@pytest.mark.parametrize(
    "workload", sorted({spec.workload for spec in GRID})
)
def test_traced_migrep_event_logs_identical(workload, traces):
    """The flagship traced cell: event logs match byte for byte."""
    from repro.exp.spec import params_for

    spec, trace = traces[workload]
    stream = trace.user_only()
    logs = []
    for sims in (REFERENCE, PRODUCTION):
        tracer = Tracer(capacity=1 << 22)
        sim = sims[0](_config(spec), tracer=tracer)
        result = sim.simulate_dynamic(
            stream, params_for(workload, None), label="Mig/Rep"
        )
        logs.append((result.to_dict(), _events(tracer)))
    reference, production = logs
    assert reference[0] == production[0]
    assert reference[1] == production[1]


@pytest.mark.parametrize(
    "workload", sorted({spec.workload for spec in GRID})
)
def test_traced_coplace_event_logs_identical(workload, traces):
    """The traced PT cell: walk/replication events match byte for byte."""
    from repro.ptpol import params_for_pt_policy

    spec, trace = traces[workload]
    stream = trace.user_only()
    logs = []
    for sims in (REFERENCE, PRODUCTION):
        tracer = Tracer(capacity=1 << 22)
        sim = sims[1](_config(spec), tracer=tracer)
        result = sim.simulate(
            stream, params_for_pt_policy("coplace"), label="CoPlace"
        )
        logs.append((result.to_dict(), _events(tracer)))
    reference, production = logs
    assert reference[0] == production[0]
    assert reference[1] == production[1]
