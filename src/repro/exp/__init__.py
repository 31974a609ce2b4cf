"""Experiment orchestration: specs, parallel runner, result cache.

The ``repro.exp`` subsystem turns the paper's tables and figures into
declarative, parallel, cached sweeps:

* :mod:`repro.exp.spec` — hashable :class:`ExperimentSpec`, grid
  expansion (:func:`sweep`) and the named figure grids;
* :mod:`repro.exp.runner` — :func:`execute_spec` plus the
  :class:`SweepRunner` (process pool, bounded retries);
* :mod:`repro.exp.cache` — the content-addressed
  :class:`ResultCache` keyed on spec hash + code-version token;
* :mod:`repro.exp.figures` — figure tables rebuilt from sweep results.

See ``docs/SWEEPS.md`` for the user-facing guide.
"""

from repro.exp.cache import (
    ResultCache,
    cache_key,
    code_version_token,
    default_cache_dir,
)
from repro.exp.runner import (
    SweepOutcome,
    SweepReport,
    SweepRunner,
    execute_spec,
)
from repro.exp.spec import (
    NAMED_GRIDS,
    ExperimentSpec,
    figure3_grid,
    figure6_grid,
    figure9_grid,
    machine_for,
    params_for,
    sweep,
)

__all__ = [
    "ExperimentSpec",
    "NAMED_GRIDS",
    "ResultCache",
    "SweepOutcome",
    "SweepReport",
    "SweepRunner",
    "cache_key",
    "code_version_token",
    "default_cache_dir",
    "execute_spec",
    "figure3_grid",
    "figure6_grid",
    "figure9_grid",
    "machine_for",
    "params_for",
    "sweep",
]
