"""Full-system simulation (the SimOS analogue for Section 7)."""

from repro.sim.results import ContentionStats, SimulationResult, StallBreakdown
from repro.sim.simulator import (
    Placement,
    SimulatorOptions,
    SystemSimulator,
    run_policy_comparison,
)

__all__ = [
    "ContentionStats",
    "SimulationResult",
    "StallBreakdown",
    "Placement",
    "SimulatorOptions",
    "SystemSimulator",
    "run_policy_comparison",
]
