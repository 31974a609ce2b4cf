"""Declarative experiment specifications and grid expansion.

An :class:`ExperimentSpec` names everything that determines one
simulation run — workload, scale, seed, machine, simulator kind
(full-system or trace-driven), policy, trigger threshold, shootdown
mode, extensions and information source.  Two properties make it the
unit the whole :mod:`repro.exp` subsystem is built on:

* it is **canonically hashable** — :meth:`ExperimentSpec.spec_hash` is a
  SHA-256 over sorted-key JSON, stable across processes, dict orderings
  and Python versions, which is what the content-addressed result cache
  keys on;
* it is **executable** — :func:`repro.exp.runner.execute_spec` turns a
  spec into a result with no other inputs, which is what makes the grid
  embarrassingly parallel.

:func:`sweep` expands keyword lists into the cartesian product of specs
(``sweep(workloads=(...), triggers=(...))``), and the ``figure3_grid`` /
``figure6_grid`` / ``figure9_grid`` helpers name the paper's standard
matrices.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.kernel.vm.shootdown import ShootdownMode
from repro.machine.config import MachineConfig
from repro.policy.parameters import PolicyParameters
from repro.workloads import WORKLOAD_NAMES
from repro.workloads.base import check_scale

#: Version of the spec schema itself; folded into the hash so a future
#: field change never collides with today's keys.
SPEC_SCHEMA_VERSION = 1

#: The machine configurations `repro run --machine` knows.
MACHINE_LABELS = ("ccnuma", "ccnow", "zeronet")

#: Simulator kinds: Section 7's full-system simulator vs Section 8's
#: contentionless trace-driven one.
KINDS = ("system", "trace")

#: Policies per kind.  Full-system runs compare static first-touch
#: against the dynamic Mig/Rep policy; the trace-driven simulator adds
#: the other static placements and the single-mechanism policies.
SYSTEM_POLICIES = ("ft", "migrep")

#: The six trace-driven policies of Figure 6 (the paper's own matrix).
FIG6_POLICIES = ("rr", "ft", "pf", "migr", "repl", "migrep")

#: The page-table policy family (:mod:`repro.ptpol`): replayed with the
#: walk-cost model, compared among themselves (their
#: run times include walk stall the six paper policies do not model).
PT_TRACE_POLICIES = ("ptft", "ptmigr", "ptrepl", "coplace")

#: The related-work baseline (Section 2): Black, Gupta and Weber's
#: competitive strategy, replayed by the trace-driven simulator.
BASELINE_POLICIES = ("competitive",)

TRACE_POLICIES = FIG6_POLICIES + PT_TRACE_POLICIES + BASELINE_POLICIES

#: Information sources of Section 8.3 (Figure 8), by label.
METRIC_LABELS = ("FC", "SC", "FT", "ST")


def params_for(workload: str, trigger: Optional[int]) -> PolicyParameters:
    """The paper's base policy for ``workload``; ``trigger`` overrides.

    Engineering uses trigger 96 (Section 7), everything else 128.
    """
    if trigger is not None:
        return PolicyParameters.base(trigger_threshold=trigger)
    if workload == "engineering":
        return PolicyParameters.engineering_base()
    return PolicyParameters.base()


def machine_for(label: str, spec) -> MachineConfig:
    """Build the named machine sized for a workload spec."""
    factory = {
        "ccnuma": MachineConfig.flash_ccnuma,
        "ccnow": MachineConfig.flash_ccnow,
        "zeronet": MachineConfig.zero_network,
    }[label]
    return factory(n_cpus=spec.n_cpus, n_nodes=spec.n_nodes)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that determines one simulation run."""

    workload: str
    scale: float = 0.25
    seed: int = 0
    machine: str = "ccnuma"          # ccnuma | ccnow | zeronet
    kind: str = "system"             # system | trace
    policy: str = "migrep"           # see SYSTEM_POLICIES / TRACE_POLICIES
    trigger: Optional[int] = None    # None -> the paper's per-workload value
    shootdown: str = "all"           # all | tracked
    adaptive: bool = False           # Section 8.4 adaptive trigger
    hotspot: bool = False            # Section 7.1.2 hotspot migration
    metric: str = "FC"               # trace kind: FC | SC | FT | ST
    kernel_trace: bool = False       # trace kind: kernel-mode miss stream

    def __post_init__(self) -> None:
        if self.workload not in WORKLOAD_NAMES:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; "
                f"pick one of {sorted(WORKLOAD_NAMES)}"
            )
        check_scale(self.scale)
        if self.machine not in MACHINE_LABELS:
            raise ConfigurationError(
                f"unknown machine {self.machine!r}; "
                f"pick one of {MACHINE_LABELS}"
            )
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown simulator kind {self.kind!r}; pick one of {KINDS}"
            )
        allowed = SYSTEM_POLICIES if self.kind == "system" else TRACE_POLICIES
        if self.policy not in allowed:
            raise ConfigurationError(
                f"policy {self.policy!r} is not valid for kind "
                f"{self.kind!r}; pick one of {allowed}"
            )
        if self.trigger is not None and self.trigger <= 0:
            raise ConfigurationError("trigger threshold must be positive")
        if self.shootdown not in ("all", "tracked"):
            raise ConfigurationError("shootdown must be 'all' or 'tracked'")
        if self.metric not in METRIC_LABELS:
            raise ConfigurationError(
                f"unknown metric {self.metric!r}; pick one of {METRIC_LABELS}"
            )

    # -- derived run inputs ---------------------------------------------------

    @property
    def dynamic(self) -> bool:
        """Does this run move pages?"""
        return self.policy in ("migr", "repl", "migrep", "competitive",
                               "ptmigr", "ptrepl", "coplace")

    @property
    def pt_policy(self) -> bool:
        """Is this a page-table policy run (:mod:`repro.ptpol`)?"""
        return self.policy in PT_TRACE_POLICIES

    def params(self) -> PolicyParameters:
        """The policy parameters this spec's run uses."""
        if self.pt_policy:
            from repro.ptpol import params_for_pt_policy

            base = params_for(self.workload, self.trigger)
            params = params_for_pt_policy(
                self.policy, trigger=base.trigger_threshold
            )
            if self.hotspot:
                params = params.replace(hotspot_migration=True)
            return params
        base = params_for(self.workload, self.trigger)
        if self.policy == "migr":
            base = base.replace(enable_replication=False)
        elif self.policy == "repl":
            base = base.replace(enable_migration=False)
        if self.hotspot:
            base = base.replace(hotspot_migration=True)
        return base

    def shootdown_mode(self) -> ShootdownMode:
        """The TLB shootdown mode this spec's run uses."""
        return (
            ShootdownMode.TRACKED
            if self.shootdown == "tracked"
            else ShootdownMode.ALL_CPUS
        )

    def label(self) -> str:
        """Compact human-readable identity for progress lines."""
        parts = [self.kind, self.workload, self.policy]
        if self.trigger is not None:
            parts.append(f"t{self.trigger}")
        if self.machine != "ccnuma":
            parts.append(self.machine)
        if self.kind == "trace" and self.metric != "FC":
            parts.append(self.metric)
        return ":".join(parts)

    # -- serialization and hashing --------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe field dict plus the spec schema version."""
        out = {"spec_version": SPEC_SCHEMA_VERSION}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentSpec":
        """Rebuild (and re-validate) a spec from :meth:`to_dict` output."""
        data = dict(data)
        version = data.pop("spec_version", SPEC_SCHEMA_VERSION)
        if version != SPEC_SCHEMA_VERSION:
            raise ConfigurationError(
                f"spec has spec_version={version!r}; this code reads "
                f"version {SPEC_SCHEMA_VERSION}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown spec fields: {sorted(unknown)}"
            )
        return cls(**data)

    def canonical_json(self) -> str:
        """Deterministic JSON — sorted keys, no whitespace.

        Two specs with equal fields produce byte-identical canonical
        JSON regardless of the dict ordering they were built from.
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def spec_hash(self) -> str:
        """SHA-256 hex digest of the canonical JSON."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def replace(self, **changes) -> "ExperimentSpec":
        """A copy with some fields changed (re-validated)."""
        out = self.to_dict()
        out.pop("spec_version")
        out.update(changes)
        return ExperimentSpec(**out)


def sweep(
    workloads: Iterable[str],
    *,
    scales: Sequence[float] = (0.25,),
    seeds: Sequence[int] = (0,),
    machines: Sequence[str] = ("ccnuma",),
    kinds: Sequence[str] = ("system",),
    policies: Sequence[str] = ("migrep",),
    triggers: Sequence[Optional[int]] = (None,),
    metrics: Sequence[str] = ("FC",),
    **common,
) -> List[ExperimentSpec]:
    """Cartesian-product grid expansion, in deterministic order.

    Every keyword takes a sequence of values; the result is one spec per
    combination, ordered with workloads outermost (so progress lines
    group naturally).  Extra keywords (``shootdown=..., adaptive=...``)
    apply to every spec.
    """
    specs = []
    for w, kind, policy, machine, trigger, metric, scale, seed in (
        itertools.product(
            tuple(workloads), tuple(kinds), tuple(policies),
            tuple(machines), tuple(triggers), tuple(metrics),
            tuple(scales), tuple(seeds),
        )
    ):
        specs.append(
            ExperimentSpec(
                workload=w, scale=scale, seed=seed, machine=machine,
                kind=kind, policy=policy, trigger=trigger, metric=metric,
                **common,
            )
        )
    return specs


#: The four user workloads of Figures 3, 6, 8 and 9 (pmake is the
#: kernel-intensive fifth, studied separately in Figure 7).
USER_WORKLOADS: Tuple[str, ...] = (
    "engineering", "raytrace", "splash", "database",
)

#: Figure 9's trigger thresholds.
FIG9_TRIGGERS: Tuple[int, ...] = (32, 64, 128, 256)


def figure3_grid(scale: float = 0.25, seed: int = 0) -> List[ExperimentSpec]:
    """Figure 3: FT vs Mig/Rep full-system runs on the user workloads."""
    return sweep(
        USER_WORKLOADS, kinds=("system",), policies=SYSTEM_POLICIES,
        scales=(scale,), seeds=(seed,),
    )


def figure6_grid(scale: float = 0.25, seed: int = 0) -> List[ExperimentSpec]:
    """Figure 6: the six trace-driven policies on the user workloads."""
    return sweep(
        USER_WORKLOADS, kinds=("trace",), policies=FIG6_POLICIES,
        scales=(scale,), seeds=(seed,),
    )


def figure9_grid(scale: float = 0.25, seed: int = 0) -> List[ExperimentSpec]:
    """Figure 9: the trigger-threshold sweep (4 workloads x 4 triggers)."""
    return sweep(
        USER_WORKLOADS, kinds=("trace",), policies=("migrep",),
        triggers=FIG9_TRIGGERS, scales=(scale,), seeds=(seed,),
    )


def ptpol6_grid(scale: float = 0.25, seed: int = 0) -> List[ExperimentSpec]:
    """Figure 6-style comparison of the four page-table policies.

    PT-family run times include page-table walk stall, so the cells are
    comparable among themselves (normalised to PT-FT) but not to the
    fig6 cells, which do not model walks.
    """
    return sweep(
        USER_WORKLOADS, kinds=("trace",), policies=PT_TRACE_POLICIES,
        scales=(scale,), seeds=(seed,),
    )


def ptpol9_grid(scale: float = 0.25, seed: int = 0) -> List[ExperimentSpec]:
    """Figure 9-style trigger sweep for the co-placement policy.

    The walk trigger scales with the data trigger (half, floor 1), so
    one axis moves both thresholds in lockstep.
    """
    return sweep(
        USER_WORKLOADS, kinds=("trace",), policies=("coplace",),
        triggers=FIG9_TRIGGERS, scales=(scale,), seeds=(seed,),
    )


#: Named grids `repro sweep --grid` and `repro figures` expose.
NAMED_GRIDS = {
    "fig3": figure3_grid,
    "fig6": figure6_grid,
    "fig9": figure9_grid,
    "ptpol6": ptpol6_grid,
    "ptpol9": ptpol9_grid,
}
