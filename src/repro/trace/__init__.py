"""Trace infrastructure: records, TLB derivation, trace-driven policy sim."""

from repro.trace.policysim import (
    PolicySimConfig,
    PolicySimResult,
    StaticPolicy,
    TracePolicySimulator,
)
from repro.trace.record import (
    FLAG_INSTR,
    FLAG_KERNEL,
    FLAG_WRITE,
    Trace,
    TraceBuilder,
    merge_traces,
)
from repro.trace.tlbsim import derive_tlb_trace

__all__ = [
    "PolicySimConfig",
    "PolicySimResult",
    "StaticPolicy",
    "TracePolicySimulator",
    "FLAG_INSTR",
    "FLAG_KERNEL",
    "FLAG_WRITE",
    "Trace",
    "TraceBuilder",
    "merge_traces",
    "derive_tlb_trace",
]
