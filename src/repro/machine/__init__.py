"""The CC-NUMA hardware substrate: memory, interconnect, directory."""

from repro.machine.config import (
    MachineConfig,
    MemoryConfig,
    NetworkConfig,
    TlbConfig,
)
from repro.machine.contention import UtilisationWindow
from repro.machine.directory import (
    DirectoryArray,
    HotBatch,
    HotPageEvent,
    MissCounterBank,
    PageCounters,
    SamplingAccumulator,
    counter_space_overhead,
)
from repro.machine.interconnect import Interconnect
from repro.machine.memory import NumaMemorySystem

__all__ = [
    "MachineConfig",
    "MemoryConfig",
    "NetworkConfig",
    "TlbConfig",
    "UtilisationWindow",
    "DirectoryArray",
    "HotBatch",
    "HotPageEvent",
    "MissCounterBank",
    "PageCounters",
    "SamplingAccumulator",
    "counter_space_overhead",
    "Interconnect",
    "NumaMemorySystem",
]
