"""The CC-NUMA hardware substrate: caches, memory, directory."""

from repro.machine.cache import CacheHierarchy, SetAssociativeCache
from repro.machine.config import (
    CacheConfig,
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
from repro.machine.memory import MissService, NumaMemorySystem

__all__ = [
    "CacheHierarchy",
    "SetAssociativeCache",
    "CacheConfig",
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
    "MissService",
    "NumaMemorySystem",
]
