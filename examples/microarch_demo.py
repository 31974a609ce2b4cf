#!/usr/bin/env python
"""Scenario: the hardware substrate on its own.

Exercises the machine model directly — no workloads, no policy — to show
why the paper's numbers look the way they do:

1. the 64-entry TLB's reach (256 KB) as a working set sweeps past it —
   the structural reason TLB misses and cache misses diverge (Figure 8's
   FT/ST result);
2. what a remote:local latency ratio of 4:1 does to average miss cost as
   locality degrades (why page placement is worth kernel effort).

Run:  python examples/microarch_demo.py
"""

import numpy as np

from repro.machine.config import MachineConfig, TlbConfig
from repro.trace.record import Trace
from repro.trace.tlbsim import derive_tlb_trace

KB = 1024
LINE = 128
PAGE = 4096


def tlb_miss_rate(tlb: TlbConfig, span_bytes: int, rounds: int = 4) -> float:
    """Walk ``span_bytes`` a cache line at a time ``rounds`` times.

    One CPU's page-touch stream goes through the LRU TLB, one touch a
    record; returns the fraction of touches that miss.
    """
    addrs = list(range(0, span_bytes, LINE)) * rounds
    n = len(addrs)
    zeros = np.zeros(n, dtype=np.int64)
    touches = Trace(
        np.arange(n), zeros, zeros, np.array(addrs) // PAGE,
        np.ones(n, dtype=np.int64), zeros,
    )
    tlb_misses = len(
        derive_tlb_trace(
            touches, n_cpus=1, tlb_config=tlb, factor_of_page=lambda p: 1.0
        )
    )
    return tlb_misses / n


def main() -> None:
    machine = MachineConfig.flash_ccnuma()
    print("Working-set sweep through the paper's 64-entry TLB")
    print("  (TLB 64 x 4KB = 256KB reach)\n")
    print(f"{'working set':>14s}{'TLB miss rate':>15s}")
    for span_kb in (16, 128, 256, 512, 1024, 4096):
        tlb_rate = tlb_miss_rate(machine.tlb, span_kb * KB)
        print(f"{span_kb:>11d} KB{tlb_rate:>15.1%}")
    print(
        "\nPast 256KB the TLB thrashes, whatever the cache holds.  A hot\n"
        "code loop bigger than the 512KB L2 but spanning few pages does\n"
        "the opposite — huge cache-miss counts, almost no TLB misses.\n"
        "That asymmetry is exactly why TLB-driven policies fail on the\n"
        "engineering workload (Figure 8).\n"
    )

    mem = machine.memory
    print("Average miss latency vs locality (300ns local / 1200ns remote):")
    for local_pct in (100, 75, 50, 25, 12):
        avg = (local_pct * mem.local_ns + (100 - local_pct) * mem.remote_ns) / 100
        print(f"  {local_pct:>3d}% local -> {avg:6.0f} ns per miss")
    print(
        "\nAt first touch on an 8-node machine a random page is local with\n"
        "probability 1/8 — the bottom row.  Every point of locality the\n"
        "policy wins moves a workload up this table; that is the entire\n"
        "economics of the paper."
    )


if __name__ == "__main__":
    main()
