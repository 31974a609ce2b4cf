#!/usr/bin/env python
"""Scenario: a parallel renderer with a big read-shared scene.

The raytrace workload pins one worker per processor; all of them read one
large scene structure.  This script shows the full replication story:

1. read-chain analysis predicts how much of the miss traffic replication
   can capture (Figure 4's methodology);
2. the policy replicates the hot scene pages, and locality jumps;
3. replication costs memory — we re-run with per-node memory cut down
   until allocation failures and the memory-pressure veto kick in.

Run:  python examples/parallel_rendering.py
"""

import dataclasses

from repro import load_workload
from repro.analysis.readchains import chain_survival
from repro.policy.parameters import PolicyParameters
from repro.sim.simulator import run_policy_comparison

SCALE = 0.25


def main() -> None:
    spec, trace = load_workload("raytrace", scale=SCALE)
    user = trace.user_only()

    print("Read-chain analysis of the data misses (Figure 4 methodology):")
    for threshold, fraction in chain_survival(user):
        print(f"  chains >= {threshold:>5d} misses: {fraction:6.1%} of data misses")
    print(
        "  -> long chains = reads never interrupted by writes = "
        "replication candidates\n"
    )

    print("Running FT vs Mig/Rep (ample memory)...")
    results = run_policy_comparison(spec, trace)
    ft, mr = results["FT"], results["Mig/Rep"]
    print(
        f"  locality {ft.local_miss_fraction:.1%} -> "
        f"{mr.local_miss_fraction:.1%}; stall cut "
        f"{mr.stall_reduction_over(ft):.1f}%"
    )
    print(
        f"  {mr.tally.replicated} replications vs {mr.tally.migrated} "
        f"migrations (pinned workers: replication does the work)"
    )
    print(
        f"  peak replica frames: {mr.peak_replica_frames} "
        f"(+{mr.replication_space_overhead:.0%} memory)\n"
    )

    print("Same run with per-node memory squeezed:")
    touched = trace.n_pages
    for frames in (4096, int(touched / spec.n_nodes * 1.1),
                   int(touched / spec.n_nodes * 1.02)):
        squeezed = dataclasses.replace(spec)
        squeezed.frames_per_node = frames
        r = run_policy_comparison(squeezed, trace)["Mig/Rep"]
        pct = r.tally.percentages()
        print(
            f"  {frames:>5d} frames/node: local {r.local_miss_fraction:.1%}, "
            f"replicated {pct['% Replicate']:.0f}%, "
            f"no-page {pct['% No Page']:.0f}%, "
            f"replicas reclaimed {int(r.metrics['vm.replicas_reclaimed'])}"
        )
    print(
        "\nAs memory tightens, the decision tree's pressure veto and "
        "allocation failures throttle replication (the splash workload's "
        "story in the paper, Table 4)."
    )


if __name__ == "__main__":
    main()
