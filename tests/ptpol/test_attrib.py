"""Attribution of PT-policy runs: conservation, ledger, regret.

The synthetic streams use the same hand-computed arithmetic style as
``tests/obs/test_attrib``; the live-run checks close the loop against
the simulator itself (every PT metric the run records must be exactly
recoverable from its event stream).
"""

from repro.obs.attrib import (
    ATTRIB_SCHEMA_VERSION,
    Attribution,
    expected_from_ptpol,
    format_ledger,
    format_summary,
)
from repro.obs.events import (
    MissServiced,
    PtReplicate,
    RunMeta,
    ShootdownEvent,
    ThreadMigrate,
    event_from_dict,
)
from repro.obs.tracer import Tracer
from repro.policy.parameters import PolicyParameters
from repro.ptpol.costs import PtCostModel
from repro.ptpol.sim import PtPolicySimulator
from repro.trace.record import TraceBuilder

#: 2 CPUs over 2 nodes, with the PT walk model switched on: PT leaves
#: span 4 data pages, walks cost 1000/4000 ns local/remote.
META = RunMeta(
    t=0, label="synthetic-pt", n_cpus=2, n_nodes=2,
    local_ns=300.0, remote_ns=1200.0, op_cost_ns=350_000.0,
    trigger=128, reset_interval_ns=100_000_000, engine="scalar",
    pt_walk_local_ns=1_000.0, pt_walk_remote_ns=4_000.0, pt_span_pages=4,
)

WALK_DELTA = 3_000.0  # remote walk ref minus local walk ref


def walk(t, cpu, page, node, weight=1, local=True, process=0):
    return MissServiced(
        t=t, cpu=cpu, page=page, node=node, weight=weight,
        latency_ns=1_000.0 if local else 4_000.0, remote=not local,
        walk=True, process=process,
    )


def build(events):
    return Attribution.from_events([META, *events])


class TestSchema:
    def test_version_bumped_for_the_pt_ledger(self):
        # v2 added the PT ledger; v3 only dropped a never-emitted total.
        assert ATTRIB_SCHEMA_VERSION == 3

    def test_to_dict_carries_pt_totals_and_ledger(self):
        attrib = build([
            walk(10, 1, 0, 0, weight=2, local=False, process=1),
            PtReplicate(t=20, process=1, cpu=1, pt_page=0, node=1, src=0,
                        walks=2, latency_ns=5_000.0),
        ])
        d = attrib.to_dict()
        assert d["schema_version"] == ATTRIB_SCHEMA_VERSION
        assert d["totals"]["pt_walks"] == 2
        assert d["totals"]["pt_local_walks"] == 0
        assert d["totals"]["pt_walk_stall_ns"] == 8_000.0
        assert d["totals"]["pt_replications"] == 1
        assert d["totals"]["thread_migrations"] == 0
        assert len(d["pt_ledger"]) == 1
        assert d["pt_ledger"][0]["kind"] == "pt-replication"

    def test_old_event_dicts_without_pt_fields_still_parse(self):
        # Logs written before the PT fields existed must load unchanged.
        event = event_from_dict(
            {"kind": "miss", "t": 5, "cpu": 0, "page": 1, "node": 0,
             "weight": 3, "latency_ns": 300.0, "remote": False}
        )
        assert isinstance(event, MissServiced)
        assert event.walk is False
        assert event.process == -1
        meta = event_from_dict({"kind": "run-meta", "t": 0, "n_cpus": 4})
        assert meta.pt_span_pages == 0


class TestWalkAccounting:
    def test_walks_count_separately_from_data_misses(self):
        attrib = build([
            MissServiced(t=5, cpu=0, page=0, node=0, weight=4,
                         latency_ns=300.0, remote=False),
            walk(10, 0, 0, 0, weight=3, local=True),
            walk(20, 1, 1, 0, weight=2, local=False, process=1),
        ])
        assert attrib.pt_walks == 5
        assert attrib.pt_local_walks == 3
        assert attrib.pt_walk_stall_ns == 3 * 1_000.0 + 2 * 4_000.0
        # Walks flow through the conservation sums as misses...
        assert attrib.misses == 9
        assert attrib.local_misses == 7
        # ...but never seed data copy sets: page 1 was only walked, so
        # its attribution carries no residency.
        assert attrib.conservation_errors() == []


class TestPtLedger:
    def test_replication_payoff_and_shootdown_charge(self):
        # PT page 0 homed on node 0; CPU 1 (node 1) walks it remotely,
        # replicates, then walks locally: each post-decision local walk
        # that would have been remote saves WALK_DELTA.
        attrib = build([
            walk(10, 1, 0, 0, weight=2, local=False, process=1),
            PtReplicate(t=20, process=1, cpu=1, pt_page=0, node=1, src=0,
                        walks=2, latency_ns=5_000.0),
            ShootdownEvent(t=20, origin_cpu=1, mode="pt-root",
                           cpus_flushed=1, frames=1, cost_ns=500.0),
            walk(30, 1, 1, 1, weight=4, local=True, process=1),
        ])
        (rec,) = [r for r in attrib.ledger if r.kind == "pt-replication"]
        assert rec.page == 0
        assert rec.src == 0 and rec.dst == 1
        assert rec.misses_after == 4
        assert rec.saved_ns == 4 * WALK_DELTA
        # The pt-root flush is charged back to the decision that
        # installed the replica.
        assert rec.cost_ns == 5_000.0 + 500.0
        assert not rec.regret
        assert attrib.shootdown_cost_ns == 500.0

    def test_replication_regret_when_the_walks_never_return(self):
        attrib = build([
            walk(10, 1, 0, 0, weight=2, local=False, process=1),
            PtReplicate(t=20, process=1, cpu=1, pt_page=0, node=1, src=0,
                        walks=2, latency_ns=50_000.0),
        ])
        (rec,) = attrib.regrets
        assert rec.kind == "pt-replication"
        assert rec.saved_ns == 0.0
        assert rec.net_ns == -50_000.0

    def test_thread_migration_vs_pt_replication_regret(self):
        # Satellite check: the two rival actions are separable in the
        # ledger, each judged by its own counterfactual.  The thread
        # migration here pays off (its walks turn local against a PT
        # copy set that never contained the source node); the PT
        # replication on another leaf never sees a walk again and eats
        # its construction cost.
        attrib = build([
            # Leaf 0: walked remotely by process 1 from node 1, then the
            # thread moves to node 0 and its walks turn local.
            walk(10, 1, 0, 0, weight=1, local=False, process=1),
            ThreadMigrate(t=20, process=1, cpu=1, src=1, dst=0,
                          reason="cheaper-than-pt-replica",
                          latency_ns=2_000.0),
            walk(30, 1, 1, 0, weight=3, local=True, process=1),
            # Leaf 1 (pages 4-7): replicated, never walked again.
            walk(40, 0, 4, 1, weight=2, local=False, process=0),
            PtReplicate(t=50, process=0, cpu=0, pt_page=1, node=0, src=1,
                        walks=2, latency_ns=50_000.0),
        ])
        records = {r.kind: r for r in attrib.ledger}
        thread = records["thread-migration"]
        assert thread.page == -1
        assert thread.saved_ns == 3 * WALK_DELTA
        assert thread.net_ns == 3 * WALK_DELTA - 2_000.0
        assert not thread.regret
        pt = records["pt-replication"]
        assert pt.regret
        assert pt.net_ns == -50_000.0
        assert attrib.thread_migrations == 1
        assert attrib.pt_replications == 1

    def test_thread_migration_rehomes_the_cpu(self):
        # After the migrate, CPU 1's walks are attributed from node 0:
        # a local service against leaf 0 (home node 0) is genuinely
        # local, so no drift accrues between events and tally.
        attrib = build([
            walk(10, 1, 0, 0, weight=1, local=False, process=1),
            ThreadMigrate(t=20, process=1, cpu=1, src=1, dst=0,
                          latency_ns=2_000.0),
            walk(30, 1, 0, 0, weight=1, local=True, process=1),
        ])
        assert attrib.conservation_errors() == []
        assert attrib.pt_local_walks == 1


class TestFormatting:
    def test_summary_reports_the_pt_line(self):
        attrib = build([
            walk(10, 1, 0, 0, weight=2, local=False, process=1),
            PtReplicate(t=20, process=1, cpu=1, pt_page=0, node=1, src=0,
                        walks=2, latency_ns=5_000.0),
            ThreadMigrate(t=25, process=1, cpu=1, src=1, dst=0,
                          latency_ns=2_000.0),
        ])
        text = format_summary(attrib)
        assert "page tables: 2 walks" in text
        assert "1 PT replications" in text
        assert "1 thread migrations" in text

    def test_ledger_lists_both_pt_action_kinds(self):
        attrib = build([
            walk(10, 1, 0, 0, weight=2, local=False, process=1),
            PtReplicate(t=20, process=1, cpu=1, pt_page=0, node=1, src=0,
                        walks=2, latency_ns=5_000.0),
            ThreadMigrate(t=25, process=1, cpu=1, src=1, dst=0,
                          latency_ns=2_000.0),
        ])
        text = format_ledger(attrib)
        assert "pt-replication" in text
        assert "thread-migration" in text


class TestLiveRun:
    def _run(self):
        from repro.trace.policysim import PolicySimConfig

        cost = TraceBuilder()
        cost.append(0, 0, 0, 0, weight=1)
        cost.append(10, 1, 1, 0, weight=5)
        cost.append(30, 1, 1, 0, weight=1)
        driver = TraceBuilder()
        driver.append(15, 1, 1, 0, weight=1)
        driver.append(20, 1, 1, 1, weight=1)
        driver.append(40, 1, 1, 2, weight=1)
        tracer = Tracer()
        sim = PtPolicySimulator(
            config=PolicySimConfig(
                n_cpus=2, n_nodes=2, pt_span_pages=4,
                decision_delay_ns=1, engine="scalar",
            ),
            tracer=tracer,
            costs=PtCostModel(
                pt_replicate_ns=1_000_000, pt_update_ns=10,
                pt_shootdown_base_ns=100, pt_shootdown_per_cpu_ns=50,
                thread_migrate_ns=100,
            ),
        )
        params = PolicyParameters.co_placement(
            trigger_threshold=1_000, pt_trigger_threshold=2
        )
        result = sim.simulate(cost.build(), params, driver_trace=driver.build())
        return result, tracer

    def test_live_coplace_run_reconciles_exactly(self):
        result, tracer = self._run()
        attrib = Attribution.from_events(tracer.events())
        assert attrib.reconcile(expected_from_ptpol(result)) == []

    def test_live_ledger_judges_the_thread_migration(self):
        result, tracer = self._run()
        assert result.extra["thread_migrations"] == 1.0
        attrib = Attribution.from_events(tracer.events())
        (rec,) = [r for r in attrib.ledger if r.kind == "thread-migration"]
        # One local walk landed in the window; the move cost 100 ns.
        assert rec.saved_ns > 0
        assert not rec.regret
