"""The attribution engine on synthetic event streams.

Every behaviour here is checked against hand-computed arithmetic: the
copy-set lifecycle, the counterfactual payoff ledger, collapse-cost
charging, interval slicing, the conservation/reconcile invariant, run
diffing and the sweep-level payoff aggregation.  The real-workload
conservation runs live in ``tests/integration/test_attrib_conservation``.
"""

from types import SimpleNamespace

import pytest

from repro.obs.attrib import (
    AttribDiff,
    Attribution,
    AttributionSink,
    diff_attributions,
    format_diff,
    format_intervals,
    format_ledger,
    format_nodes,
    format_page,
    format_summary,
    format_top_pages,
    sweep_attribution,
)
from repro.obs.events import (
    CollapseEvent,
    HotPageTriggered,
    IntervalReset,
    MigrationDecision,
    MissServiced,
    NoActionDecision,
    ReplicationDecision,
    RunMeta,
    ShootdownEvent,
    TriggerAdjusted,
)
from repro.obs.tracer import Tracer

#: 4 CPUs over 2 nodes: cpus 0-1 on node 0, cpus 2-3 on node 1.
META = RunMeta(
    t=0, label="synthetic", n_cpus=4, n_nodes=2,
    local_ns=300.0, remote_ns=1200.0, op_cost_ns=350_000.0,
    trigger=128, reset_interval_ns=100_000_000,
)

LOCAL, REMOTE = 300.0, 1200.0
DELTA = REMOTE - LOCAL  # per-weight stall difference local vs remote


def miss(t, cpu, page, node, weight=1, local=True):
    return MissServiced(
        t=t, cpu=cpu, page=page, node=node, weight=weight,
        latency_ns=LOCAL if local else REMOTE, remote=not local,
    )


def build(events):
    return Attribution.from_events([META, *events])


class TestLifecycle:
    def test_first_miss_seeds_the_copy_set(self):
        a = build([miss(100, cpu=0, page=7, node=0)])
        page = a.pages[7]
        assert page.first_touch_t == 100
        assert page.first_node == 0
        assert page.copies == {0}
        assert a.nodes[0].resident_pages == 1

    def test_migration_moves_the_copy(self):
        a = build([
            miss(100, cpu=0, page=7, node=0),
            MigrationDecision(t=200, page=7, cpu=2, src=0, dst=1,
                              outcome="migrated", latency_ns=350_000.0),
        ])
        assert a.pages[7].copies == {1}
        assert a.nodes[0].resident_pages == 0
        assert a.nodes[1].resident_pages == 1
        assert a.nodes[0].peak_resident == 1

    def test_replication_adds_and_collapse_shrinks(self):
        a = build([
            miss(100, cpu=0, page=9, node=0),
            ReplicationDecision(t=200, page=9, cpu=2, src=0, dst=1,
                                outcome="replicated", latency_ns=350_000.0),
            CollapseEvent(t=300, page=9, cpu=0, keep_node=1,
                          replicas_dropped=1, latency_ns=90_000.0),
        ])
        page = a.pages[9]
        assert page.replications == 1
        assert page.collapses == 1
        assert page.copies == {1}
        assert a.nodes[0].resident_pages == 0
        assert a.nodes[1].peak_resident == 1

    def test_failed_action_counts_cost_but_keeps_copies(self):
        a = build([
            miss(100, cpu=0, page=7, node=0),
            MigrationDecision(t=200, page=7, cpu=2, src=0, dst=1,
                              outcome="no-page", latency_ns=50_000.0),
        ])
        page = a.pages[7]
        assert page.failed_actions == 1
        assert page.migrations == 0
        assert page.copies == {0}
        assert page.ledger == []
        assert a.action_cost_ns == 50_000.0
        assert a.decisions == 1

    def test_requesting_node_attribution_uses_topology(self):
        a = build([
            miss(100, cpu=0, page=1, node=0, weight=2),          # node 0 asks
            miss(200, cpu=3, page=1, node=0, weight=5, local=False),  # node 1
        ])
        assert a.nodes[0].misses == 2
        assert a.nodes[0].local == 2
        assert a.nodes[1].misses == 5
        assert a.nodes[1].local == 0
        assert a.nodes[0].serviced == 7   # both served from node 0's copy
        assert a.nodes[1].stall_ns == 5 * REMOTE

    def test_shootdown_cost_accumulates(self):
        a = build([
            ShootdownEvent(t=10, origin_cpu=0, mode="all", cpus_flushed=4,
                           frames=1, cost_ns=20_000.0),
            ShootdownEvent(t=20, origin_cpu=1, mode="tracked", cpus_flushed=2,
                           frames=1, cost_ns=5_000.0),
        ])
        assert a.shootdowns == 2
        assert a.shootdown_cost_ns == 25_000.0


class TestPayoffLedger:
    def migration_stream(self, weight_after):
        return [
            miss(100, cpu=0, page=7, node=0),                       # seed {0}
            miss(200, cpu=2, page=7, node=0, weight=10, local=False),
            HotPageTriggered(t=250, page=7, cpu=2, count=128, threshold=128),
            MigrationDecision(t=300, page=7, cpu=2, src=0, dst=1,
                              outcome="migrated", reason="unshared",
                              latency_ns=350_000.0),
            miss(400, cpu=2, page=7, node=1, weight=weight_after),
        ]

    def test_saved_ns_counts_avoided_remote_misses(self):
        a = build(self.migration_stream(weight_after=7))
        (rec,) = a.pages[7].ledger
        # cpu 2 (node 1) would have hit the pre-decision copy on node 0
        # remotely; post-decision it is local: 7 weighted misses saved
        # DELTA each.
        assert rec.saved_ns == 7 * DELTA
        assert rec.misses_after == 7
        assert rec.cost_ns == 350_000.0
        assert rec.net_ns == 7 * DELTA - 350_000.0
        assert rec.regret          # 6300 saved for 350us paid
        assert a.regrets == [rec]

    def test_enough_traffic_pays_off(self):
        a = build(self.migration_stream(weight_after=500))
        (rec,) = a.pages[7].ledger
        assert rec.saved_ns == 500 * DELTA
        assert not rec.regret

    def test_counterfactual_charges_misses_the_decision_made_remote(self):
        events = self.migration_stream(weight_after=7)
        # cpu 0 (node 0) was local before the migration, remote after.
        events.append(miss(500, cpu=0, page=7, node=1, weight=3, local=False))
        a = build(events)
        (rec,) = a.pages[7].ledger
        assert rec.saved_ns == 7 * DELTA - 3 * DELTA
        assert rec.misses_after == 10

    def test_unchanged_locality_adds_nothing(self):
        events = [
            miss(100, cpu=0, page=7, node=0),
            ReplicationDecision(t=200, page=7, cpu=2, src=0, dst=1,
                                outcome="replicated", latency_ns=350_000.0),
            # node 0 was local before and after the replication.
            miss(300, cpu=0, page=7, node=0, weight=9),
        ]
        a = build(events)
        (rec,) = a.pages[7].ledger
        assert rec.saved_ns == 0.0
        assert rec.misses_after == 9

    def test_collapse_cost_charged_without_closing_the_window(self):
        events = [
            miss(100, cpu=0, page=9, node=0),
            ReplicationDecision(t=200, page=9, cpu=2, src=0, dst=1,
                                outcome="replicated", latency_ns=350_000.0),
            miss(300, cpu=2, page=9, node=1, weight=4),
            CollapseEvent(t=400, page=9, cpu=0, keep_node=0,
                          replicas_dropped=1, latency_ns=90_000.0),
            miss(500, cpu=1, page=9, node=0, weight=2),
        ]
        a = build(events)
        (rec,) = a.pages[9].ledger
        assert rec.collapse_cost_ns == 90_000.0
        assert rec.total_cost_ns == 440_000.0
        assert not rec.closed
        assert rec.misses_after == 6      # window survived the collapse
        assert rec.saved_ns == 4 * DELTA  # node-1 misses made local

    def test_next_decision_closes_the_window(self):
        events = self.migration_stream(weight_after=7) + [
            MigrationDecision(t=600, page=7, cpu=0, src=1, dst=0,
                              outcome="migrated", latency_ns=350_000.0),
            miss(700, cpu=0, page=7, node=0, weight=5),
        ]
        a = build(events)
        first, second = a.pages[7].ledger
        assert first.closed and first.misses_after == 7
        # The second window's counterfactual is the post-first placement.
        assert not second.closed
        assert second.saved_ns == 5 * DELTA
        assert a.ledger == [first, second]

    def test_no_action_closes_the_window(self):
        events = self.migration_stream(weight_after=7) + [
            NoActionDecision(t=600, page=7, cpu=0, reason="write-shared"),
            miss(700, cpu=2, page=7, node=1, weight=50),
        ]
        a = build(events)
        (rec,) = a.pages[7].ledger
        assert rec.closed
        assert rec.misses_after == 7   # the post-no-action miss is outside
        assert a.no_actions == 1


class TestIntervals:
    def test_reset_slices_and_tail_flush(self):
        events = [
            miss(100, cpu=0, page=1, node=0, weight=2),
            miss(200, cpu=2, page=1, node=0, weight=2, local=False),
            IntervalReset(t=1_000, index=0, tracked_pages=1, triggers=0),
            miss(1_500, cpu=0, page=1, node=0, weight=4),
        ]
        a = build(events)
        assert [s.index for s in a.intervals] == [0, 1]
        first, tail = a.intervals
        assert (first.start_t, first.end_t) == (0, 1_000)
        assert first.misses == 4 and first.local == 2
        assert first.local_ratio == 0.5
        assert first.stall_ns == 2 * LOCAL + 2 * REMOTE
        assert tail.start_t == 1_000 and tail.end_t == 1_500
        assert tail.misses == 4 and tail.local_ratio == 1.0
        assert a.interval_resets == 1

    def test_finish_is_idempotent_and_empty_stream_gets_one_slice(self):
        a = Attribution.from_events([])
        assert len(a.intervals) == 1
        before = len(a.intervals)
        a.finish()
        assert len(a.intervals) == before

    def test_action_only_tail_still_flushes(self):
        events = [
            miss(100, cpu=0, page=1, node=0),
            IntervalReset(t=1_000, index=0, tracked_pages=1, triggers=0),
            MigrationDecision(t=1_100, page=1, cpu=2, src=0, dst=1,
                              outcome="no-page", latency_ns=50_000.0),
        ]
        a = build(events)
        assert len(a.intervals) == 2
        assert a.intervals[1].action_cost_ns == 50_000.0

    def test_interval_series_and_chrome_counters(self):
        a = build([
            miss(100, cpu=0, page=1, node=0),
            IntervalReset(t=1_000, index=0, tracked_pages=1, triggers=0),
            miss(1_100, cpu=0, page=1, node=0),
        ])
        series = a.interval_series()
        assert [row["index"] for row in series] == [0, 1]
        assert series[0]["local_ratio"] == 1.0
        counters = a.chrome_counters()
        assert len(counters) == 3 * len(series)
        assert {c["ph"] for c in counters} == {"C"}
        names = {c["name"] for c in counters}
        assert names == {"miss.local_ratio", "interval.stall_ms",
                         "interval.actions"}


class TestConservation:
    def stream(self):
        return [
            miss(100, cpu=0, page=1, node=0, weight=3),
            miss(200, cpu=2, page=1, node=0, weight=5, local=False),
            HotPageTriggered(t=250, page=1, cpu=2, count=128, threshold=128),
            MigrationDecision(t=300, page=1, cpu=2, src=0, dst=1,
                              outcome="migrated", latency_ns=350_000.0),
            IntervalReset(t=1_000, index=0, tracked_pages=1, triggers=1),
            miss(1_100, cpu=2, page=1, node=1, weight=2),
            NoActionDecision(t=1_200, page=2, cpu=0, reason="cold"),
        ]

    def expected(self):
        return {
            "total_misses": 10,
            "local_misses": 5,
            "stall_ns": 5 * LOCAL + 5 * REMOTE,
            "local_stall_ns": 5 * LOCAL,
            "overhead_ns": 350_000.0,
            "migrations": 1,
            "replications": 0,
            "collapses": 0,
            "hot_events": 1,
            "no_actions": 1,
        }

    def test_reconcile_passes_on_a_consistent_stream(self):
        a = build(self.stream())
        assert a.integral
        assert a.conservation_errors() == []
        assert a.reconcile(self.expected()) == []

    def test_reconcile_reports_each_mismatch(self):
        a = build(self.stream())
        wrong = dict(self.expected(), stall_ns=1.0, migrations=2)
        errors = a.reconcile(wrong)
        assert len(errors) == 2
        assert any("stall_ns" in e for e in errors)
        assert any("migrations" in e for e in errors)

    def test_unknown_expected_key_is_an_error(self):
        a = build(self.stream())
        assert a.reconcile({"bogus": 1}) == ["unknown expected key: bogus"]

    def test_miss_free_stream_skips_stall_keys(self):
        a = build([
            NoActionDecision(t=100, page=1, cpu=0, reason="cold"),
        ])
        assert a.reconcile({"stall_ns": 123456.0, "no_actions": 1}) == []

    def test_fractional_latency_switches_to_float_tolerance(self):
        a = build([
            MissServiced(t=100, cpu=0, page=1, node=0, weight=3,
                         latency_ns=300.1, remote=False),
        ])
        assert not a.integral
        # exactly representable sums still reconcile under isclose
        assert a.reconcile({"total_misses": 3, "stall_ns": 300.1 * 3}) == []

    def test_exact_override_detects_float_drift(self):
        a = build([miss(100, cpu=0, page=1, node=0, weight=3)])
        assert a.reconcile({"stall_ns": 900.0 + 1e-9}, exact=True) != []
        assert a.reconcile({"stall_ns": 900.0 + 1e-9}, exact=False) == []


class TestSinkAndMeta:
    def test_attribution_sink_feeds_and_finishes(self):
        sink = AttributionSink()
        tracer = Tracer(capacity=1, sinks=[sink])
        for event in [META, *TestConservation().stream()]:
            tracer.emit(event)
        tracer.close()
        a = sink.attribution
        assert a.events == 8
        assert a.reconcile(TestConservation().expected()) == []

    def test_meta_supplies_topology_and_reference_latencies(self):
        a = build([])
        assert a.has_topology
        assert a.meta is META

    def test_without_meta_latencies_are_learned_from_misses(self):
        a = Attribution.from_events([
            miss(100, cpu=0, page=7, node=0),
            miss(200, cpu=2, page=7, node=0, weight=10, local=False),
            MigrationDecision(t=300, page=7, cpu=2, src=0, dst=1,
                              outcome="migrated", latency_ns=350_000.0),
            miss(400, cpu=2, page=7, node=1, weight=7),
        ])
        assert not a.has_topology
        # No topology -> no requesting-node mapping -> payoff undefined.
        (rec,) = a.pages[7].ledger
        assert rec.saved_ns == 0.0
        assert rec.misses_after == 7
        assert a.nodes[0].serviced == 11  # serviced-by still tracked


class TestDiff:
    def test_identical_streams_diff_to_zero(self):
        events = TestConservation().stream()
        diff = diff_attributions(build(events), build(events))
        assert diff.is_identical
        assert diff.common == diff.identical == 2
        assert diff.stall_delta_ns == 0.0
        assert "identical at page granularity" in format_diff(diff)

    def test_metadata_differences_do_not_diverge(self):
        events = TestConservation().stream()
        b_events = [TriggerAdjusted(t=0, old_trigger=128,
                                    new_trigger=64)] + events
        assert diff_attributions(build(events), build(b_events)).is_identical

    def test_divergence_ranked_by_stall_delta(self):
        base = [
            miss(100, cpu=0, page=1, node=0, weight=2),
            miss(200, cpu=0, page=2, node=0, weight=2),
        ]
        changed = [
            miss(100, cpu=2, page=1, node=0, weight=2, local=False),  # +1800
            miss(200, cpu=0, page=2, node=0, weight=3),               # +300
        ]
        diff = diff_attributions(build(base), build(changed))
        assert [d.page for d in diff.divergent] == [1, 2]
        assert diff.divergent[0].stall_delta == 2 * REMOTE - 2 * LOCAL
        assert diff.stall_delta_ns == sum(
            d.stall_delta for d in diff.divergent
        )
        assert not diff.is_identical
        text = format_diff(diff)
        assert "2 divergent" in text

    def test_only_a_and_only_b_pages(self):
        diff = diff_attributions(
            build([miss(100, cpu=0, page=1, node=0)]),
            build([miss(100, cpu=0, page=2, node=0)]),
        )
        assert diff.only_a == [1]
        assert diff.only_b == [2]
        assert not diff.is_identical

    def test_to_dict_shapes(self):
        diff = AttribDiff()
        data = diff.to_dict()
        assert data["kind"] == "attribution-diff"
        assert data["divergent_pages"] == 0


class TestFormatters:
    def test_summary_mentions_the_headline_numbers(self):
        a = build(TestConservation().stream())
        text = format_summary(a)
        assert "synthetic" in text
        assert "4 CPUs / 2 nodes" in text
        assert "1 migrated" in text
        assert "payoff:" in text

    def test_ledger_flags_regret(self):
        a = build(TestPayoffLedger().migration_stream(weight_after=7))
        assert "REGRET" in format_ledger(a)

    def test_page_and_top_pages_and_nodes(self):
        a = build(TestConservation().stream())
        assert "page 1:" in format_page(a, 1)
        assert "never appears" in format_page(a, 404)
        assert "page" in format_top_pages(a)
        assert "node" in format_nodes(a)

    def test_top_pages_without_misses_rank_the_most_acted_on(self):
        events = [
            MigrationDecision(t=100, page=1, cpu=2, src=0, dst=1,
                              outcome="migrated"),
            NoActionDecision(t=150, page=2, cpu=0, reason="write-shared"),
            ReplicationDecision(t=200, page=3, cpu=2, src=0, dst=1,
                                outcome="replicated"),
            CollapseEvent(t=300, page=3, cpu=0, keep_node=0,
                          replicas_dropped=1),
        ]
        a = build(events)
        rows = format_top_pages(a).splitlines()[2:]
        assert [int(r.split()[0]) for r in rows] == [3, 1, 2]
        # The JSON page order stays by stall, then page id.
        assert [p["page"] for p in a.to_dict()["pages"]] == [1, 2, 3]

    def test_decision_only_stream_reports_payoff_unmeasured(self):
        a = build([
            MigrationDecision(t=100, page=1, cpu=2, src=0, dst=1,
                              outcome="migrated", latency_ns=350_000.0),
        ])
        assert a.miss_events == 0
        assert len(a.regrets) == 1          # the digest-facing data stays
        for text in (format_summary(a), format_ledger(a), format_page(a, 1)):
            assert "payoff needs miss events" in text
            assert "--trace-misses" in text
            assert "REGRET" not in text
            assert "net-regret" not in text
        assert "first touch unknown" in format_page(a, 1)

    def test_page_timeline_lists_every_decision_on_the_page(self):
        events = [
            HotPageTriggered(t=200, page=7, cpu=1, count=130,
                             threshold=128),
            MigrationDecision(t=300, page=7, cpu=1, src=0, dst=1,
                              outcome="migrated", reason="unshared",
                              latency_ns=250_000.0),
            ReplicationDecision(t=400, page=9, cpu=2, src=0, dst=2,
                                outcome="replicated"),
            MigrationDecision(t=500, page=7, cpu=2, src=1, dst=0,
                              outcome="no-page"),
            NoActionDecision(t=600, page=7, cpu=3, reason="write-shared"),
            CollapseEvent(t=700, page=7, cpu=0, keep_node=0,
                          replicas_dropped=1),
        ]
        a = build(events)
        text = format_page(a, 7, events)
        assert "decision timeline (5 events)" in text
        for label in ("hot-page ", "migration ", "[no-page]",
                      "no action ", "collapse "):
            assert label in text
        assert "copy on node 2" not in text
        # No stream, no timeline.
        assert "decision timeline" not in format_page(a, 7)

    def test_intervals_table_rows_plus_tail(self):
        a = build([
            HotPageTriggered(t=10, page=1, cpu=0, count=128, threshold=128),
            MigrationDecision(t=20, page=1, cpu=0, src=0, dst=1,
                              outcome="migrated"),
            MigrationDecision(t=30, page=2, cpu=0, src=0, dst=1,
                              outcome="no-page"),
            IntervalReset(t=100, index=0, tracked_pages=1, triggers=1),
            ReplicationDecision(t=150, page=2, cpu=1, src=0, dst=1,
                                outcome="replicated"),
        ])
        lines = format_intervals(a).splitlines()
        assert lines[0].split() == [
            "interval", "end", "(ms)", "hot", "migr", "repl", "none", "coll"
        ]
        assert len(lines) == 4  # header, rule, interval 0, tail
        # Failed no-page attempts are not counted as moves.
        assert lines[2].split()[2:] == ["1", "1", "0", "0", "0"]
        assert lines[3].split()[0] == "tail"
        assert lines[3].split()[2:] == ["0", "0", "1", "0", "0"]

    def test_intervals_table_without_resets_has_no_tail(self):
        a = build([NoActionDecision(t=5, page=1, cpu=0)])
        lines = format_intervals(a).splitlines()
        assert len(lines) == 3
        assert lines[2].split()[0] == "0"

    def test_to_dict_top_limits_pages_not_totals(self):
        a = build(TestConservation().stream())
        data = a.to_dict(top=1)
        assert len(data["pages"]) == 1
        assert data["totals"]["pages"] == 2
        assert data["schema_version"] == 3


class TestSweepAttribution:
    @staticmethod
    def outcome(policy, stall, overhead=0.0, ok=True, workload="engineering"):
        spec = SimpleNamespace(
            workload=workload, scale=0.25, seed=0, machine="ccnuma",
            kind="trace", kernel_trace=False, policy=policy,
            label=lambda: f"{workload}:{policy}",
        )
        result = SimpleNamespace(stall_ns=stall, overhead_ns=overhead)
        return SimpleNamespace(spec=spec, result=result, ok=ok)

    def test_payoff_measured_against_the_ft_baseline(self):
        stats = sweep_attribution([
            self.outcome("ft", stall=1_000.0),
            self.outcome("migr", stall=400.0, overhead=100.0),
            self.outcome("repl", stall=800.0, overhead=700.0),
        ])
        cells = {c["label"]: c for c in stats["cells"]}
        assert len(cells) == 2   # the static baseline is not a cell
        migr = cells["engineering:migr"]
        assert migr["stall_saved_vs_ft_ns"] == 600.0
        assert migr["net_payoff_ns"] == 500.0
        assert not migr["regret"]
        repl = cells["engineering:repl"]
        assert repl["net_payoff_ns"] == -500.0
        assert repl["regret"]
        summary = stats["summary"]
        assert summary["dynamic_cells"] == 2
        assert summary["regressions"] == 1
        assert summary["net_payoff_ns"] == 0.0

    def test_missing_baseline_and_failed_cells_are_tolerated(self):
        stats = sweep_attribution([
            self.outcome("migr", stall=400.0, workload="lonely"),
            self.outcome("migrep", stall=1.0, ok=False),
        ])
        (cell,) = stats["cells"]
        assert cell["stall_saved_vs_ft_ns"] is None
        assert not cell["regret"]
        assert stats["summary"]["with_baseline"] == 0
