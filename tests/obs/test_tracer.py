"""The tracer: ring-buffer bounds, kind filters, and the disabled fast path."""

import pytest

from repro.obs.events import (
    ALL_KINDS,
    HotPageTriggered,
    MigrationDecision,
    MissServiced,
)
from repro.obs.tracer import (
    NULL_TRACER,
    CountingSink,
    ListSink,
    NullTracer,
    Tracer,
    as_tracer,
)


def _hot(t):
    return HotPageTriggered(t=t, page=1, cpu=0, count=128, threshold=128)


class TestRing:
    def test_keeps_most_recent_on_wraparound(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.emit(_hot(i))
        kept = tracer.events()
        assert [e.t for e in kept] == [6, 7, 8, 9]
        assert tracer.emitted == 10
        assert tracer.dropped == 6

    def test_no_drops_below_capacity(self):
        tracer = Tracer(capacity=16)
        for i in range(5):
            tracer.emit(_hot(i))
        assert tracer.dropped == 0
        assert len(tracer.events()) == 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestSinks:
    def test_sinks_see_every_event_despite_ring_overflow(self):
        sink = ListSink()
        tracer = Tracer(capacity=2, sinks=[sink])
        for i in range(8):
            tracer.emit(_hot(i))
        assert len(sink.events) == 8
        # A tracer with sinks keeps no ring.
        assert tracer.events() == []
        assert tracer.dropped == 0

    def test_fan_out_to_multiple_sinks(self):
        a, b = CountingSink(), CountingSink()
        tracer = Tracer(sinks=[a, b])
        tracer.emit(_hot(0))
        assert a.count == 1
        assert b.count == 1


class TestKindFilter:
    def test_unwanted_kinds_are_not_recorded(self):
        sink = ListSink()
        tracer = Tracer(sinks=[sink], kinds=ALL_KINDS - {MissServiced.KIND})
        tracer.emit(MissServiced(t=0))
        tracer.emit(_hot(1))
        assert tracer.emitted == 1
        assert [e.KIND for e in sink.events] == ["hot-page"]
        assert tracer.events() == []

    def test_wants_reflects_filter(self):
        tracer = Tracer(kinds={MigrationDecision.KIND})
        assert tracer.wants("migration")
        assert not tracer.wants("miss")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Tracer(kinds={"not-a-kind"})


class TestDisabled:
    def test_disabled_tracer_records_nothing(self):
        sink = CountingSink()
        tracer = Tracer(sinks=[sink], enabled=False)
        assert not tracer.active
        assert not tracer.wants("migration")
        tracer.emit(_hot(0))
        assert sink.count == 0
        assert tracer.emitted == 0
        assert tracer.events() == []

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.active
        assert not NULL_TRACER.wants("migration")
        NULL_TRACER.emit(_hot(0))
        assert NULL_TRACER.events() == []
        NULL_TRACER.close()

    def test_as_tracer_normalises_none(self):
        assert as_tracer(None) is NULL_TRACER
        tracer = Tracer()
        assert as_tracer(tracer) is tracer
        assert isinstance(as_tracer(None), NullTracer)
