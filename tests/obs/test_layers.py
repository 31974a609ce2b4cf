"""The layer profiler: wrapping, self-time arithmetic, the shared table."""

import importlib
import importlib.util
import math
import sys
import types
from pathlib import Path

import pytest

from repro.obs import layers
from repro.obs.layers import OTHER, LayerTrace, calibrate

ROOT = Path(__file__).resolve().parents[2]


def _owner_and_attr(entry):
    module_name, qualname = entry.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _raw(entry):
    owner, attr = _owner_and_attr(entry)
    return vars(owner)[attr]


def fake_clock(step_ns=10):
    """A deterministic perf_counter_ns stand-in advancing per call."""
    state = {"now": 0}

    def clock():
        state["now"] += step_ns
        return state["now"]

    return clock


@pytest.fixture
def toy(monkeypatch):
    """A throwaway module whose functions form a two-layer table.

    ``outer`` (layer ``A``) calls ``inner`` (layer ``B``) through the
    module global, so the wrapper on ``inner`` sees the nested call;
    ``Probe`` carries a classmethod and a staticmethod boundary.  The
    wrappers read a fake clock that ticks 10 ns per reading.
    """
    monkeypatch.setattr(
        layers, "time", types.SimpleNamespace(perf_counter_ns=fake_clock())
    )
    module = types.ModuleType("layers_toy")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    class Probe:
        @classmethod
        def build(cls, x):
            return (cls, x)

        @staticmethod
        def double(x):
            return 2 * x

    module.inner, module.outer, module.Probe = inner, outer, Probe
    monkeypatch.setitem(sys.modules, "layers_toy", module)
    table = (
        ("layers_toy:outer", "A", "-"),
        ("layers_toy:inner", "B", "-"),
        ("layers_toy:Probe.build", "C", "-"),
        ("layers_toy:Probe.double", "C", "-"),
    )
    monkeypatch.setattr(layers, "BOUNDARIES", table)
    monkeypatch.setattr(
        layers, "LAYER_OF", {entry: layer for entry, layer, _ in table}
    )
    monkeypatch.setattr(layers, "LAYERS", ("A", "B", "C", OTHER))
    return module


def _load_benchmark_copy():
    path = ROOT / "benchmarks" / "reproduce" / "layers.py"
    spec = importlib.util.spec_from_file_location("_bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWrapAndRestore:
    def test_every_boundary_is_wrapped_then_restored(self):
        originals = {entry: _raw(entry) for entry, _, _ in layers.BOUNDARIES}
        with LayerTrace():
            for entry, raw in originals.items():
                assert _raw(entry) is not raw, entry
        for entry, raw in originals.items():
            assert _raw(entry) is raw, entry

    def test_restored_when_the_body_raises(self):
        originals = {entry: _raw(entry) for entry, _, _ in layers.BOUNDARIES}
        with pytest.raises(RuntimeError, match="boom"):
            with LayerTrace():
                raise RuntimeError("boom")
        for entry, raw in originals.items():
            assert _raw(entry) is raw, entry

    def test_restored_when_wrapping_fails_part_way(self, toy, monkeypatch):
        table = layers.BOUNDARIES + (("layers_toy:missing", "A", "-"),)
        monkeypatch.setattr(layers, "BOUNDARIES", table)
        inner, outer = toy.inner, toy.outer
        with pytest.raises(KeyError):
            LayerTrace().__enter__()
        assert toy.inner is inner and toy.outer is outer

    def test_classmethod_and_staticmethod_boundaries(self, toy):
        build, double = vars(toy.Probe)["build"], vars(toy.Probe)["double"]
        with LayerTrace() as trace:
            assert isinstance(vars(toy.Probe)["build"], classmethod)
            assert isinstance(vars(toy.Probe)["double"], staticmethod)
            assert toy.Probe.build(3) == (toy.Probe, 3)
            assert toy.Probe().double(4) == 8
        assert vars(toy.Probe)["build"] is build
        assert vars(toy.Probe)["double"] is double
        calls = trace.entry_calls()
        assert calls["layers_toy:Probe.build"] == 1
        assert calls["layers_toy:Probe.double"] == 1

    def test_wrapped_function_keeps_its_name(self, toy):
        with LayerTrace():
            assert toy.inner.__name__ == "inner"
            assert toy.inner.__wrapped__ is not None


class TestSelfTime:
    def test_tallies_from_a_fake_clock(self, toy):
        # Ticks of 10 ns: outer starts at 10, inner runs 20..30, outer
        # ends at 40 -- outer 30 ns with 10 ns of wrapped child time.
        with LayerTrace() as trace:
            assert toy.outer(1) == 4
        assert trace.tallies["layers_toy:outer"] == {OTHER: [1, 30, 10, 1]}
        assert trace.tallies["layers_toy:inner"] == {"A": [1, 10, 0, 0]}
        assert trace.root == [OTHER, 30, 1]

    def test_calibrated_self_time_and_share(self, toy):
        with LayerTrace() as trace:
            toy.outer(1)
        rows = trace.rows([100e-9], inner_ns=2, outer_ns=5)
        # A: 30 total - 10 child - 2 own wrapper - (5-2) per child call.
        assert rows["A"]["self_s"] == pytest.approx(15e-9)
        # B: 10 total - 2 own wrapper.
        assert rows["B"]["self_s"] == pytest.approx(8e-9)
        # other: 100 wall - 30 covered - (5-2) per top-level call.
        assert rows[OTHER]["self_s"] == pytest.approx(67e-9)
        assert rows["C"] == {"calls": 0, "self_s": 0.0, "share": 0.0}
        assert rows["A"]["share"] == pytest.approx(15 / 90)
        assert sum(row["share"] for row in rows.values()) == pytest.approx(1)
        assert (rows["A"]["calls"], rows["B"]["calls"]) == (1, 1)

    def test_rows_average_over_passes(self, toy):
        trace = LayerTrace()
        for _ in range(2):
            with trace:
                toy.outer(1)
        rows = trace.rows([100e-9, 100e-9], inner_ns=0, outer_ns=0)
        assert rows["A"]["calls"] == 1
        assert rows["A"]["self_s"] == pytest.approx(20e-9)


class TestCallerAttribution:
    def test_nested_calls_are_charged_to_their_caller_layer(self, toy):
        with LayerTrace() as trace:
            toy.outer(1)
            toy.inner(1)
        inner = trace.tallies["layers_toy:inner"]
        assert set(inner) == {"A", OTHER}
        assert inner["A"][0] == inner[OTHER][0] == 1
        assert trace.tallies["layers_toy:outer"][OTHER][3] == 1
        assert trace.entry_calls()["layers_toy:inner"] == 2
        assert trace.root[2] == 2  # two top-level wrapped calls


class TestCalibrate:
    def test_wrapper_cost_is_positive(self):
        inner_ns, outer_ns = calibrate(rounds=1, calls=2_000)
        assert inner_ns > 0
        assert math.isfinite(outer_ns)


class TestBenchmarkCopy:
    """``benchmarks/reproduce/layers.py`` times the same boundaries."""

    def test_tables_are_equal(self):
        bench = _load_benchmark_copy()
        assert bench.BOUNDARIES == layers.BOUNDARIES
        assert bench.LAYERS == layers.LAYERS
        assert bench.OTHER == layers.OTHER

    @pytest.mark.parametrize(
        "entry", [entry for entry, _, _ in layers.BOUNDARIES]
    )
    def test_every_boundary_is_a_live_callable(self, entry):
        raw = _raw(entry)
        if isinstance(raw, (classmethod, staticmethod)):
            raw = raw.__func__
        assert callable(raw)

    def test_rows_match_the_benchmark_copy(self, toy):
        bench = _load_benchmark_copy()
        with LayerTrace() as trace:
            toy.outer(1)
            toy.inner(2)
        twin = bench.LayerTrace.__new__(bench.LayerTrace)
        twin.tallies, twin.root = trace.tallies, trace.root
        # The benchmark's copy reads its own module's table.
        bench.LAYER_OF, bench.LAYERS = layers.LAYER_OF, layers.LAYERS
        traced = [200e-9, 180e-9]
        _, their_rows = twin.metrics([150e-9, 120e-9], traced, 2.0, 5.0)
        assert trace.rows(traced, 2.0, 5.0) == their_rows
