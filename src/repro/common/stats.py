"""Small online statistics helpers used by the simulators.

The machine and kernel models accumulate latency and occupancy statistics
while the event loop runs; these classes keep that accumulation O(1) per
sample and independent of run length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np


def _first_tie(values: np.ndarray, extreme: float) -> float:
    """``extreme`` as the first of ``values`` equal to it.

    Only zeros tie unequal bits (0.0 and -0.0); the first one wins, as
    in a left-to-right ``min``/``max``.
    """
    if extreme == 0:
        return float(values[np.argmax(values == 0)])
    return float(extreme)


class OnlineStats:
    """Streaming count/mean/min/max/variance accumulator (Welford)."""

    __slots__ = ("count", "total", "minimum", "maximum", "_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float, weight: int = 1) -> None:
        """Record ``value`` occurring ``weight`` times."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        value = float(value)
        self.total += value * weight
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        # Weighted Welford update.
        new_count = self.count + weight
        delta = value - self._mean
        self._mean += delta * weight / new_count
        self._m2 += delta * (value - self._mean) * weight
        self.count = new_count

    def add_many(self, values, weights) -> None:
        """:meth:`add` each ``(values[i], weights[i])`` in order.

        The same update, bit for bit.  ``total`` is a cumsum seeded with
        the running total (it adds left to right, as the loop does),
        ``minimum``/``maximum`` and the running counts come from numpy,
        and only the Welford ``mean``/``m2`` steps stay a Python loop.
        """
        values = np.asarray(values, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.int64)
        if not len(values):
            return
        if weights.min() <= 0:
            raise ValueError("weight must be positive")
        products = values * weights
        products[0] += self.total
        self.total = float(np.cumsum(products)[-1])
        self.minimum = min(self.minimum, _first_tie(values, values.min()))
        self.maximum = max(self.maximum, _first_tie(values, values.max()))
        counts = np.cumsum(weights)
        counts += self.count
        mean, m2 = self._mean, self._m2
        for value, weight, new_count in zip(
            values.tolist(), weights.tolist(), counts.tolist()
        ):
            delta = value - mean
            mean += delta * weight / new_count
            m2 += delta * (value - mean) * weight
        self.count = int(counts[-1])
        self._mean, self._m2 = mean, m2

    @property
    def mean(self) -> float:
        """Arithmetic mean of recorded values (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance of recorded values (0.0 when empty).

        Rounding in the Welford update can leave ``m2`` of equal values
        a hair below zero; that reads as 0 (the stored ``m2`` is kept).
        """
        return max(self._m2 / self.count, 0.0) if self.count else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> None:
        """Fold another accumulator into this one."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.total = other.total
            self.minimum = other.minimum
            self.maximum = other.maximum
            self._mean = other._mean
            self._m2 = other._m2
            return
        combined = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / combined
        self._mean += delta * other.count / combined
        self.count = combined
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def combined(self, other: "OnlineStats") -> "OnlineStats":
        """Non-mutating :meth:`merge`: a fresh accumulator holding both.

        Used when folding per-CPU (or per-label) accumulators into an
        aggregate view without disturbing the live per-CPU state.
        """
        out = OnlineStats()
        out.merge(self)
        out.merge(other)
        return out

    def __add__(self, other: "OnlineStats") -> "OnlineStats":
        if not isinstance(other, OnlineStats):
            return NotImplemented
        return self.combined(other)

    def to_dict(self) -> dict:
        """JSON-safe snapshot (``min``/``max`` are ``None`` when empty)."""
        empty = self.count == 0
        return {
            "count": self.count,
            "total": self.total,
            "min": None if empty else self.minimum,
            "max": None if empty else self.maximum,
            "mean": self._mean,
            "m2": self._m2,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OnlineStats":
        """Rebuild an accumulator from :meth:`to_dict` output."""
        out = cls()
        out.count = int(data["count"])
        out.total = float(data["total"])
        out.minimum = math.inf if data["min"] is None else float(data["min"])
        out.maximum = -math.inf if data["max"] is None else float(data["max"])
        out._mean = float(data["mean"])
        out._m2 = float(data["m2"])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OnlineStats(count={self.count}, mean={self.mean:.3g}, "
            f"min={self.minimum:.3g}, max={self.maximum:.3g})"
        )


class SampleStats(OnlineStats):
    """:class:`OnlineStats` plus bounded sample retention for percentiles.

    The sweep runner records per-task durations through this: the
    streaming moments stay O(1), and the first ``max_samples`` raw values
    are kept so p50/p95 can be reported without holding an unbounded
    history.  Sweeps are far smaller than the cap in practice, so the
    percentiles are exact; past the cap they describe the earliest
    samples only.
    """

    __slots__ = ("samples", "max_samples")

    def __init__(self, max_samples: int = 4096) -> None:
        super().__init__()
        self.samples: List[float] = []
        self.max_samples = int(max_samples)

    def add(self, value: float, weight: int = 1) -> None:
        """Record ``value`` occurring ``weight`` times."""
        super().add(value, weight)
        if len(self.samples) < self.max_samples:
            self.samples.append(float(value))

    def add_many(self, values, weights) -> None:
        """:meth:`add` each ``(values[i], weights[i])`` in order."""
        super().add_many(values, weights)
        room = self.max_samples - len(self.samples)
        if room > 0:
            self.samples.extend(
                np.asarray(values, dtype=np.float64)[:room].tolist()
            )

    def merge(self, other: "OnlineStats") -> None:
        """Fold another accumulator in, retaining its samples too.

        The streaming moments merge exactly (Welford); retained samples
        from a :class:`SampleStats` peer are appended up to this
        accumulator's own cap, so post-merge percentiles describe both
        inputs whenever neither side had overflowed.  Merging a plain
        :class:`OnlineStats` contributes moments only.
        """
        super().merge(other)
        if isinstance(other, SampleStats):
            room = self.max_samples - len(self.samples)
            if room > 0:
                self.samples.extend(other.samples[:room])

    def combined(self, other: "OnlineStats") -> "SampleStats":
        """Non-mutating merge that keeps percentile support."""
        out = SampleStats(max_samples=self.max_samples)
        out.merge(self)
        out.merge(other)
        return out

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of retained samples.

        Linear interpolation between closest ranks; 0.0 when empty.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self.samples:
            return 0.0
        data = sorted(self.samples)
        rank = (q / 100.0) * (len(data) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return data[lo]
        frac = rank - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def to_dict(self) -> dict:
        """:meth:`OnlineStats.to_dict` plus ``p50``/``p95``."""
        out = super().to_dict()
        out["p50"] = self.percentile(50)
        out["p95"] = self.percentile(95)
        return out


@dataclass
class WeightedHistogram:
    """Histogram over integer-valued samples with integer weights."""

    counts: Dict[int, int] = field(default_factory=dict)

    def add(self, value: int, weight: int = 1) -> None:
        """Record ``value`` occurring ``weight`` times."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        self.counts[int(value)] = self.counts.get(int(value), 0) + int(weight)

    @property
    def total(self) -> int:
        """Total recorded weight."""
        return sum(self.counts.values())

    def fraction_at_least(self, threshold: int) -> float:
        """Fraction of total weight with value >= ``threshold``."""
        total = self.total
        if total == 0:
            return 0.0
        above = sum(w for v, w in self.counts.items() if v >= threshold)
        return above / total

    def survival(self, thresholds: List[int]) -> List[Tuple[int, float]]:
        """(threshold, fraction >= threshold) pairs, as in Figure 4."""
        return [(t, self.fraction_at_least(t)) for t in thresholds]


def percent_change(before: float, after: float) -> float:
    """Signed percent change from ``before`` to ``after``.

    Positive values mean improvement in the paper's sense (a reduction):
    ``percent_change(100, 71) == 29.0``.
    """
    if before == 0:
        return 0.0
    return (before - after) / before * 100.0
