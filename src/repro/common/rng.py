"""Deterministic random-number utilities.

Every stochastic component of the library (workload generators, sampling,
scheduling jitter) draws from a :class:`numpy.random.Generator` created
here.  Seeds are combined with string labels through ``numpy``'s
``SeedSequence`` machinery, so two components created from the same master
seed but different labels produce independent, reproducible streams, and
adding a new consumer never perturbs existing ones.
"""

from __future__ import annotations

from typing import Union

import numpy as np

Seedable = Union[int, str]


def _entropy_for(label: Seedable) -> int:
    """Map a label to a stable integer for SeedSequence spawning."""
    if isinstance(label, (int, np.integer)):
        return int(label)
    # Stable across processes (unlike hash()): fold the UTF-8 bytes.
    acc = 0
    for byte in str(label).encode("utf-8"):
        acc = (acc * 131 + byte) % (2**61 - 1)
    return acc


def make_rng(seed: int, *labels: Seedable) -> np.random.Generator:
    """Create a deterministic generator for ``seed`` and a label path.

    Parameters
    ----------
    seed:
        Master seed, typically a workload or experiment seed.
    labels:
        Any mix of strings and integers naming the consumer, e.g.
        ``make_rng(42, "engineering", "code-pages", cpu)``.

    Returns
    -------
    numpy.random.Generator
        A PCG64 generator; two calls with identical arguments return
        generators producing identical streams.
    """
    entropy = [int(seed)] + [_entropy_for(label) for label in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))
