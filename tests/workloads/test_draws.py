"""The numpy stream property the batched page draws rely on.

:meth:`TraceGenerator.generate` queues each page group's pick bounds
and draws the queue with one ``integers(0, highs)`` call before each
``random(m)`` and at the end.  That reproduces the per-group
``integers(0, n, size=k)`` calls only because array bounds draw element
by element from the same stream.  This test pins that property, so a
numpy upgrade that breaks it fails here by name and not only through
the pinned trace digests.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

#: Bounds on both sides of 2**32, where numpy switches from 32-bit to
#: 64-bit draws; 1 draws nothing.
BOUNDS = st.one_of(
    st.integers(1, 64),
    st.integers(2**32 - 3, 2**32 + 3),
    st.integers(1, 2**62),
)

#: A run of groups ``(bound, k)`` ended by a ``random(m)`` flush.
RUNS = st.lists(
    st.tuples(
        st.lists(st.tuples(BOUNDS, st.integers(0, 20)), max_size=6),
        st.integers(0, 5),
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(runs=RUNS, seed=st.integers(0, 2**32 - 1))
def test_array_bounds_draw_the_scalar_stream(runs, seed):
    scalar = np.random.default_rng(seed)
    batched = np.random.default_rng(seed)
    for groups, m in runs:
        want = [scalar.integers(0, n, size=k) for n, k in groups]
        highs = np.array([n for n, k in groups for _ in range(k)], np.int64)
        got = batched.integers(0, highs)
        assert got.tolist() == [x for draws in want for x in draws.tolist()]
        assert batched.bit_generator.state == scalar.bit_generator.state
        assert scalar.random(m).tolist() == batched.random(m).tolist()
    assert batched.bit_generator.state == scalar.bit_generator.state
