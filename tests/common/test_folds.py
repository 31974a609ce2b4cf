"""The grouped-column folds against dict folds written here.

Keys are drawn from a few values above a base of 0 or 10**7, so groups
repeat and ids need not be small.  The weight table is dense in page
ids, so its pages stay near 0 or 10**3.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.folds import (
    WeightTable,
    group_sums,
    last_index,
    node_column,
    pair_sums,
    round_robin,
    running_counts,
)

FOLD_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def ints(data, n, lo, hi):
    return np.array(
        data.draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)),
        dtype=np.int64,
    )


def draw_keys(data, n):
    """``n`` keys over ``span`` values from a base of 0 or 10**7."""
    base = data.draw(st.sampled_from([0, 10**7]))
    span = data.draw(st.integers(1, 6))  # 1: every record has one key
    return base + ints(data, n, 0, span - 1)


def dict_sums(keys, weights):
    sums = {}
    for k, w in zip(keys, weights):
        sums[k] = sums.get(k, 0) + w
    return sums


class TestGroupSums:
    @FOLD_SETTINGS
    @given(st.data())
    def test_matches_a_dict_fold(self, data):
        n = data.draw(st.integers(0, 40))
        keys = draw_keys(data, n)
        weights = ints(data, n, 0, 9)
        want = dict_sums(keys.tolist(), weights.tolist())
        ukeys, sums = group_sums(keys, weights)
        assert ukeys.tolist() == sorted(want)
        if n:  # np.bincount gives an empty column as int64
            assert sums.dtype == np.float64
        assert sums.tolist() == [want[k] for k in sorted(want)]
        ukeys, counts = group_sums(keys)
        assert ukeys.tolist() == sorted(want)
        assert counts.dtype == np.int64
        assert counts.tolist() == [
            keys.tolist().count(k) for k in sorted(want)
        ]

    def test_empty(self):
        ukeys, sums = group_sums(np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert len(ukeys) == len(sums) == 0


class TestPairSums:
    @FOLD_SETTINGS
    @given(st.data())
    def test_matches_a_dict_fold(self, data):
        n = data.draw(st.integers(0, 40))
        n_b = data.draw(st.integers(1, 8))
        a = draw_keys(data, n)
        b = ints(data, n, 0, n_b - 1)
        weights = ints(data, n, 0, 9)
        want = dict_sums(zip(a.tolist(), b.tolist()), weights.tolist())
        ua, ub, sums = pair_sums(a, b, n_b, weights)
        # a-major order, as a bank walk over pages expects.
        assert list(zip(ua.tolist(), ub.tolist())) == sorted(want)
        assert sums.tolist() == [want[k] for k in sorted(want)]

    def test_one_pair(self):
        ua, ub, sums = pair_sums(np.array([7, 7]), np.array([3, 3]), 4,
                                 np.array([2, 5]))
        assert (ua.tolist(), ub.tolist(), sums.tolist()) == ([7], [3], [7.0])


class TestLastIndex:
    @FOLD_SETTINGS
    @given(st.data())
    def test_matches_a_dict_fold(self, data):
        n = data.draw(st.integers(0, 40))
        keys = draw_keys(data, n)
        last = {}
        for i, k in enumerate(keys.tolist()):
            last[k] = i
        ukeys, got = last_index(keys)
        assert ukeys.tolist() == sorted(last)
        assert got.tolist() == [last[k] for k in sorted(last)]

    def test_empty(self):
        ukeys, at = last_index(np.zeros(0, np.int64))
        assert len(ukeys) == len(at) == 0


class TestRunningCounts:
    @FOLD_SETTINGS
    @given(st.data())
    def test_matches_a_dict_fold(self, data):
        n = data.draw(st.integers(0, 40))
        keys = draw_keys(data, n)
        weights = ints(data, n, 0, 9)
        # Each key's count before the column, the same on its records.
        start_of = {k: data.draw(st.integers(0, 50))
                    for k in sorted(set(keys.tolist()))}
        start = np.array([start_of[k] for k in keys.tolist()],
                         dtype=np.int64)
        running = dict(start_of)
        want = []
        for k, w in zip(keys.tolist(), weights.tolist()):
            running[k] += w
            want.append(running[k])
        got = running_counts(keys, weights, start)
        assert got.dtype == np.int64
        assert got.tolist() == want

    @FOLD_SETTINGS
    @given(st.data())
    def test_scalar_start(self, data):
        n = data.draw(st.integers(0, 40))
        keys = draw_keys(data, n)
        weights = ints(data, n, 0, 9)
        start = data.draw(st.integers(0, 50))
        running = {}
        want = []
        for k, w in zip(keys.tolist(), weights.tolist()):
            running[k] = running.get(k, start) + w
            want.append(running[k])
        assert running_counts(keys, weights, start).tolist() == want

    def test_empty(self):
        got = running_counts(np.zeros(0, np.int64), np.zeros(0, np.int64), 5)
        assert len(got) == 0


class TestWeightTable:
    @FOLD_SETTINGS
    @given(st.data())
    def test_chunks_match_a_dict_argmax(self, data):
        n_nodes = data.draw(st.integers(1, 4))
        base = data.draw(st.sampled_from([0, 10**3]))
        table = WeightTable(n_nodes)
        cells = {}
        for _ in range(data.draw(st.integers(0, 4))):
            n = data.draw(st.integers(0, 12))
            pages = base + ints(data, n, 0, 5)
            nodes = ints(data, n, 0, n_nodes - 1)
            weights = ints(data, n, 1, 3)  # ties between nodes are common
            table.add(pages, nodes, weights)
            for p, nd, w in zip(pages.tolist(), nodes.tolist(),
                                weights.tolist()):
                cells[p, nd] = cells.get((p, nd), 0) + w
        n_pages = max((p for p, _ in cells), default=-1) + 1
        want = []
        for page in range(max(n_pages, 1)):
            row = [cells.get((page, nd), 0) for nd in range(n_nodes)]
            # The first heaviest node; an untouched page goes round-robin.
            want.append(row.index(max(row)) if any(row)
                        else page % n_nodes)
        got = table.argmax_placement()
        assert got.dtype == np.int64
        assert got.tolist() == want

    def test_empty_table_places_one_page(self):
        assert WeightTable(4).argmax_placement().tolist() == [0]


@FOLD_SETTINGS
@given(n_pages=st.integers(-1, 40), n_nodes=st.integers(1, 8))
def test_round_robin_matches_a_loop(n_pages, n_nodes):
    got = round_robin(n_pages, n_nodes)
    assert got.dtype == np.int64
    # Always at least one page, so a placement array is never empty.
    assert got.tolist() == [p % n_nodes for p in range(max(n_pages, 1))]


def test_node_column():
    col = node_column(6, lambda cpu: cpu // 2)
    assert col.dtype == np.int64
    assert col.tolist() == [0, 0, 1, 1, 2, 2]
    assert node_column(0, lambda cpu: cpu).tolist() == []
