"""RNG utilities: determinism and stream independence."""

import numpy as np
from repro.common.rng import _entropy_for, make_rng


def test_same_seed_same_stream():
    a = make_rng(42, "workload").random(16)
    b = make_rng(42, "workload").random(16)
    assert np.array_equal(a, b)


def test_different_labels_different_streams():
    a = make_rng(42, "alpha").random(16)
    b = make_rng(42, "beta").random(16)
    assert not np.array_equal(a, b)


def test_different_seeds_different_streams():
    a = make_rng(1, "x").random(16)
    b = make_rng(2, "x").random(16)
    assert not np.array_equal(a, b)


def test_mixed_label_types():
    a = make_rng(7, "cpu", 3).random(4)
    b = make_rng(7, "cpu", 3).random(4)
    assert np.array_equal(a, b)


def test_numpy_integer_labels_match_python_ints():
    a = make_rng(7, "cpu", np.int64(3)).random(4)
    b = make_rng(7, "cpu", 3).random(4)
    assert np.array_equal(a, b)


def test_label_order_matters():
    a = make_rng(5, "engineering", "code").random(8)
    b = make_rng(5, "code", "engineering").random(8)
    assert not np.array_equal(a, b)


def test_string_labels_fold_stably():
    # A fixed fold of the UTF-8 bytes, not hash(): the same in every
    # process, so traces do not depend on PYTHONHASHSEED.
    assert _entropy_for("engineering") == 1051131572163714374
    assert _entropy_for("") == 0
    assert _entropy_for(12) == 12
