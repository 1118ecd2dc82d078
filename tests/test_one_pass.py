"""Differential tests: the one-pass evaluation against the popcount-table
distances and the separate mAP / precision@r loops it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hashlearn.evaluation as ev
from hashlearn.evaluation import BinaryCodes, evaluate, hamming_distance, mean_average_precision, precision_at_radius

from helpers import (POPCOUNT, separate_evaluate, separate_mean_average_precision, separate_precision_at_radius,
                     table_distances_to_all)


def random_case(seed, code_len, n_db, n_q):
    """Codes drawn from a small pool with a few flipped bits, so distances tie
    often, and ground truth that is empty for some queries."""
    rng = np.random.default_rng(seed)
    pool = np.where(rng.random((code_len, int(rng.integers(1, 5)))) < 0.5, 1.0, -1.0)

    def draw(count):
        b = pool[:, rng.integers(0, pool.shape[1], size=count)]
        return b * np.where(rng.random(b.shape) < 0.1, -1.0, 1.0)

    db, q = BinaryCodes.from_sign_matrix(draw(n_db)), BinaryCodes.from_sign_matrix(draw(n_q))
    gt = [rng.choice(n_db, size=int(rng.integers(0, n_db + 1)), replace=False) for _ in range(n_q)]
    return db, q, gt


@given(seed=st.integers(0, 2**31 - 1), code_len=st.integers(1, 130), n_db=st.integers(0, 200),
       n_q=st.integers(0, 5), top_k=st.one_of(st.none(), st.integers(1, 210)),
       radii=st.lists(st.integers(0, 140), max_size=6))
@settings(max_examples=300, deadline=None)
def test_one_pass_bit_identical_to_separate_loops(seed, code_len, n_db, n_q, top_k, radii):
    db, q, gt = random_case(seed, code_len, n_db, n_q)
    radii = radii + radii[:2] + [code_len + 3]  # duplicates, unsorted, one beyond L
    assert evaluate(db, q, gt, radii=radii, top_k=top_k) == separate_evaluate(db, q, gt, radii=radii, top_k=top_k)
    assert mean_average_precision(db, q, gt, top_k) == separate_mean_average_precision(db, q, gt, top_k)
    for r in radii:
        assert precision_at_radius(db, q, gt, r) == separate_precision_at_radius(db, q, gt, r)


@pytest.mark.parametrize("code_len", [1, 7, 8, 63, 64, 65, 255, 256, 300])
def test_distances_match_popcount_table(code_len):
    db, q, _ = random_case(code_len, code_len, 30, 3)
    for row in q.packed:
        want = table_distances_to_all(row, db)
        assert np.array_equal(ev._distances(db.packed, row, code_len), want)
        assert [hamming_distance(row, other, code_len) for other in db.packed] == want.tolist()
    # uint8 sums (radix sort) up to 255 bits, wider beyond
    assert ev._distances(db.packed, q.packed[0], code_len).dtype == (np.uint8 if code_len <= 255 else np.uint16)


def test_hamming_distance_ignores_padding_bits():
    a = np.array([0b1111_0000], dtype=np.uint8)
    b = np.array([0b0000_0001], dtype=np.uint8)
    assert hamming_distance(a, b, 4) == 1
    assert int(POPCOUNT[a ^ b].sum()) == 5


def test_evaluate_rejects_negative_radius_before_any_work(monkeypatch):
    db, q, gt = random_case(0, 16, 10, 2)
    calls = []
    monkeypatch.setattr(ev, "_distances", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="radius must be >= 0"):
        evaluate(db, q, gt, radii=(2, -1))
    with pytest.raises(ValueError, match="radius must be >= 0"):
        precision_at_radius(db, q, gt, -1)
    assert calls == []
