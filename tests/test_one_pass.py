"""Differential tests: the one-pass evaluation against the popcount-table
distances and the separate mAP / precision@r loops it replaced."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hashlearn.evaluation as ev
from hashlearn.evaluation import BinaryCodes, evaluate, mean_average_precision, precision_at_radius

from helpers import (POPCOUNT, hamming_distance, separate_evaluate, separate_mean_average_precision,
                     separate_precision_at_radius, table_distances_to_all)


def random_case(seed, code_len, n_db, n_q, nearest=False):
    """Codes drawn from a small pool with a few flipped bits, so distances tie
    often, and ground truth that is empty for some queries.  The relevant sets
    are drawn at random from the database, or if nearest from each query's
    nearest codes: a random part of the first ones in the stable ranking, which
    often stops inside a run of equal distances."""
    rng = np.random.default_rng(seed)
    pool = np.where(rng.random((code_len, int(rng.integers(1, 5)))) < 0.5, 1.0, -1.0)

    def draw(count):
        b = pool[:, rng.integers(0, pool.shape[1], size=count)]
        return b * np.where(rng.random(b.shape) < 0.1, -1.0, 1.0)

    db, q = BinaryCodes.from_sign_matrix(draw(n_db)), BinaryCodes.from_sign_matrix(draw(n_q))
    if not nearest:
        gt = [rng.choice(n_db, size=int(rng.integers(0, n_db + 1)), replace=False) for _ in range(n_q)]
        return db, q, gt
    gt = []
    for row in q.packed:
        order = np.argsort(table_distances_to_all(row, db), kind="stable")[:int(rng.integers(0, n_db // 4 + 2))]
        gt.append(rng.permutation(order)[:int(rng.integers(0, order.size + 1))])
    return db, q, gt


def test_one_pass_bit_identical_to_separate_loops(monkeypatch):
    paths = collections.Counter()  # which ranking each query's AP came from
    ranked_prefix = ev._ranked_prefix

    def counted(d, inside, n_cut, stop):
        paths["full sort" if n_cut * ev._CUT_SHARE > d.size else "candidates"] += 1
        return ranked_prefix(d, inside, n_cut, stop)
    monkeypatch.setattr(ev, "_ranked_prefix", counted)
    cuts = collections.Counter()  # where top_k's distance falls against the farthest relevant one

    # 256 bits is the first length whose distances no longer fit uint8
    @given(seed=st.integers(0, 2**31 - 1), code_len=st.one_of(st.sampled_from([64, 65, 255, 256]), st.integers(1, 300)),
           n_db=st.integers(0, 200), n_q=st.integers(0, 5), nearest=st.booleans(),
           top_k=st.one_of(st.none(), st.integers(1, 210)), radii=st.lists(st.integers(0, 310), max_size=6))
    @settings(max_examples=300, deadline=None)
    def check(seed, code_len, n_db, n_q, nearest, top_k, radii):
        db, q, gt = random_case(seed, code_len, n_db, n_q, nearest)
        radii = radii + radii[:2] + [code_len + 3]  # duplicates, unsorted, one beyond L
        assert evaluate(db, q, gt, radii=radii, top_k=top_k) == separate_evaluate(db, q, gt, radii=radii, top_k=top_k)
        assert mean_average_precision(db, q, gt, top_k) == separate_mean_average_precision(db, q, gt, top_k)
        for r in radii:
            assert precision_at_radius(db, q, gt, r) == separate_precision_at_radius(db, q, gt, r)
        for row, gt_q in zip(q.packed, gt):
            d = table_distances_to_all(row, db).astype(int)
            if len(gt_q) and top_k is not None and top_k <= n_db:
                cuts[int(np.sign(np.sort(d)[top_k - 1] - d[gt_q].max()))] += 1

    check()
    assert paths["candidates"] and paths["full sort"]
    assert cuts[-1] and cuts[0] and cuts[1]


def repeated_codes_case(seed, code_len, n_db, n_q):
    """Queries drawn from a pool of a few codes with no flipped bits, so that codes repeat,
    and relevant lists that repeat by object and by content (as copies, Python lists and
    narrower integer types), a few of them empty."""
    rng = np.random.default_rng(seed)
    pool = np.where(rng.random((code_len, int(rng.integers(1, 6)))) < 0.5, 1.0, -1.0)
    db = pool[:, rng.integers(0, pool.shape[1], size=n_db)] * np.where(rng.random((code_len, n_db)) < 0.1, -1.0, 1.0)
    q = pool[:, rng.integers(0, pool.shape[1], size=n_q)]
    lists = [rng.choice(n_db, size=int(rng.integers(0, n_db + 1)), replace=False) for _ in range(4)]
    lists.append(np.array([], dtype=np.int64))
    copies = (lambda g: g, np.copy, list, lambda g: g.astype(np.uint32))
    gt = [copies[rng.integers(0, 4)](lists[rng.integers(0, 5)]) for _ in range(n_q)]
    return BinaryCodes.from_sign_matrix(db), BinaryCodes.from_sign_matrix(q), gt


@pytest.mark.parametrize("seed", range(12))
def test_repeated_codes_rank_once_per_code(seed, monkeypatch):
    code_len = (1, 7, 16, 64, 65, 256)[seed % 6]
    db, q, gt = repeated_codes_case(seed, code_len, 120, 40)
    calls = collections.Counter()
    hamming_scan = ev._hamming_scan

    def counted_scan(words, length):
        distances = hamming_scan(words, length)

        def counted(word):
            calls[word.tobytes()] += 1
            return distances(word)
        return counted
    monkeypatch.setattr(ev, "_hamming_scan", counted_scan)
    radii = [0, 2, code_len // 2, code_len + 1]
    for top_k in (None, 1, 7, 60, 500):
        calls.clear()
        assert evaluate(db, q, gt, radii=radii, top_k=top_k) == separate_evaluate(db, q, gt, radii=radii, top_k=top_k)
        # one Hamming pass per distinct query code
        assert sorted(calls) == sorted({w.tobytes() for w in ev._words(q)})
        assert set(calls.values()) == {1}
    assert mean_average_precision(db, q, gt, 7) == separate_mean_average_precision(db, q, gt, 7)
    assert precision_at_radius(db, q, gt, 2) == separate_precision_at_radius(db, q, gt, 2)
    # ground truth as one 2-d array: its rows are new view objects on every access
    rows = np.array([np.arange(5) * 7 + i % 3 for i in range(q.count)])
    assert evaluate(db, q, rows, top_k=9) == separate_evaluate(db, q, rows, top_k=9)


def test_top_k_cut_inside_a_run_of_equal_distances(monkeypatch):
    # the codes sit in runs at distances 1, 2 and 3 from the query, and the farthest
    # relevant code is at 3; the ranking's cut must be the smallest distance that top_k
    # codes are at or inside, as the cumulative histogram of the distances gives it
    dist = np.array([2, 1, 3, 1, 2, 3, 1, 2, 3, 2])
    n, code_len = dist.size, 8
    db = BinaryCodes.from_sign_matrix(np.where(np.arange(code_len)[:, None] < dist, -1.0, 1.0))
    q = BinaryCodes.from_sign_matrix(np.ones((code_len, 1)))
    gt = [np.array([4, 2])]
    seen = []
    ranked_prefix = ev._ranked_prefix

    def recorded(d, inside, n_cut, stop):
        seen.append((int(d[inside].max()), int(np.count_nonzero(inside)), n_cut))
        return ranked_prefix(d, inside, n_cut, stop)
    monkeypatch.setattr(ev, "_ranked_prefix", recorded)
    n_within = np.cumsum(np.bincount(dist, minlength=code_len + 1))
    for top_k in (1, 2, 3, 5, 7, n - 1, n, n + 1, 3 * n):
        seen.clear()
        assert evaluate(db, q, gt, top_k=top_k) == separate_evaluate(db, q, gt, top_k=top_k)
        cut = min(3, int(np.searchsorted(n_within, top_k)))
        assert seen == [(cut, n_within[cut], n_within[cut])]


@pytest.mark.parametrize("code_len", [1, 7, 8, 63, 64, 65, 255, 256, 300])
def test_distances_match_popcount_table(code_len, monkeypatch):
    db, q, _ = random_case(code_len, code_len, 30, 3)
    db_words, q_words = ev._words(db), ev._words(q)
    assert db_words.shape == (30, (code_len + 63) // 64) and db_words.dtype == np.uint64
    # codes are packed row-major (as from_sign_matrix, encode and load_codes make them), so
    # whole words are viewed, not copied
    assert db.packed.flags.c_contiguous
    assert np.shares_memory(db_words, db.packed) == (code_len % 64 == 0)
    for block in (ev._BLOCK, 7):  # one block, and several with a short last one
        monkeypatch.setattr(ev, "_BLOCK", block)
        distances = ev._hamming_scan(db_words, code_len)
        for row, q_row in zip(q.packed, q_words):
            want = table_distances_to_all(row, db)
            d = distances(q_row)
            assert np.array_equal(d, want)
            assert [hamming_distance(row, other, code_len) for other in db.packed] == want.tolist()
        # uint8 sums (radix sort) up to 255 bits, wider beyond
        assert d.dtype == (np.uint8 if code_len <= 255 else np.uint16)


def per_query_values(db, q, gt, radius):
    report = evaluate(db, q, gt, radii=(radius, db.code_len + 3))
    values = report.per_query_ap + [v for per_r in report.per_query_precision.values() for v in per_r]
    return values + mean_average_precision(db, q, gt, top_k=5)[1] + precision_at_radius(db, q, gt, radius)[1]


@pytest.mark.parametrize("code_len", [1, 64, 65, 300])
def test_per_query_values_are_python_floats(code_len):
    # eval.json serialises these lists; an np.float64 passes every == oracle but not this
    db, q, gt = random_case(code_len + 1, code_len, 40, 4)
    gt[0] = []
    values = per_query_values(db, q, gt, 2)
    # all codes +1 against a query of all -1: radius 0 retrieves nothing
    far_db = BinaryCodes.from_sign_matrix(np.ones((code_len, 3)))
    far_q = BinaryCodes.from_sign_matrix(-np.ones((code_len, 2)))
    far_values = per_query_values(far_db, far_q, [[], [1, 2]], 0)
    assert far_values[2:4] == far_values[8:] == [0.0, 0.0]  # empty balls
    assert len(values) == 4 * 5 and len(far_values) == 2 * 5
    assert all(type(v) is float for v in values + far_values)


def test_hamming_distance_ignores_padding_bits():
    a = np.array([0b1111_0000], dtype=np.uint8)
    b = np.array([0b0000_0001], dtype=np.uint8)
    assert hamming_distance(a, b, 4) == 1
    assert int(POPCOUNT[a ^ b].sum()) == 5


def test_evaluate_rejects_negative_radius_before_any_work(monkeypatch):
    db, q, gt = random_case(0, 16, 10, 2)
    calls = []
    monkeypatch.setattr(ev, "_hamming_scan", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="radius must be >= 0"):
        evaluate(db, q, gt, radii=(2, -1))
    with pytest.raises(ValueError, match="radius must be >= 0"):
        precision_at_radius(db, q, gt, -1)
    for bad in (1.9, np.float64(2.5), float("nan")):
        with pytest.raises(ValueError, match="whole number"):
            evaluate(db, q, gt, radii=(2, bad))
        with pytest.raises(ValueError, match="whole number"):
            precision_at_radius(db, q, gt, bad)
    assert calls == []


def test_integer_radius_types_give_the_same_report():
    db, q, gt = random_case(0, 16, 10, 2)
    want = evaluate(db, q, gt, radii=(1, 3))
    for radii in ((np.int64(1), np.uint8(3)), (1.0, 3), (np.int32(3), 1, 1)):
        got = evaluate(db, q, gt, radii=radii)
        assert got == want
        assert all(type(r) is int for r in got.radii + list(got.precision_at))
    assert precision_at_radius(db, q, gt, np.uint16(3)) == precision_at_radius(db, q, gt, 3)
    # a radius past any float's range still means "every code"
    assert precision_at_radius(db, q, gt, 10 ** 400) == precision_at_radius(db, q, gt, 16)
