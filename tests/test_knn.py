"""Differential tests: euclidean_knn_gt's GEMM candidates, exact re-rank and
rounding certificate against the per-query exact scan it replaced."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hashlearn.evaluation as ev
from hashlearn.evaluation import euclidean_knn_gt

from helpers import loop_knn_gt

KINDS = ("float", "grid", "permuted", "offset")


def permuted_points(rng, dim, count):
    """Coordinate permutations of a near vector (about one in ten) and of a far one."""
    near, far = rng.standard_normal((2, dim)) * 10.0 ** rng.integers(-3, 4)
    far = 3.0 * far + np.sign(far)
    return np.stack([rng.permutation(near if rng.random() < 0.1 else far) for _ in range(count)], axis=1)


def knn_case(seed, kind, dim, n, n_q, pool, fortran):
    """(database, queries) of one kind, columns drawn from `pool` distinct points so that
    small pools repeat database points.

    grid: small integers, so many distances tie exactly.  permuted: permuted_points and
    constant queries, so distances tie in exact arithmetic but their rounded sums differ
    with the order of addition.
    offset: a grid shifted by 1e6-1e8, where the GEMM form cancels catastrophically.
    """
    rng = np.random.default_rng(seed)
    if kind == "float":
        points = rng.standard_normal((dim, pool))
        queries = rng.standard_normal((dim, n_q))
    elif kind == "permuted":
        points = permuted_points(rng, dim, pool)
        queries = np.repeat(rng.standard_normal((1, n_q)), dim, axis=0)
    else:
        points = rng.integers(0, 3, (dim, pool)).astype(np.float64)
        queries = rng.integers(0, 3, (dim, n_q)).astype(np.float64)
        if kind == "offset":
            shift = 10.0 ** rng.uniform(6, 8)
            points, queries = points + shift, queries + shift
    database = points[:, rng.integers(0, pool, n)]
    layout = np.asfortranarray if fortran else np.ascontiguousarray
    return layout(database), layout(queries)


@given(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(KINDS), dim=st.integers(1, 20),
       n=st.integers(1, 300), n_q=st.integers(1, 12), pool_frac=st.floats(0.02, 1.0),
       k_frac=st.one_of(st.just(1.0), st.floats(0.0, 0.2)), fortran=st.booleans())
@settings(max_examples=400, deadline=None)
def test_knn_equals_exact_scan(seed, kind, dim, n, n_q, pool_frac, k_frac, fortran):
    database, queries = knn_case(seed, kind, dim, n, n_q, max(1, int(pool_frac * n)), fortran)
    k = max(1, int(k_frac * n))  # k = n, and k small enough that 2k + 16 < n
    got = euclidean_knn_gt(database, queries, k)
    want = loop_knn_gt(database, queries, k)
    assert len(got) == len(want) == n_q
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)


def counting_scan(monkeypatch):
    calls = []
    scan = ev._scan_knn

    def counted(database, q, k):
        calls.append(k)
        return scan(database, q, k)

    monkeypatch.setattr(ev, "_scan_knn", counted)
    return calls


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_uncertified_queries_fall_back_to_the_scan(monkeypatch, offset):
    """A tie spanning more columns than the 36 candidates hold fails the certificate, and
    so does every query once a common offset's GEMM cancellation swamps the distances."""
    calls = counting_scan(monkeypatch)
    database, queries = knn_case(0, "grid", 3, 400, 10, 27, False)
    database[:, :100] = queries[:, :1]  # 100 copies of the first query
    got = euclidean_knn_gt(database + offset, queries + offset, 10)
    assert len(calls) >= (10 if offset else 1)
    for g, w in zip(got, loop_knn_gt(database + offset, queries + offset, 10)):
        assert np.array_equal(g, w)


def test_separated_points_need_no_fallback(monkeypatch):
    calls = counting_scan(monkeypatch)
    database, queries = knn_case(1, "float", 16, 2000, 40, 2000, False)
    got = euclidean_knn_gt(database, queries, 20)
    assert calls == []
    for g, w in zip(got, loop_knn_gt(database, queries, 20)):
        assert np.array_equal(g, w)


def test_near_ties_rank_as_the_scan_in_every_memory_layout(monkeypatch):
    """Row-major data is summed row by row and column-major data pairwise down each
    column; the candidates' re-rank must add in the scan's order whatever the layout,
    or near-tied distances that differ in the last bits change places."""
    calls = counting_scan(monkeypatch)
    base = permuted_points(np.random.default_rng(2), 64, 400)
    queries = np.full((64, 3), 0.25)
    layouts = [np.ascontiguousarray(base), np.asfortranarray(base),
               np.ascontiguousarray(np.repeat(base, 2, axis=1))[:, ::2],
               np.asfortranarray(np.repeat(base, 2, axis=0))[::2]]
    for database in layouts:
        for g, w in zip(euclidean_knn_gt(database, queries, 20), loop_knn_gt(database, queries, 20)):
            assert np.array_equal(g, w)
    assert calls == []  # the near vector's ~40 permutations fit the 56 candidates


def test_peak_memory_within_the_scan():
    rng = np.random.default_rng(3)
    database = rng.standard_normal((64, 25_000))
    queries = rng.standard_normal((64, 200))
    peaks = []
    for knn in (euclidean_knn_gt, loop_knn_gt):
        tracemalloc.start()
        try:
            knn(database, queries, 50)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_overflowing_distances_raise():
    """Both squared distances overflow to inf, so no ranking of the two columns can be told."""
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
        euclidean_knn_gt([[1e200, 3e200]], [[2.9e200]], 2)


def test_an_overflowing_outlier_beyond_k_still_ranks_as_the_scan(monkeypatch):
    """The outlier's infinite norm fails every certificate; its infinite distance ranks last."""
    calls = counting_scan(monkeypatch)
    database, queries = knn_case(4, "float", 4, 60, 3, 60, False)
    database[:, 17] = 1e200
    with np.errstate(over="ignore"):
        got = euclidean_knn_gt(database, queries, 5)
        want = loop_knn_gt(database, queries, 5)
    assert len(calls) == 3
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
