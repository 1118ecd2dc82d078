"""Differential tests: euclidean_knn_gt's GEMM candidates, exact re-rank and
rounding certificate against the per-query exact scan it replaced."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hashlearn.evaluation as ev
from hashlearn.evaluation import euclidean_knn_gt
from hashlearn.toydata import gaussian_clusters

from helpers import loop_knn_gt

KINDS = ("float", "grid", "permuted", "offset")


def permuted_points(rng, dim, count):
    """Coordinate permutations of a near vector (about one in ten) and of a far one."""
    near, far = rng.standard_normal((2, dim)) * 10.0 ** rng.integers(-3, 4)
    far = 3.0 * far + np.sign(far)
    return np.stack([rng.permutation(near if rng.random() < 0.1 else far) for _ in range(count)], axis=1)


def knn_case(seed, kind, dim, n, n_q, pool, fortran, dtype=np.float64):
    """(database, queries) of one kind, columns drawn from `pool` distinct points so that
    small pools repeat database points.

    grid: small integers, so many distances tie exactly.  permuted: permuted_points and
    constant queries, so distances tie in exact arithmetic but their rounded sums differ
    with the order of addition.
    offset: a grid shifted by 1e6-1e8, where the GEMM form cancels catastrophically.
    float32 cases round those values; uint8 cases map each case's value range affinely onto
    0..255 and round, which keeps grids grids and permutations permutations.
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
    if dtype == np.uint8:
        lo, hi = min(database.min(), queries.min()), max(database.max(), queries.max())
        database, queries = (np.rint((a - lo) * (255 / max(hi - lo, 1e-300))) for a in (database, queries))
    layout = np.asfortranarray if fortran else np.ascontiguousarray
    return layout(database, dtype=dtype), layout(queries, dtype=dtype)


@given(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(KINDS), dim=st.integers(1, 20),
       n=st.integers(1, 300), n_q=st.integers(1, 12), pool_frac=st.floats(0.02, 1.0),
       k_frac=st.one_of(st.just(1.0), st.floats(0.0, 0.2)), fortran=st.booleans(),
       dtype=st.sampled_from([np.float64, np.float32, np.uint8]))
@settings(max_examples=1200, deadline=None)
def test_knn_equals_exact_scan(seed, kind, dim, n, n_q, pool_frac, k_frac, fortran, dtype):
    database, queries = knn_case(seed, kind, dim, n, n_q, max(1, int(pool_frac * n)), fortran, dtype)
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
    so does every query once the database spans two unit-spread clusters 2 * offset apart:
    no shift centres both, and float32 rounding of the shifted columns swamps the distances."""
    calls = counting_scan(monkeypatch)
    database, queries = knn_case(0, "grid", 3, 400, 10, 27, False)
    database[:, :100] = queries[:, :1]  # 100 copies of the first query
    database += offset * np.where(np.arange(400) % 2, -1.0, 1.0)
    got = euclidean_knn_gt(database, queries + offset, 10)
    assert len(calls) >= (10 if offset else 1)
    for g, w in zip(got, loop_knn_gt(database, queries + offset, 10)):
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
    column; the candidates' re-rank must add in the scan's order whatever the layout and
    element type, or near-tied distances that differ in the last bits change places.  The
    last layout is the (D, n) view of an fvecs file that load_xvecs returns."""
    calls = counting_scan(monkeypatch)
    base = permuted_points(np.random.default_rng(2), 64, 400)
    queries = np.full((64, 3), 0.25)
    records = np.zeros((400, 65), dtype=np.float32)
    records[:, 1:] = base.T
    layouts = [np.ascontiguousarray(base), np.asfortranarray(base),
               np.ascontiguousarray(np.repeat(base, 2, axis=1))[:, ::2],
               np.asfortranarray(np.repeat(base, 2, axis=0))[::2],
               np.ascontiguousarray(base, dtype=np.float32), np.asfortranarray(base, dtype=np.float32),
               records[:, 1:].T]
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


def test_float32_peak_stays_below_a_float64_copy():
    """The candidates come from a float32 copy of the shifted database; no float64 copy of
    it is made."""
    rng = np.random.default_rng(3)
    database = rng.standard_normal((64, 25_000)).astype(np.float32)
    queries = rng.standard_normal((64, 200)).astype(np.float32)
    tracemalloc.start()
    try:
        euclidean_knn_gt(database, queries, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < database.size * 8


@pytest.mark.parametrize("case", ["column_at_1e30", "column_at_1e20", "query_at_2.5e38", "scale_1e-30",
                                  "near_ties_at_1e-21"])
def test_values_beyond_the_float32_range_rank_as_the_scan(case):
    """Columns whose float32 squared norms overflow, a query whose -2 (q - s) overflows
    float32, and data whose float32 products underflow still give the scan's neighbours;
    float64 holds them all.  At 1e20 the other columns' GEMM terms stay finite, so only
    the certificate's overflow rule keeps the column next to the query from being
    excluded behind an infinite g.  Near ties at 1e-21 have subnormal float32 GEMM terms,
    which only the bound's underflow term covers."""
    database, queries = knn_case(5, "float", 8, 300, 6, 300, False)
    if case == "column_at_1e30":
        database[:, 40] = queries[:, 0] = 1e30
    elif case == "column_at_1e20":
        database = np.append(np.random.default_rng(5).uniform(-1e16, 1e16, 299), 1e20)[None, :]
        queries = np.array([[1e20 + 1e15, 0.0]])
    elif case == "query_at_2.5e38":
        queries[:, 0] = 2.5e38
    elif case == "scale_1e-30":
        database, queries = database * 1e-30, queries * 1e-30
    else:
        database, queries = (a * 1e-21 for a in knn_case(8, "permuted", 16, 300, 6, 100, False))
    for g, w in zip(euclidean_knn_gt(database, queries, 5), loop_knn_gt(database, queries, 5)):
        assert np.array_equal(g, w)


def test_offset_float32_clusters_need_no_fallback(monkeypatch):
    """The shift by the database mean keeps float32 rounding proportional to the clusters'
    spread, not to their common offset of 1000."""
    calls = counting_scan(monkeypatch)
    x, _ = gaussian_clusters(64, 2100, 20, seed=6)
    x = (x + 1000.0).astype(np.float32)
    database, queries = x[:, :2000], x[:, 2000:]
    got = euclidean_knn_gt(database, queries, 20)
    assert calls == []
    for g, w in zip(got, loop_knn_gt(database, queries, 20)):
        assert np.array_equal(g, w)


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
