"""Differential tests: euclidean_knn_gt's GEMM candidates, float32 rounding bound and
exact re-rank against the per-query exact scan it replaced."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
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


CASES = dict(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(KINDS), dim=st.integers(1, 20),
             n=st.integers(1, 300), n_q=st.integers(1, 12), pool_frac=st.floats(0.02, 1.0),
             k_frac=st.one_of(st.just(1.0), st.floats(0.0, 0.2)), fortran=st.booleans(),
             dtype=st.sampled_from([np.float64, np.float32, np.uint8]))


@given(**CASES)
@settings(max_examples=1200, deadline=None)
# copies of two points, so that runs of 3 and 11 tied columns cross the 1st place: a
# one-column piece of a run would be summed pairwise, not row by row as the scan sums
# row-major data
@example(seed=2390, kind="float", dim=15, n=14, n_q=7, pool_frac=0.1875, k_frac=0.0, fortran=False,
         dtype=np.float64)
def test_knn_equals_exact_scan(seed, kind, dim, n, n_q, pool_frac, k_frac, fortran, dtype):
    database, queries = knn_case(seed, kind, dim, n, n_q, max(1, int(pool_frac * n)), fortran, dtype)
    k = max(1, int(k_frac * n))  # k = n, and k up to a fifth of n
    got = euclidean_knn_gt(database, queries, k)
    want = loop_knn_gt(database, queries, k)
    assert len(got) == len(want) == n_q
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)


def recording(monkeypatch):
    """What euclidean_knn_gt ranks, recorded through its three ranking steps.

    seen.candidates holds each query's candidate columns in query order, or None where the
    query is ranked over the whole database instead; seen.exact the columns that got float64
    distances for each such query; seen.scans counts the whole-database rankings.
    """
    seen = SimpleNamespace(candidates=[], exact=[], scans=0)
    first = [0]  # the query index of the current group's first row
    ranked, chains, scan = ev._ranked_candidates, ev._chain_distances, ev._scan_knn

    def ranked_hook(database, queries, g, flat, gaps):
        first[0] = len(seen.candidates)
        row, col = np.divmod(flat, g.shape[1])
        seen.candidates += [col[row == r] if np.any(row == r) else None for r in range(len(g))]
        seen.exact += [[] for _ in g]
        return ranked(database, queries, g, flat, gaps)

    def chains_hook(database, queries, cols, rows):
        for r, c in zip(rows, cols):
            seen.exact[first[0] + r].append(c)
        return chains(database, queries, cols, rows)

    def scan_hook(database, q, k):
        seen.scans += 1
        return scan(database, q, k)

    monkeypatch.setattr(ev, "_ranked_candidates", ranked_hook)
    monkeypatch.setattr(ev, "_chain_distances", chains_hook)
    monkeypatch.setattr(ev, "_scan_knn", scan_hook)
    return seen


@given(**CASES)
@settings(max_examples=600, deadline=None)
def test_candidates_hold_the_scans_first_k(seed, kind, dim, n, n_q, pool_frac, k_frac, fortran, dtype):
    """Every column the rounding bound keeps out ranks after the scan's first k, and every
    query is re-ranked from its candidates, however many there are."""
    database, queries = knn_case(seed, kind, dim, n, n_q, max(1, int(pool_frac * n)), fortran, dtype)
    k = max(1, int(k_frac * n))
    with pytest.MonkeyPatch.context() as mp:
        seen = recording(mp)
        euclidean_knn_gt(database, queries, k)
    want = loop_knn_gt(database, queries, k)
    assert len(seen.candidates) == n_q and seen.scans == 0  # every knn_case query fits float32
    for cand, exact, w in zip(seen.candidates, seen.exact, want):
        assert np.isin(w, cand).all()
        assert np.isin(exact, cand).all()


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_long_ties_and_swamped_bounds_are_reranked_as_the_scan(monkeypatch, offset):
    """100 copies of the first query tie across its k-th place, and once the database
    spans two unit-spread clusters 2 * offset apart, no shift centres both and float32
    rounding of the shifted columns swamps the distances: the bound then keeps the whole
    of the query's own cluster.  Either way every query is re-ranked from its candidates
    rather than the whole database, and ranks as the scan."""
    seen = recording(monkeypatch)
    database, queries = knn_case(0, "grid", 3, 400, 10, 27, False)
    database[:, :100] = queries[:, :1]  # 100 copies of the first query
    database += offset * np.where(np.arange(400) % 2, -1.0, 1.0)
    got = euclidean_knn_gt(database, queries + offset, 10)
    assert seen.scans == 0
    assert seen.candidates[0].size >= 100
    if offset:
        assert all(np.array_equal(cand, np.arange(0, 400, 2)) for cand in seen.candidates)
    for g, w in zip(got, loop_knn_gt(database, queries + offset, 10)):
        assert np.array_equal(g, w)


def test_separated_points_need_no_fallback(monkeypatch):
    """Each query re-ranks only the columns the rounding bound cannot rule out: on separated
    points that is about k.  Of those, only the ones in a run of near ties get float64
    distances: 0.69 k per query here, nearly all of them columns drawn more than once, whose
    exact ties the float32 distances cannot order; ranking every candidate would give 1.03 k."""
    seen = recording(monkeypatch)
    database, queries = knn_case(1, "float", 16, 2000, 40, 2000, False)
    got = euclidean_knn_gt(database, queries, 20)
    assert seen.scans == 0
    assert len(seen.candidates) == 40 and sum(cand.size for cand in seen.candidates) < 1.2 * 20 * 40
    assert sum(len(exact) for exact in seen.exact) < 0.75 * 20 * 40
    for g, w in zip(got, loop_knn_gt(database, queries, 20)):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("n_tied", [2 * 10 + 17, 397])
def test_ties_past_2k_plus_16_candidates_are_reranked(monkeypatch, n_tied):
    """Three copies of the query, then a run of exact ties at distance 1 across the k-th
    place, of 2k + 17 columns or of all the others: the query is re-ranked from exactly
    those candidates, not sent to the scan.  Any far columns are at distance 300 or more,
    so none is a candidate."""
    seen = recording(monkeypatch)
    k, n = 10, 400
    rng = np.random.default_rng(9)
    database = rng.integers(10, 13, (3, n)).astype(np.float64)
    query = np.zeros((3, 1))
    near = rng.choice(n, 3 + n_tied, replace=False)
    database[:, near[:3]] = 0.0
    database[:, near[3:]] = [[0.0], [1.0], [0.0]]
    got = euclidean_knn_gt(database, query, k)
    assert seen.scans == 0
    assert np.array_equal(seen.candidates[0], np.sort(near))
    assert np.array_equal(np.sort(seen.exact[0]), np.sort(near))
    assert np.array_equal(got[0], loop_knn_gt(database, query, k)[0])


def test_near_ties_rank_as_the_scan_in_every_memory_layout(monkeypatch):
    """Row-major data is summed row by row and column-major data pairwise down each
    column; the candidates' re-rank must add in the scan's order whatever the layout and
    element type, or near-tied distances that differ in the last bits change places.  The
    second to last is a column slice of a wider row-major array, and the last the (D, n)
    view of an fvecs file that load_xvecs returns."""
    seen = recording(monkeypatch)
    base = permuted_points(np.random.default_rng(2), 64, 400)
    queries = np.full((64, 3), 0.25)
    records = np.zeros((400, 65), dtype=np.float32)
    records[:, 1:] = base.T
    layouts = [np.ascontiguousarray(base), np.asfortranarray(base),
               np.ascontiguousarray(np.repeat(base, 2, axis=1))[:, ::2],
               np.asfortranarray(np.repeat(base, 2, axis=0))[::2],
               np.ascontiguousarray(base, dtype=np.float32), np.asfortranarray(base, dtype=np.float32),
               np.ascontiguousarray(np.concatenate([base, base[:, :100]], axis=1))[:, :400], records[:, 1:].T]
    for database in layouts:
        for g, w in zip(euclidean_knn_gt(database, queries, 20), loop_knn_gt(database, queries, 20)):
            assert np.array_equal(g, w)
    assert seen.scans == 0


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


def test_every_column_tied_stays_below_a_float64_copy():
    """Every column ties, so every column is a candidate in one chain that float64 must
    order: its distances are computed in pieces, and no float64 copy of the database is
    made for it."""
    rng = np.random.default_rng(3)
    database = np.repeat(rng.standard_normal((64, 1)), 25_000, axis=1).astype(np.float32)
    queries = rng.standard_normal((64, 8)).astype(np.float32)
    tracemalloc.start()
    try:
        got = euclidean_knn_gt(database, queries, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < database.size * 8
    assert all(np.array_equal(g, np.arange(50)) for g in got)


def test_column_slice_is_not_copied_whole():
    """A column slice of a row-major array is not contiguous, and take() would copy all of
    it for every query; only the candidates are gathered."""
    points = np.random.default_rng(3).standard_normal((64, 10_200))
    database, queries = points[:, :10_000], points[:, 10_000:]
    assert not database.flags.c_contiguous and not database.flags.f_contiguous
    tracemalloc.start()
    try:
        got = euclidean_knn_gt(database, queries, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < database.size * 8  # the float32 copy and one GEMM block, but no float64 copy
    for g, w in zip(got, loop_knn_gt(database, queries, 50)):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("case", ["column_at_1e30", "column_at_1e20", "query_at_2.5e38", "scale_1e-30",
                                  "near_ties_at_1e-21"])
def test_values_beyond_the_float32_range_rank_as_the_scan(monkeypatch, case):
    """Columns whose float32 squared norms overflow, a query whose -2 (q - s) overflows
    float32, and data whose float32 products underflow still give the scan's neighbours;
    float64 holds them all.  At 1e20 the other columns' GEMM terms stay finite, so only
    the bound's overflow rule keeps the column next to the query from being
    excluded behind an infinite g.  Near ties at 1e-21 have subnormal float32 GEMM terms,
    which only the bound's underflow term covers.  Exactly the queries whose shifted values
    may overflow float32 are ranked over the whole database."""
    seen = recording(monkeypatch)
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
    assert seen.scans == {"column_at_1e30": 6, "column_at_1e20": 2, "query_at_2.5e38": 1}.get(case, 0)
    assert sum(cand is None for cand in seen.candidates) == seen.scans


def test_offset_float32_clusters_need_no_fallback(monkeypatch):
    """The shift by the database mean keeps float32 rounding proportional to the clusters'
    spread, not to their common offset of 1000.  The bound is tight enough here that the
    candidates average under 1.01 k per query; a bound ten times looser gives 1.06 k."""
    seen = recording(monkeypatch)
    x, _ = gaussian_clusters(64, 2100, 20, seed=6)
    x = (x + 1000.0).astype(np.float32)
    database, queries = x[:, :2000], x[:, 2000:]
    got = euclidean_knn_gt(database, queries, 20)
    assert seen.scans == 0
    assert len(seen.candidates) == 100 and sum(cand.size for cand in seen.candidates) < 1.05 * 20 * 100
    for g, w in zip(got, loop_knn_gt(database, queries, 20)):
        assert np.array_equal(g, w)


def test_thresholds_round_down_to_float32():
    """The candidates are compared in float32 with each threshold's float32 floor, which a
    float32 g is at most exactly when it is at most the float64 threshold."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(20_000) * 10.0 ** rng.integers(-45, 45, 20_000)
    x = np.concatenate([x, x[np.abs(x) < 3e38].astype(np.float32), [0.0, -0.0, 3.5e38, -3.5e38, 1e-46]])
    y = ev._float32_floor(x)
    assert y.dtype == np.float32
    with np.errstate(over="ignore"):
        assert np.all(y <= x) and np.all(np.nextafter(y, np.float32(np.inf)) > x)
    assert np.isnan(ev._float32_floor(np.array([np.nan]))).all()


def test_overflowing_distances_raise():
    """Both squared distances overflow to inf, so no ranking of the two columns can be told."""
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
        euclidean_knn_gt([[1e200, 3e200]], [[2.9e200]], 2)


def test_an_overflowing_outlier_beyond_k_still_ranks_as_the_scan(monkeypatch):
    """The outlier's infinite norm sends every query to the scan; its infinite distance ranks last."""
    seen = recording(monkeypatch)
    database, queries = knn_case(4, "float", 4, 60, 3, 60, False)
    database[:, 17] = 1e200
    with np.errstate(over="ignore"):
        got = euclidean_knn_gt(database, queries, 5)
        want = loop_knn_gt(database, queries, 5)
    assert seen.scans == 3 and all(cand is None for cand in seen.candidates)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
