import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hashlearn.evaluation as ev
from hashlearn.evaluation import (BinaryCodes, euclidean_knn_gt, evaluate, label_gt, mean_average_precision,
                                  precision_at_radius, validate_ground_truth)

from helpers import (brute_force_ap, brute_force_precision, hamming_distance, loop_label_gt, naive_hamming,
                     position_validate_ground_truth, unique_validate_ground_truth, unpack_codes)


def codes_from(columns):
    return BinaryCodes.from_sign_matrix(np.array(columns, dtype=float).T)


def random_signs(rng, code_len, count):
    return np.where(rng.standard_normal((code_len, count)) >= 0, 1.0, -1.0)


def test_hamming_identical_is_zero():
    c = codes_from([[1, -1, 1, -1, 1]])
    assert hamming_distance(c.packed[0], c.packed[0], 5) == 0


def test_hamming_hand_example():
    c = codes_from([[1, -1, 1, -1], [-1, 1, 1, -1]])
    assert hamming_distance(c.packed[0], c.packed[1], 4) == 2


def test_hamming_matches_unpacked_oracle():
    rng = np.random.default_rng(0)
    for code_len in (1, 7, 8, 9, 16, 21):
        signs = random_signs(rng, code_len, 12)
        c = BinaryCodes.from_sign_matrix(signs)
        for i in range(0, 12, 3):
            for j in range(12):
                got = hamming_distance(c.packed[i], c.packed[j], code_len)
                assert got == naive_hamming(signs[:, i], signs[:, j])


def test_hamming_rejects_length_mismatch():
    a = codes_from([[1] * 9]).packed[0]
    b = codes_from([[1] * 24]).packed[0]
    with pytest.raises(ValueError):
        hamming_distance(a, b, 24)
    with pytest.raises(ValueError):
        hamming_distance(a, a, 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 20))
def test_hamming_symmetry_and_triangle(seed, code_len):
    rng = np.random.default_rng(seed)
    signs = random_signs(rng, code_len, 3)
    c = BinaryCodes.from_sign_matrix(signs)
    d01 = hamming_distance(c.packed[0], c.packed[1], code_len)
    d10 = hamming_distance(c.packed[1], c.packed[0], code_len)
    d02 = hamming_distance(c.packed[0], c.packed[2], code_len)
    d12 = hamming_distance(c.packed[1], c.packed[2], code_len)
    assert d01 == d10
    assert d02 <= d01 + d12


def test_packing_round_trip_and_padding():
    rng = np.random.default_rng(1)
    for code_len in (1, 3, 8, 11, 64):
        signs = random_signs(rng, code_len, 9)
        c = BinaryCodes.from_sign_matrix(signs)
        c.validate()
        assert np.array_equal(c.to_sign_matrix(), signs)
        assert np.array_equal(unpack_codes(c), signs)
        assert c.packed.shape == (9, (code_len + 7) // 8)


def test_single_plus_bit_payload():
    c = codes_from([[1]])
    assert c.packed.tolist() == [[1]]


def test_empty_codes():
    c = BinaryCodes.from_sign_matrix(np.ones((5, 0)))
    c.validate()
    assert c.count == 0
    assert c.to_sign_matrix().shape == (5, 0)


def test_codes_validate_rejects_bad_padding():
    c = codes_from([[1, 1, 1]])
    c.packed[0, 0] |= 0x80   # bit 7 of a 3-bit code
    with pytest.raises(ValueError):
        c.validate()


def test_codes_validate_rejects_shape_and_values():
    with pytest.raises(ValueError):
        BinaryCodes.from_sign_matrix(np.array([[0.5, 1.0]]))
    c = codes_from([[1, 1, 1]])
    c.packed = c.packed.astype(np.int16)
    with pytest.raises(ValueError):
        c.validate()


def test_knn_query_equal_to_database_point():
    db = np.array([[0.0, 3.0, -2.0], [0.0, 1.0, 5.0]])
    gt = euclidean_knn_gt(db, db[:, [1]], k=2)
    assert gt[0][0] == 1


def test_knn_one_dimensional_example():
    db = np.array([[0.0, 1.0, 10.0]])
    gt = euclidean_knn_gt(db, np.array([[0.4]]), k=2)
    assert sorted(gt[0].tolist()) == [0, 1]


def test_knn_ties_break_low_index():
    db = np.array([[1.0, -1.0, 1.0, -1.0]])
    gt = euclidean_knn_gt(db, np.array([[0.0]]), k=2)
    assert gt[0].tolist() == [0, 1]


def test_knn_matches_brute_force():
    rng = np.random.default_rng(2)
    db = rng.standard_normal((4, 30))
    q = rng.standard_normal((4, 5))
    gt = euclidean_knn_gt(db, q, k=7)
    for j in range(5):
        d = np.sum((db - q[:, j][:, None]) ** 2, axis=0)
        expected = sorted(range(30), key=lambda i: (d[i], i))[:7]
        assert gt[j].tolist() == expected


def test_knn_validation():
    db = np.zeros((3, 5))
    with pytest.raises(ValueError):
        euclidean_knn_gt(db, np.zeros((2, 1)), 2)
    with pytest.raises(ValueError):
        euclidean_knn_gt(db, np.zeros((3, 1)), 6)
    with pytest.raises(ValueError):
        euclidean_knn_gt(db, np.zeros((3, 1)), 0)
    for k in (2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="k must be an integer"):
            euclidean_knn_gt(db, np.zeros((3, 1)), k)


def test_knn_rejects_non_finite_database():
    # a NaN point would otherwise be ranked last without complaint
    db = np.array([[0.0, np.nan, 5.0, 1.0]])
    with pytest.raises(ValueError, match=r"database has non-finite value nan at \(row 0, column 1\)"):
        euclidean_knn_gt(db, np.array([[0.9]]), 4)


def test_knn_rejects_non_finite_queries():
    q = np.array([[0.9, 1.0], [2.0, -np.inf]])
    with pytest.raises(ValueError, match=r"queries has non-finite value -inf at \(row 1, column 1\)"):
        euclidean_knn_gt(np.zeros((2, 3)), q, 2)


def test_label_gt_cases():
    assert [g.tolist() for g in label_gt([1, 1, 1], [1, 1])] == [[0, 1, 2], [0, 1, 2]]
    assert [g.tolist() for g in label_gt([1, 2], [3])] == [[]]
    got = label_gt([0, 1, 0, 2, 1], [1, 0])
    assert got[0].tolist() == [1, 4]
    assert got[1].tolist() == [0, 2]
    assert label_gt([], []) == []


@pytest.mark.parametrize("db_labels, query_labels", [
    (np.random.default_rng(0).integers(0, 10, 500), np.random.default_rng(1).integers(0, 12, 300)),
    (np.array([2.5, np.nan, -0.0, 1.0, 0.0]), np.array([0.0, np.nan, -0.0, 2.5, 7.0, 1])),
    (np.array(["b", "a", "b"]), np.array(["a", "b", "c", "b"])),
    (np.array([3, 1, 3], dtype=np.uint8), np.array([3, 3, 1])),
    (np.array([None, 1, None], dtype=object), np.array([1, None, None], dtype=object)),  # no order
])
def test_label_gt_shares_one_read_only_array_per_label(db_labels, query_labels):
    got = label_gt(db_labels, query_labels)
    want = loop_label_gt(db_labels, query_labels)
    assert len(got) == len(want) == len(query_labels)
    for g, w, label in zip(got, want, query_labels):
        assert g.dtype == np.int64 and np.array_equal(g, w)
        # queries with equal labels get the very same array, which no caller can change
        assert all(h is g for h, other in zip(got, query_labels) if other == label)
        assert not g.flags.writeable
        if g.size:
            with pytest.raises(ValueError, match="read-only"):
                g[0] = 0


def test_validate_ground_truth_errors():
    with pytest.raises(ValueError):
        validate_ground_truth([[0]], db_size=3, n_queries=2)
    with pytest.raises(ValueError):
        validate_ground_truth([[3]], db_size=3, n_queries=1)
    with pytest.raises(ValueError):
        validate_ground_truth([[1, 1]], db_size=3, n_queries=1)
    # float and bool index arrays would be truncated or miscounted, not ranked
    with pytest.raises(ValueError, match="query 1 holds float64"):
        validate_ground_truth([[0], np.array([0.2, 0.9])], db_size=3, n_queries=2)
    with pytest.raises(ValueError, match="query 0 holds bool"):
        validate_ground_truth([np.array([True, False, True])], db_size=3, n_queries=1)
    validate_ground_truth([[], np.array([], dtype=np.uint32)], db_size=3, n_queries=2)


def validation_outcome(validate, gt, db_size, n_queries):
    try:
        validate(gt, db_size, n_queries)
    except ValueError as e:
        return str(e)
    return None


def assert_validation_matches_oracles(gt, db_size, n_queries):
    """validate_ground_truth reports what the sorting and the position-array checks report."""
    got = validation_outcome(validate_ground_truth, gt, db_size, n_queries)
    assert got == validation_outcome(unique_validate_ground_truth, gt, db_size, n_queries)
    assert got == validation_outcome(position_validate_ground_truth, gt, db_size, n_queries)


GT_CASES = [
    ([[0, 5, 9], [], [3]], 10, 3),
    ([np.r_[7, np.arange(100, 900), 7]], 1000, 1),                 # duplicates far apart
    ([np.arange(1000), np.arange(999, -1, -1)], 1000, 2),           # the buffer holds the last list
    ([[5, 2], [2, 5], [4, 4]], 6, 3),
    ([[], np.array([], dtype=np.uint32), np.array([], dtype=bool)], 3, 3),
    ([np.array([3, 1, 3], dtype=np.uint8)], 5, 1),
    ([np.array([0, 4], dtype=np.uint64), np.array([4, 0], dtype=np.uint16)], 5, 2),
    ([[0, 10]], 10, 1),
    ([[1], [-1, 2]], 10, 2),
    ([[1, 1], [99]], 10, 2),                                        # the duplicate is reported first
    ([np.array([0.0, 1.0])], 3, 1),
    ([np.array([True])], 3, 1),
    ([[0]], 3, 2),
    ([np.array([[0, 1], [2, 1]])], 3, 1),
    ([np.array([[0, 1], [2, 3]])], 4, 1),
    ([[0, 1]], 0, 1),
    ([np.array([2, 2])] * 2, 3, 2),                                 # one list object, checked once
    ([np.arange(3)] * 3 + [[0, 0]], 3, 4),                          # a bad list after a shared one
    (np.array([[0, 1], [1, 2], [0, 2], [2, 2]]), 3, 4),             # rows are new views on each pass
    # several lists: the first query with a fault is reported, whichever kind it is
    ([[0, 1], [99], [2, 2]], 10, 3),                                # a range fault, then a duplicate
    ([[0, 1], [3, 3], [99]], 10, 3),                                # a duplicate, then a range fault
    ([[4], [7, 99, 7]], 10, 2),                                     # both in one list: range wins
    ([[4], [7, 7, -1]], 10, 2),
    ([[9, 0], [0, 9], [8, 8]], 10, 3),                              # keys of neighbouring lists do not mix
    ([[9], [-1, 0]], 10, 2),
    ([[2], [0.5], [1, 1]], 3, 3),                                   # a float list after a clean one
    ([[1, 1], [0.5]], 3, 2),                                        # a duplicate before a float list
    ([[5], np.array([True, False])], 3, 2),                         # a range fault before a bool list
    ([[], [1, 2], [], [2, 2], []], 3, 5),
    ([[], []], 0, 2),
    ([[], [0]], 0, 2),
    ([np.arange(3), [0, 9]] * 2 + [[1, 1]], 3, 5),
    (np.array([[0, 1], [1, 5], [2, 2]]), 3, 3),
    (np.array([[1, 1], [0, 5]], dtype=np.uint8), 3, 2),
    ([np.array([1, 2**63], dtype=np.uint64)], 3, 1),                # wraps to a negative int64
    ([np.array([1, 2**64 - 1], dtype=np.uint64), [0, 0]], 3, 2),
    ([[0, 0], np.array([2**63 + 1], dtype=np.uint64)], 3, 2),
]


@pytest.mark.parametrize("gt, db_size, n_queries", GT_CASES)
def test_validate_ground_truth_matches_sorting_check(gt, db_size, n_queries):
    assert_validation_matches_oracles(gt, db_size, n_queries)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-1, 12), max_size=12), min_size=1, max_size=6), st.integers(0, 12),
       st.sampled_from(["int64", "int32", "uint16", "uint64", "float64", "bool"]), st.sampled_from([1, 5, 4096]),
       st.booleans())
def test_validate_ground_truth_matches_sorting_check_on_random_lists(lists, db_size, dtype, chunk, shared):
    # small chunks make the lists cross chunk boundaries, and a list can exceed one alone
    gt = [np.array([v for v in idx if v >= 0 or dtype[0] != "u"], dtype=dtype) if i % 2 else idx
          for i, idx in enumerate(lists)]
    if shared:
        gt = gt + gt[::-1]
    ev_chunk = ev._CHECK_CHUNK
    try:
        ev._CHECK_CHUNK = chunk
        assert_validation_matches_oracles(gt, db_size, len(gt))
    finally:
        ev._CHECK_CHUNK = ev_chunk


def test_map_perfect_ranking():
    db = codes_from([[1, 1, 1, 1], [1, 1, 1, -1], [1, 1, -1, -1], [-1, -1, -1, -1]])
    q = codes_from([[1, 1, 1, 1]])
    mean_ap, per = mean_average_precision(db, q, [np.array([0, 1, 2])])
    assert mean_ap == 1.0
    assert per == [1.0]


def test_map_hand_fixture_five_sixths():
    # ranked pattern relevant, irrelevant, relevant with two relevant items
    db = codes_from([[1, 1, 1, 1], [1, 1, 1, -1], [1, 1, -1, -1]])
    q = codes_from([[1, 1, 1, 1]])
    mean_ap, _ = mean_average_precision(db, q, [np.array([0, 2])])
    assert mean_ap == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_map_empty_ground_truth_counts_as_zero():
    db = codes_from([[1, 1], [1, -1]])
    q = codes_from([[1, 1], [1, -1]])
    mean_ap, per = mean_average_precision(db, q, [np.array([0]), np.array([], dtype=int)])
    assert per[0] == 1.0
    assert per[1] == 0.0
    assert mean_ap == 0.5


def test_map_and_precision_match_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(25):
        code_len = int(rng.integers(1, 9))
        n_db = int(rng.integers(1, 21))
        n_q = int(rng.integers(1, 6))
        db_signs = random_signs(rng, code_len, n_db)
        q_signs = random_signs(rng, code_len, n_q)
        db = BinaryCodes.from_sign_matrix(db_signs)
        q = BinaryCodes.from_sign_matrix(q_signs)
        gt = []
        for _ in range(n_q):
            size = int(rng.integers(0, n_db + 1))
            gt.append(rng.choice(n_db, size=size, replace=False))
        top_k = None if rng.random() < 0.5 else int(rng.integers(1, n_db + 1))
        mean_ap, per = mean_average_precision(db, q, gt, top_k=top_k)
        expected = [brute_force_ap(db_signs, q_signs[:, j], gt[j], top_k) for j in range(n_q)]
        assert per == pytest.approx(expected, abs=1e-12)
        assert mean_ap == pytest.approx(float(np.mean(expected)), abs=1e-12)
        radius = int(rng.integers(0, code_len + 1))
        mean_p, per_p = precision_at_radius(db, q, gt, radius)
        expected_p = [brute_force_precision(db_signs, q_signs[:, j], gt[j], radius)
                      for j in range(n_q)]
        assert per_p == pytest.approx(expected_p, abs=1e-12)
        assert mean_p == pytest.approx(float(np.mean(expected_p)), abs=1e-12)


def test_precision_full_radius_is_gt_fraction():
    rng = np.random.default_rng(4)
    signs = random_signs(rng, 6, 10)
    db = BinaryCodes.from_sign_matrix(signs)
    q = BinaryCodes.from_sign_matrix(signs[:, :1])
    mean_p, _ = precision_at_radius(db, q, [np.arange(5)], radius=6)
    assert mean_p == 0.5


def test_precision_empty_ball_is_zero():
    db = codes_from([[1, 1, 1, 1, 1, 1, 1, 1]])
    q = codes_from([[-1] * 8])
    mean_p, per = precision_at_radius(db, q, [np.array([0])], radius=2)
    assert mean_p == 0.0
    assert per == [0.0]


def test_precision_monotone_in_ground_truth():
    rng = np.random.default_rng(5)
    signs = random_signs(rng, 8, 15)
    db = BinaryCodes.from_sign_matrix(signs)
    q = BinaryCodes.from_sign_matrix(random_signs(rng, 8, 3))
    small = [rng.choice(15, size=4, replace=False) for _ in range(3)]
    large = [np.unique(np.concatenate([g, rng.choice(15, size=6, replace=False)])) for g in small]
    for r in range(9):
        _, per_small = precision_at_radius(db, q, small, r)
        _, per_large = precision_at_radius(db, q, large, r)
        for lo, hi in zip(per_small, per_large):
            assert hi >= lo - 1e-12


def test_map_rejects_mismatched_code_lengths():
    db = codes_from([[1, 1, 1]])
    q = codes_from([[1, 1]])
    with pytest.raises(ValueError):
        mean_average_precision(db, q, [np.array([0])])
    with pytest.raises(ValueError):
        mean_average_precision(db, codes_from([[1, 1, 1]]), [np.array([0])], top_k=0)
    with pytest.raises(ValueError):
        precision_at_radius(db, codes_from([[1, 1, 1]]), [np.array([0])], radius=-1)


@pytest.mark.parametrize("top_k", [2.5, 5.0, True, np.float64(3)])
def test_top_k_must_be_an_integer(top_k):
    db = codes_from([[1, 1, 1], [1, -1, 1]])
    gt = [np.array([0])]
    with pytest.raises(ValueError, match="top_k must be an integer"):
        mean_average_precision(db, db, gt + gt, top_k=top_k)
    with pytest.raises(ValueError, match="top_k must be an integer"):
        evaluate(db, db, gt + gt, top_k=top_k)


def test_evaluate_report_structure():
    rng = np.random.default_rng(6)
    signs = random_signs(rng, 8, 12)
    db = BinaryCodes.from_sign_matrix(signs)
    q = BinaryCodes.from_sign_matrix(signs[:, :3])
    gt = [np.array([j]) for j in range(3)]
    report = evaluate(db, q, gt, radii=(4, 2, 2), top_k=5)
    assert report.radii == [2, 4]
    assert set(report.precision_at) == {2, 4}
    assert report.top_k == 5
    assert 0.0 <= report.mean_ap <= 1.0
    assert len(report.per_query_ap) == 3
    for values in report.per_query_precision.values():
        assert len(values) == 3
        assert all(0.0 <= v <= 1.0 for v in values)
