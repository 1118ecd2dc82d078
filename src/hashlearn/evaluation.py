"""Hamming-space retrieval metrics over packed binary codes.

Packing convention: codes are stored one per row as uint8 bytes; bit j of
code i is set iff the sign matrix entry (j, i) is +1, bits filling each byte
least-significant first.  Code i occupies ceil(L / 8) bytes and padding bits
beyond L are zero.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from hashlearn.network import check_finite


def _bytes_per_code(code_len):
    return (code_len + 7) // 8


@dataclass
class BinaryCodes:
    """A set of fixed-length binary codes in packed row-major form."""

    code_len: int
    count: int
    packed: np.ndarray  # (count, bytes_per_code) uint8

    @classmethod
    def from_sign_matrix(cls, b):
        b = np.asarray(b)
        if b.ndim != 2:
            raise ValueError("expected an (L, m) sign matrix, got ndim=%d" % b.ndim)
        if not np.all(np.abs(b) == 1):
            raise ValueError("sign matrix entries must be +1/-1")
        bits = (b.T > 0).astype(np.uint8)
        packed = np.packbits(bits, axis=1, bitorder="little")
        return cls(int(b.shape[0]), int(b.shape[1]), packed)

    def to_sign_matrix(self):
        if self.count == 0:
            return np.zeros((self.code_len, 0))
        bits = np.unpackbits(self.packed, axis=1, count=self.code_len, bitorder="little")
        return (bits.T.astype(np.float64) * 2.0 - 1.0)

    def validate(self):
        if self.code_len < 1:
            raise ValueError("code_len must be >= 1")
        if self.count < 0:
            raise ValueError("count must be >= 0")
        want = (self.count, _bytes_per_code(self.code_len))
        if self.packed.dtype != np.uint8 or self.packed.shape != want:
            raise ValueError("packed array must be uint8 with shape %s, got %s %s"
                             % (want, self.packed.dtype, self.packed.shape))
        pad_bits = self.code_len % 8
        if pad_bits and self.count:
            mask = (0xFF << pad_bits) & 0xFF
            if np.any(self.packed[:, -1] & mask):
                raise ValueError("padding bits beyond the code length must be zero")


def _words(codes):
    """The packed codes as (count, words) uint64, zero-padded to whole 64-bit words."""
    padded = np.zeros((codes.count, -(-codes.code_len // 64) * 8), dtype=np.uint8)
    padded[:, :codes.packed.shape[1]] = codes.packed
    return padded.view(np.uint64)


def _distances(words, q, code_len):
    """Hamming distances from the word-form code q to each row of words.

    Added word by word in the smallest unsigned type that holds code_len, so
    for L <= 255 the stable argsort over the result is numpy's radix sort.
    """
    d = np.bitwise_count(words[:, 0] ^ q[0]).astype(np.min_scalar_type(code_len), copy=False)
    for j in range(1, words.shape[1]):
        d += np.bitwise_count(words[:, j] ^ q[j])
    return d


def _scan_knn(database, q, k):
    """Exact k nearest columns of one query: every distance by differences, stable sort."""
    d = np.sum((database - q[:, None]) ** 2, axis=0)
    idx = np.argsort(d, kind="stable")[:k]
    if not np.isfinite(d[idx[-1]]):
        raise ValueError("squared distances overflow float64 among the %d nearest columns" % k)
    return idx.astype(np.int64)


def _certified_block(database, block, sq_norms, max_norm, k, n_cand):
    """k nearest columns of each query column in block, or None where the certificate fails.

    One GEMM gives the block's distances as ||x||^2 - 2 q^T x + ||q||^2; each
    query's n_cand smallest are re-ranked by the differences, as _scan_knn
    ranks them.  Both forms are within (D + 2) eps / 2 (max||x|| + ||q||)^2 of
    the true distance (Cauchy-Schwarz for q^T x, nonnegative terms for the
    differences), so when the k-th re-ranked distance is below the smallest
    excluded GEMM distance by twice (D + 3) (eps (max||x|| + ||q||)^2 + the
    smallest subnormal, for underflow), no excluded column can rank among the
    first k.
    """
    dim = database.shape[0]
    approx = block.T @ database
    approx *= -2.0
    approx += sq_norms
    q_sq = np.einsum("ij,ij->j", block, block)
    approx += q_sq[:, None]
    bounds = 2.0 * (dim + 3) * (np.finfo(np.float64).eps * (max_norm + np.sqrt(q_sq)) ** 2
                                + np.finfo(np.float64).smallest_subnormal)
    # np.sum adds rows in sequence on row-major data but pairwise down each column on
    # column-major data; gathering the candidates in the database's memory order keeps
    # their distances bit-identical to the scan's
    column_major = abs(database.strides[0]) < abs(database.strides[1])
    out = []
    for q, g, bound in zip(block.T, approx, bounds):
        part = np.argpartition(g, n_cand)
        cand = np.sort(part[:n_cand])
        near = database[:, cand] if column_major else database.take(cand, axis=1)
        d = np.sum((near - q[:, None]) ** 2, axis=0)
        order = np.argsort(d, kind="stable")[:k]
        out.append(cand[order] if d[order[-1]] < g[part[n_cand]] - bound else None)
    return out


def euclidean_knn_gt(database, queries, k):
    """k nearest database columns per query column under squared Euclidean distance.

    Ties resolve toward the lower database index.  Returns a list of index
    arrays, one per query.  Candidates come from blocked GEMM distances and are
    ranked exactly; a query whose ranking the rounding bound cannot certify
    falls back to the exact scan, so the result is always the scan's.
    """
    database = np.asarray(database, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if database.ndim != 2 or queries.ndim != 2 or database.shape[0] != queries.shape[0]:
        raise ValueError("database and queries must be (D, *) arrays with equal D")
    check_finite("database", database)
    check_finite("queries", queries)
    dim, n = database.shape
    if not 1 <= k <= n:
        raise ValueError("k=%d out of range for %d database items" % (k, n))
    n_cand = 2 * k + 16
    if n_cand >= n:
        return [_scan_knn(database, q, k) for q in queries.T]
    sq_norms = np.einsum("ij,ij->j", database, database)
    max_norm = np.sqrt(sq_norms.max())
    step = max(1, dim // 2)  # a (step, n) block: half the scan's (D, n) temporary
    out = []
    for start in range(0, queries.shape[1], step):
        out += _certified_block(database, queries[:, start:start + step], sq_norms, max_norm, k, n_cand)
    return [_scan_knn(database, q, k) if idx is None else idx for q, idx in zip(queries.T, out)]


def label_gt(db_labels, query_labels):
    """Relevant set per query: every database item sharing the query's label."""
    db_labels = np.asarray(db_labels)
    query_labels = np.asarray(query_labels)
    if db_labels.ndim != 1 or query_labels.ndim != 1:
        raise ValueError("labels must be 1-d arrays")
    return [np.flatnonzero(db_labels == q).astype(np.int64) for q in query_labels]


def validate_ground_truth(gt, db_size, n_queries):
    if len(gt) != n_queries:
        raise ValueError("ground truth covers %d queries, expected %d" % (len(gt), n_queries))
    for qi, idx in enumerate(gt):
        idx = np.asarray(idx)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError("ground truth for query %d holds %s, not integer indices" % (qi, idx.dtype))
        if idx.size and (idx.min() < 0 or idx.max() >= db_size):
            raise ValueError("ground truth for query %d has indices outside [0, %d)" % (qi, db_size))
        if np.unique(idx).size != idx.size:
            raise ValueError("ground truth for query %d has duplicate indices" % qi)


@dataclass
class EvalReport:
    mean_ap: float
    precision_at: dict = field(default_factory=dict)       # radius -> mean precision
    per_query_ap: list = field(default_factory=list)
    per_query_precision: dict = field(default_factory=dict)
    top_k: int | None = None
    radii: list = field(default_factory=list)


def _mean(values):
    return float(np.mean(values)) if values else 0.0


def _whole_radii(radii):
    """The radii as Python ints; a fractional or negative radius is an error."""
    out = []
    for r in radii:
        if not (isinstance(r, numbers.Integral) or float(r).is_integer()):
            raise ValueError("radius must be a whole number, got %r" % (r,))
        if r < 0:
            raise ValueError("radius must be >= 0, got %r" % (r,))
        out.append(int(r))
    return out


def _one_pass(db_codes, query_codes, gt, top_k=None, radii=(), with_ap=True):
    """Validate once, then one Hamming pass per query; radii come from _whole_radii.

    Each query's distances are computed once, on 64-bit words.  The AP of the
    stable ranking (ties toward the lower index, capped at top_k) comes from
    the ranks of the relevant items; the precision of the ball of each radius
    from cumulative histograms of all and of the relevant distances.  Returns
    (per_query_ap, [per_query_precision for each radius]); the AP list is
    empty unless with_ap.
    """
    db_codes.validate()
    query_codes.validate()
    if db_codes.code_len != query_codes.code_len:
        raise ValueError("database and query codes have different lengths")
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be >= 1 when given")
    validate_ground_truth(gt, db_codes.count, query_codes.count)
    aps, precisions = [], [[] for _ in radii]
    code_len = db_codes.code_len
    db_words = _words(db_codes)
    for q, gt_q in zip(_words(query_codes), gt):
        d = _distances(db_words, q, code_len)
        gt_q = np.asarray(gt_q, dtype=np.int64)
        if with_ap:
            rel = np.zeros(db_codes.count, dtype=bool)
            rel[gt_q] = True
            # the t-th relevant item in the ranking has t hits
            ranks = np.flatnonzero(rel[np.argsort(d, kind="stable")[:top_k]]) + 1
            aps.append(float(np.sum(np.arange(1, ranks.size + 1) / ranks)) / gt_q.size if gt_q.size else 0.0)
        if radii:
            n_within = np.cumsum(np.bincount(d, minlength=code_len + 1))
            rel_within = np.cumsum(np.bincount(d[gt_q], minlength=code_len + 1))
            for per_r, r in zip(precisions, radii):
                r = min(r, code_len)
                n_retrieved = int(n_within[r])
                per_r.append(float(rel_within[r]) / n_retrieved if n_retrieved else 0.0)
    return aps, precisions


def mean_average_precision(db_codes, query_codes, gt, top_k=None):
    """Mean of per-query average precision over a Hamming-distance ranking.

    The ranked list may be capped at top_k items; relevant items beyond the
    cap still count in the AP denominator.  Queries with empty ground truth
    contribute an AP of 0.  Returns (mean_ap, per_query_ap).
    """
    aps, _ = _one_pass(db_codes, query_codes, gt, top_k=top_k)
    return _mean(aps), aps


def precision_at_radius(db_codes, query_codes, gt, radius):
    """Mean precision of the Hamming ball of the given radius around each query.

    A query retrieving nothing at this radius scores 0.  Returns
    (mean_precision, per_query_precision).
    """
    _, (precisions,) = _one_pass(db_codes, query_codes, gt, radii=_whole_radii((radius,)), with_ap=False)
    return _mean(precisions), precisions


def evaluate(db_codes, query_codes, gt, radii=(2, 3, 4), top_k=None):
    """Full report: mAP plus precision at each requested Hamming radius, from one pass."""
    radii = sorted(set(_whole_radii(radii)))
    aps, precisions = _one_pass(db_codes, query_codes, gt, top_k, radii)
    return EvalReport(_mean(aps), {r: _mean(p) for r, p in zip(radii, precisions)}, per_query_ap=aps,
                      per_query_precision=dict(zip(radii, precisions)), top_k=top_k, radii=radii)
