"""Hamming-space retrieval metrics over packed binary codes.

Packing convention: codes are stored one per row as uint8 bytes; bit j of
code i is set iff the sign matrix entry (j, i) is +1, bits filling each byte
least-significant first.  Code i occupies ceil(L / 8) bytes and padding bits
beyond L are zero.
"""

from dataclasses import dataclass, field

import numpy as np

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


def _distances(packed, q, code_len):
    """Hamming distances from packed code q to each packed row (or to one 1-d code).

    Summed in the smallest unsigned type that holds code_len, so for L <= 255
    the stable argsort over the result is numpy's radix sort.
    """
    return np.bitwise_count(np.bitwise_xor(packed, q)).sum(axis=-1, dtype=np.min_scalar_type(code_len))


def hamming_distance(a, b, code_len):
    """Differing bits among the first code_len bits of two packed codes."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if code_len < 1:
        raise ValueError("code_len must be >= 1")
    want = (_bytes_per_code(code_len),)
    if a.shape != want or b.shape != want:
        raise ValueError("packed codes must be 1-d of %d bytes for %d bits" % (want[0], code_len))
    keep = np.full(want, 0xFF, dtype=np.uint8)
    keep[-1] >>= -code_len % 8  # drop padding bits beyond code_len
    return int(_distances(a & keep, b & keep, code_len))


def euclidean_knn_gt(database, queries, k):
    """k nearest database columns per query column under squared Euclidean distance.

    Ties resolve toward the lower database index.  Returns a list of index
    arrays, one per query.
    """
    database = np.asarray(database, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if database.ndim != 2 or queries.ndim != 2 or database.shape[0] != queries.shape[0]:
        raise ValueError("database and queries must be (D, *) arrays with equal D")
    if not 1 <= k <= database.shape[1]:
        raise ValueError("k=%d out of range for %d database items" % (k, database.shape[1]))
    out = []
    for j in range(queries.shape[1]):
        d = np.sum((database - queries[:, j][:, None]) ** 2, axis=0)
        out.append(np.argsort(d, kind="stable")[:k].astype(np.int64))
    return out


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


def _one_pass(db_codes, query_codes, gt, top_k=None, radii=(), with_ap=True):
    """Validate once, then one Hamming pass per query.

    Each query's distances and relevance mask are computed once; the AP of
    the stable ranking (ties toward the lower index, capped at top_k) and the
    precision of the ball of each radius all derive from them.  Returns
    (per_query_ap, [per_query_precision for each radius]); the AP list is
    empty unless with_ap.
    """
    db_codes.validate()
    query_codes.validate()
    if db_codes.code_len != query_codes.code_len:
        raise ValueError("database and query codes have different lengths")
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be >= 1 when given")
    if any(r < 0 for r in radii):
        raise ValueError("radius must be >= 0")
    validate_ground_truth(gt, db_codes.count, query_codes.count)
    aps, precisions = [], [[] for _ in radii]
    for q, gt_q in zip(query_codes.packed, gt):
        d = _distances(db_codes.packed, q, db_codes.code_len)
        gt_q = np.asarray(gt_q, dtype=np.int64)
        rel = np.zeros(db_codes.count, dtype=bool)
        rel[gt_q] = True
        if with_ap:
            rel_at_rank = rel[np.argsort(d, kind="stable")[:top_k]]
            hits = np.cumsum(rel_at_rank)
            ranks = np.flatnonzero(rel_at_rank) + 1
            aps.append(float(np.sum(hits[rel_at_rank] / ranks)) / gt_q.size if gt_q.size else 0.0)
        for per_r, r in zip(precisions, radii):
            within = d <= r
            n_retrieved = int(within.sum())
            per_r.append(float(np.sum(within & rel)) / n_retrieved if n_retrieved else 0.0)
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
    _, (precisions,) = _one_pass(db_codes, query_codes, gt, radii=(radius,), with_ap=False)
    return _mean(precisions), precisions


def evaluate(db_codes, query_codes, gt, radii=(2, 3, 4), top_k=None):
    """Full report: mAP plus precision at each requested Hamming radius, from one pass."""
    radii = sorted(set(int(r) for r in radii))
    aps, precisions = _one_pass(db_codes, query_codes, gt, top_k, radii)
    return EvalReport(_mean(aps), {r: _mean(p) for r, p in zip(radii, precisions)}, per_query_ap=aps,
                      per_query_precision=dict(zip(radii, precisions)), top_k=top_k, radii=radii)
