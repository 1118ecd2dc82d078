"""Hamming-space retrieval metrics over packed binary codes.

Packing convention: codes are stored one per row as uint8 bytes; bit j of
code i is set iff the sign matrix entry (j, i) is +1, bits filling each byte
least-significant first.  Code i occupies ceil(L / 8) bytes and padding bits
beyond L are zero.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from hashlearn.network import _is_int, check_finite

_F32 = np.finfo(np.float32)
_BLOCK = 16384  # database codes per XOR block in _hamming_scan: a 128 KB buffer
_CUT_SHARE = 4  # _ranked_prefix sorts only the codes inside the cut when they are at most n / 4
_PIECE = 32768  # float64 differences per piece in _chain_distances: 256 KB
_CHECK_CHUNK = 4096  # indices validate_ground_truth checks at once: 32 KB for each int64 temporary


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
        packed = np.packbits(np.ascontiguousarray(b.T > 0), axis=1, bitorder="little")
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
    """The packed codes as (count, words) uint64, zero-padded to whole 64-bit words.

    Codes that already fill whole words are viewed in place, not copied.
    """
    if codes.code_len % 64 == 0 and codes.packed.flags.c_contiguous:
        words = codes.packed.view(np.uint64)
        if words.flags.aligned:
            return words
    padded = np.zeros((codes.count, -(-codes.code_len // 64) * 8), dtype=np.uint8)
    padded[:, :codes.packed.shape[1]] = codes.packed
    return padded.view(np.uint64)


def _hamming_scan(words, code_len):
    """A function of a word-form query q that returns the Hamming distances from q to each
    row of words, in one array that every call overwrites.

    The distances have the smallest unsigned type that holds code_len, so for L <= 255
    the stable argsort over them is numpy's radix sort.  The rows go in blocks of
    _BLOCK, so the XORed words take a cache-sized buffer rather than one the size of
    the database.
    """
    n, n_words = words.shape
    out = np.empty(n, dtype=np.min_scalar_type(code_len))
    step = max(1, min(n, _BLOCK))
    xor, count = np.empty(step, dtype=np.uint64), np.empty(step, dtype=np.uint8)
    blocks = [(words[start:start + step].T, out[start:start + step]) for start in range(0, n, step)]
    blocks = [(cols, d, xor[:d.size], count[:d.size]) for cols, d in blocks]

    def distances(q):
        for cols, d, x, c in blocks:
            np.bitwise_count(np.bitwise_xor(cols[0], q[0], out=x), out=d)
            for j in range(1, n_words):
                d += np.bitwise_count(np.bitwise_xor(cols[j], q[j], out=x), out=c)
        return out
    return distances


def _layout(database):
    """The memory order, "C" or "F", in which the database's float64 differences are laid out."""
    return "F" if abs(database.strides[0]) < abs(database.strides[1]) else "C"


def _sq_distances(columns, points, layout):
    """Float64 squared distances from each column of `columns` to the matching column of
    `points`, or to its only column, from differences of the original values.

    np.sum adds rows in sequence on row-major data but pairwise down each column on
    column-major data, so the differences are laid out in the database's memory order: a
    column's distance is then the same bits as in the whole-database scan, among any two or
    more columns.  A single column of row-major differences is column-major as well, and
    would be added pairwise.
    """
    return np.sum(np.subtract(columns, points, dtype=np.float64, order=layout) ** 2, axis=0)


def _scan_knn(database, q, k):
    """The k nearest database columns to q, ranked by float64 distances with a stable sort."""
    d = _sq_distances(database, np.asarray(q)[:, None], _layout(database))
    idx = np.argsort(d, kind="stable")[:k]
    if not math.isfinite(d[idx[-1]]):
        raise ValueError("squared distances overflow float64 among the %d nearest columns" % k)
    return idx


def _shifted_float32(a, shift):
    """a - shift rounded once to float32, with the float64 squared norms of its columns.

    The difference is taken in the inputs' common type (float32 for float32 and uint8 data,
    float64 for float64 data) through the ufunc's fixed-size buffers, so no float64 array
    the size of a is made.  A value beyond the float32 range rounds to inf.
    """
    out = np.empty_like(a, dtype=np.float32)
    with np.errstate(over="ignore"):
        np.subtract(a, shift[:, None], out=out)
    return out, np.einsum("ij,ij->j", out, out, dtype=np.float64)


def _float32_floor(x):
    """The largest float32 at most each float64 x (NaN stays NaN), so that for every float32
    g, g <= x exactly when g <= _float32_floor(x), and the comparison runs in float32."""
    with np.errstate(over="ignore"):
        y = x.astype(np.float32)
        return np.where(y > x, np.nextafter(y, np.float32(-np.inf)), y)


def _chain_distances(database, queries, cols, rows):
    """Float64 squared distances from the database columns cols to the query columns rows.

    They are computed in pieces of at most _PIECE differences, and of two columns or more
    so that each is summed as in the scan (see _sq_distances).
    """
    layout, step = _layout(database), max(2, _PIECE // database.shape[0])
    edges = [*range(0, cols.size - 1, step), cols.size]  # the last piece has two columns or more
    return np.concatenate([_sq_distances(database[:, cols[a:b]], queries[:, rows[a:b]], layout)
                           for a, b in zip(edges, edges[1:])])


def _ranked_candidates(database, queries, g, flat, gaps):
    """The candidates of the query columns, given as flat indices into their rows of g, as
    database columns in the scan's order, query by query.

    The candidates are sorted by (query, g) on one int64 key: the query above g's float32
    bits, the bits of a negative g flipped so that the integers order as the floats do.
    A chain is a run of them in which each g is at most its query's gap above the one
    before, and only chain members get float64 distances; candidates with equal g are in
    one chain, so the sort need not be stable.  Chains rank in their order by g, so each
    query's members, taken in index order, are then sorted stably by distance.
    """
    row, col = np.divmod(flat, database.shape[1])
    bits = g.ravel()[flat].view(np.int32)
    order = np.argsort((row << 32) | (bits ^ ((bits >> 31) & 0x7FFFFFFF)).astype(np.int64) + 2**31)
    g = g.ravel()[flat[order]]  # the key sorts by row first and row is sorted: row[order] is row
    linked = np.zeros(g.size + 1, dtype=bool)  # linked[i]: candidate i is in the chain of i - 1
    linked[1:-1] = (np.subtract(g[1:], g[:-1], dtype=np.float64) <= gaps[row[1:]]) & (row[1:] == row[:-1])
    members = np.flatnonzero(linked[:-1] | linked[1:])
    ranked = col[order]
    if members.size:
        chained = np.sort(order[members])
        cols, rows = col[chained], row[chained]
        ranked[members] = cols[np.lexsort((_chain_distances(database, queries, cols, rows), rows))]
    return ranked


def _certified_block(database, shifted, sq_norms, radius, block, shift, k):
    """k nearest columns of each query column in block, as the whole-database scan ranks them.

    Distances do not change under translation, so the candidates come from x - s and
    q - s rounded to float32: `shifted` is the database's from _shifted_float32, `sq_norms`
    its squared column norms in float32 and `radius` its largest column norm.  One float32
    GEMM of -2 (q - s) against `shifted`, plus the norms, gives
    g = ||x - s||^2 - 2 (q - s)^T (x - s) for each column x; ||q - s||^2 is the same for
    every column and is left out.

    Bound.  Let u = eps / 2 be the float32 unit roundoff, eta the smallest float32
    subnormal and r = max ||x - s|| + ||q - s||, from the rounded columns' float64 norms.
    Up to factors 1 + O(u), g + ||q - s||^2 differs from the exact distance by at most
      - 3 u r^2 + 2 eta from rounding x - s and q - s to float32;
      - gamma_D r^2 / 2 + D eta from the GEMM, in any summation order, with or without
        FMA (|2 (q - s)^T (x - s)| <= r^2 / 2 and gamma_D = D u / (1 - D u));
      - 2 u r^2 + eta from rounding the norms to float32 and adding them to the GEMM;
    and the float64 norms, the scan's own sums and the threshold arithmetic add less
    than u r^2.  For D <= 2^22, gamma_D <= 2 D u, so with beta = (D + 8)(eps r^2 + eta)
      |scan distance of x - (g + ||q - s||^2)| <= beta   for every column x.
    Let T be the k-th smallest g.  A column with g > T + 2 beta then has a scan distance
    above T + beta + ||q - s||^2, which is at least the scan distance of each of the k or
    more columns with g <= T, so it is not among the scan's first k.  The candidates, the
    columns with g <= T + 2 beta, therefore hold the scan's first k.

    Order.  In the same way, of two candidates with g' > g + 2 beta, the one with g' has
    the larger scan distance.  So sorted by g, the candidates fall into chains, runs in
    which each g is within 2 beta of the one before, and every chain ranks in the scan
    wholly after the chains before it: _ranked_candidates need only order each chain by
    its float64 distances, and ties there by index.  Every candidate past the k-th place
    is in the k-th place's chain, so no chain is cut off by taking the first k.

    The block's candidates come from one comparison of g with the thresholds, rounded
    down to float32, and one flatnonzero; they are ranked in groups of queries that hold
    at most n of them together, or of one query.  Only where r^2 >= max / 2, so that a
    float32 value may overflow, does _scan_knn rank the whole database instead; that
    includes a column or query whose float32 cast overflowed (r = inf).
    """
    dim, n = database.shape
    scaled, q_sq = _shifted_float32(block, shift)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled *= -2.0
        approx = scaled.T @ shifted
        approx += sq_norms
    reach = (radius + np.sqrt(q_sq)) ** 2
    gaps = 2 * (dim + 8) * (_F32.eps * reach + _F32.smallest_subnormal)
    fits = reach < _F32.max / 2
    limits = np.full(len(approx), np.nan)  # no candidates for a query that does not fit
    part = np.empty(n, dtype=np.float32)  # np.partition would copy each row; this is reused
    for i in np.flatnonzero(fits):
        part[:] = approx[i]
        part.partition(k - 1)
        limits[i] = part[k - 1] + gaps[i]
    flat = np.flatnonzero(approx <= _float32_floor(limits)[:, None])
    bounds = np.searchsorted(flat, np.arange(len(approx) + 1) * n)  # query i's are flat[bounds[i]:bounds[i + 1]]
    ranked = np.empty((len(approx), k), dtype=np.int64)
    start = 0
    while start < len(approx):  # groups of queries with at most n candidates, or of one query
        stop = max(start + 1, int(np.searchsorted(bounds, bounds[start] + n, side="right")) - 1)
        group, lo = slice(start, stop), bounds[start]
        cols = _ranked_candidates(database, block[:, group], approx[group], flat[lo:bounds[stop]] - start * n,
                                  gaps[group])
        ranked[group][fits[group]] = cols[(bounds[group] - lo)[fits[group], None] + np.arange(k)]
        start = stop
    for i in np.flatnonzero(~fits):
        ranked[i] = _scan_knn(database, block[:, i], k)
    return list(ranked)


def euclidean_knn_gt(database, queries, k):
    """k nearest database columns per query column under squared Euclidean distance.

    Ties resolve toward the lower database index.  Returns a list of index
    arrays, one per query.  The inputs keep their element type (float64,
    float32, uint8, ...); no float64 copy of the database is made.  Candidates
    come from one float32 GEMM per block of D // 2 queries, on the database and
    queries shifted by the database mean: the columns that the float32 rounding
    bound cannot rule out, about k per query on well-separated data and every
    tied column across the k-th place.  Sorted by their float32 distances, they
    need exact float64 distances, from the original values, only in runs of
    near ties that the bound cannot order: a few columns per query on
    well-separated data.  The result is always the exact float64 scan's; the
    scan itself ranks a query only where the bound cannot be formed: when its
    shifted values may overflow float32, and for every query when D > 2^22.
    """
    database = np.asarray(database)
    queries = np.asarray(queries)
    if database.ndim != 2 or queries.ndim != 2 or database.shape[0] != queries.shape[0]:
        raise ValueError("database and queries must be (D, *) arrays with equal D")
    check_finite("database", database)
    check_finite("queries", queries)
    dim, n = database.shape
    if not _is_int(k):
        raise ValueError("k must be an integer, got %r" % (k,))
    if not 1 <= k <= n:
        raise ValueError("k=%d out of range for %d database items" % (k, n))
    if dim > 2**22:  # the rounding bound needs D <= 2^22
        return [_scan_knn(database, q, k) for q in queries.T]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = database.mean(axis=1, dtype=np.float64)
    # any finite float32 shift keeps the result; the mean keeps rounding to the data's spread
    shift = np.where(np.abs(mean) < _F32.max, mean, 0.0).astype(np.float32)
    shifted, sq_norms = _shifted_float32(database, shift)
    with np.errstate(over="ignore"):
        radius, sq_norms = np.sqrt(sq_norms.max()), sq_norms.astype(np.float32)
    step = max(1, dim // 2)  # a (step, n) float32 block: a quarter of the scan's (D, n) temporary
    out = []
    for start in range(0, queries.shape[1], step):
        out += _certified_block(database, shifted, sq_norms, radius, queries[:, start:start + step], shift, k)
    return out


def label_gt(db_labels, query_labels):
    """Relevant set per query: every database item sharing the query's label.

    Queries with equal labels share one read-only int64 array.
    """
    db_labels = np.asarray(db_labels)
    query_labels = np.asarray(query_labels)
    if db_labels.ndim != 1 or query_labels.ndim != 1:
        raise ValueError("labels must be 1-d arrays")
    shared, out = {}, []  # keyed by label, so labels need == and hashing but no order
    for label in query_labels:
        if label not in shared:
            shared[label] = idx = np.flatnonzero(db_labels == label).astype(np.int64, copy=False)
            idx.flags.writeable = False
        out.append(shared[label])
    return out


def _check_lists(lists, owners, db_size):
    """Raise for the first of the non-empty integer index lists that has an index outside
    [0, db_size) or a repeated one; owners[i] is the query lists[i] is reported for."""
    if not lists:
        return
    sizes = [idx.size for idx in lists]
    ends = np.cumsum(sizes)
    # indices >= 2**63 in uint64 wrap to negative ones, which are out of range as well
    flat = np.concatenate(lists, dtype=np.int64, casting="unsafe")
    # one unsigned comparison: a negative index reads as one >= 2**63
    outside = np.flatnonzero(flat.view(np.uint64) >= db_size)
    n_ok = int(np.searchsorted(ends, outside[0], side="right")) if outside.size else len(lists)
    # within a list a range fault is reported first, so only the lists before it are searched
    # for repeats; every index there is in range, so each key falls in its own list's span
    span = max(db_size, 1)
    keys = np.repeat(np.arange(n_ok, dtype=np.int64) * span, sizes[:n_ok])
    keys += flat[:keys.size]
    keys.sort()
    repeats = np.flatnonzero(keys[1:] == keys[:-1])
    if repeats.size:
        raise ValueError("ground truth for query %d has duplicate indices" % owners[int(keys[repeats[0]]) // span])
    if n_ok < len(lists):
        raise ValueError("ground truth for query %d has indices outside [0, %d)" % (owners[n_ok], db_size))


def validate_ground_truth(gt, db_size, n_queries):
    """Check that gt has one list of distinct integer indices in [0, db_size) per query.

    Each list object is checked once, in query order, and the first query whose list has
    a fault is reported: a non-integer type first, then an index out of range, then a
    repeated index.  The lists are checked together in chunks of about _CHECK_CHUNK
    indices, so that no temporary grows with the number of queries.
    """
    if len(gt) != n_queries:
        raise ValueError("ground truth covers %d queries, expected %d" % (len(gt), n_queries))
    checked = {}  # each list once; holding it keeps its id from being reused
    lists, owners, size = [], [], 0
    for qi, idx in enumerate(gt):
        if id(idx) in checked:
            continue
        checked[id(idx)] = idx
        idx = np.asarray(idx).ravel()
        if not idx.size:
            continue
        if idx.dtype.kind not in "iu":
            _check_lists(lists, owners, db_size)
            raise ValueError("ground truth for query %d holds %s, not integer indices" % (qi, idx.dtype))
        if size + idx.size > _CHECK_CHUNK:
            _check_lists(lists, owners, db_size)
            lists, owners, size = [], [], 0
        lists.append(idx)
        owners.append(qi)
        size += idx.size
    _check_lists(lists, owners, db_size)


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


def _n_within(d, r, inside):
    """The number of distances d <= r, which the bool array inside is set to mark."""
    return int(np.count_nonzero(np.less_equal(d, r, out=inside)))


def _ranked_prefix(d, inside, n_cut, stop):
    """The first stop codes of the stable ranking by the distances d (ties toward the
    lower index), given the mask inside of the n_cut >= stop codes at or inside the cut.

    Only those n_cut codes can rank among the first stop, and picking them out keeps
    their database order, so sorting them alone gives the same ranking.  That is
    done when they are at most 1 / _CUT_SHARE of d; otherwise all of d is sorted.
    """
    if n_cut * _CUT_SHARE > d.size:
        return np.argsort(d, kind="stable")[:stop]
    cand = np.flatnonzero(inside)
    return cand[np.argsort(d[cand], kind="stable")[:stop]]


def _one_pass(db_codes, query_codes, gt, top_k=None, radii=(), with_ap=True):
    """Validate once, then one Hamming pass per distinct query code; radii come from _whole_radii.

    Queries with equal codes share their distances, computed once on 64-bit words, and a
    ranking; queries that also have relevant lists of equal content share their numbers.
    The precision of the ball of each radius divides the relevant codes within it, counted
    from a histogram of the list's distances, by all codes within it, counted over the
    database.  The AP of the stable ranking (ties toward the lower index, capped at top_k)
    comes from the ranks of the relevant items.  Only codes at or inside the cut can rank
    ahead of a relevant one; each code is ranked once, and its cut is the farthest relevant
    distance of all its lists, lowered to the top_k-th smallest distance (the smallest
    that top_k codes are at or inside) if top_k is given.  A list whose relevant items
    are all nearer finds them at the same ranks as in a ranking at its own cut.  When the
    codes at or inside the cut are at most 1 / _CUT_SHARE of the database, only they are
    sorted (_ranked_prefix), else the whole database is.  Returns (per_query_ap,
    [per_query_precision for each radius]); the AP list is empty unless with_ap.
    """
    db_codes.validate()
    query_codes.validate()
    if db_codes.code_len != query_codes.code_len:
        raise ValueError("database and query codes have different lengths")
    if top_k is not None and not (_is_int(top_k) and top_k >= 1):
        raise ValueError("top_k must be an integer >= 1 when given, got %r" % (top_k,))
    validate_ground_truth(gt, db_codes.count, query_codes.count)
    code_len, n, n_q = db_codes.code_len, db_codes.count, query_codes.count
    aps, precisions = [0.0] * n_q if with_ap else [], [[0.0] * n_q for _ in radii]
    radii = [min(r, code_len) for r in radii]  # a ball beyond L holds the same codes as at L
    distances = _hamming_scan(_words(db_codes), code_len)
    # buffers every code reuses; inside marks the codes within the last radius counted,
    # rel the current list's relevant codes, and part takes the distances inside the cut
    # that the top_k cut is counted from
    inside = np.empty(n, dtype=bool)
    rel = np.zeros(n, dtype=bool)
    part = None if top_k is None else np.empty(n, dtype=np.min_scalar_type(code_len))
    words = _words(query_codes)
    groups = {}  # each distinct code's bytes -> the queries with that code
    for qi, code in enumerate(words.view(np.dtype((np.void, 8 * words.shape[1]))).ravel().tolist()):
        groups.setdefault(code, []).append(qi)
    for group in groups.values():
        d = distances(words[group[0]])
        n_at_radius = [_n_within(d, r, inside) for r in radii]
        by_content = {}  # each distinct relevant list's bytes -> (the list, its queries)
        for qi in group:
            gt_q = np.asarray(gt[qi], dtype=np.int64)
            by_content.setdefault(gt_q.tobytes(), (gt_q, []))[1].append(qi)
        lists = []  # (relevant list, its queries, relevant codes within each radius)
        cut = -1
        for gt_q, queries in by_content.values():
            d_rel = d[gt_q]
            if gt_q.size:
                cut = max(cut, int(np.maximum.reduce(d_rel)))
            rel_within = np.add.accumulate(np.bincount(d_rel, minlength=code_len + 1)) if radii else None
            lists.append((gt_q, queries, rel_within))
        if with_ap and cut >= 0:
            n_cut = _n_within(d, cut, inside)
            # the cut is a code's distance, so with n_cut == top_k no smaller radius holds top_k codes
            if top_k is not None and n_cut > top_k:
                # the top_k-th smallest distance, the smallest radius with top_k codes within it,
                # from a cumulative count of the n_cut distances inside the cut
                within = np.add.accumulate(np.bincount(np.compress(inside, d, out=part[:n_cut])))
                cut = int(np.searchsorted(within, top_k))
                n_cut = _n_within(d, cut, inside)
            order = _ranked_prefix(d, inside, n_cut, n_cut if top_k is None else min(n_cut, top_k))
        for gt_q, queries, rel_within in lists:
            if with_ap and gt_q.size:
                rel[gt_q] = True
                # the t-th relevant item in the ranking has t hits
                ranks = rel[order].nonzero()[0] + 1
                rel[gt_q] = False
                ap = float(np.add.reduce(np.arange(1, ranks.size + 1) / ranks)) / gt_q.size
                for qi in queries:
                    aps[qi] = ap
            for per_r, r, n_retrieved in zip(precisions, radii, n_at_radius):
                precision = float(rel_within[r]) / n_retrieved if n_retrieved else 0.0
                for qi in queries:
                    per_r[qi] = precision
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
