"""Independent oracle implementations used to verify the package.

Everything here is deliberately naive (scalar loops, exhaustive enumeration,
finite differences) and shares no code with the library internals beyond the
public parameter containers.  The exceptions: the eager line search shares
minimize's two-loop recursion and constants, so that the two agree bit for bit,
and objective_instance builds the trainer's own objective as a fixture.
"""

import math
import struct
import tracemalloc
from collections import Counter

import numpy as np

import hashlearn.supervised as sup
import hashlearn.unsupervised as unsup
from hashlearn import lbfgs
from hashlearn.evaluation import BinaryCodes, EvalReport
from hashlearn.initialization import init_network
from hashlearn.network import LINEAR, SIGMOID, UNSUPERVISED, NetworkParams, Workspace, code_layer, forward, sgn
from hashlearn.trainer import TrainConfig, _flatten, _make_objective


def random_params(sizes, acts, mode, rng, scale=0.5):
    """Gaussian test network; the library itself never initializes randomly."""
    ws = [rng.standard_normal((sizes[i + 1], sizes[i])) * scale for i in range(len(sizes) - 1)]
    cs = [rng.standard_normal(sizes[i + 1]) * 0.1 for i in range(len(sizes) - 1)]
    return NetworkParams(list(sizes), ws, cs, list(acts), mode)


def naive_forward_column(params, x_col, upto):
    """Scalar-loop forward pass for one sample; returns activations per layer."""
    h = [float(v) for v in x_col]
    outs = [list(h)]
    for li in range(upto - 1):
        w = params.weights[li]
        c = params.biases[li]
        z = []
        for r in range(w.shape[0]):
            acc = float(c[r])
            for col in range(w.shape[1]):
                acc += float(w[r, col]) * h[col]
            z.append(acc)
        if params.activations[li] == SIGMOID:
            h = [1.0 / (1.0 + math.exp(-v)) for v in z]
        elif params.activations[li] == LINEAR:
            h = list(z)
        else:
            raise AssertionError("unknown activation in oracle")
        outs.append(list(h))
    return outs


def naive_frobenius_sq(a):
    total = 0.0
    for row in np.atleast_2d(np.asarray(a, dtype=np.float64)):
        for v in row:
            total += float(v) * float(v)
    return total


def naive_unsup_loss(params, x, b, lam1, lam2, lam3, lam4):
    """Scalar-loop version of the reconstruction objective."""
    d, m = x.shape
    n = len(params.layer_sizes)
    code_len = b.shape[0]
    h_cols = [naive_forward_column(params, x[:, j], n - 1)[-1] for j in range(m)]
    h = np.array(h_cols).T
    w_dec = params.weights[-1]
    c_dec = params.biases[-1]
    recon = 0.0
    for j in range(m):
        for r in range(d):
            pred = float(c_dec[r])
            for k in range(code_len):
                pred += float(w_dec[r, k]) * float(b[k, j])
            recon += (float(x[r, j]) - pred) ** 2
    j_val = recon / (2.0 * m)
    j_val += (lam1 / 2.0) * sum(naive_frobenius_sq(w) for w in params.weights)
    j_val += (lam2 / (2.0 * m)) * naive_frobenius_sq(h - b)
    corr = h @ h.T / m - np.eye(code_len)
    j_val += (lam3 / 2.0) * naive_frobenius_sq(corr)
    rowsums = h.sum(axis=1)
    j_val += (lam4 / (2.0 * m)) * float(np.sum(rowsums ** 2))
    return j_val


def pairwise_matrix(labels):
    """The dense +1/-1 same-class matrix S of a label vector, the input of the supervised
    oracles; the library works from the (m, C) class indicator instead."""
    labels = np.asarray(labels)
    return np.where(labels[:, None] == labels[None, :], 1.0, -1.0)


def naive_sup_loss(params, x, b, s, lam1, lam2, lam3, lam4):
    """Scalar-loop version of the pairwise-label objective."""
    d, m = x.shape
    n = len(params.layer_sizes)
    code_len = b.shape[0]
    h_cols = [naive_forward_column(params, x[:, j], n)[-1] for j in range(m)]
    h = np.array(h_cols).T
    fit = 0.0
    for i in range(m):
        for j in range(m):
            dot = 0.0
            for k in range(code_len):
                dot += float(h[k, i]) * float(h[k, j])
            fit += (dot / code_len - float(s[i, j])) ** 2
    j_val = fit / (2.0 * m)
    j_val += (lam1 / 2.0) * sum(naive_frobenius_sq(w) for w in params.weights)
    j_val += (lam2 / (2.0 * m)) * naive_frobenius_sq(h - b)
    corr = h @ h.T / m - np.eye(code_len)
    j_val += (lam3 / 2.0) * naive_frobenius_sq(corr)
    rowsums = h.sum(axis=1)
    j_val += (lam4 / (2.0 * m)) * float(np.sum(rowsums ** 2))
    return j_val


def central_difference(fun, x0, h=1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    fd = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xp[i] += h
        xm = x0.copy()
        xm[i] -= h
        fd[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return fd


def max_rel_error(a, b, floor=1e-3):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def unpack_codes(codes):
    """Sign matrix from packed codes, rebuilt bit by bit with plain ints."""
    out = np.zeros((codes.code_len, codes.count))
    for i in range(codes.count):
        row = codes.packed[i]
        for j in range(codes.code_len):
            bit = (int(row[j // 8]) >> (j % 8)) & 1
            out[j, i] = 1.0 if bit else -1.0
    return out


def naive_hamming(sign_a, sign_b):
    return int(sum(1 for u, v in zip(sign_a, sign_b) if u != v))


def hamming_distance(a, b, code_len):
    """Differing bits among the first code_len bits of two packed codes, bit by bit."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if code_len < 1:
        raise ValueError("code_len must be >= 1")
    want = ((code_len + 7) // 8,)
    if a.shape != want or b.shape != want:
        raise ValueError("packed codes must be 1-d of %d bytes for %d bits" % (want[0], code_len))
    return sum(((int(a[j // 8]) ^ int(b[j // 8])) >> (j % 8)) & 1 for j in range(code_len))


def brute_force_ap(db_signs, query_sign, gt_indices, top_k=None):
    """AP from a fully materialized (distance, index)-sorted list."""
    m = db_signs.shape[1]
    ranked = sorted(range(m), key=lambda i: (naive_hamming(db_signs[:, i], query_sign), i))
    if top_k is not None:
        ranked = ranked[:top_k]
    gt = set(int(v) for v in gt_indices)
    if not gt:
        return 0.0
    hits = 0
    total = 0.0
    for rank, idx in enumerate(ranked, start=1):
        if idx in gt:
            hits += 1
            total += hits / rank
    return total / len(gt)


def brute_force_precision(db_signs, query_sign, gt_indices, radius):
    m = db_signs.shape[1]
    retrieved = [i for i in range(m) if naive_hamming(db_signs[:, i], query_sign) <= radius]
    if not retrieved:
        return 0.0
    gt = set(int(v) for v in gt_indices)
    return len([i for i in retrieved if i in gt]) / len(retrieved)


# Oracles for the fused objectives: the two-pass loss()/grad() bodies and the
# split-exp sigmoid that value_and_grad() and the tanh sigmoid replaced.

def split_exp_sigmoid(z):
    """Sigmoid split by sign so exp never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _two_pass_forward(params, x, upto):
    hs = [x]
    for i in range(upto - 1):
        z = params.weights[i] @ hs[-1] + params.biases[i][:, None]
        hs.append(split_exp_sigmoid(z) if params.activations[i] == SIGMOID else z)
    return hs


def _deriv(kind, h):
    return h * (1.0 - h) if kind == SIGMOID else np.ones_like(h)


def _fro(a):
    return float(np.sum(a * a))


def _code_penalties(h, b, lam2, lam3, lam4):
    m = h.shape[1]
    j = (lam2 / (2.0 * m)) * _fro(h - b)
    j += (lam3 / 2.0) * _fro(h @ h.T / m - np.eye(h.shape[0]))
    j += (lam4 / (2.0 * m)) * float(np.sum(h.sum(axis=1) ** 2))
    return j


def _code_pull(h, b, lam2, lam3, lam4):
    m = h.shape[1]
    g = (lam2 / m) * (h - b)
    g += (2.0 * lam3 / m) * ((h @ h.T / m - np.eye(h.shape[0])) @ h)
    g += (lam4 / m) * h.sum(axis=1)[:, None]
    return g


def _two_pass_backprop(params, hs, delta, top, lam1):
    """Flat gradient W1, c1, ... of blocks 0..top."""
    d_w = [None] * (top + 1)
    d_c = [None] * (top + 1)
    for i in range(top, -1, -1):
        d_w[i] = delta @ hs[i].T + lam1 * params.weights[i]
        d_c[i] = delta.sum(axis=1)
        if i > 0:
            delta = (params.weights[i].T @ delta) * _deriv(params.activations[i - 1], hs[i])
    return [a for pair in zip(d_w, d_c) for a in pair]


def two_pass_unsup_loss(params, x, b, lam1, lam2, lam3, lam4):
    """Reconstruction objective, computed on its own forward pass."""
    m = x.shape[1]
    h = _two_pass_forward(params, x, params.n_layers - 1)[-1]
    resid = x - params.weights[-1] @ b - params.biases[-1][:, None]
    j = _fro(resid) / (2.0 * m)
    j += (lam1 / 2.0) * sum(_fro(w) for w in params.weights)
    return j + _code_penalties(h, b, lam2, lam3, lam4)


def two_pass_unsup_grad(params, x, b, lam1, lam2, lam3, lam4):
    """Flat gradient of two_pass_unsup_loss, computed on a second forward pass."""
    m = x.shape[1]
    n = params.n_layers
    hs = _two_pass_forward(params, x, n - 1)
    h = hs[-1]
    w_dec = params.weights[-1]
    resid = x - w_dec @ b - params.biases[-1][:, None]
    delta = _code_pull(h, b, lam2, lam3, lam4) * _deriv(params.activations[n - 3], h)
    blocks = _two_pass_backprop(params, hs, delta, n - 3, lam1)
    blocks += [(-1.0 / m) * (resid @ b.T) + lam1 * w_dec, (-1.0 / m) * resid.sum(axis=1)]
    return np.concatenate([a.ravel() for a in blocks])


def two_pass_sup_loss(params, x, b, s, lam1, lam2, lam3, lam4):
    """Pairwise-label objective, computed on its own forward pass."""
    m = x.shape[1]
    h = _two_pass_forward(params, x, params.n_layers)[-1]
    code_len = h.shape[0]
    j = _fro(h.T @ h / code_len - s) / (2.0 * m)
    j += (lam1 / 2.0) * sum(_fro(w) for w in params.weights)
    return j + _code_penalties(h, b, lam2, lam3, lam4)


def two_pass_sup_grad(params, x, b, s, lam1, lam2, lam3, lam4):
    """Flat gradient of two_pass_sup_loss, computed on a second forward pass."""
    m = x.shape[1]
    n = params.n_layers
    hs = _two_pass_forward(params, x, n)
    h = hs[-1]
    code_len = h.shape[0]
    fit = h.T @ h / code_len - s
    pull = (1.0 / (m * code_len)) * (h @ (fit + fit.T))
    pull += _code_pull(h, b, lam2, lam3, lam4)
    delta = pull * _deriv(params.activations[n - 2], h)
    return np.concatenate([a.ravel() for a in _two_pass_backprop(params, hs, delta, n - 2, lam1)])


# Oracles for the one-pass evaluation: the popcount table, per-query distance
# kernel and separate mAP / precision@r loops that evaluation._one_pass replaced.

POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint16)


def table_distances_to_all(query_row, db):
    """Hamming distances from one packed query to every database code."""
    return POPCOUNT[np.bitwise_xor(db.packed, query_row[None, :])].sum(axis=1)


def separate_mean_average_precision(db_codes, query_codes, gt, top_k=None):
    aps = []
    for qi in range(query_codes.count):
        order = np.argsort(table_distances_to_all(query_codes.packed[qi], db_codes), kind="stable")
        if top_k is not None:
            order = order[:top_k]
        gt_q = np.asarray(gt[qi])
        if gt_q.size == 0:
            aps.append(0.0)
            continue
        rel = np.zeros(db_codes.count, dtype=bool)
        rel[gt_q] = True
        rel_at_rank = rel[order]
        hits = np.cumsum(rel_at_rank)
        ranks = np.flatnonzero(rel_at_rank) + 1
        aps.append(float(np.sum(hits[rel_at_rank] / ranks)) / gt_q.size)
    mean_ap = float(np.mean(aps)) if aps else 0.0
    return mean_ap, aps


def separate_precision_at_radius(db_codes, query_codes, gt, radius):
    precisions = []
    for qi in range(query_codes.count):
        d = table_distances_to_all(query_codes.packed[qi], db_codes)
        within = d <= radius
        n_retrieved = int(within.sum())
        if n_retrieved == 0:
            precisions.append(0.0)
            continue
        rel = np.zeros(db_codes.count, dtype=bool)
        rel[np.asarray(gt[qi], dtype=np.int64)] = True
        precisions.append(float(np.sum(within & rel)) / n_retrieved)
    mean_p = float(np.mean(precisions)) if precisions else 0.0
    return mean_p, precisions


def separate_evaluate(db_codes, query_codes, gt, radii=(2, 3, 4), top_k=None):
    """mAP, then one full distance pass per radius."""
    mean_ap, per_ap = separate_mean_average_precision(db_codes, query_codes, gt, top_k)
    report = EvalReport(mean_ap, per_query_ap=per_ap, top_k=top_k, radii=sorted(set(int(r) for r in radii)))
    for r in report.radii:
        mean_p, per_p = separate_precision_at_radius(db_codes, query_codes, gt, r)
        report.precision_at[r] = mean_p
        report.per_query_precision[r] = per_p
    return report


# Oracle for the Euclidean ground truth: the per-query exact scan that the
# GEMM candidates and float32 rounding bound of euclidean_knn_gt replaced.

def loop_knn_gt(database, queries, k):
    """k nearest database columns per query column, ties toward the lower index."""
    database = np.asarray(database, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    out = []
    for j in range(queries.shape[1]):
        d = np.sum((database - queries[:, j][:, None]) ** 2, axis=0)
        out.append(np.argsort(d, kind="stable")[:k].astype(np.int64))
    return out


# Oracle for the label ground truth: the per-query scan that label_gt's one shared
# array per distinct label replaced.

def loop_label_gt(db_labels, query_labels):
    """Every database item sharing the query's label, one new array per query."""
    return [np.flatnonzero(np.asarray(db_labels) == q).astype(np.int64) for q in np.asarray(query_labels)]


# Labelled data for the dependency-free supervised-vs-unsupervised check.

def labelled_with_nuisance(seed, per_class_counts):
    """Labelled (64, n) sets of 10 classes whose labels only partly follow Euclidean geometry.

    Dimensions 0-15 hold orthogonal class centres at scale 10; dimensions
    16-63 hold 20 label-independent orthogonal nuisance centres at scale 20,
    so nearest neighbours often cross classes.  Unit Gaussian noise on top.
    Returns one (x, labels) pair per entry of per_class_counts, all drawn
    around the same centres.
    """
    rng = np.random.default_rng(seed)
    signal = np.linalg.qr(rng.standard_normal((16, 16)))[0][:, :10] * 10.0
    nuisance = np.linalg.qr(rng.standard_normal((48, 48)))[0][:, :20] * 20.0
    out = []
    for per_class in per_class_counts:
        labels = np.repeat(np.arange(10), per_class)
        x = np.vstack([signal[:, labels], nuisance[:, rng.integers(0, 20, labels.size)]])
        out.append((x + rng.standard_normal(x.shape), labels))
    return out


def traced_peak(fn):
    """fn's result and the most bytes tracemalloc saw live during the call beyond
    what was live when it began (numpy reports its buffers to tracemalloc)."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


def unblocked_encode(params, x):
    """The encoder as one forward pass over every column, then signs: the
    oracle for trainer.encode, which works in column blocks."""
    h = forward(params, np.asarray(x, dtype=np.float64), upto=code_layer(params.mode, params.n_layers))[-1]
    return BinaryCodes.from_sign_matrix(sgn(h))


def write_xvecs(path, x):
    """A (D, n) float32 or uint8 array as fvecs / bvecs records, one per column; returns str(path)."""
    path.write_bytes(b"".join(struct.pack("<i", x.shape[0]) + x[:, j].tobytes() for j in range(x.shape[1])))
    return str(path)


# The eager line search that lbfgs.minimize replaced, and the two ground-truth
# checks, sorting and position-array, that evaluation.validate_ground_truth replaced.

def eager_minimize(fun, x0, max_iters, events=None):
    """lbfgs.minimize with the gradient taken at every trial point and tested
    together with the value, and the curvature memory kept as three parallel
    lists trimmed by pop(0) rather than one bounded deque.  Same objective
    protocol, constants and two-loop recursion, so results must match bit for
    bit.  If events is a Counter, it counts the pairs "admitted" and "evicted"
    and the memory "reset"s."""
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0, got %d" % max_iters)
    x = np.array(x0, dtype=np.float64)
    fx, gradient = fun(x)
    fx = float(fx)
    g = np.asarray(gradient(), dtype=np.float64)
    if not np.isfinite(fx) or not np.all(np.isfinite(g)):
        raise ValueError("objective returned non-finite value or gradient at the starting point")
    if g.shape != x.shape:
        raise ValueError("gradient shape %s does not match parameter shape %s" % (g.shape, x.shape))

    events = Counter() if events is None else events
    history = [fx]
    best_f, best_x = fx, x.copy()
    s_list, y_list, rho_list = [], [], []
    gamma = 1.0
    status = lbfgs.MAX_ITERS

    for _ in range(max_iters):
        if float(np.linalg.norm(g)) < lbfgs._GRAD_TOL:
            status = lbfgs.GRADIENT_CONVERGED
            break
        d = -lbfgs._two_loop(g, list(zip(s_list, y_list, rho_list)), gamma)
        slope = float(np.dot(g, d))
        if slope >= 0.0:
            events["reset"] += bool(s_list)
            s_list, y_list, rho_list = [], [], []
            d = -g
            slope = -float(np.dot(g, g))
            if slope == 0.0:
                status = lbfgs.GRADIENT_CONVERGED
                break
        t = 1.0
        accepted = False
        for _bt in range(lbfgs._MAX_BACKTRACKS):
            x_new = x + t * d
            f_new, gradient = fun(x_new)
            f_new = float(f_new)
            g_new = np.asarray(gradient(), dtype=np.float64)
            if np.isfinite(f_new) and np.all(np.isfinite(g_new)) \
                    and f_new <= fx + lbfgs._SUFFICIENT_DECREASE * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            status = lbfgs.LINE_SEARCH_FAILED
            break
        s = x_new - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            events["admitted"] += 1
            if len(s_list) > lbfgs._MEMORY:
                events["evicted"] += 1
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
            gamma = sy / float(np.dot(y, y))
        else:
            events["reset"] += bool(s_list)
            s_list, y_list, rho_list = [], [], []
        x, fx, g = x_new, f_new, g_new
        history.append(fx)
        if fx < best_f:
            best_f, best_x = fx, x.copy()

    return lbfgs.LbfgsResult(best_x, history, status)


def unique_validate_ground_truth(gt, db_size, n_queries):
    """validate_ground_truth with a sort (np.unique) per query to find duplicates."""
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


def position_validate_ground_truth(gt, db_size, n_queries):
    """validate_ground_truth one list at a time, finding duplicates with an array of
    positions the size of the database rather than by sorting."""
    if len(gt) != n_queries:
        raise ValueError("ground truth covers %d queries, expected %d" % (len(gt), n_queries))
    # a position of each index in the current list; the positions fit unless an index
    # repeats, and a position that wraps around never reads back as itself
    last = np.empty(db_size, dtype=np.min_scalar_type(db_size))
    checked = {}  # each list once; holding it keeps its id from being reused
    for qi, idx in enumerate(gt):
        if id(idx) in checked:
            continue
        checked[id(idx)] = idx
        idx = np.asarray(idx).ravel()
        if not idx.size:
            continue
        if idx.dtype.kind not in "iu":
            raise ValueError("ground truth for query %d holds %s, not integer indices" % (qi, idx.dtype))
        if idx.min() < 0 or idx.max() >= db_size:
            raise ValueError("ground truth for query %d has indices outside [0, %d)" % (qi, db_size))
        last[idx] = positions = np.arange(idx.size)  # a repeated index keeps one of its positions
        if not np.array_equal(last[idx], positions):
            raise ValueError("ground truth for query %d has duplicate indices" % qi)


def objective_instance(mode, seed=0):
    """The train_unsup benchmark's shape (D=64, m=1000, hidden 48/32, 16 bits), and a
    supervised one at m=500 over 10 classes: an L-BFGS objective, its start vector, the
    network and data it runs on, and its Workspace."""
    rng = np.random.default_rng(seed)
    d, code_len = 64, 16
    m = 1000 if mode == UNSUPERVISED else 500
    x = rng.standard_normal((d, m))
    sizes = [d, 48, 32, code_len] + ([d] if mode == UNSUPERVISED else [])
    params = init_network(x, sizes, mode)
    b = np.where(rng.standard_normal((code_len, m)) >= 0, 1.0, -1.0)
    ws = Workspace(sizes, mode, m)
    config = TrainConfig.defaults(mode, d, code_len, hidden=(48, 32))
    if mode == UNSUPERVISED:
        fun = _make_objective(params, lambda q: unsup.value_and_grad(q, x, b, config, ws))
    else:
        y = np.eye(10)[rng.integers(0, 10, m)]
        fun = _make_objective(params, lambda q: sup.value_and_grad(q, x, b, y, config, ws))
    return fun, _flatten(params), params, x, ws
