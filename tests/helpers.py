"""Independent oracle implementations used to verify the package.

Everything here is deliberately naive (scalar loops, exhaustive enumeration,
finite differences) and shares no code with the library internals beyond the
public parameter containers.
"""

import math

import numpy as np

from hashlearn.evaluation import EvalReport
from hashlearn.network import LINEAR, SIGMOID, NetworkParams


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
