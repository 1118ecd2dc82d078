"""Pairwise-label hashing: similarity matrix, objective, gradients, code update.

The network's last layer doubles as the code layer here; codes follow its
activations directly (B = sgn(H)), and the objective asks the scaled code
inner products H.T @ H / L to reproduce a +1/-1 same-class matrix S.
"""

from dataclasses import dataclass

import numpy as np

from hashlearn.linalg import frobenius_sq
from hashlearn.network import _forward, sgn, split_flat, through_activation
from hashlearn.unsupervised import (GradientSet, UnsupHyper, _backprop, _check_objective_inputs, _code_layer_terms,
                                    _weight_decay)


SupHyper = UnsupHyper  # both objectives take the same penalty weights and sizes


@dataclass(frozen=True)
class PairwiseLabels:
    """Same-class indicator matrix over a selected training subset."""

    matrix: np.ndarray         # (m, m) with +1 same class, -1 different
    sample_indices: np.ndarray  # positions of the subset in the original label array


def pairwise_matrix(labels):
    """+1/-1 same-class matrix of a label vector."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-d array")
    return np.where(labels[:, None] == labels[None, :], 1.0, -1.0)


def build_pairwise(labels, n_per_class, seed):
    """Pick n_per_class samples per class uniformly at random and build S.

    Selection is grouped by class in sorted class order; the RNG is seeded so
    the subset is reproducible.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-d array")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    picked = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < n_per_class:
            raise ValueError("class %r has %d samples, need %d" % (cls, idx.size, n_per_class))
        picked.append(rng.choice(idx, size=n_per_class, replace=False))
    sel = np.concatenate(picked)
    return PairwiseLabels(pairwise_matrix(labels[sel]), sel)


def _check_similarity(s, m):
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (m, m):
        raise ValueError("similarity matrix has shape %s, expected (%d, %d)" % (s.shape, m, m))
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("similarity entries must be +1/-1")
    if not np.array_equal(s, s.T):
        raise ValueError("similarity matrix must be symmetric")
    return s


def check_inputs(params, x, b, s, hyper):
    """Validate everything value_and_grad takes on trust; returns x, b and s as float arrays."""
    x, b = _check_objective_inputs(params, x, b, hyper, -1)
    return x, b, _check_similarity(s, hyper.n_samples)


def value_and_grad(params, x, b, s, hyper):
    """Pairwise objective and its flat gradient (laid out as network.split_flat)
    in one forward pass.  Nothing is validated: check_inputs() once per phase first."""
    m = hyper.n_samples
    n = params.n_layers
    trace = _forward(params, x, n)
    h = trace.H[-1]
    fit = h.T @ h / hyper.code_len - s
    j_code, pull = _code_layer_terms(h, b, hyper)
    j = frobenius_sq(fit) / (2.0 * m)
    j += _weight_decay(params, hyper)
    j += j_code
    # d/dH of the pairwise term, written exactly as the symmetrized product
    pull += (1.0 / (m * hyper.code_len)) * (h @ (fit + fit.T))
    delta = through_activation(params.activations[n - 2], pull, h)
    return j, _backprop(params, trace, delta, n - 2, hyper.lambda1)[0]


def loss(params, x, b, s, hyper):
    """Pairwise objective at fixed codes b and similarity s."""
    j = value_and_grad(params, *check_inputs(params, x, b, s, hyper), hyper)[0]
    if not np.isfinite(j):
        raise ValueError("objective is non-finite")
    return j


def grad(params, x, b, s, hyper):
    """Gradient of loss() for every weight and bias block."""
    g = value_and_grad(params, *check_inputs(params, x, b, s, hyper), hyper)[1]
    return GradientSet(*split_flat(g, params.layer_sizes))


def b_step(h_code):
    """Optimal codes at fixed activations: elementwise sign, ties to +1."""
    return sgn(h_code)
