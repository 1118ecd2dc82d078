"""Pairwise-label hashing: class structure, objective, gradients, code update.

The network's last layer doubles as the code layer here; codes follow its
activations directly (B = sgn(H)), and the objective asks the scaled code
inner products H.T @ H / L to reproduce a +1/-1 same-class matrix S.
"""

from dataclasses import dataclass

import numpy as np

from hashlearn.linalg import frobenius_sq
from hashlearn.network import SUPERVISED, Workspace, _forward, sgn, split_flat, through_activation
from hashlearn.unsupervised import GradientSet, _backprop, _check_objective_inputs, _code_layer_terms, _weight_decay


@dataclass(frozen=True)
class PairwiseLabels:
    """Class structure of a selected training subset: S = 2 Y Y^T - 1 1^T."""

    indicator: np.ndarray       # (m, C) one-hot class of each subset sample
    sample_indices: np.ndarray  # positions of the subset in the original label array


def _one_hot(labels):
    classes, inverse = np.unique(labels, return_inverse=True)
    return np.eye(classes.size)[inverse]


def build_pairwise(labels, n_per_class, seed):
    """Pick n_per_class samples per class uniformly at random; their class indicator.

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
    return PairwiseLabels(_one_hot(labels[sel]), sel)


def _indicator_of(labels, m):
    """The (m, C) one-hot class indicator of m class labels."""
    labels = np.asarray(labels)
    if labels.shape != (m,):
        raise ValueError("labels have shape %s, expected (%d,)" % (labels.shape, m))
    return _one_hot(labels)


def value_and_grad(params, x, b, y, config, ws=None):
    """Pairwise objective from the (m, C) class indicator y and its gradient callable, as
    unsupervised.value_and_grad returns them.  Nothing is validated: loss() and grad() are the
    checked entry points."""
    m = x.shape[1]
    n = params.n_layers
    if ws is None:
        ws = Workspace(params.layer_sizes, SUPERVISED, m)
    hs = _forward(params, x, n, ws.acts)
    h = hs[-1]
    code_len = h.shape[0]
    # ||H^T H / L - S||^2 and its gradient through S = 2 Y Y^T - 1 1^T: no (m, m) array
    gram = h @ h.T
    hht = gram / code_len
    hy = h @ y
    h1 = h.sum(axis=1)
    fit_sq = frobenius_sq(hht) - (2.0 / code_len) * (2.0 * frobenius_sq(hy) - h1 @ h1) + m * m
    j_code, pull = _code_layer_terms(h, b, gram, h1, config, ws)
    j = fit_sq / (2.0 * m)
    j += _weight_decay(params, config, ws)
    j += j_code

    def gradient():
        g = pull()
        # (2 / (m L)) (hht h - 2 (hy y^T) + h1 1^T), in that order, in the code-layer scratch
        fit = np.matmul(hht, h, out=ws.tmp)
        fit -= np.multiply(np.matmul(hy, y.T, out=ws.sq), 2.0, out=ws.sq)
        fit += h1[:, None]
        fit *= 2.0 / (m * code_len)
        g += fit
        delta = through_activation(params.activations[n - 2], g, h, ws.deriv[-1])
        return _backprop(params, hs, delta, n - 2, config.lambda1, ws)[0]
    return j, gradient


def loss(params, x, b, labels, config):
    """Pairwise objective at fixed codes b and the class labels of the m samples."""
    x, b = _check_objective_inputs(params, x, b, config)
    j = value_and_grad(params, x, b, _indicator_of(labels, x.shape[1]), config)[0]
    if not np.isfinite(j):
        raise ValueError("objective is non-finite")
    return j


def grad(params, x, b, labels, config):
    """Gradient of loss() for every weight and bias block."""
    x, b = _check_objective_inputs(params, x, b, config)
    g = value_and_grad(params, x, b, _indicator_of(labels, x.shape[1]), config)[1]()
    return GradientSet(*split_flat(g, params.layer_sizes))


def b_step(h_code):
    """Optimal codes at fixed activations: elementwise sign, ties to +1."""
    return sgn(h_code)
