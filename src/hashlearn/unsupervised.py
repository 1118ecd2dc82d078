"""Reconstruction-driven hashing: objective, gradients, and the discrete code solver.

The continuous variables are the network weights and biases; the discrete
variable is the code matrix B in {-1, +1}^(L, m).  The objective couples a
linear decoder that reconstructs the input from B with penalties that pull
the code-layer activations H toward B, toward decorrelated bits, and toward
balanced bits.
"""

from dataclasses import dataclass

import numpy as np

from hashlearn.linalg import frobenius_sq
from hashlearn.network import UNSUPERVISED, Workspace, _forward, split_flat, through_activation

_MAX_SWEEPS = 10  # row sweeps of b_step before it stops even if a row still changes


@dataclass
class GradientSet:
    """Gradients aligned with NetworkParams.weights / .biases."""

    d_weights: list
    d_biases: list


def _check_codes(b, code_len, n_samples):
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (code_len, n_samples):
        raise ValueError("codes have shape %s, expected (%d, %d)" % (b.shape, code_len, n_samples))
    if not np.all(np.abs(b) == 1.0):
        raise ValueError("codes must be +1/-1 valued")
    return b


def _check_objective_inputs(params, x, b, config):
    """The checks value_and_grad skips, shared by both modes and b_step: the TrainConfig against
    the network, x against the input layer and b against the code layer and x; returns x and b
    as float arrays."""
    config.validate()
    params.validate()
    if config.mode != params.mode or list(config.layer_sizes) != list(params.layer_sizes):
        raise ValueError("config has mode %r and layer_sizes %s, the network %r and %s"
                         % (config.mode, list(config.layer_sizes), params.mode, list(params.layer_sizes)))
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != params.layer_sizes[0] or x.shape[1] < 1:
        raise ValueError("x has shape %s, expected (%d, m) with m >= 1" % (x.shape, params.layer_sizes[0]))
    return x, _check_codes(b, config.code_len, x.shape[1])


def _code_layer_terms(h, b, gram, rowsums, config, ws):
    """Quantization, decorrelation and balance penalties at the code layer, from the code-layer
    Gram matrix h h^T and row sums h 1, and a callable that writes their gradient in h to
    ws.back[-1] and returns it."""
    m = h.shape[1]
    corr = gram / m - np.eye(h.shape[0])
    np.subtract(h, b, out=ws.back[-1])
    j = (config.lambda2 / (2.0 * m)) * frobenius_sq(ws.back[-1], out=ws.sq)
    j += (config.lambda3 / 2.0) * frobenius_sq(corr)
    j += (config.lambda4 / (2.0 * m)) * float(np.sum(rowsums ** 2))

    def pull():
        g = ws.back[-1]  # h - b
        g *= config.lambda2 / m
        g += np.multiply(np.matmul(corr, h, out=ws.tmp), 2.0 * config.lambda3 / m, out=ws.tmp)
        g += (config.lambda4 / m) * rowsums[:, None]
        return g
    return j, pull


def _weight_decay(params, config, ws):
    """(lambda1 / 2) times the squared norms of the weight blocks, squared into ws.weight_sq."""
    return (config.lambda1 / 2.0) * sum(frobenius_sq(w, out=sq) for w, sq in zip(params.weights, ws.weight_sq))


def _backprop(params, hs, delta, top, lambda1, ws):
    """Flat gradient (laid out as network.split_flat) of weight blocks 0..top,
    weight decay included, from the layer outputs hs (as forward() lists them)
    and delta: the gradient at layer top+2's activations, already through the
    activation derivative, with hidden-layer deltas in the Workspace ws.  Returns the new vector and its weight and bias
    views; blocks above top are left unset."""
    g = np.empty(sum(w.size + c.size for w, c in zip(params.weights, params.biases)))
    d_w, d_c = split_flat(g, params.layer_sizes)
    for i in range(top, -1, -1):
        np.matmul(delta, hs[i].T, out=d_w[i])
        d_w[i] += lambda1 * params.weights[i]
        np.sum(delta, axis=1, out=d_c[i])
        if i > 0:
            delta = np.matmul(params.weights[i].T, delta, out=ws.back[i - 1])
            through_activation(params.activations[i - 1], delta, hs[i], ws.deriv[i - 1])
    return g, d_w, d_c


def value_and_grad(params, x, b, config, ws=None):
    """Objective, with the penalty weights of the TrainConfig config, from one forward pass in the
    Workspace ws (a new one if None), and a callable that finishes the backward pass in ws into a new
    flat gradient (laid out as network.split_flat): call it at most once, before the next evaluation.
    Nothing is validated: loss() and grad() are the checked entry points."""
    m = x.shape[1]
    n = params.n_layers
    if ws is None:
        ws = Workspace(params.layer_sizes, UNSUPERVISED, m)
    hs = _forward(params, x, n - 1, ws.acts)
    h = hs[-1]
    w_dec = params.weights[-1]
    resid = np.subtract(x, np.matmul(w_dec, b, out=ws.resid), out=ws.resid)
    resid -= params.biases[-1][:, None]
    j_code, pull = _code_layer_terms(h, b, h @ h.T, h.sum(axis=1), config, ws)
    resid_b, resid_sum = resid @ b.T, resid.sum(axis=1)  # the decoder's gradient, before resid is squared
    j = frobenius_sq(resid, out=resid) / (2.0 * m)  # squares resid in place: its last use
    j += _weight_decay(params, config, ws)
    j += j_code

    def gradient():
        # pull at the code layer (layer n-1), through its activation derivative
        delta = through_activation(params.activations[n - 3], pull(), h, ws.deriv[-1])
        g, d_w, d_c = _backprop(params, hs, delta, n - 3, config.lambda1, ws)
        np.multiply(resid_b, -1.0 / m, out=d_w[-1])
        d_w[-1] += config.lambda1 * w_dec
        np.multiply(resid_sum, -1.0 / m, out=d_c[-1])
        return g
    return j, gradient


def loss(params, x, b, config):
    """Full objective at the given parameters and fixed codes."""
    j = value_and_grad(params, *_check_objective_inputs(params, x, b, config), config)[0]
    if not np.isfinite(j):
        raise ValueError("objective is non-finite")
    return j


def grad(params, x, b, config):
    """Gradient of loss() with respect to every weight and bias block."""
    g = value_and_grad(params, *_check_objective_inputs(params, x, b, config), config)[1]()
    return GradientSet(*split_flat(g, params.layer_sizes))


def b_step(params, x, h_code, b_init, config, objective_trace=None):
    """Row-wise discrete descent on the codes with everything else fixed.

    Minimizes ||X - W B - c 1||_F^2 + lambda2 ||H - B||_F^2 over B in
    {-1, +1}, one code row at a time; each row update is globally optimal
    given the other rows.  Sweeps over rows until a full sweep changes
    nothing, capped at _MAX_SWEEPS.  lambda2 comes from the TrainConfig
    config, which is checked against the network as in loss().  If
    objective_trace is a list, the objective after every row update is
    appended to it.
    """
    x, b = _check_objective_inputs(params, x, b_init, config)
    b = b.copy()
    code_len = b.shape[0]
    h_code = np.asarray(h_code, dtype=np.float64)
    if h_code.shape != b.shape:
        raise ValueError("h_code has shape %s, expected %s" % (h_code.shape, b.shape))
    w = params.weights[-1]
    c = params.biases[-1]
    v = x - c[:, None]
    q = w.T @ v + config.lambda2 * h_code
    g = w.T @ w

    def objective(cur):
        return frobenius_sq(x - w @ cur - c[:, None]) + config.lambda2 * frobenius_sq(h_code - cur)

    for _sweep in range(_MAX_SWEEPS):
        changed = False
        for k in range(code_len):
            arg = q[k] - (g[k] @ b - g[k, k] * b[k])
            row = np.where(arg >= 0, 1.0, -1.0)
            if not np.array_equal(row, b[k]):
                changed = True
                b[k] = row
            if objective_trace is not None:
                objective_trace.append(objective(b))
        if not changed:
            break
    return b
