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
from hashlearn.network import _forward, split_flat, through_activation


@dataclass(frozen=True)
class UnsupHyper:
    """Penalty weights plus the code length and sample count they refer to."""

    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    code_len: int
    n_samples: int

    def validate(self):
        for name in ("lambda1", "lambda2", "lambda3", "lambda4"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError("%s must be finite and >= 0, got %r" % (name, v))
        if self.code_len < 1:
            raise ValueError("code_len must be >= 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


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


def _check_objective_inputs(params, x, b, hyper, code_layer):
    """The checks value_and_grad skips, shared by both modes; returns x and b as float arrays."""
    hyper.validate()
    params.validate()
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.layer_sizes[0], hyper.n_samples):
        raise ValueError("x has shape %s, expected (%d, %d)" % (x.shape, params.layer_sizes[0], hyper.n_samples))
    if params.layer_sizes[code_layer] != hyper.code_len:
        raise ValueError("code layer has width %d, expected %d" % (params.layer_sizes[code_layer], hyper.code_len))
    return x, _check_codes(b, hyper.code_len, hyper.n_samples)


def check_inputs(params, x, b, hyper):
    """Validate everything value_and_grad takes on trust; returns x and b as float arrays."""
    if params.n_layers < 3:
        raise ValueError("unsupervised networks need at least 3 layers")
    return _check_objective_inputs(params, x, b, hyper, -2)


def _code_layer_terms(h, b, hyper):
    """Quantization, decorrelation and balance penalties at the code layer, and their gradient in h."""
    m = hyper.n_samples
    corr = h @ h.T / m - np.eye(h.shape[0])
    rowsums = h.sum(axis=1)
    j = (hyper.lambda2 / (2.0 * m)) * frobenius_sq(h - b)
    j += (hyper.lambda3 / 2.0) * frobenius_sq(corr)
    j += (hyper.lambda4 / (2.0 * m)) * float(np.sum(rowsums ** 2))
    g = (hyper.lambda2 / m) * (h - b)
    g += (2.0 * hyper.lambda3 / m) * (corr @ h)
    g += (hyper.lambda4 / m) * rowsums[:, None]
    return j, g


def _weight_decay(params, hyper):
    return (hyper.lambda1 / 2.0) * sum(frobenius_sq(w) for w in params.weights)


def _backprop(params, trace, delta, top, lambda1):
    """Flat gradient (laid out as network.split_flat) of weight blocks 0..top,
    weight decay included, from delta: the gradient at layer top+2's
    activations, already through the activation derivative.  Returns the
    vector and its weight and bias views; blocks above top are left unset."""
    g = np.empty(sum(w.size + c.size for w, c in zip(params.weights, params.biases)))
    d_w, d_c = split_flat(g, params.layer_sizes)
    for i in range(top, -1, -1):
        np.matmul(delta, trace.H[i].T, out=d_w[i])
        d_w[i] += lambda1 * params.weights[i]
        np.sum(delta, axis=1, out=d_c[i])
        if i > 0:
            delta = through_activation(params.activations[i - 1], params.weights[i].T @ delta, trace.H[i])
    return g, d_w, d_c


def value_and_grad(params, x, b, hyper):
    """Objective and its flat gradient (laid out as network.split_flat) in one
    forward pass.  Nothing is validated: check_inputs() once per phase first."""
    m = hyper.n_samples
    n = params.n_layers
    trace = _forward(params, x, n - 1)
    h = trace.H[-1]
    w_dec = params.weights[-1]
    resid = np.subtract(x, w_dec @ b)
    resid -= params.biases[-1][:, None]
    j_code, pull = _code_layer_terms(h, b, hyper)
    j = frobenius_sq(resid) / (2.0 * m)
    j += _weight_decay(params, hyper)
    j += j_code

    # pull at the code layer (layer n-1), through its activation derivative
    delta = through_activation(params.activations[n - 3], pull, h)
    g, d_w, d_c = _backprop(params, trace, delta, n - 3, hyper.lambda1)
    np.matmul(resid, b.T, out=d_w[-1])
    d_w[-1] *= -1.0 / m
    d_w[-1] += hyper.lambda1 * w_dec
    np.sum(resid, axis=1, out=d_c[-1])
    d_c[-1] *= -1.0 / m
    return j, g


def loss(params, x, b, hyper):
    """Full objective at the given parameters and fixed codes."""
    j = value_and_grad(params, *check_inputs(params, x, b, hyper), hyper)[0]
    if not np.isfinite(j):
        raise ValueError("objective is non-finite")
    return j


def grad(params, x, b, hyper):
    """Gradient of loss() with respect to every weight and bias block."""
    g = value_and_grad(params, *check_inputs(params, x, b, hyper), hyper)[1]
    return GradientSet(*split_flat(g, params.layer_sizes))


def b_step(params, x, h_code, b_init, hyper, max_sweeps=10, objective_trace=None):
    """Row-wise discrete descent on the codes with everything else fixed.

    Minimizes ||X - W B - c 1||_F^2 + lambda2 ||H - B||_F^2 over B in
    {-1, +1}, one code row at a time; each row update is globally optimal
    given the other rows.  Sweeps over rows until a full sweep changes
    nothing, capped at max_sweeps.  If objective_trace is a list, the
    objective after every row update is appended to it.
    """
    hyper.validate()
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    m = hyper.n_samples
    code_len = hyper.code_len
    b = _check_codes(b_init, code_len, m).copy()
    h_code = np.asarray(h_code, dtype=np.float64)
    if h_code.shape != (code_len, m):
        raise ValueError("h_code has shape %s, expected (%d, %d)" % (h_code.shape, code_len, m))
    w = params.weights[-1]
    c = params.biases[-1]
    v = x - c[:, None]
    q = w.T @ v + hyper.lambda2 * h_code
    g = w.T @ w

    def objective(cur):
        return frobenius_sq(x - w @ cur - c[:, None]) + hyper.lambda2 * frobenius_sq(h_code - cur)

    for _sweep in range(max_sweeps):
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
