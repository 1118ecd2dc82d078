"""Feed-forward network that realizes the hash function.

Layer bookkeeping: a network with layer sizes [s1, ..., sn] has n - 1 weight
blocks; weights[i] has shape (s_{i+2}, s_{i+1}) in 1-based layer terms, i.e.
weights[i] @ (activations of layer i+1) feeds layer i+2.  activations[i] names
the nonlinearity applied at layer i+2.  Biases are 1-d and broadcast across
samples.
"""

from dataclasses import dataclass, field

import numpy as np

SIGMOID = "sigmoid"
LINEAR = "linear"
ACTIVATIONS = (SIGMOID, LINEAR)

UNSUPERVISED = "unsupervised"
SUPERVISED = "supervised"
MODES = (UNSUPERVISED, SUPERVISED)


def default_activations(n_layers, mode):
    """Sigmoid hidden layers; the code layer (and the decoder) stay linear."""
    if mode == UNSUPERVISED:
        n_sigmoid = n_layers - 3
    elif mode == SUPERVISED:
        n_sigmoid = n_layers - 2
    else:
        raise ValueError("unknown mode %r" % (mode,))
    if n_sigmoid < 0:
        raise ValueError("network too shallow for mode %r: %d layers" % (mode, n_layers))
    return [SIGMOID] * n_sigmoid + [LINEAR] * (n_layers - 1 - n_sigmoid)


@dataclass
class NetworkParams:
    """Weights, biases and activation tags of one hash network."""

    layer_sizes: list
    weights: list
    biases: list
    activations: list
    mode: str = UNSUPERVISED

    @property
    def n_layers(self):
        return len(self.layer_sizes)

    def validate(self):
        n = self.n_layers
        if n < 2:
            raise ValueError("need at least 2 layers, got %d" % n)
        if self.mode not in MODES:
            raise ValueError("unknown mode %r" % (self.mode,))
        if len(self.weights) != n - 1 or len(self.biases) != n - 1 or len(self.activations) != n - 1:
            raise ValueError("expected %d weight/bias/activation blocks" % (n - 1))
        for i in range(n - 1):
            want = (self.layer_sizes[i + 1], self.layer_sizes[i])
            if self.weights[i].shape != want:
                raise ValueError("weights[%d] has shape %s, expected %s" % (i, self.weights[i].shape, want))
            if self.biases[i].shape != (self.layer_sizes[i + 1],):
                raise ValueError("biases[%d] has shape %s, expected (%d,)" % (i, self.biases[i].shape, self.layer_sizes[i + 1]))
            if self.activations[i] not in ACTIVATIONS:
                raise ValueError("activations[%d] is %r, expected one of %s" % (i, self.activations[i], ACTIVATIONS))

    def copy(self):
        return NetworkParams(
            list(self.layer_sizes),
            [w.copy() for w in self.weights],
            [c.copy() for c in self.biases],
            list(self.activations),
            self.mode,
        )


@dataclass
class ForwardTrace:
    """Per-layer activations and pre-activations of one forward pass.

    H[0] is the input; H[i] is the output of layer i+1 (so len(H) == upto).
    Z[i] is the pre-activation that produced H[i+1].
    """

    H: list = field(default_factory=list)
    Z: list = field(default_factory=list)


def _sigmoid(z):
    # 0.5 * (1 + tanh(z / 2)): no sign split, and tanh saturates instead of overflowing
    out = np.multiply(z, 0.5)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def activate(kind, z):
    if kind == SIGMOID:
        return _sigmoid(z)
    if kind == LINEAR:
        return z
    raise ValueError("unknown activation %r" % (kind,))


def activation_deriv(kind, h):
    """Derivative of the activation expressed through its output h."""
    if kind == SIGMOID:
        return h * (1.0 - h)
    if kind == LINEAR:
        return np.ones_like(h)
    raise ValueError("unknown activation %r" % (kind,))


def through_activation(kind, delta, h):
    """delta times the activation derivative at output h, in place; linear layers skip it."""
    if kind != LINEAR:
        delta *= activation_deriv(kind, h)
    return delta


def split_flat(vec, layer_sizes):
    """Weight and bias blocks as views into a flat vector laid out W1, c1, W2, c2, ..."""
    weights, biases, pos = [], [], 0
    for n_in, n_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(vec[pos:pos + n_out * n_in].reshape(n_out, n_in))
        pos += n_out * n_in
        biases.append(vec[pos:pos + n_out])
        pos += n_out
    return weights, biases


def _forward(params, x, upto):
    """forward() without any checks; for callers that validated once up front."""
    trace = ForwardTrace(H=[x], Z=[])
    h = x
    for i in range(upto - 1):
        z = params.weights[i] @ h
        z += params.biases[i][:, None]
        h = activate(params.activations[i], z)
        trace.Z.append(z)
        trace.H.append(h)
    return trace


def forward(params, x, upto=None):
    """Run the network on (D, m) input up to the given 1-based layer index.

    Returns a ForwardTrace; trace.H[-1] is the requested layer's output.
    upto defaults to the full depth.
    """
    params.validate()
    x = np.asarray(x, dtype=np.float64)
    n = params.n_layers
    if upto is None:
        upto = n
    if not 1 <= upto <= n:
        raise ValueError("upto=%d out of range for %d layers" % (upto, n))
    if x.ndim != 2 or x.shape[0] != params.layer_sizes[0]:
        raise ValueError("input has shape %s, expected (%d, m)" % (x.shape, params.layer_sizes[0]))
    trace = _forward(params, x, upto)
    for i, h in enumerate(trace.H[1:]):
        if not np.all(np.isfinite(h)):
            raise ValueError("non-finite activations at layer %d" % (i + 2))
    return trace


def check_finite(name, a):
    """Reject NaN/Inf, naming the argument and the first bad (row, column)."""
    finite = np.isfinite(a)
    if not finite.all():
        idx = tuple(int(i) for i in np.argwhere(~finite)[0])
        where = "(row %d, column %d)" % idx if len(idx) == 2 else "index %s" % (idx,)
        raise ValueError("%s has non-finite value %r at %s" % (name, float(a[idx]), where))


def sgn(a):
    """Elementwise sign with the tie broken upward: sgn(0) = +1."""
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("sgn got non-finite input")
    return np.where(a >= 0, 1.0, -1.0)
