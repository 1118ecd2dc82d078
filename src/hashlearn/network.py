"""Feed-forward network that realizes the hash function.

Layer bookkeeping: a network with layer sizes [s1, ..., sn] has n - 1 weight
blocks; weights[i] has shape (s_{i+2}, s_{i+1}) in 1-based layer terms, i.e.
weights[i] @ (activations of layer i+1) feeds layer i+2.  activations[i] names
the nonlinearity applied at layer i+2.  Biases are 1-d and broadcast across
samples.
"""

from dataclasses import dataclass

import numpy as np

SIGMOID = "sigmoid"
LINEAR = "linear"
ACTIVATIONS = (SIGMOID, LINEAR)

UNSUPERVISED = "unsupervised"
SUPERVISED = "supervised"
MODES = (UNSUPERVISED, SUPERVISED)


def code_layer(mode, n_layers):
    """1-based index of the code layer: the last layer in supervised mode, the
    layer before the linear reconstruction decoder in unsupervised mode."""
    layer = {UNSUPERVISED: n_layers - 1, SUPERVISED: n_layers}.get(mode)
    if layer is None or layer < 2:
        raise ValueError("no code layer for mode %r in a %d-layer network" % (mode, n_layers))
    return layer


def default_activations(n_layers, mode):
    """Sigmoid hidden layers; the code layer (and the decoder) stay linear."""
    n_sigmoid = code_layer(mode, n_layers) - 2
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


def activate(kind, z, out=None):
    """The activation of z, written to out (which may be z itself) or a new array; linear returns z."""
    if kind == SIGMOID:
        # 0.5 * (1 + tanh(z / 2)): no sign split, and tanh saturates instead of overflowing
        out = np.multiply(z, 0.5, out=out)
        np.tanh(out, out=out)
        out += 1.0
        out *= 0.5
        return out
    if kind == LINEAR:
        return z
    raise ValueError("unknown activation %r" % (kind,))


def through_activation(kind, delta, h, scratch):
    """delta times the activation derivative at output h, in place, with scratch receiving
    the derivative (for the sigmoid, (1 - h) h); linear layers skip it."""
    if kind != LINEAR:
        np.subtract(1.0, h, out=scratch)
        scratch *= h
        delta *= scratch
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


class Workspace:
    """The (width, m) buffers every objective evaluation on m samples reuses.  acts, back
    and deriv follow forward()'s list [1:] to the code layer: outputs, back-propagated
    gradients (back[-1] is the code-layer pull) and derivative scratch (one shared buffer,
    as one derivative is live at a time); tmp and sq are code-layer scratch, resid the
    unsupervised residual, and weight_sq one shared buffer shaped as each weight block
    for the squares of the weight decay.  A view into it is valid until the next
    evaluation."""

    def __init__(self, layer_sizes, mode, m):
        widths = layer_sizes[1:code_layer(mode, len(layer_sizes))]
        self.acts = [np.empty((w, m)) for w in widths]
        self.back = [np.empty((w, m)) for w in widths]
        shared = np.empty(max(widths) * m)
        self.deriv = [shared[:w * m].reshape(w, m) for w in widths]
        self.tmp, self.sq = np.empty((2, widths[-1], m))
        self.resid = np.empty((layer_sizes[-1], m)) if mode == UNSUPERVISED else None
        shapes = list(zip(layer_sizes[1:], layer_sizes))
        squares = np.empty(max(rows * cols for rows, cols in shapes))
        self.weight_sq = [squares[:rows * cols].reshape(rows, cols) for rows, cols in shapes]


def _forward(params, x, upto, out=None):
    """forward() without any checks; for callers that validated once up front.
    Layer outputs go to the arrays in out (a Workspace's acts) if given."""
    hs = [x]
    for i in range(upto - 1):
        z = np.matmul(params.weights[i], hs[-1], out=None if out is None else out[i])
        z += params.biases[i][:, None]
        hs.append(activate(params.activations[i], z, out=z))
    return hs


def forward(params, x, upto=None):
    """Run the network on (D, m) input up to the given 1-based layer index.

    Returns the list of layer outputs: [0] is the input, [i] the output of
    layer i+1, and [-1] the requested layer's.  upto defaults to the full depth.
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
    hs = _forward(params, x, upto)
    for i, h in enumerate(hs[1:]):
        if not np.all(np.isfinite(h)):
            raise ValueError("non-finite activations at layer %d" % (i + 2))
    return hs


def first_nonfinite(a):
    """Index of the first NaN/Inf entry of a, or None.  Any NaN/Inf makes the float64 sum
    non-finite, so a finite sum rules them out with no mask the size of a."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.sum(a, dtype=np.float64)):
            return None
    bad = np.argwhere(~np.isfinite(a))
    return tuple(int(i) for i in bad[0]) if bad.size else None


def _is_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_finite(name, a):
    """Reject NaN/Inf, naming the argument and the first bad (row, column)."""
    idx = first_nonfinite(a)
    if idx is not None:
        where = "(row %d, column %d)" % idx if len(idx) == 2 else "index %s" % (idx,)
        raise ValueError("%s has non-finite value %r at %s" % (name, float(a[idx]), where))


def sgn(a):
    """Elementwise sign with the tie broken upward: sgn(0) = +1."""
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("sgn got non-finite input")
    return np.where(a >= 0, 1.0, -1.0)
