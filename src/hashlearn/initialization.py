"""Starting points for the alternating trainers.

Codes start from iterative quantization on the top principal components;
network weights start from eigenvectors of the (layerwise) activation
covariance, biases at zero, and the reconstruction decoder at a rectangular
identity.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from hashlearn.linalg import covariance, frobenius_sq, procrustes_rotation, top_eigvecs
from hashlearn.network import UNSUPERVISED, NetworkParams, activate, code_layer, default_activations, sgn


@dataclass
class ItqResult:
    codes: np.ndarray
    losses: list = field(default_factory=list)      # quantization loss after each iteration
    rotations: list = field(default_factory=list)   # rotation after each iteration


def random_orthogonal(dim, rng):
    """Haar-ish random orthogonal matrix via QR with sign normalization."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.where(np.diag(r) >= 0, 1.0, -1.0)[None, :]


def itq_refine(x, code_len, iters, seed):
    """Iterative quantization with the full trace of losses and rotations.

    x is (D, m) raw data; it is centered here and projected onto the top
    code_len principal directions.  With iters = 0 the codes are the plain
    signs of the projection (rotation fixed at identity); otherwise the
    rotation starts random (seeded) and alternates sign/rotation updates.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a (D, m) array, got ndim=%d" % x.ndim)
    d, m = x.shape
    if not 1 <= code_len <= d:
        raise ValueError("code_len=%d out of range for %d-dimensional data" % (code_len, d))
    if m <= code_len:
        raise ValueError("need more samples than code bits, got m=%d for %d bits" % (m, code_len))
    if iters < 0:
        raise ValueError("iters must be >= 0")
    c = covariance(x)
    evals = np.linalg.eigvalsh(c)
    n_tiny = int(np.sum(evals <= 1e-12 * max(1.0, float(evals.max(initial=0.0)))))
    if d - n_tiny < code_len:
        warnings.warn("data covariance has fewer than %d significant directions; "
                      "some code bits will carry no variance" % code_len)
    e = top_eigvecs(c, code_len)
    p = e.T @ (x - x.mean(axis=1)[:, None])

    if iters == 0:
        rot = np.eye(code_len)
    else:
        rot = random_orthogonal(code_len, np.random.default_rng(seed))
    losses = []
    rotations = []
    for _ in range(iters):
        b = sgn(rot.T @ p)
        rot = procrustes_rotation(p @ b.T)
        losses.append(frobenius_sq(b - rot.T @ p))
        rotations.append(rot)
    return ItqResult(sgn(rot.T @ p), losses, rotations)


def itq_init(x, code_len, iters, seed):
    """Codes from iterative quantization (see itq_refine)."""
    return itq_refine(x, code_len, iters, seed).codes


def init_network(x, layer_sizes, mode):
    """Deterministic data-driven network initialization.

    Every bias starts at zero.  Hidden weight blocks are transposed top
    eigenvectors of the covariance of the previous layer's activations,
    computed with a prefix forward pass through the already-initialized
    layers.  In unsupervised mode the decoder (last block) is a rectangular
    identity.  Widths must be non-increasing across eigenvector-initialized
    blocks, otherwise there are not enough eigenvectors to take.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(layer_sizes)
    n_eig = code_layer(mode, n) - 1
    if x.ndim != 2 or x.shape[0] != layer_sizes[0]:
        raise ValueError("data has shape %s, expected (%d, m)" % (x.shape, layer_sizes[0]))
    if mode == UNSUPERVISED and layer_sizes[-1] != layer_sizes[0]:
        raise ValueError("unsupervised output width %d must match input width %d"
                         % (layer_sizes[-1], layer_sizes[0]))
    activations = default_activations(n, mode)
    for i in range(n_eig):
        if layer_sizes[i + 1] > layer_sizes[i]:
            raise ValueError("layer widths must be non-increasing through eigenvector init, "
                             "got %d -> %d" % (layer_sizes[i], layer_sizes[i + 1]))

    weights = []
    biases = []
    h = x
    for i in range(n_eig):
        e = top_eigvecs(covariance(h), layer_sizes[i + 1])
        weights.append(e.T.copy())
        biases.append(np.zeros(layer_sizes[i + 1]))
        if i + 1 < n_eig:
            h = activate(activations[i], weights[i] @ h)
    if mode == UNSUPERVISED:
        weights.append(np.eye(layer_sizes[-1], layer_sizes[-2]))
        biases.append(np.zeros(layer_sizes[-1]))
    params = NetworkParams(list(layer_sizes), weights, biases, activations, mode)
    params.validate()
    return params
