"""The alternating training loop shared by both hashing modes.

Each run follows the same skeleton: initialize codes with iterative
quantization and the network from covariance eigenvectors, fit the continuous
parameters by L-BFGS with the codes fixed, then alternate a discrete code
update with a warm-started L-BFGS refit for max_iter outer iterations.
"""

import zlib
from dataclasses import dataclass, field, fields
from itertools import accumulate

import numpy as np

from hashlearn import supervised, unsupervised
from hashlearn.evaluation import BinaryCodes, _bytes_per_code
from hashlearn.initialization import init_network, itq_init
from hashlearn.lbfgs import minimize
from hashlearn.network import (SUPERVISED, UNSUPERVISED, NetworkParams, Workspace, _is_int, check_finite, code_layer,
                               forward, split_flat)

UNSUP_LAMBDAS = (1e-5, 5e-2, 1e-2, 1e-6)
SUP_LAMBDAS = (1e-3, 5.0, 1.0, 1e-4)
UNSUP_MAX_ITER = 10
SUP_MAX_ITER = 5
# hidden widths between input and code layer, keyed by code length
DEFAULT_HIDDEN = {8: (90, 20), 16: (90, 30), 32: (120, 50), 64: (160, 110)}

CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget-exhausted"

_PLATEAU_REL = 1e-9      # final-iteration relative change that counts as converged
_INCREASE_FACTOR = 1.1   # divergence guard: abort on > 10% loss increase
_ENCODE_BLOCK = 1024     # columns per forward pass in encode, so its memory does not grow with n


def derive_seed(seed, name):
    """Stable named sub-seed so each random consumer draws independently."""
    mixed = np.random.SeedSequence([int(seed), zlib.crc32(name.encode("utf-8"))])
    return int(mixed.generate_state(1)[0])


def default_layer_sizes(mode, n_dims, code_len, hidden=None):
    """Stock layer widths: two hidden layers, then the code layer, plus a
    reconstruction layer back to the input in unsupervised mode.  Stock hidden widths
    are capped at the width before them, as eigenvector init needs; explicit ones are not."""
    if hidden is None:
        if code_len not in DEFAULT_HIDDEN:
            raise ValueError("no default hidden sizes for %d bits; pass them explicitly" % code_len)
        hidden = list(accumulate(DEFAULT_HIDDEN[code_len], min, initial=n_dims))[1:]
    sizes = [int(n_dims)] + [int(h) for h in hidden] + [int(code_len)]
    if mode == UNSUPERVISED:
        sizes.append(int(n_dims))
    return sizes


@dataclass
class TrainConfig:
    """Every training setting; validate() is the one place they are checked."""

    mode: str
    layer_sizes: list
    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    max_iter: int
    lbfgs_initial: int = 50      # L-BFGS iterations of the first fit at the ITQ codes
    lbfgs_subsequent: int = 20   # L-BFGS iterations of each warm-started refit
    n_per_class: int = 2000
    seed: int = 42
    center_inputs: bool = False
    itq_iters: int = 50

    @property
    def code_len(self):
        """Width of the code layer."""
        return self.layer_sizes[code_layer(self.mode, len(self.layer_sizes)) - 1]

    @classmethod
    def defaults(cls, mode, n_dims, code_len, hidden=None, **overrides):
        """Stock penalties, budgets and layer sizes for the mode."""
        if mode == UNSUPERVISED:
            lambdas, max_iter = UNSUP_LAMBDAS, UNSUP_MAX_ITER
        elif mode == SUPERVISED:
            lambdas, max_iter = SUP_LAMBDAS, SUP_MAX_ITER
        else:
            raise ValueError("unknown mode %r" % (mode,))
        known = {f.name for f in fields(cls)}
        for key in overrides:
            if key not in known:
                raise ValueError("unknown config field %r" % (key,))
        stock = dict(mode=mode, layer_sizes=default_layer_sizes(mode, n_dims, code_len, hidden),
                     lambda1=lambdas[0], lambda2=lambdas[1], lambda3=lambdas[2], lambda4=lambdas[3],
                     max_iter=max_iter)
        return cls(**{**stock, **overrides})

    def validate(self):
        sizes = self.layer_sizes
        if not all(_is_int(w) and w >= 1 for w in sizes):
            raise ValueError("layer_sizes must all be integers >= 1, got %s" % (list(sizes),))
        for name in ("max_iter", "lbfgs_initial", "lbfgs_subsequent", "n_per_class", "seed", "itq_iters"):
            if not _is_int(getattr(self, name)):
                raise ValueError("%s must be an integer, got %r" % (name, getattr(self, name)))
        if not isinstance(self.center_inputs, (bool, np.bool_)):
            raise ValueError("center_inputs must be True or False, got %r" % (self.center_inputs,))
        code_layer(self.mode, len(sizes))  # rejects an unknown mode or too shallow a network
        for name in ("lambda1", "lambda2", "lambda3", "lambda4"):
            v = getattr(self, name)
            if not (_is_int(v) or isinstance(v, (float, np.floating))) or not np.isfinite(v) or v < 0:
                raise ValueError("%s must be a finite number >= 0, got %r" % (name, v))
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.lbfgs_initial < 0 or self.lbfgs_subsequent < 0:
            raise ValueError("lbfgs_initial and lbfgs_subsequent must be >= 0")
        if self.itq_iters < 0:
            raise ValueError("itq_iters must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.mode == UNSUPERVISED and sizes[-1] != sizes[0]:
            raise ValueError("output width %d must match input width %d" % (sizes[-1], sizes[0]))
        if self.mode == SUPERVISED and self.n_per_class < 1:
            raise ValueError("n_per_class must be >= 1 in supervised mode")


@dataclass
class TrainResult:
    params: NetworkParams
    codes: BinaryCodes
    loss_trace: list            # objective after init and after each outer iteration
    status: str
    b_step_losses: list = field(default_factory=list)   # objective right after each code update
    wc_histories: list = field(default_factory=list)    # per-phase L-BFGS histories
    subset_indices: np.ndarray | None = None            # supervised: training subset positions


def _flatten(params):
    """The flat vector W1, c1, W2, c2, ... (a copy); the inverse of split_flat."""
    return np.concatenate([a.ravel() for pair in zip(params.weights, params.biases) for a in pair])


def _rebuild(vec, template):
    """Parameters whose blocks are views into the flat vector (no copy)."""
    weights, biases = split_flat(vec, template.layer_sizes)
    return NetworkParams(template.layer_sizes, weights, biases, template.activations, template.mode)


def _make_objective(template, value_and_grad):
    """minimize()'s objective; overflow is ignored, and a trial step that overflows reads +inf."""
    def fun(vec):
        with np.errstate(over="ignore", invalid="ignore"):
            j, gradient = value_and_grad(_rebuild(vec, template))

        def quiet_gradient():
            with np.errstate(over="ignore", invalid="ignore"):
                return gradient()
        return (j if np.isfinite(j) else np.inf), quiet_gradient
    return fun


def _should_abort(prev, cur):
    return not np.isfinite(cur) or cur > _INCREASE_FACTOR * prev + 1e-15


def _final_status(trace):
    if len(trace) >= 2:
        prev, last = trace[-2], trace[-1]
        if abs(last - prev) <= _PLATEAU_REL * max(1.0, abs(prev)):
            return CONVERGED
    return BUDGET_EXHAUSTED


def _fold_mean_into_bias(params, mu):
    # W1 (X - mu) + c1 == W1 X + (c1 - W1 mu): the saved model then takes raw inputs
    out = params.copy()
    out.biases[0] = out.biases[0] - out.weights[0] @ mu
    return out


def train_unsupervised(x, config):
    """Reconstruction-mode training; returns the network and training codes."""
    return _train(x, None, config, UNSUPERVISED)


def train_supervised(x, labels, config):
    """Pairwise-label training on a per-class subset; returns subset codes too."""
    return _train(x, labels, config, SUPERVISED)


def _train(x, labels, config, mode):
    """Initial continuous fit at the ITQ codes, then max_iter rounds of a code
    update followed by a warm-started refit.  The config and data are
    validated here, at the entry point; the objective runs unchecked.
    """
    config.validate()
    if config.mode != mode:
        raise ValueError("config.mode is %r, expected %r" % (config.mode, mode))
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != config.layer_sizes[0]:
        raise ValueError("data has shape %s, expected (%d, m)" % (x.shape, config.layer_sizes[0]))
    check_finite("x", x)
    subset = None
    if mode == SUPERVISED:
        labels = np.asarray(labels)
        if labels.shape != (x.shape[1],):
            raise ValueError("labels have shape %s, expected (%d,)" % (labels.shape, x.shape[1]))
        pair = supervised.build_pairwise(labels, config.n_per_class,
                                         derive_seed(config.seed, "subset-selection"))
        subset = pair.sample_indices
        x = x[:, subset]
    x = np.asarray(x, dtype=np.float64)  # the one cast, after the supervised subset is taken
    mu = None
    if config.center_inputs:
        mu = x.mean(axis=1)
        x = x - mu[:, None]
    b = itq_init(x, config.code_len, config.itq_iters, derive_seed(config.seed, "itq"))
    params = init_network(x, config.layer_sizes, mode)
    layer = code_layer(mode, params.n_layers)
    ws = Workspace(config.layer_sizes, mode, x.shape[1])
    loss_trace, wc_histories = [], []
    for t in range(config.max_iter + 1):
        if t:
            h_code = forward(params, x, upto=layer)[-1]
            if mode == UNSUPERVISED:
                b = unsupervised.b_step(params, x, h_code, b, config)
            else:
                b = supervised.b_step(h_code)
        if mode == UNSUPERVISED:
            fun = _make_objective(params, lambda q: unsupervised.value_and_grad(q, x, b, config, ws))
        else:
            fun = _make_objective(params, lambda q: supervised.value_and_grad(q, x, b, pair.indicator, config, ws))
        res = minimize(fun, _flatten(params), config.lbfgs_subsequent if t else config.lbfgs_initial)
        params = _rebuild(res.x, params)
        loss_trace.append(res.history[-1])
        wc_histories.append(res.history)
        if not t or loss_trace[-1] < best[0]:
            best = (loss_trace[-1], params, b)
        if t and _should_abort(loss_trace[-2], loss_trace[-1]):
            _, params, b = best
            status = BUDGET_EXHAUSTED
            break
    else:
        status = _final_status(loss_trace)
    if mu is not None:
        params = _fold_mean_into_bias(params, mu)
    # each refit's history starts with the objective right after the code update
    b_step_losses = [hist[0] for hist in wc_histories[1:]]
    return TrainResult(params, BinaryCodes.from_sign_matrix(b), loss_trace, status, b_step_losses, wc_histories,
                       subset_indices=subset)


def encode(params, x_new):
    """Binary codes for new samples: forward to the code layer, take signs (ties to +1).
    Runs on blocks of _ENCODE_BLOCK columns, packing each straight into the output."""
    x_new = np.asarray(x_new)  # forward() casts each block to float64
    check_finite("x_new", x_new)
    layer = code_layer(params.mode, params.n_layers)
    if x_new.ndim != 2:
        raise ValueError("x_new has shape %s, expected (%d, m)" % (x_new.shape, params.layer_sizes[0]))
    code_len, n = params.layer_sizes[layer - 1], x_new.shape[1]
    packed = np.empty((n, _bytes_per_code(code_len)), dtype=np.uint8)
    for start in range(0, max(n, 1), _ENCODE_BLOCK):  # an empty input still passes forward()'s checks
        h = forward(params, x_new[:, start:start + _ENCODE_BLOCK], upto=layer)[-1]
        packed[start:start + _ENCODE_BLOCK] = np.packbits(h.T >= 0, axis=1, bitorder="little")
    return BinaryCodes(code_len, n, packed)
