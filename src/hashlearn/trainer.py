"""Alternating training loops for both hashing modes.

Each run follows the same skeleton: initialize codes with iterative
quantization and the network from covariance eigenvectors, fit the continuous
parameters by L-BFGS with the codes fixed, then alternate a discrete code
update with a warm-started L-BFGS refit for max_iter outer iterations.
"""

import zlib
from dataclasses import dataclass, field

import numpy as np

from hashlearn import supervised, unsupervised
from hashlearn.evaluation import BinaryCodes
from hashlearn.initialization import init_network, itq_init
from hashlearn.lbfgs import LbfgsConfig, minimize
from hashlearn.network import (MODES, SUPERVISED, UNSUPERVISED, NetworkParams, check_finite, forward, sgn,
                               split_flat)

UNSUP_LAMBDAS = (1e-5, 5e-2, 1e-2, 1e-6)
SUP_LAMBDAS = (1e-3, 5.0, 1.0, 1e-4)
UNSUP_MAX_ITER = 10
SUP_MAX_ITER = 5
DEFAULT_PER_CLASS = 2000
DEFAULT_ITQ_ITERS = 50
# hidden widths between input and code layer, keyed by code length
DEFAULT_HIDDEN = {8: (90, 20), 16: (90, 30), 32: (120, 50), 64: (160, 110)}

CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget-exhausted"

_PLATEAU_REL = 1e-9      # final-iteration relative change that counts as converged
_INCREASE_FACTOR = 1.1   # divergence guard: abort on > 10% loss increase


def derive_seed(seed, name):
    """Stable named sub-seed so each random consumer draws independently."""
    mixed = np.random.SeedSequence([int(seed), zlib.crc32(name.encode("utf-8"))])
    return int(mixed.generate_state(1)[0])


def default_layer_sizes(mode, n_dims, code_len, hidden=None):
    """Stock layer widths: two hidden layers, then the code layer, plus a
    reconstruction layer back to the input in unsupervised mode."""
    if hidden is None:
        if code_len not in DEFAULT_HIDDEN:
            raise ValueError("no default hidden sizes for %d bits; pass them explicitly" % code_len)
        hidden = DEFAULT_HIDDEN[code_len]
    sizes = [int(n_dims)] + [int(h) for h in hidden] + [int(code_len)]
    if mode == UNSUPERVISED:
        sizes.append(int(n_dims))
    return sizes


@dataclass
class TrainConfig:
    mode: str
    code_len: int
    layer_sizes: list
    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    max_iter: int
    activations: list = None
    lbfgs_initial: LbfgsConfig = field(default_factory=lambda: LbfgsConfig(max_iters=50))
    lbfgs_subsequent: LbfgsConfig = field(default_factory=lambda: LbfgsConfig(max_iters=20))
    dcc_max_sweeps: int = 10
    n_per_class: int = DEFAULT_PER_CLASS
    seed: int = 42
    center_inputs: bool = False
    itq_iters: int = DEFAULT_ITQ_ITERS

    @classmethod
    def defaults(cls, mode, n_dims, code_len, hidden=None, **overrides):
        """Stock penalties, budgets and layer sizes for the mode."""
        if mode == UNSUPERVISED:
            lambdas, max_iter = UNSUP_LAMBDAS, UNSUP_MAX_ITER
        elif mode == SUPERVISED:
            lambdas, max_iter = SUP_LAMBDAS, SUP_MAX_ITER
        else:
            raise ValueError("unknown mode %r" % (mode,))
        cfg = cls(mode=mode, code_len=code_len,
                  layer_sizes=default_layer_sizes(mode, n_dims, code_len, hidden),
                  lambda1=lambdas[0], lambda2=lambdas[1], lambda3=lambdas[2], lambda4=lambdas[3],
                  max_iter=max_iter)
        for key, value in overrides.items():
            if not hasattr(cfg, key):
                raise ValueError("unknown config field %r" % (key,))
            setattr(cfg, key, value)
        return cfg

    def validate(self):
        if self.mode not in MODES:
            raise ValueError("mode must be one of %s, got %r" % (MODES, self.mode))
        if self.code_len < 1:
            raise ValueError("code_len must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.dcc_max_sweeps < 1:
            raise ValueError("dcc_max_sweeps must be >= 1")
        if self.itq_iters < 0:
            raise ValueError("itq_iters must be >= 0")
        sizes = self.layer_sizes
        if self.mode == UNSUPERVISED:
            if len(sizes) < 3:
                raise ValueError("unsupervised networks need at least 3 layers")
            if sizes[-2] != self.code_len:
                raise ValueError("layer before last has width %d, expected the code length %d"
                                 % (sizes[-2], self.code_len))
            if sizes[-1] != sizes[0]:
                raise ValueError("output width %d must match input width %d" % (sizes[-1], sizes[0]))
        else:
            if len(sizes) < 2:
                raise ValueError("supervised networks need at least 2 layers")
            if sizes[-1] != self.code_len:
                raise ValueError("last layer has width %d, expected the code length %d"
                                 % (sizes[-1], self.code_len))
            if self.n_per_class < 1:
                raise ValueError("n_per_class must be >= 1 in supervised mode")
        self.lbfgs_initial.validate()
        self.lbfgs_subsequent.validate()


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
    def fun(vec):
        with np.errstate(over="ignore", invalid="ignore"):
            j, g = value_and_grad(_rebuild(vec, template))
        if not np.isfinite(j):
            # a trial step overflowed; report +inf so the line search backs off
            return np.inf, np.zeros_like(vec)
        return j, g
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


def _alternate(b0, params, config, objective_of, update_codes):
    """Shared alternation: initial continuous fit, then code/parameter alternation.

    objective_of(params, b) validates the parameters, data and current codes
    once, then binds them into an unchecked value-and-gradient function;
    update_codes(params, b) produces the next code matrix.
    """
    b = b0
    res = minimize(_make_objective(params, objective_of(params, b)), _flatten(params), config.lbfgs_initial)
    params = _rebuild(res.x, params)
    loss_trace = [res.history[-1]]
    wc_histories = [list(res.history)]
    b_step_losses = []
    best = (loss_trace[0], params, b)
    aborted = False
    for _t in range(1, config.max_iter + 1):
        b = update_codes(params, b)
        x0 = _flatten(params)
        fun = _make_objective(params, objective_of(params, b))
        b_step_losses.append(fun(x0)[0])
        res = minimize(fun, x0, config.lbfgs_subsequent)
        params = _rebuild(res.x, params)
        j = res.history[-1]
        loss_trace.append(j)
        wc_histories.append(list(res.history))
        if j < best[0]:
            best = (j, params, b)
        if _should_abort(loss_trace[-2], j):
            aborted = True
            _, params, b = best
            break
    status = BUDGET_EXHAUSTED if aborted else _final_status(loss_trace)
    return params, b, loss_trace, status, b_step_losses, wc_histories


def train_unsupervised(x, config):
    """Reconstruction-mode training; returns the network and training codes."""
    config.validate()
    if config.mode != UNSUPERVISED:
        raise ValueError("config.mode is %r, expected %r" % (config.mode, UNSUPERVISED))
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != config.layer_sizes[0]:
        raise ValueError("data has shape %s, expected (%d, m)" % (x.shape, config.layer_sizes[0]))
    check_finite("x", x)
    mu = None
    xt = x
    if config.center_inputs:
        mu = x.mean(axis=1)
        xt = x - mu[:, None]
    m = xt.shape[1]
    hyper = unsupervised.UnsupHyper(config.lambda1, config.lambda2, config.lambda3,
                                    config.lambda4, config.code_len, m)
    b0 = itq_init(xt, config.code_len, config.itq_iters, derive_seed(config.seed, "itq"))
    params = init_network(xt, config.layer_sizes, UNSUPERVISED, config.activations)
    n = params.n_layers

    def objective_of(p, b):
        unsupervised.check_inputs(p, xt, b, hyper)
        return lambda q: unsupervised.value_and_grad(q, xt, b, hyper)

    def update_codes(p, b):
        h_code = forward(p, xt, upto=n - 1).H[-1]
        return unsupervised.b_step(p, xt, h_code, b, hyper, config.dcc_max_sweeps)

    params, b, trace, status, b_losses, wc_hist = _alternate(
        b0, params, config, objective_of, update_codes)
    if mu is not None:
        params = _fold_mean_into_bias(params, mu)
    return TrainResult(params, BinaryCodes.from_sign_matrix(b), trace, status, b_losses, wc_hist)


def train_supervised(x, labels, config):
    """Pairwise-label training on a per-class subset; returns subset codes too."""
    config.validate()
    if config.mode != SUPERVISED:
        raise ValueError("config.mode is %r, expected %r" % (config.mode, SUPERVISED))
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] != config.layer_sizes[0]:
        raise ValueError("data has shape %s, expected (%d, m)" % (x.shape, config.layer_sizes[0]))
    if labels.shape != (x.shape[1],):
        raise ValueError("labels have shape %s, expected (%d,)" % (labels.shape, x.shape[1]))
    check_finite("x", x)
    pair = supervised.build_pairwise(labels, config.n_per_class,
                                     derive_seed(config.seed, "subset-selection"))
    xs = x[:, pair.sample_indices]
    mu = None
    if config.center_inputs:
        mu = xs.mean(axis=1)
        xs = xs - mu[:, None]
    m = xs.shape[1]
    hyper = supervised.SupHyper(config.lambda1, config.lambda2, config.lambda3,
                                config.lambda4, config.code_len, m)
    s = pair.matrix
    b0 = itq_init(xs, config.code_len, config.itq_iters, derive_seed(config.seed, "itq"))
    params = init_network(xs, config.layer_sizes, SUPERVISED, config.activations)
    n = params.n_layers

    def objective_of(p, b):
        supervised.check_inputs(p, xs, b, s, hyper)
        return lambda q: supervised.value_and_grad(q, xs, b, s, hyper)

    def update_codes(p, b):
        h_code = forward(p, xs, upto=n).H[-1]
        return supervised.b_step(h_code)

    params, b, trace, status, b_losses, wc_hist = _alternate(
        b0, params, config, objective_of, update_codes)
    if mu is not None:
        params = _fold_mean_into_bias(params, mu)
    return TrainResult(params, BinaryCodes.from_sign_matrix(b), trace, status, b_losses, wc_hist,
                       subset_indices=pair.sample_indices)


def encode(params, x_new, mode=None):
    """Binary codes for new samples: forward to the code layer, take signs."""
    if mode is None:
        mode = params.mode
    if mode not in MODES:
        raise ValueError("unknown mode %r" % (mode,))
    x_new = np.asarray(x_new, dtype=np.float64)
    check_finite("x_new", x_new)
    n = params.n_layers
    upto = n - 1 if mode == UNSUPERVISED else n
    trace = forward(params, x_new, upto=upto)
    return BinaryCodes.from_sign_matrix(sgn(trace.H[-1]))
