import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hashlearn.unsupervised as unsup
from hashlearn.evaluation import BinaryCodes
from hashlearn.initialization import init_network
from hashlearn.lbfgs import minimize
from hashlearn.network import LINEAR, SIGMOID, SUPERVISED, UNSUPERVISED, code_layer, forward, sgn, split_flat
from hashlearn.toydata import gaussian_clusters
from hashlearn.trainer import (SUP_LAMBDAS, UNSUP_LAMBDAS, TrainConfig, _final_status, _flatten,
                               _make_objective, _rebuild, _should_abort, default_layer_sizes, derive_seed, encode,
                               train_supervised, train_unsupervised)

from helpers import random_params, traced_peak

REL_TOL = 1e-7   # outer-loop monotonicity tolerance, relative


def small_unsup_config(n_dims, code_len, **overrides):
    return TrainConfig.defaults(UNSUPERVISED, n_dims, code_len, hidden=(n_dims - 1, code_len),
                                max_iter=3, itq_iters=15, lbfgs_initial=25, lbfgs_subsequent=10, **overrides)


def small_sup_config(n_dims, code_len, n_per_class, **overrides):
    return TrainConfig.defaults(SUPERVISED, n_dims, code_len, hidden=(n_dims - 1, code_len),
                                max_iter=3, itq_iters=15, n_per_class=n_per_class,
                                lbfgs_initial=25, lbfgs_subsequent=10, **overrides)


def assert_monotone(trace):
    for prev, cur in zip(trace, trace[1:]):
        assert cur <= prev + REL_TOL * max(1.0, abs(prev))


def test_default_layer_sizes_stock_shapes():
    assert default_layer_sizes(UNSUPERVISED, 784, 16) == [784, 90, 30, 16, 784]
    assert default_layer_sizes(SUPERVISED, 784, 16) == [784, 90, 30, 16]
    assert default_layer_sizes(UNSUPERVISED, 320, 8) == [320, 90, 20, 8, 320]
    assert default_layer_sizes(SUPERVISED, 320, 32) == [320, 120, 50, 32]
    # stock widths are capped at the width before them on narrow data
    assert default_layer_sizes(SUPERVISED, 64, 64) == [64, 64, 64, 64]
    assert default_layer_sizes(UNSUPERVISED, 100, 32) == [100, 100, 50, 32, 100]
    assert default_layer_sizes(UNSUPERVISED, 16, 8) == [16, 16, 16, 8, 16]
    with pytest.raises(ValueError):
        default_layer_sizes(UNSUPERVISED, 64, 12)
    assert default_layer_sizes(UNSUPERVISED, 20, 12, hidden=(15,)) == [20, 15, 12, 20]
    assert default_layer_sizes(SUPERVISED, 64, 16, hidden=(90, 30)) == [64, 90, 30, 16]


@pytest.mark.parametrize("mode", [UNSUPERVISED, SUPERVISED])
def test_stock_widths_initialize_on_narrow_data_and_explicit_ones_fail_loudly(mode):
    x = np.random.default_rng(0).standard_normal((64, 200))
    params = init_network(x, TrainConfig.defaults(mode, 64, 16).layer_sizes, mode)
    assert params.layer_sizes[:4] == [64, 64, 30, 16]
    with pytest.raises(ValueError, match="64 -> 90"):
        init_network(x, TrainConfig.defaults(mode, 64, 16, hidden=(90, 30)).layer_sizes, mode)


def test_config_defaults_per_mode():
    cfg = TrainConfig.defaults(UNSUPERVISED, 784, 16)
    assert (cfg.lambda1, cfg.lambda2, cfg.lambda3, cfg.lambda4) == UNSUP_LAMBDAS
    assert cfg.max_iter == 10
    cfg = TrainConfig.defaults(SUPERVISED, 784, 16)
    assert (cfg.lambda1, cfg.lambda2, cfg.lambda3, cfg.lambda4) == SUP_LAMBDAS
    assert cfg.max_iter == 5
    assert cfg.seed == 42
    # the code length is read off the code layer, not stored beside it
    assert cfg.code_len == 16 and TrainConfig.defaults(UNSUPERVISED, 784, 16).code_len == 16
    cfg.layer_sizes[-1] = 12
    assert cfg.code_len == 12
    with pytest.raises(ValueError, match="unknown config field"):
        TrainConfig.defaults(UNSUPERVISED, 784, 16, nonsense=1)
    with pytest.raises(ValueError):
        TrainConfig.defaults("other", 784, 16)


def test_config_validation_errors():
    cfg = TrainConfig.defaults(UNSUPERVISED, 32, 8, hidden=(12,))
    cfg.layer_sizes[-1] = 31
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = TrainConfig.defaults(SUPERVISED, 32, 8, hidden=(0,))
    with pytest.raises(ValueError, match="layer_sizes"):
        cfg.validate()
    for name in ("lambda1", "lambda2", "lambda3", "lambda4"):
        for bad in (-1e-3, np.nan, np.inf, "x", None, [1], True, np.True_, 1j):
            cfg = TrainConfig.defaults(SUPERVISED, 32, 8, hidden=(12,), **{name: bad})
            with pytest.raises(ValueError, match=name):
                cfg.validate()
    cfg = TrainConfig.defaults(UNSUPERVISED, 32, 8, hidden=(12,), lbfgs_subsequent=-1)
    with pytest.raises(ValueError, match="lbfgs_subsequent"):
        cfg.validate()
    cfg = TrainConfig.defaults(SUPERVISED, 32, 8, hidden=(12,), max_iter=0)
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = TrainConfig.defaults(SUPERVISED, 32, 8, hidden=(12,), n_per_class=0)
    with pytest.raises(ValueError):
        cfg.validate()
    for bad in (-1, np.int64(-2)):
        cfg = TrainConfig.defaults(UNSUPERVISED, 32, 8, hidden=(12,), seed=bad)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            cfg.validate()
    # non-integer counts and seed, and a non-boolean center_inputs, fail here rather than
    # deep inside training (or, for seed and center_inputs, not at all)
    for name in ("max_iter", "itq_iters", "lbfgs_initial", "lbfgs_subsequent", "n_per_class", "seed"):
        for bad in (1.5, 2.5, 2.0, True, "3"):
            cfg = TrainConfig.defaults(SUPERVISED, 32, 8, hidden=(12,), **{name: bad})
            with pytest.raises(ValueError, match=name):
                cfg.validate()
    for bad in (12.5, 12.0, "12"):
        cfg = TrainConfig.defaults(SUPERVISED, 32, 8, hidden=(12,))
        cfg.layer_sizes[1] = bad
        with pytest.raises(ValueError, match="layer_sizes"):
            cfg.validate()
    for bad in ("no", 0, 1, None):
        cfg = TrainConfig.defaults(UNSUPERVISED, 32, 8, hidden=(12,), center_inputs=bad)
        with pytest.raises(ValueError, match="center_inputs"):
            cfg.validate()
    cfg = TrainConfig.defaults(UNSUPERVISED, 32, 8, hidden=(12,), seed=np.int64(3), max_iter=np.int32(2),
                               center_inputs=np.True_)
    cfg.layer_sizes[1] = np.int64(12)
    cfg.validate()  # numpy integers and booleans pass
    TrainConfig.defaults(SUPERVISED, 32, 8, hidden=(12,), lambda1=2, lambda2=np.float32(0.5), lambda3=np.int64(0),
                         lambda4=0.0).validate()


def test_derive_seed_named_streams():
    assert derive_seed(42, "itq") == derive_seed(42, "itq")
    assert derive_seed(42, "itq") != derive_seed(42, "subset-selection")
    assert derive_seed(42, "itq") != derive_seed(43, "itq")


def test_unsup_single_iteration_trace_shape():
    x, _ = gaussian_clusters(8, 80, 3, seed=0)
    cfg = small_unsup_config(8, 4)
    cfg.max_iter = 1
    res = train_unsupervised(x, cfg)
    assert len(res.loss_trace) == 2
    assert_monotone(res.loss_trace)
    assert res.status in ("converged", "budget-exhausted")


def test_unsup_training_descends_and_bookkeeps():
    x, _ = gaussian_clusters(8, 100, 4, seed=1)
    cfg = small_unsup_config(8, 4)
    res = train_unsupervised(x, cfg)
    assert len(res.loss_trace) == cfg.max_iter + 1
    assert_monotone(res.loss_trace)
    assert res.loss_trace[-1] < res.loss_trace[0]
    assert isinstance(res.codes, BinaryCodes)
    assert res.codes.code_len == 4 and res.codes.count == 100

    # code update must not increase the objective, and the warm-started
    # continuous fit starts exactly where the code update left off
    assert len(res.b_step_losses) == cfg.max_iter
    assert len(res.wc_histories) == cfg.max_iter + 1
    for t in range(1, cfg.max_iter + 1):
        before = res.loss_trace[t - 1]
        assert res.b_step_losses[t - 1] <= before + REL_TOL * max(1.0, abs(before))
        assert res.wc_histories[t][0] == res.b_step_losses[t - 1]
        assert res.loss_trace[t] <= res.b_step_losses[t - 1] + 1e-12


def test_unsup_training_deterministic():
    x, _ = gaussian_clusters(6, 70, 3, seed=2)
    cfg = small_unsup_config(6, 4)
    a = train_unsupervised(x, cfg)
    b = train_unsupervised(x, cfg)
    assert a.loss_trace == b.loss_trace
    assert np.array_equal(a.codes.packed, b.codes.packed)
    for wa, wb in zip(a.params.weights, b.params.weights):
        assert np.array_equal(wa, wb)
    for ca, cb in zip(a.params.biases, b.params.biases):
        assert np.array_equal(ca, cb)
    assert a.status == b.status


def test_sup_training_descends_and_subsets():
    x, labels = gaussian_clusters(8, 120, 3, seed=3)
    cfg = small_sup_config(8, 4, n_per_class=20)
    res = train_supervised(x, labels, cfg)
    assert_monotone(res.loss_trace)
    assert res.loss_trace[-1] <= res.loss_trace[0]
    assert res.subset_indices.shape == (60,)
    picked = labels[res.subset_indices]
    for cls in range(3):
        assert int(np.sum(picked == cls)) == 20
    assert res.codes.count == 60
    for t in range(1, cfg.max_iter + 1):
        assert res.wc_histories[t][0] == res.b_step_losses[t - 1]


def test_sup_one_per_class():
    # the 2-sample subset still has to satisfy m > code bits for the initializer
    x, labels = gaussian_clusters(5, 40, 2, seed=4)
    cfg = small_sup_config(5, 1, n_per_class=1)
    cfg.max_iter = 1
    res = train_supervised(x, labels, cfg)
    assert res.codes.count == 2
    assert sorted(labels[res.subset_indices].tolist()) == [0, 1]


def test_sup_training_deterministic():
    x, labels = gaussian_clusters(6, 60, 2, seed=5)
    cfg = small_sup_config(6, 4, n_per_class=15)
    a = train_supervised(x, labels, cfg)
    b = train_supervised(x, labels, cfg)
    assert a.loss_trace == b.loss_trace
    assert np.array_equal(a.codes.packed, b.codes.packed)
    assert np.array_equal(a.subset_indices, b.subset_indices)


def test_encode_matches_forward_signs():
    x, _ = gaussian_clusters(8, 90, 3, seed=6)
    cfg = small_unsup_config(8, 4)
    cfg.max_iter = 1
    res = train_unsupervised(x, cfg)
    n = res.params.n_layers
    h = forward(res.params, x, upto=n - 1)[-1]
    codes = encode(res.params, x)
    assert np.array_equal(codes.to_sign_matrix(), sgn(h))


def test_encode_single_column_and_batch_agree():
    x, labels = gaussian_clusters(6, 50, 2, seed=7)
    cfg = small_sup_config(6, 4, n_per_class=10)
    cfg.max_iter = 1
    res = train_supervised(x, labels, cfg)
    batch = encode(res.params, x)
    assert encode(res.params, x[:, [0]]).code_len == 4
    for j in range(0, 50, 7):
        single = encode(res.params, x[:, [j]])
        assert np.array_equal(single.to_sign_matrix()[:, 0], batch.to_sign_matrix()[:, j])


def test_encode_rejects_bad_mode_and_shape():
    x, _ = gaussian_clusters(6, 40, 2, seed=8)
    cfg = small_unsup_config(6, 4)
    cfg.max_iter = 1
    res = train_unsupervised(x, cfg)
    bad_mode = res.params.copy()
    bad_mode.mode = "other"
    with pytest.raises(ValueError):
        encode(bad_mode, x)
    with pytest.raises(ValueError):
        encode(res.params, x[:4])


@pytest.mark.parametrize("mode", [UNSUPERVISED, SUPERVISED])
def test_center_inputs_matches_manual_centering(mode):
    """Centring inside training equals training on pre-centred data (in supervised mode,
    centred by the mean of the per-class subset), once the mean is folded into the first bias."""
    x, labels = gaussian_clusters(6, 60, 3, seed=9)

    def train(data, **overrides):
        if mode == UNSUPERVISED:
            return train_unsupervised(data, small_unsup_config(6, 4, **overrides))
        return train_supervised(data, labels, small_sup_config(6, 4, n_per_class=10, **overrides))

    res_raw = train(x, center_inputs=True)
    subset = slice(None) if mode == UNSUPERVISED else res_raw.subset_indices
    x_pre = x - x[:, subset].mean(axis=1)[:, None]
    res_pre = train(x_pre)
    assert res_raw.loss_trace == res_pre.loss_trace
    assert np.array_equal(res_raw.codes.packed, res_pre.codes.packed)
    # the folded first bias makes the raw-input forward match the centered one
    layer = code_layer(mode, res_raw.params.n_layers)
    h_raw = forward(res_raw.params, x, upto=layer)[-1]
    h_pre = forward(res_pre.params, x_pre, upto=layer)[-1]
    assert np.allclose(h_raw, h_pre, rtol=1e-9, atol=1e-9)


def test_trainer_input_validation():
    x, labels = gaussian_clusters(6, 40, 2, seed=10)
    with pytest.raises(ValueError):
        train_unsupervised(x, small_sup_config(6, 4, n_per_class=5))
    with pytest.raises(ValueError):
        train_supervised(x, labels, small_unsup_config(6, 4))
    with pytest.raises(ValueError):
        train_unsupervised(x[:3], small_unsup_config(6, 4))
    with pytest.raises(ValueError):
        train_supervised(x, labels[:10], small_sup_config(6, 4, n_per_class=5))


def test_abort_and_status_helpers():
    assert _should_abort(1.0, float("nan"))
    assert _should_abort(1.0, float("inf"))
    assert _should_abort(1.0, 1.2)
    assert not _should_abort(1.0, 1.05)
    assert not _should_abort(1.0, 0.5)
    assert _final_status([5.0, 5.0]) == "converged"
    assert _final_status([5.0, 4.0]) == "budget-exhausted"
    assert _final_status([3.0]) == "budget-exhausted"


def test_objective_errors_propagate_instead_of_backing_off(monkeypatch):
    # a bug inside the objective must surface, not turn into a step-size cut
    x, _ = gaussian_clusters(8, 80, 3, seed=11)
    real = unsup.value_and_grad
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 5:
            raise ValueError("injected objective failure")
        return real(*args)

    monkeypatch.setattr(unsup, "value_and_grad", failing)
    with pytest.raises(ValueError, match="injected objective failure"):
        train_unsupervised(x, small_unsup_config(8, 4))
    assert len(calls) == 5


def test_overflowing_trial_step_backs_off():
    # sum(cosh(v)) from v = 8: the first full step lands near -1480, where cosh
    # overflows; the line search must halve its way back to a finite decrease
    params = random_params([2, 2, 2, 2], [SIGMOID, LINEAR, LINEAR], UNSUPERVISED, np.random.default_rng(0))
    params.weights = [np.full_like(w, 8.0) for w in params.weights]
    params.biases = [np.full_like(c, 8.0) for c in params.biases]
    values = []

    def cosh_objective(p):
        blocks = [a for pair in zip(p.weights, p.biases) for a in pair]
        j = float(sum(np.sum(np.cosh(a)) for a in blocks))
        values.append(j)
        return j, lambda: np.concatenate([np.sinh(a).ravel() for a in blocks])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = minimize(_make_objective(params, cosh_objective), _flatten(params), 10)
    assert not np.isfinite(values[1])
    assert len(res.history) > 1
    assert np.all(np.isfinite(res.history))
    assert np.all(np.diff(res.history) <= 0)
    assert res.history[-1] < res.history[0]


def test_overflowing_objective_maps_to_infinity_quietly():
    params = random_params([3, 2, 2, 3], [SIGMOID, LINEAR, LINEAR], UNSUPERVISED, np.random.default_rng(1))
    x = np.random.default_rng(2).standard_normal((3, 4))
    b = np.ones((2, 4))
    config = TrainConfig(UNSUPERVISED, [3, 2, 2, 3], *UNSUP_LAMBDAS, max_iter=1)
    fun = _make_objective(params, lambda p: unsup.value_and_grad(p, x, b, config))
    vec = _flatten(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j, gradient = fun(vec * 1e120)
        g = gradient()
    # nothing reads the gradient of a rejected point; computing it must stay quiet too
    assert j == np.inf and g.shape == vec.shape
    assert np.isfinite(fun(vec)[0])


def test_train_unsupervised_rejects_nonfinite_input():
    x, _ = gaussian_clusters(6, 40, 2, seed=12)
    x[3, 17] = np.nan
    with pytest.raises(ValueError, match=r"x has non-finite value nan at \(row 3, column 17\)"):
        train_unsupervised(x, small_unsup_config(6, 4))


def test_train_supervised_rejects_nonfinite_input():
    x, labels = gaussian_clusters(6, 40, 2, seed=13)
    x[0, 5] = -np.inf
    with pytest.raises(ValueError, match=r"x has non-finite value -inf at \(row 0, column 5\)"):
        train_supervised(x, labels, small_sup_config(6, 4, n_per_class=10))


def test_encode_rejects_nonfinite_input():
    x, _ = gaussian_clusters(6, 40, 2, seed=14)
    cfg = small_unsup_config(6, 4)
    cfg.max_iter = 1
    res = train_unsupervised(x, cfg)
    x_new = x[:, :5].copy()
    x_new[2, 4] = np.inf
    with pytest.raises(ValueError, match=r"x_new has non-finite value inf at \(row 2, column 4\)"):
        encode(res.params, x_new)


@given(st.integers(0, 400))
@settings(max_examples=30, deadline=None)
def test_flatten_round_trips_through_split_flat(seed):
    rng = np.random.default_rng(seed)
    sizes = [int(v) for v in rng.integers(1, 5, size=int(rng.integers(2, 6)))]
    params = random_params(sizes, [LINEAR] * (len(sizes) - 1), UNSUPERVISED, rng)
    vec = _flatten(params)
    assert vec.shape == (sum(n_out * (n_in + 1) for n_in, n_out in zip(sizes, sizes[1:])),)
    weights, biases = split_flat(vec, sizes)
    for got, want in zip(weights + biases, params.weights + params.biases):
        assert np.array_equal(got, want)
    assert np.array_equal(_flatten(_rebuild(vec, params)), vec)


def test_supervised_training_builds_no_m_by_m_array():
    # numpy reports its buffers to tracemalloc; at m = 2000 one (m, m) float64
    # array alone would take 30.5 MiB
    m = 2000
    x, labels = gaussian_clusters(16, m, 10, seed=3)
    cfg = small_sup_config(16, 8, n_per_class=200)
    cfg.max_iter = 1
    cfg.lbfgs_initial = cfg.lbfgs_subsequent = 2
    res, peak = traced_peak(lambda: train_supervised(x, labels, cfg))
    assert res.codes.count == m
    assert peak < m * m * 8
