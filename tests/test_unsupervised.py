import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashlearn.network import LINEAR, SIGMOID, SUPERVISED, UNSUPERVISED, NetworkParams, forward, sgn
from hashlearn.trainer import TrainConfig
from hashlearn.unsupervised import b_step, grad, loss

from helpers import (central_difference, max_rel_error, naive_frobenius_sq, naive_unsup_loss,
                     random_params)

LAMBDAS = (1e-5, 5e-2, 1e-2, 1e-6)


def config_for(sizes, lambdas=LAMBDAS):
    """The settings of an unsupervised network with these layer sizes and penalty weights."""
    return TrainConfig(UNSUPERVISED, list(sizes), *lambdas, max_iter=1)


def make_instance(seed, sizes=(5, 4, 3, 5), m=4, lambdas=LAMBDAS):
    rng = np.random.default_rng(seed)
    acts = [SIGMOID] * (len(sizes) - 3) + [LINEAR, LINEAR]
    params = random_params(sizes, acts, UNSUPERVISED, rng)
    x = rng.standard_normal((sizes[0], m))
    b = np.where(rng.standard_normal((sizes[-2], m)) >= 0, 1.0, -1.0)
    return params, x, b, config_for(sizes, lambdas), rng


def pack(params):
    return np.concatenate([a.ravel() for a in params.weights + params.biases])


def unpack_into(params, vec):
    out = params.copy()
    pos = 0
    for block in out.weights + out.biases:
        block[...] = vec[pos:pos + block.size].reshape(block.shape)
        pos += block.size
    return out


def test_loss_zero_decoder_zero_lambdas_is_input_energy():
    params, x, b, _, _ = make_instance(0)
    params.weights[-1][:] = 0.0
    params.biases[-1][:] = 0.0
    config = config_for(params.layer_sizes, (0.0, 0.0, 0.0, 0.0))
    m = x.shape[1]
    assert loss(params, x, b, config) == pytest.approx(naive_frobenius_sq(x) / (2.0 * m), rel=1e-12)


def test_loss_decorrelation_term_vanishes_when_satisfied():
    # identity first layer, so the code activations are the input itself;
    # the input rows are orthogonal with row norm sqrt(m)
    x = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
    params = NetworkParams([2, 2, 2], [np.eye(2), np.zeros((2, 2))],
                           [np.zeros(2), np.zeros(2)], [LINEAR, LINEAR], UNSUPERVISED)
    b = np.ones((2, 4))
    with_term = loss(params, x, b, config_for([2, 2, 2], (0.0, 0.0, 5.0, 0.0)))
    without = loss(params, x, b, config_for([2, 2, 2], (0.0, 0.0, 0.0, 0.0)))
    assert with_term == pytest.approx(without, abs=1e-14)


def test_loss_matches_scalar_oracle():
    params, x, b, config, _ = make_instance(1)
    expected = naive_unsup_loss(params, x, b, *LAMBDAS)
    assert loss(params, x, b, config) == pytest.approx(expected, rel=1e-10)


def test_loss_all_lambda_zero_is_pure_reconstruction():
    params, x, b, _, _ = make_instance(2)
    config0 = config_for(params.layer_sizes, (0.0, 0.0, 0.0, 0.0))
    m = x.shape[1]
    recon = naive_frobenius_sq(x - params.weights[-1] @ b - params.biases[-1][:, None])
    assert loss(params, x, b, config0) == pytest.approx(recon / (2.0 * m), rel=1e-12)


def test_grad_zero_weights_only_decoder_signal():
    params, x, b, _, _ = make_instance(3)
    for w in params.weights:
        w[:] = 0.0
    for c in params.biases:
        c[:] = 0.0
    g = grad(params, x, b, config_for(params.layer_sizes, (1e-3, 0.0, 0.0, 0.0)))
    m = x.shape[1]
    for dw in g.d_weights[:-1]:
        assert np.array_equal(dw, np.zeros_like(dw))
    assert np.allclose(g.d_weights[-1], (-1.0 / m) * (x @ b.T), rtol=0, atol=1e-14)


@pytest.mark.parametrize("seed,sizes,m", [(7, (5, 4, 3, 5), 4), (8, (8, 6, 4, 3, 8), 10),
                                          (9, (4, 3, 2, 4), 7)])
def test_grad_matches_finite_differences(seed, sizes, m):
    params, x, b, config, _ = make_instance(seed, sizes=sizes, m=m)

    def f(vec):
        return loss(unpack_into(params, vec), x, b, config)

    g = grad(params, x, b, config)
    analytic = np.concatenate([a.ravel() for a in g.d_weights + g.d_biases])
    fd = central_difference(f, pack(params), h=1e-5)
    assert max_rel_error(analytic, fd) < 1e-5


def test_grad_duplicate_columns_and_permutation_symmetry():
    params, x, b, config, _ = make_instance(10, m=6)
    x[:, 4] = x[:, 1]
    b[:, 4] = b[:, 1]
    perm = np.array([0, 4, 2, 3, 1, 5])
    g_a = grad(params, x, b, config)
    g_b = grad(params, x[:, perm], b[:, perm], config)
    for da, db in zip(g_a.d_weights + g_a.d_biases, g_b.d_weights + g_b.d_biases):
        assert np.allclose(da, db, rtol=1e-10, atol=1e-12)


def dcc_objective(params, x, h_code, b, lam2):
    w = params.weights[-1]
    c = params.biases[-1]
    return naive_frobenius_sq(x - w @ b - c[:, None]) + lam2 * naive_frobenius_sq(h_code - b)


def test_b_step_dominant_quantization_returns_sign_of_code_activations():
    params, x, b0, config, rng = make_instance(11, m=6)
    h = rng.standard_normal((config.code_len, 6))
    out = b_step(params, x, h, b0, dataclasses.replace(config, lambda2=1e6))
    assert np.array_equal(out, sgn(h))


def test_b_step_zero_decoder_returns_sign_of_code_activations():
    params, x, b0, config, rng = make_instance(12, m=6)
    params.weights[-1][:] = 0.0
    h = rng.standard_normal((config.code_len, 6))
    out = b_step(params, x, h, b0, config)
    assert np.array_equal(out, sgn(h))


def test_b_step_rows_globally_optimal():
    for seed in range(5):
        params, x, _, config, rng = make_instance(20 + seed, sizes=(5, 4, 4, 5), m=6)
        h = rng.standard_normal((4, 6))
        b0 = np.where(rng.standard_normal((4, 6)) >= 0, 1.0, -1.0)
        out = b_step(params, x, h, b0, config)
        base = dcc_objective(params, x, h, out, config.lambda2)
        for k in range(4):
            for bits in range(64):
                cand = out.copy()
                cand[k] = [1.0 if (bits >> j) & 1 else -1.0 for j in range(6)]
                assert dcc_objective(params, x, h, cand, config.lambda2) >= base - 1e-9


def test_b_step_objective_trace_monotone_and_fixpoint():
    params, x, b0, config, rng = make_instance(30, m=8)
    h = rng.standard_normal((config.code_len, 8))
    trace = []
    out = b_step(params, x, h, b0, config, objective_trace=trace)
    assert trace, "expected at least one row update to be logged"
    start = dcc_objective(params, x, h, b0, config.lambda2)
    assert trace[0] <= start + 1e-9
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-9
    again = b_step(params, x, h, out, config)
    assert np.array_equal(again, out)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_b_step_fixpoint_property(seed):
    rng = np.random.default_rng(seed)
    sizes = (3, 3, 2, 3)
    acts = [SIGMOID, LINEAR, LINEAR]
    params = random_params(sizes, acts, UNSUPERVISED, rng)
    m = int(rng.integers(2, 7))
    config = config_for(sizes)
    x = rng.standard_normal((3, m))
    h = rng.standard_normal((2, m))
    b0 = np.where(rng.standard_normal((2, m)) >= 0, 1.0, -1.0)
    trace = []
    out = b_step(params, x, h, b0, config, objective_trace=trace)
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-9
    assert np.array_equal(b_step(params, x, h, out, config), out)


def test_b_step_respects_code_layer_activations_from_forward():
    # using the real forward-pass activations as the pull target
    params, x, b0, config, _ = make_instance(31, m=5)
    h = forward(params, x, upto=params.n_layers - 1)[-1]
    out = b_step(params, x, h, b0, config)
    assert out.shape == b0.shape
    assert np.all(np.abs(out) == 1.0)


def test_validation_errors():
    params, x, b, config, rng = make_instance(40)
    with pytest.raises(ValueError):
        loss(params, x, np.zeros_like(b), config)          # not +1/-1
    with pytest.raises(ValueError):
        loss(params, x, b[:, :2], config)                  # wrong shape
    with pytest.raises(ValueError):
        loss(params, x[:, :2], b, config)                  # sample count mismatch
    with pytest.raises(ValueError, match="lambda2"):
        grad(params, x, b, dataclasses.replace(config, lambda2=-1.0))
    with pytest.raises(ValueError):
        b_step(params, x, np.zeros((2, 4)), b, config)     # h_code wrong shape
    # the network is (5, 4, 3, 5); a config for any other mode or layer sizes is named with it
    cases = ((dataclasses.replace(config, mode=SUPERVISED), r"'supervised' and layer_sizes \[5, 4, 3, 5\]"),
             (config_for((5, 4, 2, 5)), r"'unsupervised' and layer_sizes \[5, 4, 2, 5\]"))
    for other, says in cases:
        message = "config has mode " + says + r", the network 'unsupervised' and \[5, 4, 3, 5\]"
        for fn in (loss, grad):
            with pytest.raises(ValueError, match=message):
                fn(params, x, b, other)
        with pytest.raises(ValueError, match=message):
            b_step(params, x, np.zeros(b.shape), b, other)


def test_grad_requires_three_layers():
    params = NetworkParams([4, 3], [np.zeros((3, 4))], [np.zeros(3)], [LINEAR], UNSUPERVISED)
    b = np.ones((4, 2))
    with pytest.raises(ValueError, match="no code layer"):
        grad(params, np.zeros((4, 2)), b, config_for([4, 3]))
