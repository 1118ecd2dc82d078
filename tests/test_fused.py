"""Differential tests: the fused value-and-gradient pass and the tanh sigmoid
against the two-pass objectives and the split-exp sigmoid they replaced."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import hashlearn.supervised as sup
import hashlearn.unsupervised as unsup
from hashlearn.network import LINEAR, SIGMOID, SUPERVISED, UNSUPERVISED, activate
from hashlearn.trainer import SUP_LAMBDAS, UNSUP_LAMBDAS

from helpers import (random_params, split_exp_sigmoid, two_pass_sup_grad, two_pass_sup_loss,
                     two_pass_unsup_grad, two_pass_unsup_loss)

REL_TOL = 1e-12


def assert_rel_close(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert np.max(np.abs(got - want)) <= REL_TOL * np.max(np.abs(want))


def random_instance(seed, n_layers, mode):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    code_len = int(rng.integers(1, 6))
    m = int(rng.integers(2, 12))
    n_hidden = n_layers - (3 if mode == UNSUPERVISED else 2)
    sizes = [d] + [int(rng.integers(2, 9)) for _ in range(n_hidden)] + [code_len]
    if mode == UNSUPERVISED:
        sizes.append(d)
    n_linear = 2 if mode == UNSUPERVISED else 1
    acts = [SIGMOID] * (n_layers - 1 - n_linear) + [LINEAR] * n_linear
    params = random_params(sizes, acts, mode, rng, scale=float(rng.uniform(0.1, 2.0)))
    x = rng.standard_normal((d, m)) * float(rng.uniform(0.1, 10.0))
    b = np.where(rng.standard_normal((code_len, m)) >= 0, 1.0, -1.0)
    return params, x, b, rng


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 5))
def test_unsup_value_and_grad_matches_two_pass(seed, n_layers):
    params, x, b, _ = random_instance(seed, n_layers, UNSUPERVISED)
    hyper = unsup.UnsupHyper(*UNSUP_LAMBDAS, code_len=b.shape[0], n_samples=b.shape[1])
    j, g = unsup.value_and_grad(params, x, b, hyper)
    assert_rel_close(j, two_pass_unsup_loss(params, x, b, *UNSUP_LAMBDAS))
    assert_rel_close(g, two_pass_unsup_grad(params, x, b, *UNSUP_LAMBDAS))
    assert unsup.loss(params, x, b, hyper) == j


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 5))
def test_sup_value_and_grad_matches_two_pass(seed, n_layers):
    params, x, b, rng = random_instance(seed, n_layers, SUPERVISED)
    s = sup.pairwise_matrix(rng.integers(0, 3, size=b.shape[1]))
    hyper = sup.SupHyper(*SUP_LAMBDAS, code_len=b.shape[0], n_samples=b.shape[1])
    j, g = sup.value_and_grad(params, x, b, s, hyper)
    assert_rel_close(j, two_pass_sup_loss(params, x, b, s, *SUP_LAMBDAS))
    assert_rel_close(g, two_pass_sup_grad(params, x, b, s, *SUP_LAMBDAS))
    assert sup.loss(params, x, b, s, hyper) == j


def test_grad_wrapper_blocks_view_the_fused_gradient():
    params, x, b, _ = random_instance(7, 4, UNSUPERVISED)
    hyper = unsup.UnsupHyper(*UNSUP_LAMBDAS, code_len=b.shape[0], n_samples=b.shape[1])
    g = unsup.grad(params, x, b, hyper)
    flat = np.concatenate([a.ravel() for pair in zip(g.d_weights, g.d_biases) for a in pair])
    assert np.array_equal(flat, unsup.value_and_grad(params, x, b, hyper)[1])
    for dw, w in zip(g.d_weights, params.weights):
        assert dw.shape == w.shape


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=50))
def test_tanh_sigmoid_matches_split_exp(values):
    z = np.array(values + [0.0, np.inf, -np.inf])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = activate(SIGMOID, z)
    assert np.max(np.abs(got - split_exp_sigmoid(z))) <= 4.5e-16
    assert got[-3:].tolist() == [0.5, 1.0, 0.0]
