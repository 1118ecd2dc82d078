import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashlearn.network import LINEAR, SIGMOID, SUPERVISED, UNSUPERVISED, NetworkParams
from hashlearn.supervised import PairwiseLabels, _one_hot, b_step, build_pairwise, grad, loss
from hashlearn.trainer import TrainConfig

from helpers import (central_difference, max_rel_error, naive_frobenius_sq, naive_sup_loss, pairwise_matrix,
                     random_params)

LAMBDAS = (1e-3, 5.0, 1.0, 1e-4)


def config_for(sizes, lambdas=LAMBDAS):
    """The settings of a supervised network with these layer sizes and penalty weights."""
    return TrainConfig(SUPERVISED, list(sizes), *lambdas, max_iter=1)


def make_instance(seed, sizes=(5, 4, 3), m=4, lambdas=LAMBDAS):
    rng = np.random.default_rng(seed)
    acts = [SIGMOID] * (len(sizes) - 2) + [LINEAR]
    params = random_params(sizes, acts, SUPERVISED, rng)
    x = rng.standard_normal((sizes[0], m))
    b = np.where(rng.standard_normal((sizes[-1], m)) >= 0, 1.0, -1.0)
    labels = rng.integers(0, 2, size=m)
    return params, x, b, labels, config_for(sizes, lambdas), rng


def pack(params):
    return np.concatenate([a.ravel() for a in params.weights + params.biases])


def unpack_into(params, vec):
    out = params.copy()
    pos = 0
    for block in out.weights + out.biases:
        block[...] = vec[pos:pos + block.size].reshape(block.shape)
        pos += block.size
    return out


def implied_similarity(res):
    """S = 2 Y Y^T - 1 of a subset's class indicator."""
    y = res.indicator
    return 2.0 * y @ y.T - 1.0


def test_build_pairwise_two_classes_exact_matrix():
    labels = np.array([0, 0, 1, 1])
    res = build_pairwise(labels, 2, seed=5)
    expected = np.array([[1.0, 1.0, -1.0, -1.0],
                         [1.0, 1.0, -1.0, -1.0],
                         [-1.0, -1.0, 1.0, 1.0],
                         [-1.0, -1.0, 1.0, 1.0]])
    assert np.array_equal(implied_similarity(res), pairwise_matrix(labels[res.sample_indices]))
    assert np.array_equal(implied_similarity(res), expected)
    assert sorted(res.sample_indices[:2]) == [0, 1]
    assert sorted(res.sample_indices[2:]) == [2, 3]


def test_build_pairwise_single_class_all_positive():
    labels = np.array([3, 3, 3, 3, 3])
    res = build_pairwise(labels, 3, seed=0)
    assert np.array_equal(implied_similarity(res), pairwise_matrix(labels[res.sample_indices]))
    assert np.array_equal(implied_similarity(res), np.ones((3, 3)))


def test_build_pairwise_seeded_and_counts():
    labels = np.repeat([0, 1, 2], 10)
    a = build_pairwise(labels, 4, seed=9)
    b = build_pairwise(labels, 4, seed=9)
    assert np.array_equal(a.sample_indices, b.sample_indices)
    picked = labels[a.sample_indices]
    for cls in (0, 1, 2):
        assert int(np.sum(picked == cls)) == 4


def test_build_pairwise_errors():
    with pytest.raises(ValueError):
        build_pairwise([0, 0, 1], 2, seed=0)   # class 1 too small
    with pytest.raises(ValueError):
        build_pairwise([], 1, seed=0)
    with pytest.raises(ValueError):
        build_pairwise([0, 1], 0, seed=0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=12))
def test_pairwise_matrix_structure(labels):
    # the S = 2 Y Y^T - 1 1^T that the objective's class indicator stands for
    y = _one_hot(labels)
    s = 2.0 * y @ y.T - 1.0
    assert np.array_equal(s, pairwise_matrix(labels))
    assert np.array_equal(s, s.T)
    assert np.array_equal(np.diag(s), np.ones(len(labels)))
    assert np.all(np.abs(s) == 1.0)


def test_loss_perfect_codes_zero():
    # identity network: code activations equal the +1/-1 inputs, and the scaled
    # inner products reproduce S exactly
    x = np.array([[1.0, -1.0], [1.0, -1.0]])
    params = NetworkParams([2, 2], [np.eye(2)], [np.zeros(2)], [LINEAR], SUPERVISED)
    assert loss(params, x, x.copy(), [0, 1], config_for([2, 2], (0.0, 7.0, 0.0, 0.0))) == 0.0


def test_loss_zero_activations_is_half_sample_count():
    m = 4
    x = np.zeros((3, m))
    params = NetworkParams([3, 2], [np.zeros((2, 3))], [np.zeros(2)], [LINEAR], SUPERVISED)
    b = np.ones((2, m))
    config = config_for([3, 2], (0.0, 0.0, 0.0, 0.0))
    assert loss(params, x, b, [0, 0, 1, 1], config) == pytest.approx(m / 2.0, rel=1e-14)


def test_loss_matches_scalar_oracle():
    params, x, b, labels, config, _ = make_instance(1)
    expected = naive_sup_loss(params, x, b, pairwise_matrix(labels), *LAMBDAS)
    assert loss(params, x, b, labels, config) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("seed,sizes,m", [(2, (5, 4, 3), 4), (3, (8, 6, 4, 3), 10),
                                          (4, (4, 2), 6)])
def test_grad_matches_finite_differences(seed, sizes, m):
    params, x, b, labels, config, _ = make_instance(seed, sizes=sizes, m=m)

    def f(vec):
        return loss(unpack_into(params, vec), x, b, labels, config)

    g = grad(params, x, b, labels, config)
    analytic = np.concatenate([a.ravel() for a in g.d_weights + g.d_biases])
    fd = central_difference(f, pack(params), h=1e-5)
    assert max_rel_error(analytic, fd) < 1e-5


def test_grad_zero_pairwise_residual_reduces_to_weight_decay():
    x = np.array([[1.0, -1.0], [1.0, -1.0]])
    params = NetworkParams([2, 2], [np.eye(2)], [np.zeros(2)], [LINEAR], SUPERVISED)
    g = grad(params, x, x.copy(), [0, 1], config_for([2, 2], (0.5, 0.0, 0.0, 0.0)))
    assert np.array_equal(g.d_weights[0], 0.5 * np.eye(2))
    assert np.array_equal(g.d_biases[0], np.zeros(2))


def test_grad_sample_permutation_leaves_bias_gradient_unchanged():
    params, x, b, labels, config, rng = make_instance(5, m=6)
    perm = rng.permutation(6)
    g_a = grad(params, x, b, labels, config)
    g_b = grad(params, x[:, perm], b[:, perm], labels[perm], config)
    for da, db in zip(g_a.d_biases, g_b.d_biases):
        assert np.allclose(da, db, rtol=1e-10, atol=1e-12)
    for da, db in zip(g_a.d_weights, g_b.d_weights):
        assert np.allclose(da, db, rtol=1e-10, atol=1e-12)


def test_b_step_examples():
    h = np.array([[0.5, -0.1], [-2.0, 3.0]])
    assert np.array_equal(b_step(h), np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.array_equal(b_step(np.zeros((2, 3))), np.ones((2, 3)))


def test_b_step_is_exhaustive_minimizer():
    rng = np.random.default_rng(6)
    h = rng.standard_normal((3, 4))
    out = b_step(h)
    best = min(naive_frobenius_sq(h - np.array(bits, dtype=float).reshape(3, 4))
               for bits in itertools.product((-1.0, 1.0), repeat=12))
    assert naive_frobenius_sq(h - out) == pytest.approx(best, rel=1e-12)


def test_validation_errors():
    params, x, b, labels, config, _ = make_instance(7)
    with pytest.raises(ValueError):
        grad(params, x[:, :2], b, labels, config)          # sample count mismatch
    with pytest.raises(ValueError, match="lambda2"):
        loss(params, x, b, labels, dataclasses.replace(config, lambda2=-1.0))
    for bad in (labels[:2], np.append(labels, 0), labels[:, None]):
        for fn in (loss, grad):
            with pytest.raises(ValueError, match=r"labels have shape \(\d+,( 1)?\), expected \(4,\)"):
                fn(params, x, b, bad, config)
    # the network is (5, 4, 3); a config for any other mode or layer sizes is named with it
    cases = ((dataclasses.replace(config, mode=UNSUPERVISED, layer_sizes=[5, 4, 3, 5]),
              r"'unsupervised' and layer_sizes \[5, 4, 3, 5\]"),
             (config_for((5, 6, 3)), r"'supervised' and layer_sizes \[5, 6, 3\]"))
    for other, says in cases:
        message = "config has mode " + says + r", the network 'supervised' and \[5, 4, 3\]"
        for fn in (loss, grad):
            with pytest.raises(ValueError, match=message):
                fn(params, x, b, labels, other)


def test_pairwise_labels_container():
    labels = np.array([1, 1, 0, 0])
    res = build_pairwise(labels, 1, seed=3)
    assert isinstance(res, PairwiseLabels)
    assert res.indicator.shape == (2, 2)
    assert np.array_equal(implied_similarity(res), pairwise_matrix(labels[res.sample_indices]))
    assert res.sample_indices.shape == (2,)
