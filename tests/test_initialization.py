import numpy as np
import pytest

from hashlearn.initialization import init_network, itq_init, itq_refine, random_orthogonal
from hashlearn.linalg import covariance, top_eigvecs
from hashlearn.network import LINEAR, SIGMOID, SUPERVISED, UNSUPERVISED, sgn


def corner_cloud(seed=0, copies=5):
    """All four +-1 corners in 2-D, replicated; perfectly quantizable."""
    corners = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
    x = np.tile(corners, copies)
    rng = np.random.default_rng(seed)
    return x[:, rng.permutation(x.shape[1])]


def test_zero_iters_is_sign_of_pca_projection():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 40))
    e = top_eigvecs(covariance(x), 3)
    expected = sgn(e.T @ (x - x.mean(axis=1)[:, None]))
    assert np.array_equal(itq_init(x, 3, iters=0, seed=123), expected)


def test_axis_aligned_corners_reach_zero_quantization_loss():
    x = corner_cloud()
    res = itq_refine(x, 2, iters=50, seed=7)
    assert res.losses[-1] < 1e-18


def test_quantization_loss_non_increasing_and_rotations_orthogonal():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 60))
    res = itq_refine(x, 4, iters=50, seed=11)
    assert len(res.losses) == 50
    for a, b in zip(res.losses, res.losses[1:]):
        assert b <= a + 1e-12
    for rot in res.rotations:
        assert np.linalg.norm(rot.T @ rot - np.eye(4)) < 1e-10


def test_itq_codes_shape_and_values():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 30))
    b = itq_init(x, 2, iters=10, seed=0)
    assert b.shape == (2, 30)
    assert np.all(np.abs(b) == 1.0)


def test_itq_rank_deficiency_warns():
    rng = np.random.default_rng(4)
    direction = rng.standard_normal((4, 1))
    x = direction @ rng.standard_normal((1, 25))   # rank-1 cloud
    with pytest.warns(UserWarning):
        itq_refine(x, 2, iters=5, seed=0)


def test_itq_input_validation():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 10))
    with pytest.raises(ValueError):
        itq_init(x, 5, iters=1, seed=0)     # more bits than dims
    with pytest.raises(ValueError):
        itq_init(x, 0, iters=1, seed=0)
    with pytest.raises(ValueError):
        itq_init(x[:, :3], 3, iters=1, seed=0)   # m must exceed code_len
    with pytest.raises(ValueError):
        itq_init(x, 2, iters=-1, seed=0)


def test_random_orthogonal_is_orthogonal_and_seeded():
    rng = np.random.default_rng(6)
    q = random_orthogonal(5, rng)
    assert np.linalg.norm(q.T @ q - np.eye(5)) < 1e-12
    a = random_orthogonal(5, np.random.default_rng(9))
    b = random_orthogonal(5, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_init_network_unsupervised_structure():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 50))
    params = init_network(x, [4, 3, 2, 4], UNSUPERVISED)
    assert np.array_equal(params.weights[-1], np.eye(4, 2))
    assert np.array_equal(params.weights[-1][:, 0], [1.0, 0.0, 0.0, 0.0])
    for c in params.biases:
        assert np.array_equal(c, np.zeros_like(c))
    # eigenvector blocks have orthonormal rows
    for w in params.weights[:-1]:
        assert np.linalg.norm(w @ w.T - np.eye(w.shape[0])) < 1e-8
    assert np.array_equal(params.weights[0], top_eigvecs(covariance(x), 3).T)


def test_init_network_supervised_structure():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 50))
    params = init_network(x, [5, 4, 2], SUPERVISED)
    for w in params.weights:
        assert np.linalg.norm(w @ w.T - np.eye(w.shape[0])) < 1e-8
    for c in params.biases:
        assert np.array_equal(c, np.zeros_like(c))
    assert params.activations == [SIGMOID, LINEAR]


def test_init_network_deterministic():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 40))
    a = init_network(x, [6, 4, 3, 6], UNSUPERVISED)
    b = init_network(x, [6, 4, 3, 6], UNSUPERVISED)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ca, cb in zip(a.biases, b.biases):
        assert np.array_equal(ca, cb)


def test_init_network_rejects_bad_configs():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 30))
    with pytest.raises(ValueError):
        init_network(x, [4, 5, 2, 4], UNSUPERVISED)   # widening eig block
    with pytest.raises(ValueError):
        init_network(x, [4, 3, 2, 5], UNSUPERVISED)   # output width != input width
    with pytest.raises(ValueError):
        init_network(x, [4, 2], UNSUPERVISED)         # too shallow for a decoder
    with pytest.raises(ValueError):
        init_network(x, [4, 3, 2, 4], "other")
    with pytest.raises(ValueError):
        init_network(x[:3], [4, 3, 2, 4], UNSUPERVISED)
