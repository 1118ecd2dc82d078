import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashlearn.network import (LINEAR, SIGMOID, SUPERVISED, UNSUPERVISED, NetworkParams,
                               activate, check_finite, code_layer, default_activations, forward, sgn)

from helpers import naive_forward_column, random_params


def test_zero_params_sigmoid_gives_half():
    params = NetworkParams([3, 2], [np.zeros((2, 3))], [np.zeros(2)], [SIGMOID], SUPERVISED)
    hs = forward(params, np.random.default_rng(0).standard_normal((3, 4)))
    assert np.all(hs[-1] == 0.5)


def test_identity_linear_layer_is_identity_map():
    params = NetworkParams([3, 3], [np.eye(3)], [np.zeros(3)], [LINEAR], SUPERVISED)
    x = np.random.default_rng(1).standard_normal((3, 5))
    hs = forward(params, x)
    assert np.array_equal(hs[-1], x)


def test_forward_matches_per_sample_oracle():
    rng = np.random.default_rng(2)
    params = random_params([5, 4, 3, 2], [SIGMOID, SIGMOID, LINEAR], SUPERVISED, rng)
    x = rng.standard_normal((5, 3))
    hs = forward(params, x)
    for j in range(3):
        cols = naive_forward_column(params, x[:, j], 4)
        for li, vals in enumerate(cols):
            assert np.max(np.abs(hs[li][:, j] - np.array(vals))) < 1e-12


def test_forward_trace_recurrences():
    rng = np.random.default_rng(3)
    params = random_params([4, 3, 2], [SIGMOID, LINEAR], SUPERVISED, rng)
    x = rng.standard_normal((4, 6))
    hs = forward(params, x)
    assert hs[0] is x or np.array_equal(hs[0], x)
    for i in range(2):
        z = params.weights[i] @ hs[i] + params.biases[i][:, None]
        assert np.array_equal(hs[i + 1], activate(params.activations[i], z))
    for j in range(6):
        for li, vals in enumerate(naive_forward_column(params, x[:, j], 3)):
            assert np.max(np.abs(hs[li][:, j] - np.array(vals))) < 1e-12


def test_forward_upto_partial_depth():
    rng = np.random.default_rng(4)
    params = random_params([4, 3, 2, 4], [SIGMOID, LINEAR, LINEAR], UNSUPERVISED, rng)
    x = rng.standard_normal((4, 5))
    partial = forward(params, x, upto=3)
    full = forward(params, x)
    assert len(partial) == 3
    assert np.array_equal(partial[-1], full[2])


def test_batch_equals_single_columns():
    rng = np.random.default_rng(5)
    params = random_params([6, 4, 3], [SIGMOID, LINEAR], SUPERVISED, rng)
    x = rng.standard_normal((6, 7))
    batch = forward(params, x)[-1]
    for j in range(7):
        single = forward(params, x[:, j:j + 1])[-1][:, 0]
        assert np.max(np.abs(batch[:, j] - single)) < 1e-12


def test_sigmoid_outputs_strictly_inside_unit_interval():
    z = np.linspace(-30, 30, 101).reshape(1, -1)
    h = activate(SIGMOID, z)
    assert np.all(h > 0.0) and np.all(h < 1.0)


def test_forward_determinism():
    rng = np.random.default_rng(6)
    params = random_params([5, 4, 2], [SIGMOID, SIGMOID], SUPERVISED, rng)
    x = rng.standard_normal((5, 8))
    a = forward(params, x)
    b = forward(params, x)
    for ha, hb in zip(a, b):
        assert np.array_equal(ha, hb)


def test_forward_rejects_bad_shape():
    params = NetworkParams([3, 2], [np.zeros((2, 3))], [np.zeros(2)], [SIGMOID], SUPERVISED)
    with pytest.raises(ValueError):
        forward(params, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        forward(params, np.zeros((3, 2)), upto=5)


def test_forward_rejects_nonfinite_production():
    big = np.full((2, 2), 1e300)
    params = NetworkParams([2, 2, 2], [big, big.copy()], [np.zeros(2), np.zeros(2)],
                           [LINEAR, LINEAR], SUPERVISED)
    with pytest.raises(ValueError), np.errstate(over="ignore"):
        forward(params, np.full((2, 2), 1e10))


def test_check_finite_passes_a_finite_array_whose_sum_overflows():
    with np.errstate(all="raise"):
        check_finite("a", np.array([[1e308, 1e308], [1e308, -1.0]]))
        check_finite("a", np.zeros((3, 0)))
        # +inf and -inf sum to NaN; the first in row-major order is named
        with pytest.raises(ValueError, match=r"a has non-finite value inf at \(row 0, column 1\)"):
            check_finite("a", np.array([[1.0, np.inf], [-np.inf, 2.0]]))


def test_params_validate_rejects_mismatch():
    params = NetworkParams([3, 2], [np.zeros((2, 2))], [np.zeros(2)], [SIGMOID], SUPERVISED)
    with pytest.raises(ValueError):
        params.validate()
    params = NetworkParams([3, 2], [np.zeros((2, 3))], [np.zeros(2)], ["relu"], SUPERVISED)
    with pytest.raises(ValueError):
        params.validate()


class TestSgn:
    def test_hand_values(self):
        assert np.array_equal(sgn(np.array([[0.3, -0.2]])), [[1.0, -1.0]])

    def test_zero_maps_to_plus_one(self):
        assert sgn(np.array([[0.0]]))[0, 0] == 1.0

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_matches_elementwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 4))
        out = sgn(a)
        assert set(np.unique(out)) <= {-1.0, 1.0}
        for i in range(3):
            for j in range(4):
                assert out[i, j] == (1.0 if a[i, j] >= 0 else -1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            sgn(np.array([np.inf]))


def test_default_activations_layout():
    assert default_activations(5, UNSUPERVISED) == [SIGMOID, SIGMOID, LINEAR, LINEAR]
    assert default_activations(4, SUPERVISED) == [SIGMOID, SIGMOID, LINEAR]
    assert [code_layer(UNSUPERVISED, 3), code_layer(UNSUPERVISED, 5)] == [2, 4]
    assert [code_layer(SUPERVISED, 2), code_layer(SUPERVISED, 4)] == [2, 4]
    for mode, n_layers in ((UNSUPERVISED, 2), (SUPERVISED, 1), ("other", 4)):
        with pytest.raises(ValueError, match="no code layer"):
            code_layer(mode, n_layers)
