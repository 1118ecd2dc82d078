import numpy as np
import pytest

from hashlearn.lbfgs import (GRADIENT_CONVERGED, LINE_SEARCH_FAILED, LbfgsConfig,
                             LbfgsResult, _two_loop, minimize)


def quadratic_bowl(center):
    def fun(x):
        d = x - center
        return float(d @ d), 2.0 * d
    return fun


def rosenbrock(x):
    a, b = x
    f = (1 - a) ** 2 + 100.0 * (b - a * a) ** 2
    g = np.array([-2 * (1 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])
    return f, g


def seeded_quadratic(seed, dim):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((dim, dim))
    a = q.T @ q + 0.1 * np.eye(dim)
    c = rng.standard_normal(dim)

    def fun(x):
        return float(0.5 * x @ a @ x - c @ x), a @ x - c
    return fun, rng.standard_normal(dim)


def test_quadratic_bowl_converges_quickly():
    center = np.array([1.0, -2.0, 3.0])
    res = minimize(quadratic_bowl(center), np.array([0.0, 0.0, 0.0]), LbfgsConfig(max_iters=20))
    assert res.history[-1] < 1e-8
    assert len(res.history) <= 21
    assert np.allclose(res.x, center, atol=1e-4)


def test_rosenbrock_reaches_minimum():
    res = minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(max_iters=500, grad_tol=1e-10))
    assert res.history[-1] < 1e-8
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-3)


def test_history_non_increasing():
    fun, x0 = seeded_quadratic(11, 8)
    res = minimize(fun, x0, LbfgsConfig(max_iters=60))
    for a, b in zip(res.history, res.history[1:]):
        assert b <= a + 1e-12


def test_larger_memory_not_slower_on_quadratic():
    # grad_tol is kept above the float64 resolution of f near its minimum
    # (|f*| is order 4 here, so sub-1e-7 gradients stop being certifiable)
    fun, x0 = seeded_quadratic(7, 10)
    res1 = minimize(fun, x0, LbfgsConfig(memory=1, max_iters=200, grad_tol=1e-6))
    res10 = minimize(fun, x0, LbfgsConfig(memory=10, max_iters=200, grad_tol=1e-6))
    assert res1.status == GRADIENT_CONVERGED
    assert res10.status == GRADIENT_CONVERGED
    assert len(res10.history) <= len(res1.history)


def test_empty_memory_is_scaled_steepest_descent():
    g = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(_two_loop(g, [], [], [], 1.0), g)
    assert np.array_equal(_two_loop(g, [], [], [], 0.25), 0.25 * g)


def test_gradient_converged_status():
    res = minimize(quadratic_bowl(np.zeros(2)), np.array([0.0, 0.0]), LbfgsConfig(max_iters=5))
    assert res.status == GRADIENT_CONVERGED
    assert res.history == [0.0]


def test_line_search_failure_returns_best_seen():
    def lying(x):
        # claims a descent direction exists but the value never improves
        return 1.0, np.array([1.0])
    res = minimize(lying, np.array([0.5]), LbfgsConfig(max_iters=10))
    assert res.status == LINE_SEARCH_FAILED
    assert res.x[0] == 0.5
    assert res.history == [1.0]


def test_nonfinite_start_raises():
    def bad(x):
        return np.nan, np.zeros(1)
    with pytest.raises(ValueError):
        minimize(bad, np.array([1.0]), LbfgsConfig())


def test_nonfinite_trial_step_is_backtracked():
    # +inf wall just left of the minimum: the first full step lands in it
    calls = {"inf": 0}

    def fun(x):
        v = float(x[0])
        if v < -1.0:
            calls["inf"] += 1
            return np.inf, np.zeros(1)
        return (v + 0.9) ** 2, np.array([2 * (v + 0.9)])
    res = minimize(fun, np.array([3.0]), LbfgsConfig(max_iters=50))
    assert calls["inf"] > 0
    assert res.history[-1] < 1e-10
    assert abs(res.x[0] + 0.9) < 1e-4


def test_config_validation():
    with pytest.raises(ValueError):
        LbfgsConfig(memory=0).validate()
    with pytest.raises(ValueError):
        LbfgsConfig(sufficient_decrease=0.95, curvature=0.9).validate()
    with pytest.raises(ValueError):
        minimize(quadratic_bowl(np.zeros(1)), np.array([1.0]), LbfgsConfig(memory=-1))

