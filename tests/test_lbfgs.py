from collections import Counter

import numpy as np
import pytest

from hashlearn import lbfgs
from hashlearn.lbfgs import GRADIENT_CONVERGED, LINE_SEARCH_FAILED, LbfgsResult, _two_loop, minimize
from hashlearn.network import SUPERVISED, UNSUPERVISED

from helpers import eager_minimize, objective_instance


def quadratic_bowl(center):
    def fun(x):
        d = x - center
        return float(d @ d), lambda: 2.0 * d
    return fun


def rosenbrock(x):
    a, b = x
    f = (1 - a) ** 2 + 100.0 * (b - a * a) ** 2
    return f, lambda: np.array([-2 * (1 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])


def seeded_quadratic(seed, dim):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((dim, dim))
    a = q.T @ q + 0.1 * np.eye(dim)
    c = rng.standard_normal(dim)

    def fun(x):
        return float(0.5 * x @ a @ x - c @ x), lambda: a @ x - c
    return fun, rng.standard_normal(dim)


def test_quadratic_bowl_converges_quickly():
    center = np.array([1.0, -2.0, 3.0])
    res = minimize(quadratic_bowl(center), np.array([0.0, 0.0, 0.0]), 20)
    assert res.history[-1] < 1e-8
    assert len(res.history) <= 21
    assert np.allclose(res.x, center, atol=1e-4)


def test_rosenbrock_reaches_minimum():
    res = minimize(rosenbrock, np.array([-1.2, 1.0]), 500)
    assert res.history[-1] < 1e-8
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-3)


def test_history_non_increasing():
    fun, x0 = seeded_quadratic(11, 8)
    res = minimize(fun, x0, 60)
    for a, b in zip(res.history, res.history[1:]):
        assert b <= a + 1e-12


def test_larger_memory_not_slower_on_quadratic(monkeypatch):
    # the gradient tolerance is raised above the float64 resolution of f near
    # its minimum (|f*| is order 4 here, so sub-1e-7 gradients stop being certifiable)
    monkeypatch.setattr(lbfgs, "_GRAD_TOL", 1e-6)
    fun, x0 = seeded_quadratic(7, 10)
    monkeypatch.setattr(lbfgs, "_MEMORY", 1)
    res1 = minimize(fun, x0, 200)
    monkeypatch.setattr(lbfgs, "_MEMORY", 10)
    res10 = minimize(fun, x0, 200)
    assert res1.status == GRADIENT_CONVERGED
    assert res10.status == GRADIENT_CONVERGED
    assert len(res10.history) <= len(res1.history)


def test_empty_memory_is_scaled_steepest_descent():
    g = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(_two_loop(g, [], 1.0), g)
    assert np.array_equal(_two_loop(g, [], 0.25), 0.25 * g)


def test_gradient_converged_status():
    res = minimize(quadratic_bowl(np.zeros(2)), np.array([0.0, 0.0]), 5)
    assert res.status == GRADIENT_CONVERGED
    assert res.history == [0.0]


def test_line_search_failure_returns_best_seen():
    def lying(x):
        # claims a descent direction exists but the value never improves
        return 1.0, lambda: np.array([1.0])
    res = minimize(lying, np.array([0.5]), 10)
    assert res.status == LINE_SEARCH_FAILED
    assert res.x[0] == 0.5
    assert res.history == [1.0]


def test_nonfinite_start_raises():
    def bad(x):
        return np.nan, lambda: np.zeros(1)
    with pytest.raises(ValueError):
        minimize(bad, np.array([1.0]), 100)


def test_nonfinite_trial_step_is_backtracked():
    # +inf wall just left of the minimum: the first full step lands in it
    calls = {"inf": 0}

    def fun(x):
        v = float(x[0])
        if v < -1.0:
            calls["inf"] += 1
            return np.inf, lambda: np.zeros(1)
        return (v + 0.9) ** 2, lambda: np.array([2 * (v + 0.9)])
    res = minimize(fun, np.array([3.0]), 50)
    assert calls["inf"] > 0
    assert res.history[-1] < 1e-10
    assert abs(res.x[0] + 0.9) < 1e-4


def test_negative_max_iters_rejected():
    with pytest.raises(ValueError, match="max_iters"):
        minimize(quadratic_bowl(np.zeros(1)), np.array([1.0]), -1)
    assert minimize(quadratic_bowl(np.zeros(1)), np.array([1.0]), 0).history == [1.0]


def counted(fun):
    """fun, logging [value, gradient calls] for every point it is called at."""
    log = []

    def logged(x):
        j, gradient = fun(x)
        entry = [float(j), 0]
        log.append(entry)

        def logged_gradient():
            entry[1] += 1
            return gradient()
        return j, logged_gradient
    return logged, log


def assert_same_result(got, want):
    assert np.array_equal(got.x, want.x)
    assert got.history == want.history
    assert got.status == want.status


def assert_gradients_only_at_history_points(log, res):
    # once at the start and at each accepted point, never at a rejected one
    assert [j for j, calls in log if calls] == res.history
    assert all(calls <= 1 for _, calls in log)
    assert sum(calls for _, calls in log) == len(res.history) < len(log)


@pytest.mark.parametrize("mode", [UNSUPERVISED, SUPERVISED])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_value_first_line_search_matches_eager_one_on_training_objectives(mode, seed):
    # long enough for the line search to reject trial points at every seed
    iters = 80 if mode == UNSUPERVISED else 30
    fun, vec, _, _, _ = objective_instance(mode, seed)
    counted_fun, log = counted(fun)
    res = minimize(counted_fun, vec, iters)
    events = Counter()
    assert_same_result(res, eager_minimize(fun, vec, iters, events))
    assert_gradients_only_at_history_points(log, res)
    # more pairs than the memory holds, so the bounded deque evicts as the lists pop
    assert events["evicted"] > 0


def test_value_first_line_search_matches_eager_one_on_rosenbrock():
    counted_fun, log = counted(rosenbrock)
    res = minimize(counted_fun, np.array([-1.2, 1.0]), 500)
    events = Counter()
    assert_same_result(res, eager_minimize(rosenbrock, np.array([-1.2, 1.0]), 500, events))
    assert_gradients_only_at_history_points(log, res)
    # the deque memory is both trimmed and cleared on this run, as the list memory is
    assert events["evicted"] > 0 and events["reset"] > 0


def test_finite_value_with_nonfinite_gradient_is_rejected():
    # f = x^2 / 2 from x = 1: the full step lands on 0, whose value passes the Armijo
    # test but whose gradient is NaN; the search must halve the step to 0.5
    def fun(x):
        v = float(x[0])
        return v * v / 2.0, lambda: np.array([np.nan if abs(v) < 0.25 else v])
    counted_fun, log = counted(fun)
    res = minimize(counted_fun, np.array([1.0]), 1)
    assert res.history == [0.5, 0.125] and res.x[0] == 0.5
    assert log == [[0.5, 1], [0.0, 1], [0.125, 1]]
    assert_same_result(res, eager_minimize(fun, np.array([1.0]), 1))


def test_non_descent_direction_clears_the_memory_as_the_eager_one_does(monkeypatch):
    # flip the two-loop direction once, the first time the memory is full: both minimizers
    # must fall back to steepest descent from an empty memory, and then agree bit for bit
    two_loop = lbfgs._two_loop

    def flip_once_full(g, pairs, gamma):
        sizes.append(len(pairs))
        q = two_loop(g, pairs, gamma)
        return -q if sizes.count(lbfgs._MEMORY) == 1 and len(pairs) == lbfgs._MEMORY else q

    monkeypatch.setattr(lbfgs, "_two_loop", flip_once_full)
    runs = []
    for minimizer in (minimize, eager_minimize):
        sizes = []
        runs.append((minimizer(rosenbrock, np.array([-1.2, 1.0]), 500), sizes))
    (res, sizes), (want, want_sizes) = runs
    assert_same_result(res, want)
    assert sizes == want_sizes
    assert sizes[sizes.index(lbfgs._MEMORY) + 1] <= 1
