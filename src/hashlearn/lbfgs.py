"""Limited-memory quasi-Newton minimizer over a flat parameter vector."""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

GRADIENT_CONVERGED = "gradient-converged"
MAX_ITERS = "max-iters"
LINE_SEARCH_FAILED = "line-search-failed"

_MEMORY = 10                 # curvature pairs kept
_GRAD_TOL = 1e-8             # gradient norm that counts as converged
_SUFFICIENT_DECREASE = 1e-4  # Armijo constant
_MAX_BACKTRACKS = 30         # step halvings before the line search gives up


@dataclass
class LbfgsResult:
    x: np.ndarray
    history: list = field(default_factory=list)  # objective value at x0 and after each accepted step
    status: str = MAX_ITERS


def _two_loop(g, pairs, gamma):
    """Two-loop recursion over the (s, y, rho) curvature pairs, oldest first: returns
    the approximate inverse-Hessian times g."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.dot(s, q))
        q -= a * y
        alphas.append(a)
    q *= gamma
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(np.dot(y, q))
        q += (a - b) * s
    return q


def minimize(fun, x0, max_iters):
    """Minimize fun starting from the 1-d float vector x0, taking at most
    max_iters accepted steps.  fun(x) returns (value, gradient); gradient() is
    the gradient at x, called at most once, before the next call of fun, and
    only at x0 and at trial points whose value passes the line search.

    Line search is backtracking with the Armijo sufficient-decrease test, so
    the recorded history is non-increasing.  A trial point with a non-finite
    value or gradient is rejected like one that fails the test.  Curvature
    pairs are admitted to the memory only when the curvature condition holds,
    which keeps the implicit Hessian approximation positive definite.  Returns
    the best point seen together with the history and a termination status.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0, got %d" % max_iters)
    x = np.array(x0, dtype=np.float64)
    fx, gradient = fun(x)
    fx = float(fx)
    if not np.isfinite(fx) or not np.all(np.isfinite(g := np.asarray(gradient(), dtype=np.float64))):
        raise ValueError("objective returned non-finite value or gradient at the starting point")
    if g.shape != x.shape:
        raise ValueError("gradient shape %s does not match parameter shape %s" % (g.shape, x.shape))

    history = [fx]
    best_f, best_x = fx, x.copy()
    pairs = deque(maxlen=_MEMORY)  # (s, y, rho), oldest first; appending evicts the oldest
    gamma = 1.0
    status = MAX_ITERS

    for _ in range(max_iters):
        if float(np.linalg.norm(g)) < _GRAD_TOL:
            status = GRADIENT_CONVERGED
            break
        d = -_two_loop(g, pairs, gamma)
        slope = float(np.dot(g, d))
        if slope >= 0.0:
            # stale curvature memory produced a non-descent direction
            pairs.clear()
            d = -g
            slope = -float(np.dot(g, g))
            if slope == 0.0:
                status = GRADIENT_CONVERGED
                break
        t = 1.0
        accepted = False
        for _bt in range(_MAX_BACKTRACKS):
            x_new = x + t * d
            f_new, gradient = fun(x_new)
            f_new = float(f_new)
            if np.isfinite(f_new) and f_new <= fx + _SUFFICIENT_DECREASE * t * slope \
                    and np.all(np.isfinite(g_new := np.asarray(gradient(), dtype=np.float64))):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            status = LINE_SEARCH_FAILED
            break
        s = x_new - x
        y = g_new - g
        # skip the pair when s.y is too small to keep the update well posed
        sy = float(np.dot(s, y))
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / float(np.dot(y, y))
        else:
            # an accepted step with unusable curvature means the stored pairs
            # no longer describe the local landscape; keeping them would pin
            # the search to the same degenerate direction, so start over from
            # scaled steepest descent
            pairs.clear()
        x, fx, g = x_new, f_new, g_new
        history.append(fx)
        if fx < best_f:
            best_f, best_x = fx, x.copy()

    return LbfgsResult(best_x, history, status)
