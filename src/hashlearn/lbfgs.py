"""Limited-memory quasi-Newton minimizer over a flat parameter vector."""

from dataclasses import dataclass, field

import numpy as np

GRADIENT_CONVERGED = "gradient-converged"
MAX_ITERS = "max-iters"
LINE_SEARCH_FAILED = "line-search-failed"


@dataclass
class LbfgsConfig:
    memory: int = 10
    max_iters: int = 100
    grad_tol: float = 1e-8
    sufficient_decrease: float = 1e-4  # Armijo constant
    curvature: float = 0.9             # constant for the optional strict curvature check
    max_backtracks: int = 30
    strict_curvature: bool = False     # when set, pairs must also satisfy the Wolfe curvature test

    def validate(self):
        if self.memory < 1:
            raise ValueError("memory must be >= 1, got %d" % self.memory)
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0, got %d" % self.max_iters)
        if not 0.0 < self.sufficient_decrease < self.curvature < 1.0:
            raise ValueError("need 0 < sufficient_decrease < curvature < 1")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be >= 1")


@dataclass
class LbfgsResult:
    x: np.ndarray
    history: list = field(default_factory=list)  # objective value at x0 and after each accepted step
    status: str = MAX_ITERS


def _two_loop(g, s_list, y_list, rho_list, gamma):
    """Two-loop recursion: returns the approximate inverse-Hessian times g."""
    q = g.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * float(np.dot(s, q))
        q -= a * y
        alphas.append(a)
    q *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * float(np.dot(y, q))
        q += (a - b) * s
    return q


def minimize(fun, x0, config=None):
    """Minimize fun(x) -> (value, gradient) starting from the 1-d float vector x0.

    Line search is backtracking with the Armijo sufficient-decrease test, so
    the recorded history is non-increasing.  Curvature pairs are admitted to
    the memory only when the curvature condition holds, which keeps the
    implicit Hessian approximation positive definite.  Returns the best point
    seen together with the history and a termination status.
    """
    cfg = config or LbfgsConfig()
    cfg.validate()
    x = np.array(x0, dtype=np.float64)
    fx, g = fun(x)
    fx = float(fx)
    g = np.asarray(g, dtype=np.float64)
    if not np.isfinite(fx) or not np.all(np.isfinite(g)):
        raise ValueError("objective returned non-finite value or gradient at the starting point")
    if g.shape != x.shape:
        raise ValueError("gradient shape %s does not match parameter shape %s" % (g.shape, x.shape))

    history = [fx]
    best_f, best_x = fx, x.copy()
    s_list, y_list, rho_list = [], [], []
    gamma = 1.0
    status = MAX_ITERS

    for _ in range(cfg.max_iters):
        if float(np.linalg.norm(g)) < cfg.grad_tol:
            status = GRADIENT_CONVERGED
            break
        d = -_two_loop(g, s_list, y_list, rho_list, gamma)
        slope = float(np.dot(g, d))
        if slope >= 0.0:
            # stale curvature memory produced a non-descent direction
            s_list, y_list, rho_list = [], [], []
            d = -g
            slope = -float(np.dot(g, g))
            if slope == 0.0:
                status = GRADIENT_CONVERGED
                break
        t = 1.0
        accepted = False
        for _bt in range(cfg.max_backtracks):
            x_new = x + t * d
            f_new, g_new = fun(x_new)
            f_new = float(f_new)
            g_new = np.asarray(g_new, dtype=np.float64)
            if np.isfinite(f_new) and np.all(np.isfinite(g_new)) \
                    and f_new <= fx + cfg.sufficient_decrease * t * slope:
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
        admit = sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y))
        if cfg.strict_curvature and float(np.dot(g_new, d)) < cfg.curvature * slope:
            admit = False
        if admit:
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            if len(s_list) > cfg.memory:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
            gamma = sy / float(np.dot(y, y))
        else:
            # an accepted step with unusable curvature means the stored pairs
            # no longer describe the local landscape; keeping them would pin
            # the search to the same degenerate direction, so start over from
            # scaled steepest descent
            s_list, y_list, rho_list = [], [], []
        x, fx, g = x_new, f_new, g_new
        history.append(fx)
        if fx < best_f:
            best_f, best_x = fx, x.copy()

    return LbfgsResult(best_x, history, status)
