"""Multiple-gradient descent on a differentiable model.

The descent direction is the negated minimum-norm convex combination of the
objective gradients. For two objectives the simplex-constrained quadratic
subproblem has a closed form; for more it is solved with an away-step
Frank-Wolfe iteration, which converges linearly on the simplex and reaches
the tight duality-gap tolerance cheaply for small objective counts.

All starts of a multistart run advance together, with one batched Jacobian
call per iteration; each start's path is bit for bit the one it takes alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import (
    BoxBounds,
    ConfigurationError,
    ParetoApproximation,
    SamoError,
    non_dominated_filter,
)
from .sampling import latin_hypercube

logger = logging.getLogger(__name__)

_FW_GAP_TOL = 1e-10
_FW_MAX_ITER = 10_000
_SIMPLEX_TOL = 1e-10


@dataclass(frozen=True)
class DescentStep:
    """Common descent direction d = -J^T w with its simplex weights."""

    direction: np.ndarray
    weights: np.ndarray
    norm: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -_SIMPLEX_TOL) or abs(w.sum() - 1.0) > _SIMPLEX_TOL:
            raise SamoError("descent weights must lie on the unit simplex")


@dataclass(frozen=True)
class MgdaConfig:
    learning_rate: float = 0.05
    max_iterations: int = 10_000
    tolerance: float = 1e-6
    n_starts: int = 100
    backtracking: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0.0:
            raise ConfigurationError("learning_rate must be strictly positive")
        if self.tolerance <= 0.0:
            raise ConfigurationError("tolerance must be strictly positive")
        if self.max_iterations < 1 or self.n_starts < 1:
            raise ConfigurationError("max_iterations and n_starts must be positive")


def _min_norm_weights_fw(G: np.ndarray, objective_trace=None) -> np.ndarray:
    """Minimize w^T G w over the unit simplex by away-step Frank-Wolfe."""
    n = G.shape[0]
    w = np.full(n, 1.0 / n)
    for _ in range(_FW_MAX_ITER):
        if objective_trace is not None:
            objective_trace.append(float(w @ G @ w))
        grad = 2.0 * G @ w
        toward = int(np.argmin(grad))
        gap = float(grad @ w - grad[toward])
        if gap < _FW_GAP_TOL:
            break
        d_fw = -w.copy()
        d_fw[toward] += 1.0
        active = np.flatnonzero(w > 0.0)
        away = active[int(np.argmax(grad[active]))]
        d_aw = w.copy()
        d_aw[away] -= 1.0
        if grad @ d_fw <= grad @ d_aw:
            d, gamma_max = d_fw, 1.0
        else:
            d = d_aw
            gamma_max = w[away] / (1.0 - w[away]) if w[away] < 1.0 else 1.0
        curvature = 2.0 * float(d @ G @ d)
        if curvature <= 0.0:
            gamma = gamma_max
        else:
            gamma = min(max(-float(grad @ d) / curvature, 0.0), gamma_max)
        if gamma <= 0.0:
            break
        w = np.clip(w + gamma * d, 0.0, None)
        w /= w.sum()
    return w


def _row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise inner products of two (S, N) arrays as (S, 1, N) @ (S, N, 1):
    numpy computes each row with the same dot call as for two vectors."""
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def _descent_directions(J: np.ndarray) -> tuple:
    """Common descent steps for a stack of S Jacobians of shape (S, K, N):
    directions (S, N), simplex weights (S, K) and direction norms (S,).

    Every product keeps the shapes of the one-Jacobian case, e.g.
    (S, 1, K) @ (S, K, N), so each row is bit for bit what a single
    Jacobian gives. K = 2 uses the closed form for all rows at once; other
    K solve row by row.
    """
    n_starts, n_obj = J.shape[:2]
    if n_obj == 1:
        W = np.ones((n_starts, 1))
    elif n_obj == 2:
        g1, g2 = J[:, 0], J[:, 1]
        diff = g1 - g2
        denom = _row_dot(diff, diff)
        w1 = np.full(n_starts, 0.5)
        apart = denom != 0.0
        w1[apart] = np.minimum(np.maximum(_row_dot(g2 - g1, g2)[apart] / denom[apart], 0.0), 1.0)
        W = np.column_stack([w1, 1.0 - w1])
    else:
        W = np.array([_min_norm_weights_fw(Jk @ Jk.T) for Jk in J])
    D = -(W[:, None, :] @ J)[:, 0, :]
    return D, W, np.sqrt(_row_dot(D, D))


def common_descent_direction(jacobian: np.ndarray) -> DescentStep:
    """Solve the simplex-constrained quadratic subproblem for the weights
    minimizing || sum_k w_k grad_k ||^2 and return the descent step.

    K = 1 reduces to plain gradient descent; K = 2 uses the closed form
    w* = clip(<g2 - g1, g2> / ||g1 - g2||^2, 0, 1); larger K uses
    Frank-Wolfe. Zero gradient rows are legitimate (that objective is
    already critical and the weights may concentrate there with d = 0).
    """
    J = np.atleast_2d(np.asarray(jacobian, dtype=float))
    if not np.all(np.isfinite(J)):
        raise SamoError("jacobian contains non-finite entries")
    D, W, norms = _descent_directions(J[None])
    return DescentStep(direction=D[0], weights=W[0], norm=float(norms[0]))


def kkt_residual(jacobian: np.ndarray) -> float:
    """Minimum over the simplex of || sum_k a_k grad_k ||; zero iff the
    point is critical for the model."""
    return common_descent_direction(jacobian).norm


@dataclass(frozen=True)
class MgdaResult:
    x: np.ndarray
    converged: bool
    iterations: int
    trace: np.ndarray  # columns: iteration, ||d||, objectives...


def _descend(model, X0: np.ndarray, bounds: BoxBounds, cfg: MgdaConfig, keep_traces: bool):
    """Iterate x <- clamp(x + eta * d) from every row of X0 at once until
    ||d|| drops below the criticality tolerance or the iteration budget is
    exhausted.

    Each iteration makes one `input_jacobian_batch` call on the starts still
    moving; a start that turns critical leaves that set. `predict_batch` is
    called only for traces and backtracking. Returns the end points, the
    converged flags, the iteration counts and, with `keep_traces`, one trace
    per start with rows (iteration, ||d||, objectives).
    """
    X = np.array(X0, dtype=float)
    n_starts = X.shape[0]
    converged = np.zeros(n_starts, dtype=bool)
    iterations = np.full(n_starts, cfg.max_iterations)
    active = np.arange(n_starts)
    rows, owners = [], []
    for iteration in range(1, cfg.max_iterations + 1):
        Xa = X[active]
        J = np.asarray(model.input_jacobian_batch(Xa), dtype=float)
        if not np.all(np.isfinite(J)):
            raise SamoError(
                f"non-finite gradient at iteration {iteration}; trace length {iteration - 1}"
            )
        D, W, norms = _descent_directions(J)
        if keep_traces or cfg.backtracking:
            F = np.asarray(model.predict_batch(Xa), dtype=float)
        if keep_traces:
            rows.append(np.column_stack([np.full(len(active), float(iteration)), norms, F]))
            owners.append(active)
        done = norms < cfg.tolerance
        converged[active[done]] = True
        iterations[active[done]] = iteration
        moving = ~done
        active = active[moving]
        if active.size == 0:
            break
        Xm, Dm = Xa[moving], D[moving]
        candidate = np.clip(Xm + cfg.learning_rate * Dm, bounds.lower, bounds.upper)
        if cfg.backtracking:
            candidate = _backtrack(model, Xm, Dm, W[moving], F[moving], candidate, bounds, cfg)
        X[active] = candidate
    traces = None
    if keep_traces:
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")
        ends = np.cumsum(np.bincount(owner, minlength=n_starts))[:-1]
        traces = np.split(np.vstack(rows)[order], ends)
    return X, converged, iterations, traces


def _backtrack(model, X, D, W, F, candidate, bounds: BoxBounds, cfg: MgdaConfig) -> np.ndarray:
    """Halve each start's step until its weighted objective w . f does not
    increase; after 30 halvings, or once the step is below 1e-12, the last
    candidate is taken."""
    weighted = _row_dot(W, F)
    eta = np.full(X.shape[0], cfg.learning_rate)
    pending = np.arange(X.shape[0])
    for _ in range(30):
        values = _row_dot(W[pending], np.asarray(model.predict_batch(candidate[pending]), dtype=float))
        accepted = (values <= weighted[pending]) | (eta[pending] < 1e-12)
        pending = pending[~accepted]
        if pending.size == 0:
            break
        eta[pending] *= 0.5
        candidate[pending] = np.clip(
            X[pending] + eta[pending, None] * D[pending], bounds.lower, bounds.upper
        )
    return candidate


def mgda_run(model, x0: np.ndarray, bounds: BoxBounds, cfg: MgdaConfig) -> MgdaResult:
    """Descend from one start: `multistart_mgda`'s kernel with a single row.

    `model` provides predict_batch(X) and input_jacobian_batch(X) (see
    `samo.surrogate.SurrogateModel`). The returned trace has one row per
    iteration: (iteration, ||d||, objectives).
    """
    x0 = np.asarray(x0, dtype=float)
    if not bounds.contains(x0):
        raise ConfigurationError("starting point must lie within bounds")
    X, converged, iterations, traces = _descend(model, x0[None, :], bounds, cfg, keep_traces=True)
    return MgdaResult(
        x=X[0], converged=bool(converged[0]), iterations=int(iterations[0]), trace=traces[0]
    )


def multistart_mgda(
    model, bounds: BoxBounds, cfg: MgdaConfig, trace_writer=None, stats=None
) -> ParetoApproximation:
    """Descend from Latin-hypercube starting points, all stepped together,
    and keep the non-dominated converged endpoints.

    `trace_writer(start_index, trace)` receives every start's iteration
    trace when given. A `stats` dict, when given, receives the counts
    `starts`, `converged`, `dropped` and `max_iterations_used`, also when
    no start converges and SamoError is raised.
    """
    starts = latin_hypercube(cfg.n_starts, bounds, cfg.seed).matrix()
    X, converged, iterations, traces = _descend(
        model, starts, bounds, cfg, keep_traces=trace_writer is not None
    )
    if trace_writer is not None:
        for start_index, trace in enumerate(traces):
            trace_writer(start_index, trace)
    n_converged = int(converged.sum())
    dropped = cfg.n_starts - n_converged
    if stats is not None:
        stats.update(
            starts=cfg.n_starts,
            converged=n_converged,
            dropped=dropped,
            max_iterations_used=int(iterations.max()),
        )
    if dropped:
        logger.info("multistart: %d of %d starts did not converge", dropped, cfg.n_starts)
    if not n_converged:
        raise SamoError(
            f"no start of {cfg.n_starts} converged within {cfg.max_iterations} iterations; "
            "consider more iterations or a smaller step"
        )
    X = X[converged]
    Y = np.asarray(model.predict_batch(X), dtype=float)
    keep = non_dominated_filter(Y)
    return ParetoApproximation.from_arrays(X[keep], Y[keep])
