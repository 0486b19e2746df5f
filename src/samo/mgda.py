"""Multiple-gradient descent on a differentiable model.

The descent direction is the negated minimum-norm convex combination of the
objective gradients. For two objectives the simplex-constrained quadratic
subproblem has a closed form; for more it is solved with an away-step
Frank-Wolfe iteration, which converges linearly on the simplex and reaches
the tight duality-gap tolerance cheaply for small objective counts.

All starts of a multistart run advance together, with one batched Jacobian
call per iteration. The row products are the gufuncs `np.vecdot` and
`np.vecmat`, which compute each row alone, so a start's path is bit for bit
its solo path only on models whose Jacobian rows are computed alone, as the
RBF model's are; on the network's it agrees to rounding. The starts still
moving are kept in one compact array. Only in an iteration where some start
turns critical are the end points, flags and counts written out and the
array shrunk. Late in a run few starts move, so the fixed cost of an
iteration's numpy calls sets its time; `tools/mgda_iteration.py` measures
it. To keep that cost low, the step and the clip are written into the
direction array the iteration made, one reduction tells whether any start
finished, and the RBF model computes what depends on it alone (its centers
laid out by coordinate, weights.T, the kernel's -(2 sigma^2) and
-(sigma^2), y_scale as a column) once per model. On the round-0 surrogate
of `paraboloid-rbf-mgda`, an iteration takes about 31 us with 1 moving
start and 54 us with 60 (medians of 10 runs on 2 shared CPUs, Python 3.11,
numpy 2.4).
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


@dataclass(frozen=True)
class MgdaConfig:
    learning_rate: float = 0.05
    max_iterations: int = 10_000
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if not self.learning_rate > 0.0:
            raise ConfigurationError("learning_rate must be strictly positive")
        if not self.tolerance > 0.0:
            raise ConfigurationError("tolerance must be strictly positive")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be positive")


def _min_norm_weights_fw(G: np.ndarray) -> np.ndarray:
    """Minimize w^T G w over the unit simplex by away-step Frank-Wolfe."""
    n = G.shape[0]
    w = np.full(n, 1.0 / n)
    for _ in range(_FW_MAX_ITER):
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


def _descent_directions(J: np.ndarray) -> tuple:
    """Common descent steps for a stack of S Jacobians of shape (S, K, N):
    directions (S, N), simplex weights (S, K) and direction norms (S,).

    The row products are gufuncs over the stack, `np.vecdot` for the inner
    products and `np.vecmat` for w^T J, whose every row is bit for bit the
    product of one row's vectors alone. K = 2 uses the closed form for all
    rows at once; other K solve row by row.
    """
    n_starts, n_obj = J.shape[:2]
    if n_obj == 1:
        W = np.ones((n_starts, 1))
    elif n_obj == 2:
        g2 = J[:, 1]
        diff = J[:, 0] - g2
        denom = np.vecdot(diff, diff)
        # g2 - g1 is -(g1 - g2) bit for bit
        numer = np.vecdot(np.negative(diff, out=diff), g2)
        # w1 stays 0.5 where both gradients coincide
        W = np.full((n_starts, 2), 0.5)
        w1 = W[:, 0]
        np.divide(numer, denom, out=w1, where=denom != 0.0)
        np.maximum(w1, 0.0, out=w1)
        np.minimum(w1, 1.0, out=w1)
        np.subtract(1.0, w1, out=W[:, 1])
    else:
        W = np.array([_min_norm_weights_fw(Jk @ Jk.T) for Jk in J])
    D = np.vecmat(W, J)
    np.negative(D, out=D)
    return D, W, np.sqrt(np.vecdot(D, D))


@dataclass(frozen=True, eq=False)
class MgdaResult:
    x: np.ndarray
    converged: bool
    iterations: int
    trace: np.ndarray  # columns: iteration, ||d||, objectives...


def _descend(model, X0: np.ndarray, bounds: BoxBounds, cfg: MgdaConfig, keep_traces: bool):
    """Iterate x <- clamp(x + eta * d) from every row of X0 at once until
    ||d|| drops below the criticality tolerance or the iteration budget is
    exhausted.

    The starts still moving are kept in one compact array, and each
    iteration makes one `input_jacobian_batch` call on it; a start that
    turns critical leaves it, and only then are its end point, flag and
    iteration count written out. The starts still moving when the budget
    runs out are written out once at the end. `predict_batch` is called
    only for traces. Returns the end points, the converged flags, the
    iteration counts and, with `keep_traces`, the trace of every start with
    rows (iteration, start, ||d||, objectives) in iteration order, the
    moving starts of an iteration in index order.
    """
    X = np.array(X0, dtype=float)
    n_starts = X.shape[0]
    converged = np.zeros(n_starts, dtype=bool)
    iterations = np.full(n_starts, cfg.max_iterations)
    active = np.arange(n_starts)
    Xa = X
    eta, tolerance = cfg.learning_rate, cfg.tolerance
    rows = []
    for iteration in range(1, cfg.max_iterations + 1):
        J = np.asarray(model.input_jacobian_batch(Xa), dtype=float)
        if not np.isfinite(J).all():
            raise SamoError(
                f"non-finite gradient at iteration {iteration}; trace length {iteration - 1}"
            )
        D, _, norms = _descent_directions(J)
        if keep_traces:
            F = np.asarray(model.predict_batch(Xa), dtype=float)
            rows.append(np.column_stack([np.full(len(active), float(iteration)), active, norms, F]))
        # fmin skips NaN, so a NaN norm counts as not finished, as it does
        # in the mask below
        if np.fmin.reduce(norms) < tolerance:
            done = norms < tolerance
            finished = active[done]
            X[finished] = Xa[done]
            converged[finished] = True
            iterations[finished] = iteration
            moving = ~done
            active = active[moving]
            if active.size == 0:
                break
            Xa, D = Xa[moving], D[moving]
        # the step and the clip overwrite D, which this iteration made
        np.multiply(D, eta, out=D)
        Xa = bounds.clip(np.add(Xa, D, out=D), out=D)
    else:
        X[active] = Xa
    return X, converged, iterations, np.vstack(rows) if keep_traces else None


def mgda_run(model, x0: np.ndarray, bounds: BoxBounds, cfg: MgdaConfig) -> MgdaResult:
    """Descend from one start: `multistart_mgda`'s kernel with a single row.

    `model` provides predict_batch(X) and input_jacobian_batch(X) (see
    `samo.surrogate.SurrogateModel`). The returned trace has one row per
    iteration: (iteration, ||d||, objectives).
    """
    x0 = np.asarray(x0, dtype=float)
    if not bounds.contains(x0):
        raise ConfigurationError("starting point must lie within bounds")
    X, converged, iterations, trace = _descend(model, x0[None, :], bounds, cfg, keep_traces=True)
    return MgdaResult(
        x=X[0], converged=bool(converged[0]), iterations=int(iterations[0]),
        trace=np.delete(trace, 1, axis=1),
    )


def multistart_mgda(
    model, bounds: BoxBounds, cfg: MgdaConfig, *, n_starts: int, seed: int, trace_writer=None,
    stats=None,
) -> ParetoApproximation:
    """Descend from `n_starts` Latin-hypercube starting points drawn with
    `seed`, all stepped together, and keep the non-dominated converged
    endpoints.

    `trace_writer(trace)`, when given, receives the trace of every start
    in one call: rows (iteration, start, ||d||, objectives) in iteration
    order. A `stats` dict, when given, receives the counts `starts`,
    `converged`, `dropped` and `max_iterations_used`, also when no start
    converges and SamoError is raised.
    """
    if n_starts < 1:
        raise ConfigurationError("n_starts must be positive")
    starts = latin_hypercube(n_starts, bounds, seed)
    X, converged, iterations, trace = _descend(
        model, starts, bounds, cfg, keep_traces=trace_writer is not None
    )
    if trace_writer is not None:
        trace_writer(trace)
    n_converged = int(converged.sum())
    dropped = n_starts - n_converged
    if stats is not None:
        stats.update(
            starts=n_starts,
            converged=n_converged,
            dropped=dropped,
            max_iterations_used=int(iterations.max()),
        )
    if dropped:
        logger.info("multistart: %d of %d starts did not converge", dropped, n_starts)
    if not n_converged:
        raise SamoError(
            f"no start of {n_starts} converged within {cfg.max_iterations} iterations; "
            "consider more iterations or a smaller step"
        )
    X = X[converged]
    Y = np.asarray(model.predict_batch(X), dtype=float)
    keep = non_dominated_filter(Y)
    return ParetoApproximation.from_arrays(X[keep], Y[keep])
