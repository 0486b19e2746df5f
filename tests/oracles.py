"""Reference paths the batched optimizers are tested against.

These are the one-point forms the package used before MGDA stepped all
starts together and NSGA-II worked on whole populations: one start at a
time with one `predict` / `input_jacobian` call per point, NSGA-II
objectives evaluated row by row, fronts peeled from the dominance matrix
and crowded one front at a time, survivors gathered front by front in a
list, and SBX and polynomial mutation applied one pair and one child at a time
with the generator passed in, and binary tournaments drawn one scalar
generator call at a time. The quarter-car integrator is the form that
ran on numpy-scalar parameters, evaluated the road input in the loop and
checked finiteness at every step and stored every state. The network
training keeps one Adam moment array per weight and bias. Tests compare
the package against them with exact equality.

The batched forms that leaner ones replaced are kept as well, and the
package must match them byte for byte: the MGDA loop that gathered and
scattered the moving starts every iteration, the row products as batched
matmuls where the package calls `np.vecdot` and `np.vecmat`, the RBF
kernel on row-major (M, C, N) offsets with a Jacobian that allocates every
product, SBX and polynomial mutation computed for every entry, and
the variation uniforms located through end tables over the whole peeked
block. The RBF width search's closed-form leave-one-out errors are
compared, to a tolerance, with one refit per left-out sample.

The rest are helpers only tests use: the package's descent step for one
Jacobian, Pareto dominance of two points, the KKT residual, the
quarter-car's mechanical energy, the inverse input scaling, the
two-paraboloids problem with its analytic gradient as a model for descent
tests, the config files of whole-run tests and a run's metrics.json
without its timings.
"""

import json
import math
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from samo.core import (
    ConfigurationError,
    DimensionMismatchError,
    ParetoApproximation,
    SamoError,
    dominance_matrix,
)
from samo.mgda import MgdaResult, _descent_directions, _min_norm_weights_fw
from samo.moea import _evaluate, _unpeek
from samo.problems import DivergenceError, amplitude
from samo.sampling import latin_hypercube
from samo.surrogate import DEFAULT_RIDGE, DEFAULT_SIGMA_GRID, RbfModel, Scaler, TrainConfig, TrainingError


def descent_step(J: np.ndarray) -> tuple:
    """(direction, weights, norm) of the min-norm subproblem for one K x N
    Jacobian, solved with Python scalars as the one-point code did."""
    J = np.atleast_2d(np.asarray(J, dtype=float))
    n_obj = J.shape[0]
    if n_obj == 1:
        w = np.array([1.0])
    elif n_obj == 2:
        g1, g2 = J[0], J[1]
        diff = g1 - g2
        denom = float(diff @ diff)
        if denom == 0.0:
            w = np.array([0.5, 0.5])
        else:
            w1 = min(max(float((g2 - g1) @ g2) / denom, 0.0), 1.0)
            w = np.array([w1, 1.0 - w1])
    else:
        w = _min_norm_weights_fw(J @ J.T)
    direction = -(w @ J)
    return direction, w, float(np.linalg.norm(direction))


class DescentStep(NamedTuple):
    """Common descent direction d = -J^T w with its simplex weights."""

    direction: np.ndarray
    weights: np.ndarray
    norm: float


def common_descent_direction(jacobian) -> DescentStep:
    """The descent step of one K x N Jacobian: one row of the package's
    `_descent_directions(J[None])`, for finite entries only.

    The weights minimize || sum_k w_k grad_k ||^2 over the simplex. K = 1
    reduces to plain gradient descent; K = 2 uses the closed form
    w* = clip(<g2 - g1, g2> / ||g1 - g2||^2, 0, 1); larger K uses
    Frank-Wolfe. Zero gradient rows are legitimate (that objective is
    already critical and the weights may concentrate there with d = 0).
    """
    J = np.atleast_2d(np.asarray(jacobian, dtype=float))
    if not np.all(np.isfinite(J)):
        raise SamoError("jacobian contains non-finite entries")
    D, W, norms = _descent_directions(J[None])
    return DescentStep(direction=D[0], weights=W[0], norm=float(norms[0]))


def mgda_run(model, x0, bounds, cfg) -> MgdaResult:
    """One start, one point per model call."""
    x = np.asarray(x0, dtype=float).copy()
    if not bounds.contains(x):
        raise ConfigurationError("starting point must lie within bounds")
    eta = cfg.learning_rate
    rows = []
    converged = False
    iteration = 0
    for iteration in range(1, cfg.max_iterations + 1):
        jac = np.atleast_2d(model.input_jacobian(x))
        if not np.all(np.isfinite(jac)):
            raise SamoError(f"non-finite gradient at iteration {iteration}")
        direction, _, norm = descent_step(jac)
        objectives = np.asarray(model.predict(x), dtype=float)
        rows.append([float(iteration), norm, *objectives.tolist()])
        if norm < cfg.tolerance:
            converged = True
            break
        x = np.clip(x + eta * direction, bounds.lower, bounds.upper)
    return MgdaResult(x=x, converged=converged, iterations=iteration, trace=np.array(rows, dtype=float))


def multistart_mgda(
    model, bounds, cfg, *, n_starts, seed, trace_writer=None, stats=None
) -> ParetoApproximation:
    """The starts of `samo.mgda.multistart_mgda`, run one after another;
    their traces, each given its start column, ordered by (iteration,
    start) and written in one call."""
    starts = latin_hypercube(n_starts, bounds, seed)
    results = [mgda_run(model, x0, bounds, cfg) for x0 in starts]
    if trace_writer is not None:
        rows = np.vstack([np.insert(r.trace, 1, i, axis=1) for i, r in enumerate(results)])
        trace_writer(rows[np.lexsort((rows[:, 1], rows[:, 0]))])
    points = [r.x for r in results if r.converged]
    if stats is not None:
        stats.update(
            starts=n_starts,
            converged=len(points),
            dropped=n_starts - len(points),
            max_iterations_used=max(r.iterations for r in results),
        )
    if not points:
        raise SamoError("no start converged")
    X = np.array(points)
    Y = np.array([np.asarray(model.predict(x), dtype=float) for x in X])
    keep = non_dominated_filter(Y)
    return ParetoApproximation.from_arrays(X[keep], Y[keep])


def row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise inner products of two (S, N) arrays as (S, 1, N) @ (S, N, 1),
    the batched-matmul form of `np.vecdot`: numpy computes each row with
    the same dot call as for two vectors."""
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def row_vecmat(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Row i of the (S, K) array `v` times the K x N matrix M[i], or M itself
    when it is one matrix, as (S, 1, K) @ M: the batched-matmul form of
    `np.vecmat`."""
    return (v[:, None, :] @ M)[:, 0, :]


def descent_directions_masked(J: np.ndarray) -> tuple:
    """`samo.mgda._descent_directions` as it was before the weights were
    built in place and the row products became gufuncs: K = 2 fills w1
    through a boolean mask and stacks the two weight columns, and every row
    product is a batched matmul."""
    n_starts, n_obj = J.shape[:2]
    if n_obj == 1:
        W = np.ones((n_starts, 1))
    elif n_obj == 2:
        g1, g2 = J[:, 0], J[:, 1]
        diff = g1 - g2
        denom = row_dot(diff, diff)
        w1 = np.full(n_starts, 0.5)
        apart = denom != 0.0
        w1[apart] = np.minimum(np.maximum(row_dot(g2 - g1, g2)[apart] / denom[apart], 0.0), 1.0)
        W = np.column_stack([w1, 1.0 - w1])
    else:
        W = np.array([_min_norm_weights_fw(Jk @ Jk.T) for Jk in J])
    D = -row_vecmat(W, J)
    return D, W, np.sqrt(row_dot(D, D))


def descend_gather_scatter(model, X0, bounds, cfg, keep_traces):
    """`samo.mgda._descend` as it was before the compact active set: every
    iteration gathers the moving starts from X, updates the flags and
    counts, and scatters the clipped steps back into X. The trace stacks
    each iteration's rows (iteration, start, ||d||, objectives)."""
    X = np.array(X0, dtype=float)
    n_starts = X.shape[0]
    converged = np.zeros(n_starts, dtype=bool)
    iterations = np.full(n_starts, cfg.max_iterations)
    active = np.arange(n_starts)
    rows = []
    for iteration in range(1, cfg.max_iterations + 1):
        Xa = X[active]
        J = np.asarray(model.input_jacobian_batch(Xa), dtype=float)
        if not np.all(np.isfinite(J)):
            raise SamoError(
                f"non-finite gradient at iteration {iteration}; trace length {iteration - 1}"
            )
        D, _, norms = descent_directions_masked(J)
        if keep_traces:
            F = np.asarray(model.predict_batch(Xa), dtype=float)
            rows.append(np.column_stack([np.full(len(active), float(iteration)), active, norms, F]))
        done = norms < cfg.tolerance
        converged[active[done]] = True
        iterations[active[done]] = iteration
        moving = ~done
        active = active[moving]
        if active.size == 0:
            break
        X[active] = np.clip(Xa[moving] + cfg.learning_rate * D[moving], bounds.lower, bounds.upper)
    return X, converged, iterations, np.vstack(rows) if keep_traces else None


def _rbf_kernel_row_major(model, X) -> tuple:
    """(M, C, N) offsets of the scaled inputs from the centers and the
    kernel values, their squares summed over the last, coordinate axis."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    diff = model.scaler.transform_x(X)[:, None, :] - model.centers
    return diff, np.exp(-(diff**2).sum(axis=2) / (2.0 * model.sigma**2))


def rbf_predict_row_major(model, X) -> np.ndarray:
    """`RbfModel.predict_batch` on row-major offsets, its kernel row times the
    weights as a batched matmul."""
    phi = _rbf_kernel_row_major(model, X)[1]
    return model.scaler.inverse_y(row_vecmat(phi, model.weights))


def rbf_input_jacobian_row_major(model, X) -> np.ndarray:
    """`RbfModel.input_jacobian_batch` on row-major offsets, every product
    and scaling into a new array."""
    diff, phi = _rbf_kernel_row_major(model, X)
    dphi = -(phi[:, :, None] * diff) / model.sigma**2
    jac_scaled = model.weights.T @ dphi
    return (model.scaler.y_scale[:, None] * jac_scaled) / model.scaler.x_scale


def fit_rbf_row_major(data, sigma, ridge) -> RbfModel:
    """`fit_rbf` with the squared distances reduced over the last axis of
    an (C, C, N) offset array, without its argument and residual checks."""
    scaler = Scaler.fit(data.X, data.Y)
    Xs = scaler.transform_x(data.X)
    Ys = scaler.transform_y(data.Y)
    d2 = ((Xs[:, None, :] - Xs[None, :, :]) ** 2).sum(axis=2)
    system = np.exp(-d2 / (2.0 * sigma**2)) + ridge * np.eye(len(Xs))
    W = np.linalg.solve(system, Ys)
    W = W + np.linalg.solve(system, Ys - system @ W)
    return RbfModel(sigma=float(sigma), ridge=float(ridge), centers=Xs, weights=W, scaler=scaler)


def leave_one_out_mse(data, sigma, ridge=DEFAULT_RIDGE) -> float:
    """The leave-one-out mean squared error of one width by brute force:
    one refit per left-out sample on the scaler of the whole archive, its
    prediction at that sample, and the error in output units averaged over
    samples and objectives."""
    scaler = Scaler.fit(data.X, data.Y)
    Xs = scaler.transform_x(data.X)
    Ys = scaler.transform_y(data.Y)
    errors = []
    for k in range(len(Xs)):
        keep = np.arange(len(Xs)) != k
        centers, Yk = Xs[keep], Ys[keep]
        d2 = ((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        system = np.exp(-d2 / (2.0 * sigma**2)) + ridge * np.eye(len(centers))
        W = np.linalg.solve(system, Yk)
        W = W + np.linalg.solve(system, Yk - system @ W)
        phi = np.exp(-((centers - Xs[k]) ** 2).sum(axis=1) / (2.0 * sigma**2))
        errors.append((phi @ W - Ys[k]) * scaler.y_scale)
    return float((np.array(errors) ** 2).mean())


def select_rbf_width(data, grid=DEFAULT_SIGMA_GRID, ridge=DEFAULT_RIDGE) -> float:
    """The width search with one `leave_one_out_mse` above per grid width;
    ties go to the smaller width."""
    candidates = sorted(float(s) for s in grid)
    best_sigma = candidates[0]
    best_mse = np.inf
    for sigma in candidates:
        mse = leave_one_out_mse(data, sigma, ridge=ridge)
        if mse < best_mse:
            best_mse = mse
            best_sigma = sigma
    return best_sigma


def rowwise_nsga2(nsga2_run):
    """`nsga2_run` given a surrogate's `predict_batch`, but evaluating each
    population with one `predict` call per row."""

    def run(objective, *args, **kwargs):
        model = objective.__self__

        def rowwise(X):
            return np.array([model.predict(x) for x in X])

        return nsga2_run(rowwise, *args, **kwargs)

    return run


def dominance_sort(F) -> list:
    """Fronts as ascending index arrays, peeled from the dominance matrix."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    dom = dominance_matrix(F)
    fronts = []
    assigned = np.zeros(F.shape[0], dtype=bool)
    remaining = dom.sum(axis=0).astype(int)
    while not assigned.all():
        front = np.flatnonzero((remaining == 0) & ~assigned)
        fronts.append(front)
        assigned[front] = True
        remaining = remaining - dom[front].sum(axis=0)
    return fronts


def non_dominated_filter(points) -> np.ndarray:
    """Indices of the first front peeled from the dominance matrix."""
    return dominance_sort(points)[0]


def crowding_distance(front) -> np.ndarray:
    """Crowding distance of one front, one objective at a time: per-objective
    normalized neighbor gaps, summed; boundary points and fronts of size
    <= 2 get infinity."""
    F = np.atleast_2d(np.asarray(front, dtype=float))
    n, n_obj = F.shape
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    # demoted individuals carry infinite objectives; their span is not a
    # number and contributes nothing
    with np.errstate(invalid="ignore"):
        for k in range(n_obj):
            order = np.argsort(F[:, k], kind="stable")
            vals = F[order, k]
            dist[order[0]] = dist[order[-1]] = np.inf
            span = vals[-1] - vals[0]
            if np.isfinite(span) and span > 0.0:
                dist[order[1:-1]] += (vals[2:] - vals[:-2]) / span
    return dist


def sbx_crossover(p1, p2, prob, eta_c, bounds, rng, var_prob=0.5):
    """One pair of SBX children, drawing its own uniforms."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    c1, c2 = p1.copy(), p2.copy()
    if rng.random() <= prob:
        n = p1.shape[0]
        crossed = rng.random(n) <= var_prob
        u = rng.random(n)
        beta = np.where(
            u <= 0.5,
            (2.0 * u) ** (1.0 / (eta_c + 1.0)),
            (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta_c + 1.0)),
        )
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        b = sign * beta
        child_a = 0.5 * ((1.0 + b) * p1 + (1.0 - b) * p2)
        child_b = 0.5 * ((1.0 - b) * p1 + (1.0 + b) * p2)
        c1[crossed] = child_a[crossed]
        c2[crossed] = child_b[crossed]
    return (
        np.clip(c1, bounds.lower, bounds.upper),
        np.clip(c2, bounds.lower, bounds.upper),
    )


def polynomial_mutation(x, eta_m, per_var_prob, bounds, rng):
    """One mutated child, drawing its own uniforms."""
    x = np.asarray(x, dtype=float)
    y = x.copy()
    n = x.shape[0]
    mutate = rng.random(n) < per_var_prob
    if not mutate.any():
        return y
    u = rng.random(n)
    width = bounds.width
    d_lo = (x - bounds.lower) / width
    d_hi = (bounds.upper - x) / width
    exp = 1.0 / (eta_m + 1.0)
    low_branch = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d_lo) ** (eta_m + 1.0)) ** exp - 1.0
    high_branch = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d_hi) ** (eta_m + 1.0)) ** exp
    delta = np.where(u < 0.5, low_branch, high_branch)
    y[mutate] = (x + delta * width)[mutate]
    return np.clip(y, bounds.lower, bounds.upper)


def sbx_crossover_dense(P1, P2, crossed, u, sign_u, eta_c, bounds) -> tuple:
    """`samo.moea.sbx_crossover` computing the spread and both children in
    every coordinate, then keeping the crossed ones."""
    beta = np.where(
        u <= 0.5,
        (2.0 * u) ** (1.0 / (eta_c + 1.0)),
        (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta_c + 1.0)),
    )
    sign = np.where(sign_u < 0.5, -1.0, 1.0)
    b = sign * beta
    child_a = 0.5 * ((1.0 + b) * P1 + (1.0 - b) * P2)
    child_b = 0.5 * ((1.0 - b) * P1 + (1.0 + b) * P2)
    return (
        np.clip(np.where(crossed, child_a, P1), bounds.lower, bounds.upper),
        np.clip(np.where(crossed, child_b, P2), bounds.lower, bounds.upper),
    )


def polynomial_mutation_dense(X, mutate, u, eta_m, bounds) -> np.ndarray:
    """`samo.moea.polynomial_mutation` computing both step branches for
    every entry, then keeping the mutated ones."""
    width = bounds.width
    d_lo = (X - bounds.lower) / width
    d_hi = (bounds.upper - X) / width
    exp = 1.0 / (eta_m + 1.0)
    low_branch = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d_lo) ** (eta_m + 1.0)) ** exp - 1.0
    high_branch = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d_hi) ** (eta_m + 1.0)) ** exp
    delta = np.where(u < 0.5, low_branch, high_branch)
    return np.clip(np.where(mutate, X + delta * width, X), bounds.lower, bounds.upper)


def variation_uniforms_tables(rng, n_pairs, n, cfg, mutation_prob) -> tuple:
    """`samo.moea._variation_uniforms` as it was before the walk read byte
    masks: where the draws of a pair, or of a child, starting at a position
    would end is tabulated for every position of the peeked block, and the
    walk makes one lookup per pair."""
    bits = rng.bit_generator
    state = bits.state
    block = rng.random(n_pairs * (1 + 7 * n))
    crossing = block <= cfg.crossover_prob
    hits = np.concatenate(([0], (block < mutation_prob).astype(np.intp).cumsum()))
    child_end = np.arange(len(block) - n + 1) + n * (1 + (hits[n:] > hits[:-n]))
    first_child = np.arange(len(block)) + np.where(crossing, 1 + 3 * n, 1)
    pair_end = child_end.take(child_end.take(first_child, mode="clip"), mode="clip")
    starts = []
    pos = 0
    for _ in range(n_pairs):
        starts.append(pos)
        pos = int(pair_end[pos])
    _unpeek(bits, len(block) - pos, state["has_uint32"], state["uinteger"])
    starts = np.array(starts)
    first = first_child[starts]
    children = np.column_stack([first, child_end[first]]).reshape(-1)
    pair = block[starts[:, None, None] + 1 + np.arange(3 * n).reshape(3, n)]
    child = block[children[:, None, None] + np.arange(2 * n).reshape(2, n)]
    crossed = crossing[starts, None] & (pair[:, 0] <= cfg.crossover_var_prob)
    return (crossed, pair[:, 1], pair[:, 2]), (child[:, 0] < mutation_prob, child[:, 1])


def rank_and_crowding(Y) -> tuple:
    """Rank, crowding and fronts of every row of Y: fronts peeled from the
    dominance matrix, each crowded on its own."""
    fronts = dominance_sort(Y)
    rank = np.empty(Y.shape[0], dtype=int)
    crowd = np.empty(Y.shape[0])
    for r, front in enumerate(fronts):
        rank[front] = r
        crowd[front] = crowding_distance(Y[front])
    return rank, crowd, fronts


def tournament(rank, crowd, rng) -> int:
    """One binary tournament on (rank, crowding), sequences indexed by
    position, with one scalar generator call per draw; a tie on both is
    settled by a coin."""
    n = len(rank)
    i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
    if rank[i] != rank[j]:
        return i if rank[i] < rank[j] else j
    if crowd[i] != crowd[j]:
        return i if crowd[i] > crowd[j] else j
    return i if rng.random() < 0.5 else j


def offspring(X, Y, rng, cfg, bounds, mutation_prob):
    """One generation's children, one pair and one child at a time."""
    rank, crowd, _ = rank_and_crowding(Y)
    parents = [tournament(rank, crowd, rng) for _ in range(len(X))]
    off_X = np.empty_like(X)
    for i in range(0, len(X), 2):
        c1, c2 = sbx_crossover(
            X[parents[i]],
            X[parents[i + 1]],
            cfg.crossover_prob,
            cfg.eta_crossover,
            bounds,
            rng,
            var_prob=cfg.crossover_var_prob,
        )
        off_X[i] = polynomial_mutation(c1, cfg.eta_mutation, mutation_prob, bounds, rng)
        off_X[i + 1] = polynomial_mutation(c2, cfg.eta_mutation, mutation_prob, bounds, rng)
    return off_X


def nsga2_run(
    objective, bounds, cfg, *, population_size, seed, snapshot_writer=None, stats=None
) -> ParetoApproximation:
    """`samo.moea.nsga2_run` built from the dominance-matrix sort, per-front
    crowding, survivors gathered front by front, one tournament per child
    and the one-pair operators."""
    rng = np.random.default_rng(seed)
    M = population_size
    mutation_prob = cfg.mutation_prob if cfg.mutation_prob is not None else 1.0 / bounds.dim
    X = latin_hypercube(M, bounds, int(rng.integers(2**31 - 1)))
    Y, demoted = _evaluate(objective, X)
    for gen in range(cfg.generations):
        off_X = offspring(X, Y, rng, cfg, bounds, mutation_prob)
        off_Y, flagged = _evaluate(objective, off_X)
        demoted += flagged
        pool_X = np.vstack([X, off_X])
        pool_Y = np.vstack([Y, off_Y])
        _, pool_crowd, pool_fronts = rank_and_crowding(pool_Y)
        keep = []
        for front in pool_fronts:
            if len(keep) + len(front) <= M:
                keep.extend(front.tolist())
            else:
                order = np.argsort(-pool_crowd[front], kind="stable")
                keep.extend(front[order[: M - len(keep)]].tolist())
                break
        X = pool_X[keep]
        Y = pool_Y[keep]
        if snapshot_writer is not None:
            first = dominance_sort(Y)[0]
            snapshot_writer(gen, X[first], Y[first])
    if stats is not None:
        stats["demoted"] = demoted
    first = dominance_sort(Y)[0]
    return ParetoApproximation.from_arrays(X[first], Y[first])


def integrate_quarter_car(params, exc, t0=0.0, te=2.0, dt=1e-4, initial_state=None):
    """RK4 quarter-car states with the five parameters as numpy scalars,
    the road input computed in the loop and a finiteness check per step."""
    ms, mu, ks, cs, kt = (
        np.float64(v)
        for v in (
            params.sprung_mass,
            params.unsprung_mass,
            params.suspension_stiffness,
            params.suspension_damping,
            params.tire_stiffness,
        )
    )
    amp = exc.amplitude
    omega = 2.0 * math.pi * exc.frequency

    n_steps = int(round((te - t0) / dt))
    if initial_state is None:
        zs = zu = vs = vu = 0.0
    else:
        zs, zu, vs, vu = (float(v) for v in np.asarray(initial_state, dtype=float))

    inv_ms = 1.0 / ms
    inv_mu = 1.0 / mu
    sin = math.sin

    states = np.empty((n_steps + 1, 4))
    states[0] = (zs, zu, vs, vu)
    h = dt
    for i in range(n_steps):
        t = t0 + i * h
        zr1 = amp * sin(omega * t)
        zr2 = amp * sin(omega * (t + 0.5 * h))
        zr3 = amp * sin(omega * (t + h))

        fs = ks * (zs - zu) + cs * (vs - vu)
        a1s = -fs * inv_ms
        a1u = (fs + kt * (zr1 - zu)) * inv_mu

        zs2 = zs + 0.5 * h * vs
        zu2 = zu + 0.5 * h * vu
        vs2 = vs + 0.5 * h * a1s
        vu2 = vu + 0.5 * h * a1u
        fs = ks * (zs2 - zu2) + cs * (vs2 - vu2)
        a2s = -fs * inv_ms
        a2u = (fs + kt * (zr2 - zu2)) * inv_mu

        zs3 = zs + 0.5 * h * vs2
        zu3 = zu + 0.5 * h * vu2
        vs3 = vs + 0.5 * h * a2s
        vu3 = vu + 0.5 * h * a2u
        fs = ks * (zs3 - zu3) + cs * (vs3 - vu3)
        a3s = -fs * inv_ms
        a3u = (fs + kt * (zr2 - zu3)) * inv_mu

        zs4 = zs + h * vs3
        zu4 = zu + h * vu3
        vs4 = vs + h * a3s
        vu4 = vu + h * a3u
        fs = ks * (zs4 - zu4) + cs * (vs4 - vu4)
        a4s = -fs * inv_ms
        a4u = (fs + kt * (zr3 - zu4)) * inv_mu

        zs += h / 6.0 * (vs + 2.0 * vs2 + 2.0 * vs3 + vs4)
        zu += h / 6.0 * (vu + 2.0 * vu2 + 2.0 * vu3 + vu4)
        vs += h / 6.0 * (a1s + 2.0 * a2s + 2.0 * a3s + a4s)
        vu += h / 6.0 * (a1u + 2.0 * a2u + 2.0 * a3u + a4u)

        if not (
            math.isfinite(zs) and math.isfinite(zu) and math.isfinite(vs) and math.isfinite(vu)
        ):
            raise DivergenceError(f"non-finite state at step {i + 1} (t = {t + h:.6g} s)")
        states[i + 1] = (zs, zu, vs, vu)

    time_grid = t0 + dt * np.arange(n_steps + 1)
    return time_grid, states


def quarter_car_objectives(evaluator, x) -> np.ndarray:
    """`QuarterCarEvaluator.__call__` on the integrator above."""
    params = evaluator.params_for(x)
    exc = evaluator.excitation
    time_grid, states = integrate_quarter_car(
        params, exc, evaluator.t0, evaluator.te, evaluator.dt
    )
    road = exc.amplitude * np.sin(2.0 * math.pi * exc.frequency * time_grid)
    zs, zu, vs, vu = states.T
    wheel_load = params.tire_stiffness * (road - zu)
    body_acc = (
        -(params.suspension_stiffness * (zs - zu) + params.suspension_damping * (vs - vu))
        / params.sprung_mass
    )
    half = slice(len(time_grid) // 2, None)
    return np.array([amplitude(wheel_load, half), amplitude(body_acc, half)])


def init_layers(n_in: int, n_out: int, hidden: Sequence[int], rng: np.random.Generator):
    sizes = [n_in, *hidden, n_out]
    weights = []
    biases = []
    for a, b in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (a + b))
        weights.append(rng.uniform(-limit, limit, size=(a, b)))
        biases.append(np.zeros(b))
    return weights, biases


def forward_all(weights, biases, X):
    activations = [X]
    h = X
    for W, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(h @ W + b)
        activations.append(h)
    activations.append(h @ weights[-1] + biases[-1])
    return activations


def mlp_predict_per_layer(model, X) -> np.ndarray:
    """`MlpModel.predict_batch` with a layer loop of its own: the hidden
    layers, then the output layer, on the scaled inputs as (M, 1, N)."""
    h = model.scaler.transform_x(np.atleast_2d(np.asarray(X, dtype=float)))[:, None, :]
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.tanh(h @ W + b)
    return model.scaler.inverse_y((h @ model.weights[-1] + model.biases[-1])[:, 0, :])


def loss_and_grads(weights, biases, X, Y):
    """Mean squared error on (X, Y) and its gradients, ordered as `weights + biases`."""
    activations = forward_all(weights, biases, X)
    diff = activations[-1] - Y
    loss = float((diff**2).mean())
    delta = 2.0 * diff / diff.size
    n_layers = len(weights)
    grads = [None] * (2 * n_layers)
    for layer in range(n_layers - 1, -1, -1):
        grads[layer] = activations[layer].T @ delta
        grads[n_layers + layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (1.0 - activations[layer] ** 2)
    return loss, grads


def train_once(Xs, Ys, cfg: TrainConfig, split_seed: int, init_seed: int):
    """`samo.surrogate._train_once` with one Adam moment array per weight
    and bias, updated and copied one parameter at a time."""
    # the split is shared across restarts so their validation losses are
    # comparable; only the initialization differs
    n = len(Xs)
    order = np.random.default_rng(split_seed).permutation(n)
    rng = np.random.default_rng(init_seed)
    n_val = max(1, int(round(cfg.validation_fraction * n)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    Xt, Yt = Xs[train_idx], Ys[train_idx]
    Xv, Yv = Xs[val_idx], Ys[val_idx]

    # Adam updates `params` in place, so `weights` and `biases` stay current
    weights, biases = init_layers(Xs.shape[1], Ys.shape[1], cfg.hidden, rng)
    params = weights + biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = cfg.learning_rate
    batch = cfg.batch_size if cfg.batch_size > 0 else len(Xt)

    best_val = np.inf
    best_epoch = 0
    best_params = [p.copy() for p in params]
    train_history = []
    val_history = []

    step = 0
    for epoch in range(1, cfg.epochs + 1):
        if batch >= len(Xt):
            batches = [(Xt, Yt)]
        else:
            perm = rng.permutation(len(Xt))
            batches = [
                (Xt[perm[i : i + batch]], Yt[perm[i : i + batch]])
                for i in range(0, len(Xt), batch)
            ]
        epoch_loss = 0.0
        for Xb, Yb in batches:
            loss, grads = loss_and_grads(weights, biases, Xb, Yb)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite training loss at epoch {epoch}")
            epoch_loss += loss * len(Xb)
            step += 1
            bc1 = 1.0 - beta1**step
            bc2 = 1.0 - beta2**step
            for i, (p, g) in enumerate(zip(params, grads)):
                m[i] = beta1 * m[i] + (1.0 - beta1) * g
                v[i] = beta2 * v[i] + (1.0 - beta2) * g**2
                p -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
        train_history.append(epoch_loss / len(Xt))
        val_loss = float(((forward_all(weights, biases, Xv)[-1] - Yv) ** 2).mean())
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        val_history.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = [p.copy() for p in params]
        if epoch - best_epoch >= cfg.patience:
            break
    n_layers = len(weights)
    return best_params[:n_layers], best_params[n_layers:], best_val, train_history, val_history


def dominates(a, b) -> bool:
    """True iff `a` dominates `b` under minimization: a <= b everywhere and
    a < b somewhere."""
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        raise DimensionMismatchError(
            f"objective vectors differ in length: {av.shape} vs {bv.shape}"
        )
    return bool(np.all(av <= bv) and np.any(av < bv))


def kkt_residual(jacobian: np.ndarray) -> float:
    """Minimum over the simplex of || sum_k a_k grad_k ||; zero iff the
    point is critical for the model."""
    return common_descent_direction(jacobian).norm


def mechanical_energy(params, states: np.ndarray) -> np.ndarray:
    """Total mechanical energy of the quarter-car per state row, with the
    road held at zero."""
    zs, zu, vs, vu = states.T
    return (
        0.5 * params.sprung_mass * vs**2
        + 0.5 * params.unsprung_mass * vu**2
        + 0.5 * params.suspension_stiffness * (zs - zu) ** 2
        + 0.5 * params.tire_stiffness * zu**2
    )


def inverse_x(scaler, X: np.ndarray) -> np.ndarray:
    """Undo the scaler's input normalization."""
    return np.asarray(X, dtype=float) * scaler.x_scale + scaler.x_shift


def two_paraboloids_jacobian(x: np.ndarray) -> np.ndarray:
    """Analytic 2 x N Jacobian of the two-paraboloids objectives
    ||x - a||^2 and ||x + a||^2, a = (0.5, ..., 0.5)."""
    x = np.asarray(x, dtype=float)
    a = np.full(x.shape[0], 0.5)
    return np.vstack([2.0 * (x - a), 2.0 * (x + a)])


class GradientModel:
    """The two-paraboloids problem through the surrogate interface
    (predict / input_jacobian and their batch forms) with its analytic
    gradients, for descent-method tests."""

    def __init__(self, problem):
        if problem.name != "two-paraboloids":
            raise ConfigurationError(f"problem {problem.name!r} provides no analytic jacobian")
        self._problem = problem

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._problem.evaluate(np.asarray(x, dtype=float))

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return self._problem.evaluate_batch(X)

    def input_jacobian(self, x: np.ndarray) -> np.ndarray:
        return two_paraboloids_jacobian(x)

    def input_jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.input_jacobian(x) for x in np.atleast_2d(X)])


CONFIGS = Path(__file__).parent.parent / "configs"


def run_config_payload(name: str) -> dict:
    """The config file of a whole-run test: cheap_demo, cheap_demo on a
    10-dimensional box (cheap_demo-n10), or a quarter-car run of
    default.json on a short horizon (qcar-short)."""
    if name.startswith("cheap_demo"):
        payload = json.loads((CONFIGS / "cheap_demo.json").read_text())
        if name == "cheap_demo-n10":
            payload["problem"]["n_dim"] = 10
        return payload
    payload = json.loads((CONFIGS / "default.json").read_text())
    payload["problem"]["horizon"]["te"] = 0.2
    payload["samo"].update(population_size=40, budget=40, batch_size=10)
    payload["samo"]["moea"]["generations"] = 40
    return payload


def untimed_metrics(run_dir: Path) -> dict:
    """A run directory's metrics.json without the timings of its rounds."""
    metrics = json.loads((run_dir / "metrics.json").read_text())
    for r in [*metrics["rounds"], metrics.get("failed_round", {})]:
        r.pop("timings", None)
    return metrics
