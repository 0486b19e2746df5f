"""Reference paths the batched optimizers are tested against.

These are the one-point forms the package used before MGDA stepped all
starts together and NSGA-II evaluated whole populations: one start at a
time with one `predict` / `input_jacobian` call per point, and NSGA-II
objectives evaluated row by row. Tests compare the package against them
with exact equality.
"""

import numpy as np

from samo.core import ConfigurationError, ParetoApproximation, SamoError, non_dominated_filter
from samo.mgda import MgdaResult, _min_norm_weights_fw
from samo.sampling import latin_hypercube


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
        direction, weights, norm = descent_step(jac)
        objectives = np.asarray(model.predict(x), dtype=float)
        rows.append([float(iteration), norm, *objectives.tolist()])
        if norm < cfg.tolerance:
            converged = True
            break
        candidate = np.clip(x + eta * direction, bounds.lower, bounds.upper)
        if cfg.backtracking:
            weighted = float(weights @ objectives)
            local_eta = eta
            for _ in range(30):
                cand_val = float(weights @ np.asarray(model.predict(candidate), dtype=float))
                if cand_val <= weighted or local_eta < 1e-12:
                    break
                local_eta *= 0.5
                candidate = np.clip(x + local_eta * direction, bounds.lower, bounds.upper)
        x = candidate
    return MgdaResult(x=x, converged=converged, iterations=iteration, trace=np.array(rows, dtype=float))


def multistart_mgda(model, bounds, cfg, trace_writer=None, stats=None) -> ParetoApproximation:
    """The starts of `samo.mgda.multistart_mgda`, run one after another."""
    starts = latin_hypercube(cfg.n_starts, bounds, cfg.seed).matrix()
    results = [mgda_run(model, x0, bounds, cfg) for x0 in starts]
    if trace_writer is not None:
        for start_index, result in enumerate(results):
            trace_writer(start_index, result.trace)
    points = [r.x for r in results if r.converged]
    if stats is not None:
        stats.update(
            starts=cfg.n_starts,
            converged=len(points),
            dropped=cfg.n_starts - len(points),
            max_iterations_used=max(r.iterations for r in results),
        )
    if not points:
        raise SamoError("no start converged")
    X = np.array(points)
    Y = np.array([np.asarray(model.predict(x), dtype=float) for x in X])
    keep = non_dominated_filter(Y)
    return ParetoApproximation.from_arrays(X[keep], Y[keep])


def rowwise_nsga2(nsga2_run):
    """`nsga2_run` given a surrogate's `predict_batch`, but evaluating each
    population with one `predict` call per row."""

    def run(objective, *args, **kwargs):
        model = objective.__self__

        def rowwise(X):
            return np.array([model.predict(x) for x in X])

        return nsga2_run(rowwise, *args, **kwargs)

    return run
