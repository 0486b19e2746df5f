"""Elitist non-dominated-sorting genetic algorithm (NSGA-II style) used to
optimize the surrogate problem: fast non-dominated sorting, crowding
distance, binary tournament, simulated binary crossover and polynomial
mutation with environmental selection from the combined parent/offspring
pool.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    BoxBounds,
    ConfigurationError,
    DimensionMismatchError,
    EmptyInputError,
    ParetoApproximation,
    dominance_matrix,
)
from .sampling import latin_hypercube

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MoeaConfig:
    population_size: int = 100
    generations: int = 200
    crossover_prob: float = 0.5
    eta_crossover: float = 20.0
    eta_mutation: float = 20.0
    mutation_prob: Optional[float] = None  # None = 1/N
    crossover_var_prob: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2 or self.population_size % 2 != 0:
            raise ConfigurationError("population_size must be even and at least 2")
        if self.generations < 1:
            raise ConfigurationError("generations must be at least 1")
        for name in ("crossover_prob", "crossover_var_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")
        if self.mutation_prob is not None and not 0.0 <= self.mutation_prob <= 1.0:
            raise ConfigurationError("mutation_prob must lie in [0, 1]")


def fast_non_dominated_sort(pop) -> list:
    """Partition a population into fronts: front 0 is the non-dominated set,
    front i+1 is non-dominated once fronts <= i are removed.

    Takes an (n, K) array of objectives; returns a list of index arrays.
    """
    F = np.atleast_2d(np.asarray(pop, dtype=float))
    if F.shape[0] == 0:
        raise EmptyInputError("population must not be empty")
    dom = dominance_matrix(F)
    n_dominators = dom.sum(axis=0)
    fronts = []
    assigned = np.zeros(F.shape[0], dtype=bool)
    remaining = n_dominators.astype(int)
    while not assigned.all():
        front = np.flatnonzero((remaining == 0) & ~assigned)
        fronts.append(front)
        assigned[front] = True
        remaining = remaining - dom[front].sum(axis=0)
    return fronts


def crowding_distance(front) -> np.ndarray:
    """Per-objective normalized neighbor gaps, summed; boundary points and
    fronts of size <= 2 get infinity."""
    F = np.atleast_2d(np.asarray(front, dtype=float))
    n, n_obj = F.shape
    if n == 0:
        raise EmptyInputError("front must not be empty")
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for k in range(n_obj):
        order = np.argsort(F[:, k], kind="stable")
        vals = F[order, k]
        dist[order[0]] = dist[order[-1]] = np.inf
        # demoted individuals carry infinite objectives; their span is not a
        # number and contributes nothing
        with np.errstate(invalid="ignore"):
            span = vals[-1] - vals[0]
        if np.isfinite(span) and span > 0.0:
            dist[order[1:-1]] += (vals[2:] - vals[:-2]) / span
    return dist


def sbx_crossover(
    p1: np.ndarray,
    p2: np.ndarray,
    prob: float,
    eta_c: float,
    bounds: BoxBounds,
    rng: np.random.Generator,
    var_prob: float = 0.5,
):
    """Simulated binary crossover. With probability `prob` the pair is
    crossed; within a crossed pair each variable is crossed with probability
    `var_prob` using a spread factor drawn from the SBX density with index
    `eta_c` (random child/parent association). Children are clamped to the
    box. The children's midpoint equals the parents' midpoint in every
    crossed coordinate before clamping."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise ConfigurationError("parents must have matching dimensions")
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


def polynomial_mutation(
    x: np.ndarray,
    eta_m: float,
    per_var_prob: float,
    bounds: BoxBounds,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bounded polynomial mutation with distribution index `eta_m`."""
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


def _evaluate(objective, X: np.ndarray) -> tuple:
    """Evaluate a population with one objective call, mapping non-finite
    outputs to +inf (worst rank)."""
    Y = np.array(objective(X), dtype=float)
    if Y.ndim != 2 or Y.shape[0] != X.shape[0]:
        raise DimensionMismatchError(
            f"objective returned shape {Y.shape} for {X.shape[0]} points; expected (M, K)"
        )
    bad = ~np.isfinite(Y).all(axis=1)
    flagged = int(bad.sum())
    if flagged:
        logger.warning("%d individuals returned non-finite objectives; demoted", flagged)
        Y[bad] = np.inf
    return Y, flagged


def _rank_and_crowding(Y: np.ndarray) -> tuple:
    fronts = fast_non_dominated_sort(Y)
    rank = np.empty(Y.shape[0], dtype=int)
    crowd = np.empty(Y.shape[0])
    for r, front in enumerate(fronts):
        rank[front] = r
        crowd[front] = crowding_distance(Y[front])
    return rank, crowd, fronts


def _tournament(rank, crowd, rng) -> int:
    i, j = rng.integers(0, rank.shape[0], size=2)
    if rank[i] != rank[j]:
        return int(i if rank[i] < rank[j] else j)
    if crowd[i] != crowd[j]:
        return int(i if crowd[i] > crowd[j] else j)
    return int(i if rng.random() < 0.5 else j)


def nsga2_run(
    objective: Callable[[np.ndarray], np.ndarray],
    bounds: BoxBounds,
    cfg: MoeaConfig,
    snapshot_writer: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None,
    stats: Optional[dict] = None,
) -> ParetoApproximation:
    """Full generational loop; returns the final population's first front.

    `objective` maps an (M, N) population to its (M, K) objectives and is
    called once per population (a surrogate's `predict_batch`, or
    `Problem.evaluate_batch`). The initial population is a Latin hypercube
    over the box. Parents are chosen by binary tournament on (rank,
    crowding); survivors are the best of parents plus offspring (elitism).
    `snapshot_writer(gen, X, Y)` is called with the current first front
    after each generation when given. A `stats` dict, when given, receives
    `demoted`: how many evaluated individuals had non-finite objectives.
    """
    rng = np.random.default_rng(cfg.seed)
    M = cfg.population_size
    mutation_prob = cfg.mutation_prob if cfg.mutation_prob is not None else 1.0 / bounds.dim

    X = latin_hypercube(M, bounds, int(rng.integers(2**31 - 1))).matrix()
    Y, demoted = _evaluate(objective, X)

    for gen in range(cfg.generations):
        rank, crowd, _ = _rank_and_crowding(Y)
        parents = [_tournament(rank, crowd, rng) for _ in range(M)]
        off_X = np.empty_like(X)
        for i in range(0, M, 2):
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
        off_Y, flagged = _evaluate(objective, off_X)
        demoted += flagged

        pool_X = np.vstack([X, off_X])
        pool_Y = np.vstack([Y, off_Y])
        _, pool_crowd, pool_fronts = _rank_and_crowding(pool_Y)
        keep: list[int] = []
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
            first = fast_non_dominated_sort(Y)[0]
            snapshot_writer(gen, X[first], Y[first])

    if stats is not None:
        stats["demoted"] = demoted
    first = fast_non_dominated_sort(Y)[0]
    return ParetoApproximation.from_arrays(X[first], Y[first])
