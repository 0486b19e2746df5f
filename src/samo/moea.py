"""Elitist non-dominated-sorting genetic algorithm (NSGA-II style) used to
optimize the surrogate problem: fast non-dominated sorting, crowding
distance, binary tournament, simulated binary crossover and polynomial
mutation with environmental selection from the combined parent/offspring
pool.

Crossover and mutation act on the whole population at once but consume the
generator exactly as crossing one pair and mutating one child at a time
would, so a seed gives the same run bit for bit.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
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
    front_ranks_2d,
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
        for name in ("eta_crossover", "eta_mutation"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.mutation_prob is not None and not 0.0 <= self.mutation_prob <= 1.0:
            raise ConfigurationError("mutation_prob must lie in [0, 1]")


def fast_non_dominated_sort(pop) -> list:
    """Partition a population into fronts: front 0 is the non-dominated set,
    front i+1 is non-dominated once fronts <= i are removed.

    Takes an (n, K) array of objectives; returns a list of ascending index
    arrays. Two objectives without NaN take the O(n log n) sweep of
    `front_ranks_2d`; any other input peels the dominance matrix.
    """
    F = np.atleast_2d(np.asarray(pop, dtype=float))
    if F.shape[0] == 0:
        raise EmptyInputError("population must not be empty")
    if F.shape[1] == 2 and not np.isnan(F).any():
        rank = front_ranks_2d(F)
        by_rank = np.argsort(rank, kind="stable")
        return np.split(by_rank, np.cumsum(np.bincount(rank))[:-1])
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
    P1: np.ndarray,
    P2: np.ndarray,
    crossed: np.ndarray,
    u: np.ndarray,
    sign_u: np.ndarray,
    eta_c: float,
    bounds: BoxBounds,
) -> tuple:
    """Simulated binary crossover of the parent rows P1[i], P2[i], all
    (P, N). Where `crossed` is true the two coordinates are replaced by
    children spread by a factor drawn from the SBX density with index
    `eta_c` through the uniform `u`; the uniform `sign_u` < 0.5 swaps which
    child lies near which parent. Children are clamped to the box. The
    children's midpoint equals the parents' midpoint in every crossed
    coordinate before clamping."""
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


def polynomial_mutation(
    X: np.ndarray,
    mutate: np.ndarray,
    u: np.ndarray,
    eta_m: float,
    bounds: BoxBounds,
) -> np.ndarray:
    """Bounded polynomial mutation with distribution index `eta_m` of the
    (M, N) rows X where `mutate` is true, with the step drawn through the
    uniform `u`."""
    width = bounds.width
    d_lo = (X - bounds.lower) / width
    d_hi = (bounds.upper - X) / width
    exp = 1.0 / (eta_m + 1.0)
    low_branch = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d_lo) ** (eta_m + 1.0)) ** exp - 1.0
    high_branch = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d_hi) ** (eta_m + 1.0)) ** exp
    delta = np.where(u < 0.5, low_branch, high_branch)
    return np.clip(np.where(mutate, X + delta * width, X), bounds.lower, bounds.upper)


def _variation_uniforms(rng, n_pairs: int, n: int, cfg: MoeaConfig, mutation_prob: float) -> tuple:
    """The uniforms for crossing `n_pairs` pairs of N = `n` variables and
    mutating both children, drawn in the one-pair order: per pair a
    crossover coin; if it is <= `crossover_prob`, n crossed-variable, n
    spread and n sign uniforms; then per child n mask uniforms, followed by
    n step uniforms if any mask uniform is < `mutation_prob`.

    How many doubles a pair draws depends on its own draws, so a block big
    enough for every pair is peeked, a walk through it finds where each
    pair's and child's draws start, and the generator is rewound and
    advanced by exactly the doubles consumed. `Generator.random` fills
    sequentially, so one call for k doubles equals k calls for one.
    Returns (crossed, u, sign_u) of shape (n_pairs, n) for `sbx_crossover`
    and (mutate, u) of shape (2 n_pairs, n), children in pair order, for
    `polynomial_mutation`.
    """
    state = rng.bit_generator.state
    block = rng.random(n_pairs * (1 + 7 * n))  # the most the pairs can draw
    hits = np.flatnonzero(block < mutation_prob).tolist()
    starts, crossing, masks = [], [], []
    pos = 0
    for _ in range(n_pairs):
        starts.append(pos)
        crossing.append(bool(block[pos] <= cfg.crossover_prob))
        pos += 1 + 3 * n * crossing[-1]
        for _child in range(2):
            masks.append(pos)
            k = bisect_left(hits, pos)
            pos += 2 * n if k < len(hits) and hits[k] < pos + n else n
    rng.bit_generator.state = state
    rng.random(pos)

    cols = np.arange(n)
    pair = np.array(starts)[:, None] + 1 + cols
    crossed = np.array(crossing)[:, None] & (block[pair] <= cfg.crossover_var_prob)
    child = np.array(masks)[:, None] + cols
    return (
        (crossed, block[pair + n], block[pair + 2 * n]),
        (block[child] < mutation_prob, block[child + n]),
    )


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


def _tournament(rank: list, crowd: list, rng) -> int:
    """Binary tournament on (rank, crowding) held as Python lists; a tie on
    both is settled by a coin."""
    n = len(rank)
    i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
    if rank[i] != rank[j]:
        return i if rank[i] < rank[j] else j
    if crowd[i] != crowd[j]:
        return i if crowd[i] > crowd[j] else j
    return i if rng.random() < 0.5 else j


def _offspring(X, Y, rng, cfg: MoeaConfig, bounds: BoxBounds, mutation_prob: float) -> np.ndarray:
    """One generation's children of the population (X, Y): a binary
    tournament per child, SBX of consecutive parents, then polynomial
    mutation of every child."""
    rank, crowd, _ = _rank_and_crowding(Y)
    rank, crowd = rank.tolist(), crowd.tolist()
    parents = np.array([_tournament(rank, crowd, rng) for _ in range(len(X))])
    crossover, mutation = _variation_uniforms(rng, len(X) // 2, bounds.dim, cfg, mutation_prob)
    c1, c2 = sbx_crossover(
        X[parents[0::2]], X[parents[1::2]], *crossover, cfg.eta_crossover, bounds
    )
    children = np.empty_like(X)
    children[0::2] = c1
    children[1::2] = c2
    return polynomial_mutation(children, *mutation, cfg.eta_mutation, bounds)


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

    X = latin_hypercube(M, bounds, int(rng.integers(2**31 - 1)))
    Y, demoted = _evaluate(objective, X)

    for gen in range(cfg.generations):
        off_X = _offspring(X, Y, rng, cfg, bounds, mutation_prob)
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
