"""Elitist non-dominated-sorting genetic algorithm (NSGA-II style) used to
optimize the surrogate problem: non-domination ranks, crowding distance,
binary tournament, simulated binary crossover and polynomial mutation with
environmental selection from the combined parent/offspring pool.

Tournaments, crossover and mutation act on the whole population at once but
consume the generator exactly as one tournament, one pair and one child at a
time would, so a seed gives the same run bit for bit. The tournament indices
are drawn in one call, and a tie rewinds the generator to a saved state to
draw its coin in turn. The crossover and mutation uniforms are drawn as one
block, which a walk over the pairs splits by reading two byte masks of it;
the generator is then rewound and draws again only the doubles the pairs
used. A generation passes around one rank vector. Survival ranks only the
fronts it needs: `samo.core.front_ranks` peels the pool's fronts until
they hold the population. Survivors are chosen by one stable sort on
(rank, crowding on the front cut by the population size) and crowded once,
front by front, by `crowding_distance`: one stable sort of all the front's
columns.
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
    ParetoApproximation,
    dominance_matrix,  # unused here; resolves the `moea.dominance_matrix` trace site
    front_ranks,
    point_matrix,
)
from .sampling import latin_hypercube

logger = logging.getLogger(__name__)


def check_population_size(population_size: int) -> None:
    """NSGA-II breeds its children in pairs, so its population is even."""
    if population_size < 2 or population_size % 2 != 0:
        raise ConfigurationError("population_size must be even and at least 2")


@dataclass(frozen=True)
class MoeaConfig:
    generations: int = 200
    crossover_prob: float = 0.5
    eta_crossover: float = 20.0
    eta_mutation: float = 20.0
    mutation_prob: Optional[float] = None  # None = 1/N
    crossover_var_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.generations < 1:
            raise ConfigurationError("generations must be at least 1")
        for name in ("crossover_prob", "crossover_var_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")
        for name in ("eta_crossover", "eta_mutation"):
            if not getattr(self, name) >= 0.0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.mutation_prob is not None and not 0.0 <= self.mutation_prob <= 1.0:
            raise ConfigurationError("mutation_prob must lie in [0, 1]")


def fast_non_dominated_sort(pop) -> list:
    """Partition a population into fronts: front 0 is the non-dominated set,
    front i+1 is non-dominated once fronts <= i are removed.

    Takes the objectives as a `samo.core.point_matrix` point set; returns a
    list of ascending index arrays, the rows of `samo.core.front_ranks`
    grouped by rank.
    """
    F = point_matrix(pop, "population")
    rank = front_ranks(F)
    return np.split(np.argsort(rank, kind="stable"), np.cumsum(np.bincount(rank))[:-1])


def crowding_distance(front) -> np.ndarray:
    """Per-objective normalized neighbor gaps of a `samo.core.point_matrix`
    point set, summed; boundary points and fronts of size <= 2 get infinity.

    One stable sort of every column puts the front in f_k order with ties
    in index order. Inner points get their neighbour gap over the span,
    unless that span is not a positive number; the gaps are added objective
    by objective.
    """
    F = point_matrix(front, "front")
    n, n_obj = F.shape
    order = np.argsort(F, axis=0, kind="stable")
    columns = np.arange(n_obj)
    vals = F[order, columns]
    by_row = np.zeros((n_obj, n))
    # demoted individuals carry infinite objectives; a span holding them is
    # not a number and contributes nothing
    with np.errstate(invalid="ignore", over="ignore"):
        span = vals[-1] - vals[0]
        counted = np.isfinite(span) & (span > 0.0)
        gap = vals[2:] - vals[:-2]
        gap = np.divide(gap, span, out=np.zeros_like(gap), where=counted)
    by_row[columns, order[1:-1]] = gap
    crowd = np.zeros(n)
    for objective_gap in by_row:
        crowd += objective_gap
    crowd[order[0]] = crowd[order[-1]] = np.inf
    return crowd


def _crowding(Y: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Crowding distance of every row of Y within its front, the rows of
    rank r; `rank` holds every value from 0 to its largest."""
    if not rank.any():
        return crowding_distance(Y)
    crowd = np.empty(len(Y))
    for r in range(rank.max() + 1):
        front = rank == r
        crowd[front] = crowding_distance(Y[front])
    return crowd


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
    coordinate before clamping. Only the crossed coordinates are computed."""
    uc = u[crossed]
    exp = 1.0 / (eta_c + 1.0)
    beta = np.where(uc <= 0.5, (2.0 * uc) ** exp, (1.0 / (2.0 * (1.0 - uc))) ** exp)
    b = np.where(sign_u[crossed] < 0.5, -1.0, 1.0) * beta
    p1, p2 = P1[crossed], P2[crossed]
    C1, C2 = P1.copy(), P2.copy()
    C1[crossed] = 0.5 * ((1.0 + b) * p1 + (1.0 - b) * p2)
    C2[crossed] = 0.5 * ((1.0 - b) * p1 + (1.0 + b) * p2)
    return bounds.clip(C1), bounds.clip(C2)


def polynomial_mutation(
    X: np.ndarray,
    mutate: np.ndarray,
    u: np.ndarray,
    eta_m: float,
    bounds: BoxBounds,
) -> np.ndarray:
    """Bounded polynomial mutation with distribution index `eta_m` of the
    (M, N) rows X where `mutate` is true, with the step drawn through the
    uniform `u`. Only the mutated entries are computed."""
    cols = np.nonzero(mutate)[1]
    x, um = X[mutate], u[mutate]
    lower, upper = bounds.lower[cols], bounds.upper[cols]
    width = bounds.width[cols]
    d_lo = (x - lower) / width
    d_hi = (upper - x) / width
    exp = 1.0 / (eta_m + 1.0)
    low_branch = (2.0 * um + (1.0 - 2.0 * um) * (1.0 - d_lo) ** (eta_m + 1.0)) ** exp - 1.0
    high_branch = 1.0 - (2.0 * (1.0 - um) + 2.0 * (um - 0.5) * (1.0 - d_hi) ** (eta_m + 1.0)) ** exp
    Y = X.copy()
    Y[mutate] = x + np.where(um < 0.5, low_branch, high_branch) * width
    return bounds.clip(Y)


def _variation_uniforms(rng, n_pairs: int, n: int, cfg: MoeaConfig, mutation_prob: float) -> tuple:
    """The uniforms for crossing `n_pairs` pairs of N = `n` variables and
    mutating both children, drawn in the one-pair order: per pair a
    crossover coin; if it is <= `crossover_prob`, n crossed-variable, n
    spread and n sign uniforms; then per child n mask uniforms, followed by
    n step uniforms if any mask uniform is < `mutation_prob`.

    How many doubles a pair draws depends on its own draws, so a block big
    enough for every pair is drawn, and its coins and mask uniforms are
    compared with their probabilities once, into two byte strings. A walk
    from pair to pair reads a pair's coin from the first and finds a hit
    among a child's mask uniforms with one `bytes.find` on the second. The
    generator is then rewound to its state before the block and draws the
    doubles the pairs used again; doubles leave the 32-bit integer buffer
    of that state alone.
    Returns (crossed, u, sign_u) of shape (n_pairs, n) for `sbx_crossover`
    and (mutate, u) of shape (2 n_pairs, n), children in pair order, for
    `polynomial_mutation`.
    """
    bits = rng.bit_generator
    state = bits.state
    block = rng.random(n_pairs * (1 + 7 * n))  # the most the pairs can draw
    crossing = block <= cfg.crossover_prob
    coins = crossing.tobytes()
    hits = (block < mutation_prob).tobytes()
    crossed_draws, stepped_draws = 1 + 3 * n, 2 * n
    starts = []
    children = []
    pos = 0
    for _ in range(n_pairs):
        starts.append(pos)
        first = pos + crossed_draws if coins[pos] else pos + 1
        # a child draws n step uniforms after its mask iff the mask has a hit
        second = first + (stepped_draws if hits.find(1, first, first + n) >= 0 else n)
        pos = second + (stepped_draws if hits.find(1, second, second + n) >= 0 else n)
        children += (first, second)
    bits.state = state
    rng.random(pos)

    starts = np.array(starts)
    # a pair that does not cross, or a child that takes no step, reads
    # uniforms of later draws here; its mask ignores them
    pair = block[starts[:, None, None] + 1 + np.arange(3 * n).reshape(3, n)]
    child = block[np.array(children)[:, None, None] + np.arange(2 * n).reshape(2, n)]
    crossed = crossing[starts, None] & (pair[:, 0] <= cfg.crossover_var_prob)
    return (crossed, pair[:, 1], pair[:, 2]), (child[:, 0] < mutation_prob, child[:, 1])


def _evaluate(objective, X: np.ndarray) -> tuple:
    """Evaluate a population with one objective call, mapping non-finite
    outputs to +inf (worst rank)."""
    Y = np.array(objective(X), dtype=float)
    if Y.ndim != 2 or Y.shape[0] != X.shape[0]:
        raise DimensionMismatchError(
            f"objective returned shape {Y.shape} for {X.shape[0]} points; expected (M, K)"
        )
    finite = np.isfinite(Y)
    if finite.all():
        return Y, 0
    bad = ~finite.all(axis=1)
    flagged = int(bad.sum())
    if flagged:
        logger.warning("%d individuals returned non-finite objectives; demoted", flagged)
        Y[bad] = np.inf
    return Y, flagged


def _tournaments(rank, crowd, m: int, rng) -> np.ndarray:
    """The parents of `m` binary tournaments on (rank, crowding), drawn
    exactly as `m` tournaments one at a time would: two `rng.integers(0, n)`
    indices, n = len(rank), and an `rng.random() < 0.5` coin when the pair
    ties on both rank and crowding.

    `rank` and `crowd` are indexed with arrays of positions. Every index
    still needed is drawn in one call, which draws what as many scalar calls
    would, and the pairs before the first tie are settled at once. A tie's
    coin follows its own pair's indices, so the generator is rewound to its
    state before the call, draws the indices up to that pair again, then the
    coin, and the tournaments after it are drawn anew.
    """
    n = len(rank)
    bits = rng.bit_generator
    parents = np.empty(m, dtype=np.int64)
    done = 0
    while done < m:
        state = bits.state
        i, j = rng.integers(0, n, size=(m - done, 2)).T
        rank_i, rank_j, crowd_i, crowd_j = rank[i], rank[j], crowd[i], crowd[j]
        i_wins = np.where(rank_i != rank_j, rank_i < rank_j, crowd_i > crowd_j)
        ties = np.flatnonzero((rank_i == rank_j) & (crowd_i == crowd_j))
        settled = ties[0] + 1 if len(ties) else m - done
        if len(ties):
            bits.state = state
            rng.integers(0, n, size=(settled, 2))
            i_wins[settled - 1] = rng.random() < 0.5
        parents[done : done + settled] = np.where(i_wins, i, j)[:settled]
        done += settled
    return parents


def _offspring(
    X, rank, crowd, rng, cfg: MoeaConfig, bounds: BoxBounds, mutation_prob: float
) -> np.ndarray:
    """One generation's children of the population X with its non-domination
    `rank` and `crowd`ing distance: a binary tournament per child, SBX of
    consecutive parents, then polynomial mutation of every child."""
    P = X[_tournaments(rank, crowd, len(X), rng)]
    crossover, mutation = _variation_uniforms(rng, len(X) // 2, bounds.dim, cfg, mutation_prob)
    c1, c2 = sbx_crossover(P[0::2], P[1::2], *crossover, cfg.eta_crossover, bounds)
    children = np.empty_like(X)
    children[0::2] = c1
    children[1::2] = c2
    return polynomial_mutation(children, *mutation, cfg.eta_mutation, bounds)


def nsga2_run(
    objective: Callable[[np.ndarray], np.ndarray],
    bounds: BoxBounds,
    cfg: MoeaConfig,
    *,
    population_size: int,
    seed: int,
    snapshot_writer: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None,
    stats: Optional[dict] = None,
) -> ParetoApproximation:
    """Full generational loop; returns the final population's first front.

    `objective` maps a (population_size, N) population to its objectives
    and is called once per population (a surrogate's `predict_batch`, or
    `Problem.evaluate_batch`). `seed` seeds the run's one generator. The
    initial population is a Latin hypercube over the box. Parents are
    chosen by binary tournament on (rank, crowding); survivors are the best
    of parents plus offspring (elitism).
    `snapshot_writer(gen, X, Y)` is called with the current first front
    after each generation when given. A `stats` dict, when given, receives
    `demoted`: how many evaluated individuals had non-finite objectives.
    """
    check_population_size(population_size)
    rng = np.random.default_rng(seed)
    M = population_size
    mutation_prob = cfg.mutation_prob if cfg.mutation_prob is not None else 1.0 / bounds.dim

    X = latin_hypercube(M, bounds, int(rng.integers(2**31 - 1)))
    Y, demoted = _evaluate(objective, X)
    rank = front_ranks(Y)
    crowd = _crowding(Y, rank)

    for gen in range(cfg.generations):
        off_X = _offspring(X, rank, crowd, rng, cfg, bounds, mutation_prob)
        off_Y, flagged = _evaluate(objective, off_X)
        demoted += flagged

        pool_Y = np.concatenate((Y, off_Y))
        # whole fronts while they fit, then the most crowded-apart members of
        # the front cut by the population size, ties to the lower pool index.
        # Removing worse fronts leaves each survivor's rank as it was in the
        # pool. The sort is stable, so a whole front keeps pool-index order,
        # its crowding breaks ties as in the pool and is the pool's bit for bit.
        # Ranking stops at the front that fills the population; the rows
        # left share the next rank, and none of them survives.
        pool_rank = front_ranks(pool_Y, fill=M)
        cut = pool_rank == np.sort(pool_rank)[M]
        spread = np.zeros(2 * M)
        spread[cut] = -crowding_distance(pool_Y[cut])
        keep = np.lexsort((spread, pool_rank))[:M]
        X = np.concatenate((X, off_X))[keep]
        Y = pool_Y[keep]
        rank = pool_rank[keep]
        crowd = _crowding(Y, rank)

        if snapshot_writer is not None:
            first = rank == 0
            snapshot_writer(gen, X[first], Y[first])

    if stats is not None:
        stats["demoted"] = demoted
    first = rank == 0
    return ParetoApproximation.from_arrays(X[first], Y[first])
