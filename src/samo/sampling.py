"""Space-filling and Pareto-informed sampling.

The initial design is a Latin hypercube; subsequent batches are k-means
centroids of the current surrogate Pareto set so that new expensive samples
are spread evenly over the region the optimizer currently believes optimal.
"""

from __future__ import annotations

import numpy as np

from .core import BoxBounds, ConfigurationError, Dataset, ParetoApproximation, point_matrix

_KMEANS_MAX_ITER = 300
_DUPLICATE_RADIUS = 1e-9


def latin_hypercube(s: int, bounds: BoxBounds, seed: int) -> np.ndarray:
    """`s` points, the rows of an (s, N) matrix, with exactly one point per
    axis stratum, jittered uniformly within each stratum."""
    if s < 1:
        raise ConfigurationError("sample count s must be at least 1")
    rng = np.random.default_rng(seed)
    n = bounds.dim
    out = np.empty((s, n))
    width = bounds.width
    for j in range(n):
        strata = rng.permutation(s)
        out[:, j] = bounds.lower[j] + (strata + rng.random(s)) * (width[j] / s)
    return out


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    closest = ((X - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total > 0.0:
            probs = closest / total
            idx = rng.choice(n, p=probs)
        else:
            idx = rng.integers(n)
        centroids[i] = X[idx]
        closest = np.minimum(closest, ((X - centroids[i]) ** 2).sum(axis=1))
    return centroids


def _lloyd(X: np.ndarray, k: int, rng: np.random.Generator):
    centroids = _kmeans_pp_init(X, k, rng)
    labels = None
    for _ in range(_KMEANS_MAX_ITER):
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = labels == j
            if members.any():
                centroids[j] = X[members].mean(axis=0)
            else:
                # re-seat an empty cluster on the point farthest from its centroid
                worst = int(np.argmax(d2[np.arange(len(X)), labels]))
                centroids[j] = X[worst]
                labels[worst] = j
    return centroids


def kmeans(points, k: int, seed: int) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding on a `samo.core.point_matrix`
    point set; runs to an assignment fixpoint or 300 iterations.
    Deterministic for a fixed seed."""
    X = point_matrix(points, "k-means points")
    n_distinct = np.unique(X, axis=0).shape[0]
    if k < 1 or k > n_distinct:
        raise ConfigurationError(
            f"k must be between 1 and the number of distinct points ({n_distinct}), got {k}"
        )
    return _lloyd(X, k, np.random.default_rng(seed))


def pareto_informed_samples(
    pareto: ParetoApproximation,
    s: int,
    existing: Dataset,
    bounds: BoxBounds,
    seed: int,
) -> np.ndarray:
    """Next expensive batch: k-means centroids of the surrogate Pareto set,
    clamped to bounds, with duplicates of already-sampled points replaced.

    A centroid that lands within 1e-9 of an archive point is swapped for the
    nearest Pareto-set member not yet sampled; if everything is already in
    the archive, a fresh uniform random point is drawn instead.
    """
    if s < 1:
        raise ConfigurationError("sample count s must be at least 1")
    decision = pareto.X
    rng = np.random.default_rng(seed)
    archive = existing.X

    n_distinct = np.unique(decision, axis=0).shape[0]
    k = min(s, n_distinct)
    centroids = bounds.clip(kmeans(decision, k, seed))

    chosen: list[np.ndarray] = []

    def taken(point: np.ndarray) -> bool:
        # an empty archive has no minimum distance, so nothing is near it
        if len(archive) and np.min(((archive - point) ** 2).sum(axis=1)) <= _DUPLICATE_RADIUS**2:
            return True
        return any(np.array_equal(point, c) for c in chosen)

    def fresh_random() -> np.ndarray:
        while True:
            candidate = rng.uniform(bounds.lower, bounds.upper)
            if not taken(candidate):
                return candidate

    for c in centroids:
        if not taken(c):
            chosen.append(c)
            continue
        # nearest Pareto-set member that is not in the archive or this batch
        order = np.argsort(((decision - c) ** 2).sum(axis=1), kind="stable")
        for idx in order:
            member = bounds.clip(decision[idx])
            if not taken(member):
                chosen.append(member)
                break
        else:
            chosen.append(fresh_random())

    while len(chosen) < s:
        chosen.append(fresh_random())

    return np.array(chosen)
