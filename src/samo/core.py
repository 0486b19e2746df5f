"""Foundational types and set operations: the sample archive and Pareto
approximations as matrices, Pareto dominance, non-domination ranks and
filtering, Hausdorff distance and box bounds.

All types are immutable after construction and all operations are pure, so
everything here is safe to share across concurrent workers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, Sequence[float]]


class SamoError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(SamoError):
    """Operands have incompatible dimensions."""


class EmptyInputError(SamoError):
    """An operation received an empty set where at least one point is required."""


class ConfigurationError(SamoError):
    """Invalid configuration value or combination."""


class DomainError(SamoError):
    """A point lies outside the feasible design space."""


class DuplicateSampleError(SamoError):
    """A dataset would contain two samples with bitwise-identical coordinates."""


def _finite_1d(values: ArrayLike, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyInputError(f"{what} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise SamoError(f"{what} contains non-finite entries: {arr}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class BoxBounds:
    """Axis-aligned box constraints, lower[i] < upper[i] in every coordinate."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lo = _finite_1d(self.lower, "lower bounds")
        hi = _finite_1d(self.upper, "upper bounds")
        if lo.shape != hi.shape:
            raise DimensionMismatchError(
                f"bound dimensions differ: {lo.shape[0]} vs {hi.shape[0]}"
            )
        if not np.all(lo < hi):
            raise ConfigurationError("every lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @cached_property
    def width(self) -> np.ndarray:
        """upper - lower, computed on first use and read-only like both."""
        width = self.upper - self.lower
        width.flags.writeable = False
        return width

    def contains(self, x: ArrayLike) -> bool:
        arr = np.asarray(x, dtype=float)
        return bool(np.all(arr >= self.lower) and np.all(arr <= self.upper))

    def clip(self, X: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """`np.clip(X, lower, upper)` bit for bit, NaN and signed zeros
        included: the same maximum-then-minimum, without np.clip's
        Python-level dispatch. With `out`, both steps write into it."""
        return np.minimum(np.maximum(X, self.lower, out=out), self.upper, out=out)


def finite_matrix(values, what: str) -> np.ndarray:
    """A read-only float copy of a two-dimensional array of finite values."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{what} must be two-dimensional, got shape {arr.shape}")
    if arr.shape[0] and not arr.shape[1]:
        raise EmptyInputError(f"{what} has rows without entries")
    if not np.all(np.isfinite(arr)):
        raise SamoError(f"{what} contains non-finite entries")
    arr.flags.writeable = False
    return arr


def _repeated_row(X: np.ndarray) -> Optional[int]:
    """Index of a row of X that repeats another bit for bit, or None.

    Rows are compared as raw bytes, so 0.0 and -0.0 count as different.
    """
    if X.shape[0] < 2:
        return None
    rows = np.ascontiguousarray(X).view(np.dtype((np.void, X.itemsize * X.shape[1]))).ravel()
    order = np.argsort(rows, kind="stable")
    repeats = np.flatnonzero(rows[order[1:]] == rows[order[:-1]])
    return int(order[repeats[0] + 1]) if repeats.size else None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered archive of expensive samples: row i of Y (n, K) is the true
    model output at row i of X (n, N). Both matrices are read-only.

    Duplicate detection is bitwise on the rows of X; near-duplicates are
    the informed-sampling module's concern, not the archive's.
    """

    X: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    Y: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __post_init__(self) -> None:
        X = finite_matrix(self.X, "sample decisions")
        Y = finite_matrix(self.Y, "sample objectives")
        if X.shape[0] != Y.shape[0]:
            raise DimensionMismatchError(
                f"{X.shape[0]} decision rows but {Y.shape[0]} objective rows"
            )
        repeated = _repeated_row(X)
        if repeated is not None:
            raise DuplicateSampleError(f"duplicate decision vector in dataset: {X[repeated]}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    def __len__(self) -> int:
        return self.X.shape[0]

    def with_samples(self, X: np.ndarray, Y: np.ndarray) -> "Dataset":
        """A new dataset with the rows of (X, Y) appended, preserving order."""
        if not len(self):
            return Dataset(X, Y)
        return Dataset(np.vstack([self.X, X]), np.vstack([self.Y, Y]))


@dataclass(frozen=True, eq=False)
class ParetoApproximation:
    """Row-aligned decision set X (n, N) and objective-space front F (n, K),
    both read-only.

    Construction verifies that the front is non-empty, finite and mutually
    non-dominated.
    """

    X: np.ndarray
    F: np.ndarray

    def __post_init__(self) -> None:
        X = finite_matrix(self.X, "decision set")
        F = finite_matrix(self.F, "front")
        if X.shape[0] != F.shape[0]:
            raise DimensionMismatchError(
                f"decision set has {X.shape[0]} members but front has {F.shape[0]}"
            )
        if F.shape[0] == 0:
            raise EmptyInputError("Pareto approximation must contain at least one point")
        if len(non_dominated_filter(F)) != F.shape[0]:
            raise SamoError("front members must be mutually non-dominated")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "F", F)

    def __len__(self) -> int:
        return self.F.shape[0]

    @classmethod
    def from_arrays(cls, X: np.ndarray, F: np.ndarray) -> "ParetoApproximation":
        return cls(np.atleast_2d(X), np.atleast_2d(F))


def point_matrix(points, what: str) -> np.ndarray:
    """A point set, a sequence of vectors or an array, as an (n, K) float
    matrix; one vector is one point. Raises DimensionMismatchError beyond
    two dimensions and EmptyInputError for no point or no coordinate."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{what} must be a sequence of points")
    if arr.size == 0:
        raise EmptyInputError(f"{what} must not be empty")
    return arr


def dominance_matrix(F: np.ndarray) -> np.ndarray:
    """Boolean matrix D with D[i, j] true iff point i dominates point j."""
    leq = np.all(F[:, None, :] <= F[None, :, :], axis=2)
    lt = np.any(F[:, None, :] < F[None, :, :], axis=2)
    return leq & lt


def front_ranks_2d(F: np.ndarray) -> np.ndarray:
    """Non-domination rank of every row of an (n, 2) objective matrix
    without NaN: 0 for the non-dominated points, r + 1 for the points that
    are non-dominated once all points of rank <= r are removed.

    One sweep in lexicographic (f1, f2) order (Kung, Luccio & Preparata
    1975; Jensen 2003), so every dominator of a point is swept before it.
    The last point swept into a front has the smallest f2 of that front so
    far, and the point is dominated by the front iff that member's f2 is
    <= its own and the two are not exact duplicates. Those f2 values do not
    decrease from front to front, so a binary search counts the k fronts
    whose last f2 is <= the point's; the point's rank is k, or k - 1 when
    it duplicates the last member of front k - 1 (no earlier front can end
    in a duplicate). Takes O(n log n) and agrees with the dominance-matrix
    peeling on ties, duplicates and infinite values.
    """
    order = np.lexsort((F[:, 1], F[:, 0]))
    last_f1: list = []
    last_f2: list = []
    swept = []
    for a, b in zip(F[order, 0].tolist(), F[order, 1].tolist()):
        k = bisect_right(last_f2, b)
        if k and last_f2[k - 1] == b and last_f1[k - 1] == a:
            k -= 1
        if k == len(last_f2):
            last_f1.append(a)
            last_f2.append(b)
        else:
            last_f1[k] = a
            last_f2[k] = b
        swept.append(k)
    rank = np.empty(order.shape[0], dtype=np.intp)
    rank[order] = swept
    return rank


def front_ranks(F: np.ndarray) -> np.ndarray:
    """Non-domination rank of every row of an (n, K) objective matrix, as
    defined in `front_ranks_2d`.

    Two objectives without NaN take the sweep of `front_ranks_2d`; any
    other input peels the dominance matrix one front at a time.
    """
    if F.shape[1] == 2 and not np.isnan(F).any():
        return front_ranks_2d(F)
    dom = dominance_matrix(F)
    n_dominators = dom.sum(axis=0)
    rank = np.full(F.shape[0], -1, dtype=np.intp)
    while (rank < 0).any():
        front = np.flatnonzero((n_dominators == 0) & (rank < 0))
        rank[front] = rank.max() + 1
        n_dominators = n_dominators - dom[front].sum(axis=0)
    return rank


def non_dominated_mask(F: np.ndarray) -> np.ndarray:
    """`front_ranks(F) == 0` for a non-empty (n, K) objective matrix,
    without ranking the later fronts.

    Two objectives without NaN take one lexicographic (f1, f2) sort: every
    row before a point has an f1 <= its own, so the point is dominated iff
    some earlier row that is not its exact duplicate has an f2 <= its own.
    Duplicates sort next to each other, so those rows are the ones before
    the point's run of duplicates, and one running minimum of f2 decides.
    Any other input asks the dominance matrix for a dominator.
    """
    if F.shape[1] != 2 or np.isnan(F).any():
        return ~dominance_matrix(F).any(axis=0)
    order = np.lexsort((F[:, 1], F[:, 0]))
    f1, f2 = F[order, 0], F[order, 1]
    distinct = np.ones(len(order), dtype=bool)
    distinct[1:] = (f1[1:] != f1[:-1]) | (f2[1:] != f2[:-1])
    run_start = np.maximum.accumulate(np.where(distinct, np.arange(len(order)), 0))
    least_f2 = np.minimum.accumulate(f2)
    mask = np.empty(len(order), dtype=bool)
    mask[order] = (run_start == 0) | (least_f2[run_start - 1] > f2)
    return mask


def non_dominated_filter(points) -> np.ndarray:
    """Indices of all points not dominated by any other point, in input
    order: the rows of `non_dominated_mask`."""
    return np.flatnonzero(non_dominated_mask(point_matrix(points, "point set")))


def hausdorff_distance(X, Y) -> float:
    """Hausdorff distance between two finite point sets.

    The directed distance from a point to a set is the minimum Euclidean
    distance; the result is the larger of the two directed maxima.
    """
    Xa = point_matrix(X, "first set")
    Ya = point_matrix(Y, "second set")
    if Xa.shape[1] != Ya.shape[1]:
        raise DimensionMismatchError(
            f"sets differ in objective count: {Xa.shape[1]} vs {Ya.shape[1]}"
        )
    d = np.sqrt(((Xa[:, None, :] - Ya[None, :, :]) ** 2).sum(axis=2))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
