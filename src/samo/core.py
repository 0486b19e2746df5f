"""Foundational types and set operations: decision/objective vectors, Pareto
dominance, non-dominance filtering, Hausdorff distance and box bounds.

All types are immutable after construction and all operations are pure, so
everything here is safe to share across concurrent workers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

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
class DecisionVector:
    """A point in design space.

    Equality and hashing are bitwise on the coordinates, which is what the
    dataset's duplicate rejection relies on.
    """

    coords: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _finite_1d(self.coords, "decision vector"))

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.coords, dtype=dtype)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecisionVector):
            return NotImplemented
        return self.coords.shape == other.coords.shape and (
            self.coords.tobytes() == other.coords.tobytes()
        )

    def __hash__(self) -> int:
        return hash(self.coords.tobytes())


@dataclass(frozen=True, eq=False)
class ObjectiveVector:
    """A point in objective space; non-finite values are rejected at construction."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _finite_1d(self.values, "objective vector"))

    def __len__(self) -> int:
        return self.values.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.values, dtype=dtype)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectiveVector):
            return NotImplemented
        return self.values.shape == other.values.shape and (
            self.values.tobytes() == other.values.tobytes()
        )

    def __hash__(self) -> int:
        return hash(self.values.tobytes())


@dataclass(frozen=True)
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

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x: ArrayLike) -> bool:
        arr = np.asarray(x, dtype=float)
        return bool(np.all(arr >= self.lower) and np.all(arr <= self.upper))


@dataclass(frozen=True)
class Sample:
    """One expensive evaluation: y is always the true model output for x."""

    x: DecisionVector
    y: ObjectiveVector
    iteration: int = 0

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ConfigurationError("sample iteration tag must be non-negative")


@dataclass(frozen=True)
class Dataset:
    """Ordered archive of expensive samples with exact-duplicate rejection.

    Duplicate detection is bitwise on the coordinates; near-duplicates are
    the informed-sampling module's concern, not the archive's.
    """

    samples: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        samples = tuple(self.samples)
        seen = set()
        for s in samples:
            if s.x in seen:
                raise DuplicateSampleError(
                    f"duplicate decision vector in dataset: {s.x.coords}"
                )
            seen.add(s.x)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def with_samples(self, new: Iterable[Sample]) -> "Dataset":
        """A new dataset extended by `new`, preserving order."""
        return Dataset(self.samples + tuple(new))

    def decision_matrix(self) -> np.ndarray:
        return np.array([s.x.coords for s in self.samples], dtype=float)

    def objective_matrix(self) -> np.ndarray:
        return np.array([s.y.values for s in self.samples], dtype=float)


@dataclass(frozen=True)
class ParetoApproximation:
    """Index-aligned decision-space set and objective-space front.

    Construction verifies mutual non-dominance of the front.
    """

    decision_set: tuple
    front: tuple

    def __post_init__(self) -> None:
        dec = tuple(self.decision_set)
        fr = tuple(self.front)
        if len(dec) != len(fr):
            raise DimensionMismatchError(
                f"decision set has {len(dec)} members but front has {len(fr)}"
            )
        if len(fr) == 0:
            raise EmptyInputError("Pareto approximation must contain at least one point")
        F = np.array([f.values for f in fr], dtype=float)
        keep = non_dominated_filter(F)
        if len(keep) != len(fr):
            raise SamoError("front members must be mutually non-dominated")
        object.__setattr__(self, "decision_set", dec)
        object.__setattr__(self, "front", fr)

    def __len__(self) -> int:
        return len(self.front)

    @classmethod
    def from_arrays(cls, X: np.ndarray, F: np.ndarray) -> "ParetoApproximation":
        return cls(
            tuple(DecisionVector(x) for x in np.atleast_2d(X)),
            tuple(ObjectiveVector(f) for f in np.atleast_2d(F)),
        )

    def decision_matrix(self) -> np.ndarray:
        return np.array([d.coords for d in self.decision_set], dtype=float)

    def front_matrix(self) -> np.ndarray:
        return np.array([f.values for f in self.front], dtype=float)


def _as_points(points, what: str) -> np.ndarray:
    """Coerce a sequence of objective vectors (or an array) to an (n, K) matrix."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{what} must be a sequence of points")
    if arr.shape[0] == 0:
        raise EmptyInputError(f"{what} must not be empty")
    return arr


def dominates(a: ArrayLike, b: ArrayLike) -> bool:
    """True iff `a` dominates `b` under minimization: a <= b everywhere and
    a < b somewhere."""
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        raise DimensionMismatchError(
            f"objective vectors differ in length: {av.shape} vs {bv.shape}"
        )
    return bool(np.all(av <= bv) and np.any(av < bv))


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


def non_dominated_filter(points) -> np.ndarray:
    """Indices of all points not dominated by any other point, in input order."""
    F = _as_points(points, "point set")
    if F.shape[1] == 2 and not np.isnan(F).any():
        return np.flatnonzero(front_ranks_2d(F) == 0)
    dominated = dominance_matrix(F).any(axis=0)
    return np.flatnonzero(~dominated)


def hausdorff_distance(X, Y, normalize: bool = False) -> float:
    """Hausdorff distance between two finite point sets.

    The directed distance from a point to a set is the minimum Euclidean
    distance; the result is the larger of the two directed maxima. With
    ``normalize=True`` both sets are first mapped into the unit box spanned
    by their union (degenerate coordinates are left unscaled).
    """
    Xa = _as_points(X, "first set")
    Ya = _as_points(Y, "second set")
    if Xa.shape[1] != Ya.shape[1]:
        raise DimensionMismatchError(
            f"sets differ in objective count: {Xa.shape[1]} vs {Ya.shape[1]}"
        )
    if normalize:
        both = np.vstack([Xa, Ya])
        lo = both.min(axis=0)
        span = both.max(axis=0) - lo
        span = np.where(span > 0.0, span, 1.0)
        Xa = (Xa - lo) / span
        Ya = (Ya - lo) / span
    d = np.sqrt(((Xa[:, None, :] - Ya[None, :, :]) ** 2).sum(axis=2))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def clamp_to_bounds(x: ArrayLike, bounds: BoxBounds) -> DecisionVector:
    """Project a point coordinate-wise into the box."""
    arr = np.asarray(x, dtype=float)
    if arr.shape[0] != bounds.dim:
        raise DimensionMismatchError(
            f"point has {arr.shape[0]} coordinates, bounds have {bounds.dim}"
        )
    return DecisionVector(np.clip(arr, bounds.lower, bounds.upper))
