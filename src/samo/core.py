"""Foundational types and set operations: the sample archive and Pareto
approximations as matrices, Pareto dominance, non-domination ranks and
filtering, Hausdorff distance and box bounds.

All types are immutable after construction and all operations are pure, so
everything here is safe to share across concurrent workers.

The one JSON codec of config files and saved surrogates lives here too:
`_file_values` reads a section, `_encode` writes one.
"""

from __future__ import annotations

import json
import reprlib
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache, cached_property
from inspect import signature
from pathlib import Path
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

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


def non_dominated_mask(F: np.ndarray) -> np.ndarray:
    """True for the rows of an (n, K) objective matrix that no other row
    dominates: its first front.

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


def front_ranks(F: np.ndarray, fill: Optional[int] = None) -> np.ndarray:
    """Non-domination rank of every row of an (n, K) objective matrix: 0
    for its first front, r + 1 for the first front of the rows left once
    all rows of rank <= r are removed.

    Peels `non_dominated_mask` front by front. With `fill`, it stops once
    at least `fill` rows are ranked, and the rows left share the next rank.
    """
    n = F.shape[0]
    stop = n if fill is None else fill
    dominated = ~non_dominated_mask(F)
    rank = dominated.astype(np.intp)
    left = np.flatnonzero(dominated)
    while left.size and n - left.size < stop:
        left = left[~non_dominated_mask(F[left])]
        rank[left] += 1
    return rank


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


def _read_text(path, what: str) -> str:
    """The text of file `path`, a `what` such as "config file"; the one
    reader of every file samo reads."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's own text repeats the path
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigurationError(f"cannot read {what} {path}: {reason}") from exc


def _read_json(path, what: str):
    """The JSON document in file `path`, a `what` such as "config file"."""
    try:
        return json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what} {path} is not valid JSON: {exc}") from exc


def _section(value, where: str) -> dict:
    """The file section `where`: a JSON object, or null, which keeps the
    defaults of all its keys."""
    if value is not None and not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be an object or null, got {value!r}")
    return {} if value is None else value


def _reject_keys(keys, what: str, where: str) -> None:
    """Raise for `what` ("unknown" or "missing") `keys` of section `where`."""
    if keys:
        raise ConfigurationError(f"{what} keys in {where}: {sorted(keys)}")


_EXPECTED = {int: "an integer", float: "a finite number", str: "a string"}
_EXPECTED[np.ndarray] = "nested lists of finite numbers"


def _scalar(hint, value):
    """`value` as type `hint` (int, float, str or np.ndarray), or None when
    a file may not give it for that type; floats, array entries too, are finite."""
    if hint is np.ndarray:
        # nested lists of one shape give an object array of numbers, others one of lists
        entries = np.array(value, dtype=object).ravel() if isinstance(value, list) else [None]
        numbers = all(_scalar(float, v) is not None for v in entries)
        return np.array(value, dtype=float) if numbers else None
    if hint is str:
        return value if type(value) is str else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if hint is int:
        return int(value) if isinstance(value, int) or value.is_integer() else None
    return float(value) if abs(value) <= sys.float_info.max else None


def _cast(hint, value, key: str):
    """A file value checked against its field's declared type: a dataclass
    takes a section, Optional[T] what T takes, tuple[T, ...] a list of
    those and any other type what `_scalar` accepts."""
    if is_dataclass(hint):
        return hint(**_file_values(hint, value, key))
    if get_origin(hint) is Union:
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        items = [_scalar(item, v) for v in value] if isinstance(value, (list, tuple)) else [None]
        if all(v is not None for v in items):
            return tuple(items)
        expected = f"a list, each entry {_EXPECTED[item]}"
    else:
        cast = _scalar(hint, value)
        if cast is not None:
            return cast
        expected = _EXPECTED[hint]
    # reprlib shortens a saved array, which runs to thousands of numbers
    raise ConfigurationError(f"{key} must be {expected}, got {reprlib.repr(value)}")


@cache  # `signature` takes tens of microseconds; every model saved asks again
def _file_keys(target) -> dict:
    """The `inspect.Parameter` of every field of dataclass `target`, or of
    every parameter of function `target`, by name, in order, but of the
    fields whose metadata holds `in_file=False`: the keys of its section,
    one shared dict that callers only read."""
    declared = fields(target) if is_dataclass(target) else ()
    hidden = {f.name for f in declared if f.metadata.get("in_file") is False}
    return {n: p for n, p in signature(target).parameters.items() if n not in hidden}


def _file_values(target, section, where: str) -> dict:
    """Values one file section sets for the `_file_keys` of `target`. Other
    keys are rejected, as are left-out keys without a default; values are
    checked against the declared types, and null values are dropped, so
    they keep the default."""
    hints = get_type_hints(target)
    section = _section(section, where)
    _reject_keys(set(section) - set(_file_keys(target)), "unknown", where)
    required = [k for k, p in _file_keys(target).items() if p.default is p.empty]
    _reject_keys([k for k in required if section.get(k) is None], "missing", where)
    return {k: _cast(hints[k], v, f"{where}.{k}") for k, v in section.items() if v is not None}


def _encode(value):
    """The JSON form of a file value, which `_file_values` reads back: a
    dataclass a section of its `_file_keys`, an array its nested lists and
    a tuple the tuple of its entries' forms, which `json` writes as a list."""
    if is_dataclass(value):
        return {n: _encode(getattr(value, n)) for n in _file_keys(type(value))}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return tuple(_encode(v) for v in value)
    return value
