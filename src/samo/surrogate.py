"""Cheap vector-valued approximations of the expensive objective map.

Two model families are provided, both trained on normalized data and both
exposing values and exact input Jacobians:

* a Gaussian-kernel radial basis function interpolant with a small ridge
  term for conditioning, and
* a fully connected two-hidden-layer (64/64) tanh network trained with
  adaptive moment estimation on the mean squared error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import ClassVar, Optional, Protocol, Sequence, Union

import numpy as np

from .core import (
    ConfigurationError,
    Dataset,
    DimensionMismatchError,
    SamoError,
    _encode,
    _file_values,
    _read_json,
    _section,
)

DEFAULT_SIGMA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
DEFAULT_RIDGE = 1e-8


class SolverError(SamoError):
    """The interpolation system could not be solved accurately."""


class TrainingError(SamoError):
    """Network training produced a non-finite loss."""


class SurrogateModel(Protocol):
    """What the optimizers need from a model.

    `predict` maps an N-vector to K objectives and `input_jacobian` returns
    the exact K x N Jacobian there. The batch forms take an (M, N) array and
    return (M, K) and (M, K, N). Row i of a batch result must equal the
    one-point result at X[i] bit for bit: NSGA-II evaluates whole
    populations and MGDA steps all its starts with the batch forms, and
    their output must not depend on how points are grouped.
    """

    def predict(self, x: np.ndarray) -> np.ndarray: ...

    def predict_batch(self, X: np.ndarray) -> np.ndarray: ...

    def input_jacobian(self, x: np.ndarray) -> np.ndarray: ...

    def input_jacobian_batch(self, X: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True, eq=False)
class Scaler:
    """Per-coordinate affine normalization for inputs and outputs.

    Fitted as zero-mean unit-deviation on the training data; coordinates
    with zero spread keep scale one so the transform stays invertible.
    """

    x_shift: np.ndarray
    x_scale: np.ndarray
    y_shift: np.ndarray
    y_scale: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.x_scale <= 0.0) or np.any(self.y_scale <= 0.0):
            raise ConfigurationError("scaler scales must be strictly positive")

    @classmethod
    def fit(cls, X: np.ndarray, Y: np.ndarray) -> "Scaler":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        xs = X.std(axis=0)
        ys = Y.std(axis=0)
        return cls(
            x_shift=X.mean(axis=0),
            x_scale=np.where(xs > 0.0, xs, 1.0),
            y_shift=Y.mean(axis=0),
            y_scale=np.where(ys > 0.0, ys, 1.0),
        )

    def transform_x(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.x_shift) / self.x_scale

    def transform_y(self, Y: np.ndarray) -> np.ndarray:
        return (np.asarray(Y, dtype=float) - self.y_shift) / self.y_scale

    def inverse_y(self, Y: np.ndarray) -> np.ndarray:
        return np.asarray(Y, dtype=float) * self.y_scale + self.y_shift


@dataclass(frozen=True)
class TrainConfig:
    """Network training schedule.

    `batch_size` of zero means full batch. `restarts` independent
    initializations are trained and the one with the lowest validation loss
    is kept, which guards against unlucky initial weights.
    """

    epochs: int = 2000
    learning_rate: float = 1e-3
    batch_size: int = 0
    validation_fraction: float = 0.2
    patience: int = 200
    restarts: int = 1
    hidden: tuple[int, ...] = field(default=(64, 64), metadata={"in_file": False})

    def __post_init__(self) -> None:
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigurationError("validation_fraction must lie in (0, 1)")
        if self.epochs < 1 or self.patience < 1 or self.restarts < 1:
            raise ConfigurationError("epochs, patience and restarts must be positive")
        if not self.learning_rate > 0.0:
            raise ConfigurationError("learning_rate must be strictly positive")
        if self.batch_size < 0:
            raise ConfigurationError("batch_size must be non-negative (0 = full batch)")


@dataclass(frozen=True)
class RbfConfig:
    """Width and ridge of the RBF interpolant. Each fit takes the width
    of `grid` with the least leave-one-out error (`select_rbf_width`); a
    grid of one width fixes it. Widths are positive and finite."""

    grid: tuple[float, ...] = DEFAULT_SIGMA_GRID
    ridge: float = DEFAULT_RIDGE

    def __post_init__(self) -> None:
        if not self.grid or not all(0.0 < width < np.inf for width in self.grid):
            raise ConfigurationError("rbf.grid must hold at least one width, all positive and finite")
        if not self.ridge >= 0.0:
            raise ConfigurationError("rbf.ridge must be non-negative")


def _validation_rows(n: int, validation_fraction: float) -> int:
    """Rows of an n-sample archive that network training holds out."""
    return max(1, int(round(validation_fraction * n)))


def min_training_samples(kind: str, validation_fraction: float = 0.2) -> int:
    """The fewest samples a surrogate of `kind` is fitted on: for the
    network, the least n of at least 5 whose split by `validation_fraction`
    keeps a training row; 2 for an RBF, since its width search leaves one
    sample out and still needs a center."""
    if kind == "mlp":
        # no n below 0.5 / (1 - fraction) keeps a training row; starting
        # there bounds the search for a fraction near 1
        n = max(5, int(0.5 / (1.0 - validation_fraction)))
        while n - _validation_rows(n, validation_fraction) < 1:
            n += 1
        return n
    return 2


def _input_matrix(X: np.ndarray, n_dim: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n_dim:
        raise DimensionMismatchError(f"expected an (M, {n_dim}) array of inputs")
    return X


def _scaled_offsets(X: np.ndarray, scaler: Scaler, centers_by_coordinate) -> np.ndarray:
    """(N, M, C) offsets of the scaled rows of X from C centers given as
    (N, 1, C), C-ordered, so each coordinate's slice is one contiguous
    block; numpy would otherwise lay it out like the transposed inputs."""
    Xs = np.subtract(_input_matrix(X, len(centers_by_coordinate)), scaler.x_shift)
    np.divide(Xs, scaler.x_scale, out=Xs)
    return np.subtract(Xs.T[:, :, None], centers_by_coordinate, order="C")


def _pairwise_sum(sq: np.ndarray) -> np.ndarray:
    """Sum of the slices of `sq` over its first axis, in a new array, bit
    for bit numpy's `.sum(axis=-1)` of the same values with that axis last.

    numpy reduces a contiguous axis pairwise: sequentially below 8 terms,
    in eight interleaved accumulators up to 128, and by halves (cut at a
    multiple of 8) above. Adding whole coordinate slices in that order
    keeps every squared distance, and so every kernel value, what the
    row-major form computes, while each addition runs over a long axis.
    """
    n = len(sq)
    # a reduction over the outer axis adds the slices one after another
    if n < 8:
        return np.add.reduce(sq, axis=0)
    if n <= 128:
        blocked = n - n % 8
        r = sq[:blocked].reshape(blocked // 8, 8, *sq.shape[1:]).sum(axis=0)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for k in range(blocked, n):
            total += sq[k]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(sq[:half]) + _pairwise_sum(sq[half:])


def _gaussian(d2: np.ndarray, minus_two_sigma_sq: float, out=None) -> np.ndarray:
    """The Gaussian kernel exp(-d^2 / (2 sigma^2)) of squared distances
    `d2`, given -(2 sigma^2), in `out` or a new array; x / -c equals
    -x / c bit for bit for every non-NaN x."""
    phi = np.divide(d2, minus_two_sigma_sq, out=out)
    return np.exp(phi, out=phi)


def _scaled_distances(data: Dataset) -> tuple:
    """The scaler of the archive, its scaled inputs Xs and their (n, n)
    squared distances, by the steps of `RbfModel`'s batch forms."""
    scaler = Scaler.fit(data.X, data.Y)
    Xs = scaler.transform_x(data.X)
    diff = _scaled_offsets(data.X, scaler, Xs.T[:, None, :])
    return scaler, Xs, _pairwise_sum(np.multiply(diff, diff, out=diff))


@dataclass(frozen=True, eq=False)
class RbfModel:
    """Gaussian-kernel interpolant phi(r) = exp(-r^2 / (2 sigma^2)) with all
    (scaled) training inputs as centers.

    The batch forms compute the (N, M, C) offsets of `_scaled_offsets` and
    take the square, the coordinate sum, the kernel and the scalings in place on
    arrays the call made. What they need of the model alone is computed
    once per model, on first use, and kept: the centers as (N, 1, C),
    weights.T, -(2 sigma^2), -(sigma^2) and y_scale as a column. These are
    not dataclass fields, so they are never serialized. A Jacobian of one
    point on the `paraboloid-rbf-mgda` round-0 model (4 coordinates, 20
    centers) takes about 11 us, and one of 60 points about 26 us.
    """

    kind: ClassVar[str] = "rbf"
    sigma: float
    ridge: float
    centers: np.ndarray
    weights: np.ndarray
    scaler: Scaler

    @property
    def n_dim(self) -> int:
        return self.centers.shape[1]

    @cached_property
    def _centers_by_coordinate(self) -> np.ndarray:
        return self.centers.T[:, None, :]

    @cached_property
    def _weights_t(self) -> np.ndarray:
        return self.weights.T

    @cached_property
    def _minus_two_sigma_sq(self) -> float:
        return -(2.0 * self.sigma**2)

    @cached_property
    def _minus_sigma_sq(self) -> float:
        return -(self.sigma**2)

    @cached_property
    def _y_scale_column(self) -> np.ndarray:
        return self.scaler.y_scale[:, None]

    def _kernel(self, sq: np.ndarray) -> np.ndarray:
        """Kernel values of the squared offsets `sq`, summed over the
        coordinates by `_pairwise_sum`."""
        d2 = _pairwise_sum(sq)
        return _gaussian(d2, self._minus_two_sigma_sq, out=d2)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        diff = _scaled_offsets(X, self.scaler, self._centers_by_coordinate)
        phi = self._kernel(np.multiply(diff, diff, out=diff))
        # one vector-matrix product per row, so every row equals the
        # one-point prediction bit for bit (a 2-D phi @ weights does not)
        Y = np.vecmat(phi, self.weights)
        np.multiply(Y, self.scaler.y_scale, out=Y)
        return np.add(Y, self.scaler.y_shift, out=Y)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_batch(np.asarray(x, dtype=float)[None, :])[0]

    def input_jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        diff = _scaled_offsets(X, self.scaler, self._centers_by_coordinate)
        phi = self._kernel(diff * diff)
        # d phi_i / d xs = -phi_i * (xs - c_i) / sigma^2, as (N, M, C)
        dphi = np.multiply(diff, phi, out=diff)
        np.divide(dphi, self._minus_sigma_sq, out=dphi)
        jac = self._weights_t @ dphi.transpose(1, 2, 0)
        np.multiply(jac, self._y_scale_column, out=jac)
        return np.divide(jac, self.scaler.x_scale, out=jac)

    def input_jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.input_jacobian_batch(np.asarray(x, dtype=float)[None, :])[0]


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Fully connected tanh network mapping scaled inputs to scaled outputs."""

    kind: ClassVar[str] = "mlp"
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    scaler: Scaler
    train_history: tuple[float, ...] = ()
    val_history: tuple[float, ...] = ()

    @property
    def n_dim(self) -> int:
        return self.weights[0].shape[0]

    def _layers(self, X: np.ndarray) -> list:
        """`_forward_all` on the scaled inputs as (M, 1, N): every layer is
        one vector-matrix product per row, so every row equals the one-point
        forward pass bit for bit."""
        h = self.scaler.transform_x(_input_matrix(X, self.n_dim))[:, None, :]
        return _forward_all(self.weights, self.biases, h)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return self.scaler.inverse_y(self._layers(X)[-1][:, 0, :])

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_batch(np.asarray(x, dtype=float)[None, :])[0]

    def input_jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        layers = self._layers(X)
        jac = np.repeat(self.weights[-1].T[None], len(layers[0]), axis=0)
        for W, act in zip(reversed(self.weights[:-1]), reversed(layers[1:-1])):
            jac = (jac * (1.0 - act**2)) @ W.T
        return (self.scaler.y_scale[:, None] * jac) / self.scaler.x_scale

    def input_jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.input_jacobian_batch(np.asarray(x, dtype=float)[None, :])[0]


def _check_rbf_fit(n: int, sigma: float, ridge: float) -> None:
    """Reject an RBF fit on fewer than two samples, with a width that is
    not positive and finite or with a negative ridge."""
    if n < min_training_samples("rbf"):
        raise ConfigurationError("RBF fitting needs at least two samples")
    # an infinite width flattens the kernel to ones: no longer an interpolant
    if not 0.0 < sigma < np.inf:
        raise ConfigurationError("kernel width sigma must be strictly positive and finite")
    if not ridge >= 0.0:
        raise ConfigurationError("ridge parameter must be non-negative")


def _rbf_weights(system: np.ndarray, Ys: np.ndarray) -> np.ndarray:
    """Weights W of the regularized symmetric system (Phi + ridge * I) W =
    Ys, Phi the kernel of the centers' squared distances; raises
    `SolverError` when the system cannot be solved accurately."""
    try:
        W = np.linalg.solve(system, Ys)
        # one step of iterative refinement keeps the residual near machine
        # precision even for wide, badly conditioned kernels
        W = W + np.linalg.solve(system, Ys - system @ W)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"singular interpolation system ({exc}); use a ridge parameter > 0"
        ) from exc
    # backward (relative) residual: the computed product A @ W itself carries
    # rounding of order eps * ||A|| * ||W||, so the check must be relative
    scale = float(np.abs(Ys).max() + np.abs(system).max() * np.abs(W).max())
    residual = float(np.abs(system @ W - Ys).max()) / max(scale, 1e-300)
    if not np.isfinite(residual) or residual > 1e-8:
        raise SolverError(
            f"interpolation residual {residual:.3e} exceeds 1e-8; "
            "the system is too ill-conditioned, use a larger ridge parameter"
        )
    return W


def fit_rbf(data: Dataset, sigma: float, ridge: float = DEFAULT_RIDGE) -> RbfModel:
    """Interpolate the archive with a Gaussian-kernel model of width `sigma`
    by solving the regularized symmetric system (Phi + ridge * I) W = Y."""
    _check_rbf_fit(len(data), sigma, ridge)
    scaler, Xs, d2 = _scaled_distances(data)
    system = _gaussian(d2, -(2.0 * sigma**2), out=d2) + ridge * np.eye(len(Xs))
    W = _rbf_weights(system, scaler.transform_y(data.Y))
    return RbfModel(sigma=float(sigma), ridge=float(ridge), centers=Xs, weights=W, scaler=scaler)


def _leave_one_out_mses(data: Dataset, widths: Sequence[float], ridge: float) -> list:
    """Leave-one-out mean squared error of every width in `widths`, in
    order, in output units over all samples and objectives, on the scaler
    of the whole archive. By Rippa's closed form (Adv. Comput. Math. 11,
    1999) the fit without sample k errs at sample k by W[k] / inv(A)[k, k],
    for A = Phi + ridge * I and W = inv(A) Y: a width costs `_rbf_weights`,
    with its residual check, and one inverse, but no refit.
    """
    scaler, Xs, d2 = _scaled_distances(data)
    Ys = scaler.transform_y(data.Y)
    mses = []
    for sigma in widths:
        _check_rbf_fit(len(Xs), sigma, ridge)
        # a new kernel array, so d2 serves every width
        system = _gaussian(d2, -(2.0 * sigma**2)) + ridge * np.eye(len(Xs))
        residuals = _rbf_weights(system, Ys) / np.diagonal(np.linalg.inv(system))[:, None]
        mses.append(float(((residuals * scaler.y_scale) ** 2).mean()))
    return mses


def select_rbf_width(
    data: Dataset, grid: Sequence[float] = DEFAULT_SIGMA_GRID, ridge: float = DEFAULT_RIDGE
) -> float:
    """Grid member with the lowest leave-one-out mean squared error
    (`_leave_one_out_mses`); ties go to the smaller width."""
    if len(grid) == 0:
        raise ConfigurationError("sigma grid must not be empty")
    widths = [float(s) for s in grid]
    return min(zip(_leave_one_out_mses(data, widths, ridge), widths))[1]


def _layer_views(flat: np.ndarray, sizes: Sequence[int]) -> tuple:
    """The (a, b) weights of every layer, then its (b,) biases, viewed as
    consecutive row-major blocks of `flat`."""
    shapes = [*zip(sizes[:-1], sizes[1:]), *((b,) for b in sizes[1:])]
    ends = np.cumsum([np.prod(shape, dtype=int) for shape in shapes])[:-1]
    views = [block.reshape(shape) for block, shape in zip(np.split(flat, ends), shapes)]
    return views[: len(sizes) - 1], views[len(sizes) - 1 :]


def _forward_all(weights, biases, X):
    activations = [X]
    h = X
    for W, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(h @ W + b)
        activations.append(h)
    activations.append(h @ weights[-1] + biases[-1])
    return activations


def _loss_and_grads(weights, biases, X, Y, weight_grads, bias_grads) -> float:
    """Mean squared error on (X, Y); its gradients are written into
    `weight_grads` and `bias_grads`."""
    activations = _forward_all(weights, biases, X)
    diff = activations[-1] - Y
    loss = float((diff**2).mean())
    delta = 2.0 * diff / diff.size
    for layer in range(len(weights) - 1, -1, -1):
        np.matmul(activations[layer].T, delta, out=weight_grads[layer])
        np.sum(delta, axis=0, out=bias_grads[layer])
        if layer > 0:
            delta = (delta @ weights[layer].T) * (1.0 - activations[layer] ** 2)
    return loss


def _train_once(Xs, Ys, cfg: TrainConfig, split_seed: int, init_seed: int):
    # the split is shared across restarts so their validation losses are
    # comparable; only the initialization differs
    n = len(Xs)
    order = np.random.default_rng(split_seed).permutation(n)
    rng = np.random.default_rng(init_seed)
    n_val = _validation_rows(n, cfg.validation_fraction)
    val_idx, train_idx = order[:n_val], order[n_val:]
    Xt, Yt = Xs[train_idx], Ys[train_idx]
    Xv, Yv = Xs[val_idx], Ys[val_idx]

    # weights and biases are views into one flat vector `theta`, and their
    # gradients into `grad`, so Adam updates all of them at once
    sizes = [Xs.shape[1], *cfg.hidden, Ys.shape[1]]
    theta = np.zeros(sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:])))
    weights, biases = _layer_views(theta, sizes)
    for W in weights:
        limit = np.sqrt(6.0 / sum(W.shape))
        W[...] = rng.uniform(-limit, limit, size=W.shape)
    grad = np.empty_like(theta)
    grad_views = _layer_views(grad, sizes)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = cfg.learning_rate
    batch = cfg.batch_size if cfg.batch_size > 0 else len(Xt)

    best_val = np.inf
    best_epoch = 0
    best = theta.copy()
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
            loss = _loss_and_grads(weights, biases, Xb, Yb, *grad_views)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite training loss at epoch {epoch}")
            epoch_loss += loss * len(Xb)
            step += 1
            bc1 = 1.0 - beta1**step
            bc2 = 1.0 - beta2**step
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad**2
            theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        train_history.append(epoch_loss / len(Xt))
        val_loss = float(((_forward_all(weights, biases, Xv)[-1] - Yv) ** 2).mean())
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        val_history.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best[:] = theta
        if epoch - best_epoch >= cfg.patience:
            break
    return (*_layer_views(best, sizes), best_val, train_history, val_history)


def fit_mlp(data: Dataset, cfg: Optional[TrainConfig] = None, *, seed: int = 0) -> MlpModel:
    """Train the network on the archive, split into training and validation
    rows by `cfg.validation_fraction` (80:20 by default), and return the
    parameters from the epoch with the lowest validation loss. `seed` draws
    the split and, with the restart's index, its initial weights."""
    cfg = cfg or TrainConfig()
    least = min_training_samples("mlp", validation_fraction=cfg.validation_fraction)
    if len(data) < least:
        raise ConfigurationError(
            f"network training needs at least {least} samples with "
            f"validation_fraction {cfg.validation_fraction:g}, got {len(data)}"
        )
    X, Y = data.X, data.Y
    scaler = Scaler.fit(X, Y)
    Xs = scaler.transform_x(X)
    Ys = scaler.transform_y(Y)
    best = None
    for restart in range(cfg.restarts):
        result = _train_once(Xs, Ys, cfg, split_seed=seed, init_seed=seed * 1_000_003 + restart + 1)
        if best is None or result[2] < best[2]:
            best = result
    weights, biases, _, train_history, val_history = best
    return MlpModel(
        weights=tuple(weights),
        biases=tuple(biases),
        scaler=scaler,
        train_history=tuple(train_history),
        val_history=tuple(val_history),
    )


def save_model(model: SurrogateModel, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps({"kind": model.kind, **_encode(model)}))


def _consistent(model: SurrogateModel) -> SurrogateModel:
    """`model` if the shape of each of its arrays agrees with the arrays
    before it, in file order, else `ConfigurationError` naming the first
    that does not. Each axis is named: "x" the inputs, which the scaler's
    x_ vectors run along too, "y" the outputs and its y_ vectors, "c" the
    RBF centers and i the width after a network's layer i; an axis takes
    its size where its name first appears. A network has at least one
    layer and one bias vector per layer."""
    if model.kind == "rbf":
        arrays = {"centers": (model.centers, "cx"), "weights": (model.weights, "cy")}
    elif not 0 < len(model.weights) == len(model.biases):
        raise ConfigurationError("model.weights needs layers and model.biases one vector per layer")
    else:
        names = ["x", *range(1, len(model.weights)), "y"]
        arrays = {f"weights[{i}]": (W, names[i : i + 2]) for i, W in enumerate(model.weights)}
        arrays |= {f"biases[{i}]": (b, names[i + 1 : i + 2]) for i, b in enumerate(model.biases)}
    arrays |= {f"scaler.{k}": (a, k[0]) for k, a in vars(model.scaler).items()}
    sizes: dict = {}
    for key, (array, axes) in arrays.items():
        want = tuple(sizes.setdefault(axis, n) for axis, n in zip(axes, array.shape))
        if array.shape != want or array.ndim != len(axes):
            raise ConfigurationError(f"model.{key} has shape {array.shape}, unlike the others")
    return model


def load_model(path: Union[str, Path]) -> SurrogateModel:
    """The model `save_model` wrote, read by the config codec: a file that
    is no JSON object, a key missing or unknown, a value of the wrong type
    or an array whose shape disagrees with the others (`_consistent`)
    raises `ConfigurationError` naming the key."""
    section = dict(_section(_read_json(path, "model file"), "model"))
    kind = section.pop("kind", None)
    cls = next((model for model in (RbfModel, MlpModel) if model.kind == kind), None)
    if cls is None:
        raise ConfigurationError(f"unknown serialized model kind {kind!r}")
    return _consistent(cls(**_file_values(cls, section, "model")))
