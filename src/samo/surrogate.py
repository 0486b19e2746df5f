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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Protocol, Sequence, Union
import warnings

import numpy as np

from .core import ConfigurationError, Dataset, DimensionMismatchError, SamoError

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


@dataclass(frozen=True)
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

    def inverse_x(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) * self.x_scale + self.x_shift

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
    hidden: tuple = (64, 64)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigurationError("validation_fraction must lie in (0, 1)")
        if self.epochs < 1 or self.patience < 1 or self.restarts < 1:
            raise ConfigurationError("epochs, patience and restarts must be positive")
        if self.learning_rate <= 0.0:
            raise ConfigurationError("learning_rate must be strictly positive")
        if self.batch_size < 0:
            raise ConfigurationError("batch_size must be non-negative (0 = full batch)")


def _input_matrix(X: np.ndarray, n_dim: int) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != n_dim:
        raise DimensionMismatchError(f"expected {n_dim}-dimensional inputs")
    return X


@dataclass(frozen=True)
class RbfModel:
    """Gaussian-kernel interpolant phi(r) = exp(-r^2 / (2 sigma^2)) with all
    (scaled) training inputs as centers."""

    centers: np.ndarray
    weights: np.ndarray
    sigma: float
    ridge: float
    scaler: Scaler

    @property
    def n_dim(self) -> int:
        return self.centers.shape[1]

    @property
    def n_obj(self) -> int:
        return self.weights.shape[1]

    def _scaled_offsets(self, X: np.ndarray) -> np.ndarray:
        """(M, C, N) offsets of the scaled inputs from every center."""
        X = _input_matrix(X, self.n_dim)
        return self.scaler.transform_x(X)[:, None, :] - self.centers

    def _kernel(self, diff: np.ndarray) -> np.ndarray:
        return np.exp(-(diff**2).sum(axis=2) / (2.0 * self.sigma**2))

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        phi = self._kernel(self._scaled_offsets(X))
        # (M, 1, C) @ (C, K) is one vector-matrix product per row, so every
        # row equals the one-point prediction bit for bit
        return self.scaler.inverse_y((phi[:, None, :] @ self.weights)[:, 0, :])

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_batch(np.asarray(x, dtype=float)[None, :])[0]

    def input_jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        diff = self._scaled_offsets(X)
        phi = self._kernel(diff)
        # d phi_i / d xs = -phi_i * (xs - c_i) / sigma^2
        dphi = -(phi[:, :, None] * diff) / self.sigma**2
        jac_scaled = self.weights.T @ dphi
        return (self.scaler.y_scale[:, None] * jac_scaled) / self.scaler.x_scale

    def input_jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.input_jacobian_batch(np.asarray(x, dtype=float)[None, :])[0]

    def to_json_dict(self) -> dict:
        return {
            "kind": "rbf",
            "sigma": self.sigma,
            "ridge": self.ridge,
            "centers": self.centers.tolist(),
            "weights": self.weights.tolist(),
            "scaler": _scaler_to_dict(self.scaler),
        }


@dataclass(frozen=True)
class MlpModel:
    """Fully connected tanh network mapping scaled inputs to scaled outputs."""

    weights: tuple
    biases: tuple
    scaler: Scaler
    train_history: tuple = ()
    val_history: tuple = ()

    @property
    def n_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_obj(self) -> int:
        return self.weights[-1].shape[1]

    def _layers(self, X: np.ndarray) -> list:
        """Scaled input and hidden activations, each (M, 1, width). Every
        layer is one vector-matrix product per row, so every row equals the
        one-point forward pass bit for bit."""
        h = self.scaler.transform_x(_input_matrix(X, self.n_dim))[:, None, :]
        layers = [h]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.tanh(h @ W + b)
            layers.append(h)
        return layers

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        h = self._layers(X)[-1]
        return self.scaler.inverse_y((h @ self.weights[-1] + self.biases[-1])[:, 0, :])

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_batch(np.asarray(x, dtype=float)[None, :])[0]

    def input_jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        layers = self._layers(X)
        jac = np.repeat(self.weights[-1].T[None], len(layers[0]), axis=0)
        for W, act in zip(reversed(self.weights[:-1]), reversed(layers[1:])):
            jac = (jac * (1.0 - act**2)) @ W.T
        return (self.scaler.y_scale[:, None] * jac) / self.scaler.x_scale

    def input_jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.input_jacobian_batch(np.asarray(x, dtype=float)[None, :])[0]

    def to_json_dict(self) -> dict:
        return {
            "kind": "mlp",
            "weights": [W.tolist() for W in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "scaler": _scaler_to_dict(self.scaler),
            "train_history": list(self.train_history),
            "val_history": list(self.val_history),
        }


def fit_rbf(
    data: Dataset,
    sigma: float = 0.5,
    ridge: float = DEFAULT_RIDGE,
) -> RbfModel:
    """Interpolate the archive with a Gaussian-kernel model by solving the
    regularized symmetric system (Phi + ridge * I) W = Y per objective."""
    if len(data) < 2:
        raise ConfigurationError("RBF fitting needs at least two samples")
    if sigma <= 0.0:
        raise ConfigurationError("kernel width sigma must be strictly positive")
    if ridge < 0.0:
        raise ConfigurationError("ridge parameter must be non-negative")
    X = data.decision_matrix()
    Y = data.objective_matrix()
    scaler = Scaler.fit(X, Y)
    Xs = scaler.transform_x(X)
    Ys = scaler.transform_y(Y)
    d2 = ((Xs[:, None, :] - Xs[None, :, :]) ** 2).sum(axis=2)
    system = np.exp(-d2 / (2.0 * sigma**2)) + ridge * np.eye(len(Xs))
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
    return RbfModel(centers=Xs, weights=W, sigma=float(sigma), ridge=float(ridge), scaler=scaler)


def _cv_fold_masks(n: int, folds: int) -> list:
    """Deterministic round-robin fold assignment by sample index."""
    idx = np.arange(n)
    return [idx % folds == f for f in range(folds)]


def cross_validated_mse(
    data: Dataset,
    sigma: float,
    folds: int = 5,
    ridge: float = DEFAULT_RIDGE,
) -> float:
    """Mean squared prediction error over round-robin folds, in original
    output units."""
    n = len(data)
    if folds > n:
        warnings.warn(
            f"only {n} samples for {folds}-fold cross-validation; using {n} folds",
            stacklevel=2,
        )
        folds = n
    X = data.decision_matrix()
    Y = data.objective_matrix()
    errors = []
    for mask in _cv_fold_masks(n, folds):
        train = Dataset(tuple(s for s, m in zip(data.samples, mask) if not m))
        model = fit_rbf(train, sigma=sigma, ridge=ridge)
        pred = model.predict_batch(X[mask])
        errors.append(float(((pred - Y[mask]) ** 2).mean()))
    return float(np.mean(errors))


def select_rbf_width(
    data: Dataset,
    grid: Sequence[float] = DEFAULT_SIGMA_GRID,
    folds: int = 5,
    ridge: float = DEFAULT_RIDGE,
) -> float:
    """Grid member with the lowest cross-validated MSE; ties go to the
    smaller width."""
    if len(grid) == 0:
        raise ConfigurationError("sigma grid must not be empty")
    candidates = sorted(float(s) for s in grid)
    best_sigma = candidates[0]
    best_mse = np.inf
    for sigma in candidates:
        mse = cross_validated_mse(data, sigma, folds=folds, ridge=ridge)
        if mse < best_mse:
            best_mse = mse
            best_sigma = sigma
    return best_sigma


def _init_layers(n_in: int, n_out: int, hidden: Sequence[int], rng: np.random.Generator):
    sizes = [n_in, *hidden, n_out]
    weights = []
    biases = []
    for a, b in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (a + b))
        weights.append(rng.uniform(-limit, limit, size=(a, b)))
        biases.append(np.zeros(b))
    return weights, biases


def _forward_all(weights, biases, X):
    activations = [X]
    h = X
    for W, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(h @ W + b)
        activations.append(h)
    activations.append(h @ weights[-1] + biases[-1])
    return activations


def _loss_and_grads(weights, biases, X, Y):
    activations = _forward_all(weights, biases, X)
    diff = activations[-1] - Y
    loss = float((diff**2).mean())
    delta = 2.0 * diff / diff.size
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (1.0 - activations[layer] ** 2)
    return loss, grads_w, grads_b


def _train_once(Xs, Ys, cfg: TrainConfig, split_seed: int, init_seed: int):
    # the split is shared across restarts so their validation losses are
    # comparable; only the initialization differs
    n = len(Xs)
    order = np.random.default_rng(split_seed).permutation(n)
    rng = np.random.default_rng(init_seed)
    n_val = max(1, int(round(cfg.validation_fraction * n)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    Xt, Yt = Xs[train_idx], Ys[train_idx]
    Xv, Yv = Xs[val_idx], Ys[val_idx]

    weights, biases = _init_layers(Xs.shape[1], Ys.shape[1], cfg.hidden, rng)
    m_w = [np.zeros_like(W) for W in weights]
    v_w = [np.zeros_like(W) for W in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = cfg.learning_rate
    batch = cfg.batch_size if cfg.batch_size > 0 else len(Xt)

    best_val = np.inf
    best_epoch = 0
    best_weights = [W.copy() for W in weights]
    best_biases = [b.copy() for b in biases]
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
            loss, grads_w, grads_b = _loss_and_grads(weights, biases, Xb, Yb)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite training loss at epoch {epoch}")
            epoch_loss += loss * len(Xb)
            step += 1
            bc1 = 1.0 - beta1**step
            bc2 = 1.0 - beta2**step
            for i in range(len(weights)):
                m_w[i] = beta1 * m_w[i] + (1.0 - beta1) * grads_w[i]
                v_w[i] = beta2 * v_w[i] + (1.0 - beta2) * grads_w[i] ** 2
                weights[i] = weights[i] - lr * (m_w[i] / bc1) / (np.sqrt(v_w[i] / bc2) + eps)
                m_b[i] = beta1 * m_b[i] + (1.0 - beta1) * grads_b[i]
                v_b[i] = beta2 * v_b[i] + (1.0 - beta2) * grads_b[i] ** 2
                biases[i] = biases[i] - lr * (m_b[i] / bc1) / (np.sqrt(v_b[i] / bc2) + eps)
        train_history.append(epoch_loss / len(Xt))
        val_loss = float(((_forward_all(weights, biases, Xv)[-1] - Yv) ** 2).mean())
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        val_history.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_weights = [W.copy() for W in weights]
            best_biases = [b.copy() for b in biases]
        if epoch - best_epoch >= cfg.patience:
            break
    return best_weights, best_biases, best_val, train_history, val_history


def fit_mlp(data: Dataset, cfg: Optional[TrainConfig] = None) -> MlpModel:
    """Train the network on the archive with an 80:20 train/validation split
    and return the parameters from the epoch with the lowest validation loss."""
    cfg = cfg or TrainConfig()
    if len(data) < 5:
        raise ConfigurationError("network training needs at least five samples")
    X = data.decision_matrix()
    Y = data.objective_matrix()
    scaler = Scaler.fit(X, Y)
    Xs = scaler.transform_x(X)
    Ys = scaler.transform_y(Y)
    best = None
    for restart in range(cfg.restarts):
        result = _train_once(
            Xs,
            Ys,
            cfg,
            split_seed=cfg.seed,
            init_seed=cfg.seed * 1_000_003 + restart + 1,
        )
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


def _scaler_to_dict(scaler: Scaler) -> dict:
    return {
        "x_shift": scaler.x_shift.tolist(),
        "x_scale": scaler.x_scale.tolist(),
        "y_shift": scaler.y_shift.tolist(),
        "y_scale": scaler.y_scale.tolist(),
    }


def _scaler_from_dict(d: dict) -> Scaler:
    return Scaler(
        x_shift=np.array(d["x_shift"], dtype=float),
        x_scale=np.array(d["x_scale"], dtype=float),
        y_shift=np.array(d["y_shift"], dtype=float),
        y_scale=np.array(d["y_scale"], dtype=float),
    )


def model_from_json_dict(d: dict) -> SurrogateModel:
    if d.get("kind") == "rbf":
        return RbfModel(
            centers=np.array(d["centers"], dtype=float),
            weights=np.array(d["weights"], dtype=float),
            sigma=float(d["sigma"]),
            ridge=float(d["ridge"]),
            scaler=_scaler_from_dict(d["scaler"]),
        )
    if d.get("kind") == "mlp":
        return MlpModel(
            weights=tuple(np.array(W, dtype=float) for W in d["weights"]),
            biases=tuple(np.array(b, dtype=float) for b in d["biases"]),
            scaler=_scaler_from_dict(d["scaler"]),
            train_history=tuple(d.get("train_history", ())),
            val_history=tuple(d.get("val_history", ())),
        )
    raise ConfigurationError(f"unknown serialized model kind {d.get('kind')!r}")


def save_model(model: SurrogateModel, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(model.to_json_dict()))


def load_model(path: Union[str, Path]) -> SurrogateModel:
    return model_from_json_dict(json.loads(Path(path).read_text()))
