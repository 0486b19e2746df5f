"""Black-box problem abstraction, the quarter-car vertical-dynamics benchmark,
and cheap analytic test problems with known Pareto fronts.

The quarter-car benchmark evaluates a decision vector by perturbing the five
physical parameters of a linear two-degree-of-freedom suspension model,
integrating its response to a sinusoidal road profile, and returning the
amplitudes of wheel load and body acceleration as the two objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    BoxBounds,
    ConfigurationError,
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    SamoError,
)

ANALYTIC_PROBLEM_NAMES = ("two-paraboloids", "zdt1", "branin-pair")


class DivergenceError(SamoError):
    """Numerical integration produced a non-finite state."""


@dataclass(frozen=True)
class Problem:
    """An optimization problem evaluated in a black-box fashion.

    `evaluate` must be deterministic for a fixed input. `jacobian`, when
    present, returns the analytic K x N objective Jacobian and exists only
    for cheap verification problems. `true_front`, when present, returns a
    discretization of the known Pareto front for use as a test oracle.
    """

    name: str
    n_dim: int
    n_obj: int
    bounds: BoxBounds
    evaluate: Callable[[np.ndarray], np.ndarray]
    cost: str = "cheap"
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    true_front: Optional[Callable[[int], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.n_obj < 2:
            raise ConfigurationError("problems must have at least two objectives")
        if self.cost not in ("cheap", "expensive"):
            raise ConfigurationError(f"unknown cost class {self.cost!r}")
        if self.bounds.dim != self.n_dim:
            raise DimensionMismatchError("bounds dimension does not match n_dim")

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        """`evaluate` at every row of an (M, N) array, as an (M, K) array."""
        return np.array([self.evaluate(x) for x in np.atleast_2d(X)], dtype=float)


@dataclass(frozen=True)
class QuarterCarParams:
    """Physical parameters of the linear quarter-car model (SI units)."""

    sprung_mass: float = 300.0
    unsprung_mass: float = 40.0
    suspension_stiffness: float = 25_000.0
    suspension_damping: float = 1_500.0
    tire_stiffness: float = 200_000.0

    def __post_init__(self) -> None:
        for name in ("sprung_mass", "unsprung_mass", "suspension_stiffness", "tire_stiffness"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be strictly positive")
        if self.suspension_damping < 0.0:
            raise ConfigurationError("suspension_damping must be non-negative")

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.sprung_mass,
                self.unsprung_mass,
                self.suspension_stiffness,
                self.suspension_damping,
                self.tire_stiffness,
            ]
        )


@dataclass(frozen=True)
class Excitation:
    """Sinusoidal road displacement input."""

    amplitude: float = 0.001
    frequency: float = 7.0

    def __post_init__(self) -> None:
        if self.amplitude < 0.0:
            raise ConfigurationError("excitation amplitude must be non-negative")
        if self.frequency <= 0.0:
            raise ConfigurationError("excitation frequency must be strictly positive")


@dataclass(frozen=True)
class Trajectory:
    """Simulated time histories of wheel load and body acceleration."""

    time: np.ndarray
    wheel_load: np.ndarray
    body_acceleration: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.time, dtype=float)
        f = np.asarray(self.wheel_load, dtype=float)
        a = np.asarray(self.body_acceleration, dtype=float)
        if not (t.shape == f.shape == a.shape):
            raise DimensionMismatchError("trajectory channels must have equal lengths")
        if t.size >= 2 and not np.all(np.diff(t) > 0):
            raise SamoError("trajectory time grid must be strictly increasing")
        for arr in (t, f, a):
            arr.flags.writeable = False
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "wheel_load", f)
        object.__setattr__(self, "body_acceleration", a)

    def __len__(self) -> int:
        return self.time.shape[0]


def integrate_quarter_car(
    params: QuarterCarParams,
    exc: Excitation,
    t0: float = 0.0,
    te: float = 2.0,
    dt: float = 1e-4,
    initial_state: Optional[np.ndarray] = None,
):
    """Classical fourth-order Runge-Kutta integration of the quarter-car
    state (z_s, z_u, v_s, v_u); returns (time grid, state matrix).

    The suspension spring/damper couples the two masses; the tire acts as a
    spring between the unsprung mass and the road profile. State starts at
    zero unless `initial_state` is given.
    """
    if dt <= 0.0:
        raise ConfigurationError("time step dt must be strictly positive")
    if te <= t0:
        raise ConfigurationError("end time te must exceed start time t0")

    ms = params.sprung_mass
    mu = params.unsprung_mass
    ks = params.suspension_stiffness
    cs = params.suspension_damping
    kt = params.tire_stiffness
    amp = exc.amplitude
    omega = 2.0 * math.pi * exc.frequency

    n_steps = int(round((te - t0) / dt))
    if initial_state is None:
        zs = zu = vs = vu = 0.0
    else:
        state = np.asarray(initial_state, dtype=float)
        if state.shape != (4,):
            raise DimensionMismatchError("initial_state must have shape (4,)")
        zs, zu, vs, vu = (float(v) for v in state)

    inv_ms = 1.0 / ms
    inv_mu = 1.0 / mu
    sin = math.sin

    states = np.empty((n_steps + 1, 4))
    states[0] = (zs, zu, vs, vu)
    h = dt
    for i in range(n_steps):
        t = t0 + i * h
        zr1 = amp * sin(omega * t)
        zr2 = amp * sin(omega * (t + 0.5 * h))
        zr3 = amp * sin(omega * (t + h))

        fs = ks * (zs - zu) + cs * (vs - vu)
        a1s = -fs * inv_ms
        a1u = (fs + kt * (zr1 - zu)) * inv_mu

        zs2 = zs + 0.5 * h * vs
        zu2 = zu + 0.5 * h * vu
        vs2 = vs + 0.5 * h * a1s
        vu2 = vu + 0.5 * h * a1u
        fs = ks * (zs2 - zu2) + cs * (vs2 - vu2)
        a2s = -fs * inv_ms
        a2u = (fs + kt * (zr2 - zu2)) * inv_mu

        zs3 = zs + 0.5 * h * vs2
        zu3 = zu + 0.5 * h * vu2
        vs3 = vs + 0.5 * h * a2s
        vu3 = vu + 0.5 * h * a2u
        fs = ks * (zs3 - zu3) + cs * (vs3 - vu3)
        a3s = -fs * inv_ms
        a3u = (fs + kt * (zr2 - zu3)) * inv_mu

        zs4 = zs + h * vs3
        zu4 = zu + h * vu3
        vs4 = vs + h * a3s
        vu4 = vu + h * a3u
        fs = ks * (zs4 - zu4) + cs * (vs4 - vu4)
        a4s = -fs * inv_ms
        a4u = (fs + kt * (zr3 - zu4)) * inv_mu

        zs += h / 6.0 * (vs + 2.0 * vs2 + 2.0 * vs3 + vs4)
        zu += h / 6.0 * (vu + 2.0 * vu2 + 2.0 * vu3 + vu4)
        vs += h / 6.0 * (a1s + 2.0 * a2s + 2.0 * a3s + a4s)
        vu += h / 6.0 * (a1u + 2.0 * a2u + 2.0 * a3u + a4u)

        if not (
            math.isfinite(zs) and math.isfinite(zu) and math.isfinite(vs) and math.isfinite(vu)
        ):
            raise DivergenceError(f"non-finite state at step {i + 1} (t = {t + h:.6g} s)")
        states[i + 1] = (zs, zu, vs, vu)

    time_grid = t0 + dt * np.arange(n_steps + 1)
    return time_grid, states


def mechanical_energy(params: QuarterCarParams, states: np.ndarray) -> np.ndarray:
    """Total mechanical energy per state row, with the road held at zero."""
    zs, zu, vs, vu = states.T
    return (
        0.5 * params.sprung_mass * vs**2
        + 0.5 * params.unsprung_mass * vu**2
        + 0.5 * params.suspension_stiffness * (zs - zu) ** 2
        + 0.5 * params.tire_stiffness * zu**2
    )


def simulate_quarter_car(
    params: QuarterCarParams,
    exc: Excitation,
    t0: float = 0.0,
    te: float = 2.0,
    dt: float = 1e-4,
    initial_state: Optional[np.ndarray] = None,
) -> Trajectory:
    """Integrate and collect the wheel load F_z = k_t (z_r - z_u) and body
    acceleration channels."""
    time_grid, states = integrate_quarter_car(params, exc, t0, te, dt, initial_state)
    road = exc.amplitude * np.sin(2.0 * math.pi * exc.frequency * time_grid)
    zs, zu, vs, vu = states.T
    wheel_load = params.tire_stiffness * (road - zu)
    body_acc = (
        -(params.suspension_stiffness * (zs - zu) + params.suspension_damping * (vs - vu))
        / params.sprung_mass
    )
    return Trajectory(time_grid, wheel_load, body_acc)


def amplitude(channel, window: slice) -> float:
    """Half the peak-to-peak excursion of `channel` over `window`."""
    arr = np.asarray(channel, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError("channel must be one-dimensional")
    start, stop, step = window.indices(arr.shape[0])
    view = arr[start:stop:step]
    if view.size == 0:
        raise EmptyInputError("amplitude window is empty")
    return 0.5 * float(view.max() - view.min())


def _projection_matrix(n_dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((5, n_dim))


@dataclass(frozen=True)
class QuarterCarEvaluator:
    """Maps a design offset vector onto relative parameter perturbations,
    simulates, and returns (wheel-load amplitude, body-acceleration amplitude).

    The perturbation is p = p_nominal * (1 + scale * P @ x) with a fixed
    seeded projection matrix P; `scale` is chosen so the design box can move
    each parameter by at most `max_swing` relative.
    """

    n_dim: int
    bounds: BoxBounds
    nominal: QuarterCarParams
    excitation: Excitation
    projection: np.ndarray
    scale: float
    t0: float
    te: float
    dt: float

    def params_for(self, x: np.ndarray) -> QuarterCarParams:
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n_dim:
            raise DimensionMismatchError(
                f"decision vector has {x.shape[0]} coordinates, expected {self.n_dim}"
            )
        if not self.bounds.contains(x):
            raise DomainError(f"design point outside bounds: {x}")
        rel = self.scale * (self.projection @ x)
        p = self.nominal.as_array() * (1.0 + rel)
        return QuarterCarParams(*p)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        traj = simulate_quarter_car(self.params_for(x), self.excitation, self.t0, self.te, self.dt)
        half = slice(len(traj) // 2, None)
        return np.array(
            [amplitude(traj.wheel_load, half), amplitude(traj.body_acceleration, half)]
        )


def make_quarter_car_problem(
    n_dim: int = 24,
    half_width: float = 0.003,
    seed: int = 2024,
    nominal: Optional[QuarterCarParams] = None,
    excitation: Optional[Excitation] = None,
    t0: float = 0.0,
    te: float = 2.0,
    dt: float = 1e-4,
    max_swing: float = 0.15,
) -> Problem:
    """The built-in expensive benchmark: quarter-car vertical dynamics under
    a sinusoidal road input, with design offsets in a +/- half_width box."""
    if n_dim < 1:
        raise ConfigurationError("n_dim must be at least 1")
    nominal = nominal or QuarterCarParams()
    excitation = excitation or Excitation()
    bounds = BoxBounds(np.full(n_dim, -half_width), np.full(n_dim, half_width))
    P = _projection_matrix(n_dim, seed)
    # worst-case |P @ x| over the box is the 1-norm of each row times half_width
    worst = float(np.max(np.abs(P).sum(axis=1)) * half_width)
    scale = max_swing / worst
    evaluator = QuarterCarEvaluator(
        n_dim=n_dim,
        bounds=bounds,
        nominal=nominal,
        excitation=excitation,
        projection=P,
        scale=scale,
        t0=t0,
        te=te,
        dt=dt,
    )
    return Problem(
        name="mbs",
        n_dim=n_dim,
        n_obj=2,
        bounds=bounds,
        evaluate=evaluator,
        cost="expensive",
    )


def evaluate_mbs(x: np.ndarray, problem: Optional[Problem] = None) -> np.ndarray:
    """Evaluate the quarter-car benchmark at `x` (default benchmark if no
    problem is given)."""
    if problem is None:
        problem = make_quarter_car_problem()
    return problem.evaluate(np.asarray(x, dtype=float))


def _two_paraboloids(n_dim: int) -> Problem:
    a = np.full(n_dim, 0.5)
    norm_a2 = float(a @ a)

    def f(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([float((x - a) @ (x - a)), float((x + a) @ (x + a))])

    def jac(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.vstack([2.0 * (x - a), 2.0 * (x + a)])

    def front(n_points: int) -> np.ndarray:
        t = np.linspace(-1.0, 1.0, n_points)
        return np.column_stack([(t - 1.0) ** 2 * norm_a2, (t + 1.0) ** 2 * norm_a2])

    # the box comfortably contains the Pareto segment {t*a : t in [-1, 1]}
    return Problem(
        name="two-paraboloids",
        n_dim=n_dim,
        n_obj=2,
        bounds=BoxBounds(np.full(n_dim, -1.0), np.full(n_dim, 1.0)),
        evaluate=f,
        cost="cheap",
        jacobian=jac,
        true_front=front,
    )


def _zdt1(n_dim: int) -> Problem:
    def f(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = 1.0 + 9.0 * float(np.sum(x[1:])) / (n_dim - 1)
        f1 = float(x[0])
        return np.array([f1, g * (1.0 - math.sqrt(f1 / g))])

    def front(n_points: int) -> np.ndarray:
        f1 = np.linspace(0.0, 1.0, n_points)
        return np.column_stack([f1, 1.0 - np.sqrt(f1)])

    return Problem(
        name="zdt1",
        n_dim=n_dim,
        n_obj=2,
        bounds=BoxBounds(np.zeros(n_dim), np.ones(n_dim)),
        evaluate=f,
        cost="cheap",
        true_front=front,
    )


def _branin_value(x1: float, x2: float) -> float:
    a = 1.0
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    r = 6.0
    s = 10.0
    t = 1.0 / (8.0 * math.pi)
    return a * (x2 - b * x1**2 + c * x1 - r) ** 2 + s * (1.0 - t) * math.cos(x1) + s


def _branin_pair() -> Problem:
    # second objective is the same surface with the input shifted, so the
    # two minima landscapes conflict; no closed-form front is known
    shift = np.array([2.5, -2.5])

    def f(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array(
            [
                _branin_value(x[0], x[1]),
                _branin_value(x[0] - shift[0], x[1] - shift[1]),
            ]
        )

    return Problem(
        name="branin-pair",
        n_dim=2,
        n_obj=2,
        bounds=BoxBounds(np.array([-5.0, 0.0]), np.array([10.0, 15.0])),
        evaluate=f,
        cost="cheap",
    )


def make_analytic_problem(name: str, n_dim: Optional[int] = None) -> Problem:
    """Construct one of the cheap verification problems by name."""
    if name == "two-paraboloids":
        return _two_paraboloids(n_dim or 4)
    if name == "zdt1":
        return _zdt1(n_dim or 30)
    if name == "branin-pair":
        if n_dim not in (None, 2):
            raise ConfigurationError("branin-pair is two-dimensional")
        return _branin_pair()
    raise ConfigurationError(
        f"unknown analytic problem {name!r}; choose from {ANALYTIC_PROBLEM_NAMES}"
    )


class GradientModel:
    """Adapter exposing a cheap problem with analytic gradients through the
    surrogate interface (predict / input_jacobian and their batch forms),
    for descent-method tests."""

    def __init__(self, problem: Problem):
        if problem.jacobian is None:
            raise ConfigurationError(f"problem {problem.name!r} provides no analytic jacobian")
        self._problem = problem

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._problem.evaluate(np.asarray(x, dtype=float))

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return self._problem.evaluate_batch(X)

    def input_jacobian(self, x: np.ndarray) -> np.ndarray:
        return self._problem.jacobian(np.asarray(x, dtype=float))

    def input_jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.input_jacobian(x) for x in np.atleast_2d(X)])
