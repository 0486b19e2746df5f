"""Black-box problem abstraction, the quarter-car vertical-dynamics benchmark,
and cheap analytic test problems with known Pareto fronts.

The quarter-car benchmark evaluates a decision vector by perturbing the five
physical parameters of a linear two-degree-of-freedom suspension model,
integrating its response to a sinusoidal road profile, and returning the
amplitudes of wheel load and body acceleration as the two objectives.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import astuple, dataclass
from itertools import islice
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

# 500 times the default horizon's 20,000 steps. The road-sample cache of a
# problem peaks near 50 bytes a step while it is built, so about 0.5 GB.
MAX_STEPS = 10_000_000
# At this many coordinates the RBF offsets of a 100-row population from
# 140 centers hold about 1.1 GB, the same order as the road samples at
# MAX_STEPS; n_dim 1e9 would take 8 GB for each box bound alone.
MAX_DIM = 10_000


class DivergenceError(SamoError):
    """Numerical integration produced a non-finite state."""


@dataclass(frozen=True, eq=False)
class Problem:
    """An optimization problem evaluated in a black-box fashion.

    `evaluate` must be deterministic for a fixed input. `true_front`, when
    present, returns a discretization of the known Pareto front for use as
    a test oracle.
    """

    name: str
    bounds: BoxBounds
    evaluate: Callable[[np.ndarray], np.ndarray]
    true_front: Optional[Callable[[int], np.ndarray]] = None

    @property
    def n_dim(self) -> int:
        return self.bounds.dim

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
        return np.array(astuple(self))


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
class Horizon:
    """Simulated time span, t0 to te, in steps of dt (seconds)."""

    t0: float = 0.0
    te: float = 2.0
    dt: float = 1e-4


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated time histories of wheel load and body acceleration."""

    time: np.ndarray
    wheel_load: np.ndarray
    body_acceleration: np.ndarray

    def __post_init__(self) -> None:
        # copies, so the caller's arrays stay writeable
        t = np.array(self.time, dtype=float)
        f = np.array(self.wheel_load, dtype=float)
        a = np.array(self.body_acceleration, dtype=float)
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


@functools.lru_cache(maxsize=4)
def _road_samples(amp: float, freq: float, t0: float, h: float, n_steps: int) -> tuple:
    """Road displacement at the start, midpoint and end of each RK4 step,
    and at the end again as `_channels` computes it on the time grid, as
    four `array('d')`s; computed on first use and kept for the next design,
    since a problem's excitation and time grid do not change."""
    omega = 2.0 * math.pi * freq
    sin = math.sin
    # filled from generators: 8 bytes a step, where a list holds a float and a pointer
    times = array("d", (t0 + i * h for i in range(n_steps)))
    return (
        array("d", (amp * sin(omega * t) for t in times)),
        array("d", (amp * sin(omega * (t + 0.5 * h)) for t in times)),
        array("d", (amp * sin(omega * (t + h)) for t in times)),
        array("d", (amp * np.sin(omega * (t0 + h * np.arange(1, n_steps + 1)))).tobytes()),
    )


def _step_count(t0: float, te: float, dt: float) -> int:
    """Number of integration steps of the horizon, checked."""
    if not dt > 0.0:
        raise ConfigurationError("time step dt must be strictly positive")
    steps = (te - t0) / dt
    if not steps <= MAX_STEPS:  # NaN and inf, which round() rejects, fail it too
        raise ConfigurationError(
            f"horizon t0 = {t0:.6g} s to te = {te:.6g} s holds {steps:.9g} steps of "
            f"dt = {dt:.6g} s; at most {MAX_STEPS:,} are allowed"
        )
    n_steps = int(round(max(steps, 0.0)))  # a te far before t0 gives -inf
    if n_steps < 1:  # te before t0, or less than half a step after it
        raise ConfigurationError(
            f"horizon t0 = {t0:.6g} s to te = {te:.6g} s holds no step of dt = {dt:.6g} s"
        )
    return n_steps


def _rk4_setup(params: QuarterCarParams, exc: Excitation, t0: float, te: float, dt: float):
    """The checked step count of the horizon, the coefficients of
    `_rk4_steps` and an iterator over its road quadruples, one per step.

    Python floats, not numpy scalars: the same IEEE operations in the same
    order, so the states are bitwise those of numpy-scalar arithmetic, at
    well under half the cost per operation."""
    n_steps = _step_count(t0, te, dt)
    ms, mu, ks, cs, kt = map(float, astuple(params))
    t0, h = float(t0), float(dt)
    road = zip(*_road_samples(float(exc.amplitude), float(exc.frequency), t0, h, n_steps))
    return n_steps, (ks, cs, kt, -1.0 / ms, 1.0 / mu, h), road


def _rk4_steps(state: tuple, road, coeffs: tuple, store=None) -> tuple:
    """Advance `state` = (z_s, z_u, v_s, v_u) one classical Runge-Kutta step
    per road quadruple (start, midpoint and end of the step, and the end
    road r of the time grid); every new state goes to `store` unless it is
    None. Returns the last state and, over the states stepped to, the least
    and greatest suspension force f_s and road-wheel offset r - z_u."""
    ks, cs, kt, neg_inv_ms, inv_mu, h = coeffs
    # Python evaluates `0.5 * h * v` as `(0.5 * h) * v`, so hoisting keeps the bytes
    half = 0.5 * h
    sixth = h / 6.0
    zs, zu, vs, vu = state
    fs_lo, fs_hi, off_lo, off_hi = math.inf, -math.inf, math.inf, -math.inf
    fs = ks * (zs - zu) + cs * (vs - vu)
    for zr1, zr2, zr3, zr in road:
        # `fs * neg_inv_ms` is `-fs * inv_ms` bit for bit: IEEE signs are symmetric
        a1s = fs * neg_inv_ms
        a1u = (fs + kt * (zr1 - zu)) * inv_mu

        zs2 = zs + half * vs
        zu2 = zu + half * vu
        vs2 = vs + half * a1s
        vu2 = vu + half * a1u
        fs = ks * (zs2 - zu2) + cs * (vs2 - vu2)
        a2s = fs * neg_inv_ms
        a2u = (fs + kt * (zr2 - zu2)) * inv_mu

        zs3 = zs + half * vs2
        zu3 = zu + half * vu2
        vs3 = vs + half * a2s
        vu3 = vu + half * a2u
        fs = ks * (zs3 - zu3) + cs * (vs3 - vu3)
        a3s = fs * neg_inv_ms
        a3u = (fs + kt * (zr2 - zu3)) * inv_mu

        zs4 = zs + h * vs3
        zu4 = zu + h * vu3
        vs4 = vs + h * a3s
        vu4 = vu + h * a3u
        fs = ks * (zs4 - zu4) + cs * (vs4 - vu4)
        a4s = fs * neg_inv_ms
        a4u = (fs + kt * (zr3 - zu4)) * inv_mu

        zs += sixth * (vs + 2.0 * vs2 + 2.0 * vs3 + vs4)
        zu += sixth * (vu + 2.0 * vu2 + 2.0 * vu3 + vu4)
        vs += sixth * (a1s + 2.0 * a2s + 2.0 * a3s + a4s)
        vu += sixth * (a1u + 2.0 * a2u + 2.0 * a3u + a4u)
        # the new state's force, which the next step's first stage reuses
        fs = ks * (zs - zu) + cs * (vs - vu)
        off = zr - zu
        if fs < fs_lo:
            fs_lo = fs
        if fs > fs_hi:
            fs_hi = fs
        if off < off_lo:
            off_lo = off
        if off > off_hi:
            off_hi = off
        if store is not None:
            store((zs, zu, vs, vu))
    return (zs, zu, vs, vu), (fs_lo, fs_hi, off_lo, off_hi)


def integrate_quarter_car(
    params: QuarterCarParams,
    exc: Excitation,
    t0: float = 0.0,
    te: float = 2.0,
    dt: float = 1e-4,
    initial_state: Optional[np.ndarray] = None,
):
    """Classical fourth-order Runge-Kutta integration of the quarter-car
    state (z_s, z_u, v_s, v_u); returns the time grid and state matrix.

    The suspension spring/damper couples the two masses; the tire acts as a
    spring between the unsprung mass and the road profile. State starts at
    zero unless `initial_state` is given.
    """
    n_steps, coeffs, steps = _rk4_setup(params, exc, t0, te, dt)
    state = np.zeros(4) if initial_state is None else np.asarray(initial_state, dtype=float)
    if state.shape != (4,):
        raise DimensionMismatchError("initial_state must have shape (4,)")

    flat = array("d", state)
    _rk4_steps(tuple(map(float, state)), steps, coeffs, flat.extend)

    states = np.frombuffer(flat, dtype=float).reshape(n_steps + 1, 4)
    # float arithmetic overflows to inf without raising, so the loop runs on
    # and the first non-finite row names the step where divergence began
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite)) - 1
        t = t0 + i * dt
        raise DivergenceError(f"non-finite state at step {i + 1} (t = {t + dt:.6g} s)")

    time_grid = t0 + dt * np.arange(n_steps + 1)
    return time_grid, states


def _channels(params: QuarterCarParams, exc: Excitation, time_grid, states) -> tuple:
    """The time grid, and the wheel load F_z = k_t (z_r - z_u) and body
    acceleration at each state."""
    road = exc.amplitude * np.sin(2.0 * math.pi * exc.frequency * time_grid)
    zs, zu, vs, vu = states.T
    fs = params.suspension_stiffness * (zs - zu) + params.suspension_damping * (vs - vu)
    return time_grid, params.tire_stiffness * (road - zu), -fs / params.sprung_mass


def simulate_quarter_car(
    params: QuarterCarParams,
    exc: Excitation,
    t0: float = 0.0,
    te: float = 2.0,
    dt: float = 1e-4,
    initial_state: Optional[np.ndarray] = None,
) -> Trajectory:
    """Integrate and collect the wheel load and body acceleration channels."""
    # one expression, so the state matrix is freed with `_channels`' frame,
    # before `Trajectory` copies the channels: a lower peak of memory
    return Trajectory(
        *_channels(params, exc, *integrate_quarter_car(params, exc, t0, te, dt, initial_state))
    )


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


@dataclass(frozen=True, eq=False)
class QuarterCarEvaluator:
    """Maps a design offset vector onto relative parameter perturbations,
    simulates, and returns (wheel-load amplitude, body-acceleration amplitude).

    The perturbation is p = p_nominal * (1 + scale * P @ x) with a fixed
    seeded projection matrix P; `scale` is chosen so the design box can move
    each parameter by at most `max_swing` relative.
    """

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
        if x.shape[0] != self.bounds.dim:
            raise DimensionMismatchError(
                f"decision vector has {x.shape[0]} coordinates, expected {self.bounds.dim}"
            )
        if not self.bounds.contains(x):
            raise DomainError(f"design point outside bounds: {x}")
        rel = self.scale * (self.projection @ x)
        p = self.nominal.as_array() * (1.0 + rel)
        return QuarterCarParams(*p)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # the amplitudes are read over rows (n_steps + 1) // 2 to n_steps, the
        # second half of the trajectory, from the extremes of its states;
        # no state is stored
        params = self.params_for(x)
        n_steps, coeffs, steps = _rk4_setup(params, self.excitation, self.t0, self.te, self.dt)
        state, _ = _rk4_steps((0.0,) * 4, islice(steps, (n_steps + 1) // 2 - 1), coeffs)
        state, (fs_lo, fs_hi, off_lo, off_hi) = _rk4_steps(state, steps, coeffs)
        if not all(map(math.isfinite, state)):
            # a non-finite state stays non-finite, so the last one shows any
            # divergence; integrating with every state stored names its step
            integrate_quarter_car(params, self.excitation, self.t0, self.te, self.dt)
        # k_t > 0 and m_s > 0, so the greatest and least wheel load and body
        # acceleration are those of r - z_u and f_s mapped by k_t * . and
        # -. / m_s, bit for bit, in the numpy arithmetic of `_channels`
        load = params.tire_stiffness * np.array([off_hi, off_lo])
        peaks = np.array([load, -np.array([fs_lo, fs_hi]) / params.sprung_mass])
        return 0.5 * (peaks[:, 0] - peaks[:, 1])


def make_quarter_car_problem(
    n_dim: int = 24,
    half_width: float = 0.003,
    projection_seed: int = 2024,
    max_swing: float = 0.15,
    params: QuarterCarParams = QuarterCarParams(),
    excitation: Excitation = Excitation(),
    horizon: Horizon = Horizon(),
) -> Problem:
    """The built-in expensive benchmark: quarter-car vertical dynamics under
    a sinusoidal road input, with design offsets in a +/- half_width box
    moving the nominal `params`."""
    if not 1 <= n_dim <= MAX_DIM:
        raise ConfigurationError(f"n_dim must lie between 1 and {MAX_DIM:,}, got {n_dim}")
    if projection_seed < 0:
        raise ConfigurationError(f"projection seed must be non-negative, got {projection_seed}")
    # at a swing of 1 or more a box corner takes a parameter to zero or below
    if not 0.0 < max_swing < 1.0:
        raise ConfigurationError(f"max_swing must lie strictly between 0 and 1, got {max_swing}")
    t0, te, dt = horizon.t0, horizon.te, horizon.dt
    n_steps = _step_count(t0, te, dt)
    # the amplitudes are read over rows (n_steps + 1) // 2 on: one row for one step
    if n_steps < 2:
        raise ConfigurationError(
            f"horizon t0 = {t0:.6g} s to te = {te:.6g} s holds 1 step of dt = {dt:.6g} s; "
            "the amplitudes need at least 2"
        )
    # `_road_samples` takes the sine of 2π·frequency·t up to this road time;
    # math.sin raises on an infinite phase
    t_last = abs(t0) + n_steps * dt + dt
    if not math.isfinite(2.0 * math.pi * excitation.frequency * t_last):
        raise ConfigurationError(
            f"excitation.frequency {excitation.frequency:g} makes the road phase "
            f"2*pi*frequency*t overflow by t = {t_last:g} s"
        )
    if not 0.0 < half_width < math.inf:
        raise ConfigurationError(f"half_width must be finite and positive, got {half_width}")
    bounds = BoxBounds(np.full(n_dim, -half_width), np.full(n_dim, half_width))
    P = np.random.default_rng(projection_seed).standard_normal((5, n_dim))
    # worst-case |P @ x| over the box is the 1-norm of each row times half_width
    worst = float(np.max(np.abs(P).sum(axis=1))) * half_width
    scale = max_swing / worst
    # a scale of 0 would evaluate every design to the nominal objectives
    if not 0.0 < scale < math.inf:
        raise ConfigurationError(
            f"half_width {half_width:g} gives the projection scale {scale:g}; "
            "it must be finite and positive"
        )
    evaluator = QuarterCarEvaluator(
        bounds=bounds,
        nominal=params,
        excitation=excitation,
        projection=P,
        scale=scale,
        t0=t0,
        te=te,
        dt=dt,
    )
    return Problem(name="mbs", bounds=bounds, evaluate=evaluator)


def _check_dim(name: str, n_dim: int, least: int) -> None:
    if not least <= n_dim <= MAX_DIM:
        raise ConfigurationError(f"{name} needs n_dim between {least} and {MAX_DIM:,}, got {n_dim}")


def _two_paraboloids(n_dim: int = 4) -> Problem:
    _check_dim("two-paraboloids", n_dim, 1)
    a = np.full(n_dim, 0.5)
    norm_a2 = float(a @ a)

    def f(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([float((x - a) @ (x - a)), float((x + a) @ (x + a))])

    def front(n_points: int) -> np.ndarray:
        t = np.linspace(-1.0, 1.0, n_points)
        return np.column_stack([(t - 1.0) ** 2 * norm_a2, (t + 1.0) ** 2 * norm_a2])

    # the box comfortably contains the Pareto segment {t*a : t in [-1, 1]}
    return Problem(
        name="two-paraboloids",
        bounds=BoxBounds(np.full(n_dim, -1.0), np.full(n_dim, 1.0)),
        evaluate=f,
        true_front=front,
    )


def _zdt1(n_dim: int = 30) -> Problem:
    _check_dim("zdt1", n_dim, 2)

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
        bounds=BoxBounds(np.zeros(n_dim), np.ones(n_dim)),
        evaluate=f,
        true_front=front,
    )


# The builder of each problem by name. A config file's problem section
# holds `name` and the builder's parameters, read by its signature.
PROBLEM_BUILDERS = {
    "mbs": make_quarter_car_problem, "two-paraboloids": _two_paraboloids, "zdt1": _zdt1
}
# the cheap verification problems with known fronts: all but the quarter car
ANALYTIC_PROBLEM_NAMES = tuple(name for name in PROBLEM_BUILDERS if name != "mbs")


def make_analytic_problem(name: str, n_dim: Optional[int] = None) -> Problem:
    """Construct one of the cheap verification problems by name."""
    if name not in ANALYTIC_PROBLEM_NAMES:
        raise ConfigurationError(
            f"unknown analytic problem {name!r}; choose from {ANALYTIC_PROBLEM_NAMES}"
        )
    build = PROBLEM_BUILDERS[name]
    return build() if n_dim is None else build(n_dim)
