import itertools
import math

import numpy as np
import oracles
import pytest

from dataclasses import fields

from samo.core import ConfigurationError, DimensionMismatchError, DomainError
from samo.problems import (
    ANALYTIC_PROBLEM_NAMES,
    Excitation,
    Horizon,
    QuarterCarParams,
    DivergenceError,
    Trajectory,
    amplitude,
    integrate_quarter_car,
    make_analytic_problem,
    make_quarter_car_problem,
    simulate_quarter_car,
    _rk4_setup,
    _rk4_steps,
    _road_samples,
)

# objective pair of the shipped benchmark at the nominal design (x = 0),
# pinned after the physics checks below first passed
NOMINAL_OBJECTIVES = (118.35427838922611, 0.31151743687173894)


def analytic_acceleration_amplitude(params: QuarterCarParams, exc: Excitation) -> float:
    """Steady-state body-acceleration amplitude from the frequency response
    of the two-mass system, solved independently as a 2x2 complex system."""
    w = 2.0 * math.pi * exc.frequency
    ms = params.sprung_mass
    mu = params.unsprung_mass
    ks = params.suspension_stiffness
    cs = params.suspension_damping
    kt = params.tire_stiffness
    coupling = 1j * cs * w + ks
    system = np.array(
        [
            [-ms * w**2 + coupling, -coupling],
            [-coupling, -mu * w**2 + coupling + kt],
        ],
        dtype=complex,
    )
    z = np.linalg.solve(system, np.array([0.0, kt * exc.amplitude], dtype=complex))
    return w**2 * abs(z[0])


class TestSimulation:
    def test_zero_excitation_zero_response(self):
        traj = simulate_quarter_car(QuarterCarParams(), Excitation(amplitude=0.0))
        assert np.all(traj.wheel_load == 0.0)
        assert np.all(traj.body_acceleration == 0.0)

    def test_steady_state_matches_transfer_function(self):
        params = QuarterCarParams()
        exc = Excitation()
        traj = simulate_quarter_car(params, exc, 0.0, 10.0, 1e-4)
        half = slice(len(traj) // 2, None)
        simulated = amplitude(traj.body_acceleration, half)
        expected = analytic_acceleration_amplitude(params, exc)
        assert abs(simulated - expected) / expected < 0.01

    def test_halving_dt_converged(self):
        def objectives(dt):
            traj = simulate_quarter_car(QuarterCarParams(), Excitation(), 0.0, 2.0, dt)
            half = slice(len(traj) // 2, None)
            return np.array(
                [amplitude(traj.wheel_load, half), amplitude(traj.body_acceleration, half)]
            )

        coarse = objectives(1e-4)
        fine = objectives(5e-5)
        assert np.all(np.abs(coarse - fine) / np.abs(coarse) < 1e-6)

    def test_undamped_energy_conservation(self):
        params = QuarterCarParams(suspension_damping=0.0)
        _, states = integrate_quarter_car(
            params,
            Excitation(amplitude=0.0),
            0.0,
            10.0,
            1e-4,
            initial_state=np.array([0.01, -0.005, 0.0, 0.02]),
        )
        energy = oracles.mechanical_energy(params, states)
        assert (energy.max() - energy.min()) / energy[0] < 1e-6

    def test_invalid_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_quarter_car(QuarterCarParams(), Excitation(), dt=-1e-4)
        with pytest.raises(ConfigurationError):
            simulate_quarter_car(QuarterCarParams(), Excitation(), t0=1.0, te=0.5)
        with pytest.raises(ConfigurationError):  # 0.1 of a step rounds to none
            simulate_quarter_car(QuarterCarParams(), Excitation(), te=1e-5)

    @pytest.mark.parametrize(
        "horizon, message",
        [
            ({"dt": 0.0}, "dt"),
            ({"dt": -1e-4}, "dt"),
            ({"te": 0.0}, "te"),
            ({"t0": 1.0, "te": 0.5}, "te"),
            # (te - t0) / dt rounds to no step, which would leave every design
            # at the zero initial state
            ({"te": 1e-5}, "horizon t0 = 0 s to te = 1e-05 s holds no step of dt = 0.0001 s"),
            ({"te": 5e-5}, "holds no step"),
            ({"t0": 1.0, "te": 1.00004}, "horizon t0 = 1 s to te = 1.00004 s holds no step"),
            # one step leaves a single row in the amplitude window, so every
            # design would give [0, 0]
            ({"te": 1e-4}, "te = 0.0001 s holds 1 step of dt = 0.0001 s; the amplitudes need at least 2"),
            # round() of an infinite step count raises OverflowError
            ({"te": 1e308, "dt": 1e-300}, r"te = 1e\+308 s holds inf steps .* at most 10,000,000"),
            ({"t0": -1e308, "te": 1e308}, r"t0 = -1e\+308 s to te = 1e\+308 s holds inf steps"),
            ({"t0": 1e308, "te": -1e308}, "holds no step"),
            # the first evaluation would build a road-sample cache of ~178 GB
            ({"dt": 1e-9}, r"te = 2 s holds 2e\+09 steps of dt = 1e-09 s; at most 10,000,000"),
            ({"te": 1000.0001}, "holds 10000001 steps"),
        ],
    )
    def test_invalid_grid_rejected_when_the_problem_is_built(self, horizon, message):
        with pytest.raises(ConfigurationError, match=message):
            make_quarter_car_problem(n_dim=2, horizon=Horizon(**horizon))

    def test_unstable_step_reports_divergence_location(self):
        from samo.problems import DivergenceError

        # dt far beyond the stability limit of the fast mode
        with pytest.raises(DivergenceError, match="step"):
            simulate_quarter_car(QuarterCarParams(), Excitation(), 0.0, 50.0, 0.05)

    def test_trajectory_invariants(self):
        with pytest.raises(Exception):
            Trajectory(np.array([0.0, 0.1]), np.zeros(3), np.zeros(2))
        with pytest.raises(Exception):
            Trajectory(np.array([0.1, 0.0]), np.zeros(2), np.zeros(2))
        # the trajectory keeps read-only copies and leaves the caller's arrays writeable
        t, f, a = np.array([0.0, 0.1]), np.zeros(2), np.ones(2)
        traj = Trajectory(t, f, a)
        t[0], f[0], a[0] = -1.0, 5.0, 5.0
        assert traj.time.tolist() == [0.0, 0.1] and traj.wheel_load.tolist() == [0.0, 0.0]
        assert traj.body_acceleration.tolist() == [1.0, 1.0]
        for channel in (traj.time, traj.wheel_load, traj.body_acceleration):
            with pytest.raises(ValueError, match="read-only"):
                channel[0] = 2.0


class TestAmplitude:
    def test_constant_channel(self):
        assert amplitude(np.full(100, 3.3), slice(None)) == 0.0

    def test_sinusoid(self):
        t = np.arange(0, 2.0, 1e-4)
        channel = 1.7 * np.sin(2 * np.pi * 5.0 * t)
        assert amplitude(channel, slice(None)) == pytest.approx(1.7, rel=1e-5)

    def test_small_example(self):
        assert amplitude([-2.0, 0.0, 4.0], slice(None)) == 3.0

    def test_empty_window(self):
        from samo.core import EmptyInputError

        with pytest.raises(EmptyInputError):
            amplitude(np.ones(10), slice(5, 5))


class TestQuarterCarBenchmark:
    def test_nominal_design_pinned(self):
        y = make_quarter_car_problem().evaluate(np.zeros(24))
        assert y[0] == pytest.approx(NOMINAL_OBJECTIVES[0], rel=1e-12)
        assert y[1] == pytest.approx(NOMINAL_OBJECTIVES[1], rel=1e-12)

    def test_deterministic_bitwise(self):
        problem = make_quarter_car_problem()
        x = np.full(24, 0.001)
        assert np.array_equal(problem.evaluate(x), problem.evaluate(x))

    def test_out_of_bounds_rejected(self):
        problem = make_quarter_car_problem()
        x = np.zeros(24)
        x[3] = 0.004
        with pytest.raises(DomainError):
            problem.evaluate(x)

    def test_null_space_of_projection(self):
        # two designs with (numerically) equal parameter projections give
        # equal objectives up to the simulation's parameter sensitivity
        problem = make_quarter_car_problem()
        evaluator = problem.evaluate
        P = evaluator.projection
        _, _, vt = np.linalg.svd(P)
        null_vector = vt[-1]  # P @ null_vector ~ 1e-17
        x1 = np.full(24, 0.0005)
        x2 = x1 + 1e-3 * null_vector
        assert problem.bounds.contains(x2)
        p1 = evaluator.params_for(x1).as_array()
        p2 = evaluator.params_for(x2).as_array()
        assert np.allclose(p1, p2, rtol=1e-12)
        assert np.allclose(evaluator(x1), evaluator(x2), rtol=1e-9)

    def test_objectives_continuous_in_x(self):
        problem = make_quarter_car_problem()
        x = np.full(24, 0.001)
        y = problem.evaluate(x)
        bumped = x.copy()
        bumped[0] += 1e-8
        y2 = problem.evaluate(bumped)
        assert np.all(np.abs(y2 - y) / np.abs(y) < 1e-4)

    def test_projection_scale_gives_bounded_swing(self):
        problem = make_quarter_car_problem()
        evaluator = problem.evaluate
        corner = np.where(evaluator.projection.sum(axis=0) >= 0, 0.003, -0.003)
        rel = evaluator.scale * (evaluator.projection @ corner)
        assert np.all(np.abs(rel) <= 0.15 + 1e-12)

    def test_wrong_length_design_rejected(self):
        evaluator = make_quarter_car_problem(n_dim=3).evaluate
        with pytest.raises(DimensionMismatchError, match="has 4 coordinates, expected 3"):
            evaluator.params_for(np.zeros(4))

    @pytest.mark.parametrize("max_swing", [1.0, 1.5, 0.0, -0.1, math.nan])
    def test_swing_outside_the_unit_interval_rejected_when_the_problem_is_built(self, max_swing):
        # at a swing of 1 or more a box corner gives a parameter of zero or below
        with pytest.raises(ConfigurationError, match="max_swing must lie strictly between 0 and 1"):
            make_quarter_car_problem(n_dim=3, max_swing=max_swing)

    @pytest.mark.parametrize("half_width", [1e308, 0.0, -1.0, math.inf, math.nan])
    def test_half_width_without_a_finite_positive_scale_rejected(self, half_width):
        # 1e308 overflows the worst-case swing to inf, so its scale is 0 and
        # every design would evaluate to the nominal objectives
        with pytest.raises(ConfigurationError, match="half_width"):
            make_quarter_car_problem(n_dim=3, half_width=half_width)

    @pytest.mark.parametrize(
        "frequency, te",
        [(1e308, 0.01), (2e307, 2.0), (math.inf, 2.0), (math.nan, 2.0)],
        ids=["1e308-0.01s", "2e307-2s", "inf", "nan"],
    )
    def test_frequency_whose_road_phase_overflows_rejected_at_build(self, frequency, te):
        # 2e307 keeps 2*pi*f finite, but its phase overflows by the end of 2 s;
        # math.sin of an infinite phase would raise in the first evaluation
        with pytest.raises(ConfigurationError, match=r"^excitation\.frequency "):
            make_quarter_car_problem(
                n_dim=3, excitation=Excitation(frequency=frequency), horizon=Horizon(te=te)
            )

    def test_largest_finite_road_phase_builds_without_filling_the_road_cache(self):
        _road_samples.cache_clear()
        problem = make_quarter_car_problem(n_dim=3, excitation=Excitation(frequency=1e300))
        assert _road_samples.cache_info().currsize == 0
        assert problem.evaluate.excitation.frequency == 1e300

    def test_swing_just_below_one_evaluates_at_every_corner(self):
        problem = make_quarter_car_problem(n_dim=3, max_swing=0.99, horizon=Horizon(te=0.01))
        for corner in itertools.product((-0.003, 0.003), repeat=3):
            assert np.all(np.isfinite(problem.evaluate(np.array(corner))))

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            QuarterCarParams(sprung_mass=-1.0)
        with pytest.raises(ConfigurationError):
            QuarterCarParams(suspension_damping=-0.1)
        with pytest.raises(ConfigurationError):
            Excitation(frequency=0.0)


class TestFloatLoopAgainstOracle:
    """The integrator on Python floats with cached road samples against the
    numpy-scalar loop in tests/oracles.py, byte for byte."""

    @staticmethod
    def assert_same_integration(*args):
        t_new, s_new = integrate_quarter_car(*args)
        t_old, s_old = oracles.integrate_quarter_car(*args)
        assert t_new.tobytes() == t_old.tobytes()
        assert s_new.shape == s_old.shape
        assert s_new.tobytes() == s_old.tobytes()

    def test_designs_through_evaluate(self):
        problem = make_quarter_car_problem()
        evaluator = problem.evaluate
        corner = np.where(evaluator.projection.sum(axis=0) >= 0, 0.003, -0.003)
        random = np.random.default_rng(5).uniform(-0.003, 0.003, (3, 24))
        for x in (np.zeros(24), corner, -corner, np.full(24, 0.003), *random):
            y = problem.evaluate(x)
            assert y.tobytes() == oracles.quarter_car_objectives(evaluator, x).tobytes()

    def test_initial_state_and_shifted_horizon(self):
        params = QuarterCarParams(310.0, 42.5, 23_000.0, 1_700.0, 190_000.0)
        state = np.array([0.01, -0.005, 0.0, 0.02])
        self.assert_same_integration(params, Excitation(0.002, 3.0), 0.25, 0.75, 2e-4, state)

    def test_zero_amplitude(self):
        state = np.array([0.0, 0.003, -0.1, 0.0])
        self.assert_same_integration(
            QuarterCarParams(), Excitation(amplitude=0.0), 0.0, 0.5, 1e-4, state
        )

    def test_divergence_message(self):
        args = (QuarterCarParams(), Excitation(), 0.0, 50.0, 0.05)
        with pytest.raises(DivergenceError) as new:
            simulate_quarter_car(*args)
        # numpy scalars warn where Python floats overflow silently
        with pytest.raises(DivergenceError) as old, np.errstate(over="ignore", invalid="ignore"):
            oracles.integrate_quarter_car(*args)
        assert str(new.value) == str(old.value)

    def test_road_cache_keyed_on_frequency_and_step(self):
        # returning to an earlier excitation or step must not reuse the
        # road samples of the one evaluated in between
        x = np.full(24, 0.001)
        for frequency, dt in ((7.0, 1e-4), (5.0, 1e-4), (7.0, 1e-4), (7.0, 2e-4), (7.0, 1e-4)):
            problem = make_quarter_car_problem(
                excitation=Excitation(frequency=frequency), horizon=Horizon(te=0.5, dt=dt)
            )
            y = problem.evaluate(x)
            assert y.tobytes() == oracles.quarter_car_objectives(problem.evaluate, x).tobytes()

    def test_numpy_scalar_and_float_parameters_agree(self):
        values = (310.0, 42.5, 23_000.0, 1_700.0, 190_000.0)
        exc = Excitation()
        _, as_floats = integrate_quarter_car(QuarterCarParams(*values), exc, 0.0, 0.5)
        _, as_numpy = integrate_quarter_car(QuarterCarParams(*np.array(values)), exc, 0.0, 0.5)
        assert as_floats.tobytes() == as_numpy.tobytes()



class TestWindowedEvaluator:
    """The evaluator integrates the first half of the horizon and reads the
    second from running extremes, storing no state; its objectives and
    errors must be those of the oracle that stores every state."""

    @staticmethod
    def designs(evaluator):
        corner = np.where(evaluator.projection.sum(axis=0) >= 0, 0.003, -0.003)
        random = np.random.default_rng(11).uniform(-0.003, 0.003, (4, 24))
        return (np.zeros(24), corner, -corner, np.full(24, -0.003), *random)

    @pytest.mark.parametrize("road", [0.001, 0.0], ids=["road", "zero-excitation"])
    @pytest.mark.parametrize("te, n_steps", [(0.2, 2000), (0.2001, 2001), (0.0003, 3), (0.0002, 2)])
    def test_objectives_bitwise_for_odd_and_even_step_counts(self, te, n_steps, road):
        problem = make_quarter_car_problem(
            excitation=Excitation(amplitude=road), horizon=Horizon(te=te)
        )
        evaluator = problem.evaluate
        assert int(round(te / evaluator.dt)) == n_steps
        for x in self.designs(evaluator):
            y = problem.evaluate(x)
            assert y.tobytes() == oracles.quarter_car_objectives(evaluator, x).tobytes()

    @pytest.mark.parametrize("road", [0.001, 0.0], ids=["road", "zero-excitation"])
    @pytest.mark.parametrize("te", [0.05, 0.0501, 0.0003, 0.0002])
    def test_objectives_bitwise_at_every_box_corner(self, te, road):
        problem = make_quarter_car_problem(
            n_dim=3, excitation=Excitation(amplitude=road), horizon=Horizon(te=te)
        )
        for corner in itertools.product((-0.003, 0.003), repeat=3):
            x = np.array(corner)
            y = problem.evaluate(x)
            assert y.tobytes() == oracles.quarter_car_objectives(problem.evaluate, x).tobytes()

    @pytest.mark.parametrize("n_steps", range(1, 7))
    def test_running_extremes_equal_the_stored_channels(self, n_steps):
        params = QuarterCarParams(310.0, 42.5, 23_000.0, 1_700.0, 190_000.0)
        exc = Excitation(0.002, 3.0)
        t0, dt, state = 0.25, 1e-3, (0.01, 0.0, 0.0, 0.02)
        time_grid, states = integrate_quarter_car(params, exc, t0, t0 + n_steps * dt, dt, state)
        zs, zu, vs, vu = states.T
        force = params.suspension_stiffness * (zs - zu) + params.suspension_damping * (vs - vu)
        offset = exc.amplitude * np.sin(2.0 * math.pi * exc.frequency * time_grid) - zu
        # a window holds rows `start` to n_steps; the steps before it are the transient
        for start in range(1, n_steps + 1):
            _, coeffs, steps = _rk4_setup(params, exc, t0, t0 + n_steps * dt, dt)
            head, _ = _rk4_steps(state, itertools.islice(steps, start - 1), coeffs)
            assert head == tuple(states[start - 1])
            _, extremes = _rk4_steps(head, steps, coeffs)
            force_in, offset_in = force[start:], offset[start:]
            expected = (force_in.min(), force_in.max(), offset_in.min(), offset_in.max())
            assert np.array(extremes).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize(
        "te, stored",
        [(100.0, False), (49.95, True), (35.0, True), (25.0, True)],
        ids=["unstored-half", "first-stored-row", "stored-half", "last-step"],
    )
    def test_divergence_message_in_either_half(self, te, stored):
        # at dt = 0.05 the nominal design first turns non-finite at step 500,
        # which is row 500 of the trajectory: in the transient for 2000
        # steps, the window's first row for 999 and its last for 500
        problem = make_quarter_car_problem(horizon=Horizon(te=te, dt=0.05))
        half = (int(round(te / 0.05)) + 1) // 2
        assert (500 >= half) == stored
        with pytest.raises(DivergenceError, match="step 500 ") as new:
            problem.evaluate(np.zeros(24))
        with pytest.raises(DivergenceError) as old, np.errstate(over="ignore", invalid="ignore"):
            oracles.quarter_car_objectives(problem.evaluate, np.zeros(24))
        assert str(new.value) == str(old.value)

class TestAnalyticProblems:
    def test_two_paraboloids_values(self):
        problem = make_analytic_problem("two-paraboloids")
        a = np.full(4, 0.5)
        norm_a2 = float(a @ a)
        assert problem.evaluate(a) == pytest.approx([0.0, 4.0 * norm_a2])
        assert problem.evaluate(-a) == pytest.approx([4.0 * norm_a2, 0.0])

    def test_two_paraboloids_front_endpoints(self):
        problem = make_analytic_problem("two-paraboloids")
        front = problem.true_front(11)
        norm_a2 = 1.0  # N = 4 with a = 0.5 everywhere
        assert front[0] == pytest.approx([4.0 * norm_a2, 0.0])
        assert front[-1] == pytest.approx([0.0, 4.0 * norm_a2])

    def test_two_paraboloids_jacobian(self):
        problem = make_analytic_problem("two-paraboloids", n_dim=3)
        x = np.array([0.3, -0.2, 0.9])
        jac = oracles.two_paraboloids_jacobian(x)
        h = 1e-7
        for i in range(3):
            bump = np.zeros(3)
            bump[i] = h
            fd = (problem.evaluate(x + bump) - problem.evaluate(x - bump)) / (2 * h)
            assert np.allclose(jac[:, i], fd, atol=1e-5)

    def test_zdt1_origin(self):
        problem = make_analytic_problem("zdt1")
        assert problem.n_dim == 30
        assert problem.evaluate(np.zeros(30)) == pytest.approx([0.0, 1.0])

    def test_zdt1_front_formula(self):
        problem = make_analytic_problem("zdt1")
        front = problem.true_front(101)
        assert np.allclose(front[:, 1], 1.0 - np.sqrt(front[:, 0]))

    @pytest.mark.parametrize("name, n_dim", [("zdt1", 1), ("zdt1", 0), ("two-paraboloids", 0)])
    def test_too_few_dimensions_rejected(self, name, n_dim):
        with pytest.raises(ConfigurationError, match="n_dim"):
            make_analytic_problem(name, n_dim=n_dim)

    def test_smallest_dimensions_accepted(self):
        assert make_analytic_problem("zdt1", n_dim=2).evaluate(np.zeros(2)) == pytest.approx([0, 1])
        assert make_analytic_problem("two-paraboloids", n_dim=1).n_dim == 1

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_analytic_problem("rosenbrock")

    @pytest.mark.parametrize("name", ANALYTIC_PROBLEM_NAMES + ("mbs",))
    def test_dimension_is_read_from_the_box(self, name):
        if name == "mbs":
            problem = make_quarter_car_problem(n_dim=3)
        else:
            problem = make_analytic_problem(name)
        assert [f.name for f in fields(problem)] == ["name", "bounds", "evaluate", "true_front"]
        assert problem.n_dim == problem.bounds.dim

    def test_gradient_model_adapter(self):
        problem = make_analytic_problem("two-paraboloids")
        model = oracles.GradientModel(problem)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        assert np.array_equal(model.predict(x), problem.evaluate(x))
        with pytest.raises(ConfigurationError):
            oracles.GradientModel(make_analytic_problem("zdt1"))
