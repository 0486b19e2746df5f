import numpy as np
import pytest

import oracles
from samo.core import (
    BoxBounds,
    ConfigurationError,
    Dataset,
    SamoError,
)
from samo.mgda import (
    MgdaConfig,
    _descend,
    _descent_directions,
    mgda_run,
    multistart_mgda,
)
from oracles import GradientModel, common_descent_direction, dominates, kkt_residual
from samo.problems import make_analytic_problem
from samo.sampling import latin_hypercube
from samo.surrogate import RbfModel, TrainConfig, fit_mlp, fit_rbf, select_rbf_width


def grid_min_norm_k2(J: np.ndarray, step: float = 1e-3) -> float:
    w1 = np.arange(0.0, 1.0 + step / 2, step)
    W = np.column_stack([w1, 1.0 - w1])
    return float(np.sqrt(((W @ J) ** 2).sum(axis=1).min()))


def grid_min_norm_k3(J: np.ndarray, step: float = 1e-3) -> float:
    best = np.inf
    for w1 in np.arange(0.0, 1.0 + step / 2, step):
        w2 = np.arange(0.0, 1.0 - w1 + step / 2, step)
        W = np.column_stack([np.full(len(w2), w1), w2, 1.0 - w1 - w2])
        best = min(best, float(((W @ J) ** 2).sum(axis=1).min()))
    return float(np.sqrt(best))


class TestCommonDescentDirection:
    def test_opposing_gradients_critical(self):
        v = np.array([1.0, 2.0, -1.0])
        step = common_descent_direction(np.vstack([v, -v]))
        assert step.weights == pytest.approx([0.5, 0.5])
        assert step.norm == pytest.approx(0.0)

    def test_identical_gradients(self):
        v = np.array([3.0, -4.0])
        step = common_descent_direction(np.vstack([v, v]))
        assert step.weights == pytest.approx([0.5, 0.5])
        assert np.allclose(step.direction, -v)

    def test_single_objective_reduces_to_gradient(self):
        v = np.array([1.0, 1.0])
        step = common_descent_direction(v[None, :])
        assert step.weights == pytest.approx([1.0])
        assert np.allclose(step.direction, -v)

    def test_zero_row_handled(self):
        J = np.vstack([np.zeros(4), np.ones(4)])
        step = common_descent_direction(J)
        assert step.norm == pytest.approx(0.0)
        assert step.weights[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_k2_closed_form_matches_grid(self, seed):
        rng = np.random.default_rng(seed)
        J = rng.normal(size=(2, 5))
        step = common_descent_direction(J)
        assert abs(step.norm - grid_min_norm_k2(J)) < 1e-3
        assert step.norm <= grid_min_norm_k2(J) + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_k3_frank_wolfe_matches_grid(self, seed):
        rng = np.random.default_rng(100 + seed)
        J = rng.normal(size=(3, 5))
        step = common_descent_direction(J)
        assert abs(step.norm - grid_min_norm_k3(J)) < 1e-3
        assert step.norm <= grid_min_norm_k3(J) + 1e-12

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_weights_on_simplex(self, k):
        rng = np.random.default_rng(k)
        for _ in range(50):
            step = common_descent_direction(rng.normal(size=(k, 4)))
            assert np.all(step.weights >= -1e-10)
            assert abs(step.weights.sum() - 1.0) <= 1e-10

    def test_common_descent_property(self):
        # every objective's directional derivative along d is non-positive
        # up to the subproblem gap whenever d is non-zero
        rng = np.random.default_rng(42)
        for _ in range(50):
            J = rng.normal(size=(3, 6))
            step = common_descent_direction(J)
            if step.norm > 1e-6:
                inner = J @ step.direction
                assert np.all(inner <= step.norm * 1e-6)

    def test_non_finite_jacobian_rejected(self):
        with pytest.raises(SamoError):
            common_descent_direction(np.array([[np.nan, 1.0]]))


class TestFrankWolfe:
    @pytest.mark.parametrize("seed", range(10))
    def test_objective_monotonically_non_increasing(self, seed, monkeypatch):
        # w^T G w of the weights after 0, 1, 2, ... Frank-Wolfe iterations,
        # up to the weights of the unlimited run
        from samo import mgda
        from samo.mgda import _min_norm_weights_fw

        rng = np.random.default_rng(seed)
        J = rng.normal(size=(4, 6))
        G = J @ J.T
        final = _min_norm_weights_fw(G)
        trace = []
        for iterations in range(mgda._FW_MAX_ITER + 1):
            monkeypatch.setattr(mgda, "_FW_MAX_ITER", iterations)
            w = _min_norm_weights_fw(G)
            trace.append(float(w @ G @ w))
            if np.array_equal(w, final):
                break
        assert len(trace) > 1
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


class TestWeightedDescent:
    def test_weighted_objective_decreases_along_small_steps(self):
        # with a small step the weighted objective w . g decreases at every
        # accepted iterate of the descent update
        problem = make_analytic_problem("two-paraboloids")
        model = GradientModel(problem)
        eta = 0.01
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.uniform(problem.bounds.lower, problem.bounds.upper)
            for _ in range(200):
                step = common_descent_direction(model.input_jacobian(x))
                if step.norm < 1e-9:
                    break
                weighted_here = float(step.weights @ model.predict(x))
                x = np.clip(x + eta * step.direction, problem.bounds.lower, problem.bounds.upper)
                weighted_next = float(step.weights @ model.predict(x))
                assert weighted_next <= weighted_here + 1e-12


class TestKktResidual:
    def test_opposing_equal_norm_zero(self):
        v = np.array([2.0, 0.0])
        assert kkt_residual(np.vstack([v, -v])) == pytest.approx(0.0)

    def test_identical_gradients_norm(self):
        v = np.array([3.0, 4.0])
        assert kkt_residual(np.vstack([v, v])) == pytest.approx(5.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_closed_form_k2(self, seed):
        rng = np.random.default_rng(seed)
        J = rng.normal(size=(2, 4))
        g1, g2 = J
        w = np.clip(float((g2 - g1) @ g2) / float((g1 - g2) @ (g1 - g2)), 0.0, 1.0)
        expected = np.linalg.norm(w * g1 + (1 - w) * g2)
        assert kkt_residual(J) == pytest.approx(expected, abs=1e-12)


def segment_distance(x: np.ndarray, n_dim: int = 4) -> float:
    """Distance to the analytic Pareto set {t * a : t in [-1, 1]}."""
    a = np.full(n_dim, 0.5)
    t = float(np.clip((x @ a) / (a @ a), -1.0, 1.0))
    return float(np.linalg.norm(x - t * a))


@pytest.fixture(scope="module")
def model():
    return GradientModel(make_analytic_problem("two-paraboloids"))


class TestMgdaRun:

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("name", ["learning_rate", "tolerance"])
    def test_config_step_and_tolerance_positive(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be strictly positive"):
            MgdaConfig(**{name: value})

    def test_converges_to_pareto_segment(self, model):
        problem = make_analytic_problem("two-paraboloids")
        cfg = MgdaConfig(learning_rate=0.05, max_iterations=10_000, tolerance=1e-6)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x0 = rng.uniform(problem.bounds.lower, problem.bounds.upper)
            result = mgda_run(model, x0, problem.bounds, cfg)
            assert result.converged
            assert result.trace[-1, 1] < 1e-6
            assert segment_distance(result.x) < 1e-4

    def test_critical_start_returns_after_one_iteration(self, model):
        problem = make_analytic_problem("two-paraboloids")
        cfg = MgdaConfig()
        x0 = np.zeros(4)  # t = 0 on the segment: gradients oppose exactly
        result = mgda_run(model, x0, problem.bounds, cfg)
        assert result.converged and result.iterations == 1
        assert np.array_equal(result.x, x0)

    def test_single_objective_gradient_descent(self):
        class Sphere:
            def predict_batch(self, X):
                return (X**2).sum(axis=1, keepdims=True)

            def input_jacobian_batch(self, X):
                return 2.0 * X[:, None, :]

        bounds = BoxBounds(np.full(3, -2.0), np.full(3, 2.0))
        cfg = MgdaConfig(learning_rate=0.1, max_iterations=5000, tolerance=1e-8)
        result = mgda_run(Sphere(), np.array([1.0, -1.5, 0.5]), bounds, cfg)
        assert result.converged
        assert np.linalg.norm(result.x) < 1e-6

    def test_out_of_bounds_start_rejected(self, model):
        problem = make_analytic_problem("two-paraboloids")
        with pytest.raises(ConfigurationError):
            mgda_run(model, np.full(4, 5.0), problem.bounds, MgdaConfig())

    def test_trace_columns(self, model):
        problem = make_analytic_problem("two-paraboloids")
        result = mgda_run(model, np.full(4, 0.25), problem.bounds, MgdaConfig())
        assert result.trace.shape[1] == 2 + 2  # iteration, ||d||, two objectives
        assert np.all(np.diff(result.trace[:, 0]) == 1.0)

    def test_non_finite_gradient_raises(self):
        class Broken:
            def predict_batch(self, X):
                return np.zeros((len(X), 2))

            def input_jacobian_batch(self, X):
                return np.full((len(X), 2, 2), np.nan)

        bounds = BoxBounds(np.zeros(2), np.ones(2))
        with pytest.raises(SamoError, match="non-finite gradient"):
            mgda_run(Broken(), np.full(2, 0.5), bounds, MgdaConfig())


class TestMultistart:
    def test_front_coverage_and_criticality(self):
        problem = make_analytic_problem("two-paraboloids")
        model = GradientModel(problem)
        pareto = multistart_mgda(model, problem.bounds, MgdaConfig(), n_starts=100, seed=7)
        assert len(pareto) >= 90
        for x in pareto.X:
            assert segment_distance(x) < 1e-3

    def test_single_start(self):
        problem = make_analytic_problem("two-paraboloids")
        model = GradientModel(problem)
        pareto = multistart_mgda(model, problem.bounds, MgdaConfig(), n_starts=1, seed=3)
        assert len(pareto) == 1

    def test_front_mutually_non_dominated(self):
        problem = make_analytic_problem("two-paraboloids")
        model = GradientModel(problem)
        front = multistart_mgda(model, problem.bounds, MgdaConfig(), n_starts=30, seed=5).F
        for i in range(len(front)):
            for j in range(len(front)):
                if i != j:
                    assert not dominates(front[i], front[j])


def paraboloid_model(n_obj: int, kind: str = "rbf"):
    """A surrogate of n_obj squared distances to points on the diagonal of
    [-1, 1]^4, fitted on 30 Latin-hypercube samples."""
    problem = make_analytic_problem("two-paraboloids")
    X = np.random.default_rng(n_obj).uniform(-1.0, 1.0, (30, 4))
    anchors = np.linspace(-0.5, 0.5, n_obj)
    Y = np.column_stack([((X - a) ** 2).sum(axis=1) for a in anchors])
    data = Dataset(X, Y)
    if kind == "mlp":
        return problem, fit_mlp(data, TrainConfig(epochs=40, patience=40), seed=1)
    return problem, fit_rbf(data, sigma=1.0)


class TestBatchedMatchesOnePointOracle:
    """The batched kernel against the one-start loop in tests/oracles.py,
    with exact equality."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_descent_directions(self, k):
        rng = np.random.default_rng(k)
        J = rng.normal(size=(40, k, 5))
        J[1] = J[1, :1]  # identical gradients
        J[2, -1] = -J[2, 0]  # opposing gradients
        J[3] = 0.0
        D, W, norms = _descent_directions(J)
        for i, Ji in enumerate(J):
            direction, weights, norm = oracles.descent_step(Ji)
            assert D[i].tobytes() == direction.tobytes()
            assert W[i].tobytes() == weights.tobytes()
            assert norms[i] == norm
            assert common_descent_direction(Ji).norm == norm

    @staticmethod
    def recorded(run, model, bounds, cfg, n_starts, seed):
        """Front (or the error raised), the traces written and counts of one
        multistart."""
        traces, stats = [], {}
        try:
            pareto = run(
                model,
                bounds,
                cfg,
                n_starts=n_starts,
                seed=seed,
                trace_writer=traces.append,
                stats=stats,
            )
            outcome = (pareto.X, pareto.F)
        except SamoError:
            outcome = None
        return outcome, traces, stats

    @pytest.mark.parametrize(
        "n_obj,kind,long_steps",
        [(2, "rbf", False), (2, "rbf", True), (3, "rbf", False), (2, "mlp", True)],
    )
    def test_multistart_with_traces(self, n_obj, kind, long_steps):
        problem, model = paraboloid_model(n_obj, kind)
        # descent on this network stalls at the box edge, so its starts do
        # not converge; a short budget still compares every stacked step.
        # Steps twice as long change in which iteration each start ends.
        cfg = MgdaConfig(
            learning_rate=0.4 if long_steps else 0.2,
            max_iterations=60 if kind == "mlp" else 10_000,
        )
        fast = self.recorded(multistart_mgda, model, problem.bounds, cfg, 24, 5)
        slow = self.recorded(oracles.multistart_mgda, model, problem.bounds, cfg, 24, 5)
        if kind == "rbf":
            assert slow[0] is not None
        if slow[0] is None:
            assert fast[0] is None
        else:
            assert np.array_equal(fast[0][0], slow[0][0])
            assert np.array_equal(fast[0][1], slow[0][1])
        # one trace for all starts, in iteration order
        assert len(fast[1]) == len(slow[1]) == 1
        trace = fast[1][0]
        assert np.array_equal(np.unique(trace[:, 1]), np.arange(24))
        assert (np.diff(trace[:, 0]) >= 0.0).all()
        assert trace.shape == slow[1][0].shape and trace.tobytes() == slow[1][0].tobytes()
        assert fast[2] == slow[2]

    def test_multistart_without_traces_same_front(self):
        problem, model = paraboloid_model(2)
        fast = multistart_mgda(model, problem.bounds, MgdaConfig(), n_starts=24, seed=6)
        slow = oracles.multistart_mgda(model, problem.bounds, MgdaConfig(), n_starts=24, seed=6)
        assert np.array_equal(fast.X, slow.X)

    @pytest.mark.parametrize("max_iterations", [1, 3, 50])
    def test_mgda_run_budget_exhausted(self, max_iterations):
        problem, model = paraboloid_model(2, "mlp")
        cfg = MgdaConfig(max_iterations=max_iterations)
        x0 = np.array([0.9, -0.8, 0.7, -0.6])
        fast = mgda_run(model, x0, problem.bounds, cfg)
        slow = oracles.mgda_run(model, x0, problem.bounds, cfg)
        assert not fast.converged and fast.iterations == max_iterations
        assert np.array_equal(fast.x, slow.x)
        assert np.array_equal(fast.trace, slow.trace)


class TestLeanDescentMatchesGatherScatter:
    """`_descend` against `oracles.descend`, one `mgda_run` per start, byte
    for byte; named after the gather-scatter loop `_descend` replaced."""

    @staticmethod
    def setting(name):
        if name == "gradient":
            problem = make_analytic_problem("two-paraboloids")
            return GradientModel(problem), problem.bounds
        problem, model = paraboloid_model(int(name[-1]))
        return model, problem.bounds

    @pytest.mark.parametrize("name", ["gradient", "rbf2", "rbf3"])
    @pytest.mark.parametrize("long_steps", [False, True])
    @pytest.mark.parametrize("keep_traces", [False, True])
    @pytest.mark.parametrize("max_iterations", [5, 10_000])
    def test_outputs_byte_equal(self, name, long_steps, keep_traces, max_iterations):
        model, bounds = self.setting(name)
        starts = latin_hypercube(12, bounds, 3)
        # repeated starts finish in the same iteration; for the analytic
        # gradients the origin is critical at iteration 1
        X0 = np.vstack([starts, starts[:3], np.zeros((1, 4)), bounds.lower, bounds.upper])
        # steps of 0.4 instead of 0.2 change in which iteration each start
        # turns critical: on rbf2 the last one ends at 464 instead of 80
        cfg = MgdaConfig(learning_rate=0.4 if long_steps else 0.2, max_iterations=max_iterations)
        got = _descend(model, X0, bounds, cfg, keep_traces)
        want = oracles.descend(model, X0, bounds, cfg, keep_traces)
        for a, b in zip(got[:3], want[:3]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        if keep_traces:
            assert np.array_equal(np.unique(got[3][:, 1]), np.arange(len(X0)))
            assert got[3].shape == want[3].shape and got[3].tobytes() == want[3].tobytes()
        else:
            assert got[3] is None
        assert np.array_equal(got[2][:3], got[2][12:15])
        if name == "gradient":
            assert got[1][15] and got[2][15] == 1

    def test_every_start_critical_at_the_first_iteration(self):
        model, bounds = self.setting("gradient")
        X0 = np.zeros((3, 4))
        got = _descend(model, X0, bounds, MgdaConfig(), keep_traces=True)
        want = oracles.descend(model, X0, bounds, MgdaConfig(), keep_traces=True)
        assert got[1].all() and (got[2] == 1).all()
        # one trace row per start, all of iteration 1
        assert np.array_equal(got[3][:, :2], [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDescentOnModelConstants:
    """The RBF batch forms, which keep the model's constants, against the
    row-major forms of tests/oracles.py, and `_descend`, which steps and
    clips into the direction array, against `oracles.descend` on those
    forms, byte for byte. From 8 coordinates on the squared distances take
    `_pairwise_sum`'s order. The test is named after the helper chain the
    batch forms replaced."""

    @pytest.mark.parametrize("width", ["fixed", "searched"])
    @pytest.mark.parametrize("n", [1, 4, 8, 24])
    @pytest.mark.parametrize("s", [1, 7, 60])
    def test_matches_helper_chain(self, monkeypatch, s, n, width):
        rng = np.random.default_rng(100 * n + s)
        X = rng.uniform(-1.0, 1.0, (30, n))
        data = Dataset(X, np.column_stack([((X - a) ** 2).sum(axis=1) for a in (-0.5, 0.5)]))
        model = fit_rbf(data, sigma=select_rbf_width(data) if width == "searched" else 1.0)
        bounds = BoxBounds(-np.ones(n), np.ones(n))
        # points beyond the box as well
        Q = rng.uniform(-1.5, 1.5, (s, n))
        got = [model.predict_batch(Q), model.input_jacobian_batch(Q)]
        X0 = latin_hypercube(s, bounds, n)
        cfg = MgdaConfig(learning_rate=0.2, max_iterations=300)
        got += _descend(model, X0, bounds, cfg, keep_traces=True)
        monkeypatch.setattr(RbfModel, "predict_batch", oracles.rbf_predict_row_major)
        monkeypatch.setattr(RbfModel, "input_jacobian_batch", oracles.rbf_input_jacobian_row_major)
        want = [model.predict_batch(Q), model.input_jacobian_batch(Q)]
        want += oracles.descend(model, X0, bounds, cfg, keep_traces=True)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_nan_norm_is_not_finished(self):
        """A start whose norm is NaN keeps moving while another finishes:
        gradients of +-1e200 overflow the K = 2 weights to NaN where x0 > 0,
        and the gradients are zero elsewhere, NaN included."""

        class Overflowing:
            def input_jacobian_batch(self, X):
                g = np.where(X[:, :1] > 0.0, 1e200, 0.0) * np.eye(1, 3)
                return np.stack([g, -g], axis=1)

            def input_jacobian(self, x):
                return self.input_jacobian_batch(x[None])[0]

            def predict(self, x):
                return np.zeros(2)

        bounds = BoxBounds(-np.ones(3), np.ones(3))
        X0 = np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = _descend(Overflowing(), X0, bounds, MgdaConfig(), keep_traces=False)
            want = oracles.descend(Overflowing(), X0, bounds, MgdaConfig(), keep_traces=False)
        assert got[1].all() and got[2].tolist() == [2, 1] and np.isnan(got[0][0, 0])
        for a, b in zip(got[:3], want[:3]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestMultistartStats:
    def test_counts(self):
        problem = make_analytic_problem("two-paraboloids")
        stats = {}
        multistart_mgda(
            GradientModel(problem), problem.bounds, MgdaConfig(), n_starts=10, seed=2, stats=stats
        )
        assert stats["starts"] == 10
        assert stats["converged"] + stats["dropped"] == 10
        assert 1 <= stats["max_iterations_used"] <= 10_000

    def test_counts_kept_when_no_start_converges(self):
        problem = make_analytic_problem("two-paraboloids")
        stats = {}
        cfg = MgdaConfig(max_iterations=1)
        with pytest.raises(SamoError, match="no start of 10 converged"):
            multistart_mgda(GradientModel(problem), problem.bounds, cfg, n_starts=10, seed=2, stats=stats)
        assert stats == {"starts": 10, "converged": 0, "dropped": 10, "max_iterations_used": 1}

    def test_a_nan_norm_start_is_dropped_and_the_others_descend_as_alone(self):
        """One start's norm is NaN at every iteration: where x0 > 0.6, NaN
        included, the two-paraboloids gradients are replaced by +-1e200,
        which stay finite but overflow the K = 2 weights to inf / inf. The
        Latin hypercube puts exactly one of five starts there, and the
        others descend toward the Pareto segment, where x0 <= 0.5."""
        problem = make_analytic_problem("two-paraboloids")
        analytic = GradientModel(problem)

        class PartlyOverflowing:
            def predict_batch(self, X):
                return analytic.predict_batch(X)

            def input_jacobian_batch(self, X):
                J = analytic.input_jacobian_batch(X)
                wild = ~(X[:, 0] <= 0.6)
                J[wild] = 0.0
                J[wild, :, 0] = [1e200, -1e200]
                return J

        model, bounds = PartlyOverflowing(), problem.bounds
        cfg = MgdaConfig(max_iterations=1000)
        starts = latin_hypercube(5, bounds, 4)
        calm = starts[:, 0] <= 0.6
        assert calm.sum() == 4
        stats, traces = {}, []
        with np.errstate(over="ignore", invalid="ignore"):
            front = multistart_mgda(
                model, bounds, cfg, n_starts=5, seed=4, trace_writer=traces.append, stats=stats
            )
        X, converged, _, _ = _descend(model, starts[calm], bounds, cfg, keep_traces=False)
        assert converged.all() and front.X.tobytes() == X.tobytes()
        assert stats == {"starts": 5, "converged": 4, "dropped": 1, "max_iterations_used": 1000}
        (trace,) = traces
        assert np.isnan(trace[trace[:, 1] == np.flatnonzero(~calm)[0], 2]).all()

    @pytest.mark.parametrize("n_starts", [0, -1])
    def test_no_start_rejected_before_any_model_call(self, n_starts):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"model.{name} used before n_starts was rejected")

        bounds = BoxBounds(np.zeros(2), np.ones(2))
        stats = {}
        with pytest.raises(ConfigurationError, match="n_starts must be positive"):
            multistart_mgda(Untouchable(), bounds, MgdaConfig(), n_starts=n_starts, seed=0, stats=stats)
        assert stats == {}
