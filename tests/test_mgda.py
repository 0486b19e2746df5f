import numpy as np
import pytest

import oracles
from samo.core import (
    BoxBounds,
    ConfigurationError,
    Dataset,
    DecisionVector,
    ObjectiveVector,
    Sample,
    SamoError,
    dominates,
)
from samo.mgda import (
    DescentStep,
    MgdaConfig,
    _descent_directions,
    common_descent_direction,
    kkt_residual,
    mgda_run,
    multistart_mgda,
)
from samo.problems import GradientModel, make_analytic_problem
from samo.surrogate import TrainConfig, fit_mlp, fit_rbf


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

    def test_descent_step_validates_simplex(self):
        with pytest.raises(SamoError):
            DescentStep(np.zeros(2), np.array([0.7, 0.7]), 0.0)


class TestFrankWolfe:
    @pytest.mark.parametrize("seed", range(10))
    def test_objective_monotonically_non_increasing(self, seed):
        from samo.mgda import _min_norm_weights_fw

        rng = np.random.default_rng(seed)
        J = rng.normal(size=(4, 6))
        trace = []
        _min_norm_weights_fw(J @ J.T, objective_trace=trace)
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
        cfg = MgdaConfig(n_starts=100, seed=7)
        pareto = multistart_mgda(model, problem.bounds, cfg)
        assert len(pareto) >= 90
        for x in pareto.decision_matrix():
            assert segment_distance(x) < 1e-3

    def test_single_start(self):
        problem = make_analytic_problem("two-paraboloids")
        model = GradientModel(problem)
        pareto = multistart_mgda(model, problem.bounds, MgdaConfig(n_starts=1, seed=3))
        assert len(pareto) == 1

    def test_front_mutually_non_dominated(self):
        problem = make_analytic_problem("two-paraboloids")
        model = GradientModel(problem)
        front = multistart_mgda(model, problem.bounds, MgdaConfig(n_starts=30, seed=5)).front_matrix()
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
    data = Dataset(tuple(Sample(DecisionVector(x), ObjectiveVector(y)) for x, y in zip(X, Y)))
    if kind == "mlp":
        return problem, fit_mlp(data, TrainConfig(epochs=40, patience=40, seed=1))
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
            assert np.array_equal(D[i], direction)
            assert np.array_equal(W[i], weights)
            assert norms[i] == norm
            assert common_descent_direction(Ji).norm == norm

    @staticmethod
    def recorded(run, model, bounds, cfg):
        """Front (or the error raised), traces and counts of one multistart."""
        traces, stats = {}, {}
        try:
            pareto = run(model, bounds, cfg, trace_writer=traces.__setitem__, stats=stats)
            outcome = (pareto.decision_matrix(), pareto.front_matrix())
        except SamoError:
            outcome = None
        return outcome, traces, stats

    @pytest.mark.parametrize(
        "n_obj,kind,backtracking",
        [(2, "rbf", False), (2, "rbf", True), (3, "rbf", False), (2, "mlp", True)],
    )
    def test_multistart_with_traces(self, n_obj, kind, backtracking):
        problem, model = paraboloid_model(n_obj, kind)
        # descent on this network stalls at the box edge, so its starts do
        # not converge; a short budget still compares every stacked step.
        # The long steps with backtracking make it halve some of them.
        cfg = MgdaConfig(
            n_starts=24,
            seed=5,
            backtracking=backtracking,
            learning_rate=2.0 if backtracking else 0.2,
            max_iterations=60 if kind == "mlp" else 10_000,
        )
        fast = self.recorded(multistart_mgda, model, problem.bounds, cfg)
        slow = self.recorded(oracles.multistart_mgda, model, problem.bounds, cfg)
        if kind == "rbf":
            assert slow[0] is not None
        if slow[0] is None:
            assert fast[0] is None
        else:
            assert np.array_equal(fast[0][0], slow[0][0])
            assert np.array_equal(fast[0][1], slow[0][1])
        assert sorted(fast[1]) == list(range(24))
        for start, trace in slow[1].items():
            assert np.array_equal(fast[1][start], trace)
        assert fast[2] == slow[2]

    def test_multistart_without_traces_same_front(self):
        problem, model = paraboloid_model(2)
        cfg = MgdaConfig(n_starts=24, seed=6)
        fast = multistart_mgda(model, problem.bounds, cfg)
        slow = oracles.multistart_mgda(model, problem.bounds, cfg)
        assert np.array_equal(fast.decision_matrix(), slow.decision_matrix())

    @pytest.mark.parametrize("max_iterations", [1, 3, 50])
    def test_mgda_run_budget_exhausted(self, max_iterations):
        problem, model = paraboloid_model(2, "mlp")
        cfg = MgdaConfig(max_iterations=max_iterations, backtracking=True)
        x0 = np.array([0.9, -0.8, 0.7, -0.6])
        fast = mgda_run(model, x0, problem.bounds, cfg)
        slow = oracles.mgda_run(model, x0, problem.bounds, cfg)
        assert not fast.converged and fast.iterations == max_iterations
        assert np.array_equal(fast.x, slow.x)
        assert np.array_equal(fast.trace, slow.trace)

    def test_backtracking_rejects_nan_objective(self):
        # a candidate whose objectives are NaN is never accepted, so the
        # step is halved 30 times and then taken, as in the one-point rule
        class NanRight:
            def predict(self, x):
                f = np.array([x @ x, (x - 1.0) @ (x - 1.0)])
                return np.full(2, np.nan) if x[0] > 0.3 else f

            def input_jacobian(self, x):
                return np.vstack([2.0 * x, 2.0 * (x - 1.0)])

            def predict_batch(self, X):
                return np.array([self.predict(x) for x in X])

            def input_jacobian_batch(self, X):
                return np.array([self.input_jacobian(x) for x in X])

        bounds = BoxBounds(np.full(2, -1.0), np.full(2, 1.0))
        cfg = MgdaConfig(learning_rate=0.5, max_iterations=20, backtracking=True)
        x0 = np.array([0.25, 0.9])
        fast = mgda_run(NanRight(), x0, bounds, cfg)
        slow = oracles.mgda_run(NanRight(), x0, bounds, cfg)
        assert np.array_equal(fast.x, slow.x)
        assert np.array_equal(fast.trace, slow.trace, equal_nan=True)
        assert np.isnan(fast.trace).any()


class TestMultistartStats:
    def test_counts(self):
        problem = make_analytic_problem("two-paraboloids")
        stats = {}
        multistart_mgda(GradientModel(problem), problem.bounds, MgdaConfig(n_starts=10, seed=2), stats=stats)
        assert stats["starts"] == 10
        assert stats["converged"] + stats["dropped"] == 10
        assert 1 <= stats["max_iterations_used"] <= 10_000

    def test_counts_kept_when_no_start_converges(self):
        problem = make_analytic_problem("two-paraboloids")
        stats = {}
        cfg = MgdaConfig(n_starts=10, seed=2, max_iterations=1)
        with pytest.raises(SamoError, match="no start of 10 converged"):
            multistart_mgda(GradientModel(problem), problem.bounds, cfg, stats=stats)
        assert stats == {"starts": 10, "converged": 0, "dropped": 10, "max_iterations_used": 1}
