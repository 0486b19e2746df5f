import numpy as np
import pytest

from samo.core import ConfigurationError, Dataset, DecisionVector, ObjectiveVector, Sample
from samo.problems import GradientModel, make_analytic_problem, make_quarter_car_problem
from samo.sampling import latin_hypercube
from samo.surrogate import (
    MlpModel,
    RbfModel,
    Scaler,
    SolverError,
    TrainConfig,
    cross_validated_mse,
    fit_mlp,
    fit_rbf,
    load_model,
    model_from_json_dict,
    save_model,
    select_rbf_width,
)


def dataset_from_arrays(X: np.ndarray, Y: np.ndarray) -> Dataset:
    return Dataset(
        tuple(Sample(DecisionVector(x), ObjectiveVector(y)) for x, y in zip(X, Y))
    )


def lhs_dataset(problem, n, seed) -> Dataset:
    plan = latin_hypercube(n, problem.bounds, seed)
    X = plan.matrix()
    Y = np.array([problem.evaluate(x) for x in X])
    return dataset_from_arrays(X, Y)


class TestScaler:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_identity(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(3.0, 10.0, (30, 4))
        Y = rng.normal(-2.0, 0.5, (30, 2))
        scaler = Scaler.fit(X, Y)
        assert np.all(np.abs(scaler.inverse_x(scaler.transform_x(X)) - X) < 1e-12 * (1 + np.abs(X)))
        assert np.all(np.abs(scaler.inverse_y(scaler.transform_y(Y)) - Y) < 1e-12 * (1 + np.abs(Y)))

    def test_degenerate_coordinate_keeps_unit_scale(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Y = np.ones((10, 1))
        scaler = Scaler.fit(X, Y)
        assert scaler.x_scale[0] == 1.0
        assert scaler.y_scale[0] == 1.0

    def test_positive_scale_enforced(self):
        with pytest.raises(ConfigurationError):
            Scaler(np.zeros(2), np.array([1.0, 0.0]), np.zeros(1), np.ones(1))


class TestRbf:
    def test_constant_data_predicts_constant(self):
        rng = np.random.default_rng(0)
        X = rng.random((12, 3))
        Y = np.full((12, 1), 4.2)
        model = fit_rbf(dataset_from_arrays(X, Y), sigma=1.0, ridge=1e-8)
        queries = rng.random((20, 3))
        assert np.all(np.abs(model.predict_batch(queries) - 4.2) < 1e-6)

    def test_interpolates_training_points(self):
        problem = make_analytic_problem("two-paraboloids")
        data = lhs_dataset(problem, 25, seed=3)
        model = fit_rbf(data, sigma=0.5, ridge=1e-8)
        pred = model.predict_batch(data.decision_matrix())
        assert np.max(np.abs(pred - data.objective_matrix())) < 1e-6

    def test_far_from_centers_decays_to_output_shift(self):
        rng = np.random.default_rng(1)
        X = rng.random((15, 2))
        Y = rng.random((15, 2)) * 5.0
        model = fit_rbf(dataset_from_arrays(X, Y), sigma=0.5, ridge=1e-8)
        # 10 sigma away in scaled space
        far = model.scaler.inverse_x(model.centers[0] + 10.0 * model.sigma * np.array([1.0, 1.0]))
        pred = model.predict(far)
        assert np.all(np.abs(pred - model.scaler.y_shift) < 1e-6)

    def test_singular_system_advises_ridge(self):
        # distinct decision vectors whose scaled coordinates collapse to the
        # same float, so the unregularized kernel matrix is exactly singular
        X = np.array([[0.0], [1e-200], [1.0]])
        Y = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(SolverError, match="ridge"):
            fit_rbf(dataset_from_arrays(X, Y), sigma=1.0, ridge=0.0)

    def test_needs_two_samples(self):
        with pytest.raises(ConfigurationError):
            fit_rbf(dataset_from_arrays(np.zeros((1, 2)), np.ones((1, 2))))

    def test_single_center_gradient_closed_form(self):
        # one Gaussian bump: d/dx [w exp(-||x-c||^2 / (2 s^2))] has the
        # closed form -w phi(r) (x - c) / s^2
        center = np.array([[0.3, -0.7]])
        weight = np.array([[2.5]])
        identity = Scaler(np.zeros(2), np.ones(2), np.zeros(1), np.ones(1))
        model = RbfModel(centers=center, weights=weight, sigma=0.8, ridge=0.0, scaler=identity)
        x = np.array([0.9, -0.1])
        diff = x - center[0]
        phi = np.exp(-(diff @ diff) / (2 * 0.8**2))
        expected = -2.5 * phi * diff / 0.8**2
        assert np.allclose(model.input_jacobian(x)[0], expected, rtol=1e-12)


class TestSigmaSelection:
    def test_single_element_grid(self):
        problem = make_analytic_problem("two-paraboloids")
        data = lhs_dataset(problem, 12, seed=0)
        assert select_rbf_width(data, grid=[2.0]) == 2.0

    def test_gaussian_field_recovers_width(self):
        grid = (0.1, 0.5, 1.0, 2.0, 5.0)
        hits = 0
        for trial in range(30):
            rng = np.random.default_rng(1000 + trial)
            X = rng.uniform(-1.0, 1.0, (40, 2))
            Xs = (X - X.mean(axis=0)) / X.std(axis=0)
            d2 = ((Xs[:, None, :] - Xs[None, :, :]) ** 2).sum(axis=2)
            cov = np.exp(-d2 / (2 * 0.5**2)) + 1e-10 * np.eye(40)
            Y = np.linalg.cholesky(cov) @ rng.normal(size=(40, 1))
            data = dataset_from_arrays(X, Y)
            if select_rbf_width(data, grid=grid) == 0.5:
                hits += 1
        assert hits >= 24  # at least 80% of 30 seeded trials

    def test_matches_brute_force_cv(self):
        problem = make_analytic_problem("two-paraboloids")
        data = lhs_dataset(problem, 20, seed=7)
        grid = (0.1, 0.5, 1.0, 2.0, 5.0)
        scores = {sigma: cross_validated_mse(data, sigma) for sigma in grid}
        best = min(sorted(scores), key=lambda s: scores[s])
        assert select_rbf_width(data, grid=grid) == best

    def test_benchmark_data_selects_cv_argmin_from_standard_grid(self):
        problem = make_quarter_car_problem()
        data = lhs_dataset(problem, 20, seed=3)
        grid = (0.1, 0.5, 1.0, 2.0, 5.0)
        scores = {sigma: cross_validated_mse(data, sigma) for sigma in grid}
        best = min(sorted(scores), key=lambda s: scores[s])
        assert select_rbf_width(data, grid=grid) == best

    def test_fold_count_reduced_with_warning(self):
        problem = make_analytic_problem("two-paraboloids")
        data = lhs_dataset(problem, 3, seed=2)
        with pytest.warns(UserWarning, match="folds"):
            cross_validated_mse(data, sigma=1.0, folds=5)


class TestMlp:
    def test_learns_linear_map(self):
        rng = np.random.default_rng(42)
        X = rng.uniform(-1.0, 1.0, (400, 6))
        B = rng.normal(size=(6, 2))
        Y = X @ B + rng.normal(size=2)
        model = fit_mlp(dataset_from_arrays(X, Y), TrainConfig(seed=3))
        # validation loss is tracked on scaled targets
        assert min(model.val_history) < 1e-3

    def test_seeded_determinism_bitwise(self):
        problem = make_analytic_problem("two-paraboloids")
        data = lhs_dataset(problem, 30, seed=5)
        cfg = TrainConfig(epochs=200, patience=200, seed=11)
        m1 = fit_mlp(data, cfg)
        m2 = fit_mlp(data, cfg)
        for W1, W2 in zip(m1.weights, m2.weights):
            assert np.array_equal(W1, W2)
        for b1, b2 in zip(m1.biases, m2.biases):
            assert np.array_equal(b1, b2)

    def test_benchmark_training_improves_10x(self):
        problem = make_quarter_car_problem()
        data = lhs_dataset(problem, 20, seed=1)
        model = fit_mlp(data, TrainConfig(seed=0))
        assert model.train_history[-1] * 10.0 <= model.train_history[0]

    def test_best_val_no_worse_than_first_epoch(self):
        problem = make_analytic_problem("two-paraboloids")
        data = lhs_dataset(problem, 40, seed=9)
        model = fit_mlp(data, TrainConfig(epochs=300, patience=300, seed=2))
        assert min(model.val_history) <= model.val_history[0]

    def test_needs_five_samples(self):
        problem = make_analytic_problem("two-paraboloids")
        with pytest.raises(ConfigurationError):
            fit_mlp(lhs_dataset(problem, 4, seed=0))

    def test_prediction_repeatable(self):
        problem = make_analytic_problem("two-paraboloids")
        data = lhs_dataset(problem, 20, seed=4)
        model = fit_mlp(data, TrainConfig(epochs=100, patience=100, seed=1))
        x = np.array([0.1, 0.2, -0.3, 0.4])
        assert np.array_equal(model.predict(x), model.predict(x))


@pytest.fixture(scope="module")
def trained_models():
    problem = make_analytic_problem("two-paraboloids")
    data = lhs_dataset(problem, 30, seed=8)
    rbf = fit_rbf(data, sigma=0.5, ridge=1e-8)
    mlp = fit_mlp(data, TrainConfig(epochs=500, patience=500, seed=6))
    return problem, rbf, mlp


class TestJacobians:
    @staticmethod
    def finite_difference(model, x, h=1e-5):
        n = len(x)
        k = len(model.predict(x))
        jac = np.empty((k, n))
        for i in range(n):
            bump = np.zeros(n)
            bump[i] = h
            jac[:, i] = (model.predict(x + bump) - model.predict(x - bump)) / (2 * h)
        return jac

    @pytest.mark.parametrize("kind", ["rbf", "mlp"])
    def test_matches_finite_differences_50_points(self, trained_models, kind):
        problem, rbf, mlp = trained_models
        model = rbf if kind == "rbf" else mlp
        rng = np.random.default_rng(0 if kind == "rbf" else 1)
        for _ in range(50):
            x = rng.uniform(problem.bounds.lower, problem.bounds.upper)
            analytic = model.input_jacobian(x)
            numeric = self.finite_difference(model, x)
            scale = max(np.abs(analytic).max(), 1e-12)
            assert np.abs(analytic - numeric).max() / scale < 1e-4

    def test_constant_rbf_zero_jacobian(self):
        rng = np.random.default_rng(2)
        X = rng.random((10, 3))
        Y = np.full((10, 2), 7.0)
        model = fit_rbf(dataset_from_arrays(X, Y), sigma=1.0, ridge=1e-8)
        assert np.allclose(model.input_jacobian(np.full(3, 0.5)), 0.0, atol=1e-9)

    def test_constant_mlp_zero_jacobian(self):
        identity = Scaler(np.zeros(2), np.ones(2), np.zeros(1), np.ones(1))
        rng = np.random.default_rng(3)
        model = MlpModel(
            weights=(rng.normal(size=(2, 4)), np.zeros((4, 1))),
            biases=(np.zeros(4), np.array([3.0])),
            scaler=identity,
        )
        assert np.array_equal(model.input_jacobian(np.array([0.4, -0.2])), np.zeros((1, 2)))
        assert model.predict(np.array([9.0, 9.0])) == pytest.approx([3.0])


class TestBatchRowsEqualOnePoint:
    """Row i of every batch form is bit for bit the one-point result at
    X[i]; the optimizers rely on it to batch without changing results."""

    @pytest.fixture(scope="class")
    def all_models(self, trained_models):
        problem, rbf, mlp = trained_models
        # 24 inputs, as in the quarter-car benchmark
        X = np.random.default_rng(3).uniform(-1.0, 1.0, (40, 24))
        wide = dataset_from_arrays(X, np.column_stack([(X**2).sum(axis=1), np.cos(X).sum(axis=1)]))
        return {
            "rbf": rbf,
            "mlp": mlp,
            "rbf-24d": fit_rbf(wide, sigma=2.0),
            "mlp-24d": fit_mlp(wide, TrainConfig(epochs=20, patience=20, seed=2)),
            "gradient": GradientModel(problem),
        }

    @pytest.mark.parametrize("kind", ["rbf", "mlp", "rbf-24d", "mlp-24d", "gradient"])
    @pytest.mark.parametrize("m", [1, 7, 60])
    def test_input_jacobian_batch(self, all_models, kind, m):
        model = all_models[kind]
        n_dim = 24 if kind.endswith("24d") else 4
        X = np.random.default_rng(m).uniform(-1.0, 1.0, (m, n_dim))
        J = model.input_jacobian_batch(X)
        assert J.shape == (m, 2, n_dim)
        assert np.array_equal(J, np.array([model.input_jacobian(x) for x in X]))

    @pytest.mark.parametrize("kind", ["rbf", "mlp", "rbf-24d", "mlp-24d", "gradient"])
    @pytest.mark.parametrize("m", [1, 7, 100])
    def test_predict_batch(self, all_models, kind, m):
        model = all_models[kind]
        n_dim = 24 if kind.endswith("24d") else 4
        X = np.random.default_rng(10 + m).uniform(-1.0, 1.0, (m, n_dim))
        Y = model.predict_batch(X)
        assert Y.shape == (m, 2)
        assert np.array_equal(Y, np.array([model.predict(x) for x in X]))

    def test_network_without_hidden_layers(self):
        identity = Scaler(np.zeros(3), np.ones(3), np.zeros(2), np.ones(2))
        W = np.random.default_rng(5).normal(size=(3, 2))
        model = MlpModel(weights=(W,), biases=(np.zeros(2),), scaler=identity)
        X = np.random.default_rng(6).normal(size=(4, 3))
        assert np.array_equal(model.input_jacobian_batch(X), np.broadcast_to(W.T, (4, 2, 3)))
        assert np.array_equal(model.predict_batch(X)[2], model.predict(X[2]))


class TestSerialization:
    def test_rbf_round_trip(self, tmp_path):
        problem = make_analytic_problem("two-paraboloids")
        data = lhs_dataset(problem, 15, seed=12)
        model = fit_rbf(data, sigma=0.5)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        x = np.array([0.3, 0.1, -0.4, 0.9])
        assert np.array_equal(model.predict(x), loaded.predict(x))

    def test_mlp_round_trip(self, tmp_path):
        problem = make_analytic_problem("two-paraboloids")
        data = lhs_dataset(problem, 15, seed=13)
        model = fit_mlp(data, TrainConfig(epochs=50, patience=50, seed=4))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        x = np.array([0.3, 0.1, -0.4, 0.9])
        assert np.array_equal(model.predict(x), loaded.predict(x))
        assert np.array_equal(model.input_jacobian(x), loaded.input_jacobian(x))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            model_from_json_dict({"kind": "kriging"})


class TestTrainConfig:
    def test_validation_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(validation_fraction=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(validation_fraction=1.0)

    def test_positive_epochs(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=0)
