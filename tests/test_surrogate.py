import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from samo.core import ConfigurationError, Dataset, DimensionMismatchError
from samo.cli import RunConfig
from samo.driver import SURROGATE_KINDS, SamoConfig, _fit_surrogate, samo_run
import oracles
from oracles import GradientModel, inverse_x
from samo.problems import Horizon, make_analytic_problem, make_quarter_car_problem
from samo import surrogate
from samo.sampling import latin_hypercube
from samo.surrogate import (
    DEFAULT_RIDGE,
    DEFAULT_SIGMA_GRID,
    MlpModel,
    RbfModel,
    RbfConfig,
    Scaler,
    SolverError,
    TrainConfig,
    _pairwise_sum,
    fit_mlp,
    fit_rbf,
    load_model,
    min_training_samples,
    save_model,
    select_rbf_width,
)


CONFIGS = Path(__file__).parent.parent / "configs"


def lhs_dataset(problem, n, seed) -> Dataset:
    X = latin_hypercube(n, problem.bounds, seed)
    Y = np.array([problem.evaluate(x) for x in X])
    return Dataset(X, Y)


def same_model(a: MlpModel, b: MlpModel) -> bool:
    """Whether two networks agree bit for bit in parameters and histories."""

    def arrays(m):
        return [*m.weights, *m.biases, np.array(m.train_history), np.array(m.val_history)]

    return all(np.array_equal(x, y) for x, y in zip(arrays(a), arrays(b)))


class TestScaler:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_identity(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(3.0, 10.0, (30, 4))
        Y = rng.normal(-2.0, 0.5, (30, 2))
        scaler = Scaler.fit(X, Y)
        assert np.all(np.abs(inverse_x(scaler, scaler.transform_x(X)) - X) < 1e-12 * (1 + np.abs(X)))
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
        model = fit_rbf(Dataset(X, Y), sigma=1.0, ridge=1e-8)
        queries = rng.random((20, 3))
        assert np.all(np.abs(model.predict_batch(queries) - 4.2) < 1e-6)

    def test_interpolates_training_points(self):
        problem = make_analytic_problem("two-paraboloids")
        data = lhs_dataset(problem, 25, seed=3)
        model = fit_rbf(data, sigma=0.5, ridge=1e-8)
        pred = model.predict_batch(data.X)
        assert np.max(np.abs(pred - data.Y)) < 1e-6

    def test_far_from_centers_decays_to_output_shift(self):
        rng = np.random.default_rng(1)
        X = rng.random((15, 2))
        Y = rng.random((15, 2)) * 5.0
        model = fit_rbf(Dataset(X, Y), sigma=0.5, ridge=1e-8)
        # 10 sigma away in scaled space
        far = inverse_x(model.scaler, model.centers[0] + 10.0 * model.sigma * np.array([1.0, 1.0]))
        pred = model.predict(far)
        assert np.all(np.abs(pred - model.scaler.y_shift) < 1e-6)

    def test_singular_system_advises_ridge(self):
        # distinct decision vectors whose scaled coordinates collapse to the
        # same float, so the unregularized kernel matrix is exactly singular
        X = np.array([[0.0], [1e-200], [1.0]])
        Y = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(SolverError, match="ridge"):
            fit_rbf(Dataset(X, Y), sigma=1.0, ridge=0.0)

    def test_needs_two_samples(self):
        with pytest.raises(ConfigurationError):
            fit_rbf(Dataset(np.zeros((1, 2)), np.ones((1, 2))), sigma=0.5)

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


class TestCoordinateMajorKernel:
    """The RBF kernel sums squared offsets over coordinate slices in
    numpy's pairwise order; every result must keep the bytes of the
    row-major forms in tests/oracles.py. A numpy whose reduction order
    differs fails here instead of changing results silently."""

    @pytest.mark.parametrize("n", [*range(1, 41), 127, 128, 129, 300])
    def test_sum_squares_matches_last_axis_reduction(self, n):
        rng = np.random.default_rng(n)
        # (1, 2) is the smallest kernel: one point and two centers
        for m, c in [(3, 5), (1, 2)]:
            d = rng.normal(size=(m, c, n)) * 10.0 ** rng.uniform(-6, 6, (m, c, n))
            sq = np.ascontiguousarray(np.moveaxis(d, -1, 0)) ** 2
            got = _pairwise_sum(sq)
            assert got.tobytes() == ((d**2).sum(axis=-1)).tobytes()

    @pytest.mark.parametrize("n", [1, 4, 7, 8, 9, 24, 30])
    @pytest.mark.parametrize("c", [2, 50, 130])
    def test_fit_predict_and_jacobian_match_row_major(self, n, c):
        rng = np.random.default_rng(100 * n + c)
        X = rng.uniform(-1.0, 1.0, (c, n))
        data = Dataset(X, np.column_stack([(X**2).sum(axis=1), np.cos(X).sum(axis=1)]))
        model = fit_rbf(data, sigma=2.0, ridge=1e-6)
        reference = oracles.fit_rbf_row_major(data, sigma=2.0, ridge=1e-6)
        assert model.weights.tobytes() == reference.weights.tobytes()
        for s in (1, 7, 60):
            Q = rng.uniform(-1.2, 1.2, (s, n))
            predicted = oracles.rbf_predict_row_major(model, Q)
            assert model.predict_batch(Q).tobytes() == predicted.tobytes()
            jacobian = oracles.rbf_input_jacobian_row_major(model, Q)
            assert model.input_jacobian_batch(Q).tobytes() == jacobian.tobytes()


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
            data = Dataset(X, Y)
            if select_rbf_width(data, grid=grid) == 0.5:
                hits += 1
        assert hits >= 24  # at least 80% of 30 seeded trials

    def test_matches_brute_force_cv(self):
        problem = make_analytic_problem("two-paraboloids")
        data = lhs_dataset(problem, 20, seed=7)
        grid = (0.1, 0.5, 1.0, 2.0, 5.0)
        scores = {sigma: oracles.leave_one_out_mse(data, sigma) for sigma in grid}
        best = min(sorted(scores), key=lambda s: scores[s])
        assert select_rbf_width(data, grid=grid) == best

    def test_benchmark_data_selects_cv_argmin_from_standard_grid(self):
        problem = make_quarter_car_problem()
        data = lhs_dataset(problem, 20, seed=3)
        grid = (0.1, 0.5, 1.0, 2.0, 5.0)
        scores = {sigma: oracles.leave_one_out_mse(data, sigma) for sigma in grid}
        best = min(sorted(scores), key=lambda s: scores[s])
        assert select_rbf_width(data, grid=grid) == best

    @pytest.mark.parametrize("source", ["two-paraboloids", "quarter-car"])
    @pytest.mark.parametrize("n", [2, 3, 4, 10, 50])
    def test_matches_brute_force_leave_one_out(self, source, n):
        # Rippa's closed form against one refit per left-out sample
        if source == "quarter-car":
            problem = make_quarter_car_problem(horizon=Horizon(te=0.2))
        else:
            problem = make_analytic_problem(source)
        data = lhs_dataset(problem, n, seed=n)
        want = [oracles.leave_one_out_mse(data, sigma) for sigma in DEFAULT_SIGMA_GRID]
        got = surrogate._leave_one_out_mses(data, DEFAULT_SIGMA_GRID, DEFAULT_RIDGE)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)
        assert select_rbf_width(data) == oracles.select_rbf_width(data)

    @pytest.mark.parametrize("n", [1])
    def test_too_few_samples_rejected(self, n):
        problem = make_analytic_problem("two-paraboloids")
        data = lhs_dataset(problem, n, seed=n)
        with pytest.raises(ConfigurationError, match="needs at least two samples"):
            select_rbf_width(data)

    def test_bad_width_or_ridge_rejected(self):
        data = lhs_dataset(make_analytic_problem("two-paraboloids"), 6, seed=1)
        with pytest.raises(ConfigurationError, match="sigma must be strictly positive"):
            select_rbf_width(data, grid=(0.0, 1.0))
        with pytest.raises(ConfigurationError, match="ridge parameter must be non-negative"):
            select_rbf_width(data, ridge=-1e-8)
        nan = float("nan")
        with pytest.raises(ConfigurationError, match="sigma must be strictly positive"):
            fit_rbf(data, sigma=nan)
        with pytest.raises(ConfigurationError, match="ridge parameter must be non-negative"):
            fit_rbf(data, sigma=1.0, ridge=nan)
        with pytest.raises(ConfigurationError, match="rbf.sigma must be strictly positive"):
            RbfConfig(sigma=nan)
        with pytest.raises(ConfigurationError, match="rbf.grid must hold at least one width"):
            RbfConfig(grid=(1.0, nan))
        with pytest.raises(ConfigurationError, match="rbf.ridge must be non-negative"):
            RbfConfig(ridge=nan)
        # an infinite width is a flat kernel that no longer interpolates
        inf = float("inf")
        with pytest.raises(ConfigurationError, match="sigma must be strictly positive and finite"):
            fit_rbf(data, sigma=inf)
        with pytest.raises(ConfigurationError, match="sigma must be strictly positive and finite"):
            select_rbf_width(data, grid=(1.0, inf))
        with pytest.raises(ConfigurationError, match="rbf.sigma must be strictly positive and finite"):
            RbfConfig(sigma=inf)
        with pytest.raises(ConfigurationError, match="rbf.grid must hold at least one width"):
            RbfConfig(grid=(1.0, inf))


class TestMlp:
    def test_learns_linear_map(self):
        rng = np.random.default_rng(42)
        X = rng.uniform(-1.0, 1.0, (400, 6))
        B = rng.normal(size=(6, 2))
        Y = X @ B + rng.normal(size=2)
        model = fit_mlp(Dataset(X, Y), seed=3)
        # validation loss is tracked on scaled targets
        assert min(model.val_history) < 1e-3

    def test_seeded_determinism_bitwise(self):
        problem = make_analytic_problem("two-paraboloids")
        data = lhs_dataset(problem, 30, seed=5)
        cfg = TrainConfig(epochs=200, patience=200)
        m1 = fit_mlp(data, cfg, seed=11)
        m2 = fit_mlp(data, cfg, seed=11)
        for W1, W2 in zip(m1.weights, m2.weights):
            assert np.array_equal(W1, W2)
        for b1, b2 in zip(m1.biases, m2.biases):
            assert np.array_equal(b1, b2)

    def test_benchmark_training_improves_10x(self):
        problem = make_quarter_car_problem()
        data = lhs_dataset(problem, 20, seed=1)
        model = fit_mlp(data, seed=0)
        assert model.train_history[-1] * 10.0 <= model.train_history[0]

    def test_best_val_no_worse_than_first_epoch(self):
        problem = make_analytic_problem("two-paraboloids")
        data = lhs_dataset(problem, 40, seed=9)
        model = fit_mlp(data, TrainConfig(epochs=300, patience=300), seed=2)
        assert min(model.val_history) <= model.val_history[0]

    @pytest.mark.parametrize("batch_size", [24, 1000])
    def test_batch_of_all_training_rows_is_full_batch_bitwise(self, batch_size):
        # 30 samples leave 24 training rows beside 6 validation rows
        data = lhs_dataset(make_analytic_problem("two-paraboloids"), 30, seed=5)
        full = fit_mlp(data, TrainConfig(epochs=60, patience=60, restarts=2), seed=4)
        cfg = TrainConfig(epochs=60, patience=60, restarts=2, batch_size=batch_size)
        assert same_model(fit_mlp(data, cfg, seed=4), full)

    def test_mini_batches_deterministic_with_finite_histories(self):
        data = lhs_dataset(make_analytic_problem("two-paraboloids"), 30, seed=5)
        cfg = TrainConfig(epochs=40, patience=40, batch_size=2, restarts=2)
        model = fit_mlp(data, cfg, seed=7)
        assert same_model(model, fit_mlp(data, cfg, seed=7))
        assert not same_model(model, fit_mlp(data, replace(cfg, batch_size=0), seed=7))
        assert len(model.train_history) == len(model.val_history) == 40
        assert np.all(np.isfinite(model.train_history)) and np.all(np.isfinite(model.val_history))

    def test_needs_five_samples(self):
        problem = make_analytic_problem("two-paraboloids")
        with pytest.raises(ConfigurationError):
            fit_mlp(lhs_dataset(problem, 4, seed=0))
        # 10 samples split at 0.95 leave no training row
        cfg = TrainConfig(validation_fraction=0.95)
        with pytest.raises(ConfigurationError, match="^network training needs at least 11 samples"):
            fit_mlp(lhs_dataset(problem, 10, seed=0), cfg)

    @pytest.mark.parametrize("fraction", [0.01, 0.2, 0.5, 0.8, 0.9, 0.95, 0.999])
    def test_min_training_samples_is_the_least_split_with_a_training_row(self, fraction):
        def training_rows(n):
            return n - max(1, int(round(fraction * n)))

        least = min_training_samples("mlp", validation_fraction=fraction)
        assert least >= 5 and training_rows(least) >= 1
        assert least == 5 or training_rows(least - 1) < 1

    def test_prediction_repeatable(self):
        problem = make_analytic_problem("two-paraboloids")
        data = lhs_dataset(problem, 20, seed=4)
        model = fit_mlp(data, TrainConfig(epochs=100, patience=100), seed=1)
        x = np.array([0.1, 0.2, -0.3, 0.4])
        assert np.array_equal(model.predict(x), model.predict(x))



class TestFlatAdamAgainstListAdam:
    """`_train_once` keeps every weight, bias and gradient in one flat
    buffer; it must train bit for bit as the per-parameter Adam in
    tests/oracles.py."""

    @staticmethod
    def scaled(n, seed, problem=None):
        data = lhs_dataset(problem or make_analytic_problem("two-paraboloids"), n, seed)
        scaler = Scaler.fit(data.X, data.Y)
        return data, scaler.transform_x(data.X), scaler.transform_y(data.Y)

    @staticmethod
    def assert_same_training(fast, slow):
        (w1, b1, best1, train1, val1), (w2, b2, best2, train2, val2) = fast, slow
        assert len(w1) == len(w2) and len(b1) == len(b2)
        for a, b in zip([*w1, *b1], [*w2, *b2]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert np.float64(best1).tobytes() == np.float64(best2).tobytes()
        assert np.array(train1).tobytes() == np.array(train2).tobytes()
        assert np.array(val1).tobytes() == np.array(val2).tobytes()

    @pytest.mark.parametrize("batch_size", [0, 2, 7])
    def test_batches(self, batch_size):
        _, Xs, Ys = self.scaled(30, seed=5)
        cfg = TrainConfig(epochs=60, patience=60, batch_size=batch_size, hidden=(16, 9))
        self.assert_same_training(
            surrogate._train_once(Xs, Ys, cfg, 3, 8), oracles.train_once(Xs, Ys, cfg, 3, 8)
        )

    def test_quarter_car_full_batch(self):
        _, Xs, Ys = self.scaled(40, seed=2, problem=make_quarter_car_problem(horizon=Horizon(te=0.2)))
        cfg = TrainConfig(epochs=150, patience=150)
        self.assert_same_training(
            surrogate._train_once(Xs, Ys, cfg, 1, 2), oracles.train_once(Xs, Ys, cfg, 1, 2)
        )

    def test_stops_on_patience(self):
        # a large step overfits within a few epochs, so the best epoch is
        # copied several times and the run stops well before `epochs`
        _, Xs, Ys = self.scaled(30, seed=6)
        cfg = TrainConfig(epochs=2000, patience=20, learning_rate=0.05)
        fast = surrogate._train_once(Xs, Ys, cfg, 4, 5)
        self.assert_same_training(fast, oracles.train_once(Xs, Ys, cfg, 4, 5))
        val = fast[4]
        assert len(val) < cfg.epochs and len(val) - 1 - int(np.argmin(val)) == cfg.patience
        assert np.sum(np.minimum.accumulate(val)[1:] < np.minimum.accumulate(val)[:-1]) > 1

    @pytest.mark.parametrize("restarts", [1, 2, 3])
    def test_restarts_through_fit_mlp(self, tmp_path, monkeypatch, restarts):
        data, _, _ = self.scaled(25, seed=7)
        cfg = TrainConfig(epochs=40, patience=40, batch_size=7, restarts=restarts)
        save_model(fit_mlp(data, cfg, seed=3), tmp_path / "flat.json")
        monkeypatch.setattr(surrogate, "_train_once", oracles.train_once)
        save_model(fit_mlp(data, cfg, seed=3), tmp_path / "list.json")
        assert (tmp_path / "flat.json").read_bytes() == (tmp_path / "list.json").read_bytes()

@pytest.fixture(scope="module")
def trained_models():
    problem = make_analytic_problem("two-paraboloids")
    data = lhs_dataset(problem, 30, seed=8)
    rbf = fit_rbf(data, sigma=0.5, ridge=1e-8)
    mlp = fit_mlp(data, TrainConfig(epochs=500, patience=500), seed=6)
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

    def test_rbf_batch_writes_only_arrays_it_made(self, trained_models):
        """The in-place products and scalings of the RBF Jacobian touch no
        array of the caller's or the model's."""
        rbf = trained_models[1]
        X = np.random.default_rng(4).uniform(-1.0, 1.0, (7, 4))
        held = [X, rbf.centers, rbf.weights, rbf.scaler.x_shift, rbf.scaler.x_scale,
                rbf.scaler.y_shift, rbf.scaler.y_scale]
        before = [a.copy() for a in held]
        first, second = rbf.input_jacobian_batch(X), rbf.input_jacobian_batch(X)
        assert first.tobytes() == second.tobytes()
        assert not any(np.shares_memory(first, a) for a in [second, *held])
        kept = second.copy()
        first[...] = np.nan
        assert second.tobytes() == kept.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(held, before))

    @pytest.mark.parametrize("kind", ["rbf", "mlp"])
    def test_batch_forms_reject_a_single_vector(self, trained_models, kind):
        model = trained_models[1 if kind == "rbf" else 2]
        for batch_form in (model.predict_batch, model.input_jacobian_batch):
            with pytest.raises(DimensionMismatchError, match=r"\(M, 4\) array"):
                batch_form(np.zeros(4))

    def test_constant_rbf_zero_jacobian(self):
        rng = np.random.default_rng(2)
        X = rng.random((10, 3))
        Y = np.full((10, 2), 7.0)
        model = fit_rbf(Dataset(X, Y), sigma=1.0, ridge=1e-8)
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
        wide = Dataset(X, np.column_stack([(X**2).sum(axis=1), np.cos(X).sum(axis=1)]))
        return {
            "rbf": rbf,
            "mlp": mlp,
            "rbf-24d": fit_rbf(wide, sigma=2.0),
            "mlp-24d": fit_mlp(wide, TrainConfig(epochs=20, patience=20), seed=2),
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
        model = fit_mlp(data, TrainConfig(epochs=50, patience=50), seed=4)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        x = np.array([0.3, 0.1, -0.4, 0.9])
        assert np.array_equal(model.predict(x), loaded.predict(x))
        assert np.array_equal(model.input_jacobian(x), loaded.input_jacobian(x))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"kind": "kriging"}))
        with pytest.raises(ConfigurationError, match="kriging"):
            load_model(path)

    @pytest.mark.parametrize("kind", SURROGATE_KINDS)
    def test_every_kind_re_saves_to_the_same_bytes(self, tmp_path, kind):
        data = lhs_dataset(make_analytic_problem("two-paraboloids"), 12, seed=15)
        cfg = SamoConfig(surrogate=kind, batch_size=10, train=TrainConfig(epochs=20, patience=20))
        model = _fit_surrogate(data, cfg, round_index=0)
        save_model(model, tmp_path / "saved.json")
        loaded = load_model(tmp_path / "saved.json")
        assert type(loaded) is type(model)
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "saved.json").read_bytes()

    # (kind, edit of the saved document, error) by what the edit breaks
    MALFORMED = {
        "missing-key": ("rbf", lambda d: d.pop("sigma"), r"^missing keys in model: \['sigma'\]$"),
        "missing-nested-key": (
            "rbf", lambda d: d["scaler"].pop("y_scale"), r"^missing keys in model.scaler: \['y_scale'\]$"
        ),
        "null-key": ("rbf", lambda d: d.update(sigma=None), r"^missing keys in model: \['sigma'\]$"),
        "unknown-key": ("rbf", lambda d: d.update(width=1.0), r"^unknown keys in model: \['width'\]$"),
        "unknown-nested-key": (
            "mlp", lambda d: d["scaler"].update(shift=[0.0]), r"^unknown keys in model.scaler: \['shift'\]$"
        ),
        "string-width": ("rbf", lambda d: d.update(sigma="x"), r"^model.sigma must be a finite number, got 'x'$"),
        "nan-entry": (
            "rbf",
            lambda d: d["centers"][0].__setitem__(0, math.nan),
            "^model.centers must be nested lists of finite numbers",
        ),
        "ragged-array": (
            "rbf", lambda d: d["weights"][1].append(0.0), "^model.weights must be nested lists of finite numbers"
        ),
        "string-entries": (
            "rbf", lambda d: d["scaler"].update(x_scale=["1.0"] * 4), "^model.scaler.x_scale must be nested lists"
        ),
        "infinite-layer-entry": (
            "mlp",
            lambda d: d["weights"][0][0].__setitem__(0, math.inf),
            "^model.weights must be a list, each entry nested lists of finite numbers",
        ),
        "boolean-history-entry": (
            "mlp",
            lambda d: d["val_history"].append(True),
            "^model.val_history must be a list, each entry a finite number",
        ),
        "list-section": ("rbf", lambda d: d.update(scaler=[1.0]), "^model.scaler must be an object or null"),
        # shapes: 30 centers on 4 coordinates, 2 objectives, a 4-64-64-2 network
        "weights-row-short": (
            "rbf", lambda d: d["weights"].pop(), r"^model.weights has shape \(29, 2\), unlike the others$"
        ),
        "weights-flat": ("rbf", lambda d: d.update(weights=d["weights"][0]), r"^model.weights has shape \(2,\)"),
        "input-scale-short": (
            "rbf", lambda d: d["scaler"]["x_scale"].pop(), r"^model.scaler.x_scale has shape \(3,\)"
        ),
        "output-shift-long": (
            "mlp", lambda d: d["scaler"]["y_shift"].append(0.0), r"^model.scaler.y_shift has shape \(3,\)"
        ),
        "layers-do-not-chain": (
            "mlp", lambda d: d["weights"][1].pop(), r"^model.weights\[1\] has shape \(63, 64\), unlike the others$"
        ),
        "bias-short": ("mlp", lambda d: d["biases"][2].pop(), r"^model.biases\[2\] has shape \(1,\)"),
        "bias-missing": (
            "mlp", lambda d: d["biases"].pop(), "^model.weights needs layers and model.biases one vector per layer$"
        ),
        "no-layers": ("mlp", lambda d: d.update(weights=[], biases=[]), "^model.weights needs layers"),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_file_rejected_naming_the_key(self, tmp_path, trained_models, case):
        kind, change, message = self.MALFORMED[case]
        _, rbf, mlp = trained_models
        path = tmp_path / "model.json"
        save_model(rbf if kind == "rbf" else mlp, path)
        saved = json.loads(path.read_text())
        change(saved)
        path.write_text(json.dumps(saved))
        with pytest.raises(ConfigurationError, match=message):
            load_model(path)

    def test_weights_cut_short_rejected_on_load(self, tmp_path):
        # cheap_demo's round-0 RBF with its weights cut to 9 of 10 rows; the
        # mismatch would otherwise surface only in predict, as numpy's ValueError
        config = RunConfig.from_file(CONFIGS / "cheap_demo.json")
        samo_run(config.problem, replace(config.samo, budget=10), run_dir=tmp_path)
        path = tmp_path / "surrogate_round_0.json"
        saved = json.loads(path.read_text())
        assert (len(saved["centers"]), len(saved["weights"])) == (10, 10)
        assert load_model(path).predict(np.zeros(4)).shape == (2,)
        saved["weights"] = saved["weights"][:9]
        path.write_text(json.dumps(saved))
        with pytest.raises(ConfigurationError, match=r"^model.weights has shape \(9, 2\), unlike the others$"):
            load_model(path)

    @pytest.mark.parametrize("case", ["list", "empty", "truncated"])
    def test_file_that_is_no_model_object_rejected(self, tmp_path, trained_models, case):
        path = tmp_path / "model.json"
        save_model(trained_models[1], path)
        # a truncated file is one cut off while it was written
        content = {"list": "[1.0]", "empty": "", "truncated": path.read_text()[:-50]}[case]
        path.write_text(content)
        message = "^model must be an object" if case == "list" else "^model file .* is not valid JSON"
        with pytest.raises(ConfigurationError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "kind, keys",
        [
            ("rbf", ["kind", "sigma", "ridge", "centers", "weights", "scaler"]),
            ("mlp", ["kind", "weights", "biases", "scaler", "train_history", "val_history"]),
        ],
    )
    def test_round_trip_exact_in_every_field(self, tmp_path, kind, keys):
        data = lhs_dataset(make_analytic_problem("two-paraboloids"), 15, seed=14)
        if kind == "rbf":
            model = fit_rbf(data, sigma=0.5)
        else:
            model = fit_mlp(data, TrainConfig(epochs=30, patience=30), seed=2)
        # constants an RBF keeps from its first batch call are no fields
        model.predict_batch(data.X[:3])
        model.input_jacobian_batch(data.X[:3])
        path = tmp_path / "model.json"
        save_model(model, path)
        saved = json.loads(path.read_text())
        assert list(saved) == keys
        assert list(saved["scaler"]) == ["x_shift", "x_scale", "y_shift", "y_scale"]
        loaded = load_model(path)
        assert type(loaded) is type(model)
        for name in keys[1:]:
            a, b = getattr(model, name), getattr(loaded, name)
            if name == "scaler":
                a, b = vars(a).values(), vars(b).values()
            elif not isinstance(a, tuple):
                a, b = [a], [b]
            assert all(np.array_equal(u, v) and type(u) is type(v) for u, v in zip(a, b, strict=True))
        assert loaded.input_jacobian_batch(data.X[:3]).tobytes() == model.input_jacobian_batch(data.X[:3]).tobytes()
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


class TestTrainConfig:
    def test_validation_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(validation_fraction=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(validation_fraction=1.0)

    def test_positive_epochs(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("learning_rate", [0.0, float("nan")])
    def test_positive_learning_rate(self, learning_rate):
        with pytest.raises(ConfigurationError, match="learning_rate must be strictly positive"):
            TrainConfig(learning_rate=learning_rate)
