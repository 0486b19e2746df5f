import numpy as np
import pytest

import oracles
from samo.core import (
    BoxBounds,
    ConfigurationError,
    DimensionMismatchError,
    dominates,
    non_dominated_filter,
)
from samo.moea import (
    MoeaConfig,
    crowding_distance,
    fast_non_dominated_sort,
    nsga2_run,
    polynomial_mutation,
    sbx_crossover,
)
from samo.problems import make_analytic_problem
from samo.surrogate import MlpModel, Scaler

UNIT_BOX = BoxBounds(np.zeros(2), np.ones(2))
WIDE_BOX = BoxBounds(np.full(1, -100.0), np.full(1, 100.0))


def peel_fronts(Y: np.ndarray) -> list:
    """Oracle: repeatedly apply the non-dominance filter and remove."""
    remaining = list(range(len(Y)))
    fronts = []
    while remaining:
        idx = np.array(remaining)
        keep = non_dominated_filter(Y[idx])
        front = idx[keep]
        fronts.append(sorted(front.tolist()))
        remaining = [i for i in remaining if i not in set(front.tolist())]
    return fronts


class TestSorting:
    def test_mutually_non_dominated_single_front(self):
        Y = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        fronts = fast_non_dominated_sort(Y)
        assert len(fronts) == 1 and sorted(fronts[0].tolist()) == [0, 1, 2]

    def test_chain_gives_singletons(self):
        Y = np.array([[i, i] for i in range(5)], dtype=float)
        fronts = fast_non_dominated_sort(Y)
        assert [f.tolist() for f in fronts] == [[0], [1], [2], [3], [4]]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_peeling_oracle(self, seed):
        rng = np.random.default_rng(seed)
        Y = rng.random((100, 2))
        fronts = [sorted(f.tolist()) for f in fast_non_dominated_sort(Y)]
        assert fronts == peel_fronts(Y)

    @pytest.mark.parametrize("n,k,seed", [(300, 2, 10), (300, 3, 11), (150, 3, 12)])
    def test_matches_peeling_oracle_larger(self, n, k, seed):
        rng = np.random.default_rng(seed)
        Y = rng.random((n, k))
        fronts = [sorted(f.tolist()) for f in fast_non_dominated_sort(Y)]
        assert fronts == peel_fronts(Y)

    def test_dominated_point_in_second_front(self):
        fronts = fast_non_dominated_sort(np.array([[1.0, 1.0], [0.5, 2.0], [2.0, 2.0]]))
        assert sorted(fronts[0].tolist()) == [0, 1]
        assert fronts[1].tolist() == [2]


class TestCrowding:
    def test_two_points_infinite(self):
        assert np.all(np.isinf(crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))))

    def test_middle_point_hand_value(self):
        # three points on f2 = 1 - f1 with the middle one equidistant: the
        # normalized gap is 1.0 per objective, so the crowding sums to 2.0
        front = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        dist = crowding_distance(front)
        assert np.isinf(dist[0]) and np.isinf(dist[2])
        assert dist[1] == pytest.approx(2.0)

    def test_duplicates_finite(self):
        front = np.array([[0.0, 1.0], [0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
        dist = crowding_distance(front)
        finite = dist[np.isfinite(dist)]
        assert len(finite) == 2 and np.all(finite >= 0.0)


class TestSbx:
    def test_prob_zero_copies_parents(self):
        rng = np.random.default_rng(0)
        p1 = np.array([0.2, 0.8])
        p2 = np.array([0.6, 0.1])
        c1, c2 = sbx_crossover(p1, p2, prob=0.0, eta_c=20.0, bounds=UNIT_BOX, rng=rng)
        assert np.array_equal(c1, p1) and np.array_equal(c2, p2)

    def test_midpoint_preserved(self):
        rng = np.random.default_rng(1)
        box = BoxBounds(np.full(4, -100.0), np.full(4, 100.0))
        for _ in range(200):
            p1 = rng.uniform(-1, 1, 4)
            p2 = rng.uniform(-1, 1, 4)
            c1, c2 = sbx_crossover(p1, p2, prob=1.0, eta_c=20.0, bounds=box, rng=rng)
            assert np.allclose(c1 + c2, p1 + p2, atol=1e-12)

    def test_spread_factor_distribution(self):
        # recover the spread factor from 1-D children and compare the
        # empirical histogram to the analytic SBX law in 20 equal-probability
        # bins: F(b) = b^(eta+1)/2 below 1, 1 - b^-(eta+1)/2 above
        eta = 20.0
        rng = np.random.default_rng(7)
        p1 = np.array([0.0])
        p2 = np.array([1.0])
        betas = []
        for _ in range(100_000):
            c1, c2 = sbx_crossover(p1, p2, 1.0, eta, WIDE_BOX, rng, var_prob=1.0)
            betas.append(abs(float(c2[0] - c1[0])))
        betas = np.array(betas)
        quantiles = np.arange(1, 20) / 20.0
        edges = np.where(
            quantiles <= 0.5,
            (2.0 * quantiles) ** (1.0 / (eta + 1.0)),
            (2.0 * (1.0 - quantiles)) ** (-1.0 / (eta + 1.0)),
        )
        counts, _ = np.histogram(betas, bins=[0.0, *edges, np.inf])
        total_error = np.abs(counts / len(betas) - 0.05).sum()
        assert total_error < 0.02

    def test_children_clamped(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            c1, c2 = sbx_crossover(
                np.array([0.01]), np.array([0.99]), 1.0, 2.0, UNIT_BOX, rng
            )
            for c in (c1, c2):
                assert 0.0 <= c[0] <= 1.0


class TestPolynomialMutation:
    def test_prob_zero_unchanged(self):
        rng = np.random.default_rng(0)
        x = np.array([0.3, 0.7])
        assert np.array_equal(polynomial_mutation(x, 20.0, 0.0, UNIT_BOX, rng), x)

    def test_always_within_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(100_000):
            x = rng.random(2)
            y = polynomial_mutation(x, 20.0, 1.0, UNIT_BOX, rng)
            assert np.all(y >= 0.0) and np.all(y <= 1.0)

    def test_larger_eta_smaller_steps(self):
        box = BoxBounds(np.zeros(1), np.ones(1))
        x = np.array([0.5])

        def mean_step(eta, seed):
            rng = np.random.default_rng(seed)
            return np.mean(
                [abs(float(polynomial_mutation(x, eta, 1.0, box, rng)[0] - 0.5))
                 for _ in range(100_000)]
            )

        assert mean_step(20.0, 5) > mean_step(100.0, 5)


class TestNsga2:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MoeaConfig(population_size=99)  # odd
        with pytest.raises(ConfigurationError):
            MoeaConfig(crossover_prob=1.5)

    def test_seeded_determinism(self):
        problem = make_analytic_problem("two-paraboloids")
        cfg = MoeaConfig(population_size=20, generations=15, seed=5)
        a = nsga2_run(problem.evaluate_batch, problem.bounds, cfg)
        b = nsga2_run(problem.evaluate_batch, problem.bounds, cfg)
        assert np.array_equal(a.decision_matrix(), b.decision_matrix())
        assert np.array_equal(a.front_matrix(), b.front_matrix())

    def test_front_mutually_non_dominated(self):
        problem = make_analytic_problem("two-paraboloids")
        cfg = MoeaConfig(population_size=20, generations=10, seed=1)
        front = nsga2_run(problem.evaluate_batch, problem.bounds, cfg).front_matrix()
        for i in range(len(front)):
            for j in range(len(front)):
                if i != j:
                    assert not dominates(front[i], front[j])

    def test_population_size_and_elitism_via_snapshots(self):
        problem = make_analytic_problem("two-paraboloids")
        cfg = MoeaConfig(population_size=16, generations=25, seed=3)
        snapshots = []

        def writer(gen, X, Y):
            snapshots.append((gen, X.copy(), Y.copy()))

        nsga2_run(problem.evaluate_batch, problem.bounds, cfg, snapshot_writer=writer)
        assert len(snapshots) == 25
        for gen, X, Y in snapshots:
            assert X.shape[0] <= 16 and X.shape[0] >= 1
        # elitist non-degradation: no current front member is dominated by
        # any previous front member
        for (_, _, prev), (_, _, cur) in zip(snapshots, snapshots[1:]):
            for y in cur:
                assert not any(dominates(p, y) for p in prev)

    def test_exactly_m_offspring_evaluations_per_generation(self):
        problem = make_analytic_problem("two-paraboloids")
        calls = {"n": 0}

        def counting(X):
            calls["n"] += len(X)
            calls["populations"] = calls.get("populations", 0) + 1
            return problem.evaluate_batch(X)

        m, gens = 14, 9
        nsga2_run(counting, problem.bounds, MoeaConfig(population_size=m, generations=gens, seed=4))
        assert calls["n"] == m * (gens + 1)  # initial population plus one batch per generation
        assert calls["populations"] == gens + 1  # one objective call per population

    def test_non_finite_objectives_demoted(self):
        problem = make_analytic_problem("two-paraboloids")

        def flaky(X):
            Y = problem.evaluate_batch(X)
            Y[X[:, 0] > 0.5] = np.nan
            return Y

        cfg = MoeaConfig(population_size=12, generations=8, seed=2)
        front = nsga2_run(flaky, problem.bounds, cfg).front_matrix()
        assert np.all(np.isfinite(front))

    def test_demoted_count(self):
        problem = make_analytic_problem("two-paraboloids")

        def flaky(X):
            Y = problem.evaluate_batch(X)
            Y[[0, 3], 0] = np.inf  # two rows of every population
            return Y

        stats = {}
        cfg = MoeaConfig(population_size=10, generations=6, seed=1)
        nsga2_run(flaky, problem.bounds, cfg, stats=stats)
        assert stats == {"demoted": 2 * (6 + 1)}

    def test_objective_must_return_one_row_per_point(self):
        problem = make_analytic_problem("two-paraboloids")
        with pytest.raises(DimensionMismatchError):
            nsga2_run(lambda X: problem.evaluate_batch(X)[:-1], problem.bounds, MoeaConfig())

    def test_one_batch_call_matches_rowwise_evaluation(self):
        # a network whose batch product differs from the one-point product
        # unless every row is computed as its own vector-matrix product
        rng = np.random.default_rng(0)
        model = MlpModel(
            weights=(rng.normal(size=(4, 64)), rng.normal(size=(64, 64)) / 8, rng.normal(size=(64, 2))),
            biases=(rng.normal(size=64), rng.normal(size=64), np.zeros(2)),
            scaler=Scaler(np.zeros(4), np.ones(4), np.zeros(2), np.ones(2)),
        )
        bounds = BoxBounds(np.full(4, -1.0), np.full(4, 1.0))
        cfg = MoeaConfig(population_size=20, generations=15, seed=3)
        fast, slow = [], []
        nsga2_run(model.predict_batch, bounds, cfg, snapshot_writer=lambda *a: fast.append(a))
        oracles.rowwise_nsga2(nsga2_run)(
            model.predict_batch, bounds, cfg, snapshot_writer=lambda *a: slow.append(a)
        )
        assert len(fast) == len(slow) == 15
        for (g1, X1, Y1), (g2, X2, Y2) in zip(fast, slow):
            assert g1 == g2 and np.array_equal(X1, X2) and np.array_equal(Y1, Y2)

    def test_zdt1_reduced_run_quality(self):
        # half-length sanity run; the full paper-sized runs live in the
        # acceptance suite
        problem = make_analytic_problem("zdt1")
        cfg = MoeaConfig(population_size=100, generations=100, seed=0)
        front = nsga2_run(problem.evaluate_batch, problem.bounds, cfg).front_matrix()
        from samo.driver import igd_normalized

        assert igd_normalized(front, problem.true_front(500)) < 0.05
