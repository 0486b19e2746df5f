import numpy as np
import pytest

from samo.core import (
    BoxBounds,
    ConfigurationError,
    Dataset,
    ParetoApproximation,
)
from samo import sampling
from samo.sampling import (
    _lloyd,
    kmeans,
    latin_hypercube,
    pareto_informed_samples,
)

UNIT_BOX_2D = BoxBounds(np.zeros(2), np.ones(2))


def assert_stratified(points: np.ndarray, bounds: BoxBounds) -> None:
    s = points.shape[0]
    for j in range(points.shape[1]):
        rel = (points[:, j] - bounds.lower[j]) / (bounds.upper[j] - bounds.lower[j])
        strata = np.floor(rel * s).astype(int)
        strata = np.clip(strata, 0, s - 1)
        assert sorted(strata) == list(range(s))


class TestLatinHypercube:
    def test_single_point_in_box(self):
        X = latin_hypercube(1, UNIT_BOX_2D, seed=0)
        assert X.shape == (1, 2)
        assert UNIT_BOX_2D.contains(X[0])

    def test_stratification_20_points(self):
        assert_stratified(latin_hypercube(20, UNIT_BOX_2D, seed=1), UNIT_BOX_2D)

    @pytest.mark.parametrize("s,n", [(3, 1), (7, 5), (20, 24), (13, 64)])
    def test_stratification_various_shapes(self, s, n):
        bounds = BoxBounds(np.full(n, -0.003), np.full(n, 0.003))
        assert_stratified(latin_hypercube(s, bounds, seed=s * n), bounds)

    def test_deterministic(self):
        a = latin_hypercube(10, UNIT_BOX_2D, seed=42)
        b = latin_hypercube(10, UNIT_BOX_2D, seed=42)
        assert np.array_equal(a, b)

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            latin_hypercube(0, UNIT_BOX_2D, seed=0)


class TestKmeans:
    def test_k_equals_n_returns_points(self):
        rng = np.random.default_rng(0)
        pts = rng.random((6, 2))
        centroids = kmeans(pts, 6, seed=1)
        got = {tuple(c) for c in centroids}
        expected = {tuple(p) for p in pts}
        assert got == expected

    def test_two_blobs(self):
        rng = np.random.default_rng(5)
        blob_a = rng.normal([0.0, 0.0], 0.05, (40, 2))
        blob_b = rng.normal([3.0, 3.0], 0.05, (40, 2))
        pts = np.vstack([blob_a, blob_b])
        centroids = kmeans(pts, 2, seed=2)
        means = sorted([blob_a.mean(axis=0), blob_b.mean(axis=0)], key=lambda m: m[0])
        got = sorted(centroids, key=lambda c: c[0])
        for center, mean in zip(got, means):
            assert np.linalg.norm(center - mean) < 0.05

    def test_identical_points_k1(self):
        pts = np.tile([1.5, -0.5], (8, 1))
        centroids = kmeans(pts, 1, seed=3)
        assert np.allclose(centroids[0], [1.5, -0.5])

    def test_k_larger_than_distinct_rejected(self):
        pts = np.tile([1.0, 1.0], (5, 1))
        with pytest.raises(ConfigurationError):
            kmeans(pts, 2, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        pts = rng.random((30, 3))
        assert np.array_equal(kmeans(pts, 5, seed=7), kmeans(pts, 5, seed=7))

    def test_empty_cluster_reseated_on_the_farthest_point(self, monkeypatch):
        # a starting centroid far from every point wins no member, so Lloyd's
        # update moves it onto the point farthest from its own centroid
        pts = np.array([[0.0, 0.0], [0.0, 0.1], [1.0, 0.0], [1.0, 0.1]])
        start = np.array([[0.0, 0.05], [100.0, 100.0]])
        monkeypatch.setattr(sampling, "_kmeans_pp_init", lambda X, k, rng: start.copy())
        monkeypatch.setattr(sampling, "_KMEANS_MAX_ITER", 1)
        assert np.array_equal(_lloyd(pts, 2, np.random.default_rng(0)), [[0.5, 0.05], [1.0, 0.0]])
        monkeypatch.setattr(sampling, "_KMEANS_MAX_ITER", 300)
        centroids = _lloyd(pts, 2, np.random.default_rng(0))
        assert np.allclose(centroids, [[0.0, 0.05], [1.0, 0.05]])

    @pytest.mark.parametrize("seed", range(5))
    def test_wcss_non_increasing(self, seed, monkeypatch):
        # the within-cluster sum of squares of the centroids after 0, 1, 2,
        # ... Lloyd iterations, each point assigned to its nearest centroid
        rng = np.random.default_rng(seed)
        pts = rng.random((60, 2))
        wcss = []
        for iterations in range(30):
            monkeypatch.setattr(sampling, "_KMEANS_MAX_ITER", iterations)
            centroids = _lloyd(pts, 8, np.random.default_rng(seed))
            d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            wcss.append(float(d2.min(axis=1).sum()))
        assert all(b <= a + 1e-12 for a, b in zip(wcss, wcss[1:]))


def make_pareto(points: np.ndarray) -> ParetoApproximation:
    # pair each decision point with a distinct non-dominated objective pair
    order = np.argsort(points[:, 0], kind="stable")
    ranks = np.empty(len(points))
    ranks[order] = np.arange(len(points))
    front = np.column_stack([ranks, len(points) - 1.0 - ranks])
    return ParetoApproximation.from_arrays(points, front)


def make_dataset(points: np.ndarray) -> Dataset:
    return Dataset(points, np.column_stack([np.arange(len(points)), np.ones(len(points))]))


class TestParetoInformedSamples:
    def test_s_equals_population_returns_members(self):
        rng = np.random.default_rng(1)
        pts = rng.random((10, 2))
        pareto = make_pareto(pts)
        X = pareto_informed_samples(pareto, 10, Dataset(), UNIT_BOX_2D, seed=0)
        assert {tuple(p) for p in X} == {tuple(p) for p in pts}

    def test_spread_beats_random_subsets(self):
        # k-means batches should be better spread than random subsets of the
        # same size: compare mean minimum pairwise distance over 30 seeds
        rng = np.random.default_rng(2)
        pts = rng.random((100, 2))
        pareto = make_pareto(pts)

        def min_pairwise(batch: np.ndarray) -> float:
            d = np.sqrt(((batch[:, None, :] - batch[None, :, :]) ** 2).sum(axis=2))
            return float(d[np.triu_indices(len(batch), k=1)].min())

        informed = np.mean(
            [
                min_pairwise(pareto_informed_samples(pareto, 20, Dataset(), UNIT_BOX_2D, seed=s))
                for s in range(30)
            ]
        )
        random_subset = np.mean(
            [
                min_pairwise(pts[np.random.default_rng(s).choice(100, 20, replace=False)])
                for s in range(30)
            ]
        )
        assert informed > random_subset

    def test_fully_sampled_pareto_set_falls_back_to_fresh_points(self):
        rng = np.random.default_rng(3)
        pts = rng.random((5, 2))
        pareto = make_pareto(pts)
        existing = make_dataset(pts)
        X = pareto_informed_samples(pareto, 5, existing, UNIT_BOX_2D, seed=4)
        assert X.shape == (5, 2)
        archive = existing.X
        for p in X:
            assert UNIT_BOX_2D.contains(p)
            dist = np.sqrt(((archive - p) ** 2).sum(axis=1)).min()
            assert dist > 1e-9

    def test_never_out_of_bounds_never_duplicates(self):
        rng = np.random.default_rng(6)
        for seed in range(10):
            pts = rng.random((40, 3))
            pareto = make_pareto(pts)
            existing = make_dataset(pts[:15])
            bounds = BoxBounds(np.zeros(3), np.ones(3))
            matrix = pareto_informed_samples(pareto, 8, existing, bounds, seed=seed)
            assert np.all(matrix >= 0.0) and np.all(matrix <= 1.0)
            archive = existing.X
            for row in matrix:
                assert np.sqrt(((archive - row) ** 2).sum(axis=1)).min() > 1e-9
            assert len(np.unique(matrix, axis=0)) == len(matrix)

    def test_requests_more_than_members(self):
        rng = np.random.default_rng(8)
        pts = rng.random((3, 2))
        X = pareto_informed_samples(make_pareto(pts), 6, Dataset(), UNIT_BOX_2D, seed=1)
        assert X.shape == (6, 2)

    def test_invalid_count(self):
        pareto = make_pareto(np.random.default_rng(9).random((4, 2)))
        with pytest.raises(ConfigurationError):
            pareto_informed_samples(pareto, 0, Dataset(), UNIT_BOX_2D, seed=0)
