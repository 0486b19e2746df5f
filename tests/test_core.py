import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import dominates
from samo.core import (
    BoxBounds,
    ConfigurationError,
    Dataset,
    DimensionMismatchError,
    DuplicateSampleError,
    EmptyInputError,
    ParetoApproximation,
    SamoError,
    dominance_matrix,
    hausdorff_distance,
    non_dominated_filter,
    point_matrix,
)
from samo.driver import igd_normalized
from samo.mgda import MgdaResult
from samo.problems import Trajectory, make_analytic_problem, make_quarter_car_problem
from samo.surrogate import Scaler, TrainConfig, fit_mlp, fit_rbf
from samo.moea import crowding_distance, fast_non_dominated_sort
from samo.sampling import kmeans


def brute_force_non_dominated(points: np.ndarray) -> np.ndarray:
    """O(n^2) oracle: a point survives iff no other point dominates it."""
    keep = []
    for i, p in enumerate(points):
        dominated = False
        for j, q in enumerate(points):
            if i != j and np.all(q <= p) and np.any(q < p):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return np.array(keep, dtype=int)


class TestDominates:
    def test_strict_improvement(self):
        assert dominates((1, 1), (2, 2))

    def test_incomparable_trade_off(self):
        assert not dominates((1, 2), (2, 1))
        assert not dominates((2, 1), (1, 2))

    def test_never_dominates_itself(self):
        assert not dominates((1, 1), (1, 1))

    def test_weak_plus_one_strict(self):
        assert dominates((1, 2), (1, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dominates((1, 2), (1, 2, 3))

    @given(
        st.lists(
            st.tuples(*[st.floats(-10, 10) for _ in range(3)]), min_size=3, max_size=3
        )
    )
    def test_irreflexive_asymmetric_transitive(self, triple):
        a, b, c = triple
        assert not dominates(a, a)
        if dominates(a, b):
            assert not dominates(b, a)
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


class TestNonDominatedFilter:
    def test_simple_front(self):
        pts = np.array([(1, 3), (2, 2), (3, 1), (3, 3)], dtype=float)
        assert list(non_dominated_filter(pts)) == [0, 1, 2]

    def test_single_point(self):
        assert list(non_dominated_filter([(4.0, 2.0)])) == [0]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            non_dominated_filter(np.empty((0, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_200_points(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((200, 2))
        got = non_dominated_filter(pts)
        expected = brute_force_non_dominated(pts)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n,k,seed", [(500, 2, 0), (500, 3, 1), (300, 4, 2)])
    def test_matches_brute_force_larger(self, n, k, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, k))
        assert np.array_equal(non_dominated_filter(pts), brute_force_non_dominated(pts))

    @given(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=40),
        st.lists(st.integers(0, 39), max_size=5),
    )
    def test_two_objective_sweep_equals_dominance_matrix(self, grid, inf_rows):
        # integer grids make ties and exact duplicates common; +inf rows are
        # how NSGA-II demotes non-finite individuals
        F = np.array(grid, dtype=float)
        F[[i for i in inf_rows if i < len(F)]] = np.inf
        expected = np.flatnonzero(~dominance_matrix(F).any(axis=0))
        assert np.array_equal(non_dominated_filter(F), expected)

    def test_two_objective_sweep_all_equal_and_signed_zero(self):
        assert list(non_dominated_filter(np.ones((6, 2)))) == list(range(6))
        F = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [1.0, 0.0]])
        assert list(non_dominated_filter(F)) == [2]

    def test_nan_takes_dominance_matrix(self):
        F = np.array([[np.nan, 1.0], [2.0, 2.0], [1.0, 3.0], [3.0, 3.0]])
        expected = np.flatnonzero(~dominance_matrix(F).any(axis=0))
        assert np.array_equal(non_dominated_filter(F), expected)

    def test_result_mutually_non_dominated(self):
        rng = np.random.default_rng(9)
        pts = rng.random((100, 3))
        idx = non_dominated_filter(pts)
        front = pts[idx]
        for i in range(len(front)):
            for j in range(len(front)):
                if i != j:
                    assert not dominates(front[i], front[j])


# every function that takes a point set reads it through `point_matrix`
POINT_SET_USERS = {
    "non_dominated_filter": non_dominated_filter,
    "fast_non_dominated_sort": fast_non_dominated_sort,
    "crowding_distance": crowding_distance,
    "igd_normalized": lambda points: igd_normalized(points, [[1.0, 2.0]]),
    "kmeans": lambda points: kmeans(points, 1, 0),
}


class TestPointMatrix:
    @pytest.mark.parametrize("user", POINT_SET_USERS)
    def test_one_check_for_every_user(self, user):
        use = POINT_SET_USERS[user]
        # no point, and points without coordinates
        for points in ([], np.empty((0, 2)), np.empty((3, 0))):
            with pytest.raises(EmptyInputError, match="must not be empty"):
                use(points)
        with pytest.raises(DimensionMismatchError, match="must be a sequence of points"):
            use(np.zeros((2, 2, 2)))
        assert point_matrix([1.0, 2.0], "one vector").tolist() == [[1.0, 2.0]]


class TestHausdorff:
    def test_identical_sets_zero(self):
        pts = np.random.default_rng(0).random((7, 2))
        assert hausdorff_distance(pts, pts) == 0.0

    def test_single_points(self):
        assert hausdorff_distance([(0.0, 0.0)], [(3.0, 4.0)]) == pytest.approx(5.0)

    def test_hand_computed_asymmetric_sets(self):
        # directed distance from (10,0) to {(0,1)} is sqrt(101); the reverse
        # direction contributes only 1
        h = hausdorff_distance([(0, 0), (10, 0)], [(0, 1)])
        assert abs(h - math.sqrt(101.0)) < 1e-12

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            A = rng.random((rng.integers(1, 8), 2))
            B = rng.random((rng.integers(1, 8), 2))
            C = rng.random((rng.integers(1, 8), 2))
            assert abs(hausdorff_distance(A, B) - hausdorff_distance(B, A)) < 1e-12
            assert hausdorff_distance(A, C) <= (
                hausdorff_distance(A, B) + hausdorff_distance(B, C) + 1e-12
            )

    def test_zero_iff_equal_point_sets(self):
        A = np.array([(0.0, 0.0), (1.0, 1.0)])
        B = np.array([(1.0, 1.0), (0.0, 0.0)])  # same set, different order
        assert hausdorff_distance(A, B) == 0.0
        C = np.array([(0.0, 0.0), (1.0, 1.0 + 1e-9)])
        assert hausdorff_distance(A, C) > 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            hausdorff_distance(np.empty((0, 2)), [(1.0, 2.0)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hausdorff_distance([(1.0, 2.0)], [(1.0, 2.0, 3.0)])


class TestTypes:
    def test_decision_vector_rejects_nan(self):
        with pytest.raises(SamoError):
            Dataset(np.array([[0.0, np.nan]]), np.ones((1, 2)))

    def test_objective_vector_rejects_inf(self):
        with pytest.raises(SamoError):
            Dataset(np.zeros((1, 2)), np.array([[np.inf, 1.0]]))

    def test_vectors_equal_bitwise(self):
        Y = np.ones((2, 2))
        with pytest.raises(DuplicateSampleError):
            Dataset(np.array([[0.1, 0.2], [0.1, 0.2 + 1e-17]]), Y)  # rounds to same float
        # 0.0 and -0.0 compare equal but differ bitwise
        assert len(Dataset(np.array([[0.0, 1.0], [-0.0, 1.0]]), Y)) == 2

    def test_bounds_require_lower_below_upper(self):
        with pytest.raises(ConfigurationError):
            BoxBounds(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_box_clip_is_np_clip(self):
        # values on the bounds, just outside, signed zeros, infinities and
        # NaN, against bounds that are themselves signed zeros
        values = [-0.0, 0.0, -1.0, 1.0, 0.5, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)]
        values += [np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300]
        bounds = BoxBounds(np.array([-1.0, 0.0, -0.0, -1.0, -1.0]), np.array([1.0, 1.0, 0.5, -0.0, 0.0]))
        X = np.repeat(np.array(values)[:, None], bounds.dim, axis=1)
        want = np.clip(X, bounds.lower, bounds.upper)
        assert bounds.clip(X).tobytes() == want.tobytes()
        assert bounds.clip(X[2]).tobytes() == want[2].tobytes()
        # written in place, the input's buffer is the result
        out = X.copy()
        assert bounds.clip(out, out=out) is out and out.tobytes() == want.tobytes()

    def test_dataset_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatchError):
            Dataset(np.zeros((2, 2)), np.ones((1, 2)))
        with pytest.raises(DimensionMismatchError):
            Dataset(np.zeros(2), np.ones((1, 2)))
        with pytest.raises(EmptyInputError):
            Dataset(np.empty((2, 0)), np.ones((2, 2)))

    def test_dataset_rejects_exact_duplicates(self):
        X = np.array([[1.0, 2.0], [5.0, 6.0], [1.0, 2.0]])
        Y = np.array([[0.0, 1.0], [4.0, 5.0], [2.0, 3.0]])
        with pytest.raises(DuplicateSampleError):
            Dataset(X, Y)
        with pytest.raises(DuplicateSampleError):
            Dataset(X[:2], Y[:2]).with_samples(X[2:], Y[2:])

    def test_dataset_allows_near_duplicates(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0 + 1e-12]])
        y = np.array([[0.0, 1.0], [0.0, 1.0]])
        data = Dataset(X, y)
        assert len(data) == 2

    def test_matrices_read_only(self):
        X = np.array([[0.0], [1.0]])
        F = np.array([[1.0, 2.0], [2.0, 1.0]])
        data = Dataset(X, F)
        pareto = ParetoApproximation(X, F)
        for matrix in (data.X, data.Y, pareto.X, pareto.F):
            with pytest.raises(ValueError):
                matrix[0, 0] = 9.0
        X[0, 0] = 9.0  # the caller's array stays writable and is not shared
        assert data.X[0, 0] == 0.0 and pareto.X[0, 0] == 0.0

    def test_dataset_extension_returns_new(self):
        d0 = Dataset(np.array([[0.0]]), np.array([[1.0, 2.0]]))
        d1 = d0.with_samples(np.array([[1.0]]), np.array([[3.0, 4.0]]))
        assert len(d0) == 1 and len(d1) == 2
        assert np.array_equal(d1.X, [[0.0], [1.0]])
        assert np.array_equal(d1.Y, [[1.0, 2.0], [3.0, 4.0]])
        assert len(Dataset().with_samples(d1.X, d1.Y)) == 2

    def test_pareto_approximation_checks_alignment_and_dominance(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(DimensionMismatchError):
            ParetoApproximation(X, np.array([[1.0, 2.0]]))
        with pytest.raises(SamoError):
            ParetoApproximation.from_arrays(X, np.array([[1.0, 1.0], [2.0, 2.0]]))
        with pytest.raises(SamoError):
            ParetoApproximation.from_arrays(X, np.array([[1.0, np.nan], [2.0, 1.0]]))
        with pytest.raises(EmptyInputError):
            ParetoApproximation(np.empty((0, 1)), np.empty((0, 2)))
        ok = ParetoApproximation.from_arrays(X, np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert len(ok) == 2


def _small_dataset() -> Dataset:
    X = np.linspace(-1.0, 1.0, 16).reshape(8, 2)
    return Dataset(X, np.column_stack([X.sum(axis=1), (X**2).sum(axis=1)]))


# two builds of each frozen dataclass with array fields give equal contents
ARRAY_DATACLASSES = {
    "BoxBounds": lambda: BoxBounds(np.zeros(2), np.ones(2)),
    "Problem": lambda: make_analytic_problem("two-paraboloids"),
    "Trajectory": lambda: Trajectory(np.arange(3.0), np.zeros(3), np.ones(3)),
    "QuarterCarEvaluator": lambda: make_quarter_car_problem(n_dim=2).evaluate,
    "Scaler": lambda: Scaler.fit(_small_dataset().X, _small_dataset().Y),
    "RbfModel": lambda: fit_rbf(_small_dataset(), sigma=0.5),
    "MlpModel": lambda: fit_mlp(_small_dataset(), TrainConfig(epochs=2)),
    "MgdaResult": lambda: MgdaResult(np.zeros(2), True, 1, np.zeros((1, 4))),
}


@pytest.mark.parametrize("name", ARRAY_DATACLASSES)
def test_array_dataclasses_compare_and_hash_by_identity(name):
    # a generated __eq__ would compare the arrays as tuples and raise, and
    # a generated __hash__ would hash them and raise
    first, second = ARRAY_DATACLASSES[name](), ARRAY_DATACLASSES[name]()
    assert first == first and first != second
    assert hash(first) == hash(first)
    assert first in {first} and second not in {first}
