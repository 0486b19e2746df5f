import copy

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from samo.core import (
    BoxBounds,
    ConfigurationError,
    DimensionMismatchError,
    front_ranks,
    non_dominated_filter,
    non_dominated_mask,
)
from oracles import dominates
from samo import moea
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

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=60),
        st.lists(st.integers(0, 59), max_size=8),
    )
    def test_two_objective_sweep_equals_dominance_peeling(self, grid, inf_rows):
        # two objectives: every front is peeled by the lexicographic sort and
        # running minimum of `non_dominated_mask` (the test keeps the name of
        # the sweep that ranked them once). Integer grids make ties and exact
        # duplicates common; +inf rows are how NSGA-II demotes non-finite
        # individuals
        Y = np.array(grid, dtype=float)
        Y[[i for i in inf_rows if i < len(Y)]] = np.inf
        got = fast_non_dominated_sort(Y)
        want = oracles.dominance_sort(Y)
        assert [f.tolist() for f in got] == [f.tolist() for f in want]

    @pytest.mark.parametrize(
        "Y",
        [np.array([[2.0, 3.0]]), np.full((7, 2), 4.0), np.full((5, 2), np.inf)],
        ids=["one-point", "all-equal", "all-demoted"],
    )
    def test_two_objective_sweep_edge_cases(self, Y):
        # one front, found by the first pass of the running minimum: a lone
        # row, exact duplicates, and rows all demoted to +inf
        assert [f.tolist() for f in fast_non_dominated_sort(Y)] == [list(range(len(Y)))]

    @given(
        st.sampled_from([2, 3]),
        st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3), min_size=1, max_size=60),
        st.lists(st.integers(0, 59), max_size=8),
        st.lists(st.integers(0, 59), max_size=4),
        st.integers(0, 60),
    )
    # a lone (inf, inf) row has no earlier distinct row to be dominated by
    @example(2, [[0, 0, 0]], [0], [], 0)
    @example(2, [[1, 2, 3]] * 7, [], [], 3)
    @example(3, [[1, 2, 3]] * 7, [], [], 7)
    def test_front_ranks_equal_dominance_peeling(self, k, grid, inf_rows, nan_rows, fill_at):
        # two objectives take the running minimum of `non_dominated_mask`
        # unless a NaN sends them to the dominance matrix. With `fill`, the
        # ranks below the first rank k that leaves min(fill, n) rows ranked
        # are kept, and the rows left are all ranked k; fill runs from 1 to n + 1.
        Y = np.array(grid, dtype=float)[:, :k]
        Y[[i for i in inf_rows if i < len(Y)]] = np.inf
        Y[[i for i in nan_rows if i < len(Y)], 0] = np.nan
        want = np.empty(len(Y), dtype=np.intp)
        for r, front in enumerate(oracles.dominance_sort(Y)):
            want[front] = r
        assert np.array_equal(front_ranks(Y), want)
        assert np.array_equal(non_dominated_mask(Y), want == 0)
        fill = fill_at % (len(Y) + 1) + 1
        least = next(r for r in range(1, len(Y) + 1) if (want < r).sum() >= min(fill, len(Y)))
        assert np.array_equal(front_ranks(Y, fill), np.minimum(want, least))

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

    @given(
        st.sampled_from([1, 2, 3]),
        st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3), min_size=1, max_size=40),
        st.lists(st.integers(0, 39), max_size=6),
    )
    @example(2, [[1, 2, 3]] * 5, [])
    @example(2, [[0, 4, 0], [1, 3, 0], [1, 3, 0], [3, 1, 0]], [2])
    def test_equals_oracle_on_ties_duplicates_and_infinite_rows(self, k, grid, inf_rows):
        # integer grids give ties and duplicates; +inf rows give spans that
        # are not numbers
        F = np.array(grid, dtype=float)[:, :k]
        F[[i for i in inf_rows if i < len(F)]] = np.inf
        assert crowding_distance(F).tobytes() == oracles.crowding_distance(F).tobytes()


class TestRankAndCrowding:
    """`front_ranks` and the crowding of every front, front by front,
    against the dominance-matrix peeling and the per-front crowding of
    tests/oracles.py."""

    @staticmethod
    def assert_matches_oracle(Y):
        rank = front_ranks(Y)
        crowd = moea._crowding(Y, rank)
        want_rank, want_crowd, _ = oracles.rank_and_crowding(Y)
        assert np.array_equal(rank, want_rank)
        assert np.array_equal(crowd, want_crowd)

    @given(
        st.sampled_from([2, 3]),
        st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3), min_size=1, max_size=60),
        st.lists(st.integers(0, 59), max_size=8),
    )
    def test_matches_per_front_crowding(self, k, grid, inf_rows):
        # integer grids give exact duplicates, fronts of one and two points
        # and fronts whose span in some objective is zero; +inf rows are
        # demoted individuals, a front of their own with no finite span
        Y = np.array(grid, dtype=float)[:, :k]
        Y[[i for i in inf_rows if i < len(Y)]] = np.inf
        self.assert_matches_oracle(Y)

    @pytest.mark.parametrize(
        "Y",
        [
            np.array([[2.0, 3.0]]),
            np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]),
            np.full((6, 3), 4.0),
            np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 6.0], [3.0, 6.0]]),
            np.vstack([np.random.default_rng(4).random((30, 3)), np.full((5, 3), np.inf)]),
            np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [1.0, 4.0], [2.0, 3.0], [3.0, 3.0]]),
            np.vstack([np.full((3, 2), 1.0), [[0.0, 2.0], [2.0, 0.0]], np.full((2, 2), np.inf)]),
        ],
        ids=[
            "one-point",
            "fronts-of-one-and-two",
            "all-equal",
            "zero-span",
            "random-with-inf",
            "fronts-of-three-two-one",
            "duplicates-between-ends-and-inf",
        ],
    )
    def test_edge_cases(self, Y):
        self.assert_matches_oracle(Y)


class IndexFunction:
    """A read-only sequence of length n whose items at an array of positions
    k are f(k), so tournaments over billions of positions need no list of
    that length."""

    def __init__(self, n, f):
        self.n, self.f = n, f

    def __len__(self):
        return self.n

    def __getitem__(self, k):
        return np.broadcast_to(self.f(k), np.shape(k))


def thirds(n, rng, m):
    """Ranks 0, 1, 2 in turn and crowding 0, 1 in runs of three: one pair in
    six ties."""
    return IndexFunction(n, lambda k: k % 3), IndexFunction(n, lambda k: (k // 3) % 2)


def one_front(n, rng, m):
    """The most common shape in a run: numpy arrays, every row of rank 0 and
    the two boundary rows of the front crowded +inf."""
    f1 = np.sort(np.random.default_rng(n).uniform(size=n))
    return np.zeros(n, dtype=np.intp), crowding_distance(np.column_stack([f1, 1.0 - f1]))


def last_tied(n, rng, m):
    """Distinct crowding but +inf at both positions of the m-th pair `rng`
    would draw, so the only tie is the last tournament."""
    pairs = copy.deepcopy(rng).integers(0, n, size=(m, 2))
    crowd = IndexFunction(n, lambda k: np.where(np.isin(k, pairs[-1]), np.inf, k))
    tied = crowd[pairs[:, 0]] == crowd[pairs[:, 1]]
    assert tied[-1] and not tied[:-1].any()
    return IndexFunction(n, lambda k: 0), crowd


class TestTournaments:
    """Tournaments settled on one array draw per tie against one scalar
    `rng.integers(0, n)` per index and one `rng.random()` per tie coin: the
    same parents and the generator left in the same state."""

    @pytest.mark.parametrize(
        "n, inputs",
        # about half of all 32-bit draws are rejected at 2**31 + 1, a quarter
        # at 3 * 2**30
        [pytest.param(n, thirds, id=str(n)) for n in (2, 7, 60, 2**31 + 1, 3 * 2**30)]
        + [pytest.param(n, one_front, id=f"one-front-{n}") for n in (2, 7, 60)]
        + [pytest.param(n, last_tied, id=f"last-tied-{n}") for n in (10**5, 2**31 + 1)],
    )
    @pytest.mark.parametrize("buffered", [False, True], ids=["empty-buffer", "half-buffered"])
    def test_matches_scalar_draws(self, n, inputs, buffered):
        fast = np.random.default_rng(11)
        slow = np.random.default_rng(11)
        if buffered:
            for rng in (fast, slow):
                rng.integers(0, 5)  # leaves the high half of an output buffered
        for m in (1, 40, 200):
            rank, crowd = inputs(n, fast, m)
            got = moea._tournaments(rank, crowd, m, fast)
            want = [oracles.tournament(rank, crowd, slow) for _ in range(m)]
            assert got.tolist() == want
            assert fast.bit_generator.state == slow.bit_generator.state
            assert fast.random() == slow.random()  # continue from the same stream

    @pytest.mark.parametrize("n", [9, 2**31 + 1])
    @pytest.mark.parametrize("buffered", [False, True], ids=["empty-buffer", "half-buffered"])
    def test_every_pair_tied(self, n, buffered):
        # every tournament draws a coin, so every tournament rewinds the
        # generator and draws the rest anew
        ties = IndexFunction(n, lambda k: 0)
        fast = np.random.default_rng(3)
        slow = np.random.default_rng(3)
        if buffered:
            for rng in (fast, slow):
                rng.integers(0, 5)
        for m in (1, 2, 3, 50, 100):
            got = moea._tournaments(ties, ties, m, fast)
            want = [oracles.tournament(ties, ties, slow) for _ in range(m)]
            assert got.tolist() == want
            assert fast.bit_generator.state == slow.bit_generator.state


class TestSbx:
    # the operator takes the uniforms the one-pair form drew itself: a
    # crossed mask, spread uniforms and sign uniforms, one row per pair

    def test_prob_zero_copies_parents(self):
        rng = np.random.default_rng(0)
        p1 = np.array([[0.2, 0.8]])
        p2 = np.array([[0.6, 0.1]])
        c1, c2 = sbx_crossover(
            p1, p2, np.zeros((1, 2), dtype=bool), rng.random((1, 2)), rng.random((1, 2)),
            eta_c=20.0, bounds=UNIT_BOX,
        )
        assert np.array_equal(c1, p1) and np.array_equal(c2, p2)

    def test_midpoint_preserved(self):
        rng = np.random.default_rng(1)
        box = BoxBounds(np.full(4, -100.0), np.full(4, 100.0))
        p1 = rng.uniform(-1, 1, (200, 4))
        p2 = rng.uniform(-1, 1, (200, 4))
        crossed = rng.random((200, 4)) <= 0.5
        c1, c2 = sbx_crossover(
            p1, p2, crossed, rng.random((200, 4)), rng.random((200, 4)), eta_c=20.0, bounds=box
        )
        assert np.allclose(c1 + c2, p1 + p2, atol=1e-12)

    def test_spread_factor_distribution(self):
        # recover the spread factor from 1-D children and compare the
        # empirical histogram to the analytic SBX law in 20 equal-probability
        # bins: F(b) = b^(eta+1)/2 below 1, 1 - b^-(eta+1)/2 above
        eta = 20.0
        rng = np.random.default_rng(7)
        n = 100_000
        c1, c2 = sbx_crossover(
            np.zeros((n, 1)), np.ones((n, 1)), np.ones((n, 1), dtype=bool),
            rng.random((n, 1)), rng.random((n, 1)), eta, WIDE_BOX,
        )
        betas = np.abs(c2[:, 0] - c1[:, 0])
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
        n = 1000
        c1, c2 = sbx_crossover(
            np.full((n, 1), 0.01), np.full((n, 1), 0.99), rng.random((n, 1)) <= 0.5,
            rng.random((n, 1)), rng.random((n, 1)), 2.0, UNIT_BOX,
        )
        for c in (c1, c2):
            assert np.all(c >= 0.0) and np.all(c <= 1.0)


class TestPolynomialMutation:
    # the operator takes the mutation mask and the step uniforms, one row
    # per child

    def test_prob_zero_unchanged(self):
        rng = np.random.default_rng(0)
        x = np.array([[0.3, 0.7]])
        y = polynomial_mutation(x, np.zeros((1, 2), dtype=bool), rng.random((1, 2)), 20.0, UNIT_BOX)
        assert np.array_equal(y, x)

    def test_always_within_bounds(self):
        rng = np.random.default_rng(1)
        x = rng.random((100_000, 2))
        y = polynomial_mutation(x, np.ones(x.shape, dtype=bool), rng.random(x.shape), 20.0, UNIT_BOX)
        assert np.all(y >= 0.0) and np.all(y <= 1.0)

    def test_larger_eta_smaller_steps(self):
        box = BoxBounds(np.zeros(1), np.ones(1))
        x = np.full((100_000, 1), 0.5)
        mutate = np.ones(x.shape, dtype=bool)

        def mean_step(eta, seed):
            u = np.random.default_rng(seed).random(x.shape)
            return np.mean(np.abs(polynomial_mutation(x, mutate, u, eta, box) - 0.5))

        assert mean_step(20.0, 5) > mean_step(100.0, 5)


class TestSparseVariationMatchesDense:
    """SBX and polynomial mutation compute only the crossed or mutated
    entries; they must keep the bytes of the forms in tests/oracles.py
    that compute every entry and then select."""

    @staticmethod
    def setting(m, n, p):
        rng = np.random.default_rng(1000 * m + n)
        bounds = BoxBounds(rng.uniform(-3.0, -0.1, n), rng.uniform(0.1, 3.0, n))
        X = rng.uniform(bounds.lower, bounds.upper, (m, n))
        X[0], X[-1] = bounds.lower, bounds.upper  # on the bounds
        mask = rng.random((m, n)) < p
        u = rng.random((m, n))
        u[0], u[-1] = 0.5, 0.0  # the branch edge and the smallest uniform
        return rng, bounds, X, mask, u

    @pytest.mark.parametrize("m,n", [(1, 1), (7, 3), (60, 4), (100, 24)])
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("eta", [0.0, 20.0])
    def test_polynomial_mutation(self, m, n, p, eta):
        _, bounds, X, mutate, u = self.setting(m, n, p)
        got = polynomial_mutation(X, mutate, u, eta, bounds)
        want = oracles.polynomial_mutation_dense(X, mutate, u, eta, bounds)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m,n", [(1, 1), (7, 3), (30, 4), (50, 24)])
    @pytest.mark.parametrize("p", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("eta", [0.0, 20.0])
    def test_sbx_crossover(self, m, n, p, eta):
        rng, bounds, P1, crossed, u = self.setting(m, n, p)
        P2 = rng.uniform(bounds.lower, bounds.upper, (m, n))
        sign_u = rng.random((m, n))
        got = sbx_crossover(P1, P2, crossed, u, sign_u, eta, bounds)
        want = oracles.sbx_crossover_dense(P1, P2, crossed, u, sign_u, eta, bounds)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


class TestOneGeneration:
    """Whole-population variation against the one-pair operators: the same
    children bit for bit, and the generator left in the same state."""

    @pytest.mark.parametrize("crossover_prob", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("mutation_prob", [0.0, None, 1.0])
    def test_offspring_and_generator_state(self, crossover_prob, mutation_prob):
        bounds = BoxBounds(np.full(5, -1.0), np.full(5, 2.0))
        cfg = MoeaConfig(crossover_prob=crossover_prob, mutation_prob=mutation_prob)
        pm = mutation_prob if mutation_prob is not None else 1.0 / bounds.dim
        data = np.random.default_rng(17)
        X = data.uniform(-1.0, 2.0, (24, 5))
        X[12:] = X[:12]  # clones: equal rank and crowding, so tie coins are drawn
        Y = np.column_stack([X.sum(axis=1), (X**2).sum(axis=1)])
        Y[[3, 15]] = np.inf  # demoted rows
        fast = np.random.default_rng(5)
        slow = np.random.default_rng(5)
        for _ in range(4):  # consecutive generations share the generator
            rank, crowd, _ = oracles.rank_and_crowding(Y)
            got = moea._offspring(X, rank, crowd, fast, cfg, bounds, pm)
            want = oracles.offspring(X, Y, slow, cfg, bounds, pm)
            assert np.array_equal(got, want)
            assert fast.bit_generator.state == slow.bit_generator.state
            X = got
            Y = np.column_stack([X.sum(axis=1), (X**2).sum(axis=1)])


class TestVariationUniformsWalk:
    """`_variation_uniforms`, through `_offspring`, against
    `oracles.offspring`, whose one-pair operators draw their own uniforms:
    the same children bit for bit and the generator left in the same state,
    at each probability's ends and its default. The first test is named
    after the end tables the walk replaced."""

    @pytest.mark.parametrize("crossover_prob", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("crossover_var_prob", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("mutation_prob", [0.0, None, 1.0])
    @pytest.mark.parametrize("n", [1, 4, 30])
    @pytest.mark.parametrize("population_size", [2, 8])
    def test_matches_end_tables(
        self, crossover_prob, crossover_var_prob, mutation_prob, n, population_size
    ):
        bounds = BoxBounds(np.full(n, -1.0), np.full(n, 2.0))
        cfg = MoeaConfig(
            crossover_prob=crossover_prob,
            crossover_var_prob=crossover_var_prob,
            mutation_prob=mutation_prob,
        )
        pm = mutation_prob if mutation_prob is not None else 1.0 / n
        X = np.random.default_rng(n).uniform(-1.0, 2.0, (population_size, n))
        fast = np.random.default_rng(100 * n + population_size)
        slow = np.random.default_rng(100 * n + population_size)
        for rng in (fast, slow):
            rng.integers(0, 5)  # leaves the high half of an output buffered
        for _ in range(3):  # consecutive generations share the generator
            Y = np.column_stack([X.sum(axis=1), (X**2).sum(axis=1)])
            rank, crowd, _ = oracles.rank_and_crowding(Y)
            got = moea._offspring(X, rank, crowd, fast, cfg, bounds, pm)
            want = oracles.offspring(X, Y, slow, cfg, bounds, pm)
            assert got.tobytes() == want.tobytes()
            assert fast.bit_generator.state == slow.bit_generator.state
            X = got

    @pytest.mark.parametrize("n", [1, 4, 30])
    def test_every_probability_one_ends_on_the_last_double(self, n):
        # every pair crosses and both children step, so the pairs draw the
        # whole block
        cfg = MoeaConfig(crossover_prob=1.0, crossover_var_prob=1.0, mutation_prob=1.0)
        rng = np.random.default_rng(n)
        whole_block = np.random.default_rng(n)
        moea._variation_uniforms(rng, 4, n, cfg, 1.0)
        whole_block.random(4 * (1 + 7 * n))
        assert rng.bit_generator.state == whole_block.bit_generator.state


class TestNsga2:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MoeaConfig(crossover_prob=1.5)

    @pytest.mark.parametrize("population_size", [61, 1, 0])
    def test_population_size_rejected_before_any_evaluation(self, population_size):
        def fail(X):
            raise AssertionError("evaluated before the population size was rejected")

        bounds = BoxBounds(np.zeros(2), np.ones(2))
        with pytest.raises(ConfigurationError, match="population_size must be even and at least 2"):
            nsga2_run(fail, bounds, MoeaConfig(), population_size=population_size, seed=0)

    @pytest.mark.parametrize("name", ["eta_crossover", "eta_mutation"])
    def test_negative_distribution_index_rejected(self, name):
        with pytest.raises(ConfigurationError, match=name):
            MoeaConfig(**{name: -1.0})
        with pytest.raises(ConfigurationError, match=name):
            MoeaConfig(**{name: float("nan")})
        assert getattr(MoeaConfig(**{name: 0.0}), name) == 0.0

    def test_seeded_determinism(self):
        problem = make_analytic_problem("two-paraboloids")
        cfg = MoeaConfig(generations=15)
        a = nsga2_run(problem.evaluate_batch, problem.bounds, cfg, population_size=20, seed=5)
        b = nsga2_run(problem.evaluate_batch, problem.bounds, cfg, population_size=20, seed=5)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.F, b.F)

    def test_front_mutually_non_dominated(self):
        problem = make_analytic_problem("two-paraboloids")
        cfg = MoeaConfig(generations=10)
        front = nsga2_run(problem.evaluate_batch, problem.bounds, cfg, population_size=20, seed=1).F
        for i in range(len(front)):
            for j in range(len(front)):
                if i != j:
                    assert not dominates(front[i], front[j])

    def test_population_size_and_elitism_via_snapshots(self):
        problem = make_analytic_problem("two-paraboloids")
        cfg = MoeaConfig(generations=25)
        snapshots = []

        def writer(gen, X, Y):
            snapshots.append((gen, X.copy(), Y.copy()))

        nsga2_run(
            problem.evaluate_batch,
            problem.bounds,
            cfg,
            population_size=16,
            seed=3,
            snapshot_writer=writer,
        )
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
        nsga2_run(counting, problem.bounds, MoeaConfig(generations=gens), population_size=m, seed=4)
        assert calls["n"] == m * (gens + 1)  # initial population plus one batch per generation
        assert calls["populations"] == gens + 1  # one objective call per population

    def test_non_finite_objectives_demoted(self):
        problem = make_analytic_problem("two-paraboloids")

        def flaky(X):
            Y = problem.evaluate_batch(X)
            Y[X[:, 0] > 0.5] = np.nan
            return Y

        cfg = MoeaConfig(generations=8)
        front = nsga2_run(flaky, problem.bounds, cfg, population_size=12, seed=2).F
        assert np.all(np.isfinite(front))

    def test_demoted_count(self):
        problem = make_analytic_problem("two-paraboloids")

        def flaky(X):
            Y = problem.evaluate_batch(X)
            Y[[0, 3], 0] = np.inf  # two rows of every population
            return Y

        stats = {}
        cfg = MoeaConfig(generations=6)
        nsga2_run(flaky, problem.bounds, cfg, population_size=10, seed=1, stats=stats)
        assert stats == {"demoted": 2 * (6 + 1)}

    def test_objective_must_return_one_row_per_point(self):
        problem = make_analytic_problem("two-paraboloids")
        with pytest.raises(DimensionMismatchError):
            nsga2_run(
                lambda X: problem.evaluate_batch(X)[:-1],
                problem.bounds,
                MoeaConfig(),
                population_size=100,
                seed=0,
            )

    def test_one_batch_call_matches_rowwise_evaluation(self):
        # a network whose batch rows may differ from the one-point product
        # in the last bits: each population is predicted to the tolerance
        # of the one-point forms, and a rerun repeats every byte
        rng = np.random.default_rng(0)
        model = MlpModel(
            weights=(rng.normal(size=(4, 64)), rng.normal(size=(64, 64)) / 8, rng.normal(size=(64, 2))),
            biases=(rng.normal(size=64), rng.normal(size=64), np.zeros(2)),
            scaler=Scaler(np.zeros(4), np.ones(4), np.zeros(2), np.ones(2)),
        )
        bounds = BoxBounds(np.full(4, -1.0), np.full(4, 1.0))
        cfg = MoeaConfig(generations=15)
        run = dict(population_size=20, seed=3)
        fast, again = [], []
        nsga2_run(model.predict_batch, bounds, cfg, **run, snapshot_writer=lambda *a: fast.append(a))
        nsga2_run(model.predict_batch, bounds, cfg, **run, snapshot_writer=lambda *a: again.append(a))
        assert len(fast) == len(again) == 15
        for (g1, X1, Y1), (g2, X2, Y2) in zip(fast, again):
            assert g1 == g2 and X1.tobytes() == X2.tobytes() and Y1.tobytes() == Y2.tobytes()
            oracles.assert_rows_close(Y1, np.array([model.predict(x) for x in X1]))

    @pytest.mark.parametrize("crossover_prob", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("mutation_prob", [0.0, None, 1.0])
    def test_matches_one_pair_oracle(self, crossover_prob, mutation_prob):
        problem = make_analytic_problem("zdt1", n_dim=6)
        cfg = MoeaConfig(
            generations=12,
            crossover_prob=crossover_prob,
            mutation_prob=mutation_prob,
        )
        self.assert_same_run(problem.evaluate_batch, problem.bounds, cfg, 16, 8)

    def test_matches_one_pair_oracle_with_demotions(self):
        problem = make_analytic_problem("two-paraboloids")

        def flaky(X):
            Y = problem.evaluate_batch(X)
            Y[X[:, 0] > 0.3] = np.nan
            return Y

        cfg = MoeaConfig(generations=15)
        self.assert_same_run(flaky, problem.bounds, cfg, 20, 2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("M", [8, 24, 60])
    @pytest.mark.parametrize("demote", [False, True], ids=["finite", "demotions"])
    def test_matches_one_pair_oracle_across_seeds(self, seed, M, demote):
        problem = make_analytic_problem("zdt1", n_dim=6)

        def objective(X):
            Y = problem.evaluate_batch(X)
            if demote:
                Y[X[:, 0] > 0.6] = np.nan
            return Y

        cfg = MoeaConfig(generations=8)
        self.assert_same_run(objective, problem.bounds, cfg, M, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_one_pair_oracle_with_three_objectives(self, seed):
        # three objectives take the dominance-matrix sort; rounding makes
        # exact duplicates and zero-span fronts common
        problem = make_analytic_problem("zdt1", n_dim=6)

        def objective(X):
            Y = np.column_stack([problem.evaluate_batch(X), X[:, 1]]).round(1)
            Y[X[:, 2] > 0.8] = np.inf
            return Y

        cfg = MoeaConfig(generations=8)
        self.assert_same_run(objective, problem.bounds, cfg, 24, seed)

    @pytest.mark.parametrize(
        "name,M,seed,generations",
        [("two-paraboloids", 2, 0, 10), ("two-paraboloids", 4, 0, 10), ("zdt1", 4, 1, 20)],
    )
    def test_matches_one_pair_oracle_when_the_first_front_fills_the_population(
        self, name, M, seed, generations, monkeypatch
    ):
        # survival stops ranking at the first front when it holds at least M
        # rows, and peels later fronts otherwise; exactly M is the border. The
        # zdt1 run tells a border moved down to M - 1 apart.
        problem = make_analytic_problem(name)
        first_front_sizes = []

        def counted(F, fill=None):
            rank = front_ranks(F, fill)
            if fill is not None:
                first_front_sizes.append(np.count_nonzero(rank == 0))
            return rank

        monkeypatch.setattr(moea, "front_ranks", counted)
        cfg = MoeaConfig(generations=generations)
        self.assert_same_run(problem.evaluate_batch, problem.bounds, cfg, M, seed)
        sides = {np.sign(size - M) for size in first_front_sizes}
        assert len(first_front_sizes) == generations and sides == {-1, 0, 1}

    @pytest.mark.parametrize("M", [8, 20, 60])
    def test_carried_survivor_ranks_equal_a_fresh_ranking(self, M, monkeypatch):
        # survivors keep their pool rank and are crowded once; both must equal
        # a fresh peel and per-front crowding of the survivors
        problem = make_analytic_problem("two-paraboloids")

        def flaky(X):
            Y = problem.evaluate_batch(X)
            Y[X[:, 0] > 0.3] = np.nan
            return Y

        generations = []
        offspring = moea._offspring

        def checked(X, rank, crowd, *args):
            Y, _ = moea._evaluate(flaky, X)
            want_rank, want_crowd, _ = oracles.rank_and_crowding(Y)
            assert np.array_equal(rank, want_rank)
            assert np.array_equal(crowd, want_crowd)
            generations.append(len(generations))
            return offspring(X, rank, crowd, *args)

        monkeypatch.setattr(moea, "_offspring", checked)
        stats = {}
        cfg = MoeaConfig(generations=15)
        nsga2_run(flaky, problem.bounds, cfg, population_size=M, seed=6, stats=stats)
        assert len(generations) == 15 and stats["demoted"] > 0

    @staticmethod
    def assert_same_run(objective, bounds, cfg, population_size, seed):
        run = dict(population_size=population_size, seed=seed)
        fast, slow = [], []
        fast_stats, slow_stats = {}, {}
        a = nsga2_run(
            objective, bounds, cfg, **run, snapshot_writer=lambda *s: fast.append(s), stats=fast_stats
        )
        b = oracles.nsga2_run(
            objective, bounds, cfg, **run, snapshot_writer=lambda *s: slow.append(s), stats=slow_stats
        )
        assert len(fast) == len(slow) == cfg.generations
        for (g1, X1, Y1), (g2, X2, Y2) in zip(fast, slow):
            assert g1 == g2 and np.array_equal(X1, X2) and np.array_equal(Y1, Y2)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.F, b.F)
        assert fast_stats == slow_stats

    def test_zdt1_reduced_run_quality(self):
        # half-length sanity run; the full paper-sized runs live in the
        # acceptance suite
        problem = make_analytic_problem("zdt1")
        cfg = MoeaConfig(generations=100)
        front = nsga2_run(problem.evaluate_batch, problem.bounds, cfg, population_size=100, seed=0).F
        from samo.driver import igd_normalized

        assert igd_normalized(front, problem.true_front(500)) < 0.05
