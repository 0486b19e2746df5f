"""Acceptance suite: one test per shipped criterion, each reporting a
PASS/FAIL line with the measured figure next to its tolerance.

The lines are collected here and printed by the terminal-summary hook in
conftest.py, so they are visible in every pytest run regardless of output
capture.
"""

import math
import time

import numpy as np

from oracles import GradientModel, common_descent_direction, mechanical_energy
from samo.core import hausdorff_distance, non_dominated_filter
from samo.driver import SamoConfig, StudyConfig, igd_normalized, sample_size_study, samo_run
from samo.mgda import MgdaConfig, mgda_run
from samo.moea import MoeaConfig, fast_non_dominated_sort, nsga2_run
from samo.problems import (
    Excitation,
    QuarterCarParams,
    amplitude,
    integrate_quarter_car,
    make_analytic_problem,
    make_quarter_car_problem,
    simulate_quarter_car,
)
from samo.sampling import latin_hypercube
from samo.surrogate import TrainConfig, fit_mlp, fit_rbf


RESULT_LINES: list = []


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULT_LINES.append(line)
    print(line)
    assert ok, line


# -- 1: dominance filtering and sorting against brute-force oracles ----------


def brute_force_non_dominated(points: np.ndarray) -> list:
    keep = []
    for i in range(len(points)):
        dominated = False
        for j in range(len(points)):
            if (
                i != j
                and np.all(points[j] <= points[i])
                and np.any(points[j] < points[i])
            ):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


def peel_fronts(points: np.ndarray) -> list:
    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        idx = np.array(remaining)
        front = idx[non_dominated_filter(points[idx])]
        fronts.append(sorted(front.tolist()))
        chosen = set(front.tolist())
        remaining = [i for i in remaining if i not in chosen]
    return fronts


def test_criterion_1_sorting_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(5, 301))
        k = int(rng.integers(2, 4))
        points = rng.random((n, k))
        assert list(non_dominated_filter(points)) == brute_force_non_dominated(points)
        got = [sorted(f.tolist()) for f in fast_non_dominated_sort(points)]
        assert got == peel_fronts(points)
    elapsed = time.perf_counter() - start
    report(1, elapsed < 10.0, f"100 instances exact match in {elapsed:.1f}s (< 10s)")


# -- 2: Hausdorff metric axioms ----------------------------------------------


def test_criterion_2_hausdorff_axioms():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        sets = [rng.random((int(rng.integers(1, 9)), 2)) for _ in range(3)]
        a, b, c = sets
        sym = abs(hausdorff_distance(a, b) - hausdorff_distance(b, a))
        tri = hausdorff_distance(a, c) - (
            hausdorff_distance(a, b) + hausdorff_distance(b, c)
        )
        ident = hausdorff_distance(a, a)
        worst = max(worst, sym, tri, ident)
    hand = abs(
        hausdorff_distance([(0.0, 0.0), (10.0, 0.0)], [(0.0, 1.0)]) - math.sqrt(101.0)
    )
    ok = worst <= 1e-12 and hand < 1e-12
    report(2, ok, f"axiom violation {worst:.2e}, sqrt(101) example error {hand:.2e} (tol 1e-12)")


# -- 3: common descent direction subproblem ----------------------------------


def grid_min_norm(J: np.ndarray, step: float = 1e-3) -> float:
    if J.shape[0] == 2:
        w1 = np.arange(0.0, 1.0 + step / 2, step)
        weights = np.column_stack([w1, 1.0 - w1])
        return float(np.sqrt(((weights @ J) ** 2).sum(axis=1).min()))
    best = np.inf
    for w1 in np.arange(0.0, 1.0 + step / 2, step):
        w2 = np.arange(0.0, 1.0 - w1 + step / 2, step)
        weights = np.column_stack([np.full(len(w2), w1), w2, 1.0 - w1 - w2])
        best = min(best, float(((weights @ J) ** 2).sum(axis=1).min()))
    return float(np.sqrt(best))


def test_criterion_3_descent_direction_matches_grid_search():
    rng = np.random.default_rng(11)
    worst = {2: 0.0, 3: 0.0}
    simplex_violation = 0.0
    for k in (2, 3):
        for _ in range(100):
            J = rng.normal(size=(k, 5))
            step = common_descent_direction(J)
            worst[k] = max(worst[k], abs(step.norm - grid_min_norm(J)))
            simplex_violation = max(
                simplex_violation,
                float(np.max(np.maximum(-step.weights, 0.0))),
                abs(float(step.weights.sum()) - 1.0),
            )
    ok = worst[2] < 1e-3 and worst[3] < 1e-3 and simplex_violation <= 1e-10
    report(
        3,
        ok,
        f"norm error K=2 {worst[2]:.2e}, K=3 {worst[3]:.2e} (tol 1e-3); "
        f"simplex violation {simplex_violation:.2e} (tol 1e-10)",
    )


# -- 4: surrogate gradients vs finite differences ----------------------------


def test_criterion_4_jacobian_fidelity():
    start = time.perf_counter()
    problem = make_analytic_problem("two-paraboloids")
    plan = latin_hypercube(30, problem.bounds, seed=5)
    from samo.core import Dataset

    data = Dataset(plan, np.array([problem.evaluate(x) for x in plan]))
    models = {
        "rbf": fit_rbf(data, sigma=0.5, ridge=1e-8),
        "mlp": fit_mlp(data, TrainConfig(epochs=500, patience=500), seed=1),
    }
    h = 1e-5
    worst = 0.0
    rng = np.random.default_rng(3)
    for model in models.values():
        for _ in range(50):
            x = rng.uniform(problem.bounds.lower, problem.bounds.upper)
            analytic = model.input_jacobian(x)
            numeric = np.empty_like(analytic)
            for i in range(len(x)):
                bump = np.zeros_like(x)
                bump[i] = h
                numeric[:, i] = (model.predict(x + bump) - model.predict(x - bump)) / (2 * h)
            worst = max(worst, np.abs(analytic - numeric).max() / np.abs(analytic).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report(4, ok, f"max relative deviation {worst:.2e} (tol 1e-4) in {elapsed:.1f}s (< 30s)")


# -- 5: genetic algorithm front quality --------------------------------------


def test_criterion_5_nsga2_quality():
    details = []
    ok = True
    for name in ("zdt1", "two-paraboloids"):
        problem = make_analytic_problem(name)
        reference = problem.true_front(1000)
        start = time.perf_counter()
        values = []
        for seed in range(5):
            cfg = MoeaConfig(generations=200)
            front = nsga2_run(
                problem.evaluate_batch, problem.bounds, cfg, population_size=100, seed=seed
            ).F
            values.append(igd_normalized(front, reference))
        elapsed = time.perf_counter() - start
        mean_igd = float(np.mean(values))
        ok = ok and mean_igd < 0.01 and elapsed < 120.0
        details.append(f"{name}: IGD {mean_igd:.4f} (tol 0.01) in {elapsed:.0f}s (< 120s)")
    report(5, ok, "; ".join(details))


# -- 6: descent criticality from many starts ---------------------------------


def test_criterion_6_mgda_criticality():
    start = time.perf_counter()
    problem = make_analytic_problem("two-paraboloids")
    model = GradientModel(problem)
    a = np.full(4, 0.5)
    starts = latin_hypercube(100, problem.bounds, seed=17)
    cfg = MgdaConfig(learning_rate=0.05, max_iterations=10_000, tolerance=1e-6)
    hits = 0
    for x0 in starts:
        result = mgda_run(model, x0, problem.bounds, cfg)
        t = float(np.clip((result.x @ a) / (a @ a), -1.0, 1.0))
        on_segment = float(np.linalg.norm(result.x - t * a)) < 1e-3
        if result.converged and on_segment:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 90 and elapsed < 60.0
    report(6, ok, f"{hits}/100 starts critical and on the Pareto segment in {elapsed:.0f}s (< 60s)")


# -- 7: end-to-end adaptive runs on the cheap problem -------------------------


def reference_normalized_hausdorff(front: np.ndarray, reference: np.ndarray) -> float:
    lo = reference.min(axis=0)
    span = reference.max(axis=0) - lo
    span = np.where(span > 0.0, span, 1.0)
    return hausdorff_distance((front - lo) / span, (reference - lo) / span)


def test_criterion_7_end_to_end_adaptive_runs():
    problem = make_analytic_problem("two-paraboloids")
    reference = problem.true_front(1000)
    details = []
    ok = True
    for kind, train in (
        ("mlp", TrainConfig(epochs=8000, patience=8000, restarts=2)),
        ("rbf", TrainConfig()),
    ):
        cfg = SamoConfig(
            budget=120,
            batch_size=20,
            h_min=0.1,
            surrogate=kind,
            optimizer="nsga2",
            population_size=100,
            moea=MoeaConfig(generations=200),
            train=train,
            seed=1,
        )
        start = time.perf_counter()
        record = samo_run(problem, cfg)
        elapsed = time.perf_counter() - start
        within_budget = record.total_evaluations <= cfg.budget + cfg.batch_size
        quality = reference_normalized_hausdorff(record.final_front, reference)
        kind_ok = within_budget and record.error is None and elapsed < 300.0
        if kind == "mlp":
            kind_ok = kind_ok and quality < 0.15
        ok = ok and kind_ok
        details.append(
            f"{kind}: {record.total_evaluations} evals, normalized Hausdorff "
            f"{quality:.3f}{' (tol 0.15)' if kind == 'mlp' else ''}, {elapsed:.0f}s (< 300s)"
        )
    report(7, ok, "; ".join(details))


# -- 8: sample-size trend reproduction ----------------------------------------


def test_criterion_8_sample_size_trends():
    problem = make_quarter_car_problem()
    cfg = SamoConfig(
        budget=60,
        batch_size=10,
        h_min=0.5,
        surrogate="rbf",
        optimizer="nsga2",
        population_size=60,
        moea=MoeaConfig(generations=60),
        seed=0,
    )
    sizes = [5, 10, 20, 30]
    rows = sample_size_study(problem, cfg, StudyConfig(sizes=tuple(sizes), repetitions=3))
    monotone_reps = 0
    for rep in range(3):
        rounds = [r.rounds for r in rows if r.repetition == rep]
        if all(b <= a for a, b in zip(rounds, rounds[1:])):
            monotone_reps += 1
    mean_times = [
        float(np.mean([r.mean_round_time for r in rows if r.batch_size == s])) for s in sizes
    ]
    times_increasing = all(b > a for a, b in zip(mean_times, mean_times[1:]))
    ok = monotone_reps >= 2 and times_increasing
    report(
        8,
        ok,
        f"rounds non-increasing in {monotone_reps}/3 repetitions (need >= 2); "
        f"mean per-round seconds by batch size {[round(t, 2) for t in mean_times]} increasing={times_increasing}",
    )


# -- 9: quarter-car physics ---------------------------------------------------


def test_criterion_9_quarter_car_physics():
    zero = simulate_quarter_car(QuarterCarParams(), Excitation(amplitude=0.0))
    zero_ok = np.all(zero.wheel_load == 0.0) and np.all(zero.body_acceleration == 0.0)

    undamped = QuarterCarParams(suspension_damping=0.0)
    _, states = integrate_quarter_car(
        undamped,
        Excitation(amplitude=0.0),
        0.0,
        10.0,
        1e-4,
        initial_state=np.array([0.01, -0.005, 0.0, 0.02]),
    )
    energy = mechanical_energy(undamped, states)
    drift = float((energy.max() - energy.min()) / energy[0])

    params = QuarterCarParams()
    exc = Excitation()
    traj = simulate_quarter_car(params, exc, 0.0, 10.0, 1e-4)
    simulated = amplitude(traj.body_acceleration, slice(len(traj) // 2, None))
    w = 2.0 * math.pi * exc.frequency
    coupling = 1j * params.suspension_damping * w + params.suspension_stiffness
    system = np.array(
        [
            [-params.sprung_mass * w**2 + coupling, -coupling],
            [
                -coupling,
                -params.unsprung_mass * w**2 + coupling + params.tire_stiffness,
            ],
        ],
        dtype=complex,
    )
    z = np.linalg.solve(system, np.array([0.0, params.tire_stiffness * exc.amplitude], complex))
    analytic = w**2 * abs(z[0])
    acc_err = abs(simulated - analytic) / analytic

    ok = zero_ok and drift < 1e-6 and acc_err < 0.01
    report(
        9,
        ok,
        f"zero-input exact: {zero_ok}; energy drift {drift:.2e} (tol 1e-6); "
        f"7 Hz amplitude error {acc_err:.2e} (tol 0.01)",
    )


# -- 10: determinism ----------------------------------------------------------


def test_criterion_10_deterministic_artifacts(tmp_path):
    problem = make_analytic_problem("two-paraboloids")
    cfg = SamoConfig(
        budget=20,
        batch_size=10,
        h_min=0.01,
        surrogate="mlp",
        optimizer="nsga2",
        population_size=24,
        moea=MoeaConfig(generations=30),
        train=TrainConfig(epochs=300, patience=300),
        seed=42,
    )
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        samo_run(problem, cfg, run_dir=d)
    names = sorted(p.name for p in dirs[0].glob("front_round_*.csv")) + ["final_front.csv"]
    identical = all((dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names)
    report(10, identical, f"{len(names)} front CSVs byte-identical across reruns")
