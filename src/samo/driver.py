"""Orchestration of the adaptive surrogate/optimization loop.

One run alternates expensive sampling, surrogate refitting and surrogate
optimization, stopping when the Hausdorff distance between consecutive
surrogate fronts falls below a threshold or the evaluation budget is spent,
and finishes with a non-dominance test over every expensive sample
collected. All artifacts (samples, fronts, serialized surrogates, metrics)
are written into a run directory as they are produced.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    ConfigurationError,
    Dataset,
    DecisionVector,
    EmptyInputError,
    ObjectiveVector,
    ParetoApproximation,
    Sample,
    hausdorff_distance,
    non_dominated_filter,
)
from .mgda import MgdaConfig, multistart_mgda
from .moea import MoeaConfig, nsga2_run
from .problems import Problem, QuarterCarEvaluator
from .sampling import SamplePlan, latin_hypercube, pareto_informed_samples
from .surrogate import (
    DEFAULT_RIDGE,
    DEFAULT_SIGMA_GRID,
    SamoError,
    TrainConfig,
    fit_mlp,
    fit_rbf,
    save_model,
    select_rbf_width,
)

logger = logging.getLogger(__name__)

METRICS_SCHEMA_VERSION = 2

SURROGATE_KINDS = ("mlp", "rbf")
OPTIMIZER_KINDS = ("nsga2", "mgda-multistart")


def format_float(value: float) -> str:
    """Floats in CSV artifacts carry 17 significant digits so re-parsing is
    lossless."""
    return format(float(value), ".17g")


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row)
        )
    path.write_text("\n".join(lines) + "\n")


def derive_seed(master: int, *tags: int) -> int:
    """Deterministic per-purpose seed derivation from the master seed."""
    seq = np.random.SeedSequence(entropy=(int(master), *[int(t) for t in tags]))
    return int(seq.generate_state(1)[0])


@dataclass(frozen=True)
class SamoConfig:
    """Parameters of one adaptive run.

    `budget` is the cap on Pareto-informed evaluations; the initial random
    round adds its own `batch_size` on top, so at most budget + batch_size
    expensive evaluations occur. A round's batch is truncated when fewer
    evaluations remain in the budget.
    """

    budget: int = 120
    batch_size: int = 20
    h_min: float = 2.0
    surrogate: str = "mlp"
    optimizer: str = "nsga2"
    population_size: int = 100
    normalize_hausdorff: bool = False
    rbf_sigma: Optional[float] = None  # None = cross-validated on the grid
    rbf_sigma_grid: tuple = DEFAULT_SIGMA_GRID
    rbf_ridge: float = DEFAULT_RIDGE
    train: TrainConfig = field(default_factory=TrainConfig)
    moea: MoeaConfig = field(default_factory=MoeaConfig)
    mgda: MgdaConfig = field(default_factory=MgdaConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ConfigurationError("batch_size must be at least 2")
        if self.budget < self.batch_size:
            raise ConfigurationError("budget must be at least batch_size")
        if self.h_min <= 0.0:
            raise ConfigurationError("h_min must be strictly positive")
        if self.surrogate not in SURROGATE_KINDS:
            raise ConfigurationError(f"surrogate must be one of {SURROGATE_KINDS}")
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ConfigurationError(f"optimizer must be one of {OPTIMIZER_KINDS}")
        if self.population_size < 2:
            raise ConfigurationError("population_size must be at least 2")

    def to_json_dict(self) -> dict:
        d = {
            "budget": self.budget,
            "batch_size": self.batch_size,
            "h_min": self.h_min,
            "surrogate": self.surrogate,
            "optimizer": self.optimizer,
            "population_size": self.population_size,
            "normalize_hausdorff": self.normalize_hausdorff,
            "rbf_sigma": self.rbf_sigma,
            "rbf_sigma_grid": list(self.rbf_sigma_grid),
            "rbf_ridge": self.rbf_ridge,
            "train": self.train.__dict__.copy(),
            "moea": self.moea.__dict__.copy(),
            "mgda": self.mgda.__dict__.copy(),
            "seed": self.seed,
        }
        d["train"]["hidden"] = list(self.train.hidden)
        return d


@dataclass
class RoundRecord:
    index: int
    plan_origin: str
    n_new_samples: int
    dataset_size: int
    pareto: ParetoApproximation
    hausdorff: Optional[float]
    timings: dict
    optimizer: dict = field(default_factory=dict)
    surrogate_path: Optional[str] = None


@dataclass
class RunRecord:
    config: SamoConfig
    problem_name: str
    rounds: list = field(default_factory=list)
    dataset: Dataset = field(default_factory=Dataset)
    final_decision: Optional[np.ndarray] = None
    final_front: Optional[np.ndarray] = None
    converged: bool = False
    error: Optional[str] = None

    @property
    def total_evaluations(self) -> int:
        return len(self.dataset)

    def h_values(self) -> list:
        return [r.hausdorff for r in self.rounds if r.hausdorff is not None]


def check_convergence(front_prev, front_cur, h_min: float, normalize: bool = False):
    """Hausdorff distance between consecutive fronts and whether it is below
    the stopping threshold."""
    h = hausdorff_distance(front_prev, front_cur, normalize=normalize)
    return h < h_min, h


def evaluate_batch(problem: Problem, plan: SamplePlan, iteration: int, jobs: int = 1) -> list:
    """Expensive-evaluate a sample plan, optionally with concurrent workers;
    result order always follows the plan."""
    points = [p.coords for p in plan.points]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            values = list(pool.map(problem.evaluate, points))
    else:
        values = [problem.evaluate(x) for x in points]
    return [
        Sample(DecisionVector(x), ObjectiveVector(y), iteration)
        for x, y in zip(points, values)
    ]


def _fit_surrogate(data: Dataset, cfg: SamoConfig, round_index: int):
    if cfg.surrogate == "rbf":
        sigma = cfg.rbf_sigma
        if sigma is None:
            sigma = select_rbf_width(data, cfg.rbf_sigma_grid, ridge=cfg.rbf_ridge)
        return fit_rbf(data, sigma=sigma, ridge=cfg.rbf_ridge)
    train_cfg = replace(cfg.train, seed=derive_seed(cfg.seed, 1, round_index))
    return fit_mlp(data, train_cfg)


def _optimize_surrogate(
    model, problem: Problem, cfg: SamoConfig, round_index: int, writer=None, verbose=False
):
    """The surrogate front of one round and the optimizer's counts."""
    stats: dict = {}
    if cfg.optimizer == "nsga2":
        moea_cfg = replace(
            cfg.moea,
            population_size=cfg.population_size,
            seed=derive_seed(cfg.seed, 2, round_index),
        )
        snapshot = writer.front_snapshot_writer(round_index) if (writer and verbose) else None
        pareto = nsga2_run(
            model.predict_batch, problem.bounds, moea_cfg, snapshot_writer=snapshot, stats=stats
        )
        return pareto, stats
    mgda_cfg = replace(
        cfg.mgda,
        n_starts=cfg.population_size,
        seed=derive_seed(cfg.seed, 2, round_index),
    )
    traces = writer.mgda_trace_writer(round_index) if (writer and verbose) else None
    pareto = multistart_mgda(model, problem.bounds, mgda_cfg, trace_writer=traces, stats=stats)
    return pareto, stats


class RunDirectoryWriter:
    """Single-owner writer of per-round artifacts."""

    def __init__(self, run_dir: Union[str, Path]):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)

    def write_config(self, cfg: SamoConfig, problem_name: str) -> None:
        snapshot = {"problem": problem_name, "samo": cfg.to_json_dict()}
        (self.run_dir / "config.json").write_text(json.dumps(snapshot, indent=2))

    def write_projection_matrix(self, problem: Problem) -> None:
        evaluator = problem.evaluate
        if isinstance(evaluator, QuarterCarEvaluator):
            header = [f"x{i}" for i in range(evaluator.projection.shape[1])]
            write_csv(
                self.run_dir / "projection_matrix.csv",
                header,
                [[float(v) for v in row] for row in evaluator.projection],
            )

    def write_samples(self, round_index: int, samples: Sequence[Sample]) -> None:
        n_dim = len(samples[0].x)
        n_obj = len(samples[0].y)
        header = [f"x{i}" for i in range(n_dim)] + [f"f{k}" for k in range(n_obj)]
        rows = [
            [float(v) for v in s.x.coords] + [float(v) for v in s.y.values] for s in samples
        ]
        write_csv(self.run_dir / f"samples_round_{round_index}.csv", header, rows)

    def write_front(self, round_index: int, pareto: ParetoApproximation) -> None:
        X = pareto.decision_matrix()
        F = pareto.front_matrix()
        header = [f"x{i}" for i in range(X.shape[1])] + [f"g{k}" for k in range(F.shape[1])]
        rows = [[float(v) for v in x] + [float(v) for v in f] for x, f in zip(X, F)]
        write_csv(self.run_dir / f"front_round_{round_index}.csv", header, rows)

    def write_surrogate(self, round_index: int, model) -> str:
        path = self.run_dir / f"surrogate_round_{round_index}.json"
        save_model(model, path)
        return str(path)

    def write_final_front(self, X: np.ndarray, F: np.ndarray) -> None:
        header = [f"x{i}" for i in range(X.shape[1])] + [f"f{k}" for k in range(F.shape[1])]
        rows = [[float(v) for v in x] + [float(v) for v in f] for x, f in zip(X, F)]
        write_csv(self.run_dir / "final_front.csv", header, rows)

    def front_snapshot_writer(self, round_index: int):
        """Streaming writer appending one row per front member per
        generation to a single per-round CSV."""
        path = self.run_dir / f"nsga2_fronts_round_{round_index}.csv"
        state = {"header_written": False}

        def write(gen: int, X: np.ndarray, F: np.ndarray) -> None:
            with path.open("a") as fh:
                if not state["header_written"]:
                    cols = (
                        ["generation"]
                        + [f"x{i}" for i in range(X.shape[1])]
                        + [f"g{k}" for k in range(F.shape[1])]
                    )
                    fh.write(",".join(cols) + "\n")
                    state["header_written"] = True
                for x, f in zip(X, F):
                    row = [str(gen)] + [format_float(v) for v in (*x, *f)]
                    fh.write(",".join(row) + "\n")

        return write

    def mgda_trace_writer(self, round_index: int):
        """Per-start descent trace CSVs for one optimization round."""

        def write(start_index: int, trace: np.ndarray) -> None:
            n_obj = trace.shape[1] - 2
            header = ["iteration", "direction_norm"] + [f"g{k}" for k in range(n_obj)]
            write_csv(
                self.run_dir / f"mgda_trace_round_{round_index}_start_{start_index}.csv",
                header,
                [[float(v) for v in row] for row in trace],
            )

        return write

    def write_metrics(self, record: RunRecord) -> None:
        metrics = {
            "schema_version": METRICS_SCHEMA_VERSION,
            "problem": record.problem_name,
            "surrogate": record.config.surrogate,
            "optimizer": record.config.optimizer,
            "seed": record.config.seed,
            "batch_size": record.config.batch_size,
            "budget": record.config.budget,
            "h_min": record.config.h_min,
            "converged": record.converged,
            "rounds": [
                {
                    "index": r.index,
                    "origin": r.plan_origin,
                    "new_samples": r.n_new_samples,
                    "dataset_size": r.dataset_size,
                    "front_size": len(r.pareto),
                    "hausdorff": r.hausdorff,
                    "timings": r.timings,
                    "optimizer": r.optimizer,
                }
                for r in record.rounds
            ],
            "h_values": record.h_values(),
            "total_evaluations": record.total_evaluations,
            "final_front_size": (
                len(record.final_front) if record.final_front is not None else None
            ),
            "error": record.error,
        }
        (self.run_dir / "metrics.json").write_text(json.dumps(metrics, indent=2))


def samo_run(
    problem: Problem,
    cfg: SamoConfig,
    run_dir: Optional[Union[str, Path]] = None,
    jobs: int = 1,
    verbose: bool = False,
) -> RunRecord:
    """Execute the adaptive loop against `problem`.

    Round 0 draws a Latin hypercube batch; every later round resamples at
    k-means centroids of the previous surrogate Pareto set, refits, and
    re-optimizes. The loop stops when consecutive surrogate fronts agree to
    within `h_min` in Hausdorff distance or the budget is exhausted, then
    runs the final non-dominance test over the whole archive.
    """
    writer = RunDirectoryWriter(run_dir) if run_dir is not None else None
    record = RunRecord(config=cfg, problem_name=problem.name)
    if writer:
        writer.write_config(cfg, problem.name)
        writer.write_projection_matrix(problem)

    s = cfg.batch_size
    previous_front: Optional[np.ndarray] = None

    round_index = 0
    informed_used = 0
    while True:
        timings: dict = {}
        t_round = time.perf_counter()

        t0 = time.perf_counter()
        if round_index == 0:
            plan = latin_hypercube(s, problem.bounds, derive_seed(cfg.seed, 0, 0))
        else:
            remaining = cfg.budget - informed_used
            batch = min(s, remaining)
            plan = pareto_informed_samples(
                record.rounds[-1].pareto,
                batch,
                record.dataset,
                problem.bounds,
                derive_seed(cfg.seed, 0, round_index),
            )
            informed_used += batch
        timings["sampling"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        new_samples = evaluate_batch(problem, plan, round_index, jobs=jobs)
        record.dataset = record.dataset.with_samples(new_samples)
        timings["evaluation"] = time.perf_counter() - t0
        if writer:
            writer.write_samples(round_index, new_samples)

        t0 = time.perf_counter()
        try:
            model = _fit_surrogate(record.dataset, cfg, round_index)
        except SamoError as exc:
            record.error = f"surrogate training failed in round {round_index}: {exc}"
            logger.error(record.error)
            break
        timings["fit"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        try:
            pareto, optimizer_stats = _optimize_surrogate(
                model, problem, cfg, round_index, writer=writer, verbose=verbose
            )
        except SamoError as exc:
            record.error = f"surrogate optimization failed in round {round_index}: {exc}"
            logger.error(record.error)
            break
        timings["optimization"] = time.perf_counter() - t0

        h: Optional[float] = None
        converged = False
        if previous_front is not None:
            converged, h = check_convergence(
                previous_front,
                pareto.front_matrix(),
                cfg.h_min,
                normalize=cfg.normalize_hausdorff,
            )
        previous_front = pareto.front_matrix()
        timings["total"] = time.perf_counter() - t_round

        round_record = RoundRecord(
            index=round_index,
            plan_origin=plan.origin,
            n_new_samples=len(new_samples),
            dataset_size=len(record.dataset),
            pareto=pareto,
            hausdorff=h,
            timings=timings,
            optimizer=optimizer_stats,
        )
        record.rounds.append(round_record)
        if writer:
            writer.write_front(round_index, pareto)
            round_record.surrogate_path = writer.write_surrogate(round_index, model)
        if verbose or h is not None:
            logger.info(
                "round %d: %d samples, |D|=%d, h=%s",
                round_index,
                len(new_samples),
                len(record.dataset),
                "n/a" if h is None else f"{h:.6g}",
            )

        if converged:
            record.converged = True
            break
        if informed_used >= cfg.budget:
            break
        round_index += 1

    if len(record.dataset):
        Y = record.dataset.objective_matrix()
        X = record.dataset.decision_matrix()
        keep = non_dominated_filter(Y)
        record.final_decision = X[keep]
        record.final_front = Y[keep]
        if writer:
            writer.write_final_front(record.final_decision, record.final_front)
    if writer:
        writer.write_metrics(record)
    return record


def igd(front, reference) -> float:
    """Inverted generational distance: mean distance from each reference
    point to its nearest front member, optionally after normalizing both
    sets by the reference's bounding box (see `igd_normalized`)."""
    F = np.atleast_2d(np.asarray(front, dtype=float))
    R = np.atleast_2d(np.asarray(reference, dtype=float))
    if F.shape[0] == 0 or R.shape[0] == 0:
        raise EmptyInputError("front and reference must be non-empty")
    d = np.sqrt(((R[:, None, :] - F[None, :, :]) ** 2).sum(axis=2))
    return float(d.min(axis=1).mean())


def igd_normalized(front, reference) -> float:
    """IGD with both sets scaled by the reference front's per-objective
    range, making the indicator comparable across problems."""
    R = np.atleast_2d(np.asarray(reference, dtype=float))
    lo = R.min(axis=0)
    span = R.max(axis=0) - lo
    span = np.where(span > 0.0, span, 1.0)
    F = (np.atleast_2d(np.asarray(front, dtype=float)) - lo) / span
    return igd(F, (R - lo) / span)


@dataclass(frozen=True)
class StudyRow:
    batch_size: int
    surrogate: str
    repetition: int
    rounds: int
    evaluations: int
    converged: bool
    total_time: float
    mean_round_time: float
    igd_to_oracle: Optional[float]


def sample_size_study(
    problem: Problem,
    sizes: Sequence[int],
    cfg: SamoConfig,
    repetitions: int = 1,
    jobs: int = 1,
) -> list:
    """Re-run the adaptive loop for each batch size (and repetition),
    reporting rounds, evaluation counts, wall-clock and front quality."""
    if len(sizes) == 0:
        raise ConfigurationError("study needs at least one sample size")
    reference = problem.true_front(1000) if problem.true_front is not None else None
    rows = []
    for rep in range(repetitions):
        for size in sizes:
            run_cfg = replace(cfg, batch_size=size, seed=derive_seed(cfg.seed, 3, size, rep))
            t0 = time.perf_counter()
            try:
                record = samo_run(problem, run_cfg, jobs=jobs)
            except SamoError as exc:
                logger.error("study cell (s=%d, rep=%d) failed: %s", size, rep, exc)
                continue
            elapsed = time.perf_counter() - t0
            quality = None
            if reference is not None and record.final_front is not None:
                quality = igd_normalized(record.final_front, reference)
            rows.append(
                StudyRow(
                    batch_size=size,
                    surrogate=run_cfg.surrogate,
                    repetition=rep,
                    rounds=len(record.rounds),
                    evaluations=record.total_evaluations,
                    converged=record.converged,
                    total_time=elapsed,
                    mean_round_time=elapsed / max(len(record.rounds), 1),
                    igd_to_oracle=quality,
                )
            )
    return rows
