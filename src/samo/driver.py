"""Orchestration of the adaptive surrogate/optimization loop.

One run alternates expensive sampling, surrogate refitting and surrogate
optimization, stopping when the Hausdorff distance between consecutive
surrogate fronts falls below a threshold or the evaluation budget is spent,
and finishes with a non-dominance test over every expensive sample
collected. `samo_run` is a loop over timed stages that read and write only
the `RunRecord`: `_sample`, `_evaluate`, `_fit_surrogate`,
`_optimize_surrogate` and `check_convergence`. A finished round goes into
`RunRecord.rounds` as the very entry `metrics.json` lists for it, and its
surrogate front into `RunRecord.fronts` at the same index. All artifacts
(samples, fronts, serialized surrogates, metrics) are written into a run
directory as they are produced; `read_run` reads its point sets back.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    ConfigurationError,
    Dataset,
    SamoError,
    _read_json,
    _read_text,
    hausdorff_distance,
    non_dominated_filter,
    point_matrix,
)
from .mgda import MgdaConfig, multistart_mgda
from .moea import MoeaConfig, check_population_size, nsga2_run
from .problems import Problem, QuarterCarEvaluator
from .sampling import latin_hypercube, pareto_informed_samples
from .surrogate import (
    RbfConfig,
    TrainConfig,
    fit_mlp,
    fit_rbf,
    min_training_samples,
    save_model,
    select_rbf_width,
)

logger = logging.getLogger(__name__)

METRICS_SCHEMA_VERSION = 2
# the `SamoConfig` fields `metrics.json` repeats, under their own names
METRICS_SETTINGS = ("surrogate", "optimizer", "seed", "batch_size", "budget", "h_min")

SURROGATE_KINDS = ("mlp", "rbf")
OPTIMIZER_KINDS = ("nsga2", "mgda-multistart")

# The point sets of a run directory, by the kind `samo front` tags their rows
# with; a round's file name takes its index, the final front's none.
POINT_FILES = {
    "sample": "samples_round_{}.csv",
    "front": "front_round_{}.csv",
    "final": "final_front.csv",
}
METRICS_FILE = "metrics.json"


def format_float(value: float) -> str:
    """Floats in CSV artifacts carry 17 significant digits so re-parsing is
    lossless."""
    return format(float(value), ".17g")


def _csv_line(row) -> str:
    return ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row) + "\n"


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    path.write_text("".join(map(_csv_line, [header, *rows])))


def point_header(X: np.ndarray, F: np.ndarray, obj: str) -> list:
    """CSV columns of a point set: x0, x1, ... for the decisions X, then
    the objectives F prefixed `obj` (f for true values, g for surrogate
    values)."""
    return [f"x{i}" for i in range(X.shape[1])] + [f"{obj}{k}" for k in range(F.shape[1])]


def read_points(path: Path) -> tuple:
    """The decisions X and objectives F of a CSV file written by
    `RunDirectoryWriter.write_points`, bit for bit: the x-prefixed columns
    are X, the others F."""
    lines = _read_text(path, "point file").splitlines()
    if not lines:
        raise SamoError(f"{path} is empty")
    header = lines[0].split(",")
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise SamoError(f"{path} holds a value that is no number: {exc}") from None
    if any(len(row) != len(header) for row in rows):
        raise SamoError(f"{path} has a row not as wide as its {len(header)} columns")
    values = np.array(rows, dtype=float).reshape(len(rows), len(header))
    n_x = sum(name.startswith("x") for name in header)
    return values[:, :n_x], values[:, n_x:]


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
    evaluations remain in the budget. `population_size` is the NSGA-II
    population or the number of descent starts, whichever `optimizer`
    selects. `seed` is the run's only seed: every round derives the seeds of
    its sampling, training and optimizer from it with `derive_seed`. Round 0
    fits the surrogate on its batch alone, so `batch_size` is at least
    `samo.surrogate.min_training_samples`: 2 for an RBF, whether its width
    is fixed or searched, and at least 5 for the network.
    """

    budget: int = 120
    batch_size: int = 20
    h_min: float = 2.0
    surrogate: str = "mlp"
    optimizer: str = "nsga2"
    population_size: int = 100
    seed: int = 0
    rbf: RbfConfig = field(default_factory=RbfConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    moea: MoeaConfig = field(default_factory=MoeaConfig)
    mgda: MgdaConfig = field(default_factory=MgdaConfig)

    def __post_init__(self) -> None:
        if self.surrogate not in SURROGATE_KINDS:
            raise ConfigurationError(f"surrogate must be one of {SURROGATE_KINDS}")
        fraction = self.train.validation_fraction
        least = min_training_samples(self.surrogate, fraction)
        if self.batch_size < least:
            split = f" with train.validation_fraction {fraction:g}" if self.surrogate == "mlp" else ""
            raise ConfigurationError(
                f"batch_size must be at least {least} to fit the {self.surrogate} surrogate{split}"
            )
        if self.budget < self.batch_size:
            raise ConfigurationError("budget must be at least batch_size")
        if not self.h_min > 0.0:
            raise ConfigurationError("h_min must be strictly positive")
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ConfigurationError(f"optimizer must be one of {OPTIMIZER_KINDS}")
        if self.population_size < 2:
            raise ConfigurationError("population_size must be at least 2")
        if self.optimizer == "nsga2":
            check_population_size(self.population_size)
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")


@dataclass
class RunRecord:
    """One run as it stands: `rounds` holds each finished round's entry of
    `metrics.json`, and `fronts` its surrogate `ParetoApproximation` at the
    same index."""

    config: SamoConfig
    problem_name: str
    rounds: list = field(default_factory=list)
    fronts: list = field(default_factory=list)
    dataset: Dataset = field(default_factory=Dataset)
    final_decision: Optional[np.ndarray] = None
    final_front: Optional[np.ndarray] = None
    converged: bool = False
    error: Optional[str] = None
    failed_round: Optional[dict] = None  # index, stage, timings, optimizer

    @property
    def total_evaluations(self) -> int:
        return len(self.dataset)


def check_convergence(front_prev, front_cur, h_min: float):
    """Hausdorff distance between consecutive fronts and whether it is below
    the stopping threshold."""
    h = hausdorff_distance(front_prev, front_cur)
    return h < h_min, h


def evaluate_batch(problem: Problem, X: np.ndarray, jobs: int = 1) -> np.ndarray:
    """Expensive-evaluate the rows of X, optionally with concurrent workers,
    as their objectives Y, row for row."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return np.array(list(pool.map(problem.evaluate, X)), dtype=float)
    return problem.evaluate_batch(X)


def _fit_surrogate(data: Dataset, cfg: SamoConfig, round_index: int):
    if cfg.surrogate == "rbf":
        sigma = cfg.rbf.sigma
        if sigma is None:
            sigma = select_rbf_width(data, cfg.rbf.grid, ridge=cfg.rbf.ridge)
        return fit_rbf(data, sigma=sigma, ridge=cfg.rbf.ridge)
    return fit_mlp(data, cfg.train, seed=derive_seed(cfg.seed, 1, round_index))


def _optimize_surrogate(model, bounds, cfg: SamoConfig, round_index: int, stats: dict, log=None):
    """The surrogate front of one round; the optimizer's counts go into
    `stats`, also when it raises. A `log`, the run directory's writer of a
    verbose run, writes every generation's front or the round's descent trace."""
    seed = derive_seed(cfg.seed, 2, round_index)
    if cfg.optimizer == "nsga2":
        return nsga2_run(
            model.predict_batch, bounds, cfg.moea, population_size=cfg.population_size, seed=seed,
            snapshot_writer=log and partial(log.write_front_snapshot, round_index), stats=stats,
        )
    return multistart_mgda(
        model, bounds, cfg.mgda, n_starts=cfg.population_size, seed=seed,
        trace_writer=log and partial(log.write_mgda_trace, round_index), stats=stats,
    )


class RunDirectoryWriter:
    """Single-owner writer of per-round artifacts."""

    def __init__(self, run_dir: Union[str, Path]):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)

    def write_projection_matrix(self, problem: Problem) -> None:
        evaluator = problem.evaluate
        if isinstance(evaluator, QuarterCarEvaluator):
            header = [f"x{i}" for i in range(evaluator.projection.shape[1])]
            write_csv(self.run_dir / "projection_matrix.csv", header, evaluator.projection)

    def write_points(self, name: str, X: np.ndarray, F: np.ndarray, obj: str) -> None:
        """Rows of decisions X beside their objectives F, as CSV file `name`
        with the columns of `point_header`."""
        write_csv(self.run_dir / name, point_header(X, F, obj), np.hstack([X, F]))

    def write_surrogate(self, round_index: int, model) -> None:
        save_model(model, self.run_dir / f"surrogate_round_{round_index}.json")

    def write_front_snapshot(self, round_index: int, gen: int, X: np.ndarray, F: np.ndarray) -> None:
        """One row per member of generation `gen`'s front, appended to the
        round's CSV; generation 0 replaces what the file held."""
        path = self.run_dir / f"nsga2_fronts_round_{round_index}.csv"
        with path.open("a" if gen else "w") as fh:
            if not gen:
                fh.write(_csv_line(["generation", *point_header(X, F, "g")]))
            fh.writelines(_csv_line((gen, *x, *f)) for x, f in zip(X, F))

    def write_mgda_trace(self, round_index: int, trace: np.ndarray) -> None:
        """The round's descent trace, rows (iteration, start, ||d||,
        objectives) in iteration order."""
        header = ["iteration", "start", "direction_norm"]
        header += [f"g{k}" for k in range(trace.shape[1] - 3)]
        write_csv(self.run_dir / f"mgda_trace_round_{round_index}.csv", header, trace)

    def write_metrics(self, record: RunRecord) -> None:
        metrics = {
            "schema_version": METRICS_SCHEMA_VERSION,
            "problem": record.problem_name,
            **{name: getattr(record.config, name) for name in METRICS_SETTINGS},
            "converged": record.converged,
            "stop_reason": "error" if record.error else "converged" if record.converged else "budget",
            "rounds": record.rounds,
            "h_values": [r["hausdorff"] for r in record.rounds[1:]],
            "total_evaluations": record.total_evaluations,
            "final_front_size": len(record.final_front),
            "error": record.error,
        }
        if record.failed_round is not None:
            metrics["failed_round"] = record.failed_round
        (self.run_dir / METRICS_FILE).write_text(json.dumps(metrics, indent=2))


def read_run(run_dir: Path) -> list:
    """Every point set of a run directory as (round index, kind, X, F), in
    the order `metrics.json` lists them: each round's samples and front, a
    failed round's samples, and the final front as round -1."""
    path = run_dir / METRICS_FILE
    metrics = _read_json(path, "run metrics")
    try:
        sets = [(r["index"], kind) for r in metrics["rounds"] for kind in ("sample", "front")]
        if "failed_round" in metrics:
            # a failed round evaluated its samples but made no front
            sets.append((metrics["failed_round"]["index"], "sample"))
    except (KeyError, TypeError) as exc:
        raise SamoError(f"{path} lists no rounds: {exc!r}") from None
    # every run that wrote metrics.json wrote the final front too
    sets.append((-1, "final"))
    return [(j, kind, *read_points(run_dir / POINT_FILES[kind].format(j))) for j, kind in sets]


def _timed(timings: dict, stage: str, fn, *args):
    """`fn(*args)`, its seconds stored as `timings[stage]`, also when it
    raises: the last key of `timings` names the stage a round stopped in."""
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        timings[stage] = time.perf_counter() - t0


def _sample(problem: Problem, cfg: SamoConfig, record: RunRecord) -> np.ndarray:
    """The next round's designs: a Latin hypercube in round 0, then k-means
    centroids of the last surrogate Pareto set, no more than the budget has
    left (round 0's batch comes on top of the budget)."""
    round_index = len(record.rounds)
    seed = derive_seed(cfg.seed, 0, round_index)
    if round_index == 0:
        return latin_hypercube(cfg.batch_size, problem.bounds, seed)
    left = cfg.budget + cfg.batch_size - len(record.dataset)
    return pareto_informed_samples(
        record.fronts[-1], min(cfg.batch_size, left), record.dataset, problem.bounds, seed
    )


def _evaluate(problem: Problem, record: RunRecord, X: np.ndarray, jobs: int) -> np.ndarray:
    """Expensive-evaluate the designs X into the record's archive; their
    objectives Y."""
    Y = evaluate_batch(problem, X, jobs=jobs)
    record.dataset = record.dataset.with_samples(X, Y)
    return Y


def samo_run(
    problem: Problem,
    cfg: SamoConfig,
    run_dir: Optional[Union[str, Path]] = None,
    jobs: int = 1,
    verbose: bool = False,
) -> RunRecord:
    """Execute the adaptive loop against `problem`.

    Every round runs the stages `_sample` (a Latin hypercube batch in round
    0, k-means centroids of the previous surrogate Pareto set after it),
    `_evaluate`, `_fit_surrogate`, `_optimize_surrogate` and, from round 1
    on, `check_convergence`; `timings` holds each stage's seconds under
    `sampling`, `evaluation`, `fit` and `optimization`. The stages read and
    write only the run record, which gives the round index, the budget left
    and the previous front. A finished round appends its `metrics.json`
    entry, timings and optimizer counts included, to `record.rounds` and
    its surrogate front to `record.fronts`. The loop stops when
    consecutive surrogate fronts agree to within `h_min` in Hausdorff
    distance, the budget is exhausted or the fit or the optimizer fails,
    then runs the final non-dominance test over the whole archive.
    """
    writer = RunDirectoryWriter(run_dir) if run_dir is not None else None
    record = RunRecord(config=cfg, problem_name=problem.name)
    if writer:
        writer.write_projection_matrix(problem)

    while not record.converged and len(record.dataset) < cfg.budget + cfg.batch_size:
        round_index = len(record.rounds)
        timings: dict = {}
        stats: dict = {}
        t_round = time.perf_counter()
        X_new = _timed(timings, "sampling", _sample, problem, cfg, record)
        Y_new = _timed(timings, "evaluation", _evaluate, problem, record, X_new, jobs)
        if writer:
            writer.write_points(POINT_FILES["sample"].format(round_index), X_new, Y_new, "f")
        try:
            model = _timed(timings, "fit", _fit_surrogate, record.dataset, cfg, round_index)
            pareto = _timed(
                timings, "optimization", _optimize_surrogate,
                model, problem.bounds, cfg, round_index, stats, writer if verbose else None,
            )
        except SamoError as exc:
            stage = list(timings)[-1]
            what = "training" if stage == "fit" else "optimization"
            record.error = f"surrogate {what} failed in round {round_index}: {exc}"
            record.failed_round = {
                "index": round_index, "stage": stage, "timings": timings, "optimizer": stats
            }
            logger.error(record.error)
            break

        h: Optional[float] = None
        if record.fronts:
            record.converged, h = check_convergence(record.fronts[-1].F, pareto.F, cfg.h_min)
        timings["total"] = time.perf_counter() - t_round
        record.fronts.append(pareto)
        record.rounds.append({
            "index": round_index, "origin": "pareto-informed" if round_index else "latin-hypercube",
            "new_samples": len(X_new), "dataset_size": len(record.dataset),
            "front_size": len(pareto), "hausdorff": h, "timings": timings, "optimizer": stats,
        })
        if writer:
            writer.write_points(POINT_FILES["front"].format(round_index), pareto.X, pareto.F, "g")
            writer.write_surrogate(round_index, model)
        if verbose or h is not None:
            logger.info(
                "round %d: %d samples, |D|=%d, h=%s", round_index, len(X_new), len(record.dataset),
                "n/a" if h is None else f"{h:.6g}",
            )

    # round 0 evaluated its batch before anything could end the loop
    keep = non_dominated_filter(record.dataset.Y)
    record.final_decision = record.dataset.X[keep]
    record.final_front = record.dataset.Y[keep]
    if writer:
        writer.write_points(POINT_FILES["final"], record.final_decision, record.final_front, "f")
        writer.write_metrics(record)
    return record


def igd_normalized(front, reference) -> float:
    """Inverted generational distance: the mean distance from each reference
    point to its nearest front member, with both sets scaled by the
    reference front's per-objective range, making the indicator comparable
    across problems. Both are `samo.core.point_matrix` point sets."""
    F = point_matrix(front, "front")
    R = point_matrix(reference, "reference")
    lo = R.min(axis=0)
    span = R.max(axis=0) - lo
    span = np.where(span > 0.0, span, 1.0)
    F, R = (F - lo) / span, (R - lo) / span
    d = np.sqrt(((R[:, None, :] - F[None, :, :]) ** 2).sum(axis=2))
    return float(d.min(axis=1).mean())


@dataclass(frozen=True)
class StudyConfig:
    """The sweep of `samo study`: every batch size in `sizes` with every
    surrogate kind in `surrogates` (none: the run config's), each
    `repetitions` times."""

    sizes: tuple[int, ...] = ()
    surrogates: tuple[str, ...] = ()
    repetitions: int = 1

    def __post_init__(self) -> None:
        unknown = sorted(set(self.surrogates) - set(SURROGATE_KINDS))
        if unknown:
            raise ConfigurationError(
                f"unknown study.surrogates {unknown}; choose from {SURROGATE_KINDS}"
            )
        if self.repetitions < 1:
            raise ConfigurationError("study.repetitions must be at least 1")

    def cells(self, cfg: SamoConfig) -> list:
        """Every cell of the sweep around the run config `cfg` as
        (repetition, run config), by surrogate kind, then repetition, then
        size; a cell's seed is `derive_seed(cfg.seed, 3, size, repetition)`.
        A size its cell's config rejects raises ConfigurationError."""
        cells = []
        for kind in self.surrogates or (cfg.surrogate,):
            for rep in range(self.repetitions):
                for size in self.sizes:
                    seed = derive_seed(cfg.seed, 3, size, rep)
                    try:
                        cell = replace(cfg, surrogate=kind, batch_size=size, seed=seed)
                    except ConfigurationError as exc:
                        raise ConfigurationError(f"study.sizes entry {size}: {exc}") from None
                    cells.append((rep, cell))
        return cells


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
    igd: Optional[float]


def sample_size_study(problem: Problem, cfg: SamoConfig, study: StudyConfig, jobs: int = 1) -> list:
    """Run the adaptive loop on every cell of `study.cells(cfg)`, in order,
    reporting rounds, evaluation counts, wall-clock and front quality. A
    cell whose run fails, by raising or with a `record.error`, is logged and
    left out."""
    if len(study.sizes) == 0:
        raise ConfigurationError("study needs at least one sample size")
    reference = problem.true_front(1000) if problem.true_front is not None else None
    rows = []
    for rep, run_cfg in study.cells(cfg):
        t0 = time.perf_counter()
        try:
            record = samo_run(problem, run_cfg, jobs=jobs)
            error = record.error
        except SamoError as exc:
            error = exc
        if error is not None:
            logger.error("study cell (s=%d, rep=%d) failed: %s", run_cfg.batch_size, rep, error)
            continue
        elapsed = time.perf_counter() - t0
        rows.append(
            StudyRow(
                batch_size=run_cfg.batch_size,
                surrogate=run_cfg.surrogate,
                repetition=rep,
                rounds=len(record.rounds),
                evaluations=record.total_evaluations,
                converged=record.converged,
                total_time=elapsed,
                mean_round_time=elapsed / len(record.rounds),
                igd=None if reference is None else igd_normalized(record.final_front, reference),
            )
        )
    return rows
