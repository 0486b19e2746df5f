"""Command-line front end.

Subcommands:

* ``run``       execute one adaptive optimization run from a JSON config
* ``front``     combine a run directory's per-round artifacts into one CSV
* ``study``     sweep batch sizes and surrogate kinds, emit a study table
* ``evaluate``  expensive-evaluate a single design point (debugging aid)

The config file is a single JSON document with nested sections; unknown
keys anywhere are rejected before any expensive evaluation happens.
"""

from __future__ import annotations

import argparse
import json
import logging
import shutil
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .core import ConfigurationError, SamoError
from .driver import (
    SamoConfig,
    format_float,
    sample_size_study,
    samo_run,
    write_csv,
)
from .mgda import MgdaConfig
from .moea import MoeaConfig
from .problems import (
    ANALYTIC_PROBLEM_NAMES,
    Excitation,
    Problem,
    QuarterCarParams,
    make_analytic_problem,
    make_quarter_car_problem,
)
from .surrogate import TrainConfig

logger = logging.getLogger(__name__)


class MissingArtifactError(SamoError):
    """A run directory lacks an artifact required by this command."""


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")


def _take(section: dict, defaults: dict, where: str) -> dict:
    _reject_unknown(section, defaults, where)
    merged = dict(defaults)
    merged.update(section)
    return merged


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of a config file."""

    problem: Problem
    samo: SamoConfig
    study_sizes: tuple = ()
    study_surrogates: tuple = ()
    study_repetitions: int = 1

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _reject_unknown(raw, ("problem", "samo", "study"), "config")
        problem = _problem_from_config(raw.get("problem", {}))
        samo_cfg = _samo_from_config(raw.get("samo", {}))
        study = raw.get("study", {})
        study = _take(
            study,
            {"sizes": [], "surrogates": [samo_cfg.surrogate], "repetitions": 1},
            "study",
        )
        for kind in study["surrogates"]:
            if kind not in ("mlp", "rbf"):
                raise ConfigurationError(f"unknown study surrogate kind {kind!r}")
        return cls(
            problem=problem,
            samo=samo_cfg,
            study_sizes=tuple(int(s) for s in study["sizes"]),
            study_surrogates=tuple(study["surrogates"]),
            study_repetitions=int(study["repetitions"]),
        )

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)


def _problem_from_config(section: dict) -> Problem:
    merged = _take(
        section,
        {
            "name": "mbs",
            "n_dim": None,
            "projection_seed": 2024,
            "half_width": 0.003,
            "max_swing": 0.15,
            "params": {},
            "excitation": {},
            "horizon": {},
        },
        "problem",
    )
    name = merged["name"]
    if name in ANALYTIC_PROBLEM_NAMES:
        return make_analytic_problem(name, n_dim=merged["n_dim"])
    if name != "mbs":
        raise ConfigurationError(f"unknown problem {name!r}")
    params = _take(
        merged["params"],
        {
            "sprung_mass": 300.0,
            "unsprung_mass": 40.0,
            "suspension_stiffness": 25_000.0,
            "suspension_damping": 1_500.0,
            "tire_stiffness": 200_000.0,
        },
        "problem.params",
    )
    excitation = _take(
        merged["excitation"], {"amplitude": 0.001, "frequency": 7.0}, "problem.excitation"
    )
    horizon = _take(merged["horizon"], {"t0": 0.0, "te": 2.0, "dt": 1e-4}, "problem.horizon")
    return make_quarter_car_problem(
        n_dim=merged["n_dim"] or 24,
        half_width=merged["half_width"],
        seed=merged["projection_seed"],
        nominal=QuarterCarParams(**params),
        excitation=Excitation(**excitation),
        t0=horizon["t0"],
        te=horizon["te"],
        dt=horizon["dt"],
        max_swing=merged["max_swing"],
    )


def _samo_from_config(section: dict) -> SamoConfig:
    merged = _take(
        section,
        {
            "budget": 120,
            "batch_size": 20,
            "h_min": 2.0,
            "surrogate": "mlp",
            "optimizer": "nsga2",
            "population_size": 100,
            "normalize_hausdorff": False,
            "rbf": {},
            "train": {},
            "moea": {},
            "mgda": {},
            "seed": 0,
        },
        "samo",
    )
    rbf = _take(
        merged["rbf"],
        {"sigma": None, "grid": [0.1, 0.5, 1.0, 2.0, 5.0], "ridge": 1e-8},
        "samo.rbf",
    )
    train_defaults = TrainConfig()
    train = _take(
        merged["train"],
        {
            "epochs": train_defaults.epochs,
            "learning_rate": train_defaults.learning_rate,
            "batch_size": train_defaults.batch_size,
            "validation_fraction": train_defaults.validation_fraction,
            "patience": train_defaults.patience,
            "restarts": train_defaults.restarts,
        },
        "samo.train",
    )
    moea_defaults = MoeaConfig()
    moea = _take(
        merged["moea"],
        {
            "generations": moea_defaults.generations,
            "crossover_prob": moea_defaults.crossover_prob,
            "eta_crossover": moea_defaults.eta_crossover,
            "eta_mutation": moea_defaults.eta_mutation,
            "mutation_prob": moea_defaults.mutation_prob,
            "crossover_var_prob": moea_defaults.crossover_var_prob,
        },
        "samo.moea",
    )
    mgda_defaults = MgdaConfig()
    mgda = _take(
        merged["mgda"],
        {
            "learning_rate": mgda_defaults.learning_rate,
            "max_iterations": mgda_defaults.max_iterations,
            "tolerance": mgda_defaults.tolerance,
            "backtracking": mgda_defaults.backtracking,
        },
        "samo.mgda",
    )
    return SamoConfig(
        budget=int(merged["budget"]),
        batch_size=int(merged["batch_size"]),
        h_min=float(merged["h_min"]),
        surrogate=merged["surrogate"],
        optimizer=merged["optimizer"],
        population_size=int(merged["population_size"]),
        normalize_hausdorff=bool(merged["normalize_hausdorff"]),
        rbf_sigma=None if rbf["sigma"] is None else float(rbf["sigma"]),
        rbf_sigma_grid=tuple(float(s) for s in rbf["grid"]),
        rbf_ridge=float(rbf["ridge"]),
        train=TrainConfig(**train),
        moea=MoeaConfig(**moea),
        mgda=MgdaConfig(**mgda),
        seed=int(merged["seed"]),
    )


def cmd_run(args) -> int:
    try:
        config = RunConfig.from_file(args.config)
    except (ConfigurationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    samo_cfg = config.samo
    if args.seed is not None:
        samo_cfg = replace(samo_cfg, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(args.config, out / "config_snapshot.json")
    record = samo_run(
        config.problem, samo_cfg, run_dir=out, jobs=args.jobs, verbose=args.verbose
    )
    for r in record.rounds:
        h = "n/a" if r.hausdorff is None else format_float(r.hausdorff)
        print(
            f"round {r.index}: new={r.n_new_samples} evaluations={r.dataset_size} h={h}"
        )
    status = "converged" if record.converged else "budget exhausted"
    if record.error:
        print(f"error: {record.error}", file=sys.stderr)
        return 1
    print(
        f"{status} after {len(record.rounds)} rounds, "
        f"{record.total_evaluations} expensive evaluations; artifacts in {out}"
    )
    return 0


def _read_csv(path: Path):
    if not path.exists():
        raise MissingArtifactError(f"missing artifact: {path}")
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def cmd_front(args) -> int:
    run_dir = Path(args.run_dir)
    try:
        metrics_path = run_dir / "metrics.json"
        if not metrics_path.exists():
            raise MissingArtifactError(f"missing artifact: {metrics_path}")
        metrics = json.loads(metrics_path.read_text())
        combined_rows = []
        value_names: Optional[list] = None
        x_names: Optional[list] = None
        for round_info in metrics["rounds"]:
            index = round_info["index"]
            s_header, s_rows = _read_csv(run_dir / f"samples_round_{index}.csv")
            f_header, f_rows = _read_csv(run_dir / f"front_round_{index}.csv")
            if x_names is None:
                x_names = [c for c in s_header if c.startswith("x")]
                value_names = [f"obj{k}" for k in range(len(s_header) - len(x_names))]
            for row in s_rows:
                combined_rows.append([index, "sample", *row])
            for row in f_rows:
                combined_rows.append([index, "front", *row])
        final_header, final_rows = _read_csv(run_dir / "final_front.csv")
        if x_names is None:  # the run stopped before its first round finished
            x_names = [c for c in final_header if c.startswith("x")]
            value_names = [f"obj{k}" for k in range(len(final_header) - len(x_names))]
        for row in final_rows:
            combined_rows.append([-1, "final", *row])
    except (MissingArtifactError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else run_dir / "combined.csv"
    header = ["round", "kind", *x_names, *value_names]
    lines = [",".join(header)]
    for row in combined_rows:
        lines.append(",".join(str(v) for v in row))
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(combined_rows)} rows)")
    return 0


def cmd_study(args) -> int:
    try:
        config = RunConfig.from_file(args.config)
        if not config.study_sizes:
            raise ConfigurationError("config has no study.sizes")
    except (ConfigurationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(args.config, out / "config_snapshot.json")
    base = config.samo
    if args.seed is not None:
        base = replace(base, seed=args.seed)
    rows = []
    for kind in config.study_surrogates:
        cell_cfg = replace(base, surrogate=kind)
        rows.extend(
            sample_size_study(
                config.problem,
                config.study_sizes,
                cell_cfg,
                repetitions=config.study_repetitions,
                jobs=args.jobs,
            )
        )
    header = [
        "batch_size",
        "surrogate",
        "repetition",
        "rounds",
        "evaluations",
        "converged",
        "total_time",
        "mean_round_time",
        "igd",
    ]
    table = [
        [
            r.batch_size,
            r.surrogate,
            r.repetition,
            r.rounds,
            r.evaluations,
            int(r.converged),
            float(r.total_time),
            float(r.mean_round_time),
            "" if r.igd_to_oracle is None else format_float(r.igd_to_oracle),
        ]
        for r in rows
    ]
    write_csv(out / "study.csv", header, table)
    print(f"wrote {out / 'study.csv'} ({len(table)} rows)")
    return 0


def cmd_evaluate(args) -> int:
    try:
        config = RunConfig.from_file(args.config)
        if args.x is not None:
            x = np.array([float(v) for v in args.x.split(",")], dtype=float)
        else:
            x = np.zeros(config.problem.n_dim)
        y = config.problem.evaluate(x)
    except (ConfigurationError, SamoError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(",".join(format_float(v) for v in y))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samo",
        description="Surrogate-assisted multi-objective optimization toolkit",
    )
    parser.add_argument("--verbose", action="store_true", help="verbose logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one adaptive optimization run")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--out", required=True, help="run directory to create")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.add_argument("--jobs", type=int, default=1, help="concurrent expensive evaluations")
    p_run.set_defaults(func=cmd_run)

    p_front = sub.add_parser("front", help="combine run artifacts into one CSV")
    p_front.add_argument("run_dir", help="run directory written by `samo run`")
    p_front.add_argument("--out", default=None, help="output CSV path")
    p_front.set_defaults(func=cmd_front)

    p_study = sub.add_parser("study", help="sweep batch sizes and surrogate kinds")
    p_study.add_argument("--config", required=True, help="JSON config file with a study section")
    p_study.add_argument("--out", required=True, help="output directory")
    p_study.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_study.add_argument("--jobs", type=int, default=1, help="concurrent expensive evaluations")
    p_study.set_defaults(func=cmd_study)

    p_eval = sub.add_parser("evaluate", help="expensive-evaluate one design point")
    p_eval.add_argument("--config", required=True, help="JSON config file")
    p_eval.add_argument(
        "--x", default=None, help="comma-separated coordinates (default: all zeros)"
    )
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    # argparse enforces `command`; every subcommand sets func
    args.verbose = bool(args.verbose)
    if not hasattr(args, "jobs"):
        args.jobs = 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
