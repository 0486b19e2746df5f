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
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .core import ConfigurationError, SamoError
from .driver import (
    SURROGATE_KINDS,
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


# Fields a config file does not set, so their names are unknown keys there:
# seeds derive from the master seed, the optimizer's population size comes
# from samo.population_size, the network width is fixed, and the RBF fields
# and the optimizer blocks are nested sections of their own.
_NOT_IN_FILE = {
    SamoConfig: ("rbf_sigma", "rbf_sigma_grid", "rbf_ridge", "train", "moea", "mgda"),
    TrainConfig: ("seed", "hidden"),
    MoeaConfig: ("seed", "population_size"),
    MgdaConfig: ("seed", "n_starts"),
}
# keys of the samo.rbf section and the SamoConfig fields they set
_RBF_KEYS = {"sigma": "rbf_sigma", "grid": "rbf_sigma_grid", "ridge": "rbf_ridge"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _cast(default, value, key: str):
    """A file value checked against the type of its field's default: a bool
    field takes a JSON boolean, an int field an integral number, a str field
    a string and a float field any number; a field whose default is None
    takes a number, a tuple field a list of numbers. Null is passed on."""
    if value is None:
        return None
    if isinstance(default, tuple):
        if isinstance(value, (list, tuple)) and all(map(_is_number, value)):
            return tuple(float(v) for v in value)
        expected = "a list of numbers"
    elif isinstance(default, bool):
        if isinstance(value, bool):
            return value
        expected = "true or false"
    elif isinstance(default, int):
        if _is_number(value) and (isinstance(value, int) or value.is_integer()):
            return int(value)
        expected = "an integer"
    elif isinstance(default, str):
        if isinstance(value, str):
            return value
        expected = "a string"
    else:
        if _is_number(value):
            return float(value)
        expected = "a number"
    raise ConfigurationError(f"{key} must be {expected}, got {value!r}")


def _file_values(cls, section: dict, where: str, keys: Optional[dict] = None) -> dict:
    """Field values of config dataclass `cls` set by one file section.

    `keys` maps the section's keys to field names; by default every field
    not in `_NOT_IN_FILE` is a key of its own name. Other keys are rejected,
    and values are checked against the types of the fields' defaults.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    if keys is None:
        keys = {name: name for name in defaults if name not in _NOT_IN_FILE.get(cls, ())}
    _reject_unknown(section, keys, where)
    return {keys[k]: _cast(defaults[keys[k]], v, f"{where}.{k}") for k, v in section.items()}


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
        _reject_unknown(study, ("sizes", "surrogates", "repetitions"), "study")
        surrogates = tuple(study.get("surrogates", [samo_cfg.surrogate]))
        for kind in surrogates:
            if kind not in SURROGATE_KINDS:
                raise ConfigurationError(f"unknown study surrogate kind {kind!r}")
        return cls(
            problem=problem,
            samo=samo_cfg,
            study_sizes=tuple(int(s) for s in study.get("sizes", [])),
            study_surrogates=surrogates,
            study_repetitions=int(study.get("repetitions", 1)),
        )

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)


# keys of the problem section that set make_quarter_car_problem arguments
_PROBLEM_ARGS = {
    "n_dim": "n_dim",
    "projection_seed": "seed",
    "half_width": "half_width",
    "max_swing": "max_swing",
}


def _problem_from_config(section: dict) -> Problem:
    """A problem from the file's problem section; keys left out or null keep
    the defaults of `make_quarter_car_problem` and the parameter dataclasses."""
    _reject_unknown(
        section, ("name", *_PROBLEM_ARGS, "params", "excitation", "horizon"), "problem"
    )
    name = section.get("name", "mbs")
    if name in ANALYTIC_PROBLEM_NAMES:
        return make_analytic_problem(name, n_dim=section.get("n_dim"))
    if name != "mbs":
        raise ConfigurationError(f"unknown problem {name!r}")
    horizon = section.get("horizon", {})
    _reject_unknown(horizon, ("t0", "te", "dt"), "problem.horizon")
    given = {arg: section[k] for k, arg in _PROBLEM_ARGS.items() if section.get(k) is not None}
    params = _file_values(QuarterCarParams, section.get("params", {}), "problem.params")
    excitation = _file_values(Excitation, section.get("excitation", {}), "problem.excitation")
    return make_quarter_car_problem(
        nominal=QuarterCarParams(**params),
        excitation=Excitation(**excitation),
        **given,
        **horizon,
    )


def _samo_from_config(section: dict) -> SamoConfig:
    """A SamoConfig from the file's samo section: its own fields, the rbf
    section and one section per optimizer or training block. Keys left out
    keep the dataclass defaults."""
    section = dict(section)
    blocks = {
        f.name: f.default_factory for f in fields(SamoConfig) if f.default_factory is not MISSING
    }
    nested = {name: section.pop(name, {}) for name in ("rbf", *blocks)}
    values = _file_values(SamoConfig, section, "samo")
    values.update(_file_values(SamoConfig, nested.pop("rbf"), "samo.rbf", _RBF_KEYS))
    for name, block in nested.items():
        cls = blocks[name]
        values[name] = cls(**_file_values(cls, block, f"samo.{name}"))
    return SamoConfig(**values)


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


_JOBS_HELP = (
    "concurrent expensive evaluations, in threads; no speedup for the built-in "
    "quarter-car, whose pure-Python integrator holds the GIL"
)


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
    p_run.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    p_run.set_defaults(func=cmd_run)

    p_front = sub.add_parser("front", help="combine run artifacts into one CSV")
    p_front.add_argument("run_dir", help="run directory written by `samo run`")
    p_front.add_argument("--out", default=None, help="output CSV path")
    p_front.set_defaults(func=cmd_front)

    p_study = sub.add_parser("study", help="sweep batch sizes and surrogate kinds")
    p_study.add_argument("--config", required=True, help="JSON config file with a study section")
    p_study.add_argument("--out", required=True, help="output directory")
    p_study.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_study.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
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
