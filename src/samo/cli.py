"""Command-line front end.

Subcommands:

* ``run``       execute one adaptive optimization run from a JSON config
* ``front``     combine a run directory's point sets into one CSV
* ``study``     sweep batch sizes and surrogate kinds, emit a study table
* ``evaluate``  expensive-evaluate a single design point (debugging aid)

The config file is a single JSON document with nested sections: each key
is a field of a config dataclass, or a parameter of the problem builder,
under its own name, and a field declared as a config dataclass is a section
of its own. Unknown keys anywhere are rejected before any expensive
evaluation happens. ``run``
and ``study`` write the config they ran back as ``config.json`` in their
``--out`` directory, in the same schema with every value resolved, by the
JSON codec in `samo.core` that saved surrogates go through too.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .core import (
    ConfigurationError,
    SamoError,
    _cast,
    _encode,
    _file_keys,
    _file_values,
    _read_json,
    _reject_keys,
    _section,
)
from .driver import (
    SamoConfig,
    StudyConfig,
    StudyRow,
    format_float,
    point_header,
    read_run,
    sample_size_study,
    samo_run,
    write_csv,
)
from .problems import PROBLEM_BUILDERS, Problem

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of a config file; `problem_section` is its
    problem section resolved, every key with its default filled in."""

    problem: Problem
    problem_section: dict
    samo: SamoConfig
    study: StudyConfig

    @classmethod
    def from_dict(cls, raw) -> "RunConfig":
        """Every section read by `_file_values`. The study cells' configs are
        left to `samo study`, the one command that runs them."""
        raw = _section(raw, "config")
        _reject_keys(set(raw) - {"problem", "samo", "study"}, "unknown", "config")
        problem, section = _problem_from_config(raw.get("problem"))
        samo_cfg = SamoConfig(**_file_values(SamoConfig, raw.get("samo"), "samo"))
        study = StudyConfig(**_file_values(StudyConfig, raw.get("study"), "study"))
        if not study.surrogates:
            study = replace(study, surrogates=(samo_cfg.surrogate,))
        return cls(problem=problem, problem_section=section, samo=samo_cfg, study=study)

    def to_dict(self) -> dict:
        """This config in the schema `from_dict` reads, with every value
        given: the inverse of `from_dict`, which loads it back to the same values."""
        samo, study = _encode(self.samo), _encode(self.study)
        return {"problem": self.problem_section, "samo": samo, "study": study}

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_dict(_read_json(path, "config file"))


def _problem_from_config(section) -> tuple:
    """A problem from the file's problem section, read by the signature of
    the builder in `PROBLEM_BUILDERS` that its name selects, and the section
    resolved, every parameter given; a key left out or null keeps its default."""
    section = dict(_section(section, "problem"))
    name = section.pop("name", None)
    name = "mbs" if name is None else _cast(str, name, "problem.name")
    if name not in PROBLEM_BUILDERS:
        raise ConfigurationError(f"unknown problem {name!r}")
    build = PROBLEM_BUILDERS[name]
    args = {n: p.default for n, p in _file_keys(build).items()}
    args.update(_file_values(build, section, "problem"))
    return build(**args), {"name": name, **{n: _encode(v) for n, v in args.items()}}


def _configure(args) -> RunConfig:
    """The --config file of `samo run` or `samo study`, with --seed applied."""
    config = RunConfig.from_file(args.config)
    seed = config.samo.seed if args.seed is None else args.seed
    return replace(config, samo=replace(config.samo, seed=seed))


def _output_directory(text: str, config: RunConfig) -> Path:
    """The --out directory, created with its parents when missing, holding
    `config` as config.json."""
    out = Path(text)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a file on the way to it
        raise ConfigurationError(
            f"--out must name a directory, got {text}: {exc.strerror}"
        ) from exc
    (out / "config.json").write_text(json.dumps(config.to_dict(), indent=2))
    return out


def _point(text: str) -> np.ndarray:
    """The comma-separated coordinates of --x."""
    values = []
    for position, entry in enumerate(text.split(","), start=1):
        try:
            values.append(float(entry))
        except ValueError:
            raise ConfigurationError(
                f"--x entry {position} is not a number: {entry!r}"
            ) from None
    return np.array(values)


def cmd_run(args) -> int:
    config = _configure(args)
    out = _output_directory(args.out, config)
    record = samo_run(config.problem, config.samo, out, jobs=args.jobs, verbose=args.verbose)
    for r in record.rounds:
        h = "n/a" if r["hausdorff"] is None else format_float(r["hausdorff"])
        print(f"round {r['index']}: new={r['new_samples']} evaluations={r['dataset_size']} h={h}")
    status = "converged" if record.converged else "budget exhausted"
    if record.error:
        print(f"error: {record.error}", file=sys.stderr)
        return 1
    print(
        f"{status} after {len(record.rounds)} rounds, "
        f"{record.total_evaluations} expensive evaluations; artifacts in {out}"
    )
    return 0


def cmd_front(args) -> int:
    run_dir = Path(args.run_dir)
    try:
        point_sets = read_run(run_dir)
    except SamoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = [[j, kind, *x, *f] for j, kind, X, F in point_sets for x, f in zip(X, F)]
    _, _, X, F = point_sets[-1]
    out = Path(args.out) if args.out else run_dir / "combined.csv"
    write_csv(out, ["round", "kind", *point_header(X, F, "obj")], rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def cmd_study(args) -> int:
    config = _configure(args)
    cells = config.study.cells(config.samo)  # a bad cell fails before any evaluation
    out = _output_directory(args.out, config)
    rows = sample_size_study(config.problem, config.samo, config.study, jobs=args.jobs)
    header = [f.name for f in fields(StudyRow)]
    table = [
        ["" if v is None else int(v) if isinstance(v, bool) else v for v in astuple(r)]
        for r in rows
    ]
    write_csv(out / "study.csv", header, table)
    print(f"wrote {out / 'study.csv'} ({len(table)} rows)")
    if not rows:
        print(f"error: {len(cells)} of {len(cells)} study cells failed", file=sys.stderr)
        return 1
    return 0


def cmd_evaluate(args) -> int:
    problem = RunConfig.from_file(args.config).problem
    x = np.zeros(problem.n_dim) if args.x is None else _point(args.x)
    # NaN and the infinities fail the box comparison too
    if x.shape != (problem.n_dim,) or not problem.bounds.contains(x):
        raise ConfigurationError(f"--x must be a point of the problem's box, got {args.x}")
    y = problem.evaluate(x)
    print(",".join(format_float(v) for v in y))
    return 0


_JOBS_HELP = (
    "concurrent expensive evaluations, in threads, at least 1; no speedup for the "
    "built-in quarter-car, whose pure-Python integrator holds the GIL"
)


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1. argparse names it in the
    message for a value that is no integer."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    p_run.add_argument("--jobs", type=positive_int, default=1, help=_JOBS_HELP)
    p_run.set_defaults(func=cmd_run)

    p_front = sub.add_parser("front", help="combine run artifacts into one CSV")
    p_front.add_argument("run_dir", help="run directory written by `samo run`")
    p_front.add_argument("--out", default=None, help="output CSV path")
    p_front.set_defaults(func=cmd_front)

    p_study = sub.add_parser("study", help="sweep batch sizes and surrogate kinds")
    p_study.add_argument("--config", required=True, help="JSON config file with a study section")
    p_study.add_argument("--out", required=True, help="output directory")
    p_study.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_study.add_argument("--jobs", type=positive_int, default=1, help=_JOBS_HELP)
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
    # argparse enforces `command`; every subcommand sets func. A config
    # error, an unreadable config file included, a model that fails outside
    # the surrogate stages or an artifact that cannot be written ends any of
    # them with exit status 2. Every read raises ConfigurationError, so an
    # OSError that gets here is a write.
    try:
        return args.func(args)
    except SamoError as exc:
        reason = exc
    except OSError as exc:  # its own text repeats the path
        reason = f"cannot write {exc.filename}: {exc.strerror}" if exc.filename else exc
    print(f"error: {reason}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
