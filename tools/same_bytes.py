#!/usr/bin/env python3
"""Check that the working tree writes the same run directories as a commit.

    python3 tools/same_bytes.py [--parent REF]

Extracts `git archive REF` (default HEAD) and a copy of the working tree
side by side, as `tools/ab_pairs.py` does, and in each runs
`samo_run(..., verbose=True)` on every config in `perfbench/workloads`, at
the workload's benchmark seed (the `WORKLOADS` table of
`perfbench/run.py`). It then compares the two run directories of each
workload file by file: every file byte for byte, except `metrics.json`,
whose JSON text is compared with every `timings` block removed, key order
included. Prints each workload's file counts and every file that differs or
is missing on one side, and exits 1 on any difference. SIGTERM and SIGINT
remove the temporary directory.
"""

import argparse
import ast
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_pairs import ROOT, SIDES, git, side_trees, stop

WORKLOADS = ROOT / "perfbench" / "workloads"
RUN = """
import sys
from dataclasses import replace
from samo.cli import RunConfig
from samo.driver import samo_run

config = RunConfig.from_file(sys.argv[1])
samo_run(config.problem, replace(config.samo, seed=int(sys.argv[3])), sys.argv[2], verbose=True)
"""


def benchmark_seeds() -> dict:
    """The samo seed of every workload, read from `perfbench/run.py`."""
    module = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    table = next(
        node.value for node in module.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WORKLOADS"
    )
    return {name: spec["seed"] for name, spec in ast.literal_eval(table).items()}


def untimed(text: str) -> str:
    """The JSON text of a metrics.json without any `timings` entry."""

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "timings"}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return json.dumps(strip(json.loads(text)), indent=2)


def differing(parent: Path, change: Path) -> list:
    """The names of the files of two run directories that differ or exist
    on one side only."""
    names = {p.relative_to(d).as_posix() for d in (parent, change) for p in d.rglob("*") if p.is_file()}
    found = []
    for name in sorted(names):
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            found.append(f"{name} (only in {'parent' if a.is_file() else 'change'})")
        elif name == "metrics.json":
            if untimed(a.read_text()) != untimed(b.read_text()):
                found.append(name)
        elif a.read_bytes() != b.read_bytes():
            found.append(name)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git ref of the parent side")
    args = parser.parse_args(argv)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, stop)

    sha = git("rev-parse", args.parent).decode().strip()
    seeds = benchmark_seeds()
    configs = sorted(WORKLOADS.glob("*.json"))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    failed = False
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as scratch:
        trees = side_trees(Path(scratch), sha)
        print(f"parent {sha[:12]} against the working tree")
        for config in configs:
            runs = {side: Path(scratch) / "runs" / side / config.stem for side in SIDES}
            for side, tree in trees.items():
                own = tree / "perfbench" / "workloads" / config.name
                command = [sys.executable, "-c", RUN, str(own), str(runs[side]), str(seeds[config.stem])]
                subprocess.run(command, cwd=tree, env={**env, "PYTHONPATH": str(tree / "src")}, check=True)
            counts = {side: sum(p.is_file() for p in run.rglob("*")) for side, run in runs.items()}
            found = differing(runs["parent"], runs["change"])
            failed = failed or bool(found)
            print(
                f"{config.stem} (seed {seeds[config.stem]}): parent {counts['parent']} files, "
                f"change {counts['change']} files, {len(found) or 'none'} differing"
            )
            for name in found:
                print(f"  differs: {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
