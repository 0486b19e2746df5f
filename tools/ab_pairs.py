#!/usr/bin/env python3
"""Benchmark a parent commit against the working tree in alternating pairs.

    python3 tools/ab_pairs.py --pr 19 --parent HEAD --pairs 10 --seconds 30 --trace 0
    python3 tools/ab_pairs.py --pr 19 --parent HEAD --pairs 1 --seconds 5 --trace 1

Extracts `git archive PARENT` into `parent/` of a temporary directory and
copies the working tree's files (tracked and untracked, not ignored, as they
are on disk) into `change/` beside it, so both sides start from a fresh
tree at the same depth with no bytecode cache. It runs
`perfbench/run.py --workload W --seconds S --trace T` in each, one side
after the other: the parent first in odd pairs, the working tree first in
even pairs. Each pair runs every workload of BENCHMARK.json, or those named
by --workload. The last stdout line of each run, its JSON report, goes into
BENCH_<pr>.json at the root of the repository with the side, the workload,
the pair and the sha256 of src/samo/*.py read in name order. The file is
rewritten after every run, through a temporary file and `os.replace`. A
file measured against the same parent commit is extended, so a second
invocation (a traced pair, say) adds its runs to the first. SIGTERM and
SIGINT stop the run in progress and remove the temporary directory.

At the end it prints, per workload and metric, each side's median and
quartiles over every run in the file with this invocation's --seconds and
--trace, and the number of pairs in which the working tree did better (ties
count for neither side).
"""

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def copy_working_tree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored files to
    `dest`; tracked files deleted from the working tree are left out."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode()
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def side_trees(scratch: Path, sha: str) -> dict:
    """The two sides under `scratch`: `parent/` holding `git archive SHA`
    and `change/` a copy of the working tree."""
    trees = {side: scratch / side for side in SIDES}
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
        tar.extractall(trees["parent"], filter="data")
    copy_working_tree(trees["change"])
    return trees


def write_atomically(path: Path, text: str) -> None:
    """Write `text` to `path` through a file beside it, so a stop midway
    leaves the previous file whole."""
    part = path.with_name(path.name + ".part")
    try:
        part.write_text(text)
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


def stop(signum, frame) -> None:
    """Leave through the `finally` blocks and context managers in progress."""
    raise SystemExit(128 + signum)


def src_sha256(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "samo").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_once(tree: Path, workload: str, seconds: float, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    command += ["--seconds", f"{seconds:g}", "--trace", str(trace)]
    out = subprocess.run(command, cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(runs: list, better: dict) -> None:
    """Median, quartiles and the change's wins for every metric of `runs`."""
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["run"], {})[r["side"]] = r["report"]
        pairs = [p for p in pairs.values() if set(p) == set(SIDES)]
        print(f"{workload}: {len(pairs)} pairs")
        for name in pairs[0]["change"]["metrics"] if pairs else ():
            values = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
            sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            shown = [
                "{} {:.6g} [{:.6g}, {:.6g}]".format(s, *np.percentile(values[s], [50, 25, 75]))
                for s in SIDES
            ]
            print(f"  {name:<40} {' | '.join(shown)} | change better in {wins} of {len(pairs)}")
        wrong = [p[s]["correct"] for p in pairs for s in SIDES].count(False)
        if wrong:
            print(f"  {wrong} runs failed their checks")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", required=True, type=int, help="writes BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, stop)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sha = git("rev-parse", args.parent).decode().strip()
    named = "|".join(args.workload) if args.workload else "<workload>"
    command = (
        f"python3 perfbench/run.py --workload {named} --seconds {args.seconds:g} "
        f"--trace {args.trace} ({args.pairs} pairs)"
    )
    out = ROOT / f"BENCH_{args.pr}.json"
    record = json.loads(out.read_text()) if out.exists() else {}
    if record.get("parent_git_sha") == sha:
        record["command"] = f"{record['command'].split('; parent and change')[0]}, then {command}"
    else:
        host = (
            f"{os.cpu_count()} CPUs, Python {platform.python_version()}, numpy {np.__version__}, "
            f"1 BLAS thread, {platform.machine()}"
        )
        record = {"host": host, "parent_git_sha": sha, "command": command, "runs": []}
    record["command"] += (
        "; parent and change run alternately, the parent first in odd pairs and the change"
        " first in even pairs; src_sha256 hashes src/samo/*.py in name order"
    )

    settings = f"--seconds {args.seconds:g} --trace {args.trace}"
    # pairs run before with these settings keep their numbers; new ones follow
    alike = [r for r in record["runs"] if r["run"].split(", ", 1)[1] == settings]
    done = len({r["run"] for r in alike})
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as scratch:
        trees = side_trees(Path(scratch), sha)
        hashes = {side: src_sha256(tree) for side, tree in trees.items()}
        for pair in range(done + 1, done + args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            label = f"pair {pair}, {settings}"
            for workload in workloads:
                for side in order:
                    report = run_once(trees[side], workload, args.seconds, args.trace)
                    run = {"side": side, "workload": workload, "run": label}
                    alike.append({**run, "src_sha256": hashes[side], "report": report})
                    record["runs"].append(alike[-1])
                    write_atomically(out, json.dumps(record, indent=1) + "\n")
                    print(f"# {label}: {workload} {side} done", file=sys.stderr, flush=True)
    summary(alike, better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
