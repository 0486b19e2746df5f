#!/usr/bin/env python3
"""Time MGDA on the round-0 surrogate of `paraboloid-rbf-mgda`.

    python3 tools/mgda_iteration.py [--src DIR]

Builds the workload's round-0 RBF surrogate and its 60 Latin-hypercube
starts as `samo_run` does, then times `samo.mgda._descend` two ways:

- one iteration: from the first start alone and from all 60 for
  ITERATIONS iterations, with a tolerance no start reaches, so every
  iteration keeps every start moving. Prints the median over REPEATS runs
  of the time per iteration in microseconds, for each start count;
- the round-0 descent: from all 60 starts with the workload's own MGDA
  settings, to convergence or the iteration budget, as the run takes it.
  Prints the median wall time over REPEATS runs, then, from one more run
  with a counting model, the `input_jacobian_batch` calls by the number
  of starts still moving.

`--src` imports `samo` from another tree's `src` directory, so one script
measures two commits.
"""

import argparse
import statistics
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = ROOT / "perfbench" / "workloads" / "paraboloid-rbf-mgda.json"
ITERATIONS = 2000
REPEATS = 7
# active-start counts are tallied in these inclusive ranges
BINS = {"1": (1, 1), "2-5": (2, 5), "6-20": (6, 20), "21-60": (21, 60)}


class CountingModel:
    """The model, with its `input_jacobian_batch` calls tallied by rows."""

    def __init__(self, model):
        self.model = model
        self.rows = Counter()

    def input_jacobian_batch(self, X):
        self.rows[len(X)] += 1
        return self.model.input_jacobian_batch(X)


def timed(descend) -> tuple:
    """Median wall time of REPEATS calls of `descend()`, and its last result."""
    times = []
    for _ in range(REPEATS):
        began = time.perf_counter()
        result = descend()
        times.append(time.perf_counter() - began)
    return statistics.median(times), result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from samo.cli import RunConfig
    from samo.core import Dataset
    from samo.driver import _fit_surrogate, derive_seed
    from samo.mgda import _descend
    from samo.sampling import latin_hypercube

    run = RunConfig.from_file(WORKLOAD)
    cfg, bounds = run.samo, run.problem.bounds
    X = latin_hypercube(cfg.batch_size, bounds, derive_seed(cfg.seed, 0, 0))
    model = _fit_surrogate(Dataset().with_samples(X, run.problem.evaluate_batch(X)), cfg, 0)
    starts = latin_hypercube(cfg.population_size, bounds, derive_seed(cfg.seed, 2, 0))
    never = replace(cfg.mgda, max_iterations=ITERATIONS, tolerance=1e-300)
    for n_starts in (1, len(starts)):
        seconds, (_, converged, _, _) = timed(
            lambda: _descend(model, starts[:n_starts], bounds, never, False)
        )
        assert not converged.any(), "a start turned critical; the count of moving starts fell"
        print(f"{n_starts:3d} active starts: {seconds / ITERATIONS * 1e6:7.1f} us per iteration")

    seconds, (_, converged, iterations, _) = timed(
        lambda: _descend(model, starts, bounds, cfg.mgda, False)
    )
    print(
        f"round-0 descent: {seconds * 1e3:.1f} ms, {int(converged.sum())} of {len(starts)} "
        f"starts converged, the last at iteration {int(iterations.max())}"
    )
    counting = CountingModel(model)
    _descend(counting, starts, bounds, cfg.mgda, False)
    calls = {
        label: sum(n for rows, n in counting.rows.items() if lo <= rows <= hi)
        for label, (lo, hi) in BINS.items()
    }
    shown = ", ".join(f"{label}: {n}" for label, n in calls.items())
    print(f"  input_jacobian_batch calls by active starts: {shown}; {sum(calls.values())} in all")


if __name__ == "__main__":
    main()
