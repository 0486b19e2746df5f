#!/usr/bin/env python3
"""Time one MGDA iteration on the round-0 surrogate of `paraboloid-rbf-mgda`.

    python3 tools/mgda_iteration.py [--src DIR]

Builds the workload's round-0 RBF surrogate and its 60 Latin-hypercube
starts as `samo_run` does, then runs `samo.mgda._descend` from the first
start alone and from all 60 for ITERATIONS iterations, with a tolerance no
start reaches, so every iteration keeps every start moving. Prints the
median over REPEATS runs of the time per iteration in microseconds, for
each start count. `--src` imports `samo` from another
tree's `src` directory, so one script measures two commits.
"""

import argparse
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = ROOT / "perfbench" / "workloads" / "paraboloid-rbf-mgda.json"
ITERATIONS = 2000
REPEATS = 7


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
    mgda = replace(cfg.mgda, max_iterations=ITERATIONS, tolerance=1e-300)
    for n_starts in (1, len(starts)):
        per_iteration = []
        for _ in range(REPEATS):
            began = time.perf_counter()
            _, converged, _, _ = _descend(model, starts[:n_starts], bounds, mgda, False)
            per_iteration.append((time.perf_counter() - began) / ITERATIONS)
            assert not converged.any(), "a start turned critical; the count of moving starts fell"
        print(f"{n_starts:3d} active starts: {statistics.median(per_iteration) * 1e6:7.1f} us per iteration")


if __name__ == "__main__":
    main()
