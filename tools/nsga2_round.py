#!/usr/bin/env python3
"""Time the round-0 NSGA-II of `paraboloid-rbf-nsga2` and `qcar-mlp-nsga2`.

    python3 tools/nsga2_round.py [--src DIR]

Builds each workload's round-0 surrogate as `samo_run` does (its Latin
hypercube batch, the expensive evaluations, the fit), then runs the
round's `nsga2_run` on it, with the workload's own population, generations
and seed, once untimed and then REPEATS times. Prints the median and
quartiles of the timed runs and the size of the final front, which is the
same on every run.

`--src` imports `samo` from another tree's `src` directory, so one script
measures two commits. Whole runs (`run_s`) differ by a few percent between
processes; alternating runs of this script on the two trees resolve the
optimizer layer alone.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paraboloid-rbf-nsga2", "qcar-mlp-nsga2")
REPEATS = 15


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from samo.cli import RunConfig
    from samo.core import Dataset
    from samo.driver import _fit_surrogate, _optimize_surrogate, derive_seed
    from samo.sampling import latin_hypercube

    for name in WORKLOADS:
        run = RunConfig.from_file(ROOT / "perfbench" / "workloads" / f"{name}.json")
        cfg, bounds = run.samo, run.problem.bounds
        X = latin_hypercube(cfg.batch_size, bounds, derive_seed(cfg.seed, 0, 0))
        model = _fit_surrogate(Dataset().with_samples(X, run.problem.evaluate_batch(X)), cfg, 0)
        _optimize_surrogate(model, bounds, cfg, 0, {})  # warm-up, untimed
        times = []
        for _ in range(REPEATS):
            began = time.perf_counter()
            front = _optimize_surrogate(model, bounds, cfg, 0, {})
            times.append(time.perf_counter() - began)
        q1, median, q3 = statistics.quantiles(times, n=4)
        print(
            f"{name}: round-0 nsga2_run median {median * 1e3:.1f} ms "
            f"(quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f}) over {REPEATS} runs, "
            f"{cfg.population_size} x {cfg.moea.generations}, final front {len(front)}"
        )


if __name__ == "__main__":
    main()
