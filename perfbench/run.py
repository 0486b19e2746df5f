#!/usr/bin/env python3
"""Benchmark of the samo adaptive loop: sample, fit, optimize, check.

    python3 perfbench/run.py --workload qcar-mlp-nsga2 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One run loads the workload's frozen config with
``RunConfig.from_file``, calls ``samo_run`` on a fresh run directory and
checks the artifacts (see checks.py). Runs form a closed loop with one client
in this process, one after another: at least two, then more while the next
is expected to end within ``--seconds``. The last stdout line is one JSON
object: with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one more, traced run (see
tracing.py). ``--profile`` instead prints cProfile top-10 lists of the
evaluation and optimization phases. Metric names and units come from
BENCHMARK.json; METRICS.md describes each metric and the workloads.

End-to-end times are corrected for the speed of the shared host, sampled
during each run (see hostspeed.py); the times as measured are printed on a
``#`` line and kept in the report.

The samo master seed is part of each workload (samo's rounds, evaluations
and MGDA iterations all depend on it). ``--seed`` picks the archived samples
the scalar oracle re-evaluates.
"""

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import cProfile
import gc
import hashlib
import inspect
import io
import json
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
import hostspeed
from tracing import Tracer, instrumentation, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_RUNS = 2  # the second run of the same seed is the determinism check
SETUP_REPEATS = 11

# Reference points for final_hv are fixed literals, worse than every
# final-front point seen on these workloads. The qcar IGD reference is the
# non-dominated union of final fronts of seeds 1-6 (METRICS.md).
WORKLOADS = {
    "qcar-mlp-nsga2": {
        "config": "qcar-mlp-nsga2.json",
        "seed": 0,
        "hv_ref": (115.0, 0.30),
        "igd_ref": "qcar-reference-front.csv",
    },
    "paraboloid-rbf-nsga2": {
        "config": "paraboloid-rbf-nsga2.json",
        "seed": 7,
        "hv_ref": (5.0, 5.0),
        "igd_ref": None,
    },
    "paraboloid-rbf-mgda": {
        "config": "paraboloid-rbf-mgda.json",
        "seed": 7,
        "hv_ref": (5.0, 5.0),
        "igd_ref": None,
    },
}

# The child times the same reference loop as hostspeed.py right after the
# set-up, on whatever CPU it ran on, and prints the set-up time, then the loop
# times of 20 warm passes (the first pass, which warms the caches, is dropped). Nothing is imported before the set-up, so numpy's import is cold too.
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import samo\n"
    "from samo.cli import RunConfig\n"
    "RunConfig.from_file(sys.argv[1])\n"
    "elapsed = time.perf_counter() - t0\n"
    "import numpy as np\n"
    + inspect.getsource(hostspeed.reference_loop)
    + "loops = [reference_loop() for _ in range(21)][1:]\n"
    "print(elapsed, *loops)\n"
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


# -- environment ---------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "samo").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


# -- workload --------------------------------------------------------------------


def config_path(workload: str) -> Path:
    return HERE / "workloads" / WORKLOADS[workload]["config"]


def measure_setup(path: Path) -> tuple:
    """Seconds to import samo, load the config and build the Problem, each
    time in a fresh interpreter so the import is cold; one at a time.
    Returns the measured times and the times corrected for host speed (see
    hostspeed.py), sampled in the child right after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, corrected = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(path)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        elapsed, *loops = map(float, done.stdout.splitlines()[-1].split())
        times.append(elapsed)
        corrected.append(elapsed * hostspeed.correction(loops))
    return times, corrected


def igd_reference(workload: str, problem) -> np.ndarray:
    name = WORKLOADS[workload]["igd_ref"]
    if name is None:
        return problem.true_front(1000)
    _, _, matrix = checks.read_csv(HERE / "workloads" / name)
    return matrix


def one_run(problem, cfg, oracle, rng, scratch: Path, probe=None) -> dict:
    """One timed run and its checks. The run directory is left in place and
    named in the result; the caller removes it.

    `wall_s` is the measured wall time. With a SpeedProbe, `run_s` and the
    facts' `round_totals` are corrected for host speed (hostspeed.py), and
    `round_totals_measured` keeps the times from metrics.json.
    """
    import samo.driver

    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    gc.collect()  # garbage of the previous run is not collected inside this one
    with probe if probe is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            record = samo.driver.samo_run(problem, cfg, run_dir=run_dir, jobs=1)
            error = record.error
        except Exception:  # a run that raises is counted as failed; the loop goes on
            error = traceback.format_exc()
        wall = time.perf_counter() - start
    run_factor = probe.factor(start, start + wall) if probe is not None else None
    result = {
        "run_dir": run_dir,
        "wall_s": wall,
        "run_s": wall * (run_factor or 1.0),
        "failures": [],
        "facts": {},
    }
    if error is not None:
        result["failures"].append(f"run error: {error}")
        return result
    try:
        failures, facts = checks.check_run(run_dir, cfg.budget, cfg.batch_size, oracle, rng)
        facts["digest"] = checks.front_digest(run_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        failures, facts = [f"artifacts unreadable: {exc!r}"], {}
    result["failures"] += failures
    result["facts"] = facts
    if run_factor is not None and "round_totals" in facts:
        facts["round_totals_measured"] = facts["round_totals"]
        facts["round_totals"] = corrected_rounds(probe, start, facts["round_totals"], run_factor)
    return result


def corrected_rounds(probe, start: float, totals: list, run_factor: float) -> list:
    """Each round corrected by the samples inside it. Rounds follow one
    another from the start of the run; the small gaps between them (artifact
    writes) are ignored, so later rounds are placed a few ms early."""
    corrected = []
    for total in totals:
        corrected.append(total * (probe.factor(start, start + total) or run_factor))
        start += total
    return corrected


def check_determinism(runs: list) -> None:
    """Every run of the seed must reproduce the first run's fronts byte for
    byte; a run that does not is failed."""
    digests = [r["facts"].get("digest") for r in runs if "digest" in r["facts"]]
    for r in runs:
        digest = r["facts"].get("digest")
        if digest is not None and digest != digests[0]:
            r["failures"].append("fronts differ from the first run of the same seed")


def timed_runs(problem, cfg, oracle, rng, seconds: float, scratch: Path) -> list:
    """At least MIN_RUNS runs; after that, a further run only while it is
    expected (at the median run time so far) to end within `seconds`."""
    runs = []
    probe = hostspeed.SpeedProbe()
    start = time.perf_counter()
    while True:
        result = one_run(problem, cfg, oracle, rng, scratch, probe)
        shutil.rmtree(result.pop("run_dir"), ignore_errors=True)
        runs.append(result)
        log(
            f"run {len(runs)}: {result['wall_s']:.3f} s measured, {result['run_s']:.3f} s corrected,"
            f" failures={len(result['failures'])}"
        )
        if len(runs) < MIN_RUNS:
            continue
        if not result["facts"]:
            break  # runs that raise or leave no artifacts would only repeat
        expected_end = time.perf_counter() - start + median([r["wall_s"] for r in runs])
        if expected_end > seconds:
            break
    return runs


# -- metrics ---------------------------------------------------------------------


def per_round_medians(runs: list) -> list:
    """Each round's time: its median over the runs that reached it.

    Percentiles over rounds of these medians mean the same for any number of
    runs; percentiles of the pooled times would not (they pick a different
    order statistic of the slowest round for each run count).
    """
    depth = max(map(len, runs), default=0)
    return [median([r[i] for r in runs if len(r) > i]) for i in range(depth)]


def end_to_end(runs: list, setup: list, workload: str, problem) -> dict:
    from samo.driver import igd_normalized

    # runs that raised or left no front are counted in `failed`, not timed
    finished = [r for r in runs if "final_front" in r["facts"]]
    good = [r["facts"] for r in finished]
    run_s = median([r["run_s"] for r in finished])
    round_totals = per_round_medians([f["round_totals"] for f in good])
    evaluations = median([f["evaluations"] for f in good])
    spec = WORKLOADS[workload]
    reference = igd_reference(workload, problem)
    return {
        "setup_s": median(setup),
        "run_s": run_s,
        "round_p50_s": percentile(round_totals, 50),
        "round_p90_s": percentile(round_totals, 90),
        "evals_per_s": evaluations / run_s if run_s > 0 else 0.0,
        "evaluations": evaluations,
        "rounds": median([f["rounds"] for f in good]),
        "final_hv": median([checks.hypervolume_2d(f["final_front"], spec["hv_ref"]) for f in good]),
        "final_igd": median([igd_normalized(f["final_front"], reference) for f in good]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, traced: dict, untraced: list, artifacts: tuple) -> dict:
    spans = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return float(len(spans.get(name, ())))

    def seconds(prefix):
        return float(sum(d.sum() for n, d in spans.items() if n == prefix or n.startswith(prefix + ".")))

    def ms(name, q):
        d = spans.get(name)
        return float(np.percentile(d, q) * 1e3) if d is not None else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    good = [r["facts"] for r in untraced if "phases" in r["facts"]]
    metrics = {
        "problems.evaluate.calls": calls("problems.evaluate"),
        "problems.evaluate.s": seconds("problems.evaluate"),
        "problems.evaluate.p50_ms": ms("problems.evaluate", 50),
        "problems.evaluate.p90_ms": ms("problems.evaluate", 90),
        "driver.evaluate_batch.s": seconds("driver.evaluate_batch"),
        "moea.nsga2_run.s": seconds("moea.nsga2_run"),
        "moea.demoted": float(counts["moea.demoted"]),
        "moea.demoted_ratio": ratio(counts["moea.demoted"], counts["moea.objective_rows"]),
        "surrogate.predict_batch.rows": float(counts["surrogate.predict_batch.rows"]),
        "surrogate.fit_mlp.s": seconds("surrogate.fit_mlp"),
        "surrogate.fit_mlp.epochs": float(counts["surrogate.fit_mlp.epochs"]),
        "surrogate.select_rbf_width.s": seconds("surrogate.select_rbf_width"),
        "mgda.multistart_mgda.s": seconds("mgda.multistart_mgda"),
        "mgda.mgda_run.p50_ms": ms("mgda.mgda_run", 50),
        "mgda.mgda_run.p90_ms": ms("mgda.mgda_run", 90),
        "mgda.iterations": float(counts["mgda.iterations"]),
        "mgda.converged_ratio": ratio(counts["mgda.converged"], counts["mgda.starts"]),
        "sampling.pareto_informed_samples.s": seconds("sampling.pareto_informed_samples"),
        "sampling.kmeans.s": seconds("sampling.kmeans"),
        "core.Dataset.with_samples.s": seconds("core.Dataset.with_samples"),
        "core.non_dominated_filter.s": seconds("core.non_dominated_filter"),
        "core.hausdorff_distance.s": seconds("core.hausdorff_distance"),
        "driver.artifacts.s": seconds("driver.artifacts"),
        "driver.artifacts.bytes": float(artifacts[0]),
        "driver.artifacts.files": float(artifacts[1]),
        "cli.config_load.s": seconds("cli.config_load"),
        "cli.front.s": seconds("cli.front"),
        "trace.sites_missing": float(len(tracer.missing)),
        "tracing_overhead_s": traced["wall_s"] - median([r["wall_s"] for r in untraced]),
    }
    for name in (
        "moea.fast_non_dominated_sort",
        "moea.sbx_crossover",
        "moea.polynomial_mutation",
        "surrogate.predict",
        "surrogate.input_jacobian",
        "surrogate.fit_rbf",
        "sampling.latin_hypercube",
        "core.ParetoApproximation.from_arrays",
    ):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.s"] = seconds(name)
    for name in ("moea.crowding_distance", "moea.dominance_matrix"):
        metrics[f"{name}.s"] = seconds(name)
    metrics["surrogate.predict_batch.calls"] = calls("surrogate.predict_batch")
    metrics["mgda.mgda_run.calls"] = calls("mgda.mgda_run")
    for phase in ("sampling", "evaluation", "fit", "optimization"):
        metrics[f"driver.timings.{phase}_s"] = median([f["phases"][phase] for f in good])
    for layer, value in tracer.layer_self_seconds().items():
        metrics[f"{layer}.self_s"] = value
    return metrics


def traced_run(workload: str, seed_rng, untraced: list, scratch: Path) -> tuple:
    """One more run with every layer boundary recorded; returns the run's
    result, its per-layer metrics and the tracer."""
    import samo.cli

    tracer = Tracer()
    path = config_path(workload)
    with patched([tracer.site(samo.cli.RunConfig, "from_file", "cli.config_load")], tracer.missing):
        config = samo.cli.RunConfig.from_file(path)
    cfg = replace(config.samo, seed=WORKLOADS[workload]["seed"])
    sites, problem = instrumentation(tracer, config.problem)
    oracle = checks.scalar_oracle(config.problem)
    with patched(sites, tracer.missing):
        result = one_run(problem, cfg, oracle, seed_rng, scratch)
    run_dir = result.pop("run_dir")
    try:
        files = [p for p in run_dir.iterdir() if p.is_file()]
        artifacts = (sum(p.stat().st_size for p in files), len(files))
        with tracer.span("cli.front"), contextlib.redirect_stdout(io.StringIO()):
            front_status = samo.cli.main(["front", str(run_dir)])
        if front_status != 0:
            result["failures"].append(f"samo front exited with {front_status}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result, per_layer(tracer, result, untraced, artifacts), tracer


# -- profiling -------------------------------------------------------------------


def profile(workload: str, cfg, problem, scratch: Path) -> str:
    """cProfile top-10 (by own time) of the evaluation and optimization
    phases of one run. Never part of a timed run."""
    import samo.driver

    profilers = {"evaluation": cProfile.Profile(), "optimization": cProfile.Profile()}

    def under(phase):
        def make(original):
            def profiled(*args, **kwargs):
                profilers[phase].enable()
                try:
                    return original(*args, **kwargs)
                finally:
                    profilers[phase].disable()

            return profiled

        return make

    sites = [
        (samo.driver, "evaluate_batch", under("evaluation")),
        (samo.driver, "nsga2_run", under("optimization")),
        (samo.driver, "multistart_mgda", under("optimization")),
    ]
    run_dir = Path(tempfile.mkdtemp(prefix="profile-", dir=scratch))
    try:
        with patched(sites):
            samo.driver.samo_run(problem, cfg, run_dir=run_dir, jobs=1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    out = io.StringIO()
    for phase, prof in profilers.items():
        out.write(f"== {workload}: {phase} phase, top 10 by own time ==\n")
        pstats.Stats(prof, stream=out).strip_dirs().sort_stats("tottime").print_stats(10)
    return out.getvalue()


# -- entry point -----------------------------------------------------------------


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def emit(declared: list, values: dict) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: missing {missing}, extra {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="seeds the oracle's sample choice")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true", help="print cProfile top-10s only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "samo" / "__init__.py").is_file():
        log(f"error: no samo package under {SRC}; run from the root of a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import samo
    import samo.cli

    if Path(samo.__file__).resolve().parent != SRC / "samo":
        log(f"error: imported samo from {samo.__file__}, not from {SRC}")
        return 2
    OUT.mkdir(exist_ok=True)
    spec = WORKLOADS[args.workload]
    path = config_path(args.workload)
    config = samo.cli.RunConfig.from_file(path)
    cfg = replace(config.samo, seed=spec["seed"])
    problem = config.problem
    env = environment()
    config_sha = hashlib.sha256(path.read_bytes()).hexdigest()
    print(f"# workload {args.workload}: samo seed {cfg.seed}, config sha256 {config_sha}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))

    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as scratch:
        scratch = Path(scratch)
        if args.profile:
            report = profile(args.workload, cfg, problem, scratch)
            (OUT / f"profile-{args.workload}.txt").write_text(report)
            print(report)
            return 0

        rng = np.random.default_rng(args.seed)
        missing_sites = []
        oracle = checks.scalar_oracle(problem)
        setup_measured, setup = ([], []) if args.trace else measure_setup(path)
        runs = timed_runs(problem, cfg, oracle, rng, args.seconds, scratch)
        if args.trace:
            traced, values, tracer = traced_run(args.workload, rng, runs, scratch)
            attempted = runs + [traced]
            tracer.save(OUT / f"trace-{args.workload}.npz")
            missing_sites = tracer.missing
        else:
            values = end_to_end(runs, setup, args.workload, problem)
            attempted = runs
        check_determinism(attempted)

    failed = [r for r in attempted if r["failures"]]
    for i, r in enumerate(attempted):
        for failure in r["failures"]:
            log(f"run {i + 1} FAILED: {failure}")
    declared = declared_metrics(bool(args.trace))
    metrics = emit(declared, values)
    report = {
        "workload": args.workload,
        "samo_seed": cfg.seed,
        "seed": args.seed,
        "config": str(path.relative_to(ROOT)),
        "config_sha256": config_sha,
        "environment": env,
        "runs": [
            {
                "wall_s": r["wall_s"],
                "run_s": r["run_s"],
                "round_totals_measured": r["facts"].get("round_totals_measured"),
                "round_totals": r["facts"].get("round_totals"),
                "failures": r["failures"],
            }
            for r in attempted
        ],
        "setup_samples_s": setup_measured,
        "setup_samples_corrected_s": setup,
        "trace_sites_missing": missing_sites,
        "failed_frac": len(failed) / len(attempted),
        "metrics": metrics,
    }
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2)
    )
    print(f"{'failed_frac':<40} {report['failed_frac']:>14.6g} ratio   ({len(failed)} of {len(attempted)} runs)")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        measured = median([r["wall_s"] for r in runs if "final_front" in r["facts"]])
        print(
            f"# as measured, before the host-speed correction: run_s {measured:.6g} s,"
            f" setup_s {median(setup_measured):.6g} s"
        )
    if missing_sites:
        print(f"# not measured, trace sites gone from the code: {', '.join(missing_sites)}")
    result = {
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
