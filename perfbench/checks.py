"""Correctness checks on a finished run directory, and the front-quality
indicators computed from it.

The checks read only the artifacts and use their own dominance test, so a
defect in the package's filtering cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

ORACLE_SAMPLES = 2
ORACLE_RTOL = 1e-12


def read_csv(path: Path):
    """(header, row strings, float matrix) of an artifact CSV."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = lines[1:]
    matrix = np.array([[float(v) for v in row.split(",")] for row in rows], dtype=float)
    return header, rows, matrix.reshape(len(rows), len(header))


def _columns(header, prefix: str) -> list:
    return [i for i, name in enumerate(header) if name.startswith(prefix)]


def non_dominated_mask(F: np.ndarray) -> np.ndarray:
    """True for rows no other row dominates (minimization)."""
    le = (F[:, None, :] <= F[None, :, :]).all(axis=2)
    lt = (F[:, None, :] < F[None, :, :]).any(axis=2)
    return ~(le & lt).any(axis=0)


def hypervolume_2d(F: np.ndarray, ref) -> float:
    """Area dominated by the 2-objective set F and bounded by `ref`."""
    ref = np.asarray(ref, dtype=float)
    P = F[(F < ref).all(axis=1)]
    P = P[np.lexsort((P[:, 1], P[:, 0]))]
    area, ceiling = 0.0, ref[1]
    for f0, f1 in P:
        if f1 < ceiling:
            area += (ref[0] - f0) * (ceiling - f1)
            ceiling = f1
    return float(area)


def scalar_oracle(problem):
    """Reference evaluation of one design: the scalar quarter-car path
    (simulate, then amplitude over the second half) for the benchmark
    problem, the problem's own function for analytic problems."""
    from samo.problems import QuarterCarEvaluator, amplitude, simulate_quarter_car

    ev = problem.evaluate
    if not isinstance(ev, QuarterCarEvaluator):
        return ev

    def oracle(x):
        traj = simulate_quarter_car(ev.params_for(x), ev.excitation, ev.t0, ev.te, ev.dt)
        half = slice(len(traj) // 2, None)
        return np.array(
            [amplitude(traj.wheel_load, half), amplitude(traj.body_acceleration, half)]
        )

    return oracle


def front_digest(run_dir: Path) -> str:
    """sha256 over the bytes of every front_round_*.csv and final_front.csv."""
    h = hashlib.sha256()
    for path in sorted(run_dir.glob("front_round_*.csv")) + [run_dir / "final_front.csv"]:
        h.update(path.name.encode())
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def _round_index(path: Path) -> int:
    return int(path.stem.rsplit("_", 1)[1])


def check_run(run_dir: Path, budget: int, batch_size: int, oracle, rng) -> tuple:
    """(failures, facts) for one run directory.

    `failures` lists every check that did not hold; `facts` carries what the
    metrics are computed from (round timings, counts, the final front).
    """
    failures = []
    facts: dict = {}
    try:
        metrics = json.loads((run_dir / "metrics.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"metrics.json unreadable: {exc}"], facts
    if "schema_version" not in metrics:
        failures.append("metrics.json has no schema_version")
    rounds = metrics.get("rounds", [])
    facts["rounds"] = len(rounds)
    facts["round_totals"] = [r["timings"]["total"] for r in rounds]
    facts["phases"] = {
        phase: sum(r["timings"].get(phase, 0.0) for r in rounds)
        for phase in ("sampling", "evaluation", "fit", "optimization")
    }

    sample_files = sorted(run_dir.glob("samples_round_*.csv"), key=_round_index)
    rows, blocks = [], []
    header = None
    for path in sample_files:
        header, file_rows, block = read_csv(path)
        rows += file_rows
        blocks.append(block)
    if not rows:
        return failures + ["no samples_round_*.csv rows"], facts
    samples = np.vstack(blocks)
    xcols, fcols = _columns(header, "x"), _columns(header, "f")
    evaluations = len(rows)
    facts["evaluations"] = evaluations
    if metrics.get("total_evaluations") != evaluations:
        failures.append(
            f"metrics.json counts {metrics.get('total_evaluations')} evaluations, "
            f"samples hold {evaluations}"
        )
    if evaluations > budget + batch_size:
        failures.append(f"{evaluations} evaluations exceed budget + batch_size")

    final_path = run_dir / "final_front.csv"
    if not final_path.exists():
        return failures + ["final_front.csv missing"], facts
    final_header, final_rows, final = read_csv(final_path)
    F = final[:, _columns(final_header, "f")]
    facts["final_front"] = F
    if not non_dominated_mask(F).all():
        failures.append("final_front.csv is not mutually non-dominated")
    keep = np.flatnonzero(non_dominated_mask(samples[:, fcols]))
    if final_rows != [rows[i] for i in keep]:
        failures.append("final_front.csv differs from the non-dominated samples")

    for i in rng.choice(evaluations, size=min(ORACLE_SAMPLES, evaluations), replace=False):
        expected = np.asarray(oracle(samples[i, xcols]), dtype=float)
        archived = samples[i, fcols]
        if not np.all(np.abs(archived - expected) <= ORACLE_RTOL * np.abs(expected)):
            failures.append(f"sample {i} differs from the scalar oracle: {archived} vs {expected}")
    return failures, facts
