"""Span tracing for the benchmark's traced run.

Spans are recorded from outside the package: each public function of a
layer is replaced, for the length of one run, at the place its name is looked
up (``samo.driver.nsga2_run``, ``samo.moea.sbx_crossover``, a model class's
``predict``...). A span is (name, start, end, parent); the span name's first
component is the layer. Counts that a span cannot express (rows predicted,
MGDA iterations, demoted individuals) are taken at the same boundaries.
Everything is kept in memory and written out once the run is over.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("core", "problems", "surrogate", "moea", "mgda", "sampling", "driver", "cli")


@contextmanager
def patched(replacements, missing=None):
    """Install `make(original)` at each (owner, attr) for the length of the
    block and restore the originals afterwards.

    `owner` is a module or a class; a classmethod is unwrapped and rewrapped.
    A site that no longer exists is skipped and its name appended to
    `missing`. The traced run goes on; the caller reports the gap
    (trace.sites_missing), so a metric of a vanished site does not read as a
    measured 0.
    """
    done = []
    try:
        for owner, attr, make in replacements:
            original = vars(owner).get(attr)
            if original is None:
                if missing is not None:
                    missing.append(f"{owner.__name__}.{attr}")
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(make(original.__func__))
            else:
                replacement = make(original)
            setattr(owner, attr, replacement)
            done.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(done):
            setattr(owner, attr, original)


class Tracer:
    """In-memory span and count recorder for one traced run."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counts: Counter = Counter()
        self.missing: list = []
        self._stack = [-1]

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float) -> None:
        self.ends[index] = time.perf_counter()
        self.starts[index] = start
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start)

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(counts, args, result)`
        adds counts from the call's arguments and result."""
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start)
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def site(self, owner, attr, name, after=None, around=None):
        """A `patched` replacement recording span `name` at owner.attr;
        `around(original)` may first adapt the original's arguments."""

        def make(original):
            inner = around(original) if around is not None else original
            return self.wrap(name, inner, after)

        return owner, attr, make

    # -- analysis -----------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        parents = np.asarray(self.parents, dtype=np.int64)
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def by_name(self) -> dict:
        """name -> array of that name's span durations."""
        dur = self.durations()
        groups: dict = {}
        for i, name in enumerate(self.names):
            groups.setdefault(name, []).append(i)
        return {name: dur[idx] for name, idx in groups.items()}

    def layer_self_seconds(self) -> dict:
        own = self.self_times()
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, value in zip(self.names, own):
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += float(value)
        return totals

    def save(self, path) -> None:
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        np.savez_compressed(
            path,
            names=np.array(table),
            name_id=np.array([ids[n] for n in self.names], dtype=np.int32),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
            parent=np.asarray(self.parents, dtype=np.int64),
        )


def _rows(counts, args, result) -> None:
    counts["surrogate.predict_batch.rows"] += int(np.shape(result)[0])


def _epochs(counts, args, result) -> None:
    counts["surrogate.fit_mlp.epochs"] += len(result.train_history)


def _mgda_start(counts, args, result) -> None:
    counts["mgda.starts"] += 1
    counts["mgda.iterations"] += int(result.iterations)
    counts["mgda.converged"] += int(bool(result.converged))


def _counting_objective(counts):
    """nsga2_run adapter that counts the objective rows NSGA-II sees and how
    many of them are non-finite (and so demoted to the worst rank)."""

    def around(original):
        def nsga2_run(objective, *args, **kwargs):
            def counted(x):
                y = objective(x)
                rows = np.atleast_2d(np.asarray(y, dtype=float))
                counts["moea.objective_rows"] += rows.shape[0]
                counts["moea.demoted"] += int((~np.isfinite(rows).all(axis=1)).sum())
                return y

            return original(counted, *args, **kwargs)

        return nsga2_run

    return around


def instrumentation(tracer: Tracer, problem):
    """The (owner, attr, make) sites the traced run patches, and the Problem
    it runs on."""
    import samo.core
    import samo.driver
    import samo.mgda
    import samo.moea
    import samo.problems
    import samo.sampling
    import samo.surrogate

    t = tracer
    drv, moea, mgda = samo.driver, samo.moea, samo.mgda
    sites = [
        t.site(drv, "samo_run", "driver.samo_run"),
        t.site(drv, "evaluate_batch", "driver.evaluate_batch"),
        t.site(drv, "check_convergence", "driver.check_convergence"),
        t.site(drv, "nsga2_run", "moea.nsga2_run", around=_counting_objective(t.counts)),
        t.site(drv, "fit_mlp", "surrogate.fit_mlp", after=_epochs),
        t.site(drv, "select_rbf_width", "surrogate.select_rbf_width"),
        t.site(drv, "fit_rbf", "surrogate.fit_rbf"),
        t.site(samo.surrogate, "fit_rbf", "surrogate.fit_rbf"),
        t.site(drv, "multistart_mgda", "mgda.multistart_mgda"),
        t.site(mgda, "mgda_run", "mgda.mgda_run", after=_mgda_start),
        t.site(drv, "pareto_informed_samples", "sampling.pareto_informed_samples"),
        t.site(samo.sampling, "kmeans", "sampling.kmeans"),
        t.site(samo.core.Dataset, "with_samples", "core.Dataset.with_samples"),
        t.site(samo.core.ParetoApproximation, "from_arrays", "core.ParetoApproximation.from_arrays"),
        t.site(drv, "hausdorff_distance", "core.hausdorff_distance"),
    ]
    for module in (drv, moea, mgda):
        sites.append(t.site(module, "latin_hypercube", "sampling.latin_hypercube"))
    for module in (drv, mgda, samo.core):
        sites.append(t.site(module, "non_dominated_filter", "core.non_dominated_filter"))
    for fn in (
        "fast_non_dominated_sort",
        "crowding_distance",
        "sbx_crossover",
        "polynomial_mutation",
        "dominance_matrix",
    ):
        sites.append(t.site(moea, fn, f"moea.{fn}"))
    for cls in (samo.surrogate.RbfModel, samo.surrogate.MlpModel):
        sites.append(t.site(cls, "predict", "surrogate.predict"))
        sites.append(t.site(cls, "predict_batch", "surrogate.predict_batch", after=_rows))
        sites.append(t.site(cls, "input_jacobian", "surrogate.input_jacobian"))
    writer = samo.driver.RunDirectoryWriter
    for attr in sorted(vars(writer)):
        if attr.startswith("write_"):
            sites.append(t.site(writer, attr, f"driver.artifacts.{attr}"))
    # The quarter-car evaluator is a callable object whose type samo.driver
    # inspects, so its class's __call__ is patched; an analytic problem holds
    # a plain function, replaced in a copy of the Problem.
    evaluator = type(problem.evaluate)
    if evaluator.__module__ == samo.problems.__name__ and "__call__" in vars(evaluator):
        sites.append(t.site(evaluator, "__call__", "problems.evaluate"))
    else:
        problem = dataclasses.replace(
            problem, evaluate=t.wrap("problems.evaluate", problem.evaluate)
        )
    return sites, problem
