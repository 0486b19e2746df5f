import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
import samo.core
import samo.driver
import samo.surrogate
from oracles import dominates
from samo.cli import RunConfig, main
from samo.core import ConfigurationError, SamoError
from samo.driver import (
    RunDirectoryWriter,
    RunRecord,
    SamoConfig,
    StudyConfig,
    check_convergence,
    derive_seed,
    format_float,
    igd_normalized,
    read_points,
    read_run,
    _fit_surrogate,
    sample_size_study,
    samo_run,
)
from samo.mgda import MgdaConfig, mgda_run
from samo.moea import MoeaConfig
from samo.problems import (
    Horizon,
    QuarterCarEvaluator,
    make_analytic_problem,
    make_quarter_car_problem,
)
from samo.sampling import latin_hypercube
from samo.surrogate import (
    DEFAULT_SIGMA_GRID,
    RbfConfig,
    RbfModel,
    TrainConfig,
    fit_rbf,
    load_model,
    save_model,
)

CHEAP = make_analytic_problem("two-paraboloids")
CONFIGS = Path(__file__).parent.parent / "configs"
CHEAP_DEMO = CONFIGS / "cheap_demo.json"


def small_cfg(**overrides) -> SamoConfig:
    base = dict(
        budget=10,
        batch_size=5,
        h_min=1e-6,
        surrogate="rbf",
        optimizer="nsga2",
        population_size=16,
        moea=MoeaConfig(generations=10),
        train=TrainConfig(epochs=60, patience=60),
        seed=11,
    )
    base.update(overrides)
    return SamoConfig(**base)


class TestConfigValidation:
    def test_population_size_checked_by_selected_optimizer(self):
        with pytest.raises(ConfigurationError, match="population_size must be even and at least 2"):
            SamoConfig(population_size=61, optimizer="nsga2")
        cfg = SamoConfig(population_size=61, optimizer="mgda-multistart")
        assert cfg.population_size == 61 and cfg.mgda == MgdaConfig()

    def test_batch_larger_than_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            SamoConfig(budget=10, batch_size=20)

    def test_h_min_positive(self):
        with pytest.raises(ConfigurationError):
            SamoConfig(h_min=0.0)
        # no distance is below NaN, so such a run could only stop on its budget
        with pytest.raises(ConfigurationError, match="h_min must be strictly positive"):
            SamoConfig(h_min=float("nan"))

    @pytest.mark.parametrize(
        "kind, grid, fraction, least",
        [
            pytest.param("mlp", DEFAULT_SIGMA_GRID, 0.2, 5, id="mlp-None-5"),
            # 10 samples split at 0.95 hold out all 10, 11 keep one to train on
            pytest.param("mlp", DEFAULT_SIGMA_GRID, 0.95, 11, id="mlp-validation_fraction0.95-11"),
            pytest.param("rbf", DEFAULT_SIGMA_GRID, 0.2, 2, id="rbf-None-2"),
            pytest.param("rbf", (0.5,), 0.2, 2, id="rbf-0.5-2"),
        ],
    )
    def test_batch_size_at_least_what_round_0_fits_on(self, kind, grid, fraction, least):
        train = TrainConfig(epochs=60, patience=60, validation_fraction=fraction)
        with pytest.raises(ConfigurationError, match=f"^batch_size must be at least {least} "):
            small_cfg(surrogate=kind, rbf=RbfConfig(grid=grid), train=train, batch_size=least - 1)
        cfg = small_cfg(
            surrogate=kind, rbf=RbfConfig(grid=grid), train=train, batch_size=least, budget=least
        )
        record = samo_run(CHEAP, cfg)
        assert record.error is None and record.rounds[0]["dataset_size"] == least

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ConfigurationError):
            SamoConfig(surrogate="kriging")
        with pytest.raises(ConfigurationError):
            SamoConfig(optimizer="spea2")


class TestCheckConvergence:
    def test_identical_fronts(self):
        front = np.array([[0.0, 1.0], [1.0, 0.0]])
        converged, h = check_convergence(front, front, h_min=1e-9)
        assert converged and h == 0.0

    def test_separated_fronts(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[5.0, 0.0]])
        converged, h = check_convergence(a, b, h_min=2.0)
        assert not converged and h == 5.0

    def test_paper_default_threshold_shipped(self):
        assert SamoConfig().h_min == 2.0


class TestLoopArithmetic:
    def test_infinite_threshold_stops_after_two_rounds(self):
        record = samo_run(CHEAP, small_cfg(h_min=math.inf))
        assert record.converged
        assert len(record.rounds) == 2

    def test_batch_equals_budget_two_rounds_max(self):
        record = samo_run(CHEAP, small_cfg(budget=5, batch_size=5))
        assert len(record.rounds) <= 2
        assert record.total_evaluations <= 10

    def test_budget_accounting_with_truncation(self):
        # budget 12, batch 5: informed batches 5, 5, 2
        record = samo_run(CHEAP, small_cfg(budget=12, batch_size=5))
        batches = [r["new_samples"] for r in record.rounds]
        assert batches[0] == 5
        assert sum(batches[1:]) <= 12
        if not record.converged:
            assert batches[1:] == [5, 5, 2]
        assert record.total_evaluations <= 12 + 5

    @pytest.mark.parametrize(
        "budget, batches",
        [(40, [10, 10, 10, 10, 10]), (35, [10, 10, 10, 10, 5]), (12, [10, 10, 2])],
    )
    def test_cheap_demo_rounds_from_the_record(self, budget, batches):
        # the round index, the budget left and the previous front come from
        # the run record alone; cheap_demo stops on the budget, never converged
        config = RunConfig.from_file(CHEAP_DEMO)
        record = samo_run(config.problem, replace(config.samo, budget=budget))
        assert not record.converged and record.error is None
        assert [r["index"] for r in record.rounds] == list(range(len(batches)))
        assert [r["new_samples"] for r in record.rounds] == batches
        assert [r["dataset_size"] for r in record.rounds] == np.cumsum(batches).tolist()
        assert record.total_evaluations == budget + config.samo.batch_size

    def test_round_indices_and_origins(self):
        record = samo_run(CHEAP, small_cfg())
        assert record.rounds[0]["origin"] == "latin-hypercube"
        for r in record.rounds[1:]:
            assert r["origin"] == "pareto-informed"
        assert [r["index"] for r in record.rounds] == list(range(len(record.rounds)))


@pytest.fixture(scope="module")
def record() -> RunRecord:
    return samo_run(CHEAP, small_cfg(budget=15, batch_size=5))


class TestRunRecordInvariants:

    def test_eval_accounting(self, record):
        assert record.total_evaluations == sum(r["new_samples"] for r in record.rounds)
        assert record.total_evaluations <= 15 + 5

    def test_fronts_mutually_non_dominated(self, record):
        for pareto in record.fronts:
            front = pareto.F
            for i in range(len(front)):
                for j in range(len(front)):
                    if i != j:
                        assert not dominates(front[i], front[j])

    def test_final_front_not_dominated_by_first_round_samples(self, record):
        first_round = record.dataset.Y[: record.rounds[0]["dataset_size"]]
        for member in record.final_front:
            assert not any(dominates(y, member) for y in first_round)

    def test_h_values_recorded_from_second_round(self, record):
        assert record.rounds[0]["hausdorff"] is None
        for r in record.rounds[1:]:
            assert r["hausdorff"] is not None and r["hausdorff"] >= 0.0


class TestDeterminism:
    def test_identical_records_and_artifacts(self, tmp_path):
        cfg = small_cfg(budget=10, batch_size=5, seed=123)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        rec_a = samo_run(CHEAP, cfg, run_dir=dir_a)
        rec_b = samo_run(CHEAP, cfg, run_dir=dir_b)
        assert rec_a.total_evaluations == rec_b.total_evaluations
        assert np.array_equal(rec_a.final_front, rec_b.final_front)
        for name in sorted(p.name for p in dir_a.glob("*.csv")):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_jobs_do_not_change_results(self, tmp_path):
        cfg = small_cfg(seed=9)
        rec_1 = samo_run(CHEAP, cfg, jobs=1)
        rec_4 = samo_run(CHEAP, cfg, jobs=4)
        assert np.array_equal(rec_1.final_front, rec_4.final_front)

    def test_derive_seed_stable(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


class TestArtifacts:
    def test_run_directory_contents(self, tmp_path):
        run_dir = tmp_path / "run"
        record = samo_run(CHEAP, small_cfg(), run_dir=run_dir)
        rounds = len(record.rounds)
        assert not (run_dir / "config.json").exists()  # samo_run writes no config file
        assert (run_dir / "metrics.json").exists()
        assert (run_dir / "final_front.csv").exists()
        for j in range(rounds):
            assert (run_dir / f"samples_round_{j}.csv").exists()
            assert (run_dir / f"front_round_{j}.csv").exists()
            assert (run_dir / f"surrogate_round_{j}.json").exists()
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["schema_version"] == 2
        assert metrics["total_evaluations"] == record.total_evaluations
        assert len(metrics["rounds"]) == rounds
        assert [r["optimizer"] for r in metrics["rounds"]] == [{"demoted": 0}] * rounds
        assert "failed_round" not in metrics
        # perfbench/checks.py sums the round timings by these stage names
        stages = ["sampling", "evaluation", "fit", "optimization", "total"]
        assert [list(r["timings"]) for r in metrics["rounds"]] == [stages] * rounds
        distances = [r["hausdorff"] for r in record.rounds[1:]]
        assert metrics["h_values"] == distances == [r["hausdorff"] for r in metrics["rounds"][1:]]

    def test_mgda_counts_in_metrics(self, tmp_path):
        run_dir = tmp_path / "run"
        cfg = small_cfg(optimizer="mgda-multistart", population_size=8)
        record = samo_run(CHEAP, cfg, run_dir=run_dir)
        metrics = json.loads((run_dir / "metrics.json").read_text())
        for r, info in zip(record.rounds, metrics["rounds"]):
            counts = info["optimizer"]
            assert counts == r["optimizer"]
            assert set(counts) == {"starts", "converged", "dropped", "max_iterations_used"}
            assert counts["starts"] == 8
            assert counts["converged"] + counts["dropped"] == 8

    @pytest.mark.parametrize("mgda", [None, {"max_iterations": 1}], ids=["budget", "optimizer-failure"])
    def test_record_is_the_metrics_document(self, tmp_path, mgda):
        # one MGDA iteration is too few for any start to converge in round 0
        config = RunConfig.from_file(CHEAP_DEMO)
        cfg = config.samo
        if mgda is not None:
            cfg = replace(cfg, optimizer="mgda-multistart", mgda=replace(cfg.mgda, **mgda))
        record = samo_run(config.problem, cfg, run_dir=tmp_path)
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["rounds"] == record.rounds
        assert metrics.get("failed_round") == record.failed_round
        assert (record.failed_round is None) is (mgda is None)
        assert len(record.fronts) == len(record.rounds) == (0 if mgda else 5)
        assert [r["front_size"] for r in record.rounds] == [len(front) for front in record.fronts]
        assert metrics["h_values"] == [r["hausdorff"] for r in record.rounds[1:]]
        keys = ["index", "origin", "new_samples", "dataset_size", "front_size", "hausdorff"]
        assert all(list(r) == [*keys, "timings", "optimizer"] for r in record.rounds)

    def test_untimed_metrics_sees_the_key_order(self, tmp_path):
        config = RunConfig.from_file(CHEAP_DEMO)
        samo_run(config.problem, config.samo, run_dir=tmp_path / "run")
        shutil.copytree(tmp_path / "run", tmp_path / "swapped")
        path = tmp_path / "swapped" / "metrics.json"
        metrics = json.loads(path.read_text())
        entry = metrics["rounds"][1]
        metrics["rounds"][1] = {"origin": entry["origin"], "index": entry["index"], **entry}
        path.write_text(json.dumps(metrics, indent=2))
        # the same values, only a round's index and origin swapped
        assert json.loads(path.read_text()) == json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert oracles.untimed_metrics(tmp_path / "swapped") != oracles.untimed_metrics(tmp_path / "run")

    def test_projection_matrix_written_for_benchmark(self, tmp_path):
        problem = make_quarter_car_problem(horizon=Horizon(te=0.5, dt=1e-3))
        cfg = small_cfg(budget=6, batch_size=3, h_min=math.inf)
        run_dir = tmp_path / "mbs"
        record = samo_run(problem, cfg, run_dir=run_dir)
        assert record.error is None
        matrix_file = run_dir / "projection_matrix.csv"
        assert matrix_file.exists()
        rows = matrix_file.read_text().strip().splitlines()
        assert len(rows) == 1 + 5  # header + five physical parameters

    def test_csv_floats_lossless(self, tmp_path):
        run_dir = tmp_path / "run"
        record = samo_run(CHEAP, small_cfg(), run_dir=run_dir)
        lines = (run_dir / "samples_round_0.csv").read_text().strip().splitlines()
        values = [float(v) for v in lines[1].split(",")]
        expected = [*record.dataset.X[0], *record.dataset.Y[0]]
        assert values == expected

    def test_read_points_inverts_write_points(self, tmp_path):
        # signed zero, the smallest subnormal, the ends of the range and
        # values that need all 17 digits
        X = np.array([[-0.0, 5e-324], [1e308, 0.1 + 0.2], [-1e308, 2.0 / 3.0]])
        F = np.array(
            [[math.pi, -2.2250738585072014e-308], [1.0000000000000002, 0.0], [-1e-300, 1e16 + 2]]
        )
        RunDirectoryWriter(tmp_path).write_points("points.csv", X, F, "g")
        X_read, F_read = read_points(tmp_path / "points.csv")
        assert X_read.shape == X.shape and X_read.tobytes() == X.tobytes()
        assert F_read.shape == F.shape and F_read.tobytes() == F.tobytes()

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read point file {}: No such file or directory"),
            ("directory", "cannot read point file {}: Is a directory"),
            (b"", "{} is empty"),
            (b"\xffx0,f0\n1,2\n", "cannot read point file {}: 'utf-8' codec can't decode"),
            (b"x0,f0\n1,2\n3\n", "{} has a row not as wide as its 2 columns"),
            (b"x0,f0\n1,2\n3,4,5\n", "{} has a row not as wide as its 2 columns"),
            (b"x0,f0\n1,two\n", "{} holds a value that is no number: "),
        ],
        ids=["missing", "directory", "empty", "not-utf-8", "short-row", "long-row", "no-number"],
    )
    def test_read_points_rejects_an_unreadable_file(self, tmp_path, content, message):
        path = tmp_path / "points.csv"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        with pytest.raises(SamoError) as info:
            read_points(path)
        assert str(info.value).startswith(message.format(path))
        assert str(info.value).count(str(path)) == 1

    def test_read_run_returns_every_point_set(self, tmp_path):
        record = samo_run(CHEAP, small_cfg(), run_dir=tmp_path)
        sets = read_run(tmp_path)
        expected = [(r["index"], kind) for r in record.rounds for kind in ("sample", "front")]
        assert [(j, kind) for j, kind, _, _ in sets] == expected + [(-1, "final")]
        samples = [(X, F) for _, kind, X, F in sets if kind == "sample"]
        assert np.array_equal(np.vstack([X for X, _ in samples]), record.dataset.X)
        assert np.array_equal(np.vstack([F for _, F in samples]), record.dataset.Y)
        for pareto, (_, _, X, F) in zip(record.fronts, sets[1::2], strict=True):
            assert np.array_equal(X, pareto.X) and np.array_equal(F, pareto.F)
        assert np.array_equal(sets[-1][2], record.final_decision)
        assert np.array_equal(sets[-1][3], record.final_front)

    def test_verbose_rerun_replaces_front_snapshots(self, tmp_path):
        # `samo --verbose run` writes the snapshots
        payload = json.loads(CHEAP_DEMO.read_text())
        payload["samo"].update(budget=10, batch_size=5)
        del payload["study"]  # its sizes exceed the budget
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(payload))
        for out in ("once", "twice", "twice"):
            assert main(["--verbose", "run", "--config", str(config_path), "--out", str(tmp_path / out)]) == 0
        once = sorted((tmp_path / "once").glob("nsga2_fronts_round_*.csv"))
        assert once
        for path in once:
            text = (tmp_path / "twice" / path.name).read_text()
            assert text == path.read_text() and text.count("generation") == 1

    # a failing run: no descent start on the cheap_demo network converges
    # within 50 iterations
    MLP_MGDA = {"surrogate": "mlp", "optimizer": "mgda-multistart", "mgda": {"max_iterations": 50}}

    @pytest.mark.parametrize(
        "name, samo, reason",
        [("default", {}, "converged"), ("cheap_demo", {}, "budget"), ("cheap_demo", MLP_MGDA, "error")],
        ids=["default", "cheap_demo", "mlp-mgda"],
    )
    def test_stop_reason(self, tmp_path, name, samo, reason):
        payload = json.loads((CONFIGS / f"{name}.json").read_text())
        payload["samo"].update(samo)
        run = RunConfig.from_dict(payload)
        samo_run(run.problem, run.samo, run_dir=tmp_path)
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["stop_reason"] == reason
        assert metrics["converged"] is (reason == "converged")
        assert (metrics["error"] is not None) is (reason == "error")

    @pytest.mark.parametrize("n", [2, 20])
    @pytest.mark.parametrize("width", [0.5, 5.0])
    def test_a_one_width_grid_fits_that_width(self, tmp_path, width, n):
        X = latin_hypercube(n, CHEAP.bounds, n)
        data = samo.core.Dataset(X, CHEAP.evaluate_batch(X))
        save_model(fit_rbf(data, sigma=width), tmp_path / "fixed.json")
        cfg = small_cfg(rbf=RbfConfig(grid=(width,)))
        save_model(_fit_surrogate(data, cfg, 0), tmp_path / "grid.json")
        assert (tmp_path / "fixed.json").read_bytes() == (tmp_path / "grid.json").read_bytes()

    def test_format_float_17_digits(self):
        x = 1.0 / 3.0
        assert float(format_float(x)) == x


class TestFailureHandling:
    def test_training_failure_partial_record(self):
        # an unregularized kernel with an absurdly wide width is numerically
        # singular, so the first fit fails and the run ends gracefully
        cfg = small_cfg(rbf=RbfConfig(grid=(1e9,), ridge=0.0))
        record = samo_run(CHEAP, cfg)
        assert record.error is not None
        assert not record.converged
        assert record.total_evaluations == 5
        assert record.final_front is not None
        failed = record.failed_round
        assert (failed["index"], failed["stage"], failed["optimizer"]) == (0, "fit", {})
        assert list(failed["timings"]) == ["sampling", "evaluation", "fit"]


    def test_optimizer_failure_keeps_run(self, tmp_path):
        # one iteration is too few for any descent start to turn critical
        config = RunConfig.from_file(CHEAP_DEMO)
        cfg = replace(
            config.samo,
            optimizer="mgda-multistart",
            mgda=replace(config.samo.mgda, max_iterations=1),
        )
        run_dir = tmp_path / "run"
        record = samo_run(config.problem, cfg, run_dir=run_dir)
        assert record.error is not None and "no start" in record.error
        assert record.total_evaluations == cfg.batch_size
        assert (run_dir / "metrics.json").exists()
        assert (run_dir / "final_front.csv").exists()
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["error"] == record.error
        failed = metrics["failed_round"]
        assert failed == record.failed_round
        assert (failed["index"], failed["stage"]) == (0, "optimization")
        assert list(failed["timings"]) == ["sampling", "evaluation", "fit", "optimization"]
        assert main(["front", str(run_dir)]) == 0


class TestBatchedOptimizersMatchOnePointPath:
    """A --verbose cheap-demo run writes the same bytes with the batched
    optimizers as with the reference paths in tests/oracles.py, but for the
    surrogate objectives that MGDA's reference predicts one point at a time,
    which agree to `oracles.ROW_RTOL`."""

    @staticmethod
    def artifacts(run_dir: Path, pattern: str) -> dict:
        return {p.name: p.read_bytes() for p in sorted(run_dir.glob(pattern))}

    @staticmethod
    def assert_same_files(tmp_path: Path, names) -> None:
        """Each named file of the fast and the slow run directory is the
        same byte for byte, but an MGDA trace: its header and its iteration,
        start and ||d|| columns are, and its surrogate objectives, which the
        reference predicts one point at a time, agree to `oracles.ROW_RTOL`."""
        for name in names:
            fast, slow = (tmp_path / side / name for side in ("fast", "slow"))
            if not name.startswith("mgda_trace_"):
                assert fast.read_bytes() == slow.read_bytes(), name
                continue
            assert fast.read_text().partition("\n")[0] == slow.read_text().partition("\n")[0]
            oracles.assert_columns_close(*(np.hstack(read_points(p)) for p in (fast, slow)), 3)

    @pytest.mark.parametrize(
        "optimizer,site,oracle,pattern",
        [
            ("mgda-multistart", "multistart_mgda", oracles.multistart_mgda, "mgda_trace_round_*"),
            ("nsga2", "nsga2_run", oracles.nsga2_run, "nsga2_fronts_round_*"),
        ],
        ids=["mgda", "nsga2"],
    )
    def test_verbose_artifacts_byte_identical(self, tmp_path, monkeypatch, optimizer, site, oracle, pattern):
        config = RunConfig.from_file(CHEAP_DEMO)
        cfg = replace(config.samo, optimizer=optimizer)
        samo_run(config.problem, cfg, run_dir=tmp_path / "fast", verbose=True)
        monkeypatch.setattr(samo.driver, site, oracle)
        samo_run(config.problem, cfg, run_dir=tmp_path / "slow", verbose=True)
        fast = self.artifacts(tmp_path / "fast", pattern)
        assert fast and sorted(fast) == sorted(self.artifacts(tmp_path / "slow", pattern))
        # one file per round, none per start
        assert sorted(fast) == [pattern.replace("*", f"{j}.csv") for j in range(len(fast))]
        self.assert_same_files(tmp_path, fast)
        for name in ("samples_round_*.csv", "front_round_*.csv", "final_front.csv"):
            assert self.artifacts(tmp_path / "fast", name) == self.artifacts(tmp_path / "slow", name)
        # each surrogate front, predicted in one batch, against one point at a time
        for j in range(len(fast)):
            model = load_model(tmp_path / "fast" / f"surrogate_round_{j}.json")
            X, G = read_points(tmp_path / "fast" / f"front_round_{j}.csv")
            oracles.assert_rows_close(G, np.array([model.predict(x) for x in X]))

    def assert_whole_run_byte_identical(self, tmp_path, monkeypatch, problem, cfg):
        """Every artifact is the same, metrics.json apart from its timings
        and MGDA's traces apart from the objectives its reference
        predicts one point at a time (`assert_same_files`), with the
        slow side's reference paths, one per fast path, swapped in: the
        NSGA-II oracle ranks by the dominance peel, crowds front by
        front, gathers survivors in a list, draws one tournament per
        child and varies one pair at a time; the quarter-car oracle
        stores every state on numpy scalars; the network oracle runs
        Adam one parameter array at a time on a forward pass of its own
        (the network predicts with the training forward pass, so the
        trained weights' bytes cover its prediction too); the RBF width
        search refits once per width and left-out sample; the RBF fit
        and batch oracles reduce row-major offsets over their last axis;
        MGDA runs one start at a time with one model call per point and
        predicts its front in one batch; the filter behind the final
        front, the MGDA endpoints and every Pareto approximation's check
        takes the dominance peel's first front."""
        samo_run(problem, cfg, run_dir=tmp_path / "fast", verbose=True)
        monkeypatch.setattr(samo.driver, "nsga2_run", oracles.nsga2_run)
        monkeypatch.setattr(QuarterCarEvaluator, "__call__", oracles.quarter_car_objectives)
        monkeypatch.setattr(samo.surrogate, "_train_once", oracles.train_once)
        monkeypatch.setattr(samo.driver, "select_rbf_width", oracles.select_rbf_width)
        monkeypatch.setattr(samo.driver, "fit_rbf", oracles.fit_rbf_row_major)
        monkeypatch.setattr(RbfModel, "predict_batch", oracles.rbf_predict_row_major)
        monkeypatch.setattr(RbfModel, "input_jacobian_batch", oracles.rbf_input_jacobian_row_major)
        monkeypatch.setattr(samo.driver, "multistart_mgda", oracles.multistart_mgda)
        for module in (samo.core, samo.driver):
            monkeypatch.setattr(module, "non_dominated_filter", oracles.non_dominated_filter)
        samo_run(problem, cfg, run_dir=tmp_path / "slow", verbose=True)
        fast, slow = (self.artifacts(tmp_path / side, "*") for side in ("fast", "slow"))
        del fast["metrics.json"], slow["metrics.json"]
        assert len(fast) >= 3 and sorted(fast) == sorted(slow)
        self.assert_same_files(tmp_path, fast)
        assert oracles.untimed_metrics(tmp_path / "fast") == oracles.untimed_metrics(tmp_path / "slow")
        return fast

    @pytest.mark.parametrize("config", ["cheap_demo", "cheap_demo-n10", "qcar-short"])
    def test_whole_nsga2_byte_identical(self, tmp_path, monkeypatch, config):
        run = RunConfig.from_dict(oracles.run_config_payload(config))
        fast = self.assert_whole_run_byte_identical(tmp_path, monkeypatch, run.problem, run.samo)
        assert "nsga2_fronts_round_0.csv" in fast and "surrogate_round_0.json" in fast

    @pytest.mark.parametrize("config", ["cheap_demo", "cheap_demo-n10"])
    def test_whole_mgda_byte_identical(self, tmp_path, monkeypatch, config):
        # on 10 coordinates no start turns critical in round 0, so the run
        # ends there; a short budget still writes the trace of all 60 starts
        run = RunConfig.from_dict(oracles.run_config_payload(config))
        cfg = replace(run.samo, optimizer="mgda-multistart")
        if config == "cheap_demo-n10":
            cfg = replace(cfg, mgda=replace(cfg.mgda, max_iterations=200))
        fast = self.assert_whole_run_byte_identical(tmp_path, monkeypatch, run.problem, cfg)
        assert {"samples_round_0.csv", "mgda_trace_round_0.csv", "final_front.csv"} <= set(fast)
        assert not [name for name in fast if "_start_" in name]
        rows = fast["mgda_trace_round_0.csv"].decode().splitlines()[1:]
        starts = {line.split(",")[1] for line in rows}
        assert starts == {str(i) for i in range(60)}

    def test_mgda_trace_explains_every_start(self, tmp_path):
        """Each start's rows of a round's trace are the descent of that start
        alone on the surrogate read back from the run directory, from its
        Latin-hypercube point: iterations and ||d|| bit for bit, since the
        RBF Jacobian computes each row alone, and the objectives, predicted
        in one batch, to `oracles.ROW_RTOL`."""
        config = RunConfig.from_file(CHEAP_DEMO)
        cfg = replace(config.samo, optimizer="mgda-multistart")
        bounds = config.problem.bounds
        samo_run(config.problem, cfg, run_dir=tmp_path, verbose=True)
        lines = (tmp_path / "mgda_trace_round_0.csv").read_text().splitlines()
        assert lines[0] == "iteration,start,direction_norm,g0,g1"
        trace = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert (np.diff(trace[:, 0]) >= 0.0).all()
        assert np.array_equal(np.unique(trace[:, 1]), np.arange(cfg.population_size))
        model = load_model(tmp_path / "surrogate_round_0.json")
        starts = latin_hypercube(cfg.population_size, bounds, derive_seed(cfg.seed, 2, 0))
        for i, x0 in enumerate(starts):
            alone = mgda_run(model, x0, bounds, cfg.mgda).trace
            oracles.assert_columns_close(np.delete(trace[trace[:, 1] == i], 1, axis=1), alone, 2)


class TestIgd:
    def test_exact_cover_zero(self):
        ref = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert igd_normalized(ref, ref) == 0.0

    def test_known_value(self):
        ref = np.array([[0.0, 0.0], [2.0, 0.0]])
        front = np.array([[0.0, 1.0]])
        # the reference box scales f0 by 1/2 and leaves f1, of zero range,
        # unscaled: distances 1 and sqrt(2), averaged
        assert igd_normalized(front, ref) == pytest.approx((1.0 + math.sqrt(2.0)) / 2.0)

    def test_normalized_by_reference_box(self):
        ref = np.array([[0.0, 0.0], [10.0, 20.0]])
        front = ref + np.array([1.0, 2.0])
        assert igd_normalized(front, ref) == pytest.approx(math.sqrt(0.02), abs=1e-12)


class TestStudy:
    def test_single_size_single_row(self):
        rows = sample_size_study(CHEAP, small_cfg(), StudyConfig(sizes=(5,)))
        assert len(rows) == 1
        row = rows[0]
        assert row.batch_size == 5
        assert row.evaluations == row.rounds * 5 or row.evaluations <= 10 + 5
        assert row.igd is not None

    def test_sizes_and_repetitions(self):
        cfg = small_cfg(budget=6, batch_size=4)
        rows = sample_size_study(CHEAP, cfg, StudyConfig(sizes=(4, 6), repetitions=2))
        assert len(rows) == 4
        assert {(r.batch_size, r.repetition) for r in rows} == {
            (4, 0),
            (6, 0),
            (4, 1),
            (6, 1),
        }

    def test_failed_cell_skipped(self, monkeypatch):
        def run_unless_size_5(problem, cfg, **kwargs):
            if cfg.batch_size == 5:
                raise SamoError("cell failed")
            return samo_run(problem, cfg, **kwargs)

        def untimed(rows):
            return [replace(r, total_time=0.0, mean_round_time=0.0) for r in rows]

        cfg = small_cfg(budget=6, batch_size=4)
        expected = sample_size_study(CHEAP, cfg, StudyConfig(sizes=(4, 6), repetitions=2))
        monkeypatch.setattr(samo.driver, "samo_run", run_unless_size_5)
        rows = sample_size_study(CHEAP, cfg, StudyConfig(sizes=(4, 5, 6), repetitions=2))
        assert untimed(rows) == untimed(expected)
        assert [(r.batch_size, r.repetition) for r in rows] == [(4, 0), (6, 0), (4, 1), (6, 1)]

    def test_cell_with_a_recorded_error_left_out(self, caplog):
        # samo_run records the optimizer's failure instead of raising; 50
        # MGDA iterations are too few for any start on the MLP to converge
        config = RunConfig.from_file(CHEAP_DEMO)
        cfg = replace(
            config.samo,
            surrogate="mlp",
            optimizer="mgda-multistart",
            mgda=replace(config.samo.mgda, max_iterations=50),
        )
        assert sample_size_study(config.problem, cfg, StudyConfig(sizes=(5,))) == []
        assert "study cell (s=5, rep=0) failed: surrogate optimization failed in round 0" in caplog.text

    def test_empty_sizes_rejected(self):
        with pytest.raises(ConfigurationError, match=r"^study.sizes must hold at least one batch size$"):
            sample_size_study(CHEAP, small_cfg(), StudyConfig(sizes=()))

    def test_cells_in_the_triple_loop_order_with_derived_seeds(self):
        # surrogate kind, then repetition, then size, as the sweep ran when
        # `samo study` looped over the kinds around a repetition-size loop
        cfg = small_cfg()
        study = StudyConfig(sizes=(6, 5, 10), surrogates=("rbf", "mlp"), repetitions=2)
        want = []
        for kind in ("rbf", "mlp"):
            for rep in range(2):
                for size in (6, 5, 10):
                    seed = derive_seed(cfg.seed, 3, size, rep)
                    want.append((rep, replace(cfg, surrogate=kind, batch_size=size, seed=seed)))
        assert study.cells(cfg) == want
        assert StudyConfig(sizes=(5,)).cells(cfg) == [(0, replace(cfg, seed=derive_seed(11, 3, 5, 0)))]

    def test_cell_below_the_surrogate_minimum_rejected(self):
        with pytest.raises(ConfigurationError, match="^study.sizes entry 4: batch_size must be at least 5"):
            StudyConfig(sizes=(6, 4), surrogates=("rbf", "mlp")).cells(small_cfg())
