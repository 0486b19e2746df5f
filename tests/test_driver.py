import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
import samo.driver
from samo.cli import RunConfig, main
from samo.core import ConfigurationError, dominates
from samo.driver import (
    RunRecord,
    SamoConfig,
    check_convergence,
    derive_seed,
    format_float,
    igd,
    igd_normalized,
    sample_size_study,
    samo_run,
)
from samo.moea import MoeaConfig
from samo.problems import make_analytic_problem, make_quarter_car_problem
from samo.surrogate import TrainConfig

CHEAP = make_analytic_problem("two-paraboloids")
CHEAP_DEMO = Path(__file__).parent.parent / "configs" / "cheap_demo.json"


def small_cfg(**overrides) -> SamoConfig:
    base = dict(
        budget=10,
        batch_size=5,
        h_min=1e-6,
        surrogate="rbf",
        optimizer="nsga2",
        population_size=16,
        moea=MoeaConfig(population_size=16, generations=10, seed=0),
        train=TrainConfig(epochs=60, patience=60),
        seed=11,
    )
    base.update(overrides)
    return SamoConfig(**base)


class TestConfigValidation:
    def test_batch_larger_than_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            SamoConfig(budget=10, batch_size=20)

    def test_h_min_positive(self):
        with pytest.raises(ConfigurationError):
            SamoConfig(h_min=0.0)

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
        batches = [r.n_new_samples for r in record.rounds]
        assert batches[0] == 5
        assert sum(batches[1:]) <= 12
        if not record.converged:
            assert batches[1:] == [5, 5, 2]
        assert record.total_evaluations <= 12 + 5

    def test_round_indices_and_origins(self):
        record = samo_run(CHEAP, small_cfg())
        assert record.rounds[0].plan_origin == "latin-hypercube"
        for r in record.rounds[1:]:
            assert r.plan_origin == "pareto-informed"
        assert [r.index for r in record.rounds] == list(range(len(record.rounds)))


@pytest.fixture(scope="module")
def record() -> RunRecord:
    return samo_run(CHEAP, small_cfg(budget=15, batch_size=5))


class TestRunRecordInvariants:

    def test_eval_accounting(self, record):
        assert record.total_evaluations == sum(r.n_new_samples for r in record.rounds)
        assert record.total_evaluations <= 15 + 5

    def test_fronts_mutually_non_dominated(self, record):
        for r in record.rounds:
            front = r.pareto.front_matrix()
            for i in range(len(front)):
                for j in range(len(front)):
                    if i != j:
                        assert not dominates(front[i], front[j])

    def test_final_front_not_dominated_by_first_round_samples(self, record):
        first_round = [s.y.values for s in record.dataset if s.iteration == 0]
        for member in record.final_front:
            assert not any(dominates(y, member) for y in first_round)

    def test_h_values_recorded_from_second_round(self, record):
        assert record.rounds[0].hausdorff is None
        for r in record.rounds[1:]:
            assert r.hausdorff is not None and r.hausdorff >= 0.0


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
        assert (run_dir / "config.json").exists()
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

    def test_mgda_counts_in_metrics(self, tmp_path):
        run_dir = tmp_path / "run"
        cfg = small_cfg(optimizer="mgda-multistart", population_size=8)
        record = samo_run(CHEAP, cfg, run_dir=run_dir)
        metrics = json.loads((run_dir / "metrics.json").read_text())
        for r, info in zip(record.rounds, metrics["rounds"]):
            counts = info["optimizer"]
            assert counts == r.optimizer
            assert set(counts) == {"starts", "converged", "dropped", "max_iterations_used"}
            assert counts["starts"] == 8
            assert counts["converged"] + counts["dropped"] == 8

    def test_projection_matrix_written_for_benchmark(self, tmp_path):
        problem = make_quarter_car_problem(te=0.5, dt=1e-3)
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
        sample = record.dataset.samples[0]
        expected = [*sample.x.coords, *sample.y.values]
        assert values == expected

    def test_format_float_17_digits(self):
        x = 1.0 / 3.0
        assert float(format_float(x)) == x


class TestFailureHandling:
    def test_training_failure_partial_record(self):
        # an unregularized kernel with an absurdly wide width is numerically
        # singular, so the first fit fails and the run ends gracefully
        cfg = small_cfg(rbf_sigma=1e9, rbf_ridge=0.0)
        record = samo_run(CHEAP, cfg)
        assert record.error is not None
        assert not record.converged
        assert record.total_evaluations == 5
        assert record.final_front is not None


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
        assert main(["front", str(run_dir)]) == 0


class TestBatchedOptimizersMatchOnePointPath:
    """A --verbose cheap-demo run writes the same bytes with the batched
    optimizers as with the one-point reference path in tests/oracles.py."""

    @staticmethod
    def artifacts(run_dir: Path, pattern: str) -> dict:
        return {p.name: p.read_bytes() for p in sorted(run_dir.glob(pattern))}

    @pytest.mark.parametrize(
        "optimizer,site,oracle,pattern",
        [
            ("mgda-multistart", "multistart_mgda", oracles.multistart_mgda, "mgda_trace_round_*"),
            ("nsga2", "nsga2_run", oracles.rowwise_nsga2(samo.driver.nsga2_run), "nsga2_fronts_round_*"),
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
        assert fast and fast == self.artifacts(tmp_path / "slow", pattern)
        for name in ("samples_round_*.csv", "front_round_*.csv", "final_front.csv"):
            assert self.artifacts(tmp_path / "fast", name) == self.artifacts(tmp_path / "slow", name)


class TestIgd:
    def test_exact_cover_zero(self):
        ref = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert igd(ref, ref) == 0.0

    def test_known_value(self):
        ref = np.array([[0.0, 0.0], [2.0, 0.0]])
        front = np.array([[0.0, 1.0]])
        # distances 1 and sqrt(5), averaged
        assert igd(front, ref) == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0)

    def test_normalized_by_reference_box(self):
        ref = np.array([[0.0, 0.0], [10.0, 20.0]])
        front = ref + np.array([1.0, 2.0])
        assert igd_normalized(front, ref) == pytest.approx(math.sqrt(0.02), abs=1e-12)


class TestStudy:
    def test_single_size_single_row(self):
        rows = sample_size_study(CHEAP, [5], small_cfg())
        assert len(rows) == 1
        row = rows[0]
        assert row.batch_size == 5
        assert row.evaluations == row.rounds * 5 or row.evaluations <= 10 + 5
        assert row.igd_to_oracle is not None

    def test_sizes_and_repetitions(self):
        rows = sample_size_study(CHEAP, [4, 6], small_cfg(budget=6, batch_size=4), repetitions=2)
        assert len(rows) == 4
        assert {(r.batch_size, r.repetition) for r in rows} == {
            (4, 0),
            (6, 0),
            (4, 1),
            (6, 1),
        }

    def test_empty_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_size_study(CHEAP, [], small_cfg())
