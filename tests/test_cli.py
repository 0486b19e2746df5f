import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from inspect import signature
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np
import pytest

import oracles
from samo.cli import RunConfig, main
from samo.core import ConfigurationError, _encode, _file_values
from samo.driver import SamoConfig, StudyConfig
from samo.problems import MAX_DIM, PROBLEM_BUILDERS, Excitation, QuarterCarEvaluator, QuarterCarParams
from samo.surrogate import load_model, save_model

CHEAP_CONFIG = {
    "problem": {"name": "two-paraboloids", "n_dim": 4},
    "samo": {
        "budget": 10,
        "batch_size": 5,
        "h_min": 1e-6,
        "surrogate": "rbf",
        "optimizer": "nsga2",
        "population_size": 12,
        "moea": {"generations": 8},
        "seed": 3,
    },
    "study": {"sizes": [4, 6], "surrogates": ["rbf"], "repetitions": 1},
}


# config files whose sections are not all objects or null, with the key
# each must be rejected under
NON_OBJECT_SECTIONS = [
    ([], "config"),
    ({"samo": [1]}, "samo"),
    ({"samo": ""}, "samo"),
    ({"samo": {"moea": 5}}, "samo.moea"),
    ({"samo": {"moea": 0}}, "samo.moea"),
    ({"samo": {"moea": []}}, "samo.moea"),
    ({"samo": {"rbf": "wide"}}, "samo.rbf"),
    ({"problem": {"horizon": 3}}, "problem.horizon"),
    ({"problem": {"name": "mbs", "params": [250.0]}}, "problem.params"),
    ({"study": "x"}, "study"),
    ({"study": 0}, "study"),
]
# float fields given values that JSON parsers accept but no float field takes
NON_FINITE_FLOATS = [
    ({"samo": {"h_min": math.nan}}, "samo.h_min"),
    ({"samo": {"h_min": math.inf}}, "samo.h_min"),
    ({"samo": {"h_min": 10**400}}, "samo.h_min"),
    ({"samo": {"rbf": {"sigma": math.nan}}}, "samo.rbf.sigma"),
    ({"samo": {"rbf": {"grid": [0.5, -math.inf]}}}, "samo.rbf.grid"),
    ({"samo": {"mgda": {"tolerance": math.nan}}}, "samo.mgda.tolerance"),
    ({"problem": {"name": "mbs", "horizon": {"dt": math.nan}}}, "problem.horizon.dt"),
]


# a config tree no loader code knows of
@dataclass(frozen=True)
class _Leaf:
    width: Optional[float] = None
    grid: tuple[float, ...] = (1.0, 2.0)


@dataclass(frozen=True)
class _Tree:
    count: int = 3
    leaf: _Leaf = field(default_factory=_Leaf)
    name: str = "x"


CHEAP_DEMO = Path(__file__).parent.parent / "configs" / "cheap_demo.json"
SHIPPED_CONFIGS = [
    "configs/default.json",
    "configs/cheap_demo.json",
    "perfbench/workloads/qcar-mlp-nsga2.json",
    "perfbench/workloads/paraboloid-rbf-nsga2.json",
    "perfbench/workloads/paraboloid-rbf-mgda.json",
]


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestRunConfig:
    def test_parses_defaults(self, tmp_path):
        path = write_config(tmp_path, {"problem": {"name": "zdt1"}})
        config = RunConfig.from_file(path)
        assert config.problem.name == "zdt1"
        assert config.samo.budget == 120
        assert config.samo.h_min == 2.0

    def test_shipped_default_config_is_paper_parameter_set(self):
        config = RunConfig.from_file(Path(__file__).parent.parent / "configs" / "default.json")
        assert config.problem.name == "mbs"
        assert config.problem.n_dim == 24
        assert np.allclose(config.problem.bounds.lower, -0.003)
        assert np.allclose(config.problem.bounds.upper, 0.003)
        assert config.samo.batch_size == 20
        assert config.samo.budget == 120
        assert config.samo.h_min == 2.0
        assert config.samo.population_size == 100
        assert config.samo.surrogate == "mlp"
        assert config.samo.optimizer == "nsga2"
        assert config.samo.moea.generations == 200
        assert config.samo.moea.crossover_prob == 0.5
        assert config.samo.moea.eta_mutation == 20.0

    def test_omitted_sections_keep_dataclass_defaults(self):
        assert RunConfig.from_dict({"problem": {"name": "zdt1"}}).samo == SamoConfig()

    def test_rbf_section_sets_rbf_fields(self):
        rbf = {"sigma": 2, "grid": [1, 3], "ridge": 0}
        samo = RunConfig.from_dict({"samo": {"surrogate": "rbf", "rbf": rbf}}).samo
        assert (samo.rbf.sigma, samo.rbf.grid, samo.rbf.ridge) == (2.0, (1.0, 3.0), 0.0)

    @pytest.mark.parametrize(
        "section, key",
        [
            ("train", "seed"),
            ("moea", "seed"),
            ("mgda", "seed"),
            ("moea", "population_size"),
            ("mgda", "n_starts"),
            ("train", "hidden"),
            (None, "rbf_sigma"),
        ],
    )
    def test_derived_fields_are_unknown_keys(self, section, key):
        samo = {key: 1} if section is None else {section: {key: 1}}
        with pytest.raises(ConfigurationError, match=key):
            RunConfig.from_dict({"samo": samo})

    def test_odd_nsga2_population_rejected_before_any_evaluation(self, monkeypatch):
        import samo.driver

        def fail(*args, **kwargs):
            raise AssertionError("evaluated before the config was rejected")

        monkeypatch.setattr(samo.driver, "evaluate_batch", fail)
        payload = {"problem": {"name": "two-paraboloids"}, "samo": {"population_size": 61}}
        with pytest.raises(ConfigurationError, match="even"):
            RunConfig.from_dict(payload)
        payload["samo"]["optimizer"] = "mgda-multistart"
        assert RunConfig.from_dict(payload).samo.population_size == 61

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"problems": {}})
        with pytest.raises(ConfigurationError, match="unknown keys"):
            RunConfig.from_file(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        payload = {"samo": {"batchsize": 10}}
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigurationError, match="batchsize"):
            RunConfig.from_file(path)

    def test_batch_above_budget_rejected_before_any_evaluation(self, tmp_path):
        payload = {"problem": {"name": "two-paraboloids"}, "samo": {"budget": 10, "batch_size": 20}}
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigurationError):
            RunConfig.from_file(path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="JSON"):
            RunConfig.from_file(path)

    def test_mbs_overrides(self, tmp_path):
        payload = {
            "problem": {
                "name": "mbs",
                "n_dim": 6,
                "half_width": 0.01,
                "params": {"sprung_mass": 250.0},
                "horizon": {"te": 1.0, "dt": 0.001},
            }
        }
        config = RunConfig.from_file(write_config(tmp_path, payload))
        assert config.problem.n_dim == 6
        evaluator = config.problem.evaluate
        assert evaluator.nominal.sprung_mass == 250.0
        assert evaluator.te == 1.0

    @pytest.mark.parametrize(
        "samo, key",
        [
            ({"budget": 40.7, "batch_size": 10}, "samo.budget"),
            ({"budget": True}, "samo.budget"),
            ({"budget": "40"}, "samo.budget"),
            ({"moea": {"generations": 80.5}}, "samo.moea.generations"),
            ({"train": {"patience": False}}, "samo.train.patience"),
        ],
    )
    def test_int_field_rejects_bools_fractions_and_strings(self, samo, key):
        with pytest.raises(ConfigurationError, match=key):
            RunConfig.from_dict({"samo": samo})

    def test_int_field_takes_integral_numbers(self):
        samo = RunConfig.from_dict({"samo": {"budget": 40.0, "batch_size": 10}}).samo
        assert samo.budget == 40 and type(samo.budget) is int

    def test_float_fields_take_ints(self):
        payload = {
            "problem": {"name": "mbs", "params": {"sprung_mass": 250}},
            "samo": {"h_min": 1, "moea": {"mutation_prob": 1}},
        }
        config = RunConfig.from_dict(payload)
        assert type(config.problem.evaluate.nominal.sprung_mass) is float
        assert type(config.samo.h_min) is float and config.samo.h_min == 1.0
        assert type(config.samo.moea.mutation_prob) is float

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"problem": {"name": "mbs", "excitation": {"frequency": "7"}}}, "frequency"),
            ({"samo": {"h_min": True}}, "samo.h_min"),
            ({"samo": {"rbf": {"grid": [1.0, "2"]}}}, "samo.rbf.grid"),
            ({"samo": {"surrogate": 5}}, "samo.surrogate"),
            ({"study": {"sizes": [5.7, 10]}}, "study.sizes"),
            ({"study": {"repetitions": 1.9}}, "study.repetitions"),
            ({"study": {"surrogates": "rbf"}}, "study.surrogates"),
            ({"problem": {"name": "mbs", "horizon": {"dt": "0.001"}}}, "problem.horizon.dt"),
            ({"problem": {"name": "mbs", "n_dim": 6.5}}, "problem.n_dim"),
            ({"problem": {"name": "mbs", "n_dim": "24"}}, "problem.n_dim"),
            ({"problem": {"name": "zdt1", "n_dim": 6.5}}, "problem.n_dim"),
            ({"problem": {"name": "mbs", "projection_seed": 1.5}}, "problem.projection_seed"),
            ({"problem": {"name": "mbs", "half_width": "0.003"}}, "problem.half_width"),
        ],
    )
    def test_non_numbers_rejected_naming_the_key(self, payload, key):
        with pytest.raises(ConfigurationError, match=key):
            RunConfig.from_dict(payload)

    @pytest.mark.parametrize("payload, key", NON_FINITE_FLOATS)
    def test_non_finite_floats_rejected_naming_the_key(self, payload, key):
        with pytest.raises(ConfigurationError, match=f"^{key} must be .*finite number"):
            RunConfig.from_dict(payload)

    @pytest.mark.parametrize("payload, key", NON_OBJECT_SECTIONS)
    def test_non_object_sections_rejected_naming_the_key(self, payload, key):
        with pytest.raises(ConfigurationError, match=f"^{key} must be an object or null"):
            RunConfig.from_dict(payload)

    def test_null_top_level_keeps_every_default(self):
        assert RunConfig.from_dict(None).samo == RunConfig.from_dict({}).samo

    def test_null_keeps_the_default_in_every_section(self):
        payload = {
            "problem": {
                "name": None,
                "n_dim": None,
                "projection_seed": None,
                "params": {"sprung_mass": None},
                "excitation": None,
                "horizon": {"dt": None},
            },
            "samo": {
                "seed": None,
                "budget": None,
                "rbf": {"sigma": None, "grid": None},
                "moea": {"generations": None, "mutation_prob": None},
                "train": None,
            },
            "study": {"sizes": None, "repetitions": None},
        }
        config = RunConfig.from_dict(payload)
        default = RunConfig.from_dict({})
        assert config.samo == default.samo == SamoConfig()
        assert config.study == default.study
        assert config.study.surrogates == ("mlp",) and config.study.repetitions == 1
        for evaluator in (config.problem.evaluate, default.problem.evaluate):
            assert evaluator.bounds.dim == 24 and evaluator.dt == 1e-4
            assert evaluator.nominal == QuarterCarParams()
        assert np.array_equal(config.problem.evaluate.projection, default.problem.evaluate.projection)

    @pytest.mark.parametrize(
        "extra",
        [
            {"half_width": 0.5},
            {"projection_seed": 1},
            {"max_swing": 0.1},
            {"params": {"sprung_mass": 250.0}},
            {"excitation": {"frequency": 3.0}},
            {"horizon": {"dt": 0.5}},
            {"horizon": None},
        ],
    )
    @pytest.mark.parametrize("name", ["zdt1", "two-paraboloids"])
    def test_analytic_section_takes_only_n_dim(self, name, extra):
        (key,) = extra
        section = {"name": name, "n_dim": None, **extra}
        with pytest.raises(ConfigurationError, match=rf"^unknown keys in problem: \['{key}'\]$"):
            RunConfig.from_dict({"problem": section})

    def test_analytic_section_null_n_dim_keeps_the_default(self):
        assert RunConfig.from_dict({"problem": {"name": "zdt1", "n_dim": None}}).problem.n_dim == 30
        assert RunConfig.from_dict({"problem": {"name": "zdt1", "n_dim": 3}}).problem.n_dim == 3

    def test_unknown_problem_name_rejected_before_its_keys(self, tmp_path, capsys):
        for name in ("zdt2", "branin-pair"):
            section = {"name": name, "n_dim": "three", "half_width": 0.5, "horizon": 3}
            with pytest.raises(ConfigurationError, match=f"^unknown problem '{name}'$"):
                RunConfig.from_dict({"problem": section})
            config_path = write_config(tmp_path, {"problem": {"name": name}})
            assert main(["evaluate", "--config", str(config_path)]) == 2
            assert capsys.readouterr().err == f"error: unknown problem '{name}'\n"

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"samo": {"surrogate": "rbf", "rbf": {"sigma": 0}}}, "rbf.sigma"),
            ({"samo": {"surrogate": "rbf", "rbf": {"sigma": -1.0}}}, "rbf.sigma"),
            ({"samo": {"surrogate": "rbf", "rbf": {"ridge": -1e-8}}}, "rbf.ridge"),
            ({"samo": {"surrogate": "rbf", "rbf": {"grid": []}}}, "rbf.grid"),
            ({"samo": {"surrogate": "rbf", "rbf": {"grid": [0.5, 0.0]}}}, "rbf.grid"),
            ({"samo": {"moea": {"eta_mutation": -1}}}, "eta_mutation"),
            ({"samo": {"moea": {"eta_crossover": -1}}}, "eta_crossover"),
            ({"samo": {"budget": 20}, "study": {"sizes": [10, 30]}}, "study.sizes"),
            ({"study": {"sizes": [1, 10]}}, "study.sizes"),
            ({"study": {"surrogates": ["kriging"]}}, "study.surrogates"),
            ({"study": {"repetitions": 0}}, "study.repetitions"),
            ({"problem": {"name": "mbs", "horizon": {"te": 0.0}}}, "te"),
            ({"problem": {"name": "mbs", "horizon": {"t0": 1.0, "te": 0.5}}}, "te"),
            ({"problem": {"name": "mbs", "horizon": {"dt": 0}}}, "dt"),
            ({"problem": {"name": "zdt1", "n_dim": 1}}, "n_dim"),
            ({"problem": {"name": "two-paraboloids", "n_dim": 0}}, "n_dim"),
            ({"problem": {"name": "mbs", "horizon": {"te": 1e-4}}}, "te"),
            # round 0 fits the surrogate on its batch alone
            ({"samo": {"surrogate": "mlp", "batch_size": 4}}, "batch_size must be at least 5"),
            ({"samo": {"surrogate": "rbf", "batch_size": 1}}, "batch_size must be at least 2"),
            ({"samo": {"surrogate": "rbf"}, "study": {"sizes": [10, 1]}}, "study.sizes entry 1"),
            ({"study": {"sizes": [10, 4], "surrogates": ["rbf", "mlp"]}}, "study.sizes entry 4"),
            ({"samo": {"seed": -2}}, "^seed must be non-negative, got -2$"),
            ({"problem": {"name": "mbs", "projection_seed": -5}}, "^projection seed must be non-negative"),
            # 10 samples split at 0.95 leave no training row
            (
                {"samo": {"batch_size": 10, "train": {"validation_fraction": 0.95}}},
                "^batch_size must be at least 11 .* with train.validation_fraction 0.95$",
            ),
            # a swing of 1 or more takes a box corner's parameters to zero or below
            ({"problem": {"name": "mbs", "n_dim": 3, "max_swing": 1.5}}, "^max_swing must lie"),
            # dimensions above problems.MAX_DIM
            ({"problem": {"name": "two-paraboloids", "n_dim": MAX_DIM + 1}}, "n_dim"),
            ({"problem": {"name": "zdt1", "n_dim": MAX_DIM + 1}}, "n_dim"),
            ({"problem": {"name": "mbs", "n_dim": MAX_DIM + 1}}, "n_dim"),
        ],
    )
    def test_bad_values_rejected_before_any_evaluation(self, payload, key, monkeypatch):
        import samo.driver

        def fail(*args, **kwargs):
            raise AssertionError("evaluated before the config was rejected")

        monkeypatch.setattr(samo.driver, "evaluate_batch", fail)
        payload = {"problem": {"name": "two-paraboloids"}, **payload}
        # the study cells, which `samo study` builds before it evaluates
        with pytest.raises(ConfigurationError, match=key):
            config = RunConfig.from_dict(payload)
            config.study.cells(config.samo)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS)
    def test_shipped_configs_load_their_values(self, path):
        path = Path(__file__).parent.parent / path
        raw = json.loads(path.read_text())
        config = RunConfig.from_file(path)
        samo = config.samo
        for key, value in raw["samo"].items():
            if key == "moea":
                for moea_key, moea_value in value.items():
                    assert getattr(samo.moea, moea_key) == moea_value
            else:
                assert getattr(samo, key) == value
                assert type(getattr(samo, key)) is type(value)
        problem = raw["problem"]
        assert config.problem.name == problem["name"]
        assert config.problem.n_dim == problem["n_dim"]
        if problem["name"] == "mbs":
            evaluator = config.problem.evaluate
            assert np.all(config.problem.bounds.upper == problem["half_width"])
            assert np.all(config.problem.bounds.lower == -problem["half_width"])
            for key, value in problem["horizon"].items():
                assert getattr(evaluator, key) == value
                assert type(getattr(evaluator, key)) is float
            assert evaluator.nominal == QuarterCarParams()
            assert evaluator.excitation == Excitation(**problem["excitation"])
        study = raw.get("study", {})
        assert config.study.sizes == tuple(study.get("sizes", ()))
        assert config.study.surrogates == tuple(study.get("surrogates", [samo.surrogate]))
        assert config.study.repetitions == study.get("repetitions", 1)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS)
    def test_to_dict_inverts_from_dict(self, path):
        config = RunConfig.from_file(Path(__file__).parent.parent / path)
        written = config.to_dict()
        loaded = RunConfig.from_dict(json.loads(json.dumps(written)))
        assert loaded.to_dict() == written
        assert (loaded.samo, loaded.study) == (config.samo, config.study)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS)
    def test_written_sections_are_the_sections_the_loader_reads(self, path):
        config = RunConfig.from_file(Path(__file__).parent.parent / path)
        written = json.loads(json.dumps(config.to_dict()))

        def sections(section, where):
            yield where, section
            for key, value in section.items():
                if isinstance(value, dict):
                    yield from sections(value, key if where == "config" else f"{where}.{key}")

        # the loader accepts every key written: one more is the only unknown key
        for where, section in sections(written, "config"):
            section["extra"] = 0
            with pytest.raises(ConfigurationError, match=rf"^unknown keys in {where}: \['extra'\]$"):
                RunConfig.from_dict(written)
            del section["extra"]
        # and every section holds its target's fields or parameters by name,
        # a config dataclass among them as a section of its own
        def check(section, target, also=()):
            names = [f.name for f in fields(target)] if is_dataclass(target) else signature(target).parameters
            assert set(section) == set(names) - {"hidden"} | set(also)
            hints = get_type_hints(target)
            for key in set(section) - set(also):
                assert isinstance(section[key], dict) == is_dataclass(hints[key])
                if isinstance(section[key], dict):
                    check(section[key], hints[key])

        check(written["samo"], SamoConfig)
        check(written["study"], StudyConfig)
        problem = written["problem"]
        check(problem, PROBLEM_BUILDERS[problem["name"]], also={"name"})

    @pytest.mark.parametrize("name", PROBLEM_BUILDERS)
    def test_problem_section_lists_the_builder_parameters_with_defaults(self, name):
        section = RunConfig.from_dict({"problem": {"name": name}}).to_dict()["problem"]
        parameters = signature(PROBLEM_BUILDERS[name]).parameters.values()
        defaults = {p.name: asdict(p.default) if is_dataclass(p.default) else p.default for p in parameters}
        assert section == {"name": name, **defaults}
        assert list(section) == ["name", *defaults]

    def test_a_config_tree_round_trips_with_no_loader_code(self):
        tree = _Tree(count=4, leaf=_Leaf(width=0.5, grid=(0.25, 4.0)))
        section = json.loads(json.dumps(_encode(tree)))
        assert section == {"count": 4, "leaf": {"width": 0.5, "grid": [0.25, 4.0]}, "name": "x"}
        assert _Tree(**_file_values(_Tree, section, "tree")) == tree
        assert _Tree(**_file_values(_Tree, {"leaf": {"width": None}}, "tree")) == _Tree()
        with pytest.raises(ConfigurationError, match=r"^unknown keys in tree.leaf: \['sigma'\]$"):
            _file_values(_Tree, {"leaf": {"sigma": 1.0}}, "tree")
        with pytest.raises(ConfigurationError, match="^tree.leaf.grid must be a list"):
            _file_values(_Tree, {"leaf": {"grid": [1.0, "2"]}}, "tree")
        with pytest.raises(ConfigurationError, match="^tree.leaf.width must be a finite number"):
            _file_values(_Tree, {"leaf": {"width": "wide"}}, "tree")


class TestCmdRun:
    def test_end_to_end_run(self, tmp_path, capsys):
        config_path = write_config(tmp_path, CHEAP_CONFIG)
        out = tmp_path / "run"
        code = main(["run", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "round 0" in printed and "h=" in printed
        assert (out / "metrics.json").exists()
        assert not (out / "config_snapshot.json").exists()
        # the run directory's config re-parses to an equivalent configuration
        written = RunConfig.from_file(out / "config.json")
        assert written.samo == RunConfig.from_file(config_path).samo

    def test_rejected_config_exits_2_and_writes_nothing(self, tmp_path):
        payload = {"problem": {"name": "two-paraboloids"}, "samo": {"budget": 5, "batch_size": 20}}
        config_path = write_config(tmp_path, payload)
        out = tmp_path / "run"
        code = main(["run", "--config", str(config_path), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        # a negative --seed is rejected as a negative samo.seed is
        config_path = write_config(tmp_path, CHEAP_CONFIG)
        for command in ("run", "study"):
            code = main([command, "--config", str(config_path), "--out", str(out), "--seed", "-1"])
            assert code == 2
            assert not out.exists()

    @pytest.mark.parametrize("payload, key", NON_OBJECT_SECTIONS + NON_FINITE_FLOATS)
    def test_malformed_config_exits_2_before_any_evaluation(
        self, tmp_path, capsys, monkeypatch, payload, key
    ):
        import samo.driver

        def fail(*args, **kwargs):
            raise AssertionError("evaluated before the config was rejected")

        monkeypatch.setattr(samo.driver, "evaluate_batch", fail)
        config_path = write_config(tmp_path, payload)
        out = tmp_path / "run"
        code = main(["run", "--config", str(config_path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be")
        assert not out.exists()

    @pytest.mark.parametrize(
        "samo, message",
        [
            ({"normalize_hausdorff": False}, "unknown keys in samo: ['normalize_hausdorff']"),
            ({"mgda": {"backtracking": True}}, "unknown keys in samo.mgda: ['backtracking']"),
        ],
        ids=["normalize_hausdorff", "backtracking"],
    )
    def test_removed_option_exits_2_naming_the_key(self, tmp_path, capsys, samo, message):
        # a config.json written while the raw Hausdorff distance and the
        # fixed MGDA step had alternatives holds both keys
        config_path = write_config(tmp_path, {**CHEAP_CONFIG, "samo": {**CHEAP_CONFIG["samo"], **samo}})
        out = tmp_path / "run"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "study"])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected_by_the_parser(self, tmp_path, capsys, command, jobs):
        config_path = write_config(tmp_path, CHEAP_CONFIG)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config_path), "--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_optimizer_failure_exits_1_and_keeps_the_artifacts(self, tmp_path, capsys):
        # one MGDA iteration is too few for any start to turn critical
        payload = json.loads(CHEAP_DEMO.read_text())
        payload["samo"].update(optimizer="mgda-multistart", mgda={"max_iterations": 1})
        config_path = write_config(tmp_path, payload)
        out = tmp_path / "run"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
        error = (
            "surrogate optimization failed in round 0: "
            "no start of 60 converged within 1 iterations; "
        )
        assert capsys.readouterr().err.startswith(f"error: {error}")
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["error"].startswith(error) and metrics["rounds"] == []
        failed = metrics["failed_round"]
        assert (failed["index"], failed["stage"]) == (0, "optimization")
        assert list(failed["timings"]) == ["sampling", "evaluation", "fit", "optimization"]
        assert all(t >= 0.0 for t in failed["timings"].values())
        assert failed["optimizer"] == {
            "starts": 60, "converged": 0, "dropped": 60, "max_iterations_used": 1
        }
        assert (out / "final_front.csv").exists()

    def test_same_seed_byte_identical_front_csvs(self, tmp_path):
        config_path = write_config(tmp_path, CHEAP_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(out_b)]) == 0
        fronts = sorted(p.name for p in out_a.glob("front_round_*.csv"))
        assert fronts
        for name in fronts + ["final_front.csv"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        config_path = write_config(tmp_path, CHEAP_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert (
            main(["run", "--config", str(config_path), "--out", str(out_b), "--seed", "99"]) == 0
        )
        assert (out_a / "samples_round_0.csv").read_bytes() != (
            out_b / "samples_round_0.csv"
        ).read_bytes()


    def test_config_json_records_population_used(self, tmp_path):
        # the population and the master seed, --seed included, are each
        # written once; no block holds a value the run does not use
        for optimizer in ("nsga2", "mgda-multistart"):
            payload = {**CHEAP_CONFIG, "samo": {**CHEAP_CONFIG["samo"], "optimizer": optimizer}}
            config_path = write_config(tmp_path, payload, f"{optimizer}.json")
            out = tmp_path / optimizer
            assert main(["run", "--config", str(config_path), "--out", str(out), "--seed", "11"]) == 0
            written = json.loads((out / "config.json").read_text())["samo"]
            assert (written["population_size"], written["seed"]) == (12, 11)
            blocks = [block for block in written.values() if isinstance(block, dict)]
            assert len(blocks) == 4
            for block in blocks:
                assert not {"seed", "population_size", "n_starts"} & set(block)

    @pytest.mark.parametrize(
        "name, args",
        [("cheap_demo", []), ("cheap_demo", ["--seed", "5"]), ("qcar-short", [])],
        ids=["cheap_demo", "cheap_demo-seed5", "qcar-short"],
    )
    def test_rerun_from_config_json_byte_identical(self, tmp_path, capsys, name, args):
        # apart from the timings in metrics.json
        payload = oracles.run_config_payload(name)
        config_path = write_config(tmp_path, payload, "input.json")
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["run", "--config", str(config_path), "--out", str(first), *args]) == 0
        assert main(["run", "--config", str(first / "config.json"), "--out", str(again)]) == 0
        runs = [{p.name: p.read_bytes() for p in out.iterdir()} for out in (first, again)]
        for run in runs:
            del run["metrics.json"]
        assert len(runs[0]) > 10 and runs[0] == runs[1]
        assert oracles.untimed_metrics(first) == oracles.untimed_metrics(again)
        # every saved surrogate loads and saves back to the same bytes
        models = [file for file in runs[0] if file.startswith("surrogate_round_")]
        assert models
        for file in models:
            save_model(load_model(first / file), tmp_path / "resaved.json")
            assert (tmp_path / "resaved.json").read_bytes() == runs[0][file]
        written = json.loads(runs[0]["config.json"])
        if args:
            assert written["samo"]["seed"] == 5
        elif name == "cheap_demo":  # the shipped settings, as the run records them
            assert written["problem"] == {"name": "two-paraboloids", "n_dim": 4}
            assert (written["samo"]["seed"], written["samo"]["population_size"]) == (7, 60)
        # samo evaluate reads the same problem from either file, the
        # quarter-car's projection included
        x = ",".join(["0.001"] * payload["problem"]["n_dim"])
        capsys.readouterr()
        for path in (config_path, first / "config.json"):
            assert main(["evaluate", "--config", str(path), "--x", x]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2 and printed[0] == printed[1]


class TestDefaultConfig:
    def test_default_shipped_config_full_run(self, tmp_path):
        config = Path(__file__).parent.parent / "configs" / "default.json"
        out = tmp_path / "default_run"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["total_evaluations"] <= 120 + 20
        for j in range(len(metrics["rounds"])):
            assert (out / f"samples_round_{j}.csv").exists()
            assert (out / f"front_round_{j}.csv").exists()
            assert (out / f"surrogate_round_{j}.json").exists()
        assert (out / "projection_matrix.csv").exists()
        assert (out / "final_front.csv").exists()


class TestCmdFront:
    @staticmethod
    def combined(out: Path) -> tuple:
        """The data rows of `samo front`'s combined.csv, split by their
        kind column, and the run's metrics."""
        assert main(["front", str(out)]) == 0
        rows = [r.split(",") for r in (out / "combined.csv").read_text().strip().splitlines()[1:]]
        kinds = {kind: [r for r in rows if r[1] == kind] for kind in ("sample", "front", "final")}
        return kinds, json.loads((out / "metrics.json").read_text())

    def test_combined_row_count_identity(self, tmp_path, capsys):
        config_path = write_config(tmp_path, CHEAP_CONFIG)
        out = tmp_path / "run"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        kinds, metrics = self.combined(out)
        assert len(kinds["sample"]) == sum(r["new_samples"] for r in metrics["rounds"])
        assert len(kinds["sample"]) == metrics["total_evaluations"]
        assert len(kinds["front"]) == sum(r["front_size"] for r in metrics["rounds"])
        assert len(kinds["final"]) == metrics["final_front_size"]
        # every round index appears
        rounds_seen = {int(r[0]) for r in kinds["sample"] + kinds["front"]}
        assert rounds_seen == set(range(len(metrics["rounds"])))

    def test_combined_keeps_the_failed_round_samples(self, tmp_path, capsys):
        # no descent start turns critical in round 0: in one iteration on
        # the RBF, nor in 50 on the network
        for surrogate, iterations in (("rbf", 1), ("mlp", 50)):
            payload = json.loads(CHEAP_DEMO.read_text())
            payload["samo"].update(
                surrogate=surrogate, optimizer="mgda-multistart", mgda={"max_iterations": iterations}
            )
            config_path = write_config(tmp_path, payload)
            out = tmp_path / surrogate
            assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
            kinds, metrics = self.combined(out)
            assert metrics["rounds"] == [] and metrics["failed_round"]["index"] == 0
            assert len(kinds["sample"]) == metrics["total_evaluations"] == 10
            assert {r[0] for r in kinds["sample"]} == {"0"}
            assert kinds["front"] == []
            assert len(kinds["final"]) == metrics["final_front_size"]

    def test_missing_artifacts_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["front", str(empty)]) == 1
        metrics = empty / "metrics.json"
        err = capsys.readouterr().err
        assert err == f"error: cannot read run metrics {metrics}: No such file or directory\n"

    @pytest.mark.parametrize(
        "damage",
        [
            "empty-final-front",
            "missing-final-front",
            "metrics-not-utf-8",
            "metrics-a-directory",
            "metrics-not-json",
            "truncated-row",
            "truncated-final-row",
        ],
    )
    def test_unreadable_artifact_exits_1(self, tmp_path, capsys, damage):
        config_path = write_config(tmp_path, CHEAP_CONFIG)
        out = tmp_path / "run"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        metrics = out / "metrics.json"
        samples = out / "samples_round_0.csv"
        if damage == "empty-final-front":
            (out / "final_front.csv").write_text("")
        elif damage == "missing-final-front":
            (out / "final_front.csv").unlink()
        elif damage == "metrics-not-utf-8":
            metrics.write_bytes(b"\xff" + metrics.read_bytes())
        elif damage == "metrics-a-directory":
            metrics.unlink()
            metrics.mkdir()
        elif damage == "metrics-not-json":
            metrics.write_text(metrics.read_text()[:-2])
        else:  # the last row loses its last value, and its line ending or not
            path, end = (samples, "") if damage == "truncated-row" else (out / "final_front.csv", "\n")
            text = path.read_text()
            path.write_text(text[: text.rindex(",")] + end)
        capsys.readouterr()
        assert main(["front", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if damage.startswith("metrics"):
            assert f"run metrics {metrics}" in err and err.count(str(metrics)) == 1
        if damage == "missing-final-front":
            final = out / "final_front.csv"
            assert err == f"error: cannot read point file {final}: No such file or directory\n"
        assert not (out / "combined.csv").exists()

    @pytest.mark.parametrize("target", ["missing/c.csv", "."], ids=["missing-directory", "a-directory"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, target):
        config_path = write_config(tmp_path, CHEAP_CONFIG)
        out = tmp_path / "run"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["front", str(out), "--out", str(tmp_path / target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()


# a study cell whose batch size exceeds the budget; only `samo study`
# builds the cells' configs
BAD_STUDY_CELL = {"study": {"sizes": [4, 30], "surrogates": ["rbf"], "repetitions": 1}}


class TestCmdStudy:
    def test_study_table(self, tmp_path):
        config_path = write_config(tmp_path, CHEAP_CONFIG)
        out = tmp_path / "study"
        assert main(["study", "--config", str(config_path), "--out", str(out)]) == 0
        lines = (out / "study.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["batch_size", "surrogate", "repetition", "rounds"]
        assert len(lines) == 1 + 2  # sizes 4 and 6, one surrogate, one repetition

    @pytest.mark.parametrize(
        "override",
        [
            BAD_STUDY_CELL,
            {"study": {"sizes": [5.7, 10], "surrogates": ["rbf"], "repetitions": 1}},
            {"study": {"sizes": [4], "surrogates": "rbf"}},
            {"samo": {**CHEAP_CONFIG["samo"], "moea": {"eta_mutation": -1}}},
            {"samo": {**CHEAP_CONFIG["samo"], "rbf": {"sigma": 0}}},
            {"problem": {"name": "zdt1", "n_dim": 1}},
            {"problem": {"name": "zdt1", "n_dim": 3, "half_width": 0.5}},
            {"samo": {**CHEAP_CONFIG["samo"], "seed": -2}},
            {"problem": {"name": "mbs", "projection_seed": -5}},
            {"problem": {"name": "mbs", "n_dim": 3, "max_swing": 1.5}},
            # 2*pi*frequency*t overflows, and math.sin of inf raises
            {
                "problem": {
                    "name": "mbs", "n_dim": 3, "horizon": {"te": 0.01}, "excitation": {"frequency": 1e308}
                }
            },
            # keys of a config.json written while the two were options
            {"samo": {"normalize_hausdorff": False}},
            {"samo": {"mgda": {"backtracking": True}}},
            # step counts that are infinite or above problems.MAX_STEPS
            {"problem": {"name": "mbs", "n_dim": 3, "horizon": {"te": 1e308, "dt": 1e-300}}},
            {"problem": {"name": "mbs", "n_dim": 3, "horizon": {"t0": -1e308, "te": 1e308}}},
            {"problem": {"name": "mbs", "n_dim": 3, "horizon": {"dt": 1e-9}}},
            # dimensions above problems.MAX_DIM
            {"problem": {"name": "mbs", "n_dim": MAX_DIM + 1}},
            {"problem": {"name": "two-paraboloids", "n_dim": MAX_DIM + 1}},
            {"problem": {"name": "zdt1", "n_dim": MAX_DIM + 1}},
            # the amplitudes need a horizon of at least two steps
            {"problem": {"name": "mbs", "n_dim": 3, "horizon": {"te": 0.0001}}},
            # half-widths that give no finite positive projection scale
            {"problem": {"name": "mbs", "n_dim": 3, "half_width": 1e308}},
            {"problem": {"name": "mbs", "n_dim": 3, "half_width": 0}},
            # round 0 fits the surrogate on its batch alone
            {"samo": {**CHEAP_CONFIG["samo"], "surrogate": "mlp", "batch_size": 4}},
            {"samo": {**CHEAP_CONFIG["samo"], "batch_size": 1}},
            # 10 samples split at 0.95 leave no training row
            {
                "samo": {
                    **CHEAP_CONFIG["samo"],
                    "surrogate": "mlp",
                    "batch_size": 10,
                    "train": {"validation_fraction": 0.95},
                }
            },
        ],
    )
    def test_bad_config_exits_2_before_any_evaluation(self, tmp_path, capsys, monkeypatch, override):
        import samo.driver

        def fail(*args, **kwargs):
            raise AssertionError("evaluated before the config was rejected")

        monkeypatch.setattr(samo.driver, "evaluate_batch", fail)
        monkeypatch.setattr(QuarterCarEvaluator, "__call__", fail)
        config_path = write_config(tmp_path, {**CHEAP_CONFIG, **override})
        for command in ("study",) if override is BAD_STUDY_CELL else ("run", "study", "evaluate"):
            out = tmp_path / command
            argv = [command, "--config", str(config_path)]
            assert main(argv if command == "evaluate" else [*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()

    def test_study_section_is_read_by_study_alone(self, tmp_path, capsys, monkeypatch):
        """cheap_demo with a budget of 10: its study size 20 is no config for
        `samo study`, which stops before any evaluation, while `samo run` and
        `samo evaluate` do not build the study cells."""
        import samo.driver

        payload = json.loads(CHEAP_DEMO.read_text())
        payload["samo"]["budget"] = 10
        config_path = write_config(tmp_path, payload)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
        assert main(["evaluate", "--config", str(config_path)]) == 0
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise AssertionError("evaluated before the config was rejected")

        monkeypatch.setattr(samo.driver, "evaluate_batch", fail)
        out = tmp_path / "study"
        assert main(["study", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: study.sizes entry 20: ") and err.count("\n") == 1
        assert not out.exists()

    def test_rerun_from_config_json_same_table(self, tmp_path):
        config_path = write_config(tmp_path, CHEAP_CONFIG)
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["study", "--config", str(config_path), "--out", str(first), "--seed", "5"]) == 0
        assert main(["study", "--config", str(first / "config.json"), "--out", str(again)]) == 0
        assert (first / "config.json").read_bytes() == (again / "config.json").read_bytes()
        tables = []
        for out in (first, again):
            rows = list(csv.DictReader((out / "study.csv").read_text().splitlines()))
            for row in rows:
                del row["total_time"], row["mean_round_time"]
            tables.append(rows)
        assert len(tables[0]) == 2 and tables[0] == tables[1]

    def test_every_cell_failing_exits_1(self, tmp_path, capsys):
        # one MGDA iteration is too few for any start to turn critical
        payload = json.loads(CHEAP_DEMO.read_text())
        payload["samo"].update(optimizer="mgda-multistart", mgda={"max_iterations": 1})
        payload["study"]["sizes"] = [10]
        config_path = write_config(tmp_path, payload)
        out = tmp_path / "study"
        assert main(["study", "--config", str(config_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: 1 of 1 study cells failed\n"
        lines = (out / "study.csv").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("batch_size,")

    def test_study_requires_sizes(self, tmp_path):
        payload = {"problem": {"name": "two-paraboloids"}}
        config_path = write_config(tmp_path, payload)
        assert main(["study", "--config", str(config_path), "--out", str(tmp_path / "s")]) == 2

    def test_full_cross_product_eight_rows(self, tmp_path):
        payload = {
            "problem": {"name": "two-paraboloids", "n_dim": 4},
            "samo": {
                "budget": 30,
                "batch_size": 5,
                "h_min": 0.05,
                "population_size": 12,
                "moea": {"generations": 8},
                "train": {"epochs": 60, "patience": 60},
                "seed": 5,
            },
            "study": {"sizes": [5, 10, 20, 30], "surrogates": ["mlp", "rbf"], "repetitions": 1},
        }
        config_path = write_config(tmp_path, payload)
        out = tmp_path / "study"
        assert main(["study", "--config", str(config_path), "--out", str(out)]) == 0
        lines = (out / "study.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 8
        cells = {(row.split(",")[0], row.split(",")[1]) for row in lines[1:]}
        assert cells == {(str(s), kind) for s in (5, 10, 20, 30) for kind in ("mlp", "rbf")}

    def test_study_rounds_match_single_run_metrics(self, tmp_path):
        # the study derives each cell's seed deterministically, so re-running
        # one cell as a standalone run must agree with the table
        from samo.cli import RunConfig
        from samo.driver import derive_seed, samo_run
        from dataclasses import replace

        payload = {
            "problem": {"name": "two-paraboloids", "n_dim": 4},
            "samo": {
                "budget": 20,
                "batch_size": 5,
                "h_min": 0.05,
                "surrogate": "rbf",
                "population_size": 12,
                "moea": {"generations": 8},
                "seed": 9,
            },
            "study": {"sizes": [10], "surrogates": ["rbf"], "repetitions": 1},
        }
        config_path = write_config(tmp_path, payload)
        out = tmp_path / "study"
        assert main(["study", "--config", str(config_path), "--out", str(out)]) == 0
        row = (out / "study.csv").read_text().strip().splitlines()[1].split(",")
        table_rounds = int(row[3])

        config = RunConfig.from_file(config_path)
        cell_cfg = replace(
            config.samo, batch_size=10, seed=derive_seed(config.samo.seed, 3, 10, 0)
        )
        run_dir = tmp_path / "cell"
        samo_run(config.problem, cell_cfg, run_dir=run_dir)
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert len(metrics["rounds"]) == table_rounds


class TestCmdEvaluate:
    def test_default_point_is_origin(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {"problem": {"name": "two-paraboloids", "n_dim": 2}})
        assert main(["evaluate", "--config", str(config_path)]) == 0
        values = [float(v) for v in capsys.readouterr().out.strip().split(",")]
        assert values == pytest.approx([0.5, 0.5])  # ||0 - a||^2 with a = (.5, .5)

    def test_explicit_point(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {"problem": {"name": "two-paraboloids", "n_dim": 2}})
        assert main(["evaluate", "--config", str(config_path), "--x", "0.5,0.5"]) == 0
        values = [float(v) for v in capsys.readouterr().out.strip().split(",")]
        assert values == pytest.approx([0.0, 2.0])

    def test_bad_point_rejected(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {"problem": {"name": "two-paraboloids", "n_dim": 2}})
        assert main(["evaluate", "--config", str(config_path), "--x", "a,b"]) == 2

    @pytest.mark.parametrize(
        "x, position, entry", [("0,,0,0", 2, ""), ("0,0,0,x", 4, "x"), ("1e,0,0,0", 1, "1e")]
    )
    def test_entry_that_is_no_number_named_by_position(self, capsys, x, position, entry):
        assert main(["evaluate", "--config", str(CHEAP_DEMO), "--x", x]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --x entry {position} is not a number: {entry!r}\n"
        assert captured.out == ""

    def test_point_on_the_boundary_evaluated(self, capsys):
        assert main(["evaluate", "--config", str(CHEAP_DEMO), "--x", "1,-1,0,0"]) == 0
        values = [float(v) for v in capsys.readouterr().out.strip().split(",")]
        assert values == pytest.approx([3.0, 3.0])  # ||x -/+ a||^2 with a = 0.5

    @pytest.mark.parametrize("x", ["nan,0,0,0", "inf,0,0,0", "50,0,0,0", "0,0", "0,0,0,0,0"])
    def test_point_outside_the_box_rejected(self, capsys, x):
        assert main(["evaluate", "--config", str(CHEAP_DEMO), "--x", x]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --x must be a point of the problem's box, got {x}\n"
        assert captured.out == ""

    def test_horizon_without_a_whole_step_exits_2(self, tmp_path, capsys):
        payload = {"problem": {"name": "mbs", "n_dim": 3, "horizon": {"te": 0.00001}}}
        config_path = write_config(tmp_path, payload)
        assert main(["evaluate", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: horizon t0 = 0 s to te = 1e-05 s holds no step of dt = 0.0001 s\n"
        )
        assert captured.out == ""

    # only step counts that no evaluation could reach: were the cap lost, a
    # finite count such as dt = 1e-9's 2e9 steps would be evaluated here
    @pytest.mark.parametrize("horizon", [{"te": 1e308, "dt": 1e-300}, {"t0": -1e308, "te": 1e308}])
    def test_horizon_of_too_many_steps_exits_2(self, tmp_path, capsys, horizon):
        payload = {"problem": {"name": "mbs", "n_dim": 3, "horizon": horizon}}
        config_path = write_config(tmp_path, payload)
        out = tmp_path / "run"
        for command in (["evaluate"], ["run", "--out", str(out)]):
            assert main([*command, "--config", str(config_path)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: horizon t0 = ") and captured.err.count("\n") == 1
            assert "holds inf steps of dt = " in captured.err
            assert captured.out == ""
        assert not out.exists()

    def test_diverging_model_exits_2_in_run_and_evaluate(self, tmp_path, capsys):
        # the file loads, but the first RK4 step of so light a body overflows
        problem = {"name": "mbs", "n_dim": 3, "horizon": {"te": 0.01}}
        config_path = write_config(tmp_path, {"problem": {**problem, "params": {"sprung_mass": 1e-300}}})
        out = tmp_path / "run"
        for command in (["evaluate"], ["run", "--out", str(out)]):
            assert main([*command, "--config", str(config_path)]) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: non-finite state at step 1 (t = 0.0001 s)\n"
            assert captured.out == ""

    @pytest.mark.parametrize("name", ["mbs", "two-paraboloids", "zdt1"])
    def test_n_dim_above_the_cap_exits_2(self, tmp_path, capsys, name):
        config_path = write_config(tmp_path, {"problem": {"name": name, "n_dim": MAX_DIM + 1}})
        out = tmp_path / "run"
        for command in (["evaluate"], ["run", "--out", str(out)]):
            assert main([*command, "--config", str(config_path)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "n_dim " in captured.err and f" and {MAX_DIM:,}, got {MAX_DIM + 1}" in captured.err
            assert captured.out == ""
        assert not out.exists()

    def test_analytic_section_with_quarter_car_keys_exits_2(self, tmp_path, capsys):
        payload = {"problem": {"name": "zdt1", "n_dim": 3, "half_width": 0.5}}
        config_path = write_config(tmp_path, payload)
        assert main(["evaluate", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == "error: unknown keys in problem: ['half_width']\n"


@pytest.mark.parametrize("command", ["run", "study"])
@pytest.mark.parametrize("nested", [False, True], ids=["file", "below-a-file"])
def test_out_naming_a_file_exits_2_naming_out(tmp_path, capsys, command, nested):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "run" if nested else taken
    config_path = write_config(tmp_path, CHEAP_CONFIG)
    assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out must name a directory, got {out}: ")
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["run", "study", "evaluate"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_unreadable_config_exits_2_naming_the_file(tmp_path, capsys, command, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf-8":
        path.write_bytes(b"\xff{}")
    out = tmp_path / "out"
    argv = [command, "--config", str(path)] + ([] if command == "evaluate" else ["--out", str(out)])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {path}: ")
    assert not out.exists()
