"""Tests for the command-line interface: exit codes, files, and config handling."""

import csv
import json
import math
import re
from dataclasses import asdict
from pathlib import Path

import pytest

from stablemix import cli
from stablemix.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_RUNTIME,
    SCHEMA_VERSION,
    WORK_BUDGET,
    load_config,
    main,
)
from stablemix.criteria import CriterionVerdict
from stablemix.empirics import builtin_scenarios, run_criterion, run_scenario


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


TINY_SCENARIO = {
    "builtin": "cauchy-scalemix",
    "n_grid": [64, 256],
    "replicates": 300,
    "checkers": [],
}


class TestExitCodeContract:
    def test_constants_are_distinct_and_stable(self):
        codes = (EXIT_PASS, EXIT_RUNTIME, EXIT_CONFIG, EXIT_FAIL, EXIT_INCONCLUSIVE)
        assert codes == (0, 1, 2, 3, 4), f"exit-code contract drifted: {codes}"


class TestListScenarios:
    def test_lists_every_builtin_with_description(self, capsys):
        code = main(["list-scenarios"])
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        for name in builtin_scenarios():
            assert f"{name}:" in out, f"builtin {name} missing from listing"


class TestVerifyIdentity:
    def test_default_tolerance_passes(self, capsys):
        code = main(["verify-identity"])
        out = capsys.readouterr().out
        assert code == EXIT_PASS, f"identity verification should pass, output: {out}"
        assert "residual" in out

    def test_tight_tolerance_still_passes(self):
        assert main(["verify-identity", "--tol", "1e-12"]) == EXIT_PASS

    def test_perturbed_quadrature_fails(self, capsys):
        code = main(["verify-identity", "--perturb", "1.01"])
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME, "a 1% perturbation must break the identity"
        assert "failed" in err


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "absent.json"), "--seed", "1"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_reports_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"scenario": "example1",\n  "seed": }', encoding="utf-8")
        code = main(["simulate", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "line 2" in err and "column" in err, f"diagnostic lacks position: {err}"

    def test_top_level_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "example1", "seed": 1, "sede": 2})
        code = main(["simulate", "--config", cfg])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "'sede'" in err, f"unknown key not named: {err}"

    def test_top_level_stat_config_is_unknown(self, tmp_path, capsys):
        # Tolerances belong to the scenario: config.scenario.stat_config.
        cfg = write_config(tmp_path, {"scenario": "example1", "seed": 1, "stat_config": {"delta": 0.1}})
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "config: unknown key(s) 'stat_config'" in err, err

    def test_scenario_unknown_key_names_field_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"scenario": {"builtin": "example1", "replciates": 5}, "seed": 1},
        )
        code = main(["simulate", "--config", cfg])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "config.scenario" in err and "'replciates'" in err

    def test_unknown_builtin_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "no-such-thing", "seed": 1})
        code = main(["simulate", "--config", cfg])
        assert code == EXIT_CONFIG
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_base_kind(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "scenario": {
                    "id": "x",
                    "law": {"base": {"kind": "triangular", "lo": 0, "hi": 1}},
                    "norming": {"alpha": 2.0},
                },
                "seed": 1,
            },
        )
        code = main(["simulate", "--config", cfg])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "config.scenario.law.base.kind" in err

    def test_unknown_checker_name(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"scenario": {"builtin": "example1", "checkers": ["sec6"]}, "seed": 1},
        )
        code = main(["simulate", "--config", cfg])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "'sec6'" in err

    def test_missing_seed_everywhere(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("STABLEMIX_SEED", raising=False)
        cfg = write_config(tmp_path, {"scenario": "example1"})
        code = main(["simulate", "--config", cfg])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "seed" in err

    def test_unknown_criterion_exits_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "example1", "seed": 1})
        code = main(["check", "sec6", "--config", cfg])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "unknown criterion" in err

    def test_bad_thread_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "example1", "seed": 1, "threads": 0})
        code = main(["simulate", "--config", cfg])
        assert code == EXIT_CONFIG
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, fragment",
        [
            ({"id": "bad id!", "law": {"base": {"kind": "point", "value": 0}}, "norming": {"alpha": 2.0}}, "scenario ids"),
            ({"id": "x", "law": {"base": {"kind": "point"}}, "norming": {"alpha": 2.0}}, "missing required"),
            ({"id": "x", "law": {"base": {"kind": "point", "value": 0}}, "norming": {}}, "missing required"),
            (
                {"id": "x", "law": {"base": {"kind": "point", "value": 0}, "prior": {"kind": "scale_gamma"}}, "norming": {"alpha": 2.0}},
                "config.scenario.law.prior.kind: unknown prior",
            ),
            (
                {"id": "x", "law": {"base": {"kind": "cauchy", "location": 0, "scale": 1}, "prior": {"kind": "scale_atoms", "atoms": [[1.0, 0.5], [2.0]]}}, "norming": {"alpha": 1.0}},
                "config.scenario.law.prior.atoms[1]: expected a [value, weight] pair",
            ),
            ({"builtin": "example1", "joint_grid": [[0, 0], [1.0]]}, "config.scenario.joint_grid[1]: expected a [t, s] pair"),
            (
                {"id": "x", "law": {"base": {"kind": "point", "value": 0}}, "norming": {"alpha": 2.0, "scale": "2"}},
                "config.scenario.norming.scale: expected a number",
            ),
            (
                {"id": "x", "law": {"base": {"kind": "stable", "alpha": 2.5, "gamma": 0, "c": 1, "beta": 0}}, "norming": {"alpha": 2.0}},
                "config.scenario.law.base: ",
            ),
            # Unhashable kinds are unknown kinds, not a TypeError traceback.
            ({"id": "x", "law": {"base": {"kind": []}}, "norming": {"alpha": 2.0}}, "config.scenario.law.base.kind: unknown family"),
            (
                {"id": "x", "law": {"base": {"kind": "point", "value": 0}, "prior": {"kind": {"a": 1}}}, "norming": {"alpha": 2.0}},
                "config.scenario.law.prior.kind: unknown prior",
            ),
            # The path of a bad t_grid entry is printed once.
            ({"builtin": "example1", "t_grid": [0.5, "x"]}, "config error: config.scenario.t_grid[1]: expected a number"),
            # Sample sizes below 1 are config errors, not sampler failures.
            ({"builtin": "example1", "replicates": 0}, "config error: config.scenario.replicates: must be at least 1, got 0"),
            ({"builtin": "example1", "n_grid": [0, 8]}, "config error: config.scenario.n_grid[0]: must be at least 1, got 0"),
            # A checker that cannot run is rejected before anything is simulated.
            (
                {"builtin": "gauss-fixed", "checkers": ["stable_mixture"]},
                "config error: config.scenario.checkers: "
                "scenario 'gauss-fixed' does not define the tail index 'stable_mixture' needs",
            ),
            (
                {"builtin": "pareto-mix", "alpha": 1.0},
                "config error: config.scenario.checkers: tail index must lie in (0, 1) or (1, 2), away from 1, got 1.0",
            ),
            # json accepts NaN and Infinity tokens; a tolerance or tau must be finite and positive.
            (
                {"builtin": "gauss-fixed", "stat_config": {"delta": math.nan}},
                "config error: config.scenario.stat_config: delta must be finite and positive, got nan",
            ),
            ({"builtin": "gauss-fixed", "tau": math.nan}, "config error: config.scenario: tau must be finite and positive, got nan"),
            ({"builtin": "gauss-fixed", "tau": math.inf}, "config error: config.scenario: tau must be finite and positive, got inf"),
        ],
    )
    def test_inline_scenario_field_validation(self, tmp_path, capsys, scenario, fragment):
        cfg = write_config(tmp_path, {"scenario": scenario, "seed": 1})
        code = main(["simulate", "--config", cfg])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert fragment in err, f"expected {fragment!r} in diagnostic, got: {err}"

    @pytest.mark.parametrize(
        "argv, env_seed, payload, fragment",
        [
            (["simulate", "--seed", "-1"], None, {"scenario": "point-mass"}, "config error: --seed: must be at least 0, got -1"),
            (["check", "uan"], "-3", {"scenario": "point-mass"}, "config error: STABLEMIX_SEED: must be at least 0, got -3"),
            (["simulate"], None, {"scenario": "point-mass", "seed": -1}, "config error: config.seed: must be at least 0, got -1"),
            (
                ["simulate"],
                None,
                {"scenario": {"builtin": "point-mass", "seed": -2}},
                "config error: config.scenario.seed: must be at least 0, got -2",
            ),
            (
                ["check", "row_stable"],
                None,
                {"scenario": "gauss-fixed", "seed": 1},
                "config error: check: scenario 'gauss-fixed' does not define the tail index 'row_stable' needs",
            ),
        ],
    )
    def test_argument_and_seed_validation(self, tmp_path, capsys, monkeypatch, argv, env_seed, payload, fragment):
        if env_seed is None:
            monkeypatch.delenv("STABLEMIX_SEED", raising=False)
        else:
            monkeypatch.setenv("STABLEMIX_SEED", env_seed)
        cfg = write_config(tmp_path, payload)
        code = main(argv + ["--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert fragment in err, f"expected {fragment!r} in diagnostic, got: {err}"


class TestSeedResolution:
    def test_flag_beats_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv("STABLEMIX_SEED", raising=False)
        cfg = write_config(tmp_path, {"scenario": "example1", "seed": 3})
        resolved = load_config(cfg, seed_flag=9)
        assert resolved.seed == 9

    def test_env_var_beats_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STABLEMIX_SEED", "17")
        cfg = write_config(tmp_path, {"scenario": "example1", "seed": 3})
        resolved = load_config(cfg)
        assert resolved.seed == 17

    def test_config_seed_used_when_nothing_else_given(self, tmp_path, monkeypatch):
        monkeypatch.delenv("STABLEMIX_SEED", raising=False)
        cfg = write_config(tmp_path, {"scenario": "example1", "seed": 3})
        resolved = load_config(cfg)
        assert resolved.seed == 3


class TestReadmeConfigs:
    def test_every_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        examples = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert len(examples) >= 3, "the README's config examples were not found"
        for j, text in enumerate(examples):
            path = tmp_path / f"example{j}.json"
            path.write_text(text, encoding="utf-8")
            load_config(str(path))


class TestWorkBudget:
    """A grid asking for more than WORK_BUDGET replicates x rows x summed row
    lengths is a config error found while parsing; nothing is ever drawn."""

    @pytest.fixture(autouse=True)
    def _never_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an over-budget config reached the runner")

        monkeypatch.setattr(cli, "run_scenario", refuse)
        monkeypatch.setattr(cli, "run_criterion", refuse)

    @pytest.mark.parametrize(
        "argv, scenario, path",
        [
            (["simulate"], {"builtin": "example1", "n_grid": [64, 10**12]}, "config.scenario.n_grid"),
            (["simulate"], {"builtin": "gauss-fixed", "replicates": 10**9}, "config.scenario.n_grid"),
            (["check", "uan"], {"builtin": "pareto-mix", "checker_n_grid": [100, 10**10]}, "config.scenario.checker_n_grid"),
            (["simulate"], {"builtin": "pareto-mix", "checker_replicates": 10**6}, "config.scenario.checker_n_grid"),
        ],
    )
    def test_over_budget_grid_exits_config(self, tmp_path, capsys, argv, scenario, path):
        cfg = write_config(tmp_path, {"scenario": scenario, "seed": 1})
        code = main(argv + ["--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"config error: {path}: " in err and "work budget" in err, err
        assert not (tmp_path / "out").exists()

    def test_budget_is_inclusive_and_joint_counts_two_rows(self, tmp_path):
        # example1 simulates two rows per replicate.
        at_cap = {"builtin": "gauss-fixed", "n_grid": [WORK_BUDGET // 1000], "replicates": 1000}
        load_config(write_config(tmp_path, {"scenario": at_cap, "seed": 1}))
        joint = {"builtin": "example1", "n_grid": [WORK_BUDGET // 1000], "replicates": 1000}
        with pytest.raises(cli.ConfigError, match=r"config\.scenario\.n_grid: 1000 replicates x 2 row"):
            load_config(write_config(tmp_path, {"scenario": joint, "seed": 1}))

    @pytest.mark.parametrize("name", builtin_scenarios())
    def test_builtins_stay_within_budget(self, tmp_path, name):
        load_config(write_config(tmp_path, {"scenario": name, "seed": 1}))


class TestSimulate:
    def test_writes_report_and_csv_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": dict(TINY_SCENARIO), "seed": 5})
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == EXIT_PASS, f"simulate failed: {out}"

        report_path = tmp_path / "out" / "cauchy-scalemix.report.json"
        cf_path = tmp_path / "out" / "cauchy-scalemix.cf.csv"
        quantities_path = tmp_path / "out" / "cauchy-scalemix.quantities.csv"
        assert report_path.exists() and cf_path.exists() and quantities_path.exists()

        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["seed"] == 5
        expected_keys = {
            "schema_version",
            "scenario",
            "seed",
            "config",
            "cf_tables",
            "sup_distance",
            "joint_table",
            "identity",
            "quantities",
            "verdicts",
            "runtimes",
        }
        assert set(report) == expected_keys, f"report keys drifted: {sorted(report)}"

        with cf_path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "t", "re", "im", "target_re", "target_im", "abs_error"]
        n_points = len(report["cf_tables"][0]["points"])
        assert len(rows) == 1 + 2 * n_points, "one cf row per (n, t) pair expected"

        with quantities_path.open(newline="", encoding="utf-8") as handle:
            qrows = list(csv.reader(handle))
        assert len(qrows) == 1 + 2, "one quantities row per n expected"
        assert qrows[0][0] == "n"

    def test_inline_scenario_with_target_and_checker(self, tmp_path, capsys):
        scenario = {
            "id": "my-cauchy-mix",
            "law": {
                "base": {"kind": "cauchy", "location": 0.0, "scale": 1.0},
                "prior": {"kind": "scale_atoms", "atoms": [[1.0, 0.5], [2.0, 0.5]]},
            },
            "norming": {"alpha": 1.0},
            "n_grid": [64, 256],
            "replicates": 300,
            "t_grid": [-2.0, -1.0, 0.0, 1.0, 2.0],
            "checkers": ["cauchy_mixture"],
            "target": {
                "atoms": [[1.0, 0.0, 1.0, 0.0, 0.5], [1.0, 0.0, 2.0, 0.0, 0.5]]
            },
        }
        cfg = write_config(tmp_path, {"scenario": scenario, "seed": 4})
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_PASS, f"inline simulate failed: {captured.err}"

        report = json.loads(
            (tmp_path / "my-cauchy-mix.report.json").read_text(encoding="utf-8")
        )
        verdicts = {v["name"]: v["holds"] for v in report["verdicts"]}
        assert verdicts == {"cauchy_mixture": True}
        ts = [p["t"] for p in report["cf_tables"][0]["points"]]
        assert ts == [-2.0, -1.0, 0.0, 1.0, 2.0], f"custom t grid not honored: {ts}"
        assert "pass" in captured.out

    def test_report_matches_library_call(self, tmp_path, monkeypatch):
        # Every scenario key, the grids and tolerances included, reaches the
        # spec: the library call on load_config(cfg).spec rebuilds both files.
        monkeypatch.delenv("STABLEMIX_SEED", raising=False)
        scenario = dict(
            TINY_SCENARIO,
            t_grid=[-1.5, 0.0, 0.5, 3.0],
            joint=True,
            joint_grid=[[0.0, 0.0], [0.5, -2.0], [1.5, 1.0]],
            stat_config={"delta": 0.2, "prob_bound": 0.3, "margin": 0.02},
            checkers=["uan"],
            checker_n_grid=[100, 400],
            checker_replicates=100,
        )
        cfg = write_config(tmp_path, {"scenario": scenario, "seed": 7})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_PASS
        assert main(["check", "uan", "--config", cfg, "--out", str(tmp_path)]) in (
            EXIT_PASS,
            EXIT_FAIL,
            EXIT_INCONCLUSIVE,
        )
        read = lambda name: json.loads((tmp_path / name).read_text(encoding="utf-8"))
        as_json = lambda obj: json.loads(json.dumps(obj))

        spec = load_config(cfg).spec
        report = read("cauchy-scalemix.report.json")
        direct = as_json({"schema_version": SCHEMA_VERSION, **asdict(run_scenario(spec, 7))})
        del report["runtimes"], direct["runtimes"]
        assert report == direct, "CLI must be a thin shell over the library run"
        assert [p["t"] for p in report["cf_tables"][0]["points"]] == scenario["t_grid"]
        assert [[r["t"], r["s"]] for r in report["joint_table"]] == scenario["joint_grid"]

        verdict = read("cauchy-scalemix.uan.verdict.json")
        expected = as_json(asdict(run_criterion(spec, "uan", 7)))
        assert verdict == {
            "schema_version": SCHEMA_VERSION,
            "scenario": "cauchy-scalemix",
            "criterion": expected["name"],
            "seed": 7,
            "holds": expected["holds"],
            "evidence": expected["evidence"],
            "estimated_limit": expected["estimated_limit"],
        }

    def test_threads_flag_leaves_results_unchanged(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": dict(TINY_SCENARIO), "seed": 5})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_PASS
        assert (
            main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"), "--threads", "4"])
            == EXIT_PASS
        )
        read = lambda d: json.loads(
            (tmp_path / d / "cauchy-scalemix.report.json").read_text(encoding="utf-8")
        )
        one, four = read("a"), read("b")
        for key in ("cf_tables", "sup_distance", "quantities", "joint_table"):
            assert one[key] == four[key], f"{key} changed under --threads 4"


class TestCheck:
    def test_designed_checker_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "gauss-expmix", "seed": 11})
        code = main(["check", "gaussian_mixture", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_PASS, f"gaussian_mixture should pass on gauss-expmix: {out}"
        verdict = json.loads(
            (tmp_path / "gauss-expmix.gaussian_mixture.verdict.json").read_text(
                encoding="utf-8"
            )
        )
        assert verdict["holds"] is True
        assert verdict["schema_version"] == SCHEMA_VERSION
        assert verdict["criterion"] == "gaussian_mixture"

    def test_wrong_family_checker_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "gauss-expmix", "seed": 11})
        code = main(["check", "cauchy_mixture", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_FAIL, "a Gaussian mixture is not a Cauchy mixture"
        verdict = json.loads(
            (tmp_path / "gauss-expmix.cauchy_mixture.verdict.json").read_text(
                encoding="utf-8"
            )
        )
        assert verdict["holds"] is False
        assert "fail" in capsys.readouterr().out

    def test_underpowered_run_is_inconclusive(self, tmp_path, capsys):
        scenario = {
            "builtin": "gauss-expmix",
            "checker_n_grid": [400, 1600],
            "checker_replicates": 100,
        }
        cfg = write_config(tmp_path, {"scenario": scenario, "seed": 0})
        code = main(["check", "gaussian_mixture", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_INCONCLUSIVE, f"tiny run should be inconclusive: {out}"
        verdict = json.loads(
            (tmp_path / "gauss-expmix.gaussian_mixture.verdict.json").read_text(
                encoding="utf-8"
            )
        )
        assert verdict["holds"] is None
        assert "inconclusive" in out


class TestStrictJson:
    """A non-finite value must make the run fail, not reach a report as NaN."""

    def test_simulate_exits_runtime_on_nan(self, tmp_path, capsys, monkeypatch):
        real = cli.run_scenario

        def with_nan(*args, **kwargs):
            report = real(*args, **kwargs)
            report.quantities[0]["m_trunc"] = math.nan
            return report

        monkeypatch.setattr(cli, "run_scenario", with_nan)
        cfg = write_config(tmp_path, {"scenario": dict(TINY_SCENARIO), "seed": 3})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err
        assert not (tmp_path / "cauchy-scalemix.report.json").exists()

    def test_check_exits_runtime_on_nan(self, tmp_path, capsys, monkeypatch):
        def nan_verdict(spec, criterion, seed, config=None):
            return CriterionVerdict(criterion, True, {"statistic": math.nan})

        monkeypatch.setattr(cli, "run_criterion", nan_verdict)
        cfg = write_config(tmp_path, {"scenario": "gauss-expmix", "seed": 0})
        code = main(["check", "gaussian_mixture", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err
        assert not (tmp_path / "gauss-expmix.gaussian_mixture.verdict.json").exists()
