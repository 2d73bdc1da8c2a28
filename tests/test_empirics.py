"""Tests for empirical characteristic functions and scenario reports."""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from stablemix.characteristics import char_quantities
from stablemix.criteria import CRITERION_NAMES, DrawPanel, _combine_list
from stablemix.directing import (
    CauchyLaw,
    DirectingLaw,
    ScaleAtoms,
    SymmetricParetoLaw,
    UniformLaw,
    draw_replicates,
    sample_array_sums,
)
from stablemix.empirics import (
    DEFAULT_JOINT_POINTS,
    ScenarioReport,
    ScenarioSpec,
    TGrid,
    _run_checker,
    builtin_scenarios,
    empirical_cf,
    empirical_joint_cf,
    get_scenario,
    identity_residual,
    run_criterion,
    run_scenario,
)
from stablemix.stable import NormingSequence


LINEAR = NormingSequence(alpha=1.0)


class TestTGrid:
    """Validation of characteristic-function evaluation grids."""

    def test_default_is_the_standard_grid(self):
        grid = TGrid()
        assert grid.ndim == 1
        assert len(grid.points) == 41
        assert 0.0 in grid.points
        assert grid.points[0] == -5.0 and grid.points[-1] == 5.0

    def test_pair_grid_is_two_dimensional(self):
        grid = TGrid(((0.0, 0.0), (1.0, -1.0)))
        assert grid.ndim == 2
        assert grid.points == ((0.0, 0.0), (1.0, -1.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            TGrid(())

    def test_rejects_grid_without_origin(self):
        with pytest.raises(ValueError, match="origin"):
            TGrid((0.5, 1.0))
        with pytest.raises(ValueError, match="origin"):
            TGrid(((1.0, 0.0), (0.0, 1.0)))

    def test_rejects_nonfinite_points(self):
        with pytest.raises(ValueError, match="finite"):
            TGrid((0.0, math.inf))


class TestEmpiricalCf:
    """Pointwise empirical characteristic function averages."""

    def test_all_zero_samples_give_constant_one(self):
        values = empirical_cf(np.zeros(100), TGrid())
        np.testing.assert_array_equal(values, np.ones(41, dtype=complex))

    def test_value_at_zero_is_exactly_one(self):
        rng = np.random.default_rng(42)
        values = empirical_cf(rng.standard_normal(1000), TGrid((0.0, 1.0)))
        assert values[0] == 1.0 + 0.0j

    def test_cauchy_samples_approach_the_analytic_transform(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_cauchy(200_000)
        grid = TGrid()
        values = empirical_cf(samples, grid)
        targets = np.exp(-np.abs(np.array(grid.points)))
        sup = float(np.max(np.abs(values - targets)))
        assert sup <= 0.02, f"sup distance {sup} exceeds the Monte Carlo budget"

    def test_conjugate_symmetry_is_exact_on_symmetric_grids(self):
        rng = np.random.default_rng(3)
        grid = TGrid()
        values = empirical_cf(rng.exponential(1.0, 500), grid)
        points = np.array(grid.points)
        for j, t in enumerate(points):
            k = int(np.where(points == -t)[0][0])
            assert values[j] == np.conj(values[k]), (
                f"conjugate symmetry broken between t={t} and t={-t}"
            )

    def test_rejects_empty_samples_and_pair_grids(self):
        with pytest.raises(ValueError, match="nonempty"):
            empirical_cf(np.array([]), TGrid())
        with pytest.raises(ValueError, match="one dimensional"):
            empirical_cf(np.ones(3), TGrid(((0.0, 0.0), (1.0, 1.0))))


class TestEmpiricalJointCf:
    """Joint transform of the first two row sums."""

    @staticmethod
    def _rowsums(law, replicates=2000, n=512, seed=0):
        return sample_array_sums(law, LINEAR, n, 2, seed, replicates)

    def test_origin_is_exactly_one(self):
        rs = self._rowsums(DirectingLaw(CauchyLaw(0.0, 1.0)), replicates=200, n=64)
        values = empirical_joint_cf(rs, TGrid(DEFAULT_JOINT_POINTS))
        assert values[0] == 1.0 + 0.0j

    def test_fixed_cauchy_factorizes(self):
        # Shared fixed law: rows are independent standard Cauchy sums, so the
        # joint value at (1, 1) is close to e^{-2}.
        rs = self._rowsums(DirectingLaw(CauchyLaw(0.0, 1.0)))
        values = empirical_joint_cf(rs, TGrid(((0.0, 0.0), (1.0, 1.0))))
        assert abs(values[1] - math.exp(-2.0)) <= 0.05

    def test_scale_mixture_couples_the_rows(self):
        law = DirectingLaw(CauchyLaw(0.0, 1.0), ScaleAtoms(((1.0, 0.5), (2.0, 0.5))))
        rs = self._rowsums(law)
        grid = TGrid(((0.0, 0.0), (1.0, 1.0)))
        joint = empirical_joint_cf(rs, grid)[1]
        target = 0.5 * (math.exp(-2.0) + math.exp(-4.0))
        assert abs(joint - target) <= 0.05, f"joint value {joint} vs mixture {target}"
        marg1 = empirical_cf(rs[:, 0], TGrid((0.0, 1.0)))[1]
        marg2 = empirical_cf(rs[:, 1], TGrid((0.0, 1.0)))[1]
        gap = abs(joint - marg1 * marg2)
        assert gap >= 0.003, f"factorization gap {gap} should stay visibly positive"

    def test_needs_two_rows_and_a_pair_grid(self):
        rs = sample_array_sums(DirectingLaw(CauchyLaw(0.0, 1.0)), LINEAR, 32, 1, 0, 50)
        with pytest.raises(ValueError, match="at least 2 rows"):
            empirical_joint_cf(rs, TGrid(DEFAULT_JOINT_POINTS))
        rs2 = self._rowsums(DirectingLaw(CauchyLaw(0.0, 1.0)), replicates=50, n=32)
        with pytest.raises(ValueError, match="pairs"):
            empirical_joint_cf(rs2, TGrid())


class TestIdentityResidual:
    """Quadrature identity between the two transform representations."""

    def test_residual_is_tiny_on_the_standard_grid(self):
        assert identity_residual() <= 1e-8

    def test_perturbation_hook_is_a_working_negative_control(self):
        assert identity_residual(perturb=1.01) > 1e-3


class TestScenarioRegistry:
    def test_nine_builtins(self):
        names = builtin_scenarios()
        assert len(names) == 9
        assert names == tuple(sorted(names))
        expected = {
            "example1",
            "point-mass",
            "uniform-fixed",
            "gauss-fixed",
            "gauss-expmix",
            "cauchy-fixed",
            "cauchy-scalemix",
            "pareto-mix",
            "pareto-onesided",
        }
        assert set(names) == expected

    def test_unknown_name_lists_the_builtins(self):
        with pytest.raises(ValueError, match="builtins"):
            get_scenario("no-such-scenario")

    def test_every_scenario_has_a_target_at_zero(self):
        for name in builtin_scenarios():
            spec = get_scenario(name)
            assert spec.target_cf(0.0) == pytest.approx(1.0 + 0.0j), (
                f"scenario {name} target must be a characteristic function"
            )

    def test_unknown_criterion_is_rejected(self):
        with pytest.raises(ValueError, match="unknown criterion"):
            run_criterion(get_scenario("gauss-fixed"), "not-a-criterion", 0)


class TestRunScenario:
    """End-to-end scenario execution and report assembly."""

    @staticmethod
    def _fast(name, **overrides):
        spec = get_scenario(name)
        defaults = {"cf_n_grid": (64, 256), "cf_replicates": 300, "checkers": ()}
        defaults.update(overrides)
        return replace(spec, **defaults)

    def test_empty_row_grid_is_rejected(self):
        with pytest.raises(ValueError, match="n_grid must hold at least one row length"):
            run_scenario(self._fast("gauss-fixed", cf_n_grid=()), seed=0)

    def test_repeated_row_length_is_rejected(self):
        with pytest.raises(ValueError, match="repeats row length 64"):
            run_scenario(self._fast("gauss-fixed", cf_n_grid=(64, 16, 64)), seed=0)

    def test_report_tables_are_complete(self):
        rep = run_scenario(self._fast("gauss-fixed"), seed=4)
        assert rep.scenario == "gauss-fixed"
        assert [t["n"] for t in rep.cf_tables] == [64, 256]
        assert len(rep.cf_tables[0]["points"]) == 41
        first = rep.cf_tables[0]["points"][0]
        assert {"t", "re", "im", "target_re", "target_im", "abs_error"} <= set(first)
        assert [q["n"] for q in rep.quantities] == [64, 256]
        assert {"m_trunc", "m_smooth", "sigma2_trunc", "q_eps"} <= set(rep.quantities[0])
        assert rep.config["scenario"] == "gauss-fixed"
        assert rep.config["seed"] == 4
        assert "total" in rep.runtimes

    def test_runtimes_name_one_sampling_stage(self):
        rep = run_scenario(self._fast("gauss-fixed"), seed=4)
        assert list(rep.runtimes) == ["sample", "tables_n=64", "tables_n=256", "total"]

    def test_nonpositive_row_lengths_are_rejected(self):
        with pytest.raises(ValueError, match="n_grid: expected a positive integer, got 0"):
            run_scenario(self._fast("gauss-fixed", cf_n_grid=(64, 0)), seed=0)

    def test_example1_carries_identity_and_joint_sections(self):
        rep = run_scenario(self._fast("example1", cf_replicates=500), seed=2)
        assert rep.identity is not None
        assert rep.identity["residual"] <= 1e-8
        assert rep.joint_table is not None
        origin = rep.joint_table[0]
        assert origin["t"] == 0.0 and origin["s"] == 0.0
        assert origin["joint_re"] == 1.0 and origin["factorization_gap"] == 0.0
        gap_11 = [r for r in rep.joint_table if r["t"] == 1.0 and r["s"] == 1.0][0]
        assert gap_11["factorization_gap"] <= 0.08

    def test_gauss_expmix_reaches_its_target(self):
        rep = run_scenario("gauss-expmix", seed=0)
        last = rep.sup_distance[-1]
        assert last["n"] == 4096
        assert last["sup"] <= 0.05, f"sup distance {last['sup']} at n=4096"
        names = {v["name"]: v["holds"] for v in rep.verdicts}
        assert names["gaussian_mixture"] is True

    def test_sup_distance_decreases_with_at_most_one_inversion(self):
        spec = replace(get_scenario("pareto-mix"), cf_n_grid=(64, 512, 4096), checkers=())
        rep = run_scenario(spec, seed=1)
        sups = [r["sup"] for r in rep.sup_distance]
        inversions = sum(1 for a, b in zip(sups, sups[1:]) if b > a)
        assert inversions <= 1, f"sup path {sups} rises more than once"

    def test_verdicts_follow_the_scenario_checkers(self):
        spec = self._fast("point-mass", checkers=("uan", "degenerate"))
        rep = run_scenario(spec, seed=3)
        assert [v["name"] for v in rep.verdicts] == ["uan", "degenerate"]
        assert all(v["holds"] is True for v in rep.verdicts)

    @pytest.mark.parametrize("seed, scale", [(2, 1.0), (0, 2.0)])
    def test_quantities_describe_replicate_zero(self, seed, scale):
        spec = self._fast("cauchy-scalemix", cf_n_grid=(64,), cf_replicates=50)
        first = draw_replicates(spec.law, seed, 1)[0]
        assert first.cscale == scale
        rep = run_scenario(spec, seed=seed)
        assert [row["n"] for row in rep.quantities] == [64]
        for row in rep.quantities:
            bundle = char_quantities(first, spec.norming, row["n"], spec.tau)
            assert row == {
                "n": row["n"],
                "m_trunc": bundle.m_trunc,
                "m_smooth": bundle.m_smooth,
                "sigma2_trunc": bundle.sigma2_trunc,
                "sigma2_bar_proxy": bundle.sigma2_bar_proxy,
                "q_eps": bundle.q_eps,
                "spectral_mass": bundle.lambda_n.total_mass,
            }

    def test_identical_runs_serialize_identically(self):
        spec = self._fast("cauchy-scalemix", cf_replicates=200)
        payloads = []
        for _ in range(2):
            rep = run_scenario(spec, seed=9)
            payloads.append(
                json.dumps(
                    {
                        "scenario": rep.scenario,
                        "config": rep.config,
                        "cf_tables": rep.cf_tables,
                        "sup_distance": rep.sup_distance,
                        "joint_table": rep.joint_table,
                        "quantities": rep.quantities,
                        "verdicts": rep.verdicts,
                    },
                    sort_keys=True,
                )
            )
        assert payloads[0] == payloads[1]

    def test_nonfinite_row_sums_name_the_sampler(self):
        spec = ScenarioSpec(
            name="extreme-tail",
            law=DirectingLaw(SymmetricParetoLaw(0.01, 1.0)),
            norming=NormingSequence(alpha=0.5),
            cf_n_grid=(64,),
            cf_replicates=50,
        )
        # The sums overflow on purpose, and NumPy warns as they do.
        with pytest.raises(RuntimeError, match="sample_array_sums: 3 of 50 .* at n=64"):
            with pytest.warns(RuntimeWarning):
                run_scenario(spec, seed=0)

    def test_nonfinite_quantity_names_its_field_and_n(self):
        # b_n**2 overflows in the smoothed mean, which reads NaN.
        spec = ScenarioSpec(
            name="tiny-uniform",
            law=DirectingLaw(UniformLaw(0.0, 1e-300)),
            norming=NormingSequence(1.0, scale=1e300),
            cf_n_grid=(64,),
            cf_replicates=20,
        )
        with pytest.raises(ValueError, match="quantity m_smooth at n=64 is not finite: nan"):
            run_scenario(spec, seed=0)

    def test_nan_modulus_is_rejected(self):
        with pytest.raises(ValueError, match="modulus nan"):
            ScenarioReport(
                scenario="broken",
                seed=0,
                config={},
                cf_tables=[{"n": 4, "points": [{"t": 1.0, "re": math.nan, "im": 0.0}]}],
                sup_distance=[],
                joint_table=None,
                identity=None,
                quantities=[],
                verdicts=[],
                runtimes={},
            )

    def test_modulus_invariant_is_enforced(self):
        with pytest.raises(ValueError, match="modulus"):
            ScenarioReport(
                scenario="broken",
                seed=0,
                config={},
                cf_tables=[{"n": 4, "points": [{"t": 1.0, "re": 1.2, "im": 0.2}]}],
                sup_distance=[],
                joint_table=None,
                identity=None,
                quantities=[],
                verdicts=[],
                runtimes={},
            )


class TestSharedPanel:
    """run_scenario hands one draw panel to the private dispatch for every
    checker; separate run_criterion calls, each building its own panel,
    are the oracle."""

    @pytest.mark.parametrize("name", ["pareto-mix", "cauchy-scalemix", "gauss-expmix"])
    def test_verdicts_match_separate_checker_runs(self, name):
        spec = get_scenario(name)
        report = run_scenario(name, seed=0)
        assert len(report.verdicts) == len(spec.checkers)
        for shared, criterion in zip(report.verdicts, spec.checkers):
            alone = run_criterion(spec, criterion, 0)
            assert shared["holds"] == alone.holds, f"{criterion}: verdict changed"
            for field in ("evidence", "estimated_limit"):
                assert json.dumps(shared[field], sort_keys=True) == json.dumps(
                    getattr(alone, field), sort_keys=True
                ), f"{criterion}: {field} changed under the shared panel"


class TestConjunctionRule:
    """Every verdict except row_gaussian is the conjunction of its sub-check
    entries. The four scenarios run all ten checkers."""

    NAMES = ("pareto-mix", "cauchy-scalemix", "gauss-expmix", "point-mass")

    @staticmethod
    def assert_conjunction(name, verdict):
        entries = verdict["evidence"]["sub_checks"]
        statuses = [entry["holds"] for entry in entries.values()]
        assert all(s is True or s is False or s is None for s in statuses), (
            f"{verdict['name']}: a sub-check holds a non-tri-state value: {statuses}"
        )
        if verdict["name"] != "row_gaussian":
            assert verdict["holds"] is _combine_list(statuses), (
                f"{verdict['name']} on {name}: {verdict['holds']} is not the "
                f"conjunction of {dict(zip(entries, statuses))}"
            )

    def test_scenarios_cover_every_checker(self):
        covered = {c for name in self.NAMES for c in get_scenario(name).checkers}
        assert covered == set(CRITERION_NAMES)

    @pytest.mark.parametrize("name", NAMES)
    def test_verdict_is_the_conjunction_of_its_entries(self, name):
        for verdict in run_scenario(name, seed=0).verdicts:
            self.assert_conjunction(name, verdict)

    @pytest.mark.parametrize("name", NAMES)
    def test_off_design_verdicts_follow_the_rule(self, name):
        # Checkers the scenario is not designed for mix failing and passing
        # sub-checks, which is where an entry left out of a verdict shows.
        spec = get_scenario(name)
        panel = DrawPanel(spec.law, spec.norming, spec.checker_ngrid, 0)
        for criterion in CRITERION_NAMES:
            if spec.alpha is None and criterion in ("stable_mixture", "row_stable", "sec5"):
                continue
            verdict = _run_checker(spec, criterion, panel)
            self.assert_conjunction(name, asdict(verdict))
