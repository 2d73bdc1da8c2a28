"""Tests for the convergence criterion checkers."""

import json
import math

import numpy as np
import pytest

from stablemix.characteristics import pushforward_alpha
from stablemix.criteria import (
    _LIMIT_ATOMS,
    CRITERION_NAMES,
    DrawPanel,
    NGrid,
    StatTestConfig,
    _in_probability,
    _limit_atoms,
    _linear_quantiles,
    _median,
    _relaxed_ks,
    check_cauchy_mixture,
    check_degenerate,
    check_gaussian_mixture,
    check_sec5_conditions,
    check_single_row_cauchy,
    check_single_row_gaussian,
    check_single_row_stable,
    check_stable_mixture,
    check_uan,
    check_wlln,
)
from stablemix.directing import (
    CauchyLaw,
    DirectingLaw,
    GaussianLaw,
    LocationGaussian,
    ParetoLaw,
    PointMassLaw,
    ScaleAtoms,
    ScaleExponential,
    ScaleLogNormal,
    StableLaw,
    UniformLaw,
)
from stablemix.mixtures import mixture_cf
from stablemix.stable import NormingSequence, StableParams

GRID = NGrid((100, 1000, 10000, 100000), replicates=200)
CFG = StatTestConfig()

SQRT_N = NormingSequence(alpha=2.0)
LINEAR = NormingSequence(alpha=1.0)
TWO_THIRDS = NormingSequence(alpha=1.5)
CONSTANT = NormingSequence(alpha=math.inf)
LINEAR_MEAN = NormingSequence(alpha=1.0, centering_kind="n_times_mean")
TWO_THIRDS_MEAN = NormingSequence(alpha=1.5, centering_kind="n_times_mean")

POINT = DirectingLaw(PointMassLaw(0.75))
UNIFORM = DirectingLaw(UniformLaw(-1.0, 1.0))
GAUSS_FIXED = DirectingLaw(GaussianLaw(0.0, 1.0))
GAUSS_EXPMIX = DirectingLaw(GaussianLaw(0.0, 1.0), ScaleExponential(1.0))
CAUCHY_FIXED = DirectingLaw(CauchyLaw(0.0, 1.0))
CAUCHY_SCALEMIX = DirectingLaw(CauchyLaw(0.0, 1.0), ScaleAtoms(((1.0, 0.5), (2.0, 0.5))))
PARETO_MIX = DirectingLaw(
    ParetoLaw(1.5, 1.0, 0.5), ScaleAtoms(((1.0, 0.5), (2.0, 0.5)))
)
PARETO_ONESIDED = DirectingLaw(ParetoLaw(1.5, 1.0, 1.0))


class TestGridAndConfig:
    def test_ngrid_requires_two_points(self):
        with pytest.raises(ValueError, match="two points"):
            NGrid((100,), replicates=200)

    def test_ngrid_requires_increasing_values(self):
        with pytest.raises(ValueError, match="increasing"):
            NGrid((100, 100, 1000), replicates=200)

    def test_ngrid_requires_enough_replicates(self):
        with pytest.raises(ValueError, match="100 replicates"):
            NGrid((100, 1000), replicates=99)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"values": (100.7, 1000.2)}, r"n_grid: expected a positive integer, got 100\.7"),
            ({"values": ("100", "1000")}, "n_grid: expected a positive integer, got '100'"),
            ({"values": (100, True)}, "n_grid: expected a positive integer, got True"),
            ({"values": (100, 1000), "replicates": 150.5}, r"replicates: expected a positive integer, got 150\.5"),
        ],
    )
    def test_ngrid_takes_the_samplers_integer_rule(self, kwargs, message):
        # A row length or replicate count that is not a positive integer is
        # rejected on construction, before any panel draws.
        with pytest.raises(ValueError, match=message):
            NGrid(**kwargs)

    def test_ngrid_keeps_python_ints(self):
        grid = NGrid((np.int64(100), np.int64(1000)), replicates=100)
        assert [type(v) for v in grid.values] == [int, int]

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param(field, value, id=field if value == 0.0 else f"{field}-{value}")
            for value in (0.0, math.nan, math.inf)
            for field in ("delta", "prob_bound", "ks_tol", "margin", "fit_tol")
        ]
        # At the decisive one half or beyond, a fraction or distance could both pass and fail.
        + [pytest.param(field, value, id=f"{field}-{value}") for field, value in (("prob_bound", 0.5), ("ks_tol", 0.5), ("prob_bound", 0.6))],
    )
    def test_config_rejects_nonpositive(self, field, value):
        with pytest.raises(ValueError, match=field):
            StatTestConfig(**{field: value})

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 2.5, 1.0005])
    def test_stable_checker_rejects_bad_index(self, alpha):
        with pytest.raises(ValueError, match="tail index"):
            check_stable_mixture(DrawPanel(PARETO_MIX, TWO_THIRDS, GRID, 0), alpha, CFG)

    def test_sec5_rejects_short_or_decreasing_level_grid(self):
        with pytest.raises(ValueError, match="two truncation levels"):
            check_sec5_conditions(DrawPanel(PARETO_MIX, TWO_THIRDS, GRID, 0), 1.5, (100.0,), CFG)
        with pytest.raises(ValueError, match="increasing"):
            check_sec5_conditions(
                DrawPanel(PARETO_MIX, TWO_THIRDS, GRID, 0), 1.5, (100.0, 50.0), CFG
            )
        # A NaN level compares false both ways, so it must not slip through.
        with pytest.raises(ValueError, match="increasing"):
            check_sec5_conditions(
                DrawPanel(PARETO_MIX, TWO_THIRDS, GRID, 0), 1.5, (100.0, math.nan), CFG
            )


def _order_statistic_samples(rng):
    """Samples of 1 to 499 values: Gaussian over ten decades, small integers
    (ties, +0.0 only) and Cauchy."""
    for trial in range(3000):
        n = int(rng.integers(1, 500))
        kind = trial % 3
        if kind == 0:
            yield rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5)
        elif kind == 1:
            yield rng.integers(-3, 4, size=n).astype(float)
        else:
            yield rng.standard_cauchy(n)


class TestOrderStatistics:
    """The quantile and median helpers against np.quantile and np.median,
    bit for bit, which load numpy.ma on first use."""

    def test_quantiles_equal_np_quantile(self):
        for values in _order_statistic_samples(np.random.default_rng(20261020)):
            for probs in ((0.1, 0.5, 0.9), (0.0, 0.25, 1.0)):
                want = np.quantile(values, list(probs)).tolist()
                got = _linear_quantiles(values, probs)
                assert [x.hex() for x in got] == [x.hex() for x in want], f"{values.size} values at {probs}"

    def test_median_equals_np_median(self):
        for values in _order_statistic_samples(np.random.default_rng(20261021)):
            want = float(np.median(values))
            assert _median(values).hex() == want.hex(), f"{values.size} values"

    def test_nan_gives_nan(self):
        values = np.array([1.0, np.nan, 2.0])
        assert all(math.isnan(q) for q in _linear_quantiles(values, (0.1, 0.9)))
        assert math.isnan(_median(values))

    def test_signed_zeros_give_a_zero(self):
        # NumPy's sign of a zero quantile follows its partition order.
        values = np.where(np.random.default_rng(0).random(101) < 0.5, -0.0, 0.0)
        assert _linear_quantiles(values, (0.1, 0.5, 0.9)) == [0.0, 0.0, 0.0]
        assert _median(values) == 0.0


class TestStatisticalHelpers:
    def test_relaxed_ks_is_zero_for_identical_samples(self):
        rng = np.random.default_rng(42)
        sample = rng.normal(size=500)
        assert _relaxed_ks(sample, sample, 0.01) == 0.0

    def test_relaxed_ks_forgives_shifts_inside_the_slack(self):
        rng = np.random.default_rng(42)
        sample = rng.normal(size=500)
        d = _relaxed_ks(sample, sample + 0.005, slack=0.01)
        assert d == 0.0, f"shift below the slack should cost nothing, got {d}"

    def test_relaxed_ks_detects_disjoint_samples(self):
        a = np.linspace(0.0, 1.0, 200)
        b = a + 10.0
        assert _relaxed_ks(a, b, 0.01) == pytest.approx(1.0)

    def test_unknown_limit_rejects_strongly_drifting_statistics(self):
        # A deterministic statistic marching upward has fraction path
        # (1, 1, 1, 0) against its own final median; the drift gate must
        # refuse to call that convergence.
        samples = [np.full(200, v) for v in (3.0, 6.0, 9.0, 12.0)]
        result = _in_probability(samples, CFG)
        assert result["holds"] is False, f"drifting statistic passed: {result}"
        assert result["drift"] == pytest.approx(3.0)

    def test_unknown_limit_blocks_mild_drift(self):
        samples = [np.full(200, v) for v in (0.0, 0.0, 0.0, 0.08)]
        result = _in_probability(samples, CFG)
        assert result["holds"] is None, f"mild drift should be inconclusive: {result}"

    def test_known_limit_passes_constant_statistics(self):
        samples = [np.zeros(200) for _ in range(4)]
        result = _in_probability(samples, CFG, target=0.0)
        assert result["holds"] is True
        assert result["fractions"] == [0.0, 0.0, 0.0, 0.0]


class TestEntryNegligibility:
    def test_point_mass_passes(self):
        verdict = check_uan(DrawPanel(POINT, LINEAR_MEAN, GRID, 0), CFG)
        assert verdict.holds is True
        assert verdict.name == "uan"

    def test_cauchy_with_linear_norming_passes(self):
        verdict = check_uan(DrawPanel(CAUCHY_FIXED, LINEAR, GRID, 0), CFG)
        assert verdict.holds is True

    def test_cauchy_with_constant_norming_fails(self):
        verdict = check_uan(DrawPanel(CAUCHY_FIXED, CONSTANT, GRID, 0), CFG)
        assert verdict.holds is False, "constant norming must break negligibility"
        sub = verdict.evidence["sub_checks"]["entry_tails_negligible"]
        assert sub["per_eps"]["eps=1"]["fractions"][-1] == 1.0


class TestGaussianMixtureChecker:
    def test_fixed_gaussian_passes_with_unit_dispersion(self):
        verdict = check_gaussian_mixture(DrawPanel(GAUSS_FIXED, SQRT_N, GRID, 0), 1.0, CFG)
        assert verdict.holds is True
        assert verdict.estimated_limit["gamma"] == pytest.approx(0.0, abs=1e-9)
        q50 = verdict.estimated_limit["dispersion_law"]["q50"]
        assert q50 == pytest.approx(1.0, abs=1e-3), f"dispersion q50 {q50} != 1"

    def test_uniform_passes_with_third_dispersion(self):
        verdict = check_gaussian_mixture(DrawPanel(UNIFORM, SQRT_N, GRID, 0), 1.0, CFG)
        assert verdict.holds is True
        q50 = verdict.estimated_limit["dispersion_law"]["q50"]
        assert q50 == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_exponential_variance_mixture_passes(self):
        verdict = check_gaussian_mixture(DrawPanel(GAUSS_EXPMIX, SQRT_N, GRID, 0), 1.0, CFG)
        assert verdict.holds is True
        assert abs(verdict.estimated_limit["gamma"]) <= 0.05
        q50 = verdict.estimated_limit["dispersion_law"]["q50"]
        assert q50 == pytest.approx(math.log(2.0), abs=0.15), (
            f"variance median {q50} far from the exponential median"
        )

    def test_point_mass_fails_the_nondegeneracy_requirement(self):
        verdict = check_gaussian_mixture(DrawPanel(POINT, LINEAR_MEAN, GRID, 0), 1.0, CFG)
        assert verdict.holds is False
        sub = verdict.evidence["sub_checks"]["dispersion_nondegenerate"]
        assert sub["holds"] is False
        assert sub["fraction_beyond_margin"] == 0.0

    def test_cauchy_fails_the_tail_requirement(self):
        verdict = check_gaussian_mixture(DrawPanel(CAUCHY_FIXED, SQRT_N, GRID, 0), 1.0, CFG)
        assert verdict.holds is False
        assert verdict.evidence["sub_checks"]["tails_negligible"]["holds"] is False


class TestDegenerateChecker:
    def test_centered_point_mass_passes_at_zero(self):
        verdict = check_degenerate(DrawPanel(POINT, LINEAR_MEAN, GRID, 0), 1.0, CFG)
        assert verdict.holds is True
        assert verdict.estimated_limit["gamma"] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_fails_through_its_live_dispersion(self):
        verdict = check_degenerate(DrawPanel(UNIFORM, SQRT_N, GRID, 0), 1.0, CFG)
        assert verdict.holds is False
        assert verdict.evidence["sub_checks"]["dispersion_vanishes"]["holds"] is False

    def test_exponential_variance_mixture_fails(self):
        verdict = check_degenerate(DrawPanel(GAUSS_EXPMIX, SQRT_N, GRID, 0), 1.0, CFG)
        assert verdict.holds is False


class TestStableMixtureChecker:
    def test_symmetric_pareto_scale_mixture_passes(self):
        verdict = check_stable_mixture(DrawPanel(PARETO_MIX, TWO_THIRDS, GRID, 0), 1.5, CFG)
        assert verdict.holds is True
        limit = verdict.estimated_limit
        assert limit["gamma_consistent"] is True
        assert abs(limit["gamma"]) <= 0.05
        atoms = sorted(limit["atoms"], key=lambda a: a["c"])
        expected_c = [math.sqrt(2 * math.pi), math.sqrt(2 * math.pi) * 2**1.5]
        assert len(atoms) == 2
        for atom, c_true in zip(atoms, expected_c):
            assert atom["c"] == pytest.approx(c_true, rel=0.1), (
                f"atom weight {atom['c']} vs expected {c_true}"
            )
            assert abs(atom["weight"] - 0.5) <= 0.05
            assert abs(atom["beta"]) <= 0.05

    def test_one_sided_pareto_passes_with_full_skew(self):
        verdict = check_stable_mixture(
            DrawPanel(PARETO_ONESIDED, TWO_THIRDS_MEAN, GRID, 0), 1.5, CFG
        )
        assert verdict.holds is True
        atom = verdict.estimated_limit["atoms"][0]
        assert atom["beta"] == pytest.approx(-1.0, abs=1e-6), (
            "a purely right-tailed limit carries beta = -1 in the canonical exponent"
        )
        assert atom["gamma"] == pytest.approx(0.0, abs=0.05)
        assert atom["c"] == pytest.approx(math.sqrt(2 * math.pi), rel=0.1)

    def test_cauchy_tails_fail_the_shape_fit(self):
        verdict = check_stable_mixture(DrawPanel(CAUCHY_FIXED, LINEAR, GRID, 0), 1.5, CFG)
        assert verdict.holds is False
        sub = verdict.evidence["sub_checks"]["shape_fit"]
        assert sub["holds"] is False
        assert sub["max_residual"] > CFG.fit_tol

    def test_light_tails_fail_through_null_fits(self):
        verdict = check_stable_mixture(DrawPanel(GAUSS_EXPMIX, SQRT_N, GRID, 0), 1.5, CFG)
        assert verdict.holds is False
        assert verdict.evidence["sub_checks"]["non_null"]["holds"] is False


def _per_draw_entries(panel, alpha):
    """(location, fitted shape, weight) of every distinct draw at the largest n."""
    table = panel.fit_table(panel.ngrid.values[-1], alpha)
    loc_of = dict(zip(panel.draws, panel.loc_smooth()[-1]))
    return [(float(loc_of[p]), table[p][0], w) for p, w in panel.unique_weights()]


# The two continuous-prior laws of the benchmark: every draw is distinct.
LOGNORMAL_PARETO = (
    DirectingLaw(ParetoLaw(1.5, 1.0, 0.5), ScaleLogNormal(0.0, 0.5)),
    GRID,
)
STABLE_LOGNORMAL = (
    DirectingLaw(StableLaw(StableParams(1.5, 0.0, 1.0, 0.0)), ScaleLogNormal(0.0, 0.5)),
    NGrid((100, 1000), 100),
)


class TestLimitAtoms:
    """The estimated limit is the panel's own mixing measure, summarized by
    equal-weight groups once it has more distinct draws than atoms."""

    @pytest.mark.parametrize("law, grid", [LOGNORMAL_PARETO, STABLE_LOGNORMAL], ids=["pareto", "stable"])
    @pytest.mark.parametrize("seed", range(4))
    def test_cf_stays_near_the_per_draw_mixture(self, law, grid, seed):
        panel = DrawPanel(law, TWO_THIRDS, grid, seed)
        entries = _per_draw_entries(panel, 1.5)
        estimate = _limit_atoms(panel, 1.5, panel.loc_smooth()[-1])
        mixes = [pushforward_alpha(atoms, 1.5).mixing for atoms in (estimate, entries)]
        gap = max(abs(mixture_cf(t, mixes[0]) - mixture_cf(t, mixes[1])) for t in np.linspace(0.0, 8.0, 161))
        assert gap <= 0.005, f"the estimate's cf lies {gap:.4f} from the per-draw mixture"

    def test_crowded_panel_gives_equal_weight_groups_and_few_draws_stay_exact(self):
        law, grid = STABLE_LOGNORMAL
        panel = DrawPanel(law, TWO_THIRDS, grid, 0)
        entries = _per_draw_entries(panel, 1.5)
        assert len(entries) > _LIMIT_ATOMS
        estimate = _limit_atoms(panel, 1.5, panel.loc_smooth()[-1])
        weights = [w for _, _, w in estimate]
        assert len(estimate) == _LIMIT_ATOMS
        for w in weights:
            assert abs(w - 1.0 / _LIMIT_ATOMS) <= 1.0 / grid.replicates
        assert abs(sum(weights) - 1.0) <= 1e-12
        mean = sum(w * params.total_weight for _, params, w in entries)
        assert abs(sum(w * params.total_weight for _, params, w in estimate) - mean) <= 1e-12

        panel = DrawPanel(PARETO_MIX, TWO_THIRDS, GRID, 0)
        entries = _per_draw_entries(panel, 1.5)
        assert len(entries) <= _LIMIT_ATOMS
        assert _limit_atoms(panel, 1.5, panel.loc_smooth()[-1]) == entries


class TestCauchyMixtureChecker:
    def test_fixed_cauchy_passes_with_unit_scale(self):
        verdict = check_cauchy_mixture(DrawPanel(CAUCHY_FIXED, LINEAR, GRID, 0), CFG)
        assert verdict.holds is True
        atom = verdict.estimated_limit["atoms"][0]
        assert atom["c"] == pytest.approx(1.0, abs=0.05)
        assert atom["gamma"] == pytest.approx(0.0, abs=1e-9)
        assert atom["beta"] == 0.0

    def test_scale_atoms_are_recovered_with_their_weights(self):
        verdict = check_cauchy_mixture(DrawPanel(CAUCHY_SCALEMIX, LINEAR, GRID, 0), CFG)
        assert verdict.holds is True
        atoms = sorted(verdict.estimated_limit["atoms"], key=lambda a: a["c"])
        assert len(atoms) == 2
        for atom, c_true in zip(atoms, (1.0, 2.0)):
            assert atom["c"] == pytest.approx(c_true, rel=0.1)
            assert abs(atom["weight"] - 0.5) <= 0.05

    def test_one_sided_tails_fail_the_symmetry_requirement(self):
        verdict = check_cauchy_mixture(
            DrawPanel(DirectingLaw(ParetoLaw(1.0, 1.0, 1.0)), LINEAR, GRID, 0), CFG
        )
        assert verdict.holds is False
        sub = verdict.evidence["sub_checks"]["symmetry"]
        assert sub["holds"] is False
        assert sub["violation_fraction"] == 1.0
        assert "limit_error" in verdict.evidence

    def test_wrong_tail_index_fails_the_shape_fit(self):
        verdict = check_cauchy_mixture(DrawPanel(PARETO_MIX, TWO_THIRDS, GRID, 0), CFG)
        assert verdict.holds is False
        assert verdict.evidence["sub_checks"]["shape_fit"]["holds"] is False

    def test_point_mass_fails_through_all_null_fits(self):
        verdict = check_cauchy_mixture(DrawPanel(POINT, LINEAR_MEAN, GRID, 0), CFG)
        assert verdict.holds is False
        assert verdict.evidence["sub_checks"]["non_null"]["holds"] is False


class TestWeakLawChecker:
    def test_mean_centered_point_mass_passes(self):
        verdict = check_wlln(DrawPanel(POINT, LINEAR_MEAN, GRID, 0), 1.0, CFG)
        assert verdict.holds is True

    def test_uniform_with_linear_norming_passes(self):
        verdict = check_wlln(DrawPanel(UNIFORM, LINEAR, GRID, 0), 1.0, CFG)
        assert verdict.holds is True

    def test_uncentered_location_mixture_fails_the_mean_display(self):
        law = DirectingLaw(GaussianLaw(0.0, 1.0), LocationGaussian(0.0, 1.0))
        verdict = check_wlln(DrawPanel(law, LINEAR, GRID, 0), 1.0, CFG)
        assert verdict.holds is False
        sub = verdict.evidence["sub_checks"]["truncated_mean_vanishes"]
        assert sub["holds"] is False, f"mean display should fail: {sub}"

    def test_cauchy_fails_the_tail_display(self):
        verdict = check_wlln(DrawPanel(CAUCHY_FIXED, LINEAR, GRID, 0), 1.0, CFG)
        assert verdict.holds is False
        assert verdict.evidence["sub_checks"]["tails_negligible"]["holds"] is False


class TestSingleRowGaussianChecker:
    def test_variance_mixture_branch(self):
        verdict = check_single_row_gaussian(DrawPanel(GAUSS_EXPMIX, SQRT_N, GRID, 0), 1.0, CFG)
        assert verdict.holds is True
        assert verdict.estimated_limit["branch"] == "variance_mixture"
        assert abs(verdict.estimated_limit["gamma"]) <= 0.05

    def test_location_mixture_branch(self):
        law = DirectingLaw(PointMassLaw(0.0), LocationGaussian(0.0, 1.0))
        verdict = check_single_row_gaussian(DrawPanel(law, LINEAR, GRID, 0), 1.0, CFG)
        assert verdict.holds is True
        assert verdict.estimated_limit["branch"] == "location_mixture"
        spread = verdict.estimated_limit["location_law"]
        assert spread["q90"] - spread["q10"] > 1.0, (
            f"standard normal locations should spread widely, got {spread}"
        )

    def test_fixed_law_lands_in_the_variance_branch(self):
        verdict = check_single_row_gaussian(DrawPanel(UNIFORM, SQRT_N, GRID, 0), 1.0, CFG)
        assert verdict.holds is True
        assert verdict.estimated_limit["branch"] == "variance_mixture"
        q50 = verdict.estimated_limit["dispersion_law"]["q50"]
        assert q50 == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_heavy_tails_violate_the_hypothesis(self):
        verdict = check_single_row_gaussian(DrawPanel(CAUCHY_FIXED, LINEAR, GRID, 0), 1.0, CFG)
        assert verdict.holds is False
        assert verdict.evidence.get("hypothesis_violated") is True
        assert verdict.estimated_limit is None


class TestSingleRowStableChecker:
    def test_symmetric_scale_mixture_passes_and_recovers_scales(self):
        verdict = check_single_row_stable(DrawPanel(PARETO_MIX, TWO_THIRDS, GRID, 0), 1.5, CFG)
        assert verdict.holds is True
        assert abs(verdict.estimated_limit["gamma"]) <= 0.05
        atoms = verdict.estimated_limit["rho_atoms"]
        expected = [math.sqrt(2 * math.pi), math.sqrt(2 * math.pi) * 2**1.5]
        assert len(atoms) == 2
        for atom, c_true in zip(atoms, expected):
            assert atom["c"] == pytest.approx(c_true, rel=0.1)
            assert abs(atom["weight"] - 0.5) <= 0.05

    def test_wrong_norming_rate_fails_through_drifting_weights(self):
        verdict = check_single_row_stable(DrawPanel(PARETO_MIX, SQRT_N, GRID, 0), 1.5, CFG)
        assert verdict.holds is False
        assert verdict.evidence.get("hypothesis_violated") is True
        sub = verdict.evidence["sub_checks"]["scale_stabilize"]
        assert sub["holds"] is False, f"weights should drift: {sub}"

    def test_one_sided_tails_violate_the_symmetry_hypothesis(self):
        verdict = check_single_row_stable(
            DrawPanel(PARETO_ONESIDED, TWO_THIRDS_MEAN, GRID, 0), 1.5, CFG
        )
        assert verdict.holds is False
        assert verdict.evidence["sub_checks"]["symmetry"]["holds"] is False


class TestSingleRowCauchyChecker:
    def test_scale_mixture_passes_and_recovers_the_prior(self):
        verdict = check_single_row_cauchy(DrawPanel(CAUCHY_SCALEMIX, LINEAR, GRID, 0), CFG)
        assert verdict.holds is True
        assert verdict.estimated_limit["gamma"] == pytest.approx(0.0, abs=1e-9)
        atoms = verdict.estimated_limit["rho_atoms"]
        assert len(atoms) == 2
        for atom, c_true in zip(atoms, (1.0, 2.0)):
            assert atom["c"] == pytest.approx(c_true, rel=0.1), (
                "the half-circle constant times the fitted weight should "
                f"reproduce the scale atom, got {atom}"
            )
            assert abs(atom["weight"] - 0.5) <= 0.05

    def test_one_sided_index_one_law_fails(self):
        verdict = check_single_row_cauchy(
            DrawPanel(DirectingLaw(ParetoLaw(1.0, 1.0, 1.0)), LINEAR, GRID, 0), CFG
        )
        assert verdict.holds is False
        assert verdict.evidence.get("hypothesis_violated") is True

    def test_light_tails_fail_through_null_fits(self):
        verdict = check_single_row_cauchy(DrawPanel(GAUSS_FIXED, SQRT_N, GRID, 0), CFG)
        assert verdict.holds is False
        assert verdict.evidence["sub_checks"]["non_null"]["holds"] is False


class TestExperimentalBattery:
    def test_symmetric_pareto_passes_every_display(self):
        verdict = check_sec5_conditions(
            DrawPanel(DirectingLaw(ParetoLaw(1.5, 1.0, 0.5)), TWO_THIRDS, GRID, 0),
            1.5,
            (100.0, 1000.0, 10000.0),
            CFG,
        )
        assert verdict.holds is True
        assert verdict.evidence["experimental"] is True
        for name, sub in verdict.evidence["sub_checks"].items():
            assert sub["holds"] is True, f"display {name} did not pass: {sub}"
        sub = verdict.evidence["sub_checks"]["tail_moment_ratio"]
        assert sub["target"] == pytest.approx(1.0 / 3.0)

    def test_scale_mixture_keeps_a_nondegenerate_tail_law(self):
        verdict = check_sec5_conditions(
            DrawPanel(PARETO_MIX, TWO_THIRDS, GRID, 0), 1.5, (100.0, 1000.0, 10000.0), CFG
        )
        assert verdict.holds is True
        tail_law = verdict.estimated_limit["tail_law"]
        assert tail_law["q10"] == pytest.approx(1.0, rel=0.01)
        assert tail_law["q90"] == pytest.approx(2.0**1.5, rel=0.01)

    def test_wrong_index_fails_the_ratio_display(self):
        verdict = check_sec5_conditions(
            DrawPanel(PARETO_MIX, TWO_THIRDS, GRID, 0), 0.5, (100.0, 1000.0, 10000.0), CFG
        )
        assert verdict.holds is False
        assert verdict.evidence["sub_checks"]["tail_moment_ratio"]["holds"] is False


class TestVerdictPlumbing:
    def test_every_checker_emits_json_serializable_evidence(self):
        verdicts = [
            check_uan(DrawPanel(CAUCHY_SCALEMIX, LINEAR, GRID, 0), CFG),
            check_gaussian_mixture(DrawPanel(CAUCHY_SCALEMIX, LINEAR, GRID, 0), 1.0, CFG),
            check_degenerate(DrawPanel(CAUCHY_SCALEMIX, LINEAR, GRID, 0), 1.0, CFG),
            check_stable_mixture(DrawPanel(CAUCHY_SCALEMIX, LINEAR, GRID, 0), 1.5, CFG),
            check_cauchy_mixture(DrawPanel(CAUCHY_SCALEMIX, LINEAR, GRID, 0), CFG),
            check_wlln(DrawPanel(CAUCHY_SCALEMIX, LINEAR, GRID, 0), 1.0, CFG),
            check_single_row_gaussian(DrawPanel(CAUCHY_SCALEMIX, LINEAR, GRID, 0), 1.0, CFG),
            check_single_row_stable(DrawPanel(CAUCHY_SCALEMIX, LINEAR, GRID, 0), 1.5, CFG),
            check_single_row_cauchy(DrawPanel(CAUCHY_SCALEMIX, LINEAR, GRID, 0), CFG),
            check_sec5_conditions(
                DrawPanel(CAUCHY_SCALEMIX, LINEAR, GRID, 0), 1.5, (100.0, 1000.0), CFG
            ),
        ]
        assert [v.name for v in verdicts] == list(CRITERION_NAMES)
        for verdict in verdicts:
            payload = json.dumps(
                {
                    "holds": verdict.holds,
                    "evidence": verdict.evidence,
                    "limit": verdict.estimated_limit,
                }
            )
            assert len(payload) > 0

    def test_evidence_records_the_panel_shape(self):
        verdict = check_uan(DrawPanel(CAUCHY_SCALEMIX, LINEAR, GRID, 0), CFG)
        assert verdict.evidence["n_grid"] == [100, 1000, 10000, 100000]
        assert verdict.evidence["replicates"] == 200
        assert verdict.evidence["distinct_draws"] == 2

    def test_verdicts_are_stable_across_disjoint_seeds(self):
        for seed in (0, 7777):
            gauss = check_gaussian_mixture(DrawPanel(GAUSS_EXPMIX, SQRT_N, GRID, seed), 1.0, CFG)
            cauchy = check_cauchy_mixture(DrawPanel(CAUCHY_SCALEMIX, LINEAR, GRID, seed), CFG)
            assert gauss.holds is True, f"seed {seed} flipped the light-tail verdict"
            assert cauchy.holds is True, f"seed {seed} flipped the heavy-tail verdict"
            assert abs(gauss.estimated_limit["gamma"]) <= 0.05
            atoms = sorted(cauchy.estimated_limit["atoms"], key=lambda a: a["c"])
            for atom, c_true in zip(atoms, (1.0, 2.0)):
                assert atom["c"] == pytest.approx(c_true, rel=0.1)


class TestPanelGuard:
    """A checker rejects its own bad arguments before the panel draws, and
    checkers handed one panel share its draws and memo."""

    def test_rejected_arguments_do_not_draw(self):
        panel = DrawPanel(PARETO_MIX, TWO_THIRDS, GRID, 0)
        with pytest.raises(ValueError, match="tail index"):
            check_stable_mixture(panel, 1.0, CFG)
        with pytest.raises(ValueError, match="tail index"):
            check_single_row_stable(panel, 2.5, CFG)
        with pytest.raises(ValueError, match="increasing"):
            check_sec5_conditions(panel, 1.5, (100.0, math.nan), CFG)
        assert "draws" not in vars(panel), "a rejected call must not have drawn"

    def test_matching_panel_is_shared(self):
        panel = DrawPanel(PARETO_MIX, TWO_THIRDS, GRID, 0)
        alone = check_uan(DrawPanel(PARETO_MIX, TWO_THIRDS, GRID, 0), CFG)
        shared = check_uan(panel, CFG)
        assert shared == alone
        memo_size = len(panel._memo)
        check_uan(panel, CFG)
        assert len(panel._memo) == memo_size, "a second checker must reuse the memo"

    def test_nonfinite_quantity_names_key_and_length(self):
        panel = DrawPanel(PARETO_MIX, TWO_THIRDS, GRID, 0)
        message = r"quantity \('probe',\) at n=100 is not finite for 200 of 200 draws"
        for _ in range(2):
            with pytest.raises(RuntimeError, match=message):
                panel.values(("probe",), 100, lambda p, m: math.nan)

    def test_values_are_built_once_and_read_only(self):
        panel = DrawPanel(PARETO_MIX, TWO_THIRDS, GRID, 0)
        calls = []

        def fn(p, m):
            calls.append(p)
            return float(m)

        first = panel.values(("probe",), 100, fn)
        assert panel.values(("probe",), 100, fn) is first
        assert len(calls) == len(panel.unique)
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 0.0
        assert panel.values(("probe",), 1000, fn) is not first
