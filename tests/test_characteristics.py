"""Tests for per-realization characteristic quantities, spectral measures,
the restriction metric, and the pushforward maps."""

import importlib.util
import json
import math
import sys
from itertools import accumulate
from typing import Callable, NamedTuple
from pathlib import Path

import numpy as np
import pytest

from stablemix import characteristics
from stablemix.characteristics import (
    DEFAULT_FIT_WINDOW,
    DEFAULT_SPECTRAL_GRID,
    CharQuantities,
    SpectralParams,
    char_quantities,
    discretize_spectral,
    dsharp,
    fit_spectrum,
    prokhorov_distance,
    proxy_window,
    pushforward_alpha,
    pushforward_one,
    sigma_bar_proxy,
    smooth_mean,
    spectral_measure_lambda,
    stable_mixing_constant,
    tail_mass_quantity,
    tail_moment_ratio,
    trunc_mean,
    trunc_variance,
)
from stablemix.cli import load_config
from stablemix.criteria import DrawPanel
from stablemix.directing import (
    CauchyLaw,
    GaussianLaw,
    ParetoLaw,
    PointMassLaw,
    StableLaw,
    UniformLaw,
    _RealizedLaw,
)
from stablemix.empirics import run_scenario
from stablemix.measures import AtomicMeasure
from stablemix.mixtures import mixture_cf
from stablemix.stable import NormingSequence, StableParams, stable_cf

import exact_prokhorov as oracle


def _restrict_open_ball(measure, r):
    """Restriction of an atomic measure to the open interval (-r, r)."""
    return AtomicMeasure(tuple((loc, mass) for loc, mass in measure.atoms if abs(loc) < r))


SQRT_NORMING = NormingSequence(alpha=2.0)
LINEAR_NORMING = NormingSequence(alpha=1.0)
PARETO_NORMING = NormingSequence(alpha=1.5)
ROOT = Path(__file__).resolve().parent.parent


class TestTruncMean:
    """Scaled truncated mean (n/b) * integral of x over |x| <= tau*b."""

    def test_point_mass_inside_window(self):
        value = trunc_mean(PointMassLaw(0.75), SQRT_NORMING, 100, 1.0)
        assert value == pytest.approx(7.5), f"expected (100/10)*0.75, got {value}"

    def test_point_mass_outside_window(self):
        value = trunc_mean(PointMassLaw(0.75), SQRT_NORMING, 100, 0.05)
        assert value == 0.0, f"a point outside the truncation window must give 0, got {value}"

    @pytest.mark.parametrize("law", [CauchyLaw(0.0, 1.0), UniformLaw(-1.0, 1.0)])
    def test_symmetric_laws_vanish(self, law):
        assert trunc_mean(law, LINEAR_NORMING, 1000, 1.0) == 0.0

    def test_shifted_gaussian_matches_law_scaling(self):
        p = GaussianLaw(0.3, 1.0)
        n, tau = 400, 2.0
        b = SQRT_NORMING.b(n)
        expected = (n / b) * p.truncated_mean(tau * b)
        np.testing.assert_allclose(trunc_mean(p, SQRT_NORMING, n, tau), expected, rtol=1e-14)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError, match="tau"):
            trunc_mean(PointMassLaw(0.0), SQRT_NORMING, 100, 0.0)


class TestSmoothMean:
    """Smoothed mean n * E[b*X/(b**2 + X**2)]."""

    def test_point_mass_closed_form(self):
        # b = n, point a: n * (n*a/(n**2 + a**2))
        n, a = 10, 2.0
        value = smooth_mean(PointMassLaw(a), LINEAR_NORMING, n)
        assert value == pytest.approx(n * n * a / (n * n + a * a)), (
            f"point-mass smoothed mean should be n^2 a/(n^2+a^2), got {value}"
        )

    @pytest.mark.parametrize("law", [CauchyLaw(0.0, 2.0), UniformLaw(-3.0, 3.0), GaussianLaw(0.0, 1.0)])
    def test_symmetric_laws_vanish(self, law):
        assert smooth_mean(law, SQRT_NORMING, 900) == 0.0

    def test_gaussian_monte_carlo_cross_check(self):
        p = GaussianLaw(1.0, 2.0)
        n = 25
        b = SQRT_NORMING.b(n)
        value = smooth_mean(p, SQRT_NORMING, n)
        rng = np.random.default_rng(42)
        x = rng.normal(1.0, 2.0, size=4_000_000)
        mc = float(np.mean(n * b * x / (b * b + x * x)))
        np.testing.assert_allclose(value, mc, rtol=1e-2)


class TestTruncVariance:
    """Truncated variance (n/b**2)(second moment - first moment squared)."""

    def test_uniform_full_window_is_one_third(self):
        # b = sqrt(n) and eta*b covering [-1, 1]: (n/b^2) * Var-like term = E[X^2] = 1/3
        value = trunc_variance(UniformLaw(-1.0, 1.0), SQRT_NORMING, 10_000, 1.0)
        np.testing.assert_allclose(value, 1.0 / 3.0, rtol=1e-12)

    def test_point_mass_has_no_spread(self):
        assert trunc_variance(PointMassLaw(0.75), SQRT_NORMING, 100, 1.0) == 0.0
        assert trunc_variance(PointMassLaw(0.75), SQRT_NORMING, 100, 0.01) == 0.0

    @pytest.mark.parametrize("n", [100, 10_000])
    def test_cauchy_closed_form(self, n):
        value = trunc_variance(CauchyLaw(0.0, 1.0), LINEAR_NORMING, n, 1.0)
        expected = (2.0 / math.pi) * (1.0 - math.atan(n) / n)
        np.testing.assert_allclose(value, expected, rtol=1e-12,
                                   err_msg=f"cauchy truncated variance off at n={n}")

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError, match="eta"):
            trunc_variance(PointMassLaw(0.0), SQRT_NORMING, 100, -1.0)


class TestSigmaBarProxy:
    """Windowed stand-in for the limiting truncated-variance supremum."""

    def test_point_mass_is_zero(self):
        assert sigma_bar_proxy(PointMassLaw(0.75), SQRT_NORMING, (10, 100)) == 0.0

    def test_cauchy_window_oracle(self):
        # Anchor 1e4, b = n: the window maximum sits at the anchor itself and
        # equals (1/m)(2/pi)(T - atan T) with T = m/anchor = 1.
        window = (1000, 3162, 10_000)
        value = sigma_bar_proxy(CauchyLaw(0.0, 1.0), LINEAR_NORMING, window)
        expected = 1e-4 * (2.0 / math.pi) * (1.0 - math.atan(1.0))
        np.testing.assert_allclose(value, expected, rtol=1e-12)
        assert value <= 1e-3, f"cauchy proxy should be tiny, got {value}"

    def test_gaussian_proxy_collapses_with_anchor(self):
        p = GaussianLaw(0.0, 1.0)
        small = sigma_bar_proxy(p, SQRT_NORMING, proxy_window(100))
        large = sigma_bar_proxy(p, SQRT_NORMING, proxy_window(10_000))
        assert large < small, f"proxy should shrink with the anchor, got {small} -> {large}"
        assert large <= 1e-4, f"gaussian proxy at anchor 1e4 should collapse, got {large}"

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError, match="nonempty"):
            sigma_bar_proxy(PointMassLaw(0.0), SQRT_NORMING, ())
        with pytest.raises(ValueError, match="increasing"):
            sigma_bar_proxy(PointMassLaw(0.0), SQRT_NORMING, (100, 100))

    def test_proxy_window_shape(self):
        assert proxy_window(100) == (10, 32, 100)
        assert proxy_window(10_000) == (1000, 3162, 10_000)
        assert proxy_window(2) == (2,)
        with pytest.raises(ValueError, match="at least 2"):
            proxy_window(1)


class TestTailFunctionL:
    """Scaled two-sided tail quantity n * p({|x| > eps*b_n})."""

    def test_tail_mass_quantity_cauchy(self):
        n = 10_000
        value = tail_mass_quantity(CauchyLaw(0.0, 1.0), LINEAR_NORMING, n, 1.0)
        np.testing.assert_allclose(value, n * 2.0 * math.atan(1.0 / n) / math.pi, rtol=1e-12)
        with pytest.raises(ValueError, match="eps"):
            tail_mass_quantity(CauchyLaw(0.0, 1.0), LINEAR_NORMING, n, 0.0)


class TestTailMomentRatio:
    """Tail-to-truncated-second-moment ratio used for index diagnosis."""

    def test_symmetric_pareto_oracle(self):
        # tail index 1.5, unit scale, x = 1e4: exact value sqrt(x)/(3(sqrt(x)-1))
        ratio = tail_moment_ratio(ParetoLaw(1.5, 1.0, 0.5), 1e4)
        np.testing.assert_allclose(ratio, 100.0 / 297.0, rtol=1e-10)
        assert abs(ratio - (2.0 - 1.5) / 1.5) <= 0.05

    def test_cauchy_oracle(self):
        x = 1e4
        ratio = tail_moment_ratio(CauchyLaw(0.0, 1.0), x)
        expected = x * x * 2.0 * math.atan(1.0 / x) / (2.0 * (x - math.atan(x)))
        np.testing.assert_allclose(ratio, expected, rtol=1e-9)
        assert abs(ratio - 1.0) <= 0.05, f"cauchy ratio should approach (2-1)/1, got {ratio}"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="x must be positive"):
            tail_moment_ratio(CauchyLaw(0.0, 1.0), 0.0)
        with pytest.raises(ValueError, match="second moment"):
            tail_moment_ratio(PointMassLaw(0.0), 1.0)


class _ShrinkingTail(_RealizedLaw):
    """Deliberately inconsistent tail curves for exercising the monotonicity guard."""

    def cdf(self, x):
        return 0.0

    def right_tail(self, x):
        return x / (1.0 + x)


class TestAtomicMeasure:
    @pytest.mark.parametrize(
        "atoms, message",
        [
            (((0.0, 1.0), (math.inf, 1.0)), r"atom \(inf, 1.0\) is not finite"),
            (((math.nan, 1.0), (0.0, 1.0)), r"atom \(nan, 1.0\) is not finite"),
            (((0.0, math.nan),), r"atom \(0.0, nan\) is not finite"),
            (((0.0, 1.0), (1.0, math.inf)), r"atom \(1.0, inf\) is not finite"),
            (((0.0, 1.0), (1.0, 0.0)), "atom at 1.0 has nonpositive mass 0.0"),
            (((0.0, -0.5), (1.0, 1.0)), "atom at 0.0 has nonpositive mass -0.5"),
            (((1.0, 1.0), (0.0, 1.0)), "sorted by location without duplicates, got 0.0 after 1.0"),
            (((0.5, 1.0), (0.5, 2.0)), "sorted by location without duplicates, got 0.5 after 0.5"),
            (((-0.0, 1.0), (0.0, 2.0)), "sorted by location without duplicates, got 0.0 after -0.0"),
        ],
    )
    def test_rejects_noncanonical_atoms(self, atoms, message):
        with pytest.raises(ValueError, match=message):
            AtomicMeasure(atoms)

    def test_an_overflowing_total_is_an_error(self):
        # As in the distances, whose mass sums are math.fsum sums too.
        heavy = AtomicMeasure.from_pairs([(0.0, 1e308), (1.0, 1e308)])
        for total in (lambda: heavy.total_mass, lambda: heavy.mass_le(1.0), lambda: dsharp(heavy, AtomicMeasure())):
            with pytest.raises(OverflowError):
                total()
        assert heavy.mass_lt(1.0) == 1e308


class TestSpectralMeasure:
    """Discretization of the scaled spectral function onto the signed grid."""

    def test_cauchy_cumulative_near_inverse_pi(self):
        lam = spectral_measure_lambda(CauchyLaw(0.0, 1.0), LINEAR_NORMING, 100_000)
        positive = lam.mass_interval(0.0, 1.0, "right")
        negative = lam.mass_interval(-1.0, 0.0, "left")
        assert abs(positive - 1.0 / math.pi) <= 0.01, f"positive side mass {positive}"
        np.testing.assert_allclose(positive, negative, rtol=1e-12,
                                   err_msg="symmetric law must give symmetric spectral mass")

    def test_gaussian_mass_near_origin_vanishes(self):
        lam = spectral_measure_lambda(GaussianLaw(0.0, 1.0), SQRT_NORMING, 10_000)
        near = _restrict_open_ball(lam, 8.0).total_mass
        assert near <= 1e-20, f"gaussian spectral mass inside (-8, 8) should vanish, got {near}"

    def test_point_mass_at_zero_is_null(self):
        lam = spectral_measure_lambda(PointMassLaw(0.0), SQRT_NORMING, 100)
        assert lam.atoms == (), f"expected the null measure, got {lam.atoms}"

    def test_point_mass_off_zero_lands_in_one_far_cell(self):
        # point 0.75, b = 10: the transition at x = b/0.75 = 13.3 lies in (8, 16]
        lam = spectral_measure_lambda(PointMassLaw(0.75), SQRT_NORMING, 100)
        assert lam.total_mass == pytest.approx(100.0)
        assert len(lam.atoms) == 1
        location = lam.atoms[0][0]
        np.testing.assert_allclose(location, math.sqrt(8.0 * 16.0), rtol=1e-12)

    def test_monotonicity_violation_raises(self):
        with pytest.raises(RuntimeError, match="negative"):
            spectral_measure_lambda(_ShrinkingTail(), LINEAR_NORMING, 10)

    def test_default_grid_shape(self):
        assert len(DEFAULT_SPECTRAL_GRID) == 42
        assert DEFAULT_SPECTRAL_GRID[0] == -1024.0
        assert DEFAULT_SPECTRAL_GRID[-1] == 1024.0
        assert min(abs(g) for g in DEFAULT_SPECTRAL_GRID) == 2.0 ** -10


class TestSpectralShape:
    """Exact power-law spectral shapes and their discretization."""

    def test_discretization_cumulative_matches_shape(self):
        params = SpectralParams(1.5, 0.4, 1.1)
        atoms = discretize_spectral(params)
        for edge in (0.25, 1.0, 8.0):
            expected = 1.1 * (edge ** 1.5 - (2.0 ** -10) ** 1.5)
            np.testing.assert_allclose(
                atoms.mass_interval(0.0, edge, "right"), expected, rtol=1e-10,
                err_msg=f"cumulative mismatch at edge {edge}"
            )

    def test_null_shape_discretizes_to_null(self):
        assert discretize_spectral(SpectralParams(1.0, 0.0, 0.0)).atoms == ()

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="spectral index"):
            SpectralParams(2.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            SpectralParams(1.0, -0.1, 1.0)

    @pytest.mark.parametrize("side", ["c_minus", "c_plus"])
    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_weights(self, side, weight):
        weights = {"c_minus": 0.5, "c_plus": 0.5, side: weight}
        with pytest.raises(ValueError, match=rf"^spectral weight {side} must be finite and nonnegative, got {weight!r}$"):
            SpectralParams(1.5, **weights)


def _random_measure(rng, max_atoms=5):
    k = int(rng.integers(2, max_atoms + 1))
    locations = rng.uniform(-5.0, 5.0, size=k)
    masses = rng.uniform(0.1, 2.0, size=k)
    return AtomicMeasure.from_pairs(zip(locations.tolist(), masses.tolist()))


class TestProkhorov:
    """Levy-Prokhorov distance between finite atomic measures."""

    def test_identical_measures(self):
        m = AtomicMeasure.from_pairs([(0.0, 1.0), (2.0, 0.5)])
        assert prokhorov_distance(m, m) == 0.0

    def test_shifted_point_masses(self):
        d = prokhorov_distance(
            AtomicMeasure.from_pairs([(0.0, 1.0)]), AtomicMeasure.from_pairs([(0.3, 1.0)])
        )
        assert d == 0.3

    def test_mass_deficit_dominates(self):
        doubled = AtomicMeasure.from_pairs([(0.0, 2.0)])
        single = AtomicMeasure.from_pairs([(0.0, 1.0)])
        assert prokhorov_distance(doubled, single) == 1.0

    def test_null_against_point(self):
        d = prokhorov_distance(AtomicMeasure(), AtomicMeasure.from_pairs([(1.0, 1.0)]))
        assert d == 1.0

    @pytest.mark.parametrize("mass,shift,expected", [(0.2, 0.5, 0.2), (1.0, 0.3, 0.3)])
    def test_single_atom_shift_formula(self, mass, shift, expected):
        d = prokhorov_distance(
            AtomicMeasure.from_pairs([(0.0, mass)]),
            AtomicMeasure.from_pairs([(shift, mass)]),
        )
        assert d == expected, f"min(mass, shift) rule failed for {mass}, {shift}"

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            mu = _random_measure(rng)
            nu = _random_measure(rng)
            fast = prokhorov_distance(mu, nu)
            slow = oracle.brute_distance(mu, nu)
            assert fast == slow, f"trial {trial}: dynamic program {fast!r} vs enumeration {slow!r}"

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            mu = _random_measure(rng)
            nu = _random_measure(rng)
            assert prokhorov_distance(mu, nu) == prokhorov_distance(nu, mu)


class TestDsharp:
    """Exponentially weighted restriction metric."""

    def test_identity_is_exactly_zero(self):
        m = AtomicMeasure.from_pairs([(0.5, 1.0), (-2.0, 0.25)])
        same = AtomicMeasure.from_pairs([(0.5, 1.0), (-2.0, 0.25)])
        assert dsharp(m, m) == 0.0
        assert dsharp(m, same) == 0.0

    def test_null_against_point_oracle(self):
        # d_r jumps from 0 to 1 at r = 0.5, so the integral is
        # (1/2)(e^{-1/2} - e^{-20}) exactly.
        value = dsharp(AtomicMeasure(), AtomicMeasure.from_pairs([(0.5, 1.0)]))
        expected = 0.5 * (math.exp(-0.5) - math.exp(-20.0))
        np.testing.assert_allclose(value, expected, rtol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            mu = _random_measure(rng)
            nu = _random_measure(rng)
            assert dsharp(mu, nu) == dsharp(nu, mu)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            a, b, c = (_random_measure(rng) for _ in range(3))
            d_ac = dsharp(a, c)
            d_ab = dsharp(a, b)
            d_bc = dsharp(b, c)
            assert d_ac <= d_ab + d_bc + 1e-6, (
                f"trial {trial}: {d_ac} > {d_ab} + {d_bc}"
            )

    def test_gauss_legendre_cross_check(self):
        mu = AtomicMeasure()
        nu = AtomicMeasure.from_pairs([(0.5, 1.0)])
        exact = dsharp(mu, nu)
        quad = _gauss_legendre_dsharp(mu, nu, 2000)
        np.testing.assert_allclose(quad, exact, atol=5e-3)

    def test_truncation_radius_changes_little(self, monkeypatch):
        rng = np.random.default_rng(42)
        mu = _random_measure(rng)
        nu = _random_measure(rng)
        monkeypatch.setattr(characteristics, "_R_MAX", 20.0)
        near = dsharp(mu, nu)
        monkeypatch.setattr(characteristics, "_R_MAX", 30.0)
        far = dsharp(mu, nu)
        assert abs(near - far) <= math.exp(-20.0) + 1e-15

    def test_infinite_radius_keeps_the_whole_line(self, monkeypatch):
        # d_r is 1 from r = 0.5 on, so the integral over (0, inf) is e^{-1/2}/2.
        monkeypatch.setattr(characteristics, "_R_MAX", math.inf)
        value = dsharp(AtomicMeasure(), AtomicMeasure.from_pairs([(0.5, 1.0)]))
        np.testing.assert_allclose(value, 0.5 * math.exp(-0.5), rtol=1e-12)

    def test_bounded_by_one(self):
        heavy = AtomicMeasure.from_pairs([(1.0, 1e6)])
        value = dsharp(AtomicMeasure(), heavy)
        assert value <= 1.0, f"the metric is bounded by 1, got {value}"


class TestFitSpectrum:
    """Power-law weight recovery and the restriction-metric residual."""

    def test_recovers_exact_shape(self):
        truth = SpectralParams(1.5, 0.4, 1.1)
        fitted, residual = fit_spectrum(discretize_spectral(truth), 1.5)
        np.testing.assert_allclose(fitted.c_minus, 0.4, rtol=5e-3)
        np.testing.assert_allclose(fitted.c_plus, 1.1, rtol=5e-3)
        assert residual <= 0.01, f"self-fit residual should be tiny, got {residual}"

    def test_cauchy_empirical_spectrum(self):
        lam = spectral_measure_lambda(CauchyLaw(0.0, 1.0), LINEAR_NORMING, 100_000)
        fitted, residual = fit_spectrum(lam, 1.0)
        np.testing.assert_allclose(fitted.c_plus, 1.0 / math.pi, atol=0.01)
        np.testing.assert_allclose(fitted.c_minus, fitted.c_plus, rtol=1e-10)
        assert residual <= 0.05, f"correct-index residual too large: {residual}"

    def test_one_sided_pareto_nulls_the_left_side(self):
        lam = spectral_measure_lambda(ParetoLaw(1.5, 1.0, 1.0), PARETO_NORMING, 100_000)
        fitted, residual = fit_spectrum(lam, 1.5)
        assert fitted.c_minus == 0.0, f"left side should be null, got {fitted.c_minus}"
        np.testing.assert_allclose(fitted.c_plus, 1.0, atol=0.01)
        assert residual <= 0.05, f"one-sided residual too large: {residual}"

    def test_wrong_index_inflates_residual(self):
        lam = spectral_measure_lambda(CauchyLaw(0.0, 1.0), LINEAR_NORMING, 100_000)
        _, residual = fit_spectrum(lam, 1.5)
        assert residual > 0.05, (
            f"fitting index 1.5 to an index-1 spectrum must overflow the tolerance, got {residual}"
        )

    def test_null_measure_fits_null_shape(self):
        fitted, residual = fit_spectrum(AtomicMeasure(), 1.0)
        assert fitted.is_null
        assert residual == 0.0

    def test_rejects_the_first_atom_off_the_cell_midpoints(self):
        on_grid = discretize_spectral(SpectralParams(1.5, 0.4, 1.1))
        for extra, named in (([(0.3, 0.5), (5.0, 0.5)], "0.3"), ([(1.0, 0.5)], "1.0"), ([(-4.0, 0.5)], "-4.0")):
            off_grid = AtomicMeasure.from_pairs([*on_grid.atoms, *extra])
            message = rf"^atom at {named} is not a cell midpoint of DEFAULT_SPECTRAL_GRID$"
            with pytest.raises(ValueError, match=message):
                fit_spectrum(off_grid, 1.5)
            # The metrics themselves take any atomic measure.
            assert dsharp(off_grid, on_grid) > 0.0
            assert prokhorov_distance(off_grid, on_grid) > 0.0


class TestStableMixingConstant:
    """Scale constant mapping spectral weight to the stable scale."""

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.3, 1.9])
    def test_reflection_route_agrees(self, alpha):
        direct = stable_mixing_constant(alpha)
        reflected = math.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0)
        np.testing.assert_allclose(direct, reflected, rtol=1e-12,
                                   err_msg=f"two evaluation routes disagree at alpha={alpha}")

    def test_value_at_three_halves(self):
        np.testing.assert_allclose(stable_mixing_constant(1.5), math.sqrt(2.0 * math.pi), rtol=1e-12)

    @pytest.mark.parametrize("alpha", [1.0 - 1e-6, 1.0 + 1e-6])
    def test_continuous_through_one(self, alpha):
        np.testing.assert_allclose(stable_mixing_constant(alpha), math.pi / 2.0, rtol=1e-4)

    def test_exact_half_pi_at_one(self):
        # row_cauchy takes its scale constant from this function at index one,
        # while pushforward_one uses pi/2 directly: they must agree bit for bit.
        assert stable_mixing_constant(1.0).hex() == (0.5 * math.pi).hex()

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -0.5])
    def test_domain(self, alpha):
        with pytest.raises(ValueError):
            stable_mixing_constant(alpha)


class TestPushforwardAlpha:
    """Mapping (location, spectral shape) pairs onto stable parameter atoms."""

    def test_symmetric_atom_keeps_location(self):
        shape = SpectralParams(1.5, 0.8, 0.8)
        result = pushforward_alpha([(2.0, shape, 1.0)], 1.5)
        ((params, weight),) = result.mixing.atoms
        assert params.gamma == 2.0, "symmetric shapes must not shift the location"
        assert params.beta == 0.0
        np.testing.assert_allclose(params.c, stable_mixing_constant(1.5) * 1.6, rtol=1e-12)
        assert weight == 1.0
        assert result.gamma_consistent

    def test_asymmetric_atom_shifts_location_and_skews(self):
        shape = SpectralParams(1.5, 0.2, 0.6)
        drift = 1.5 * math.pi / (2.0 * math.cos(0.75 * math.pi))
        result = pushforward_alpha([(0.7 + 0.4 * drift, shape, 1.0)], 1.5)
        ((params, _),) = result.mixing.atoms
        np.testing.assert_allclose(params.beta, -0.5, rtol=1e-12)
        np.testing.assert_allclose(params.gamma, 0.7, rtol=1e-12)

    @pytest.mark.parametrize("alpha,c_minus,c_plus", [
        (1.5, 0.0, 1.0),
        (1.5, 0.5, 2.0),
        (1.3, 1.0, 0.0),
        (0.7, 0.25, 1.0),
    ])
    def test_skewed_image_matches_levy_exponent(self, alpha, c_minus, c_plus):
        # Independent oracle: the exponent of a stable law with tail weights
        # (c_minus, c_plus) and vanishing smoothed-mean location is
        # alpha*Gamma(-alpha)*[c_plus*(-it)^alpha + c_minus*(it)^alpha],
        # evaluated on the principal branch.
        total = c_minus + c_plus
        drift = alpha * math.pi / (2.0 * math.cos(math.pi * alpha / 2.0))
        eta = (c_plus - c_minus) * drift
        shape = SpectralParams(alpha, c_minus, c_plus)
        result = pushforward_alpha([(eta, shape, 1.0)], alpha)
        ((params, _),) = result.mixing.atoms
        np.testing.assert_allclose(params.c, stable_mixing_constant(alpha) * total, rtol=1e-12)
        np.testing.assert_allclose(params.beta, (c_minus - c_plus) / total, rtol=1e-12)
        np.testing.assert_allclose(params.gamma, 0.0, atol=1e-12)
        coeff = alpha * math.gamma(-alpha)
        for t in (0.4, 1.0, 2.3, -0.8):
            exponent = coeff * (
                c_plus * (-1j * t) ** alpha + c_minus * (1j * t) ** alpha
            )
            np.testing.assert_allclose(
                complex(stable_cf(t, params)),
                complex(np.exp(exponent)),
                rtol=1e-10,
                err_msg=f"image law disagrees with the tail-weight exponent at t={t}",
            )

    def test_null_shape_becomes_point_mass(self):
        result = pushforward_alpha([(1.5, SpectralParams(1.5, 0.0, 0.0), 1.0)], 1.5)
        ((params, _),) = result.mixing.atoms
        assert params.is_point_mass
        assert params.gamma == 1.5

    def test_gamma_inconsistency_is_flagged(self):
        atoms = [
            (0.0, SpectralParams(1.5, 0.5, 0.5), 0.5),
            (1.0, SpectralParams(1.5, 0.5, 0.5), 0.5),
        ]
        result = pushforward_alpha(atoms, 1.5)
        assert not result.gamma_consistent
        assert result.gamma_values == (0.0, 1.0)
        assert len(result.mixing.atoms) == 2

    def test_identical_images_merge(self):
        shape = SpectralParams(1.5, 0.3, 0.3)
        result = pushforward_alpha([(0.0, shape, 0.25), (0.0, shape, 0.75)], 1.5)
        ((_, weight),) = result.mixing.atoms
        assert weight == pytest.approx(1.0)

    def test_mixture_cf_matches_manual_sum(self):
        atoms = [
            (0.0, SpectralParams(1.5, 0.4, 0.4), 0.5),
            (0.0, SpectralParams(1.5, 1.0, 1.0), 0.5),
        ]
        result = pushforward_alpha(atoms, 1.5)
        t = 0.7
        manual = sum(w * stable_cf(t, p) for p, w in result.mixing.atoms)
        np.testing.assert_allclose(
            complex(mixture_cf(t, result.mixing)), complex(manual), rtol=1e-12
        )

    def test_rejections(self):
        good = SpectralParams(1.5, 0.5, 0.5)
        with pytest.raises(ValueError, match=r"tail index .* got 1\.0005"):
            pushforward_alpha([(0.0, good, 1.0)], 1.0005)
        with pytest.raises(ValueError, match="does not match"):
            pushforward_alpha([(0.0, SpectralParams(1.2, 0.5, 0.5), 1.0)], 1.5)
        with pytest.raises(ValueError, match="at least one"):
            pushforward_alpha([], 1.5)
        with pytest.raises(ValueError, match="sum to 1"):
            pushforward_alpha([(0.0, good, 0.4)], 1.5)


class TestPushforwardOne:
    """Cauchy-index pushforward with the symmetry requirement."""

    def test_unit_weights_give_unit_scale(self):
        shape = SpectralParams(1.0, 1.0 / math.pi, 1.0 / math.pi)
        mixing = pushforward_one([(0.5, shape, 1.0)])
        ((params, _),) = mixing.atoms
        np.testing.assert_allclose(params.c, 1.0, rtol=1e-12)
        assert params.gamma == 0.5
        assert params.beta == 0.0
        assert params.alpha == 1.0

    def test_two_atoms(self):
        atoms = [
            (0.5, SpectralParams(1.0, 2.0 / math.pi, 2.0 / math.pi), 0.4),
            (-1.0, SpectralParams(1.0, 1.0 / math.pi, 1.0 / math.pi), 0.6),
        ]
        mixing = pushforward_one(atoms)
        scales = sorted(p.c for p, _ in mixing.atoms)
        np.testing.assert_allclose(scales, [1.0, 2.0], rtol=1e-12)

    def test_slight_asymmetry_within_tolerance(self):
        shape = SpectralParams(1.0, (1.0 / math.pi) * 0.99, (1.0 / math.pi) * 1.01)
        mixing = pushforward_one([(0.0, shape, 1.0)])
        ((params, _),) = mixing.atoms
        np.testing.assert_allclose(params.c, (math.pi / 2.0) * shape.total_weight, rtol=1e-12)

    def test_asymmetric_atom_is_named_in_error(self):
        atoms = [
            (0.0, SpectralParams(1.0, 0.3, 0.3), 0.5),
            (0.0, SpectralParams(1.0, 0.1, 0.5), 0.5),
        ]
        with pytest.raises(ValueError, match="atom 1"):
            pushforward_one(atoms)

    def test_null_shape_becomes_point_mass(self):
        mixing = pushforward_one([(2.0, SpectralParams(1.0, 0.0, 0.0), 1.0)])
        ((params, _),) = mixing.atoms
        assert params.is_point_mass
        assert params.gamma == 2.0

    def test_rejects_wrong_index(self):
        with pytest.raises(ValueError, match="Cauchy index"):
            pushforward_one([(0.0, SpectralParams(1.5, 0.5, 0.5), 1.0)])


class TestCharQuantities:
    """The assembled per-realization bundle."""

    def test_fields_match_components(self):
        p = CauchyLaw(0.0, 1.0)
        n, tau = 1000, 1.0
        bundle = char_quantities(p, LINEAR_NORMING, n, tau)
        assert bundle.n == n and bundle.tau == tau
        assert bundle.m_trunc == trunc_mean(p, LINEAR_NORMING, n, tau)
        assert bundle.m_smooth == smooth_mean(p, LINEAR_NORMING, n)
        assert bundle.sigma2_trunc == trunc_variance(p, LINEAR_NORMING, n, tau)
        assert bundle.sigma2_bar_proxy == sigma_bar_proxy(p, LINEAR_NORMING, proxy_window(n))
        assert bundle.q_eps == tail_mass_quantity(p, LINEAR_NORMING, n, 1.0)
        assert bundle.lambda_n.atoms == spectral_measure_lambda(p, LINEAR_NORMING, n).atoms

    def test_validation(self):
        null = AtomicMeasure()
        with pytest.raises(ValueError, match="variance"):
            CharQuantities(10, 1.0, 0.0, 0.0, -1.0, 0.0, null, 0.0)
        with pytest.raises(ValueError, match="tail"):
            CharQuantities(10, 1.0, 0.0, 0.0, 0.0, 0.0, null, -0.5)


def _gauss_legendre_dsharp(mu, nu, nodes, r_max=20.0):
    """The restriction metric by Gauss-Legendre quadrature on (0, r_max),
    independent of the exact segment sum of dsharp."""
    radii, weights = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for x, w in zip(radii, weights):
        r = 0.5 * r_max * (x + 1.0)
        d = prokhorov_distance(_restrict_open_ball(mu, r), _restrict_open_ball(nu, r))
        total += w * math.exp(-r) * d / (1.0 + d)
    return 0.5 * r_max * total


def _oracle_pairs(rng):
    """Seeded measure pairs: independent, sharing locations, nested (so some
    restrictions of one side are empty), equal, and against the null measure."""
    for _ in range(30):
        mu, nu = _random_measure(rng, 8), _random_measure(rng, 8)
        yield mu, nu
        shared = rng.uniform(0.1, 2.0, size=len(mu.atoms))
        yield mu, AtomicMeasure.from_pairs(zip([x for x, _ in mu.atoms], shared.tolist()))
        far = rng.uniform(3.0, 25.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        yield AtomicMeasure.from_pairs(zip(far.tolist(), [0.5, 1.0, 1.5])), nu
        yield mu, AtomicMeasure(mu.atoms)
        yield AtomicMeasure(), nu
    yield AtomicMeasure(), AtomicMeasure()


def _pairs(*pairs):
    return AtomicMeasure.from_pairs(pairs)


def _union(mu, nu):
    """The sorted distinct atom locations of ``mu`` and ``nu``."""
    return tuple(sorted({x for x, _ in (*mu.atoms, *nu.atoms)}))


def _radii(mu, nu):
    """The midpoint of each radius segment of dsharp."""
    return [0.5 * (left + right) for left, right in oracle.segments(mu, nu)]


# Measure pairs whose distance is read at a known place: the mass gap, above
# it in the first of two intervals, at least 30 intervals up, and the last
# interval (edge hi).
# Each has P, N > 0 over the whole line, so prokhorov_distance searches.
_LATTICE = [(0.001 * i, 0.02) for i in range(50)]
_PLACED_PAIRS = {
    "gap": (_pairs((0.0, 1.0), (1.0, 0.25)), _pairs((0.0, 0.5), (1.25, 0.25))),
    "first": (_pairs((0.0, 1.0), (1.5, 0.5)), _pairs((0.25, 1.25))),
    "deep": (AtomicMeasure.from_pairs(_LATTICE), AtomicMeasure.from_pairs((x + 0.1, m) for x, m in _LATTICE)),
    "last": (_pairs((0.0, 0.5), (0.2, 0.5)), _pairs((3.0, 0.5), (3.3, 0.5))),
}
# Pairs that take the closed form over the whole line: one support point,
# and mu heavier at every point.
_DOMINATED_PAIRS = {
    "one point": (_pairs((0.0, 1.0)), _pairs((0.0, 0.5))),
    "one side heavier": (_pairs((0.0, 1.0), (0.5, 0.5)), _pairs((0.0, 0.5))),
}
# U = 0.05 below the smallest gap g = 0.5 on the radii above 0.5, where each
# closed eps-ball below g holds only its own point: the search returns U,
# where an earlier search read 0.050000000000000044.
_BELOW_THE_GAP = {"below the gap": (_pairs((0.0, 0.05), (1.0, 0.95)), _pairs((0.5, 0.05), (1.0, 0.95)))}


def _placed(name, at_gap, k, last):
    return {
        "gap": at_gap,
        "first": k == 0 < last and not at_gap,
        "deep": 30 <= k < last,
        "last": 0 < k == last,
    }[name]


@pytest.fixture
def exact_distances(monkeypatch):
    """Requires every restricted distance that the library returns while the
    test runs, closed forms included, to equal the exact oracle's bit for
    bit, and records (the oracle's :class:`Exact`, whether the search ran)
    for each."""
    records = []
    searches = []
    restricted = characteristics._restricted_distances
    search = characteristics._prokhorov_arrays

    def counting(*args):
        searches.append(args)
        return search(*args)

    def checked(mu, nu, radii):
        exact, radii = oracle.restricted(mu, nu), list(radii)
        distances = restricted(mu, nu, radii)
        for radius in radii:
            before = len(searches)
            d, want = next(distances), exact(radius)
            assert d == want.distance, f"{mu.atoms} vs {nu.atoms} at radius {radius!r}: {d!r} != {want}"
            records.append((want, len(searches) > before))
            yield d

    monkeypatch.setattr(characteristics, "_prokhorov_arrays", counting)
    monkeypatch.setattr(characteristics, "_restricted_distances", checked)
    return records


class TestGallopingSearch:
    """Every distance that the galloping search returns, and every closed
    form, equals the exact oracle's bit for bit, and so do the totals."""

    def test_equal_on_seeded_measures(self, exact_distances):
        rng = np.random.default_rng(20240601)
        for trial, (mu, nu) in enumerate(_oracle_pairs(rng)):
            for a, b in ((mu, nu), (nu, mu)):
                assert prokhorov_distance(a, b) == oracle.distance(a, b), f"pair {trial}"
                assert dsharp(a, b) == oracle.dsharp(a, b), f"pair {trial}"
        assert len(exact_distances) > 1000

    def test_equal_on_spectral_fit_residuals(self, exact_distances, benchmark_measures):
        law = ParetoLaw(1.5, 1.3, 0.5)
        for n in (100, 1000, 10000, 100000):
            measure = spectral_measure_lambda(law, PARETO_NORMING, n)
            for alpha in (1.5, 1.2):
                params, residual = fit_spectrum(measure, alpha)
                assert residual == oracle.dsharp(measure, discretize_spectral(params)), f"n={n}, alpha={alpha}"
        # Every radius of the benchmark panels' fits at seeds 3, 5, 7 and 11.
        for _, measure, alpha, _ in benchmark_measures:
            fit_spectrum(measure, alpha)
        searched = [exact for exact, ran in exact_distances if ran]
        assert len(searched) > 1000
        first = [exact.distance == exact.gap for exact in searched if exact.k == 0]
        assert True in first and False in first, "the fits should return both at the gap and above it in interval 0"

    def test_searches_only_off_the_closed_form(self, exact_distances):
        law = ParetoLaw(1.5, 1.3, 0.5)
        for n in (100, 100000):
            measure = spectral_measure_lambda(law, PARETO_NORMING, n)
            for alpha in (1.5, 1.2):
                fit_spectrum(measure, alpha)
        # 60 radii: the dominated ones, and a search for every other one.
        assert len(exact_distances) == 60
        assert [ran for _, ran in exact_distances] == [not exact.dominated for exact, _ in exact_distances]
        assert any(ran and exact.distance > exact.gap for exact, ran in exact_distances), (
            "the fits should need searched distances above the mass gap"
        )

    @pytest.mark.parametrize("name", sorted(_PLACED_PAIRS))
    def test_equal_wherever_the_answer_lies(self, name, exact_distances):
        mu, nu = _PLACED_PAIRS[name]
        d, gap, _, k, last = oracle.restricted(mu, nu)(math.inf)
        assert _placed(name, d == gap, k, last), f"{name}: the answer {d!r} is in interval {k} of 0..{last}"
        for a, b in ((mu, nu), (nu, mu)):
            assert prokhorov_distance(a, b) == d
            assert dsharp(a, b) == oracle.dsharp(a, b)
        assert any(ran for _, ran in exact_distances)

    def test_extreme_masses(self, exact_distances):
        # The pair's masses scale to integers by 2**1074, and a 1e300 mass
        # becomes an integer of about 2070 bits.
        tiny, huge = 5e-324, 1e300
        pairs = [
            (_pairs((0.0, huge), (2.0, tiny)), _pairs((1.0, huge), (3.0, tiny))),
            (_pairs((0.0, tiny)), _pairs((tiny, tiny))),
            (_pairs((0.0, huge), (0.5, tiny), (1.0, 3.0)), _pairs((0.25, 2 * tiny), (1.0, huge))),
        ]
        for mu, nu in pairs:
            for a, b in ((mu, nu), (nu, mu)):
                assert prokhorov_distance(a, b) == oracle.brute_distance(a, b)
                assert dsharp(a, b) == oracle.dsharp(a, b)
        assert sum(ran for _, ran in exact_distances) >= 2 * len(pairs)


class TestReflection:
    """Mirroring both measures, or swapping them, changes no distance: the
    search sums in integers, so the order in which it walks the atoms
    leaves no trace (Samorodnitsky & Taqqu 1994, Property 1.2.3)."""

    @staticmethod
    def _assert_invariant(mu, nu, what):
        for distance in (dsharp, prokhorov_distance):
            want = distance(mu, nu)
            for a, b in ((nu, mu), (_mirror(mu), _mirror(nu)), (_mirror(nu), _mirror(mu))):
                assert distance(a, b) == want, f"{what}: {distance.__name__} {distance(a, b)!r} != {want!r}"

    def test_seeded_pairs(self):
        rng = np.random.default_rng(20261020)
        for trial in range(1000):
            self._assert_invariant(_random_measure(rng, 8), _random_measure(rng, 8), f"pair {trial}")

    def test_benchmark_panels(self, benchmark_fits):
        for fit in benchmark_fits:
            if fit.seed == 3:
                self._assert_invariant(fit.measure, fit.shape, fit.what)


class TestProkhorovWork:
    """A distance above the mass gap costs a search over the critical
    distances, logarithmic in their number and in the answer's position, not
    a bisection to a fixed tolerance."""

    def test_dp_calls_are_logarithmic_in_the_critical_set(self, monkeypatch, exact_distances):
        calls = []
        one_sided = characteristics._prokhorov_one_sided
        search = characteristics._prokhorov_arrays

        def counting_one_sided(*args):
            calls[-1][1] += 1
            return one_sided(*args)

        def counting_search(*args):
            calls.append([len(args[4]), 0])
            return search(*args)

        monkeypatch.setattr(characteristics, "_prokhorov_one_sided", counting_one_sided)
        monkeypatch.setattr(characteristics, "_prokhorov_arrays", counting_search)
        measure = spectral_measure_lambda(ParetoLaw(1.5, 1.3, 0.5), PARETO_NORMING, 100000)
        fit_spectrum(measure, 1.2)
        # 15 radii: the dominated ones, and a search for every other one.
        assert len(calls) + sum(exact.dominated for exact, _ in exact_distances) == 15
        searched = [count for _, count in calls if count > 2]
        assert searched, "no distance needed a search; the bound proves nothing"
        for size, count in calls:
            bound = 2 * (math.ceil(math.log2(size + 1)) + 2)
            assert count <= bound, f"{count} dynamic-program calls for {size} critical distances"

    def test_dp_calls_are_logarithmic_in_the_answer_position(self, monkeypatch):
        # Probes at 0, 1, 3, ..., 2^j - 1 with j = ceil(log2(k + 1)), j - 1
        # bisection probes, and one uncapped probe of the last interval; at
        # most two passes per probe.
        passes = []
        one_sided = characteristics._prokhorov_one_sided

        def counting_one_sided(*args):
            passes.append(args)
            return one_sided(*args)

        monkeypatch.setattr(characteristics, "_prokhorov_one_sided", counting_one_sided)
        deepest = 0
        for mu, nu in [*_PLACED_PAIRS.values(), *_oracle_pairs(np.random.default_rng(7))]:
            passes.clear()
            prokhorov_distance(mu, nu)
            k = oracle.restricted(mu, nu)(math.inf).k
            deepest = max(deepest, k)
            bound = 2 * (2 * math.ceil(math.log2(k + 1)) + 1)
            assert len(passes) <= bound, f"{len(passes)} dynamic-program calls for an answer in interval {k}"
        assert deepest >= 30

    @pytest.mark.parametrize(
        "name, passes, want",
        [("gap", 2, 0.5), ("first", 2, 0.5), ("deep", 20, 0.09600000000000002), ("last", 4, 1.0)],
    )
    def test_dp_calls_on_placed_pairs(self, name, passes, want, monkeypatch):
        # "gap" and "first" cost one probe of interval 0.
        calls = []
        one_sided = characteristics._prokhorov_one_sided

        def counting_one_sided(*args):
            calls.append(args)
            return one_sided(*args)

        monkeypatch.setattr(characteristics, "_prokhorov_one_sided", counting_one_sided)
        mu, nu = _PLACED_PAIRS[name]
        for a, b in ((mu, nu), (nu, mu)):
            calls.clear()
            assert prokhorov_distance(a, b) == want
            assert len(calls) == passes, f"{name}: {len(calls)} one-sided passes"


def _assert_dp_matches_reference(mu, nu):
    """The list dynamic program on masses in units of 2**-1074 against the
    oracle's, in both directions, at the mass gap, at every critical
    distance and at every midpoint between two, under the caps 0, the gap,
    the next critical distance above eps and inf: the same integer whenever
    the oracle's is at most the cap, and a value above the cap exactly when
    the oracle's is."""
    critical = oracle.critical_distances(_union(mu, nu))
    gap = abs(mu.total_mass - nu.total_mass)
    radii = [gap, *critical, *(0.5 * (a + b) for a, b in zip(critical, critical[1:]))]
    for a, b in ((mu, nu), (nu, mu)):
        a_units, b_units = oracle.in_units(a.atoms), oracle.in_units(b.atoms)
        b_cum = list(accumulate((m for _, m in b_units), initial=0))
        lists = ([x for x, _ in a_units], [m for _, m in a_units], [y for y, _ in b_units], b_cum)
        for eps in radii:
            want = oracle.one_sided(a_units, b_units, eps)
            above = [c for c in critical if c > eps]
            for cap in (0.0, gap, above[0] if above else math.inf, math.inf):
                cap_units = oracle.units(cap) if cap < math.inf else cap
                got = characteristics._prokhorov_one_sided(*lists, eps, cap_units)
                what = f"{a.atoms} vs {b.atoms} at eps {eps!r}, cap {cap!r}"
                if want <= cap_units:
                    assert got == want, f"{what}: {got!r} != {want!r}"
                else:
                    assert got > cap_units, f"{what}: {got!r} does not exceed the cap, oracle {want!r}"


class TestListDynamicProgram:
    """The one-sided pass on lists, with its early exit, against the oracle's."""

    def test_bitwise_equal_on_seeded_measures(self):
        for mu, nu in _oracle_pairs(np.random.default_rng(20240601)):
            _assert_dp_matches_reference(mu, nu)

    @pytest.mark.parametrize("name", sorted(_PLACED_PAIRS))
    def test_bitwise_equal_on_placed_pairs(self, name):
        _assert_dp_matches_reference(*_PLACED_PAIRS[name])


class TestCriticalDistanceBound:
    def test_rejects_one_location_over_the_bound(self):
        many = AtomicMeasure.from_pairs((float(i), 1.0) for i in range(characteristics._MAX_CRITICAL_LOCATIONS + 1))
        message = f"{characteristics._MAX_CRITICAL_LOCATIONS + 1} distinct atom locations"
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                prokhorov_distance(many, AtomicMeasure())
            with pytest.raises(ValueError, match=message):
                dsharp(many, AtomicMeasure())

    def test_rejects_before_any_closed_form(self, monkeypatch):
        # Masses 1e-6 a unit apart: every radius takes the closed form, so
        # the bound alone decides, whatever the masses.
        monkeypatch.setattr(characteristics, "_critical_distances", None)
        size = characteristics._MAX_CRITICAL_LOCATIONS
        light = AtomicMeasure.from_pairs((float(i), 1e-6) for i in range(size))
        heavier = AtomicMeasure.from_pairs((float(i), 1e-6) for i in range(size + 1))
        for distance in (dsharp, prokhorov_distance):
            assert distance(light, AtomicMeasure()) > 0
            with pytest.raises(ValueError, match=f"{size + 1} distinct atom locations"):
                distance(heavier, AtomicMeasure())

    def test_each_location_set_gets_its_own_critical_set(self, monkeypatch):
        sets = []
        search = characteristics._prokhorov_arrays

        def recording(*args):
            sets.append(args[4])
            return search(*args)

        monkeypatch.setattr(characteristics, "_prokhorov_arrays", recording)
        first = (_pairs((0.0, 1.0), (1.0, 0.5)), _pairs((0.25, 1.0)))
        second = (_pairs((-0.75, 1.0), (3.0, 0.5)), _pairs((0.5, 1.0), (2.0, 0.25)))
        for mu, nu in (first, second, first):
            sets.clear()
            before = characteristics._critical_distances.cache_info()
            dsharp(mu, nu)
            prokhorov_distance(mu, nu)
            after = characteristics._critical_distances.cache_info()
            want = tuple(oracle.critical_distances(_union(mu, nu)))
            assert sets and all(isinstance(c, tuple) and c == want for c in sets)
        # The third pass found the set of the first in the memo.
        assert after.misses == before.misses and after.hits > before.hits

    def test_a_set_above_the_memo_bound_is_not_retained(self):
        size = characteristics._CRITICAL_MEMO_POINTS // 2 + 1
        mu = AtomicMeasure.from_pairs((0.1 * i, 1.0) for i in range(size))
        nu = AtomicMeasure.from_pairs((0.1 * i + 0.05, 1.0) for i in range(size))
        before = characteristics._critical_distances.cache_info()
        assert prokhorov_distance(mu, nu) == oracle.distance(mu, nu)
        assert dsharp(mu, nu) == oracle.dsharp(mu, nu)
        after = characteristics._critical_distances.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


def spectral_cdf(params, x):
    """Cumulative spectral shape: -c_minus*|x|**alpha left of 0, c_plus*x**alpha right."""
    if x == 0:
        raise ValueError("the spectral shape is undefined at x = 0")
    if x < 0:
        return -params.c_minus * (-x) ** params.alpha
    return params.c_plus * x ** params.alpha


def _ref_cell_walk(pts, cum):
    """The former per-cell loop: ``cum`` at both ends of every cell."""
    atoms = []
    for left, right in zip(pts[:-1], pts[1:]):
        if left < 0 < right:
            continue
        mass = cum(right) - cum(left)
        if mass <= 0:
            continue
        location = math.copysign(math.sqrt(abs(left) * abs(right)), left)
        atoms.append((location, mass))
    return AtomicMeasure.from_pairs(atoms)


def _ref_spectral_lambda(p, norming, n, grid=DEFAULT_SPECTRAL_GRID):
    b = norming.b(n)

    def g_value(x):
        if x < 0:
            return -n * p.cdf(b / x)
        return n * p.right_tail(b / x)

    return _ref_cell_walk(np.asarray(grid, dtype=float), g_value)


def _hex_atoms(measure):
    return [(loc.hex(), mass.hex()) for loc, mass in measure.atoms]


class _CountingCauchy(CauchyLaw):
    """Cauchy law that counts its cdf and right-tail evaluations."""

    calls = 0

    def cdf(self, x):
        type(self).calls += 1
        return super().cdf(x)

    def right_tail(self, x):
        type(self).calls += 1
        return super().right_tail(x)


class TestCellWalk:
    """One distribution-function evaluation per grid point, same atoms as the
    former two-evaluations-per-cell loop."""

    def test_one_evaluation_per_grid_point(self):
        law = _CountingCauchy(0.0, 1.0)
        for n in (100, 100000):
            _CountingCauchy.calls = 0
            spectral_measure_lambda(law, LINEAR_NORMING, n)
            assert _CountingCauchy.calls == len(DEFAULT_SPECTRAL_GRID) == 42, (
                f"{_CountingCauchy.calls} cdf/right_tail calls at n={n}"
            )

    @pytest.mark.parametrize(
        "law, norming",
        [
            (CauchyLaw(0.3, 1.2), LINEAR_NORMING),
            (ParetoLaw(1.5, 1.3, 0.5), PARETO_NORMING),
            (ParetoLaw(1.5, 0.8, 1.0), PARETO_NORMING),
            (UniformLaw(-1.0, 2.0), SQRT_NORMING),
            (StableLaw(StableParams(1.5, 0.2, 1.0, 0.5)), PARETO_NORMING),
        ],
    )
    def test_lambda_bitwise_equal_to_reference(self, law, norming):
        for n in (100, 100000):
            got = spectral_measure_lambda(law, norming, n)
            assert got.atoms, f"{law!r} at n={n}: empty measure proves nothing"
            assert _hex_atoms(got) == _hex_atoms(_ref_spectral_lambda(law, norming, n)), (
                f"{law!r} at n={n}: atoms drifted from the reference"
            )

    @pytest.mark.parametrize("params", [SpectralParams(1.5, 0.3, 0.7), SpectralParams(1.0, 0.0, 0.5)])
    def test_discretize_bitwise_equal_to_reference(self, params):
        got = discretize_spectral(params)
        reference = _ref_cell_walk(
            np.asarray(DEFAULT_SPECTRAL_GRID, dtype=float), lambda x: spectral_cdf(params, x)
        )
        assert got.atoms, f"{params!r}: empty measure proves nothing"
        assert _hex_atoms(got) == _hex_atoms(reference)


class TestCriticalDistances:
    """The sort-and-mask distinct values equal np.unique's."""

    def test_equal_to_np_unique_on_unsorted_and_empty_locations(self):
        rng = np.random.default_rng(20261019)
        pool = np.round(rng.normal(scale=3.0, size=25), 2)
        for size in (0, 1, 2, 7, 40, 81):
            points = np.unique(rng.choice(pool, size=size))
            want = np.unique(np.abs(points[:, None] - points[None, :]))
            got = characteristics._critical_distances.__wrapped__(tuple(points.tolist()))
            assert isinstance(got, tuple), f"{size} locations"
            assert [x.hex() for x in got] == [x.hex() for x in want.tolist()], f"{size} locations"


# A reference copy of the fit path before it moved onto Python floats: each
# side's cumulative masses are exact integer sums of that side's atoms in
# units of 2**-1074, rounded once, over the same edges for both sides; the
# fitted shape comes from the cell walk at NumPy grid points.


def _ref_fit_spectrum(measure, alpha):
    edges = [x for x in DEFAULT_SPECTRAL_GRID if DEFAULT_FIT_WINDOW[0] <= x <= DEFAULT_FIT_WINDOW[1]]
    exact = oracle.in_units(measure.atoms)

    def fit_side(side):
        # side holds (distance from 0, exact mass) of one side's atoms.
        cums = [(edge, oracle.rounded(sum(m for d, m in side if d <= edge))) for edge in edges]
        if cums[-1][1] < 1e-8:
            return 0.0
        logs = [math.log(cum) - alpha * math.log(edge) for edge, cum in cums if cum > 1e-12]
        return math.exp(sum(logs) / len(logs))

    c_plus = fit_side([(x, m) for x, m in exact if x > 0])
    c_minus = fit_side([(-x, m) for x, m in exact if x < 0])
    params = SpectralParams(alpha, c_minus, c_plus)
    return params, _ref_cell_walk(np.asarray(DEFAULT_SPECTRAL_GRID, dtype=float), lambda x: spectral_cdf(params, x))


def _benchmark_specs(tmp_path):
    """The resolved specs of the benchmark's two checker configs, which the
    contract tool reads from perfbench/run.py."""
    module = importlib.util.spec_from_file_location("contract_outputs", ROOT / "tools" / "contract_outputs.py")
    tool = importlib.util.module_from_spec(module)
    module.loader.exec_module(tool)
    specs = []
    for label, config, _ in tool.contract_runs(ROOT)[-2:]:
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        specs.append(load_config(str(path)).spec)
    return specs


@pytest.fixture(scope="module")
def benchmark_measures(tmp_path_factory):
    """(what, spectral measure, alpha, seed) for every distinct draw and
    checker n of both benchmark configs' panels at seeds 3, 5, 7 and 11,
    built once for the module."""
    with pytest.MonkeyPatch.context() as patch:
        # Loading the contract tool puts its own directories on sys.path.
        patch.setattr(sys, "path", list(sys.path))
        specs = _benchmark_specs(tmp_path_factory.mktemp("benchmark"))
    measures = []
    for spec in specs:
        for seed in (3, 5, 7, 11):
            panel = DrawPanel(spec.law, spec.norming, spec.checker_ngrid, seed)
            for n in spec.checker_ngrid.values:
                for p in panel.unique:
                    what = f"{p!r} at n={n}, seed {seed}"
                    measures.append((what, spectral_measure_lambda(p, spec.norming, n), spec.alpha, seed))
    return measures


class _Fit(NamedTuple):
    what: str
    measure: AtomicMeasure
    alpha: float
    seed: int
    params: SpectralParams
    residual: float
    shape: AtomicMeasure  # discretize_spectral(params)
    exact: Callable  # the oracle's restricted distance of measure and shape


@pytest.fixture(scope="module")
def benchmark_fits(benchmark_measures):
    """The library's fit of every measure of ``benchmark_measures`` at seeds
    3 and 5, made once for the module."""
    fits = []
    for what, measure, alpha, seed in benchmark_measures:
        if seed in (3, 5):
            params, residual = fit_spectrum(measure, alpha)
            shape = discretize_spectral(params)
            fits.append(_Fit(what, measure, alpha, seed, params, residual, shape, oracle.restricted(measure, shape)))
    return fits


class TestFitPathOracle:
    """fit_spectrum and dsharp on lists against the reference fit path and
    the exact oracle, bit for bit, on every draw and checker n of both
    benchmark configs at seeds 3 and 5."""

    def test_bitwise_equal_on_benchmark_panels(self, benchmark_fits):
        for fit in benchmark_fits:
            want_params, want_shape = _ref_fit_spectrum(fit.measure, fit.alpha)
            weights = [(x.c_minus.hex(), x.c_plus.hex()) for x in (fit.params, want_params)]
            assert weights[0] == weights[1], f"{fit.what}: {fit.params} != {want_params}"
            assert _hex_atoms(fit.shape) == _hex_atoms(want_shape), fit.what
            want_residual = oracle.dsharp(fit.measure, want_shape, fit.exact)
            assert fit.residual.hex() == want_residual.hex(), f"{fit.what}: {fit.residual!r} != {want_residual!r}"
        assert len(benchmark_fits) == 2 * (200 * 4 + 100 * 2)


def _mirror(measure):
    return AtomicMeasure.from_pairs((-x, m) for x, m in measure.atoms)


def _weights(params):
    return params.c_minus.hex(), params.c_plus.hex()


class TestSideSymmetry:
    """Both sides of a fit are one computation, so reflection swaps the
    fitted weights bit for bit (Samorodnitsky & Taqqu 1994, Property 1.2.3)
    and a symmetric law fits c_minus == c_plus and beta = 0 exactly."""

    def test_mirrored_benchmark_measures_fit_swapped_weights(self, benchmark_measures):
        fits = 0
        for what, measure, alpha, seed in benchmark_measures:
            if seed != 3:
                continue
            params, _ = fit_spectrum(measure, alpha)
            mirrored, _ = fit_spectrum(_mirror(measure), alpha)
            assert _weights(mirrored) == _weights(params)[::-1], f"{what}: {mirrored} is not {params} swapped"
            # Both configs draw symmetric laws: a symmetric Pareto base and a beta = 0 stable base.
            assert params.c_minus.hex() == params.c_plus.hex(), f"{what}: {params}"
            fits += 1
        assert fits == 200 * 4 + 100 * 2

    @pytest.mark.parametrize("n", [100, 1000])
    def test_reflected_stable_law_fits_swapped_weights(self, n):
        law = StableLaw(StableParams(1.5, 0.3, 2.0, 0.4))
        reflected = StableLaw(StableParams(1.5, -0.3, 2.0, -0.4))
        measure = spectral_measure_lambda(law, PARETO_NORMING, n)
        mirror = spectral_measure_lambda(reflected, PARETO_NORMING, n)
        assert _hex_atoms(mirror) == _hex_atoms(_mirror(measure))
        params, _ = fit_spectrum(measure, 1.5)
        assert params.c_minus != params.c_plus
        assert _weights(fit_spectrum(mirror, 1.5)[0]) == _weights(params)[::-1]

    def test_symmetric_scenario_reports_zero_skew_and_location(self):
        (verdict,) = [v for v in run_scenario("pareto-mix", 0).verdicts if v["name"] == "stable_mixture"]
        limit = verdict["estimated_limit"]
        atoms = limit["atoms"]
        assert len(atoms) == 2
        for value in (limit["gamma"], *(a[key] for a in atoms for key in ("beta", "gamma"))):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, f"{value!r} is not +0.0 in {limit}"
        assert [a["c"] for a in atoms] == sorted(a["c"] for a in atoms)


def _assert_exact_on_every_radius(mu, nu, what, exact=None):
    """The library's distance on every dsharp radius and on the whole line
    equals the exact oracle's (``exact``, the pair's
    :func:`oracle.restricted`, if the caller holds it). Returns how many of
    them, the whole line counted as one, are dominated: min(P, N) = 0."""
    exact, radii = exact or oracle.restricted(mu, nu), (*_radii(mu, nu), math.inf)
    dominated = 0
    for radius, d in zip(radii, characteristics._restricted_distances(mu, nu, radii)):
        want = exact(radius)
        assert d == want.distance, f"{what}, radius {radius!r}: {d!r} != {want}"
        dominated += want.dominated
    return dominated


class TestClosedForm:
    """Where one side's excess is empty, dsharp's distance is the larger
    excess mass, exactly; every other radius is searched, and equals the
    exact oracle too."""

    def test_exact_on_seeded_measures(self):
        dominated = 0
        for trial, (mu, nu) in enumerate(_oracle_pairs(np.random.default_rng(20240601))):
            for a, b in ((mu, nu), (nu, mu)):
                dominated += _assert_exact_on_every_radius(a, b, f"pair {trial}")
            if trial == 1:
                # The search read 1.2478706280206042.
                assert prokhorov_distance(mu, nu) == 1.247870628020604
        assert dominated > 500

    def test_exact_on_benchmark_panels(self, benchmark_fits):
        dominated = radii = 0
        for fit in benchmark_fits:
            dominated += _assert_exact_on_every_radius(fit.measure, fit.shape, fit.what, fit.exact)
            radii += len(oracle.segments(fit.measure, fit.shape)) + 1
        assert radii > dominated > radii // 2, f"{dominated} dominated radii in {radii}"

    def test_dominated_radii_of_benchmark_panels(self, benchmark_fits):
        # Where one restriction is at least the other at every point, the
        # distance is U itself, rounded once. The search, kept for P, N > 0,
        # finds U too from a bracket that does not fix it: 0 and the larger
        # total mass.
        dominated = 0
        for what, measure, _, _, _, _, shape, exact in benchmark_fits:
            critical = characteristics._critical_distances(_union(measure, shape))
            radii = (*_radii(measure, shape), math.inf)
            for radius, got in zip(radii, characteristics._restricted_distances(measure, shape, radii)):
                want = exact(radius)
                if not want.dominated:
                    continue
                assert got == want.distance, f"{what}, radius {radius!r}: {got!r} != {want}"
                balls = [[(x, m) for x, m in atoms if abs(x) < radius] for atoms in (measure.atoms, shape.atoms)]
                top = max(math.fsum(m for _, m in ball) for ball in balls)
                shift = max((m.as_integer_ratio()[1] for ball in balls for _, m in ball), default=1).bit_length() - 1
                lists = []
                for ball in balls:
                    lists += [[x for x, _ in ball], [characteristics._scaled(m, shift) for _, m in ball]]
                searched = characteristics._prokhorov_arrays(*lists, critical, 0.0, top, shift)
                assert searched == want.distance, f"{what}, radius {radius!r}: search {searched!r}"
                dominated += 1
        assert dominated > 10000

    @pytest.mark.parametrize("name", sorted({**_PLACED_PAIRS, **_DOMINATED_PAIRS, **_BELOW_THE_GAP}))
    def test_exact_on_placed_pairs(self, name):
        mu, nu = {**_PLACED_PAIRS, **_DOMINATED_PAIRS, **_BELOW_THE_GAP}[name]
        for a, b in ((mu, nu), (nu, mu)):
            dominated = _assert_exact_on_every_radius(a, b, name)
            # A dominated pair takes the closed form on every radius and the whole line.
            assert dominated > (name in _DOMINATED_PAIRS) * len(oracle.segments(a, b))
        if name == "below the gap":
            assert prokhorov_distance(mu, nu) == 0.05

    @pytest.mark.parametrize("dominated", [True, False])
    def test_premise_boundary(self, dominated, searches):
        # mu is heavier at 0.0; one 5e-324 atom of nu at 0.25 gives nu an
        # excess on the radii above 0.25, where the pair that has it searches.
        mu = _pairs((0.0, 0.5))
        nu = _pairs((0.0, 0.25)) if dominated else _pairs((0.0, 0.25), (0.25, 5e-324))
        radii = _radii(mu, nu)
        assert list(characteristics._restricted_distances(mu, nu, radii)) == [0.25] * len(radii)
        assert len(searches) == (0 if dominated else 1)
        # The whole line holds what the largest radius holds.
        assert _assert_exact_on_every_radius(mu, nu, "boundary pair") == (2 if dominated else 1)
        assert dsharp(mu, nu) == oracle.dsharp(mu, nu)
        assert prokhorov_distance(mu, nu) == oracle.distance(mu, nu) == 0.25

    def test_a_decreasing_radius_is_rejected(self):
        # The walk only grows its ball: at the third radius it holds the
        # ball of 2.0, whose distance (0.75) is not that of the ball of 0.5
        # (0.25).
        mu, nu = _pairs((0.0, 0.5), (1.0, 0.5)), _pairs((0.0, 0.25))
        distances = characteristics._restricted_distances(mu, nu, (0.5, 2.0, 0.5))
        assert [next(distances), next(distances)] == [0.25, 0.75]
        with pytest.raises(ValueError, match=r"radius 0\.5 is smaller than the radius 2\.0 before it"):
            next(distances)


def _assert_walk_leaves_no_trace(mu, nu, what, searches, exact=None):
    """A restricted-distance walk returns the oracle's bits at every dsharp
    radius, whatever it served before: one walk over the radii increasing,
    and one over each radius twice in a row, then the whole line. It
    searches exactly where the oracle's pair is not dominated, so the walk's
    excess terms are those of its own ball; ``searches`` is the list that a
    patched search appends to."""
    exact, radii = exact or oracle.restricted(mu, nu), _radii(mu, nu)
    for walk, order in enumerate((radii, [*(r for r in radii for _ in range(2)), math.inf])):
        distances = characteristics._restricted_distances(mu, nu, order)
        for step, radius in enumerate(order):
            before = len(searches)
            d, want = next(distances), exact(radius)
            where = f"{what}, walk {walk}, call {step} at radius {radius!r}"
            assert d.hex() == want.distance.hex(), f"{where}: {d!r} != {want}"
            assert (len(searches) > before) == (not want.dominated), f"{where}: searched {len(searches) - before} times"


@pytest.fixture
def searches(monkeypatch):
    """The arguments of every search that the library runs while the test runs."""
    calls = []
    search = characteristics._prokhorov_arrays

    def recording(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(characteristics, "_prokhorov_arrays", recording)
    return calls


class TestWalkState:
    """The walk that grows each ball keeps no state that changes a distance
    or the choice to search: a repeated radius adds nothing."""

    def test_seeded_oracle_pairs(self, searches):
        rng = np.random.default_rng(42)
        for trial in range(25):
            mu, nu = _random_measure(rng), _random_measure(rng)
            for a, b in ((mu, nu), (nu, mu)):
                _assert_walk_leaves_no_trace(a, b, f"pair {trial}", searches)
        assert searches

    def test_benchmark_panels(self, benchmark_fits, searches):
        for fit in benchmark_fits:
            if fit.seed == 3:
                _assert_walk_leaves_no_trace(fit.measure, fit.shape, fit.what, searches, fit.exact)
        assert searches, "no radius needed a search; the walk's search path went unchecked"
