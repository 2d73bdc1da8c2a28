"""Tests for per-realization characteristic quantities, spectral measures,
the restriction metric, and the pushforward maps."""

import importlib.util
import json
import math
import sys
from collections import deque
from fractions import Fraction
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

def _arrays(measure):
    """The atom locations and masses of ``measure`` as two float arrays."""
    return np.array(measure.atoms, dtype=float).reshape(-1, 2).T


def _critical(mu, nu):
    """The library's critical distances of the sorted union of the atom
    locations of ``mu`` and ``nu``, computed without the memo, so that an
    oracle leaves its traffic as the library made it."""
    union = tuple(sorted({x for x, _ in mu.atoms} | {x for x, _ in nu.atoms}))
    return characteristics._critical_distances.__wrapped__(union)


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
            (((0.0, 1.0), (math.inf, 1.0)), "is not finite"),
            (((0.0, math.nan),), "is not finite"),
            (((0.0, 1.0), (1.0, 0.0)), "nonpositive mass"),
            (((1.0, 1.0), (0.0, 1.0)), "sorted by location without duplicates"),
            (((0.5, 1.0), (0.5, 2.0)), "sorted by location without duplicates"),
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


def _random_measure(rng, max_atoms=5):
    k = int(rng.integers(2, max_atoms + 1))
    locations = rng.uniform(-5.0, 5.0, size=k)
    masses = rng.uniform(0.1, 2.0, size=k)
    return AtomicMeasure.from_pairs(zip(locations.tolist(), masses.tolist()))


def _brute_prokhorov(mu, nu, tol=1e-6):
    """Reference distance via subset enumeration and bisection."""

    def violation(a, b, eps):
        locs, masses = _arrays(a)
        worst = 0.0
        for bits in range(1, 1 << len(locs)):
            chosen = [i for i in range(len(locs)) if bits >> i & 1]
            intervals = sorted((locs[i] - eps, locs[i] + eps) for i in chosen)
            merged = [intervals[0]]
            for lo, hi in intervals[1:]:
                if lo <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
                else:
                    merged.append((lo, hi))
            cover = sum(b.mass_interval(lo, hi, "both") for lo, hi in merged)
            worst = max(worst, float(masses[chosen].sum()) - cover)
        return worst

    def feasible(eps):
        return violation(mu, nu, eps) <= eps and violation(nu, mu, eps) <= eps

    lo, hi = 0.0, max(mu.total_mass, nu.total_mass)
    if feasible(lo):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestProkhorov:
    """Levy-Prokhorov distance between finite atomic measures."""

    def test_identical_measures(self):
        m = AtomicMeasure.from_pairs([(0.0, 1.0), (2.0, 0.5)])
        assert prokhorov_distance(m, m) == 0.0

    def test_shifted_point_masses(self):
        d = prokhorov_distance(
            AtomicMeasure.from_pairs([(0.0, 1.0)]), AtomicMeasure.from_pairs([(0.3, 1.0)])
        )
        np.testing.assert_allclose(d, 0.3, atol=1e-8)

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
        np.testing.assert_allclose(d, expected, atol=1e-8,
                                   err_msg=f"min(mass, shift) rule failed for {mass}, {shift}")

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            mu = _random_measure(rng)
            nu = _random_measure(rng)
            fast = prokhorov_distance(mu, nu)
            slow = _brute_prokhorov(mu, nu)
            assert abs(fast - slow) <= 2e-6, (
                f"trial {trial}: dynamic program {fast} vs enumeration {slow}"
            )

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            mu = _random_measure(rng)
            nu = _random_measure(rng)
            assert abs(prokhorov_distance(mu, nu) - prokhorov_distance(nu, mu)) <= 1e-9


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
            np.testing.assert_allclose(dsharp(mu, nu), dsharp(nu, mu), rtol=1e-12)

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


# Reference copy of the restriction metric as it was computed before the
# array fast path: every radius restricts both measures into freshly built
# AtomicMeasure objects and runs the measure-level Levy-Prokhorov bisection.
# The bisection stops within 1e-9 and returns the feasible end, so it may lie
# up to 1e-9 above the library's exact search and below it only by rounding.


def _ref_one_sided(mu_locs, mu_masses, nu_locs, nu_cum, eps):
    k = int(mu_locs.size)
    if k == 0:
        return 0.0
    upper = nu_cum[np.searchsorted(nu_locs, mu_locs + eps, side="right")]
    closed = upper - nu_cum[np.searchsorted(nu_locs, mu_locs - eps, side="left")]
    locs, masses, up, cl = mu_locs.tolist(), mu_masses.tolist(), upper.tolist(), closed.tolist()
    best = [0.0] * k
    window = deque()
    prefix_best = 0.0
    start = 0
    overall = 0.0
    two_eps = 2.0 * eps
    for i in range(k):
        while start < i and locs[i] - locs[start] > two_eps:
            if best[start] > prefix_best:
                prefix_best = best[start]
            if window and window[0] == start:
                window.popleft()
            start += 1
        value = prefix_best - cl[i]
        if window:
            j = window[0]
            candidate = best[j] + up[j] - up[i]
            if candidate > value:
                value = candidate
        best_i = masses[i] + value
        best[i] = best_i
        if best_i > overall:
            overall = best_i
        key = best_i + up[i]
        while window and best[window[-1]] + up[window[-1]] <= key:
            window.pop()
        window.append(i)
    return max(0.0, overall)


def _ref_prokhorov(mu, nu):
    if mu.atoms == nu.atoms:
        return 0.0
    (mu_locs, mu_masses), (nu_locs, nu_masses) = _arrays(mu), _arrays(nu)
    mu_cum = np.concatenate([[0.0], np.cumsum(mu_masses)])
    nu_cum = np.concatenate([[0.0], np.cumsum(nu_masses)])

    def feasible(eps):
        if _ref_one_sided(mu_locs, mu_masses, nu_locs, nu_cum, eps) > eps:
            return False
        return _ref_one_sided(nu_locs, nu_masses, mu_locs, mu_cum, eps) <= eps

    lo = abs(mu.total_mass - nu.total_mass)
    hi = max(mu.total_mass, nu.total_mass, lo)
    if hi == 0.0:
        return 0.0
    if feasible(lo):
        return lo
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _ref_dsharp(mu, nu, r_max=20.0):
    if mu.atoms == nu.atoms:
        return 0.0

    def d_at(radius):
        return _ref_prokhorov(_restrict_open_ball(mu, radius), _restrict_open_ball(nu, radius))

    mu_abs, nu_abs = np.abs(_arrays(mu)[0]), np.abs(_arrays(nu)[0])
    breaks = np.unique(np.concatenate([mu_abs, nu_abs]))
    breaks = breaks[(breaks > 0) & (breaks < r_max)]
    edges = np.concatenate([[0.0], breaks, [r_max]])
    total = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        if right <= left:
            continue
        d = d_at(0.5 * (left + right))
        if d > 0:
            total += (d / (1.0 + d)) * (math.exp(-left) - math.exp(-right))
    return total


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
        yield mu, AtomicMeasure.from_pairs(zip(_arrays(mu)[0].tolist(), shared.tolist()))
        far = rng.uniform(3.0, 25.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        yield AtomicMeasure.from_pairs(zip(far.tolist(), [0.5, 1.0, 1.5])), nu
        yield mu, AtomicMeasure(mu.atoms)
        yield AtomicMeasure(), nu
    yield AtomicMeasure(), AtomicMeasure()


def _assert_within_bisection(reference, value, what):
    gap = reference - value
    assert -4 * math.ulp(reference) <= gap <= 1e-9, (
        f"{what}: reference {reference!r} minus library {value!r} is {gap:.3g}, "
        "outside [0, 1e-9] beyond rounding"
    )


class TestArrayPathOracle:
    """The library's dsharp and Prokhorov paths against the measure-level copy."""

    def test_bitwise_equal_on_seeded_measures(self):
        rng = np.random.default_rng(20240601)
        for trial, (mu, nu) in enumerate(_oracle_pairs(rng)):
            for a, b in ((mu, nu), (nu, mu)):
                _assert_within_bisection(
                    _ref_prokhorov(a, b), prokhorov_distance(a, b), f"pair {trial}: Prokhorov distance"
                )
                _assert_within_bisection(_ref_dsharp(a, b), dsharp(a, b), f"pair {trial}: dsharp")

    def test_bitwise_equal_on_spectral_fit_residuals(self):
        law = ParetoLaw(1.5, 1.3, 0.5)
        for n in (100, 100000):
            measure = spectral_measure_lambda(law, PARETO_NORMING, n)
            for alpha in (1.5, 1.2):
                params, residual = fit_spectrum(measure, alpha)
                reference = _ref_dsharp(measure, discretize_spectral(params))
                _assert_within_bisection(reference, residual, f"fit residual at n={n}, alpha={alpha}")


def _bisect_prokhorov_arrays(mu_locs, mu_masses, nu_locs, nu_masses, critical):
    """The critical-distance search as a bisection of the whole bracket
    [|P - N|, U] of :func:`_exact_bracket`, reading V only at interval
    midpoints.

    Returns the distance, the index k of the interval it was read in and the
    index of the last interval."""
    lo, hi = _exact_bracket(mu_locs, mu_masses, nu_locs, nu_masses)
    mu_cum = np.concatenate([[0.0], np.cumsum(mu_masses)])
    nu_cum = np.concatenate([[0.0], np.cumsum(nu_masses)])

    def violation(eps, cap):
        forward = _ref_one_sided(mu_locs, mu_masses, nu_locs, nu_cum, eps)
        if forward > cap:
            return None
        backward = _ref_one_sided(nu_locs, nu_masses, mu_locs, mu_cum, eps)
        if backward > cap:
            return None
        return max(forward, backward)

    inner = critical[np.searchsorted(critical, lo, side="right"):np.searchsorted(critical, hi, side="left")]
    edges = [lo, *inner, hi]
    left, right = 0, len(edges) - 2
    value = None
    while left < right:
        k = (left + right) // 2
        v = violation(0.5 * (edges[k] + edges[k + 1]), edges[k + 1])
        if v is None:
            left = k + 1
        else:
            right, value = k, v
    if value is None:
        value = violation(0.5 * (edges[right] + edges[right + 1]), math.inf)
    return min(max(edges[right], value), hi), right, len(edges) - 2


def _bisect_prokhorov(mu, nu):
    """The distance by the Fraction closed form where the whole pair meets
    its premise, else by the bisection."""
    arrays = (*_arrays(mu), *_arrays(nu))
    closed = _closed_form(*arrays)
    if closed is not None:
        return closed
    return _bisect_prokhorov_arrays(*arrays, _critical(mu, nu))[0]


def _restrictions(mu, nu, r_max=20.0):
    """(left, right, arrays) for each radius segment (left, right] of dsharp,
    arrays being the locations and masses of mu and nu that boolean masks
    keep in the open ball at the segment's midpoint."""
    (mu_locs, mu_masses), (nu_locs, nu_masses) = _arrays(mu), _arrays(nu)
    mu_abs, nu_abs = np.abs(mu_locs), np.abs(nu_locs)
    breaks = np.unique(np.concatenate([mu_abs, nu_abs]))
    breaks = breaks[(breaks > 0) & (breaks < r_max)]
    edges = np.concatenate([[0.0], breaks, [r_max]])
    for left, right in zip(edges[:-1].tolist(), edges[1:].tolist()):
        radius = 0.5 * (left + right)
        mu_keep, nu_keep = mu_abs < radius, nu_abs < radius
        yield left, right, (mu_locs[mu_keep], mu_masses[mu_keep], nu_locs[nu_keep], nu_masses[nu_keep])


def _units(x):
    """The float ``x`` as an exact integer number of units 2**-1074, the
    spacing of the subnormal floats."""
    numerator, denominator = x.as_integer_ratio()
    return numerator << (1075 - denominator.bit_length())


def _excess_masses(mu_locs, mu_masses, nu_locs, nu_masses):
    """(P, N): the exact excess masses of mu over nu and of nu over mu as
    Fractions, summed over the points where each side is heavier."""
    excess = {}
    for x, m in zip(mu_locs.tolist(), mu_masses.tolist()):
        excess[x] = excess.get(x, 0) + _units(m)
    for x, m in zip(nu_locs.tolist(), nu_masses.tolist()):
        excess[x] = excess.get(x, 0) - _units(m)
    plus = sum(e for e in excess.values() if e > 0)
    minus = -sum(e for e in excess.values() if e < 0)
    return Fraction(plus, 1 << 1074), Fraction(minus, 1 << 1074)


def _exact_bracket(mu_locs, mu_masses, nu_locs, nu_masses):
    """(float(|P - N|), float(U)) for (P, N) of :func:`_excess_masses` and
    U = max(P, N): the bracket of every distance, each end rounded once."""
    plus, minus = _excess_masses(mu_locs, mu_masses, nu_locs, nu_masses)
    return float(abs(plus - minus)), float(max(plus, minus))


def _closed_form(mu_locs, mu_masses, nu_locs, nu_masses):
    """float(U) for U = max(P, N) of :func:`_excess_masses`, when one excess
    is empty or float(U) lies below the smallest gap between the union's
    points; else None. The distance lies between |P - N| and U, so it is U
    when min(P, N) = 0; below the gap every violation is U."""
    plus, minus = _excess_masses(mu_locs, mu_masses, nu_locs, nu_masses)
    u = float(max(plus, minus))
    if min(plus, minus) == 0:
        return u
    points = np.union1d(mu_locs, nu_locs)
    return u if u < float(np.diff(points).min()) else None


def _bisect_dsharp(mu, nu, r_max=20.0):
    """dsharp with boolean-mask restrictions, the Fraction closed form on
    radii that meet its premise and the bisection search elsewhere."""
    if mu.atoms == nu.atoms:
        return 0.0
    critical = _critical(mu, nu)

    def d_at(arrays):
        closed = _closed_form(*arrays)
        if closed is not None:
            return closed
        return _bisect_prokhorov_arrays(*arrays, critical)[0]

    total = 0.0
    for left, right, arrays in _restrictions(mu, nu, r_max):
        d = d_at(arrays)
        if d > 0:
            total += (d / (1.0 + d)) * (math.exp(-left) - math.exp(-right))
    return total


def _restrictions_of(pairs):
    """:func:`_restrictions` of every pair in ``pairs``, in order."""
    return (segment for mu, nu in pairs for segment in _restrictions(mu, nu))


def _closed_form_count(pairs):
    """How many dsharp radii of ``pairs`` meet the closed-form premise."""
    return sum(_closed_form(*arrays) is not None for _, _, arrays in _restrictions_of(pairs))


def _pairs(*pairs):
    return AtomicMeasure.from_pairs(pairs)


# Measure pairs whose distance is read at a known place: the mass gap, above
# it in the first of two intervals, at least 30 intervals up, and the last
# interval (edge hi).
# Each has P, N > 0 and U >= g over the whole line, so prokhorov_distance
# searches.
_LATTICE = [(0.001 * i, 0.02) for i in range(50)]
_PLACED_PAIRS = {
    "gap": (_pairs((0.0, 1.0), (1.0, 0.25)), _pairs((0.0, 0.5), (1.25, 0.25))),
    "first": (_pairs((0.0, 1.0), (1.5, 0.5)), _pairs((0.25, 1.25))),
    "deep": (AtomicMeasure.from_pairs(_LATTICE), AtomicMeasure.from_pairs((x + 0.1, m) for x, m in _LATTICE)),
    "last": (_pairs((0.0, 0.5), (0.2, 0.5)), _pairs((3.0, 0.5), (3.3, 0.5))),
}
# Pairs that meet the closed-form premise over the whole line: one support
# point, mu heavier at every point, and U = 0.05 below g = 0.5, where the
# search read 0.050000000000000044.
_CLOSED_PAIRS = {
    "one point": (_pairs((0.0, 1.0)), _pairs((0.0, 0.5))),
    "one side heavier": (_pairs((0.0, 1.0), (0.5, 0.5)), _pairs((0.0, 0.5))),
    "below the gap": (_pairs((0.0, 0.05), (1.0, 0.95)), _pairs((0.5, 0.05), (1.0, 0.95))),
}


def _placed(name, at_gap, k, last):
    return {
        "gap": at_gap,
        "first": k == 0 < last and not at_gap,
        "deep": 30 <= k < last,
        "last": 0 < k == last,
    }[name]


@pytest.fixture
def checked_searches(monkeypatch):
    """Runs the bisection beside every library search, requires the exact
    bracket as its lo and hi and the same distance bit for bit, and records
    (k, last, whether the distance is the mass gap) of each."""
    positions = []
    search = characteristics._prokhorov_arrays

    def checked(*args):
        d = search(*args)
        arrays = [np.asarray(a) for a in args[:4]]
        assert args[5:] == _exact_bracket(*arrays), f"bracket {args[5:]!r}"
        want, k, last = _bisect_prokhorov_arrays(*arrays, np.asarray(args[4]))
        assert d == want, f"search gives {d!r}, bisection {want!r} (interval {k} of 0..{last})"
        positions.append((k, last, d == args[5]))
        return d

    monkeypatch.setattr(characteristics, "_prokhorov_arrays", checked)
    return positions


class TestGallopingSearch:
    """The galloping search returns the bisection's distance bit for bit."""

    def test_equal_on_seeded_measures(self):
        rng = np.random.default_rng(20240601)
        for trial, (mu, nu) in enumerate(_oracle_pairs(rng)):
            for a, b in ((mu, nu), (nu, mu)):
                assert prokhorov_distance(a, b) == _bisect_prokhorov(a, b), f"pair {trial}"
                assert dsharp(a, b) == _bisect_dsharp(a, b), f"pair {trial}"

    def test_equal_on_spectral_fit_residuals(self, checked_searches, tmp_path, monkeypatch):
        law = ParetoLaw(1.5, 1.3, 0.5)
        for n in (100, 1000, 10000, 100000):
            measure = spectral_measure_lambda(law, PARETO_NORMING, n)
            for alpha in (1.5, 1.2):
                params, residual = fit_spectrum(measure, alpha)
                assert residual == _bisect_dsharp(measure, discretize_spectral(params)), f"n={n}, alpha={alpha}"
        # The benchmark panels' fits, where the old start left the bracket.
        monkeypatch.setattr(sys, "path", list(sys.path))
        for _, measure, alpha in _benchmark_measures(tmp_path, seeds=(3, 5, 7, 11)):
            fit_spectrum(measure, alpha)
        assert len(checked_searches) > 1000
        first = [at_gap for k, _, at_gap in checked_searches if k == 0]
        assert True in first and False in first, "the fits should return both at the gap and above it in interval 0"

    @pytest.mark.parametrize("name", sorted(_PLACED_PAIRS))
    def test_equal_wherever_the_answer_lies(self, name, checked_searches):
        mu, nu = _PLACED_PAIRS[name]
        arrays = (*_arrays(mu), *_arrays(nu))
        d, k, last = _bisect_prokhorov_arrays(*arrays, _critical(mu, nu))
        at_gap = d == _exact_bracket(*arrays)[0]
        assert _placed(name, at_gap, k, last), f"{name}: the answer {d!r} is in interval {k} of 0..{last}"
        for a, b in ((mu, nu), (nu, mu)):
            assert prokhorov_distance(a, b) == _bisect_prokhorov(a, b)
            assert dsharp(a, b) == _bisect_dsharp(a, b)
        assert checked_searches


def _one_sided_violation(a_locs, a_masses, b_locs, b_masses, eps):
    """max over unions A of a-atoms of a(A) - b(A^eps), with A^eps the closed
    eps-neighbourhood, from explicit |x - y| <= eps tests.

    The b-atoms near each a-atom form an index range [L, R), and both ends
    grow with the a-location, so a union of ranges gains
    b[max(L_i, R_j), R_i) when range i follows range j. best[i] is the
    optimum over unions whose last atom is i.
    """
    cum = np.concatenate([[0.0], np.cumsum(b_masses)])
    ranges = []
    hits = (np.abs(b_locs - a_locs[:, None]) <= eps).tolist()
    for row, at in zip(hits, np.searchsorted(b_locs, a_locs).tolist()):
        near = [j for j, hit in enumerate(row) if hit]
        if near:
            assert near[-1] - near[0] + 1 == len(near), "neighbourhood is not an index range"
            ranges.append((near[0], near[-1] + 1))
        else:
            ranges.append((at, at))
    assert ranges == sorted(ranges) and [r for _, r in ranges] == sorted(r for _, r in ranges)
    cum = cum.tolist()
    rights = [right for _, right in ranges]
    best = []
    for mass, (left, right) in zip(a_masses.tolist(), ranges):
        top = cum[right]
        # zip stops at the atoms before this one, which best holds.
        joined = [b - (top - cum[r if r > left else left]) for b, r in zip(best, rights)]
        best.append(mass + max([-(top - cum[left]), *joined]))
    return max([0.0] + best)


def _certify(mu_locs, mu_masses, nu_locs, nu_masses, d, what):
    """d is feasible, and when above the mass gap, d - 1e-10 is not."""
    tol = 8 * math.ulp(max(float(mu_masses.sum()), float(nu_masses.sum()), 1.0))

    def worst(eps):
        return max(
            _one_sided_violation(mu_locs, mu_masses, nu_locs, nu_masses, eps),
            _one_sided_violation(nu_locs, nu_masses, mu_locs, mu_masses, eps),
        )

    assert worst(d) <= d + tol, f"{what}: a one-sided violation exceeds d = {d!r}"
    gap = abs(float(mu_masses.sum()) - float(nu_masses.sum()))
    if d > gap + tol:
        below = d - 1e-10
        assert worst(below) > below, f"{what}: d = {d!r} is feasible 1e-10 lower"


def _recorded_dsharp_pairs(monkeypatch):
    """The (mu, nu) of every dsharp call the test makes from here on,
    fit_spectrum's included."""
    pairs = []
    library = characteristics.dsharp

    def recording(mu, nu):
        pairs.append((mu, nu))
        return library(mu, nu)

    monkeypatch.setattr(characteristics, "dsharp", recording)
    return pairs


def _ball(measure, radius):
    """The locations and masses of ``measure`` in the open ball (-radius, radius)."""
    locations, masses = _arrays(measure)
    keep = np.abs(locations) < radius
    return locations[keep], masses[keep]


@pytest.fixture
def recorded_distances(monkeypatch):
    """(arrays, distance, searched) for every restricted distance the library
    returns while the test runs, closed forms included: the locations and
    masses of both restrictions, the distance, and whether the search ran."""
    records = []
    searches = []
    restricted = characteristics._restricted_distance
    search = characteristics._prokhorov_arrays

    def counting(*args):
        searches.append(args)
        return search(*args)

    def recording(mu, nu):
        distance = restricted(mu, nu)

        def recorded(radius):
            before = len(searches)
            d = distance(radius)
            records.append(((*_ball(mu, radius), *_ball(nu, radius)), d, len(searches) > before))
            return d

        return recorded

    monkeypatch.setattr(characteristics, "_prokhorov_arrays", counting)
    monkeypatch.setattr(characteristics, "_restricted_distance", recording)
    return records


class TestProkhorovCertificate:
    """Both sides of every returned distance, to 1e-10: feasible at d and,
    unless d is the mass gap, infeasible just below it."""

    def test_seeded_measures(self, recorded_distances):
        rng = np.random.default_rng(20240601)
        for mu, nu in _oracle_pairs(rng):
            for a, b in ((mu, nu), (nu, mu)):
                prokhorov_distance(a, b)
                dsharp(a, b)
        assert len(recorded_distances) > 1000
        for index, (arrays, d, _) in enumerate(recorded_distances):
            _certify(*arrays, d, f"distance {index}")

    def test_spectral_fit_residuals(self, recorded_distances, monkeypatch):
        law = ParetoLaw(1.5, 1.3, 0.5)
        pairs = _recorded_dsharp_pairs(monkeypatch)
        for n in (100, 100000):
            measure = spectral_measure_lambda(law, PARETO_NORMING, n)
            for alpha in (1.5, 1.2):
                fit_spectrum(measure, alpha)
        # 60 radii: the closed forms, and a search for every other one.
        assert len(recorded_distances) == 60 == len(list(_restrictions_of(pairs)))
        assert [searched for _, _, searched in recorded_distances] == [
            _closed_form(*arrays) is None for _, _, arrays in _restrictions_of(pairs)
        ]
        searched = [d for (arrays, d, ran) in recorded_distances if ran and d > abs(arrays[1].sum() - arrays[3].sum())]
        assert searched, "the fits should need searched distances"
        for index, (arrays, d, _) in enumerate(recorded_distances):
            _certify(*arrays, d, f"fit distance {index}")


class TestProkhorovWork:
    """A distance above the mass gap costs a search over the critical
    distances, logarithmic in their number and in the answer's position, not
    a bisection to a fixed tolerance."""

    def test_dp_calls_are_logarithmic_in_the_critical_set(self, monkeypatch):
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
        pairs = _recorded_dsharp_pairs(monkeypatch)
        measure = spectral_measure_lambda(ParetoLaw(1.5, 1.3, 0.5), PARETO_NORMING, 100000)
        fit_spectrum(measure, 1.2)
        # 15 radii: the closed forms, and a search for every other one.
        assert len(calls) + _closed_form_count(pairs) == 15
        searched = [count for _, count in calls if count > 2]
        assert searched, "no distance needed a search; the bound proves nothing"
        for size, count in calls:
            bound = 2 * (math.ceil(math.log2(size + 1)) + 2)
            assert count <= bound, f"{count} dynamic-program calls for {size} critical distances"

    def test_dp_calls_are_logarithmic_in_the_answer_position(self, monkeypatch):
        # Probes at 0, 1, 3, ..., 2^j - 1 with j = ceil(log2(k + 1)), j - 1
        # bisection probes, and one uncapped probe of the last interval; at
        # most two passes per probe.
        searches = []
        one_sided = characteristics._prokhorov_one_sided
        search = characteristics._prokhorov_arrays

        def counting_one_sided(*args):
            searches[-1][1] += 1
            return one_sided(*args)

        def counting_search(*args):
            searches.append([args, 0])
            return search(*args)

        monkeypatch.setattr(characteristics, "_prokhorov_one_sided", counting_one_sided)
        monkeypatch.setattr(characteristics, "_prokhorov_arrays", counting_search)
        pairs = [*_PLACED_PAIRS.values(), *_oracle_pairs(np.random.default_rng(7))]
        for mu, nu in pairs:
            prokhorov_distance(mu, nu)
        deepest = 0
        for args, count in searches:
            _, k, _ = _bisect_prokhorov_arrays(*map(np.asarray, args[:5]))
            deepest = max(deepest, k)
            bound = 2 * (2 * math.ceil(math.log2(k + 1)) + 1)
            assert count <= bound, f"{count} dynamic-program calls for an answer in interval {k}"
        assert deepest >= 30

    @pytest.mark.parametrize(
        "name, passes, want",
        [("gap", 2, 0.5), ("first", 2, 0.5), ("deep", 20, 0.09600000000000002), ("last", 4, 1.0)],
    )
    def test_dp_calls_on_placed_pairs(self, name, passes, want, monkeypatch):
        # V is read only at interval midpoints, never at eps = |P - N|, so
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
    """The list dynamic program against ``_ref_one_sided``, in both
    directions, at the mass gap, at every critical distance and at every
    midpoint between two, under the caps 0, the gap, the next critical
    distance above eps and inf: the same float whenever the reference is at
    most the cap, and a value above the cap exactly when the reference is."""
    critical = _critical(mu, nu)
    gap = abs(mu.total_mass - nu.total_mass)
    radii = [gap, *critical, *(0.5 * (a + b) for a, b in zip(critical, critical[1:]))]
    for a, b in ((mu, nu), (nu, mu)):
        (a_locs, a_masses), (b_locs, b_masses) = _arrays(a), _arrays(b)
        b_cum = np.concatenate([[0.0], np.cumsum(b_masses)])
        lists = (a_locs.tolist(), a_masses.tolist(), b_locs.tolist(), b_cum.tolist())
        for eps in radii:
            want = _ref_one_sided(a_locs, a_masses, b_locs, b_cum, eps)
            above = [c for c in critical if c > eps]
            for cap in (0.0, gap, above[0] if above else math.inf, math.inf):
                got = characteristics._prokhorov_one_sided(*lists, eps, cap)
                what = f"{a.atoms} vs {b.atoms} at eps {eps!r}, cap {cap!r}"
                if want <= cap:
                    assert got == want, f"{what}: {got!r} != {want!r}"
                else:
                    assert got > cap, f"{what}: {got!r} does not exceed the cap, reference {want!r}"


class TestListDynamicProgram:
    """The one-sided pass on lists, with its early exit, against the NumPy copy."""

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
            want = _critical(mu, nu)
            assert sets and all(isinstance(c, tuple) and c == want for c in sets)
        # The third pass found the set of the first in the memo.
        assert after.misses == before.misses and after.hits > before.hits

    def test_a_set_above_the_memo_bound_is_not_retained(self):
        size = characteristics._CRITICAL_MEMO_POINTS // 2 + 1
        mu = AtomicMeasure.from_pairs((0.1 * i, 1.0) for i in range(size))
        nu = AtomicMeasure.from_pairs((0.1 * i + 0.05, 1.0) for i in range(size))
        before = characteristics._critical_distances.cache_info()
        assert prokhorov_distance(mu, nu) == _bisect_prokhorov(mu, nu)
        assert dsharp(mu, nu) == _bisect_dsharp(mu, nu)
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


# Reference copies of the fit path before it moved onto Python floats: each
# side's cumulative masses are exact Fraction sums of that side's atoms,
# rounded once, over the same edges for both sides; the fitted shape comes
# from the cell walk at NumPy grid points, and every restriction in dsharp
# from a searchsorted slice of the measure's NumPy arrays.


def _ref_slice_dsharp(mu, nu, r_max=20.0):
    if mu.atoms == nu.atoms:
        return 0.0
    mu_arrays, nu_arrays = _arrays(mu), _arrays(nu)
    (mu_locs, mu_masses), (nu_locs, nu_masses) = mu_arrays.tolist(), nu_arrays.tolist()
    critical = characteristics._critical_distances(tuple(sorted(set(mu_locs + nu_locs))))
    moduli = sorted({abs(x) for x in mu_locs + nu_locs})
    edges = [0.0, *(x for x in moduli if 0 < x < r_max), r_max]

    def ball(arrays, radius):
        locations = arrays[0]
        return slice(int(locations.searchsorted(-radius, "right")), int(locations.searchsorted(radius)))

    total = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        radius = 0.5 * (left + right)
        mu_keep, nu_keep = ball(mu_arrays, radius), ball(nu_arrays, radius)
        arrays = (*mu_arrays[:, mu_keep], *nu_arrays[:, nu_keep])
        d = _closed_form(*arrays)
        if d is None:
            d = characteristics._prokhorov_arrays(
                mu_locs[mu_keep], mu_masses[mu_keep], nu_locs[nu_keep], nu_masses[nu_keep], critical, *_exact_bracket(*arrays)
            )
        if d > 0:
            total += (d / (1.0 + d)) * (math.exp(-left) - math.exp(-right))
    return total


def _ref_fit_spectrum(measure, alpha):
    edges = [x for x in DEFAULT_SPECTRAL_GRID if DEFAULT_FIT_WINDOW[0] <= x <= DEFAULT_FIT_WINDOW[1]]
    exact = [(x, Fraction(m)) for x, m in measure.atoms]

    def fit_side(side):
        # side holds (distance from 0, exact mass) of one side's atoms.
        cums = [(edge, float(sum(m for d, m in side if d <= edge))) for edge in edges]
        if cums[-1][1] < 1e-8:
            return 0.0
        logs = [math.log(cum) - alpha * math.log(edge) for edge, cum in cums if cum > 1e-12]
        return math.exp(sum(logs) / len(logs))

    c_plus = fit_side([(x, m) for x, m in exact if x > 0])
    c_minus = fit_side([(-x, m) for x, m in exact if x < 0])
    params = SpectralParams(alpha, c_minus, c_plus)
    shape = _ref_cell_walk(np.asarray(DEFAULT_SPECTRAL_GRID, dtype=float), lambda x: spectral_cdf(params, x))
    return params, shape, _ref_slice_dsharp(measure, shape)


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


def _benchmark_measures(tmp_path, seeds=(3, 5)):
    """(what, spectral measure, alpha) for every distinct draw and checker n
    of both benchmark configs' panels at ``seeds``."""
    for spec in _benchmark_specs(tmp_path):
        for seed in seeds:
            panel = DrawPanel(spec.law, spec.norming, spec.checker_ngrid, seed)
            for n in spec.checker_ngrid.values:
                for p in panel.unique:
                    yield f"{p!r} at n={n}, seed {seed}", spectral_measure_lambda(p, spec.norming, n), spec.alpha


class TestFitPathOracle:
    """fit_spectrum and dsharp on lists against their NumPy-path copies, bit
    for bit, on every draw and checker n of both benchmark configs. The
    copies take the Fraction closed form where its premise holds."""

    def test_bitwise_equal_on_benchmark_panels(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "path", list(sys.path))
        fits = 0
        for what, measure, alpha in _benchmark_measures(tmp_path):
            params, residual = fit_spectrum(measure, alpha)
            want_params, want_shape, want_residual = _ref_fit_spectrum(measure, alpha)
            weights = [(x.c_minus.hex(), x.c_plus.hex()) for x in (params, want_params)]
            assert weights[0] == weights[1], f"{what}: {params} != {want_params}"
            assert _hex_atoms(discretize_spectral(params)) == _hex_atoms(want_shape), what
            assert residual.hex() == want_residual.hex(), f"{what}: {residual!r} != {want_residual!r}"
            fits += 1
        assert fits == 2 * (200 * 4 + 100 * 2)


def _mirror(measure):
    return AtomicMeasure.from_pairs((-x, m) for x, m in measure.atoms)


def _weights(params):
    return params.c_minus.hex(), params.c_plus.hex()


class TestSideSymmetry:
    """Both sides of a fit are one computation, so reflection swaps the
    fitted weights bit for bit (Samorodnitsky & Taqqu 1994, Property 1.2.3)
    and a symmetric law fits c_minus == c_plus and beta = 0 exactly."""

    def test_mirrored_benchmark_measures_fit_swapped_weights(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "path", list(sys.path))
        fits = 0
        for what, measure, alpha in _benchmark_measures(tmp_path, seeds=(3,)):
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


def _assert_closed_forms_exact(mu, nu, what):
    """On every dsharp radius, and on the whole line, whose restrictions meet
    the closed-form premise, the library's distance is float(U) of the
    Fraction sums, and the brute-force certificate accepts it. Returns how
    many radii, the whole line counted as one, met it."""
    distance = characteristics._restricted_distance(mu, nu)
    radii = [(f"radii ({left!r}, {right!r}]", distance(0.5 * (left + right)), arrays)
             for left, right, arrays in _restrictions(mu, nu)]
    radii.append(("the whole line", prokhorov_distance(mu, nu), (*_arrays(mu), *_arrays(nu))))
    closed = 0
    for where, d, arrays in radii:
        want = _closed_form(*arrays)
        if want is None:
            continue
        assert d.hex() == want.hex(), f"{what}, {where}: {d!r} != {want!r}"
        _certify(*arrays, d, f"{what}, {where}")
        closed += 1
    return closed


class TestClosedForm:
    """Below the smallest gap between support points, dsharp's distance is
    the larger excess mass, exactly."""

    def test_exact_on_seeded_measures(self):
        closed = 0
        for trial, (mu, nu) in enumerate(_oracle_pairs(np.random.default_rng(20240601))):
            for a, b in ((mu, nu), (nu, mu)):
                closed += _assert_closed_forms_exact(a, b, f"pair {trial}")
            if trial == 1:
                # The search read 1.2478706280206042.
                assert prokhorov_distance(mu, nu) == 1.247870628020604
        assert closed > 500

    def test_exact_on_benchmark_panels(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "path", list(sys.path))
        closed = radii = 0
        for what, measure, alpha in _benchmark_measures(tmp_path):
            params, _ = fit_spectrum(measure, alpha)
            shape = discretize_spectral(params)
            closed += _assert_closed_forms_exact(measure, shape, what)
            radii += len(list(_restrictions(measure, shape))) + 1
        assert radii > closed > radii // 2, f"{closed} closed forms in {radii} radii"

    def test_dominated_radii_of_benchmark_panels(self, tmp_path, monkeypatch):
        # Where one restriction is at least the other at every point, the
        # distance is U itself, rounded once. The search, kept for P, N > 0,
        # finds U too from a bracket that does not fix it: 0 and the larger
        # total mass.
        monkeypatch.setattr(sys, "path", list(sys.path))
        dominated = 0
        for what, measure, alpha in _benchmark_measures(tmp_path):
            shape = discretize_spectral(fit_spectrum(measure, alpha)[0])
            distance = characteristics._restricted_distance(measure, shape)
            points = {*_arrays(measure)[0].tolist(), *_arrays(shape)[0].tolist()}
            critical = characteristics._critical_distances(tuple(sorted(points)))
            radii = [0.5 * (left + right) for left, right, _ in _restrictions(measure, shape)]
            for radius in (*radii, math.inf):
                arrays = (*_ball(measure, radius), *_ball(shape, radius))
                plus, minus = _excess_masses(*arrays)
                if min(plus, minus) > 0:
                    continue
                exact = float(max(plus, minus))
                got = distance(radius)
                assert got == exact, f"{what}, radius {radius!r}: {got!r} != {exact!r}"
                lists = [a.tolist() for a in arrays]
                top = max(math.fsum(lists[1]), math.fsum(lists[3]))
                searched = characteristics._prokhorov_arrays(*lists, critical, 0.0, top)
                assert abs(searched - exact) <= 1e-10 * exact, f"{what}, radius {radius!r}: search {searched!r}"
                dominated += 1
        assert dominated > 10000

    @pytest.mark.parametrize("name", sorted({**_PLACED_PAIRS, **_CLOSED_PAIRS}))
    def test_exact_on_placed_pairs(self, name):
        mu, nu = {**_PLACED_PAIRS, **_CLOSED_PAIRS}[name]
        for a, b in ((mu, nu), (nu, mu)):
            closed = _assert_closed_forms_exact(a, b, name)
            # A closed pair meets the premise on every radius and the whole line.
            assert closed > (name in _CLOSED_PAIRS) * len(list(_restrictions(a, b)))
        if name == "below the gap":
            assert prokhorov_distance(mu, nu) == 0.05

    @pytest.mark.parametrize("below", [True, False])
    def test_premise_boundary(self, below, monkeypatch):
        # U = mass against g = 0.25 on the radii above 0.25; below them each
        # restriction holds one point and takes the closed form.
        mass = math.nextafter(0.25, 0.0) if below else 0.25
        mu, nu = _pairs((0.0, mass)), _pairs((0.25, mass))
        searches = []
        search = characteristics._prokhorov_arrays

        def recording(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(characteristics, "_prokhorov_arrays", recording)
        distance = characteristics._restricted_distance(mu, nu)
        distances = [distance(0.5 * (left + right)) for left, right, _ in _restrictions(mu, nu)]
        assert distances == [mass, mass]
        assert len(searches) == (0 if below else 1)
        # The whole line holds both points, as the radii above 0.25 do.
        assert _assert_closed_forms_exact(mu, nu, "boundary pair") == (3 if below else 1)
        if not below:
            _certify(*map(np.asarray, searches[0][:4]), distances[1], "search at the gap")
        assert dsharp(mu, nu) == _bisect_dsharp(mu, nu)
        assert prokhorov_distance(mu, nu) == _bisect_prokhorov(mu, nu) == mass
