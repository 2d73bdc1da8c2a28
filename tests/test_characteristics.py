"""Tests for per-realization characteristic quantities, spectral measures,
the restriction metric, and the pushforward maps."""

import math
from collections import deque

import numpy as np
import pytest

from stablemix import characteristics
from stablemix.characteristics import (
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
    spectral_cdf,
    spectral_measure_lambda,
    stable_mixing_constant,
    tail_mass_quantity,
    tail_moment_ratio,
    trunc_mean,
    trunc_variance,
)
from stablemix.directing import (
    CauchyLaw,
    GaussianLaw,
    ParetoLaw,
    PointMassLaw,
    StableLaw,
    UniformLaw,
)
from stablemix.measures import AtomicMeasure
from stablemix.mixtures import mixture_cf
from stablemix.stable import NormingSequence, StableParams, stable_cf

def _restrict_open_ball(measure, r):
    """Restriction of an atomic measure to the open interval (-r, r)."""
    return AtomicMeasure(tuple((loc, mass) for loc, mass in measure.atoms if abs(loc) < r))


SQRT_NORMING = NormingSequence(alpha=2.0)
LINEAR_NORMING = NormingSequence(alpha=1.0)
PARETO_NORMING = NormingSequence(alpha=1.5)


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


class _ShrinkingTail:
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

    def test_cumulative_values(self):
        params = SpectralParams(1.5, 0.5, 2.0)
        assert spectral_cdf(params, 4.0) == pytest.approx(16.0)
        assert spectral_cdf(params, -4.0) == pytest.approx(-4.0)
        with pytest.raises(ValueError, match="undefined"):
            spectral_cdf(params, 0.0)

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
        locs, masses = a.locations, a.masses
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
        d = prokhorov_distance(AtomicMeasure.null(), AtomicMeasure.from_pairs([(1.0, 1.0)]))
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
        value = dsharp(AtomicMeasure.null(), AtomicMeasure.from_pairs([(0.5, 1.0)]))
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
        mu = AtomicMeasure.null()
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
        value = dsharp(AtomicMeasure.null(), AtomicMeasure.from_pairs([(0.5, 1.0)]))
        np.testing.assert_allclose(value, 0.5 * math.exp(-0.5), rtol=1e-12)

    def test_bounded_by_one(self):
        heavy = AtomicMeasure.from_pairs([(1.0, 1e6)])
        value = dsharp(AtomicMeasure.null(), heavy)
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
        fitted, residual = fit_spectrum(AtomicMeasure.null(), 1.0)
        assert fitted.is_null
        assert residual == 0.0


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
        null = AtomicMeasure.null()
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
    mu_cum = np.concatenate([[0.0], np.cumsum(mu.masses)])
    nu_cum = np.concatenate([[0.0], np.cumsum(nu.masses)])

    def feasible(eps):
        if _ref_one_sided(mu.locations, mu.masses, nu.locations, nu_cum, eps) > eps:
            return False
        return _ref_one_sided(nu.locations, nu.masses, mu.locations, mu_cum, eps) <= eps

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

    mu_abs, nu_abs = np.abs(mu.locations), np.abs(nu.locations)
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
        yield mu, AtomicMeasure.from_pairs(zip(mu.locations.tolist(), shared.tolist()))
        far = rng.uniform(3.0, 25.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        yield AtomicMeasure.from_pairs(zip(far.tolist(), [0.5, 1.0, 1.5])), nu
        yield mu, AtomicMeasure(mu.atoms)
        yield AtomicMeasure.null(), nu
    yield AtomicMeasure.null(), AtomicMeasure.null()


def _assert_within_bisection(reference, value, what):
    gap = reference - value
    assert -4 * math.ulp(reference) <= gap <= 1e-9, (
        f"{what}: reference {reference!r} minus library {value!r} is {gap:.3g}, "
        "outside [0, 1e-9] beyond rounding"
    )


class TestArrayPathOracle:
    """The array-level dsharp and Prokhorov paths against the measure-level copy."""

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
    """The critical-distance search as a bisection of the whole bracket.

    Returns the distance, the index k of the interval it was read in (-1 when
    no search ran) and the index of the last interval (-1 likewise)."""
    if mu_locs.shape == nu_locs.shape and (mu_locs == nu_locs).all() and (mu_masses == nu_masses).all():
        return 0.0, -1, -1
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

    mu_total = float(mu_masses.sum())
    nu_total = float(nu_masses.sum())
    lo = abs(mu_total - nu_total)
    hi = max(mu_total, nu_total, lo)
    if hi == 0.0:
        return 0.0, -1, -1
    if violation(lo, lo) is not None:
        return lo, -1, -1
    inner = critical[critical.searchsorted(lo, side="right"):critical.searchsorted(hi, side="left")]
    edges = [lo, *inner.tolist(), hi]
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
    return max(edges[right], value), right, len(edges) - 2


def _bisect_prokhorov(mu, nu):
    critical = characteristics._critical_distances(np.concatenate([mu.locations, nu.locations]))
    return _bisect_prokhorov_arrays(mu.locations, mu.masses, nu.locations, nu.masses, critical)[0]


def _bisect_dsharp(mu, nu, r_max=20.0):
    """dsharp with boolean-mask restrictions and the bisection search."""
    if mu.atoms == nu.atoms:
        return 0.0
    mu_locs, mu_masses = mu.locations, mu.masses
    nu_locs, nu_masses = nu.locations, nu.masses
    mu_abs, nu_abs = np.abs(mu_locs), np.abs(nu_locs)
    critical = characteristics._critical_distances(np.concatenate([mu_locs, nu_locs]))

    def d_at(radius):
        mu_keep, nu_keep = mu_abs < radius, nu_abs < radius
        return _bisect_prokhorov_arrays(
            mu_locs[mu_keep], mu_masses[mu_keep], nu_locs[nu_keep], nu_masses[nu_keep], critical
        )[0]

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


def _pairs(*pairs):
    return AtomicMeasure.from_pairs(pairs)


# Measure pairs whose distance is read at a known place: the mass gap, the
# first interval, at least 30 intervals up, and the last interval (edge hi).
_LATTICE = [(0.001 * i, 0.02) for i in range(50)]
_PLACED_PAIRS = {
    "gap": (_pairs((0.0, 1.0)), _pairs((0.0, 0.5))),
    "first": (_pairs((0.0, 0.05), (1.0, 0.95)), _pairs((0.5, 0.05), (1.0, 0.95))),
    "deep": (AtomicMeasure.from_pairs(_LATTICE), AtomicMeasure.from_pairs((x + 0.1, m) for x, m in _LATTICE)),
    "last": (_pairs((0.0, 0.5), (0.2, 0.5)), _pairs((3.0, 0.5), (3.3, 0.5))),
}


def _placed(name, k, last):
    return {
        "gap": k == -1,
        "first": k == 0 < last,
        "deep": 30 <= k < last,
        "last": 0 < k == last,
    }[name]


@pytest.fixture
def checked_searches(monkeypatch):
    """Runs the bisection beside every library search, requires the same
    distance bit for bit, and records (k, last) of each."""
    positions = []
    search = characteristics._prokhorov_arrays

    def checked(*args):
        d = search(*args)
        want, k, last = _bisect_prokhorov_arrays(*args)
        assert d == want, f"search gives {d!r}, bisection {want!r} (interval {k} of 0..{last})"
        positions.append((k, last))
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

    def test_equal_on_spectral_fit_residuals(self, checked_searches):
        law = ParetoLaw(1.5, 1.3, 0.5)
        for n in (100, 1000, 10000, 100000):
            measure = spectral_measure_lambda(law, PARETO_NORMING, n)
            for alpha in (1.5, 1.2):
                params, residual = fit_spectrum(measure, alpha)
                assert residual == _bisect_dsharp(measure, discretize_spectral(params)), f"n={n}, alpha={alpha}"
        ks = [k for k, _ in checked_searches]
        assert -1 in ks and 0 in ks, "the fits should return both at the gap and in the first interval"

    @pytest.mark.parametrize("name", sorted(_PLACED_PAIRS))
    def test_equal_wherever_the_answer_lies(self, name, checked_searches):
        mu, nu = _PLACED_PAIRS[name]
        critical = characteristics._critical_distances(np.concatenate([mu.locations, nu.locations]))
        _, k, last = _bisect_prokhorov_arrays(mu.locations, mu.masses, nu.locations, nu.masses, critical)
        assert _placed(name, k, last), f"{name}: the answer is in interval {k} of 0..{last}"
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
    for x in a_locs:
        near = np.flatnonzero(np.abs(b_locs - x) <= eps)
        if near.size:
            assert near[-1] - near[0] + 1 == near.size, "neighbourhood is not an index range"
            ranges.append((int(near[0]), int(near[-1]) + 1))
        else:
            at = int(np.searchsorted(b_locs, x))
            ranges.append((at, at))
    assert ranges == sorted(ranges) and [r for _, r in ranges] == sorted(r for _, r in ranges)
    best = []
    for i, (mass, (left, right)) in enumerate(zip(a_masses, ranges)):
        value = -(cum[right] - cum[left])
        for j in range(i):
            value = max(value, best[j] - (cum[right] - cum[max(left, ranges[j][1])]))
        best.append(mass + value)
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


@pytest.fixture
def recorded_distances(monkeypatch):
    """Every (arrays, distance) the library computes while the test runs."""
    records = []
    search = characteristics._prokhorov_arrays

    def recording(*args):
        d = search(*args)
        records.append((args[:4], d))
        return d

    monkeypatch.setattr(characteristics, "_prokhorov_arrays", recording)
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
        for index, (arrays, d) in enumerate(recorded_distances):
            _certify(*arrays, d, f"distance {index}")

    def test_spectral_fit_residuals(self, recorded_distances):
        law = ParetoLaw(1.5, 1.3, 0.5)
        for n in (100, 100000):
            measure = spectral_measure_lambda(law, PARETO_NORMING, n)
            for alpha in (1.5, 1.2):
                fit_spectrum(measure, alpha)
        searched = [d for (arrays, d) in recorded_distances if d > abs(arrays[1].sum() - arrays[3].sum())]
        assert len(recorded_distances) == 60 and searched, "the fits should need searched distances"
        for index, (arrays, d) in enumerate(recorded_distances):
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
            calls.append([args[4].size, 0])
            return search(*args)

        monkeypatch.setattr(characteristics, "_prokhorov_one_sided", counting_one_sided)
        monkeypatch.setattr(characteristics, "_prokhorov_arrays", counting_search)
        measure = spectral_measure_lambda(ParetoLaw(1.5, 1.3, 0.5), PARETO_NORMING, 100000)
        fit_spectrum(measure, 1.2)
        assert len(calls) == 15
        searched = [count for _, count in calls if count > 2]
        assert searched, "no distance needed a search; the bound proves nothing"
        for size, count in calls:
            bound = 2 * (math.ceil(math.log2(size + 1)) + 2)
            assert count <= bound, f"{count} dynamic-program calls for {size} critical distances"

    def test_dp_calls_are_logarithmic_in_the_answer_position(self, monkeypatch):
        # The gap test, then probes at 0, 1, 3, ..., 2^j - 1 with
        # j = ceil(log2(k + 1)), j - 1 bisection probes, and one uncapped
        # probe of the last interval; at most two passes per probe.
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
            _, k, _ = _bisect_prokhorov_arrays(*args)
            deepest = max(deepest, k)
            bound = 2 * (2 * math.ceil(math.log2(max(k, 0) + 1)) + 3)
            assert count <= bound, f"{count} dynamic-program calls for an answer in interval {k}"
        assert deepest >= 30


class TestCriticalDistanceBound:
    def test_rejects_one_location_over_the_bound(self):
        many = AtomicMeasure.from_pairs((float(i), 1.0) for i in range(characteristics._MAX_CRITICAL_LOCATIONS + 1))
        message = f"{characteristics._MAX_CRITICAL_LOCATIONS + 1} distinct atom locations"
        with pytest.raises(ValueError, match=message):
            prokhorov_distance(many, AtomicMeasure.null())
        with pytest.raises(ValueError, match=message):
            dsharp(many, AtomicMeasure.null())


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
