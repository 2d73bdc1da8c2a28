"""Tests for directing laws, realized functionals, and normed row sums."""

import math
import os

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import spearmanr

from stablemix.directing import (
    CauchyLaw,
    DirectingLaw,
    GaussianLaw,
    LocationAtoms,
    LocationGaussian,
    OneSidedParetoLaw,
    PointMassLaw,
    RowSums,
    ScaleAtoms,
    ScaleExponential,
    ScaleLogNormal,
    StableLaw,
    SymmetricParetoLaw,
    UniformLaw,
    _worker_count,
    draw_replicates,
    sample_array_sums,
)
from stablemix.stable import NormingSequence, StableParams, replicate_seed, sample_stable_with


def empirical_cf(values, t):
    """Monte Carlo characteristic function of a sample at one point."""
    return np.exp(1j * t * np.asarray(values)).mean()


class TestGaussianLaw:
    def test_cdf_and_tails(self):
        law = GaussianLaw(mean_value=1.0, sd=2.0)
        assert law.cdf(1.0) == pytest.approx(0.5)
        assert law.right_tail(1.0) == pytest.approx(0.5)
        assert law.cdf(3.0) == pytest.approx(float(ndtr(1.0)), abs=1e-15)
        total = law.cdf(2.5) + law.right_tail(2.5)
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_truncated_second_standard_normal(self):
        law = GaussianLaw(0.0, 1.0)
        # int_{-1}^{1} x^2 phi(x) dx = Phi(1) - Phi(-1) - 2 phi(1)
        expected = 0.1987480430987827
        assert law.truncated_second(1.0) == pytest.approx(expected, rel=1e-12)

    def test_closed_forms_match_quadrature(self):
        law = GaussianLaw(mean_value=0.7, sd=1.3)
        for bound in (0.5, 2.0, 7.0):
            by_quad_mean = law.integrate(lambda x: x, -bound, bound)
            by_quad_second = law.integrate(lambda x: x * x, -bound, bound)
            assert law.truncated_mean(bound) == pytest.approx(by_quad_mean, abs=1e-10)
            assert law.truncated_second(bound) == pytest.approx(by_quad_second, abs=1e-10)

    def test_smoothed_mean_vanishes_when_centered(self):
        assert GaussianLaw(0.0, 3.0).smoothed_mean(2.0) == 0.0

    def test_smoothed_mean_off_center(self):
        law = GaussianLaw(1.0, 1.0)
        value = law.smoothed_mean(2.0)
        direct = law.expect(lambda x: 2.0 * x / (4.0 + x * x))
        assert value == pytest.approx(direct, abs=1e-10)
        assert value > 0, f"smoothing should keep the positive mean, got {value}"

    def test_rejects_bad_sd(self):
        with pytest.raises(ValueError):
            GaussianLaw(0.0, 0.0)


class TestCauchyLaw:
    def test_standard_quartiles(self):
        law = CauchyLaw(location=0.0, cscale=1.0)
        assert law.cdf(1.0) == pytest.approx(0.75, abs=1e-15)
        assert law.right_tail(1.0) == pytest.approx(0.25, abs=1e-15)
        assert law.cdf(0.0) == pytest.approx(0.5)

    def test_deep_tail_precision(self):
        law = CauchyLaw(0.0, 1.0)
        x = 1e12
        # P(X > x) = atan(1/x)/pi, essentially 1/(pi x) this far out.
        assert law.right_tail(x) == pytest.approx(1.0 / (math.pi * x), rel=1e-9)
        assert law.cdf(-x) == pytest.approx(1.0 / (math.pi * x), rel=1e-9)

    def test_two_sided_tail(self):
        law = CauchyLaw(0.0, 1.0)
        for x in (0.5, 1.0, 4.0):
            expected = 2.0 * math.atan(1.0 / x) / math.pi
            assert law.tail_mass(x) == pytest.approx(expected, rel=1e-12)

    def test_truncated_second_standard(self):
        law = CauchyLaw(0.0, 1.0)
        for bound in (1.0, 5.0):
            expected = (2.0 / math.pi) * (bound - math.atan(bound))
            assert law.truncated_second(bound) == pytest.approx(expected, rel=1e-12)

    def test_shifted_moments_match_quadrature(self):
        law = CauchyLaw(location=0.8, cscale=1.5)
        for bound in (1.0, 6.0):
            quad_mean = law.integrate(lambda x: x, -bound, bound)
            quad_second = law.integrate(lambda x: x * x, -bound, bound)
            assert law.truncated_mean(bound) == pytest.approx(quad_mean, abs=1e-9)
            assert law.truncated_second(bound) == pytest.approx(quad_second, abs=1e-9)

    def test_mean_is_undefined(self):
        with pytest.raises(ValueError):
            CauchyLaw(0.0, 1.0).mean()


class TestUniformLaw:
    def test_truncation_windows(self):
        law = UniformLaw(-1.0, 3.0)
        assert law.truncated_mean(0.5) == pytest.approx(0.0)
        assert law.truncated_mean(1.0) == pytest.approx(0.0)
        # window [-1, 2]: (4 - 1) / (2 * 4)
        assert law.truncated_mean(2.0) == pytest.approx(3.0 / 8.0)
        assert law.truncated_second(2.0) == pytest.approx((8.0 + 1.0) / 12.0)
        assert law.truncated_mean(10.0) == pytest.approx(law.mean() * 1.0)

    def test_disjoint_window_is_zero(self):
        law = UniformLaw(2.0, 3.0)
        assert law.truncated_mean(1.0) == 0.0
        assert law.truncated_second(1.0) == 0.0

    def test_smoothed_mean_formula(self):
        law = UniformLaw(0.0, 1.0)
        b = 2.0
        direct = law.integrate(lambda x: b * x / (b * b + x * x), 0.0, 1.0)
        assert law.smoothed_mean(b) == pytest.approx(direct, abs=1e-10)

    def test_symmetric_interval(self):
        law = UniformLaw(-2.0, 2.0)
        assert law.symmetric
        assert law.smoothed_mean(1.0) == pytest.approx(0.0, abs=1e-15)


class TestParetoLaws:
    def test_symmetric_tails(self):
        law = SymmetricParetoLaw(tail_index=1.5, pscale=1.0)
        assert law.right_tail(2.0) == pytest.approx(0.5 * 2.0 ** -1.5, rel=1e-12)
        assert law.cdf(-2.0) == pytest.approx(0.5 * 2.0 ** -1.5, rel=1e-12)
        assert law.tail_mass(2.0) == pytest.approx(2.0 ** -1.5, rel=1e-12)
        assert law.cdf(0.0) == 0.5
        assert law.truncated_mean(5.0) == 0.0

    def test_symmetric_second_moment_log_case(self):
        law = SymmetricParetoLaw(tail_index=2.0, pscale=1.0)
        assert law.truncated_second(math.e) == pytest.approx(2.0, rel=1e-12)
        by_quad = law.integrate(lambda x: x * x, -math.e, math.e)
        assert by_quad == pytest.approx(2.0, rel=1e-9)

    def test_symmetric_mean(self):
        assert SymmetricParetoLaw(1.5, 1.0).mean() == 0.0
        with pytest.raises(ValueError):
            SymmetricParetoLaw(1.0, 1.0).mean()

    def test_one_sided_mean(self):
        law = OneSidedParetoLaw(tail_index=1.5, pscale=1.0)
        assert law.mean() == pytest.approx(3.0)
        with pytest.raises(ValueError):
            OneSidedParetoLaw(0.9, 1.0).mean()

    def test_one_sided_truncated_mean(self):
        law = OneSidedParetoLaw(tail_index=1.5, pscale=1.0)
        for bound in (4.0, 100.0):
            expected = 3.0 * (1.0 - bound ** -0.5)
            assert law.truncated_mean(bound) == pytest.approx(expected, rel=1e-12)
        log_law = OneSidedParetoLaw(tail_index=1.0, pscale=2.0)
        assert log_law.truncated_mean(2.0 * math.e) == pytest.approx(2.0, rel=1e-12)

    def test_one_sided_tail_and_cdf(self):
        law = OneSidedParetoLaw(1.5, 1.0)
        assert law.cdf(0.5) == 0.0
        assert law.right_tail(0.5) == 1.0
        assert law.right_tail(4.0) == pytest.approx(0.125)

    @pytest.mark.parametrize("family", [SymmetricParetoLaw, OneSidedParetoLaw])
    @pytest.mark.parametrize("tail_index", [1.5, 2.0, 2.5])
    def test_truncated_second_matches_quadrature(self, family, tail_index):
        scale = 1.3
        law = family(tail_index, scale)
        for factor in (0.5, 1.0, 3.0, 40.0):
            bound = factor * scale
            oracle = law.integrate(lambda x: x * x, -bound, bound)
            closed = law.truncated_second(bound)
            assert closed == pytest.approx(oracle, rel=1e-9, abs=1e-9), (
                f"{law!r} at bound {bound}: closed form {closed!r}, quadrature {oracle!r}"
            )

    @pytest.mark.parametrize("family", [SymmetricParetoLaw, OneSidedParetoLaw])
    def test_with_dispersion_keeps_the_family(self, family):
        law = family(1.5, 1.0).with_dispersion(2.5)
        assert type(law) is family
        assert law == family(1.5, 2.5)

    def test_sampling_matches_tail(self):
        law = SymmetricParetoLaw(1.5, 1.0)
        rng = np.random.default_rng(42)
        sample = law.sample(rng, 200_000)
        frac = np.mean(np.abs(sample) > 2.0)
        assert frac == pytest.approx(2.0 ** -1.5, abs=0.005), (
            f"two-sided tail frequency {frac:.4f} is off"
        )
        assert np.min(np.abs(sample)) >= 1.0

    @pytest.mark.parametrize("family", [SymmetricParetoLaw, OneSidedParetoLaw])
    def test_zero_uniform_draw_stays_finite(self, family):
        class ZeroRandom:
            def random(self, size):
                return np.zeros(size)

            def integers(self, lo, hi, size):
                return np.zeros(size, dtype=np.int64)

        sample = family(1.5, 2.5).sample(ZeroRandom(), 4)
        assert np.all(np.isfinite(sample))
        assert np.all(np.abs(sample) == 2.5)

    @pytest.mark.parametrize("family", [SymmetricParetoLaw, OneSidedParetoLaw])
    def test_nonzero_draws_unchanged(self, family):
        law = family(1.5, 2.5)
        got = law.sample(np.random.default_rng(3), 1000)
        rng = np.random.default_rng(3)
        magnitudes = 2.5 * rng.random(1000) ** (-1.0 / 1.5)
        if family is SymmetricParetoLaw:
            magnitudes = magnitudes * (rng.integers(0, 2, 1000) * 2 - 1)
        assert np.array_equal(got, magnitudes)


class TestPointMassLaw:
    def test_functionals(self):
        law = PointMassLaw(0.75)
        assert law.cdf(0.75) == 1.0
        assert law.cdf(0.74) == 0.0
        assert law.right_tail(0.75) == 0.0
        assert law.truncated_mean(1.0) == 0.75
        assert law.truncated_mean(0.5) == 0.0
        assert law.truncated_second(1.0) == 0.5625
        assert law.smoothed_mean(2.0) == pytest.approx(2.0 * 0.75 / (4.0 + 0.5625))
        assert law.mean() == 0.75

    def test_half_open_integration(self):
        law = PointMassLaw(0.75)
        assert law.integrate(lambda x: 1.0, 0.5, 0.75) == 1.0
        assert law.integrate(lambda x: 1.0, 0.75, 1.0) == 0.0
        assert law.expect(lambda x: x * x) == 0.5625


class TestStableLaw:
    @pytest.mark.parametrize(
        "params",
        [
            StableParams(1.5, 0.3, 2.0, 0.5),
            StableParams(1.0, 0.5, 2.0, 0.5),
            StableParams(0.7, 0.0, 1.0, 0.0),
        ],
    )
    def test_cdf_matches_sampler(self, params):
        """Pins the scipy parameter mapping against the in-house sampler."""
        law = StableLaw(params)
        rng = np.random.default_rng(np.random.SeedSequence([7, int(10 * params.alpha)]))
        sample = np.sort(sample_stable_with(rng, params, 20_000))
        grid = params.gamma + np.linspace(-12.0, 12.0, 25)
        for x in grid:
            ecdf = np.searchsorted(sample, x, side="right") / sample.size
            gap = abs(ecdf - law.cdf(float(x)))
            assert gap <= 0.02, f"cdf mismatch {gap:.4f} at x={x:.2f} for {params}"

    def test_gaussian_branch_is_exact(self):
        law = StableLaw(StableParams(2.0, 0.3, 0.5, 0.0))
        twin = GaussianLaw(0.3, 1.0)
        for x in (-2.0, 0.0, 0.3, 1.7):
            assert law.cdf(x) == pytest.approx(twin.cdf(x), abs=1e-15)
            assert law.right_tail(x) == pytest.approx(twin.right_tail(x), abs=1e-15)
        assert law.truncated_second(2.0) == pytest.approx(twin.truncated_second(2.0), abs=1e-9)

    def test_point_mass_branch(self):
        law = StableLaw(StableParams(1.5, 1.25, 0.0, 0.5))
        assert law.cdf(1.25) == 1.0
        assert law.cdf(1.2) == 0.0
        assert law.mean() == 1.25

    def test_mean(self):
        assert StableLaw(StableParams(1.5, 0.4, 1.0, 0.0)).mean() == 0.4
        with pytest.raises(ValueError):
            StableLaw(StableParams(1.0, 0.0, 1.0, 0.0)).mean()

    def test_quadrature_consistency_with_cdf(self):
        law = StableLaw(StableParams(1.5, 0.0, 1.0, 0.3))
        mass = law.integrate(lambda x: 1.0, -1.0, 2.0)
        assert mass == pytest.approx(law.cdf(2.0) - law.cdf(-1.0), abs=1e-7)


class TestDrawDirecting:
    def test_no_randomizer_returns_base(self):
        base = CauchyLaw(0.0, 1.0)
        law = DirectingLaw(base)
        for seed in (0, 1, 999):
            assert all(p is base for p in draw_replicates(law, seed, 3))

    def test_draw_is_deterministic(self):
        law = DirectingLaw(GaussianLaw(0.0, 1.0), ScaleExponential(rate=1.0))
        assert draw_replicates(law, 5, 1) == draw_replicates(law, 5, 1)
        assert draw_replicates(law, 5, 1) != draw_replicates(law, 6, 1)

    def test_scale_atom_frequencies(self):
        law = DirectingLaw(
            CauchyLaw(0.0, 1.0),
            ScaleAtoms(atoms=((1.0, 0.5), (2.0, 0.5))),
        )
        draws = draw_replicates(law, 0, 10_000)
        scales = np.array([p.cscale for p in draws])
        assert set(np.unique(scales)) == {1.0, 2.0}
        freq = np.mean(scales == 1.0)
        # three binomial sigmas around 1/2 at 10k draws
        assert abs(freq - 0.5) <= 0.015, f"atom frequency {freq:.4f} drifted"

    def test_exponential_variance_prior(self):
        law = DirectingLaw(GaussianLaw(0.0, 1.0), ScaleExponential(rate=1.0))
        variances = np.sort(
            [p.sd ** 2 for p in draw_replicates(law, 0, 10_000)]
        )
        # one-sample KS against Exp(1)
        grid = np.arange(1, variances.size + 1) / variances.size
        model = 1.0 - np.exp(-variances)
        ks = np.max(np.maximum(np.abs(grid - model), np.abs(grid - 1.0 / variances.size - model)))
        assert ks <= 0.02, f"KS distance {ks:.4f} against the exponential prior"

    def test_lognormal_prior_is_positive(self):
        law = DirectingLaw(CauchyLaw(0.0, 1.0), ScaleLogNormal(log_mean=0.0, log_sd=0.5))
        scales = [p.cscale for p in draw_replicates(law, 0, 200)]
        assert all(s > 0 for s in scales)

    def test_location_prior_on_point_mass(self):
        law = DirectingLaw(PointMassLaw(0.0), LocationGaussian(mean=1.0, sd=2.0))
        points = np.array([p.point for p in draw_replicates(law, 0, 10_000)])
        assert points.mean() == pytest.approx(1.0, abs=3.0 * 2.0 / 100.0)
        assert points.std() == pytest.approx(2.0, rel=0.05)

    def test_location_atoms(self):
        law = DirectingLaw(
            GaussianLaw(0.0, 1.0),
            LocationAtoms(atoms=((-1.0, 0.25), (1.0, 0.75))),
        )
        means = np.array([p.mean_value for p in draw_replicates(law, 0, 4000)])
        assert set(np.unique(means)) == {-1.0, 1.0}
        assert np.mean(means == 1.0) == pytest.approx(0.75, abs=0.025)

    def test_unsupported_prior_combinations(self):
        with pytest.raises(ValueError):
            DirectingLaw(UniformLaw(0.0, 1.0), ScaleAtoms(atoms=((1.0, 1.0),)))
        with pytest.raises(ValueError):
            DirectingLaw(UniformLaw(0.0, 1.0), LocationGaussian(0.0, 1.0))
        with pytest.raises(ValueError):
            DirectingLaw(PointMassLaw(0.0), ScaleExponential(1.0))

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            ScaleAtoms(atoms=((1.0, 0.6), (2.0, 0.6)))
        with pytest.raises(ValueError):
            ScaleAtoms(atoms=((-1.0, 1.0),))
        with pytest.raises(ValueError):
            ScaleAtoms(atoms=())
        with pytest.raises(ValueError):
            ScaleExponential(rate=0.0)
        with pytest.raises(ValueError):
            LocationGaussian(0.0, -1.0)

    def test_atom_priors_differ_by_slot(self):
        atoms = ((1.0, 0.5), (2.0, 0.5))
        assert ScaleAtoms(atoms) != LocationAtoms(atoms)
        assert repr(ScaleAtoms(atoms)).startswith("ScaleAtoms(atoms=")
        assert repr(LocationAtoms(atoms)).startswith("LocationAtoms(atoms=")
        assert (ScaleAtoms.slot, LocationAtoms.slot) == ("dispersion", "location")
        # Negative values are dispersions only under the scale prior.
        assert LocationAtoms(((-1.0, 1.0),)).atoms == ((-1.0, 1.0),)
        with pytest.raises(ValueError, match="does not accept a dispersion prior"):
            DirectingLaw(UniformLaw(0.0, 1.0), ScaleAtoms(atoms))
        with pytest.raises(ValueError, match="does not accept a location prior"):
            DirectingLaw(UniformLaw(0.0, 1.0), LocationAtoms(atoms))


class TestRowSums:
    def test_point_mass_centering_is_exactly_zero(self):
        law = DirectingLaw(PointMassLaw(0.75))
        norming = NormingSequence(alpha=1.0, centering_kind="n_times_mean")
        for n in (10, 1000):
            rs = sample_array_sums(law, norming, n=n, rows=3, seed=11, replicates=5)
            assert np.all(rs.values == 0.0), (
                f"point-mass rows should center to exactly zero at n={n}"
            )

    def test_cauchy_rows_have_cauchy_sums(self):
        # Row sums of i.i.d. standard Cauchy scaled by n are standard Cauchy
        # at every n, so a small n suffices.
        law = DirectingLaw(CauchyLaw(0.0, 1.0))
        norming = NormingSequence(alpha=1.0)
        rs = sample_array_sums(law, norming, n=64, rows=2, seed=3, replicates=2000)
        for row in range(2):
            value = empirical_cf(rs.values[:, row], 1.0)
            assert abs(value - math.exp(-1.0)) <= 0.05, (
                f"row {row} characteristic value {value:.4f} is far from 1/e"
            )
        joint = np.exp(1j * (rs.values[:, 0] + rs.values[:, 1])).mean()
        assert abs(joint - math.exp(-2.0)) <= 0.05

    def test_gaussian_rows(self):
        law = DirectingLaw(GaussianLaw(0.0, 1.0))
        norming = NormingSequence(alpha=2.0)
        rs = sample_array_sums(law, norming, n=64, rows=1, seed=8, replicates=2000)
        value = empirical_cf(rs.values[:, 0], 1.0)
        assert abs(value - math.exp(-0.5)) <= 0.05

    def test_rows_are_exchangeable(self):
        law = DirectingLaw(CauchyLaw(0.0, 1.0))
        norming = NormingSequence(alpha=1.0)
        rs = sample_array_sums(law, norming, n=32, rows=2, seed=21, replicates=2000)
        a = np.sort(rs.values[:, 0])
        b = np.sort(rs.values[:, 1])
        grid = np.concatenate([a, b])
        ks = np.max(
            np.abs(
                np.searchsorted(a, grid, side="right") / a.size
                - np.searchsorted(b, grid, side="right") / b.size
            )
        )
        assert ks <= 0.05, f"rows should share one marginal law, KS={ks:.4f}"

    def test_mixture_draws_are_shared_and_deduplicated(self):
        law = DirectingLaw(
            CauchyLaw(0.0, 1.0),
            ScaleAtoms(atoms=((1.0, 0.5), (2.0, 0.5))),
        )
        norming = NormingSequence(alpha=1.0)
        rs = sample_array_sums(law, norming, n=32, rows=2, seed=5, replicates=1500)
        assert len(rs.draws) == 2
        assert {p.cscale for p in rs.draws} == {1.0, 2.0}
        share = np.mean(rs.draw_ids == rs.draw_ids[0])
        assert abs(share - 0.5) <= 0.05

    def test_rows_conditionally_independent(self):
        law = DirectingLaw(
            CauchyLaw(0.0, 1.0),
            ScaleAtoms(atoms=((1.0, 0.5), (2.0, 0.5))),
        )
        norming = NormingSequence(alpha=1.0)
        rs = sample_array_sums(law, norming, n=32, rows=2, seed=5, replicates=1500)
        for draw_id in range(len(rs.draws)):
            mask = rs.draw_ids == draw_id
            count = int(mask.sum())
            rho = spearmanr(rs.values[mask, 0], rs.values[mask, 1]).statistic
            assert abs(rho) <= 3.0 / math.sqrt(count), (
                f"conditional rank correlation {rho:.4f} too large for draw {draw_id}"
            )

    def test_mixture_joint_does_not_factorize(self):
        law = DirectingLaw(
            CauchyLaw(0.0, 1.0),
            ScaleAtoms(atoms=((1.0, 0.5), (2.0, 0.5))),
        )
        norming = NormingSequence(alpha=1.0)
        rs = sample_array_sums(law, norming, n=32, rows=2, seed=17, replicates=4000)
        joint = np.real(np.exp(1j * (rs.values[:, 0] + rs.values[:, 1])).mean())
        product = np.real(empirical_cf(rs.values[:, 0], 1.0)) * np.real(
            empirical_cf(rs.values[:, 1], 1.0)
        )
        # exact gap is (e^-2 + e^-4)/2 - ((e^-1 + e^-2)/2)^2, about 0.0136
        assert joint - product >= 0.003, (
            f"mixture joint value {joint:.4f} should exceed the product {product:.4f}"
        )

    def test_iid_joint_factorizes(self):
        law = DirectingLaw(CauchyLaw(0.0, 1.0))
        norming = NormingSequence(alpha=1.0)
        rs = sample_array_sums(law, norming, n=32, rows=2, seed=17, replicates=4000)
        joint = np.real(np.exp(1j * (rs.values[:, 0] + rs.values[:, 1])).mean())
        product = np.real(empirical_cf(rs.values[:, 0], 1.0)) * np.real(
            empirical_cf(rs.values[:, 1], 1.0)
        )
        assert abs(joint - product) <= 0.05

    def test_gaussian_variance_mixture_sums(self):
        law = DirectingLaw(GaussianLaw(0.0, 1.0), ScaleExponential(rate=1.0))
        norming = NormingSequence(alpha=2.0)
        rs = sample_array_sums(law, norming, n=256, rows=1, seed=13, replicates=2000)
        values = rs.values[:, 0]
        for t in np.arange(-3.0, 3.5, 0.5):
            target = 1.0 / (1.0 + 0.5 * t * t)
            assert abs(empirical_cf(values, t) - target) <= 0.05, (
                f"variance mixture characteristic value off at t={t}"
            )

    def test_replicate_sums_matches_mixture(self):
        law = DirectingLaw(
            CauchyLaw(0.0, 1.0),
            ScaleAtoms(atoms=((1.0, 0.5), (2.0, 0.5))),
        )
        norming = NormingSequence(alpha=1.0)
        rs = sample_array_sums(law, norming, n=64, rows=1, seed=29, replicates=2000)
        values = rs.values[:, 0]
        target = 0.5 * (math.exp(-1.0) + math.exp(-2.0))
        assert abs(empirical_cf(values, 1.0) - target) <= 0.05
        assert set(rs.draw_ids.tolist()) == {0, 1}

    def test_bit_identical_reproducibility(self):
        law = DirectingLaw(
            CauchyLaw(0.0, 1.0),
            ScaleAtoms(atoms=((1.0, 0.5), (2.0, 0.5))),
        )
        norming = NormingSequence(alpha=1.0)
        first = sample_array_sums(law, norming, n=128, rows=2, seed=42, replicates=50)
        second = sample_array_sums(law, norming, n=128, rows=2, seed=42, replicates=50)
        threaded = sample_array_sums(
            law, norming, n=128, rows=2, seed=42, replicates=50, threads=4
        )
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.values, threaded.values)
        assert np.array_equal(first.draw_ids, threaded.draw_ids)
        other_seed = sample_array_sums(law, norming, n=128, rows=2, seed=43, replicates=50)
        assert not np.array_equal(first.values, other_seed.values)

    def test_replicate_seeding_is_stable_under_replicate_count(self):
        law = DirectingLaw(CauchyLaw(0.0, 1.0))
        norming = NormingSequence(alpha=1.0)
        small = sample_array_sums(law, norming, n=64, rows=1, seed=9, replicates=10)
        large = sample_array_sums(law, norming, n=64, rows=1, seed=9, replicates=20)
        assert np.array_equal(small.values, large.values[:10])

    def test_input_validation(self):
        law = DirectingLaw(CauchyLaw(0.0, 1.0))
        norming = NormingSequence(alpha=1.0)
        with pytest.raises(ValueError):
            sample_array_sums(law, norming, n=0, rows=1, seed=1)
        with pytest.raises(ValueError):
            sample_array_sums(law, norming, n=10, rows=0, seed=1)
        with pytest.raises(ValueError):
            sample_array_sums(law, norming, n=10, rows=1, seed=1, replicates=0)

    def test_nonfinite_sums_are_an_error(self):
        law = DirectingLaw(SymmetricParetoLaw(0.01, 1.0))
        with pytest.raises(RuntimeError, match=r"sample_array_sums: 3 of 50 .* at n=64"):
            sample_array_sums(law, NormingSequence(alpha=0.5), n=64, rows=1, seed=0, replicates=50)

    def test_row_sums_shape_validation(self):
        with pytest.raises(ValueError):
            RowSums(
                n=10,
                rows=2,
                replicates=3,
                seed=0,
                values=np.zeros((2, 2)),
                draw_ids=np.zeros(3, dtype=np.int64),
                draws=(CauchyLaw(0.0, 1.0),),
            )


class TestWorkerCount:
    """The sampler's thread pool is capped by CPUs and replicates. The cap is
    tested on the helper alone, without starting any pool."""

    def test_clamps_to_cpus_and_replicates(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _worker_count(10**9, 200) == 4
        assert _worker_count(2, 200) == 2
        assert _worker_count(8, 3) == 3
        assert _worker_count(1, 200) == 1

    def test_unknown_cpu_count_means_one_worker(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(16, 200) == 1


class TestDirectingDraws:
    """Only a law with a prior builds a generator for its directing draw;
    the draws follow the documented seed streams."""

    @pytest.mark.parametrize(
        "prior, generators",
        [(None, 50), (ScaleAtoms(atoms=((1.0, 0.5), (2.0, 0.5))), 100)],
    )
    def test_generators_per_sample(self, monkeypatch, prior, generators):
        built = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        law = DirectingLaw(CauchyLaw(0.0, 1.0), prior)
        sample_array_sums(law, NormingSequence(alpha=1.0), n=16, rows=1, seed=3, replicates=50)
        assert len(built) == generators

    def test_draws_follow_the_seed_streams(self):
        law = DirectingLaw(CauchyLaw(0.0, 1.0), ScaleLogNormal(0.0, 0.5))

        def drawn_from(seq):
            return law.base.with_dispersion(law.randomizer.draw(np.random.default_rng(seq)))

        expected = [drawn_from(replicate_seed(5, k, 0)) for k in range(20)]
        assert draw_replicates(law, 5, 20) == expected
