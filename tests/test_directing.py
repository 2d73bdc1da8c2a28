"""Tests for directing laws, realized functionals, and normed row sums."""

import math
import time
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pytest
from scipy.special import hyp2f1, ndtr
from scipy.stats import levy_stable, spearmanr

from stablemix import directing
from stablemix.characteristics import tail_mass_quantity, trunc_mean
from stablemix.directing import (
    CauchyLaw,
    DirectingLaw,
    GaussianLaw,
    LocationAtoms,
    LocationGaussian,
    ParetoLaw,
    PointMassLaw,
    ScaleAtoms,
    ScaleExponential,
    ScaleLogNormal,
    StableLaw,
    UniformLaw,
    _BLOCK,
    _RealizedLaw,
    _ndtr,
    _row_sums,
    _scaled_power_integral,
    draw_replicates,
    sample_array_sums,
    sample_grid_sums,
)
from stablemix.mixtures import MixingMeasure
from stablemix.stable import (
    NormingSequence,
    StableParams,
    _require_finite,
    _require_positive,
    norming_values,
    replicate_seed,
    sample_stable_with,
)


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

    @pytest.mark.parametrize("mean", [40.0, -40.0, 150.0])
    @pytest.mark.parametrize("sd", [0.1, 1e-3])
    def test_narrow_smoothed_mean_far_from_zero(self, mean, sd):
        # A Gauss-Hermite rule is the oracle: in standard units the integrand
        # is analytic within b/sd of the real line.
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        x = mean + sd * nodes
        law = GaussianLaw(mean, sd)
        for b in (0.5, 30.0, 1e3):
            oracle = float(np.dot(weights, b * x / (b * b + x * x))) / math.sqrt(2.0 * math.pi)
            value = law.smoothed_mean(b)
            assert value == pytest.approx(_RealizedLaw._smoothed_mean(law, b), rel=1e-8), b
            assert value == pytest.approx(oracle, rel=1e-8), b

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

    @pytest.mark.parametrize(
        "location, scale, b", [(0.8, 1.5, 2.0), (-3.0, 0.5, 40.0), (-0.2, 0.1, 1000.0), (5.0, 2.0, 0.01)]
    )
    def test_off_centre_smoothed_mean_is_closed_form(self, monkeypatch, location, scale, b):
        law = CauchyLaw(location, scale)
        oracle = law.expect(lambda x: b * x / (b * b + x * x))

        def no_quad(*args, **kwargs):
            raise AssertionError("quad called")

        monkeypatch.setattr(directing, "quad", no_quad)
        assert law.smoothed_mean(b) == pytest.approx(oracle, rel=1e-9, abs=1e-15)

    def test_centred_smoothed_mean_is_exactly_zero(self):
        for location in (0.0, -0.0):
            value = CauchyLaw(location, 2.0).smoothed_mean(3.0)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestQuadratureCertificate:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_nan_integrand_is_refused(self):
        with pytest.raises(RuntimeError, match=r"quadrature over \(-8\.0, 8\.0\)"):
            CauchyLaw(0.0, 1.0).expect(lambda x: math.nan)
        with pytest.raises(RuntimeError, match=r"quadrature over \(-1\.0, 1\.0\)"):
            GaussianLaw(0.0, 1.0).integrate(lambda x: math.nan, -1.0, 1.0)


class TestSpecialFunctions:
    """The SciPy-free normal cdf and 2F1 series against the SciPy functions
    they replaced."""

    def test_ndtr_matches_scipy(self):
        z = np.linspace(-38.0, 9.0, 40_001)
        ours = np.array([_ndtr(float(v)) for v in z])
        ref = ndtr(z)
        assert np.max(np.abs(ours - ref)) <= 4.5e-16
        positive = ref > 0
        assert np.max(np.abs(ours - ref)[positive] / ref[positive]) <= 1e-12

    def test_ndtr_edges(self):
        assert _ndtr(0.0) == 0.5 and _ndtr(-0.0) == 0.5
        assert _ndtr(math.inf) == 1.0 and _ndtr(-math.inf) == 0.0
        assert math.isnan(_ndtr(math.nan))

    def test_scaled_power_integral_matches_hyp2f1(self):
        ps = np.concatenate([[-1.0 + 1e-12, -1.0 + 1e-6], np.linspace(-1.0, 4.5, 111)[1:]])
        xs = np.concatenate([np.geomspace(1e-8, 1.0, 61), [0.3, 0.7, 0.999]])
        worst = 0.0
        for p in ps:
            for x in xs:
                p, x = float(p), float(x)
                ref = float(hyp2f1(1.0, (p + 1.0) / 2.0, (p + 3.0) / 2.0, -x * x)) / (p + 1.0)
                worst = max(worst, abs(_scaled_power_integral(p, x) - ref) / ref)
        assert worst <= 1e-14


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


# The two Pareto classes that ParetoLaw replaced, their code copied unchanged
# (two long docstrings dropped) except for the leading underscore of the
# concrete two, which keeps them out of _concrete_families. They are the
# oracle of TestParetoLaws::test_matches_the_replaced_classes.
@dataclass(frozen=True)
class _ParetoLaw(_RealizedLaw):
    """Fields, validation and closed forms shared by the two Pareto families."""

    tail_index: float
    pscale: float

    def __post_init__(self) -> None:
        _require_positive("tail_index", self.tail_index)
        _require_positive("scale", self.pscale)
        _require_finite("tail_index", self.tail_index)
        _require_finite("scale", self.pscale)

    def truncated_second(self, bound: float) -> float:
        a0, s = self.tail_index, self.pscale
        if bound <= s:
            return 0.0
        if a0 == 2.0:
            return 2.0 * s * s * math.log(bound / s)
        return a0 * s ** a0 * (bound ** (2.0 - a0) - s ** (2.0 - a0)) / (2.0 - a0)

    def with_dispersion(self, value: float) -> "_ParetoLaw":
        return type(self)(self.tail_index, value)

    def _magnitudes(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        u[u == 0.0] = 1.0
        return self.pscale * u ** (-1.0 / self.tail_index)


@dataclass(frozen=True)
class _SymmetricParetoLaw(_ParetoLaw):
    """Symmetric power-tail law: density ~ |x|**-(tail_index+1) for |x| >= pscale."""

    symmetric = True

    def pieces(self) -> Tuple[Tuple[float, float], ...]:
        return ((-math.inf, -self.pscale), (self.pscale, math.inf))

    def pdf(self, x: float) -> float:
        a0, s = self.tail_index, self.pscale
        if abs(x) < s:
            return 0.0
        return 0.5 * a0 * s ** a0 * abs(x) ** (-a0 - 1.0)

    def cdf(self, x: float) -> float:
        a0, s = self.tail_index, self.pscale
        if x <= -s:
            return 0.5 * (s / -x) ** a0
        if x < s:
            return 0.5
        return 1.0 - 0.5 * (s / x) ** a0

    def right_tail(self, x: float) -> float:
        return self.cdf(-x)

    def mean(self) -> float:
        if self.tail_index <= 1.0:
            raise ValueError("mean undefined at tail index <= 1")
        return 0.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        magnitudes = self._magnitudes(rng, size)
        signs = rng.integers(0, 2, size) * 2 - 1
        return magnitudes * signs


@dataclass(frozen=True)
class _OneSidedParetoLaw(_ParetoLaw):
    """Power-tail law supported on [pscale, +inf)."""

    prefix_stable = True

    def pieces(self) -> Tuple[Tuple[float, float], ...]:
        return ((self.pscale, math.inf),)

    def pdf(self, x: float) -> float:
        a0, s = self.tail_index, self.pscale
        if x < s:
            return 0.0
        return a0 * s ** a0 * x ** (-a0 - 1.0)

    def cdf(self, x: float) -> float:
        if x < self.pscale:
            return 0.0
        return 1.0 - (self.pscale / x) ** self.tail_index

    def right_tail(self, x: float) -> float:
        if x < self.pscale:
            return 1.0
        return (self.pscale / x) ** self.tail_index

    def truncated_mean(self, bound: float) -> float:
        a0, s = self.tail_index, self.pscale
        if bound < s:
            return 0.0
        if a0 == 1.0:
            return s * math.log(bound / s)
        return a0 * s ** a0 * (bound ** (1.0 - a0) - s ** (1.0 - a0)) / (1.0 - a0)

    def smoothed_mean(self, b: float) -> float:
        a0 = self.tail_index
        z = b / self.pscale
        if z == 0.0:
            return 0.0
        if a0 == 1.0:
            return math.log1p(z * z) / (2.0 * z)
        if z <= 1.0:
            return a0 * z * _scaled_power_integral(a0, z)
        lz = math.log(z)
        total = _scaled_power_integral(a0, 1.0)
        peeled = math.floor((a0 + 1.5) / 2.0)
        for k in range(peeled):
            r = 2.0 * k + 1.0 - a0
            total += (-1) ** k * (lz if r == 0.0 else -math.expm1(-r * lz) / r)
        p = 2.0 * peeled - a0
        remainder = _scaled_power_integral(p, 1.0) - z ** -(p + 1.0) * _scaled_power_integral(p, 1.0 / z)
        total += (-1) ** peeled * remainder
        return a0 * z ** -a0 * total

    def mean(self) -> float:
        a0 = self.tail_index
        if a0 <= 1.0:
            raise ValueError("mean undefined at tail index <= 1")
        return a0 * self.pscale / (a0 - 1.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._magnitudes(rng, size)


def _outcome(f, *args):
    """What f(*args) does, comparable bit for bit: the float's hex form, which
    keeps the sign of zero, or the type and message of the error it raises."""
    try:
        value = f(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return value.hex()


_ORACLE_FACTORS = (0.0, 1e-3, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0, 10.0, 1e6, 1e300)


class TestParetoLaws:
    def test_symmetric_tails(self):
        law = ParetoLaw(tail_index=1.5, pscale=1.0, right_weight=0.5)
        assert law.right_tail(2.0) == pytest.approx(0.5 * 2.0 ** -1.5, rel=1e-12)
        assert law.cdf(-2.0) == pytest.approx(0.5 * 2.0 ** -1.5, rel=1e-12)
        assert law.tail_mass(2.0) == pytest.approx(2.0 ** -1.5, rel=1e-12)
        assert law.cdf(0.0) == 0.5
        assert law.truncated_mean(5.0) == 0.0

    def test_symmetric_second_moment_log_case(self):
        law = ParetoLaw(tail_index=2.0, pscale=1.0, right_weight=0.5)
        assert law.truncated_second(math.e) == pytest.approx(2.0, rel=1e-12)
        by_quad = law.integrate(lambda x: x * x, -math.e, math.e)
        assert by_quad == pytest.approx(2.0, rel=1e-9)

    def test_symmetric_mean(self):
        assert ParetoLaw(1.5, 1.0, 0.5).mean() == 0.0
        with pytest.raises(ValueError):
            ParetoLaw(1.0, 1.0, 0.5).mean()

    def test_one_sided_mean(self):
        law = ParetoLaw(tail_index=1.5, pscale=1.0, right_weight=1.0)
        assert law.mean() == pytest.approx(3.0)
        with pytest.raises(ValueError):
            ParetoLaw(0.9, 1.0, 1.0).mean()

    def test_one_sided_truncated_mean(self):
        law = ParetoLaw(tail_index=1.5, pscale=1.0, right_weight=1.0)
        for bound in (4.0, 100.0):
            expected = 3.0 * (1.0 - bound ** -0.5)
            assert law.truncated_mean(bound) == pytest.approx(expected, rel=1e-12)
        log_law = ParetoLaw(tail_index=1.0, pscale=2.0, right_weight=1.0)
        assert log_law.truncated_mean(2.0 * math.e) == pytest.approx(2.0, rel=1e-12)

    def test_one_sided_tail_and_cdf(self):
        law = ParetoLaw(1.5, 1.0, 1.0)
        assert law.cdf(0.5) == 0.0
        assert law.right_tail(0.5) == 1.0
        assert law.right_tail(4.0) == pytest.approx(0.125)

    @pytest.mark.parametrize("right_weight", [0.5, 1.0])
    @pytest.mark.parametrize("tail_index", [1.5, 2.0, 2.5])
    def test_truncated_second_matches_quadrature(self, right_weight, tail_index):
        scale = 1.3
        law = ParetoLaw(tail_index, scale, right_weight)
        for factor in (0.5, 1.0, 3.0, 40.0):
            bound = factor * scale
            oracle = law.integrate(lambda x: x * x, -bound, bound)
            closed = law.truncated_second(bound)
            assert closed == pytest.approx(oracle, rel=1e-9, abs=1e-9), (
                f"{law!r} at bound {bound}: closed form {closed!r}, quadrature {oracle!r}"
            )

    @pytest.mark.parametrize("tail_index", [0.5, 0.99, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.5, 1.99])
    def test_one_sided_smoothed_mean_matches_quadrature(self, tail_index):
        # The quadrature path every realized law inherits is the oracle.
        for scale in (0.5, 1.0, 3.0):
            law = ParetoLaw(tail_index, scale, 1.0)
            for z in np.geomspace(1e-2, 5e3, 25):
                b = z * scale
                closed = law.smoothed_mean(b)
                oracle = _RealizedLaw._smoothed_mean(law, b)
                assert closed == pytest.approx(oracle, rel=1e-10), (
                    f"{law!r} at b = {b!r}: closed form {closed!r}, quadrature {oracle!r}"
                )
            for z in (1e4, 1e5, 1e6):
                assert math.isfinite(law.smoothed_mean(z * scale))

    @pytest.mark.parametrize("replaced, right_weight", [(_SymmetricParetoLaw, 0.5), (_OneSidedParetoLaw, 1.0)])
    def test_matches_the_replaced_classes(self, replaced, right_weight):
        for tail_index in (0.3, 0.99, 1.0, 1.01, 1.5, 2.0, 2.5, 4.2):
            for scale in (0.5, 1.0, 3.0):
                old, new = replaced(tail_index, scale), ParetoLaw(tail_index, scale, right_weight)
                where = f"{new!r}"
                assert (new.symmetric, new.prefix_stable) == (old.symmetric, old.prefix_stable), where
                assert new.pieces() == old.pieces(), where
                assert _outcome(new.mean) == _outcome(old.mean), where
                # The bounds and the smoothing width b are nonnegative.
                points = [factor * scale for factor in _ORACLE_FACTORS]
                signed = points + [-x for x in points]
                calls = [(name, x) for name in ("pdf", "cdf", "right_tail", "tail_mass") for x in signed]
                calls += [(name, x) for name in ("truncated_mean", "truncated_second", "smoothed_mean") for x in points]
                for name, x in calls:
                    got, want = _outcome(getattr(new, name), x), _outcome(getattr(old, name), x)
                    assert got == want, f"{where}.{name}({x!r}): {got} != {want}"
                for size in (1, 257):
                    new_rng, old_rng = np.random.default_rng(size), np.random.default_rng(size)
                    got, want = new.sample(new_rng, size), old.sample(old_rng, size)
                    assert got.tobytes() == want.tobytes(), f"{where}.sample at size {size}"
                    assert new_rng.bit_generator.state == old_rng.bit_generator.state, where

    @pytest.mark.parametrize("right_weight", [0.5, 1.0])
    def test_with_dispersion_keeps_the_right_weight(self, right_weight):
        law = ParetoLaw(1.5, 1.0, right_weight).with_dispersion(2.5)
        assert law.right_weight == right_weight
        assert law == ParetoLaw(1.5, 2.5, right_weight)

    @pytest.mark.parametrize("right_weight", [0.0, 0.25, 0.75, 1.5, -1.0, math.nan])
    def test_other_right_weights_are_value_errors(self, right_weight):
        with pytest.raises(ValueError, match="right_weight must be 0.5 or 1.0"):
            ParetoLaw(1.5, 1.0, right_weight)

    def test_sampling_matches_tail(self):
        law = ParetoLaw(1.5, 1.0, 0.5)
        rng = np.random.default_rng(42)
        sample = law.sample(rng, 200_000)
        frac = np.mean(np.abs(sample) > 2.0)
        assert frac == pytest.approx(2.0 ** -1.5, abs=0.005), (
            f"two-sided tail frequency {frac:.4f} is off"
        )
        assert np.min(np.abs(sample)) >= 1.0

    @pytest.mark.parametrize("right_weight", [0.5, 1.0])
    def test_zero_uniform_draw_stays_finite(self, right_weight):
        class ZeroRandom:
            def random(self, size):
                return np.zeros(size)

            def integers(self, lo, hi, size):
                return np.zeros(size, dtype=np.int64)

        sample = ParetoLaw(1.5, 2.5, right_weight).sample(ZeroRandom(), 4)
        assert np.all(np.isfinite(sample))
        assert np.all(np.abs(sample) == 2.5)

    @pytest.mark.parametrize("right_weight", [0.5, 1.0])
    def test_nonzero_draws_unchanged(self, right_weight):
        law = ParetoLaw(1.5, 2.5, right_weight)
        got = law.sample(np.random.default_rng(3), 1000)
        rng = np.random.default_rng(3)
        magnitudes = 2.5 * rng.random(1000) ** (-1.0 / 1.5)
        if right_weight == 0.5:
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

    @pytest.mark.parametrize(
        "params, twin",
        [
            (StableParams(1.5, 1.25, 0.0, 0.5), PointMassLaw(1.25)),
            (StableParams(2.0, 0.3, 0.5, 0.0), GaussianLaw(0.3, 1.0)),
            (StableParams(1.0, -0.4, 2.0, 0.0), CauchyLaw(-0.4, 2.0)),
        ],
    )
    def test_closed_form_corners_are_their_twins(self, params, twin):
        law = StableLaw(params)
        for x in (-3.0, -0.4, 0.0, 0.3, 1.25, 7.5):
            assert law.cdf(x) == twin.cdf(x)
            assert law.right_tail(x) == twin.right_tail(x)
            assert law.tail_mass(abs(x)) == twin.tail_mass(abs(x))
        square = lambda y: y * y
        for bound in (0.0, 0.5, 1.3, 4.0, 100.0):
            assert law.truncated_mean(bound) == twin.truncated_mean(bound)
            assert law.truncated_second(bound) == twin.truncated_second(bound)
            assert law.integrate(square, -bound, bound) == twin.integrate(square, -bound, bound)
        for b in (0.1, 1.0, 25.0):
            assert law.smoothed_mean(b) == twin.smoothed_mean(b)

    def test_cauchy_corner_matches_scipy(self):
        params = StableParams(1.0, -0.4, 2.0, 0.0)
        law = StableLaw(params)
        alpha, beta, loc, scale = law._scipy_args()
        for x in (-30.0, -3.0, -0.4, 0.0, 1.25, 7.5):
            for method in ("cdf", "pdf"):
                oracle = getattr(levy_stable, method)(x, alpha, beta, loc=loc, scale=scale)
                assert getattr(law, method)(x) == pytest.approx(float(oracle), abs=1e-10)

    def test_point_mass_branch(self):
        law = StableLaw(StableParams(1.5, 1.25, 0.0, 0.5))
        assert law.cdf(1.25) == 1.0
        assert law.cdf(1.2) == 0.0
        assert law.mean() == 1.25
        with pytest.raises(ValueError, match="no density"):
            law.pdf(1.25)

    def test_mean(self):
        assert StableLaw(StableParams(1.5, 0.4, 1.0, 0.0)).mean() == 0.4
        with pytest.raises(ValueError):
            StableLaw(StableParams(1.0, 0.0, 1.0, 0.0)).mean()

    def test_quadrature_consistency_with_cdf(self):
        law = StableLaw(StableParams(1.5, 0.0, 1.0, 0.3))
        mass = law.integrate(lambda x: 1.0, -1.0, 2.0)
        assert mass == pytest.approx(law.cdf(2.0) - law.cdf(-1.0), abs=1e-7)


_NAN = math.nan


@pytest.mark.parametrize(
    "make, fragment",
    [
        (lambda: GaussianLaw(0.0, _NAN), "sd must be positive, got nan"),
        (lambda: CauchyLaw(0.0, _NAN), "scale must be positive, got nan"),
        (lambda: ParetoLaw(_NAN, 1.0, 0.5), "tail_index must be positive, got nan"),
        (lambda: ScaleExponential(_NAN), "rate must be positive, got nan"),
        (lambda: ScaleAtoms(((1.0, _NAN), (2.0, 0.5))), "weights must be positive"),
        # A NaN scale atom would realize CauchyLaw(0, nan).
        (lambda: ScaleAtoms(((_NAN, 1.0),)), "dispersion value must be positive, got nan"),
        (
            lambda: MixingMeasure(((StableParams(1.0, 0.0, 1.0, 0.0), _NAN),)),
            "weights must be positive",
        ),
        (lambda: NormingSequence(1.0, scale=_NAN), "scale must be positive, got nan"),
        (lambda: trunc_mean(GaussianLaw(0.0, 1.0), NormingSequence(2.0), 10, _NAN), "tau must be positive, got nan"),
        (
            lambda: tail_mass_quantity(GaussianLaw(0.0, 1.0), NormingSequence(2.0), 10, _NAN),
            "eps must be positive, got nan",
        ),
    ],
)
def test_nan_parameter_or_weight_is_a_value_error(make, fragment):
    with pytest.raises(ValueError, match=fragment):
        make()


_INF = math.inf


@pytest.mark.parametrize(
    "make, fragment",
    [
        (lambda: GaussianLaw(_NAN, 1.0), "mean must be finite, got nan"),
        (lambda: CauchyLaw(_NAN, 1.0), "location must be finite, got nan"),
        (lambda: PointMassLaw(_NAN), "point must be finite, got nan"),
        (lambda: LocationAtoms(((_NAN, 1.0),)), "location value must be finite, got nan"),
        (lambda: LocationGaussian(_NAN, 1.0), "mean must be finite, got nan"),
        (lambda: ScaleLogNormal(_NAN, 1.0), "log_mean must be finite, got nan"),
        (lambda: GaussianLaw(_INF, 1.0), "mean must be finite, got inf"),
        (lambda: GaussianLaw(0.0, _INF), "sd must be finite, got inf"),
        (lambda: CauchyLaw(0.0, _INF), "scale must be finite, got inf"),
        (lambda: UniformLaw(-_INF, 1.0), "lo must be finite, got -inf"),
        (lambda: ParetoLaw(_INF, 1.0, 0.5), "tail_index must be finite, got inf"),
        (lambda: ParetoLaw(1.5, _INF, 0.5), "scale must be finite, got inf"),
        (lambda: PointMassLaw(_INF), "point must be finite, got inf"),
        (lambda: ScaleExponential(_INF), "rate must be finite, got inf"),
        (lambda: ScaleLogNormal(0.0, _INF), "log_sd must be finite, got inf"),
        (lambda: LocationGaussian(0.0, _INF), "sd must be finite, got inf"),
        (lambda: ScaleAtoms(((_INF, 1.0),)), "dispersion value must be finite, got inf"),
        (lambda: LocationAtoms(((_INF, 1.0),)), "location value must be finite, got inf"),
        (lambda: NormingSequence(1.0, scale=_INF), "scale must be finite, got inf"),
        (lambda: NormingSequence(1.0, slow_power=_NAN), "slow_power must be finite, got nan"),
        (lambda: NormingSequence(1.0, slow_kind="log_power", slow_power=_INF), "slow_power must be finite, got inf"),
        (
            lambda: NormingSequence(1.0, centering_kind="n_times_truncated_mean", centering_tau=_INF),
            "centering_tau must be finite, got inf",
        ),
        (lambda: NormingSequence(1.0, centering_tau=_NAN), "centering_tau must be finite, got nan"),
    ],
)
def test_nonfinite_family_or_prior_parameter_is_a_value_error(make, fragment):
    # Rejected on construction, before a scenario samples any row.
    with pytest.raises(ValueError, match=fragment):
        make()


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

    def test_stable_base_at_zero_scale_takes_priors_as_its_point_mass(self):
        # StableParams stores c = 0 as (1, gamma, 0, 0), so a dispersion
        # prior would draw Cauchy laws whatever index the base was given.
        atoms = ((1.0, 0.5), (2.0, 0.5))
        base = StableLaw(StableParams(1.5, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="StableLaw with c = 0 does not accept a dispersion prior"):
            DirectingLaw(base, ScaleAtoms(atoms))
        with pytest.raises(ValueError, match="StableLaw with c = 0 does not accept a dispersion prior"):
            DirectingLaw(base, ScaleExponential(1.0))
        located = draw_replicates(DirectingLaw(base, LocationAtoms(atoms)), 3, 20)
        assert {p.params for p in located} == {StableParams(1.0, v, 0.0, 0.0) for v, _ in atoms}
        # Off c = 0 the stable base keeps its dispersion prior.
        DirectingLaw(StableLaw(StableParams(1.5, 0.0, 1.0, 0.0)), ScaleAtoms(atoms))


class TestRowSums:
    def test_point_mass_centering_is_exactly_zero(self):
        law = DirectingLaw(PointMassLaw(0.75))
        norming = NormingSequence(alpha=1.0, centering_kind="n_times_mean")
        for n in (10, 1000):
            rs = sample_array_sums(law, norming, n=n, rows=3, seed=11, replicates=5)
            assert np.all(rs == 0.0), (
                f"point-mass rows should center to exactly zero at n={n}"
            )

    def test_cauchy_rows_have_cauchy_sums(self):
        # Row sums of i.i.d. standard Cauchy scaled by n are standard Cauchy
        # at every n, so a small n suffices.
        law = DirectingLaw(CauchyLaw(0.0, 1.0))
        norming = NormingSequence(alpha=1.0)
        rs = sample_array_sums(law, norming, n=64, rows=2, seed=3, replicates=2000)
        for row in range(2):
            value = empirical_cf(rs[:, row], 1.0)
            assert abs(value - math.exp(-1.0)) <= 0.05, (
                f"row {row} characteristic value {value:.4f} is far from 1/e"
            )
        joint = np.exp(1j * (rs[:, 0] + rs[:, 1])).mean()
        assert abs(joint - math.exp(-2.0)) <= 0.05

    def test_gaussian_rows(self):
        law = DirectingLaw(GaussianLaw(0.0, 1.0))
        norming = NormingSequence(alpha=2.0)
        rs = sample_array_sums(law, norming, n=64, rows=1, seed=8, replicates=2000)
        value = empirical_cf(rs[:, 0], 1.0)
        assert abs(value - math.exp(-0.5)) <= 0.05

    def test_rows_are_exchangeable(self):
        law = DirectingLaw(CauchyLaw(0.0, 1.0))
        norming = NormingSequence(alpha=1.0)
        rs = sample_array_sums(law, norming, n=32, rows=2, seed=21, replicates=2000)
        a = np.sort(rs[:, 0])
        b = np.sort(rs[:, 1])
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
        draws = draw_replicates(law, 5, 1500)
        distinct = set(draws)
        assert len(distinct) == 2
        assert {p.cscale for p in distinct} == {1.0, 2.0}
        share = np.mean([p == draws[0] for p in draws])
        assert abs(share - 0.5) <= 0.05

    def test_rows_conditionally_independent(self):
        law = DirectingLaw(
            CauchyLaw(0.0, 1.0),
            ScaleAtoms(atoms=((1.0, 0.5), (2.0, 0.5))),
        )
        norming = NormingSequence(alpha=1.0)
        rs = sample_array_sums(law, norming, n=32, rows=2, seed=5, replicates=1500)
        draws = draw_replicates(law, 5, 1500)
        for draw in dict.fromkeys(draws):
            mask = np.array([p == draw for p in draws])
            count = int(mask.sum())
            rho = spearmanr(rs[mask, 0], rs[mask, 1]).statistic
            assert abs(rho) <= 3.0 / math.sqrt(count), (
                f"conditional rank correlation {rho:.4f} too large for draw {draw}"
            )

    def test_mixture_joint_does_not_factorize(self):
        law = DirectingLaw(
            CauchyLaw(0.0, 1.0),
            ScaleAtoms(atoms=((1.0, 0.5), (2.0, 0.5))),
        )
        norming = NormingSequence(alpha=1.0)
        rs = sample_array_sums(law, norming, n=32, rows=2, seed=17, replicates=4000)
        joint = np.real(np.exp(1j * (rs[:, 0] + rs[:, 1])).mean())
        product = np.real(empirical_cf(rs[:, 0], 1.0)) * np.real(
            empirical_cf(rs[:, 1], 1.0)
        )
        # exact gap is (e^-2 + e^-4)/2 - ((e^-1 + e^-2)/2)^2, about 0.0136
        assert joint - product >= 0.003, (
            f"mixture joint value {joint:.4f} should exceed the product {product:.4f}"
        )

    def test_iid_joint_factorizes(self):
        law = DirectingLaw(CauchyLaw(0.0, 1.0))
        norming = NormingSequence(alpha=1.0)
        rs = sample_array_sums(law, norming, n=32, rows=2, seed=17, replicates=4000)
        joint = np.real(np.exp(1j * (rs[:, 0] + rs[:, 1])).mean())
        product = np.real(empirical_cf(rs[:, 0], 1.0)) * np.real(
            empirical_cf(rs[:, 1], 1.0)
        )
        assert abs(joint - product) <= 0.05

    def test_gaussian_variance_mixture_sums(self):
        law = DirectingLaw(GaussianLaw(0.0, 1.0), ScaleExponential(rate=1.0))
        norming = NormingSequence(alpha=2.0)
        rs = sample_array_sums(law, norming, n=256, rows=1, seed=13, replicates=2000)
        values = rs[:, 0]
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
        values = rs[:, 0]
        target = 0.5 * (math.exp(-1.0) + math.exp(-2.0))
        assert abs(empirical_cf(values, 1.0) - target) <= 0.05
        assert len(set(draw_replicates(law, 29, 2000))) == 2

    def test_bit_identical_reproducibility(self):
        law = DirectingLaw(
            CauchyLaw(0.0, 1.0),
            ScaleAtoms(atoms=((1.0, 0.5), (2.0, 0.5))),
        )
        norming = NormingSequence(alpha=1.0)
        first = sample_array_sums(law, norming, n=128, rows=2, seed=42, replicates=50)
        second = sample_array_sums(law, norming, n=128, rows=2, seed=42, replicates=50)
        assert np.array_equal(first, second)
        other_seed = sample_array_sums(law, norming, n=128, rows=2, seed=43, replicates=50)
        assert not np.array_equal(first, other_seed)

    def test_replicate_seeding_is_stable_under_replicate_count(self):
        law = DirectingLaw(CauchyLaw(0.0, 1.0))
        norming = NormingSequence(alpha=1.0)
        small = sample_array_sums(law, norming, n=64, rows=1, seed=9, replicates=10)
        large = sample_array_sums(law, norming, n=64, rows=1, seed=9, replicates=20)
        assert np.array_equal(small, large[:10])

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
        law = DirectingLaw(ParetoLaw(0.01, 1.0, 0.5))
        # The sums overflow on purpose, and NumPy warns as they do.
        with pytest.raises(RuntimeError, match=r"sample_array_sums: 3 of 50 .* at n=64"):
            with pytest.warns(RuntimeWarning):
                sample_array_sums(law, NormingSequence(alpha=0.5), n=64, rows=1, seed=0, replicates=50)


def _count_streams(monkeypatch) -> list:
    """Patch the sampler's stream helper to record the leaf of every stream
    it derives: 0 for a directing draw, 1 for a replicate's rows."""
    derived = []
    streams = directing._replicate_streams

    def counting(seed, leaf, replicates):
        for rng in streams(seed, leaf, replicates):
            derived.append(leaf)
            yield rng

    monkeypatch.setattr(directing, "_replicate_streams", counting)
    return derived


class TestDirectingDraws:
    """Only a law with a prior derives a stream for its directing draw;
    the draws follow the documented seed streams."""

    @pytest.mark.parametrize(
        "prior, generators",
        [(None, 50), (ScaleAtoms(atoms=((1.0, 0.5), (2.0, 0.5))), 100)],
    )
    def test_generators_per_sample(self, monkeypatch, prior, generators):
        derived = _count_streams(monkeypatch)
        law = DirectingLaw(CauchyLaw(0.0, 1.0), prior)
        sample_array_sums(law, NormingSequence(alpha=1.0), n=16, rows=1, seed=3, replicates=50)
        assert len(derived) == generators
        if prior is None:
            assert 0 not in derived

    @pytest.mark.parametrize(
        "prior, generators",
        [(None, 50), (ScaleAtoms(atoms=((1.0, 0.5), (2.0, 0.5))), 100)],
    )
    def test_generators_per_grid(self, monkeypatch, prior, generators):
        # One row stream per replicate serves every row length of the grid.
        derived = _count_streams(monkeypatch)
        law = DirectingLaw(CauchyLaw(0.0, 1.0), prior)
        sample_grid_sums(law, NormingSequence(alpha=1.0), (4, 16, 64), rows=1, seed=3, replicates=50)
        assert len(derived) == generators
        if prior is None:
            assert 0 not in derived

    def test_draws_follow_the_seed_streams(self):
        law = DirectingLaw(CauchyLaw(0.0, 1.0), ScaleLogNormal(0.0, 0.5))

        def drawn_from(seq):
            return law.base.with_dispersion(law.randomizer.draw(np.random.default_rng(seq)))

        expected = [drawn_from(replicate_seed(5, k, 0)) for k in range(20)]
        assert draw_replicates(law, 5, 20) == expected


def _compensated_row_sums(p, rng, rows, n):
    """Row sums of a rows-by-n conditionally i.i.d. block.

    Entries are generated in column blocks; block subtotals use pairwise
    summation and are folded into a per-row compensated accumulator, so heavy
    tails at large n do not erode the sum.
    """
    total = np.zeros(rows)
    comp = np.zeros(rows)
    remaining = n
    while remaining > 0:
        m = min(_BLOCK, remaining)
        block = p.sample(rng, rows * m).reshape(rows, m)
        subtotal = block.sum(axis=1)
        y = subtotal - comp
        t = total + y
        comp = (t - total) - y
        total = t
        remaining -= m
    return total


def _per_length_reference(law, norming, n_grid, rows, seed, replicates):
    """Row sums sampled one (replicate, row length) at a time, each from a
    fresh generator on the replicate's row stream: the sampler's loop before
    it served a whole grid from one generator per replicate."""
    realized = draw_replicates(law, seed, replicates)
    values = np.empty((len(n_grid), replicates, rows))
    for j, n in enumerate(n_grid):
        for k, p in enumerate(realized):
            b_n, c_n = norming_values(norming, n, realization=p)
            row_rng = np.random.default_rng(replicate_seed(seed, k, 1))
            values[j, k, :] = _compensated_row_sums(p, row_rng, rows, n) / b_n - c_n
    return values


_MEAN_CENTERED = dict(centering_kind="n_times_mean")
# (id, base, norming, prior or None): every base family, the stable family at
# alpha = 1 with beta != 0 and at alpha = 1.5.
_GRID_FAMILIES = [
    ("gaussian", GaussianLaw(0.5, 1.0), NormingSequence(2.0, **_MEAN_CENTERED), ScaleLogNormal(0.0, 0.5)),
    ("cauchy", CauchyLaw(0.0, 1.0), NormingSequence(1.0), ScaleLogNormal(0.0, 0.5)),
    ("uniform", UniformLaw(-1.0, 2.0), NormingSequence(2.0, **_MEAN_CENTERED), None),
    ("pareto-symmetric", ParetoLaw(1.5, 1.0, 0.5), NormingSequence(1.5), ScaleLogNormal(0.0, 0.5)),
    ("pareto-onesided", ParetoLaw(0.8, 1.0, 1.0), NormingSequence(0.8), ScaleExponential(1.0)),
    ("stable-1-skewed", StableLaw(StableParams(1.0, 0.2, 1.0, 0.5)), NormingSequence(1.0), ScaleLogNormal(0.0, 0.5)),
    ("stable-1.5", StableLaw(StableParams(1.5, 0.3, 2.0, 0.5)), NormingSequence(1.5), ScaleLogNormal(0.0, 0.5)),
    ("point", PointMassLaw(0.75), NormingSequence(1.0, **_MEAN_CENTERED), LocationGaussian(0.0, 1.0)),
]
_GRID_LAWS = [
    pytest.param(DirectingLaw(base, None), norming, id=f"{name}-fixed")
    for name, base, norming, _ in _GRID_FAMILIES
] + [
    pytest.param(DirectingLaw(base, prior), norming, id=f"{name}-prior")
    for name, base, norming, prior in _GRID_FAMILIES
    if prior is not None
]


class TestAtomPriorDraw:
    """A finite prior's draw is ``rng.choice(values, p=weights)`` bit for
    bit, and leaves the generator where ``choice`` leaves it."""

    @pytest.mark.parametrize(
        "prior",
        [
            ScaleAtoms(atoms=((1.0, 0.5), (2.0, 0.5))),
            ScaleAtoms(atoms=((0.5, 0.2), (1.5, 0.3), (4.0, 0.5))),
            LocationAtoms(atoms=((-1.0, 0.1), (0.0, 0.2), (1.0, 0.3), (2.5, 0.4))),
        ],
    )
    def test_equal_to_generator_choice(self, prior):
        values, weights = [v for v, _ in prior.atoms], [w for _, w in prior.atoms]
        drawn = set()
        for seed in range(2000):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                got, want = prior.draw(ours), float(theirs.choice(values, p=weights))
                assert got.hex() == want.hex(), f"seed {seed}: {got!r} != {want!r}"
                drawn.add(got)
            assert ours.bit_generator.state == theirs.bit_generator.state, f"seed {seed}"
        assert drawn == set(values)


class TestGridSums:
    """The grid sampler against the per-length loop it replaced: one directing
    draw and one walk of the row stream per replicate give the same bits as a
    fresh generator per (replicate, row length)."""

    # 3 and 64 fit in one column block; 16385 crosses it.
    N_GRID = (3, 64, 16385)

    @pytest.mark.parametrize(
        "n_grid",
        # The longest row length first and a repeated one: the sampler serves
        # the grid in any order, each length as if sampled alone. At 2*_BLOCK
        # the last block is full, so every family reads it from the chunk.
        [
            pytest.param(N_GRID, id="ascending"),
            pytest.param((16385, 3, 64, 3), id="unordered"),
            pytest.param((2 * _BLOCK, 40000), id="full-last-block"),
        ],
    )
    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("law, norming", _GRID_LAWS)
    def test_matches_the_per_length_loop(self, law, norming, rows, n_grid):
        grid = sample_grid_sums(law, norming, n_grid, rows, seed=4, replicates=3)
        reference = _per_length_reference(law, norming, n_grid, rows, seed=4, replicates=3)
        assert grid.shape == (len(n_grid), 3, rows)
        assert np.array_equal(grid, reference)

    # _BLOCK is the longest row length of one block, and 2 * _BLOCK is whole blocks only.
    @pytest.mark.parametrize("n", [1, _BLOCK, _BLOCK + 1, 2 * _BLOCK])
    @pytest.mark.parametrize("base", [pytest.param(base, id=name) for name, base, _, _ in _GRID_FAMILIES])
    def test_one_length_row_sums_are_the_compensated_routine(self, base, n):
        # The surviving routine at one row length does the reference's
        # floating-point operations and draws: equal sums, equal end state.
        rng, reference_rng = np.random.default_rng(9), np.random.default_rng(9)
        (sums,) = _row_sums(base, rng, 2, (n,))
        assert np.array_equal(sums, _compensated_row_sums(base, reference_rng, 2, n))
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_array_sums_are_one_length_grids(self):
        law = DirectingLaw(ParetoLaw(1.5, 1.0, 0.5), ScaleLogNormal(0.0, 0.5))
        norming = NormingSequence(alpha=1.5)
        grid = sample_grid_sums(law, norming, (8, 64), rows=2, seed=6, replicates=4)
        single = sample_array_sums(law, norming, n=64, rows=2, seed=6, replicates=4)
        assert np.array_equal(grid[1], single)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_grid": ()}, "n_grid must hold at least one row length"),
            ({"n_grid": (8, 4.5)}, r"n_grid: expected a positive integer, got 4\.5"),
            ({"n_grid": (True,)}, "n_grid: expected a positive integer, got True"),
            ({"n_grid": (8, 0)}, "n_grid: expected a positive integer, got 0"),
            ({"n_grid": (8,), "rows": 2.5}, r"rows: expected a positive integer, got 2\.5"),
            ({"n_grid": (8,), "replicates": 0}, "replicates: expected a positive integer, got 0"),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs, message):
        law = DirectingLaw(CauchyLaw(0.0, 1.0))
        arguments = {"rows": 1, "seed": 1, "replicates": 2, **kwargs}
        with pytest.raises(ValueError, match=message):
            sample_grid_sums(law, NormingSequence(alpha=1.0), **arguments)

    @pytest.mark.parametrize(
        "function, kwargs, message",
        [
            (
                sample_array_sums,
                {"norming": NormingSequence(alpha=1.0), "n": 4.5, "rows": 1, "replicates": 2},
                r"n_grid: expected a positive integer, got 4\.5",
            ),
            (draw_replicates, {"replicates": 2.5}, r"replicates: expected a positive integer, got 2\.5"),
            (draw_replicates, {"replicates": True}, "replicates: expected a positive integer, got True"),
        ],
    )
    def test_public_entry_points_reject_what_the_cli_rejects(self, function, kwargs, message):
        law = DirectingLaw(CauchyLaw(0.0, 1.0))
        with pytest.raises(ValueError, match=message):
            function(law, seed=1, **kwargs)

    def test_nonfinite_sums_name_their_row_length(self):
        law = DirectingLaw(ParetoLaw(0.01, 1.0, 0.5))
        # The sums at n = 64 overflow on purpose, and NumPy warns as they do;
        # those at n = 1 are finite.
        with pytest.raises(RuntimeError, match=r"sample_array_sums: 3 of 50 .* at n=64"):
            with pytest.warns(RuntimeWarning):
                sample_grid_sums(law, NormingSequence(alpha=0.5), (1, 64), rows=1, seed=0, replicates=50)

    # Unsorted, with a repeat; 40000 and 16385 both end in a partial block
    # after full ones, at different column offsets.
    HARD_GRID = (40000, 3, 16385, 3)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("law, norming", _GRID_LAWS)
    def test_matches_the_per_length_loop_on_an_unsorted_grid_with_a_repeat(self, law, norming, rows):
        grid = sample_grid_sums(law, norming, self.HARD_GRID, rows, seed=12, replicates=2)
        reference = _per_length_reference(law, norming, self.HARD_GRID, rows, seed=12, replicates=2)
        assert grid.shape == (4, 2, rows)
        assert np.array_equal(grid, reference)

    @pytest.mark.parametrize("law, norming", _GRID_LAWS)
    def test_variates_drawn(self, monkeypatch, law, norming):
        # Every realization walks its stream once, at the largest row length.
        # Only a stable law off its twins also draws the last block of each
        # shorter row length that ends inside a chunk: 3, 3 and the 1 column
        # of 16385 past its full block. Every other family reads those from
        # the chunk, the symmetric Pareto law included. A point mass is summed
        # once per distinct realization. Draws are counted at the family's
        # _chunk_and_heads: each entry it asks of sample, or its chunk when it
        # draws without sample.
        family = type(law.base)
        requested = []
        sample, chunk_and_heads = family.sample, family._chunk_and_heads

        def counting_sample(self, rng, size):
            requested.append(size)
            return sample(self, rng, size)

        def counting(self, rng, size, heads):
            before = len(requested)
            drawn = chunk_and_heads(self, rng, size, heads)
            if len(requested) == before:
                requested.append(size)
            return drawn

        monkeypatch.setattr(family, "sample", counting_sample)
        monkeypatch.setattr(family, "_chunk_and_heads", counting)
        rows, replicates = 2, 3
        sample_grid_sums(law, norming, self.HARD_GRID, rows, seed=5, replicates=replicates)
        redraws = isinstance(law.base, StableLaw) and not law.base.prefix_stable
        per_row = max(self.HARD_GRID) + (3 + 3 + 1 if redraws else 0)
        summed = len(set(draw_replicates(law, 5, replicates))) if family is PointMassLaw else replicates
        assert sum(requested) == summed * rows * per_row

    @pytest.mark.parametrize(
        "base, prior, generators",
        [
            (PointMassLaw(0.75), None, 0),
            (PointMassLaw(0.75), LocationAtoms(((0.75, 0.5), (-2.0, 0.5))), 40),
            (StableLaw(StableParams(1.5, 0.75, 0.0, 0.0)), None, 0),
        ],
    )
    def test_point_mass_builds_no_row_generator(self, monkeypatch, base, prior, generators):
        # Only the directing draws derive a stream: one per replicate with
        # a prior, none without; the sums keep the per-length loop's bits. A
        # stable law at c = 0 is its point-mass twin.
        law = DirectingLaw(base, prior)
        norming = NormingSequence(1.0, **_MEAN_CENTERED)
        reference = _per_length_reference(law, norming, self.HARD_GRID, 2, seed=3, replicates=40)
        derived = _count_streams(monkeypatch)
        grid = sample_grid_sums(law, norming, self.HARD_GRID, 2, seed=3, replicates=40)
        assert derived == [0] * generators
        assert np.array_equal(grid, reference)

    @pytest.mark.parametrize(
        "law, norming, n, fragment",
        [
            # b_4096 = 4096**100 overflows.
            (ParetoLaw(0.01, 1.0, 0.5), NormingSequence(0.01), 4096, "b_n at n=4096 under norming index 0.01"),
            # Tail index 0.8 has no mean to center by.
            (ParetoLaw(0.8, 1.0, 1.0), NormingSequence(1.0, **_MEAN_CENTERED), 2 * 10**7, "mean undefined"),
        ],
    )
    def test_a_norming_that_fails_does_so_before_any_entry_is_drawn(self, monkeypatch, law, norming, n, fragment):
        calls = []
        monkeypatch.setattr(directing, "_row_sums", lambda p, rng, rows, n_grid: calls.append(n_grid) or [np.zeros(rows)])
        with pytest.raises(ValueError, match=fragment):
            sample_grid_sums(DirectingLaw(law), norming, (n,), rows=1, seed=0, replicates=2)
        assert calls == []

    def test_nonfinite_sums_on_one_stream_name_their_row_length(self):
        law = DirectingLaw(ParetoLaw(0.01, 1.0, 1.0))
        assert law.base.prefix_stable
        # Entries overflow on purpose, and NumPy warns as they do. The sums at
        # n = 1 are finite; some at 16 and more at 64 are not, and the grid
        # names 64, its first row length with one.
        with pytest.raises(RuntimeError, match=r"sample_array_sums: 3 of 50 .* at n=64"):
            with pytest.warns(RuntimeWarning):
                sample_grid_sums(law, NormingSequence(alpha=0.5), (1, 64, 16), rows=1, seed=0, replicates=50)


def _concrete_families(cls):
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            yield sub
        yield from _concrete_families(sub)


# Every concrete family, and the stable family off and on each of its
# closed-form twins: alpha = 2, c = 0, and alpha = 1 with beta = 0.
_PREFIX_LAWS = [
    GaussianLaw(0.5, 2.0),
    CauchyLaw(1.0, 0.5),
    UniformLaw(-1.0, 2.0),
    ParetoLaw(1.5, 1.0, 0.5),
    ParetoLaw(0.8, 2.0, 1.0),
    StableLaw(StableParams(1.5, 0.3, 2.0, 0.5)),
    StableLaw(StableParams(2.0, 0.3, 2.0, 0.0)),
    StableLaw(StableParams(1.5, 0.3, 0.0, 0.5)),
    StableLaw(StableParams(1.0, 0.3, 2.0, 0.0)),
    PointMassLaw(0.75),
]


class TestPrefixStability:
    """``prefix_stable`` says what the sampler does, so a sampler edit cannot
    leave a wrong flag behind for :func:`sample_grid_sums` to trust."""

    @pytest.mark.parametrize("a, b", [(5, 11), (1000, 3001)])
    @pytest.mark.parametrize("law", _PREFIX_LAWS, ids=repr)
    def test_flag_holds_exactly_when_the_sampler_is_prefix_stable(self, law, a, b):
        longer = law.sample(np.random.default_rng(23), a + b)
        shorter = law.sample(np.random.default_rng(23), a)
        assert np.array_equal(longer[:a], shorter) == law.prefix_stable

    def test_every_concrete_family_is_checked(self):
        assert set(_concrete_families(_RealizedLaw)) == {type(law) for law in _PREFIX_LAWS}


class _RawOutputs:
    """A stand-in generator with PCG64's output rules (see
    ``TestStreamFacts``) over a given list of 64-bit outputs: ``random`` is
    (x >> 11) * 2**-53 of one output, and ``integers(0, 2)`` is the top bit
    of the next 32-bit half, which takes the low half of an output and
    buffers the high one. ``bit_generator.state`` saves and restores it."""

    def __init__(self, outputs):
        self.outputs = outputs
        self.bit_generator = self
        self.state = {"position": 0, "has_uint32": 0, "uinteger": 0}

    def _next64(self) -> int:
        position = self.state["position"]
        self.state = {**self.state, "position": position + 1}
        return self.outputs[position]

    def _next32(self) -> int:
        if self.state["has_uint32"]:
            self.state = {**self.state, "has_uint32": 0}
            return self.state["uinteger"]
        x = self._next64()
        self.state = {**self.state, "has_uint32": 1, "uinteger": x >> 32}
        return x & 0xFFFFFFFF

    def random(self, size):
        return np.array([(self._next64() >> 11) * 2.0 ** -53 for _ in range(size)])

    def integers(self, low, high, size):
        assert (low, high) == (0, 2)
        return np.array([self._next32() >> 31 for _ in range(size)], dtype=np.int64)


def _assert_heads_equal_the_redraw(law, ours, oracle, size, heads):
    """``law``'s heads from ``ours`` against the base class's saved-state
    redraw from ``oracle``, a generator in the same state: the same bits and
    the same end state."""
    chunk, got = law._chunk_and_heads(ours, size, heads)
    want_chunk, want = _RealizedLaw._chunk_and_heads(law, oracle, size, heads)
    assert chunk.tobytes() == want_chunk.tobytes()
    assert [h.tobytes() for h in got] == [h.tobytes() for h in want], (size, heads)
    assert ours.bit_generator.state == oracle.bit_generator.state


class TestSymmetricParetoHeads:
    """The symmetric Pareto law reads each head from the draws of its chunk,
    bit for bit what the base class's saved-state redraw gives."""

    LAW = ParetoLaw(1.5, 2.0, 0.5)

    @pytest.mark.parametrize(
        "size, heads",
        [
            pytest.param(8, [3, 5], id="even-size"),
            pytest.param(9, [4, 7, 2], id="odd-size"),
            pytest.param(2, [1], id="one-entry-of-two"),
            pytest.param(7, [1, 6], id="one-entry-head"),
            # 3m > 2 * size: the last signs come from the chunk's own signs.
            pytest.param(10, [7, 9], id="past-the-uniforms"),
            pytest.param(4097, [4096, 2731, 2732, 1], id="long"),
        ],
    )
    @pytest.mark.parametrize("buffered", [False, True], ids=["empty", "buffered-half"])
    def test_equal_to_the_saved_state_redraw(self, size, heads, buffered):
        for seed in range(16):
            ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            if buffered:
                ours.integers(0, 2, 1)
                oracle.integers(0, 2, 1)
                assert ours.bit_generator.state["has_uint32"] == 1
            _assert_heads_equal_the_redraw(self.LAW, ours, oracle, size, heads)

    def test_every_head_length(self):
        for size in (5, 6, 33):
            for buffered in (0, 1):
                ours, oracle = np.random.default_rng(size), np.random.default_rng(size)
                ours.integers(0, 2, buffered)
                oracle.integers(0, 2, buffered)
                _assert_heads_equal_the_redraw(self.LAW, ours, oracle, size, list(range(1, size)))

    def test_a_zero_output_signs_as_zero_bits(self):
        # A uniform of 0.0 becomes 1.0 in the chunk; the halves of its output
        # still have top bits 0. Chunk outputs 0, 2 and 5 are zero: 0 is a
        # magnitude, 2 the signs of the head of 2 and 5 those of the head of
        # 5. A buffered half takes one output before the chunk.
        drawn = [int(x) for x in np.random.default_rng(8).integers(0, 2**64, 13, dtype=np.uint64)]
        for buffered in (0, 1):
            outputs = list(drawn)
            for i in (0, 2, 5):
                outputs[buffered + i] = 0
            ours, oracle = _RawOutputs(outputs), _RawOutputs(outputs)
            ours.integers(0, 2, buffered)
            oracle.integers(0, 2, buffered)
            _assert_heads_equal_the_redraw(self.LAW, ours, oracle, 6, [2, 5])

    def test_a_raw_output_stand_in_is_pcg64(self):
        # The stand-in above follows the generator's own rules.
        outputs = [int(x) for x in np.random.default_rng(4).bit_generator.random_raw(40)]
        ours, real = _RawOutputs(outputs), np.random.default_rng(4)
        assert ours.random(7).tobytes() == real.random(7).tobytes()
        assert ours.integers(0, 2, 13).tobytes() == real.integers(0, 2, 13).tobytes()
        assert ours.random(3).tobytes() == real.random(3).tobytes()
        assert (ours.state["has_uint32"], ours.state["uinteger"]) == (
            real.bit_generator.state["has_uint32"],
            real.bit_generator.state["uinteger"],
        )


class TestStreamFacts:
    """The NumPy behaviour that the symmetric Pareto heads rely on
    (``ParetoLaw._chunk_and_heads``). A failure here means NumPy changed how
    PCG64 turns its 64-bit outputs into ``random`` or ``integers(0, 2)``, and
    the heads no longer equal what ``sample`` draws."""

    def test_random_is_the_top_53_bits_of_one_output(self):
        ours, raw = np.random.default_rng(31), np.random.default_rng(31)
        got = ours.random(1001)
        want = (raw.bit_generator.random_raw(1001) >> np.uint64(11)) * 2.0 ** -53
        assert got.tobytes() == want.tobytes(), "Generator.random is no longer (next64 >> 11) * 2**-53 on PCG64"

    @pytest.mark.parametrize("buffered", [0, 1], ids=["empty", "buffered-half"])
    @pytest.mark.parametrize("k", [1, 2, 999, 1000])
    def test_a_coin_is_the_top_bit_of_one_32_bit_half(self, buffered, k):
        ours, halves = np.random.default_rng(32), np.random.default_rng(32)
        ours.integers(0, 2**32, buffered, dtype=np.uint32)
        halves.integers(0, 2**32, buffered, dtype=np.uint32)
        got = ours.integers(0, 2, k)
        want = halves.integers(0, 2**32, k, dtype=np.uint32) >> np.uint32(31)
        message = "Generator.integers(0, 2) is no longer the top bit of one buffered next_uint32 on PCG64"
        assert np.array_equal(got, want), message
        assert ours.bit_generator.state == halves.bit_generator.state, message

    def test_32_bit_halves_come_low_first(self):
        ours, raw = np.random.default_rng(33), np.random.default_rng(33)
        got = ours.integers(0, 2**32, 10, dtype=np.uint32).astype(np.uint64)
        x = raw.bit_generator.random_raw(5)
        want = np.stack((x & np.uint64(0xFFFFFFFF), x >> np.uint64(32)), axis=1).ravel()
        assert np.array_equal(got, want), "PCG64's next_uint32 no longer hands out the low half of an output first"


def _scale(law) -> float:
    """A length of the law: its scale parameter, the width of a uniform law,
    and 1 for a point mass."""
    if isinstance(law, StableLaw):
        return law.params.c ** (1.0 / law.params.alpha) or 1.0
    for name in ("sd", "cscale", "pscale"):
        if hasattr(law, name):
            return getattr(law, name)
    return law.hi - law.lo if isinstance(law, UniformLaw) else 1.0


def _symmetric_member(law):
    """The member of law's family that is symmetric about 0."""
    if isinstance(law, UniformLaw):
        return UniformLaw(-law.hi, law.hi)
    if isinstance(law, ParetoLaw):
        return ParetoLaw(law.tail_index, law.pscale, 0.5)
    if isinstance(law, StableLaw):
        return StableLaw(StableParams(law.params.alpha, 0.0, law.params.c, 0.0))
    return law.with_location(0.0)


# One-sided Pareto laws, whose closed-form smoothed mean slows as b**2 for
# b < 0, so a negative b must reach it as -b.
_FAR_B_PARETO = [ParetoLaw(a, s, 1.0) for a in (0.5, 1.5, 2.5) for s in (0.5, 3.0)]


class TestFunctionalDomain:
    """``_RealizedLaw`` owns each functional's domain, so every family, and the
    stable family off and on each twin, answers alike off b > 0 and bound > 0."""

    @pytest.mark.parametrize("law", _PREFIX_LAWS + _FAR_B_PARETO, ids=repr)
    def test_smoothed_mean_is_odd_in_b(self, law):
        start = time.perf_counter()
        for b in (0.5, 7.0, 1e6 * _scale(law)):
            assert law.smoothed_mean(-b) == -law.smoothed_mean(b), b
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("law", _PREFIX_LAWS, ids=repr)
    def test_smoothed_mean_at_zero_is_zero(self, law):
        value = law.smoothed_mean(0.0)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("law", _PREFIX_LAWS, ids=repr)
    def test_truncated_moments_vanish_at_bounds_up_to_zero(self, law):
        for bound in (-1.0, 0.0):
            assert law.truncated_mean(bound) == 0.0
            assert law.truncated_second(bound) == 0.0

    @pytest.mark.parametrize("name", ["truncated_mean", "truncated_second", "smoothed_mean"])
    @pytest.mark.parametrize("law", _PREFIX_LAWS, ids=repr)
    def test_nan_argument_is_a_value_error(self, law, name):
        with pytest.raises(ValueError, match=name):
            getattr(law, name)(math.nan)

    @pytest.mark.parametrize("law", _PREFIX_LAWS, ids=repr)
    def test_symmetric_member_has_zero_means(self, law):
        member = _symmetric_member(law)
        assert member.symmetric
        for x in (0.5, 3.0, 40.0):
            assert member.truncated_mean(x) == 0.0
            assert member.smoothed_mean(x) == 0.0
            assert member.smoothed_mean(-x) == 0.0

    @pytest.mark.parametrize("law", _PREFIX_LAWS, ids=repr)
    def test_formulas_match_the_quadrature_defaults(self, law):
        # The defaults on _RealizedLaw are quadrature; each family's own
        # formula must agree with them on both signs of b.
        for b in (-100.0, -0.5, 0.5, 100.0):
            mine, slow = law.smoothed_mean(b), _RealizedLaw._smoothed_mean(law, b)
            assert mine == pytest.approx(slow, rel=1e-8, abs=1e-10), b
        for bound in (0.5, 3.0, 40.0):
            mine, slow = law.truncated_second(bound), _RealizedLaw._truncated_second(law, bound)
            assert mine == pytest.approx(slow, rel=1e-8, abs=1e-10), bound
            if not law.symmetric:
                mine, slow = law.truncated_mean(bound), _RealizedLaw._truncated_mean(law, bound)
                assert mine == pytest.approx(slow, rel=1e-8, abs=1e-10), bound
