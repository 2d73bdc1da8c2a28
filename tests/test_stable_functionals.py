"""Stable-law functionals from the closed-form exponent, against their oracles.

Each oracle is trusted only where it is accurate:
  - scipy's ``levy_stable`` cdf/sf for 0.01 <= |z| <= 200, except where it is
    demonstrably wrong (its sf returns exactly 0 far out, and its cdf is
    flat near the mode of skewed laws at alpha = 1.1); there the
    quadrature of scipy's density decides, and must disagree with scipy;
  - that quadrature (``_RealizedLaw.integrate``, reciprocal limbs beyond
    |x| = 8) for tails beyond 200 and for truncated moments away from the
    points where scipy's density is itself off;
  - the convergent power series of the density (alpha > 1) for small bounds;
  - adaptive quadrature of ``stable_cf`` in t for the smoothed mean.
"""

import math

import pytest
from scipy.integrate import quad
from scipy.stats import levy_stable

from stablemix import directing
from stablemix.characteristics import spectral_measure_lambda
from stablemix.directing import StableLaw, _RealizedLaw
from stablemix.stable import NormingSequence, StableParams, _fourier_smoothed, _table, stable_cf

ALPHAS = (1.1, 1.5, 1.9)
BETAS = (-1.0, 0.0, 0.5, 1.0)
SCIPY_Z = (0.01, 0.3, 1.0, 5.0, 19.5, 20.5, 50.0, 200.0)


def _scipy(method: str, params: StableParams, x: float) -> float:
    law = StableLaw(params)
    alpha, beta, loc, scale = law._scipy_args()
    return float(getattr(levy_stable, method)(x, alpha, beta, loc=loc, scale=scale))


def _quad_tail(law: StableLaw, x: float, right: bool) -> float:
    if right:
        return _RealizedLaw.integrate(law, lambda y: 1.0, x, math.inf)
    return _RealizedLaw.integrate(law, lambda y: 1.0, -math.inf, x)


def _series_moment(params: StableParams, bound: float, order: int, terms: int = 60) -> float:
    """int_{|x| <= bound} x**order dP from the convergent series of the
    standardized density, p(z) = Re sum_n (-iz)**n/n! Gamma((n+1)/alpha)
    kappa**(-(n+1)/alpha) / (pi*alpha), kappa = 1 + i*beta*tan(pi*alpha/2)."""
    alpha, gamma, beta = params.alpha, params.gamma, params.beta
    scale = params.c ** (1.0 / alpha)
    kappa = complex(1.0, beta * math.tan(math.pi * alpha / 2.0))
    lo, hi = (-bound - gamma) / scale, (bound - gamma) / scale
    total = 0.0
    for n in range(terms):
        size = math.exp(math.lgamma((n + 1) / alpha) - math.lgamma(n + 1)) / (math.pi * alpha)
        coef = (-1j) ** n * size * kappa ** (-(n + 1) / alpha)
        for l in range(order + 1):
            weight = math.comb(order, l) * gamma ** (order - l) * scale ** l
            power = n + l + 1
            total += weight * (coef * (hi ** power - lo ** power) / power).real
    return total


def _smoothed_oracle(params: StableParams, b: float) -> float:
    """b * int_0^inf exp(-b*t) Im phi(t) dt by adaptive quadrature."""

    def f(t: float) -> float:
        return math.exp(-b * t) * stable_cf(t, params).imag

    edge = min(1.0, 1.0 / b)
    head = quad(f, 0.0, edge, epsabs=1e-15, epsrel=1e-13, limit=500)[0]
    rest = quad(f, edge, 80.0, epsabs=1e-15, epsrel=1e-13, limit=2000)[0]
    return b * (head + rest)


class TestTailRegressions:
    """Values scipy's levy_stable gets wrong at alpha = 1.5, beta = 0."""

    LAW = StableLaw(StableParams(1.5, 0.0, 1.0, 0.0))

    @pytest.mark.parametrize("z", [1e3, 1e4, 1e6])
    def test_power_tail_constant(self, z):
        alpha = 1.5
        lead = math.gamma(alpha) * math.sin(math.pi * alpha / 2.0) / math.pi
        # Bergstrom's second term, -Gamma(2a) sin(pi a) / (2 pi) z**-a, is
        # 5e-5 of the first at z = 1e3, so the leading constant alone only
        # holds to 1e-6 from z = 1e6 on.
        second = -math.gamma(2.0 * alpha) * math.sin(math.pi * alpha) / (2.0 * math.pi)
        scaled = self.LAW.right_tail(z) * z ** alpha
        assert scaled == pytest.approx(lead + second * z ** -alpha, rel=1e-6)
        if z >= 1e6:
            assert scaled == pytest.approx(lead, rel=1e-6)
        assert self.LAW.cdf(-z) == self.LAW.right_tail(z)

    def test_tail_does_not_vanish_where_scipy_does(self):
        for z in (346.0, 489.0):
            assert _scipy("sf", self.LAW.params, z) == 0.0
        assert self.LAW.right_tail(346.0) == pytest.approx(_quad_tail(self.LAW, 346.0, True), rel=1e-7)
        # the true values, to the two digits quoted for them
        assert self.LAW.right_tail(346.0) == pytest.approx(3.1e-5, abs=0.05e-5)
        assert self.LAW.right_tail(489.0) == pytest.approx(1.8e-5, abs=0.05e-5)

    def test_cdf_moves_near_zero(self):
        density_at_zero = math.gamma(1.0 + 1.0 / 1.5) / math.pi
        for z in (1e-3, 1e-6):
            assert _scipy("cdf", self.LAW.params, z) == 0.5
            assert self.LAW.cdf(z) - 0.5 == pytest.approx(density_at_zero * z, rel=1e-5)

    def test_spectral_measure_keeps_every_cell(self):
        measure = spectral_measure_lambda(self.LAW, NormingSequence(1.5), 1000)
        assert len(measure.atoms) == 40


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("beta", BETAS)
def test_cdf_and_tail_match_scipy(alpha, beta):
    params = StableParams(alpha, 0.0, 1.0, beta)
    law = StableLaw(params)
    for z in SCIPY_Z + tuple(-z for z in SCIPY_Z):
        mine = {"cdf": law.cdf(z), "sf": law.right_tail(z)}
        off = {m: _scipy(m, params, z) for m in mine}
        off = {m: ref for m, ref in off.items() if abs(mine[m] - ref) > 1e-8}
        if not off:
            continue
        # scipy is off here: the quadrature of its density decides.
        far = _quad_tail(law, z, right=z > 0)
        arbiter = {"sf": far, "cdf": 1.0 - far} if z > 0 else {"cdf": far, "sf": 1.0 - far}
        for m, ref in off.items():
            assert mine[m] == pytest.approx(arbiter[m], abs=1e-9), (alpha, beta, z, m)
            assert abs(ref - arbiter[m]) > 1e-8, (alpha, beta, z, m)


def test_far_tails_match_quadrature():
    # scipy's density is good to a few 1e-8 relative out here (at alpha = 1.5,
    # z = 1e4 the quadrature is off the two-term tail expansion by 4e-8).
    # Far tails at alpha = 1.5 and 1.1 are checked above.
    law = StableLaw(StableParams(1.9, 0.0, 1.0, -1.0))
    assert law.right_tail(500.0) == pytest.approx(_quad_tail(law, 500.0, True), rel=1e-7, abs=1e-15)
    assert law.cdf(-500.0) == pytest.approx(_quad_tail(law, -500.0, False), rel=1e-7, abs=1e-15)


def test_totally_skewed_light_tail_is_zero_beyond_the_split():
    # beta = 1 in the canonical form has a right tail lighter than any power.
    law = StableLaw(StableParams(1.5, 0.0, 1.0, 1.0))
    assert law.right_tail(25.0) == 0.0
    assert law.cdf(-25.0) > 0.0


@pytest.mark.parametrize(
    "params, bound",
    [
        # the bound reaches into both tail series, one, or neither
        (StableParams(1.5, 0.0, 1.0, 0.0), 60.0),
        (StableParams(1.1, 0.3, 2.0, 1.0), 60.0),
        (StableParams(1.9, -0.5, 0.7, 0.5), 7.0),
    ],
)
def test_truncated_moments_match_quadrature(params, bound):
    law = StableLaw(params)
    checks = [(law.truncated_second(bound), _RealizedLaw._truncated_second(law, bound))]
    if not law.symmetric:
        checks.append((law.truncated_mean(bound), _RealizedLaw._truncated_mean(law, bound)))
    for mine, slow in checks:
        assert abs(mine - slow) <= max(1e-10, 1e-8 * abs(slow)), (params, bound, mine, slow)


@pytest.mark.parametrize(
    "params",
    [
        StableParams(1.5, 0.0, 1.0, 0.0),
        StableParams(1.1, 0.0, 1.0, -0.5),
        StableParams(1.5, 0.1, 1.0, 0.7),
        StableParams(1.9, 0.0, 2.0, -1.0),
    ],
)
@pytest.mark.parametrize("bound", [0.02, 0.3])
def test_small_bound_moments_match_series(params, bound):
    law = StableLaw(params)
    second = _series_moment(params, bound, 2)
    assert law.truncated_second(bound) == pytest.approx(second, rel=1e-12)
    if not law.symmetric:
        assert law.truncated_mean(bound) == pytest.approx(_series_moment(params, bound, 1), rel=1e-12)


@pytest.mark.parametrize(
    "params",
    [
        StableParams(1.1, 0.3, 2.0, 1.0),
        StableParams(1.9, -0.5, 0.7, 0.5),
        StableParams(1.5, 2.0, 0.3, -1.0),
    ],
)
def test_smoothed_mean_matches_transform(params):
    law = StableLaw(params)
    for b in (0.01, 0.5, 3.0, 30.0, 300.0):
        mine, oracle = law.smoothed_mean(b), _smoothed_oracle(params, b)
        assert abs(mine - oracle) <= max(1e-10, 1e-8 * abs(oracle)), (params, b, mine, oracle)


def test_smoothed_mean_leaves_far_locations_to_quadrature():
    # 1e4 scale units from 0 the transform oscillates past the panel budget.
    assert _fourier_smoothed(StableParams(1.5, 1e4, 1.0, 0.0), 30.0) is None
    assert _fourier_smoothed(StableParams(1.5, 100.0, 1.0, 0.0), 30.0) is not None


def test_table_follows_eval_g():
    params = StableParams(1.5, 0.0, 1.0, 0.5)
    tab = _table(params.alpha, params.beta)
    for i in (0, 200, len(tab.t) - 1):
        t = float(tab.t[i])
        phi = complex(math.cos(tab.psi[i]), -math.sin(tab.psi[i])) * math.exp(-(t ** 1.5))
        assert phi == pytest.approx(stable_cf(t, params), rel=1e-12, abs=1e-300)


def test_region_never_calls_scipy(monkeypatch):
    class Forbidden:
        def __getattr__(self, name):
            raise AssertionError(f"levy_stable.{name} called")

    def no_quad(*args, **kwargs):
        raise AssertionError("quad called")

    monkeypatch.setattr(directing, "levy_stable", Forbidden())
    monkeypatch.setattr(directing, "quad", no_quad)
    for law in (StableLaw(StableParams(1.5, 0.0, 0.4, 0.0)), StableLaw(StableParams(1.1, 0.3, 2.0, -0.5))):
        for x in (-300.0, -3.0, 0.0, 0.5, 40.0):
            law.cdf(x), law.right_tail(x), law.tail_mass(abs(x))
        for bound in (0.01, 2.0, 500.0):
            law.truncated_mean(bound), law.truncated_second(bound)
        law.smoothed_mean(25.0)


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.05])
def test_outside_region_is_scipy(alpha):
    params = StableParams(alpha, 0.2, 1.3, 0.4)
    law = StableLaw(params)
    for x in (-30.0, -1.0, 0.2, 2.5, 30.0):
        assert law.cdf(x) == _scipy("cdf", params, x)
        assert law.right_tail(x) == _scipy("sf", params, x)
