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
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import levy_stable

from stablemix import directing
from stablemix.characteristics import DEFAULT_SPECTRAL_GRID, spectral_measure_lambda
from stablemix.criteria import DrawPanel
from stablemix.directing import StableLaw, _RealizedLaw
from stablemix.stable import (
    NormingSequence,
    StableParams,
    _core_moments,
    _fourier_masses,
    _fourier_smoothed,
    _SPLIT,
    _table,
    _tail,
    stable_cf,
)
from test_characteristics import _benchmark_specs

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


@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("bound", [1e-100, 1e-200, 1e-300, 5e-324])
def test_tiny_bound_moments_raise_no_warning(beta, bound):
    # The closed-form kernels once ran on every node, and u**3 underflowed
    # to 0 there: "invalid value encountered in divide".
    law = StableLaw(StableParams(1.5, 0.0, 1.0, beta))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [law.truncated_second(bound), law.truncated_mean(bound)]
    assert all(math.isfinite(v) for v in values), values
    assert values[0] >= 0.0


# The kernel sums before the node moments: both branches of each kernel on
# every node, one np.polyval per series.

_REF_KERNEL_SERIES = tuple(
    np.array([(-1.0) ** m / f(m) for m in range(11)][::-1])
    for f in (
        lambda m: math.factorial(2 * m + 1),
        lambda m: math.factorial(2 * m + 1) * (2 * m + 3),
        lambda m: math.factorial(2 * m) * (2 * m + 3),
    )
)


def _ref_kernels(t, h):
    u = t * h
    small = u <= 1.0
    us = np.where(small, u, 1.0)
    u2 = us * us
    s, c = np.sin(u), np.cos(u)
    k0 = np.where(small, np.polyval(_REF_KERNEL_SERIES[0], u2), s / u)
    k1 = np.where(small, us * np.polyval(_REF_KERNEL_SERIES[1], u2), (s - u * c) / (u * u))
    k2 = np.where(small, np.polyval(_REF_KERNEL_SERIES[2], u2), (u * u * s + 2.0 * u * c - 2.0 * s) / u ** 3)
    return 2.0 * h * k0, 2.0 * h * h * k1, 2.0 * h ** 3 * k2


def _ref_core_moments(tab, lo, hi):
    m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    phase = tab.t * m + tab.psi
    re, im = tab.gw * np.cos(phase), -tab.gw * np.sin(phase)
    k0, k1, k2 = _ref_kernels(tab.t, h)
    return float(np.dot(re, k0)), float(np.dot(im, k1)), float(np.dot(re, k2))


class TestCoreMomentsOracle:
    """The node-moment sums equal the per-node kernels to rounding."""

    HALF_WIDTHS = tuple(np.geomspace(1e-3, 20.0, 41))

    @staticmethod
    def _exact_unit_width(tab):
        # A half-width at which a middle node has t*h == 1.0 exactly, so
        # that it takes the series and the nodes above it the closed forms.
        ts = np.sort(tab.t)
        for t in ts[len(ts) // 2:]:
            h = 1.0 / float(t)
            if float(t) * h == 1.0:
                return h
        raise AssertionError("no node with t * (1/t) == 1.0")

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("beta", BETAS)
    def test_matches_per_node_kernels(self, alpha, beta):
        tab = _table(alpha, beta)
        hs = self.HALF_WIDTHS + (self._exact_unit_width(tab),)
        near_only = mixed = 0
        for h in hs:
            for m in (0.0, 2.75, -7.5, _SPLIT - h, h - _SPLIT, _SPLIT - 0.5 * h):
                lo, hi = max(m - h, -_SPLIT), min(m + h, _SPLIT)
                if float(np.max(tab.t)) * 0.5 * (hi - lo) <= 1.0:
                    near_only += 1
                else:
                    mixed += 1
                got, want = _core_moments(tab, lo, hi), _ref_core_moments(tab, lo, hi)
                for l, (g, w) in enumerate(zip(got, want)):
                    assert abs(g - w) <= 1e-13 * max(1.0, abs(w)), (alpha, beta, m, h, l, g, w)
        assert near_only and mixed

    def test_even_powers_are_repeated_products(self):
        tab = _table(1.5, 0.5)
        assert not tab.even.flags.writeable
        assert tab.even[0].tolist() == [1.0] * len(tab.t)
        t2 = tab.t * tab.t
        for j in range(1, len(tab.even)):
            assert [x.hex() for x in tab.even[j]] == [x.hex() for x in tab.even[j - 1] * t2], j


# The per-point path before one Fourier pass served a whole batch: one
# Gil-Pelaez dot product per core point, np.polyval of the tail series beyond.


def _ref_tail(coeffs, alpha, x):
    y = x ** -alpha
    return max(0.0, float(np.polyval(np.array(coeffs)[::-1], y)) * y)


def _ref_fourier_mass(params, x, right):
    tab = _table(params.alpha, params.beta)
    z = (x - params.gamma) / params.c ** (1.0 / params.alpha)
    if abs(z) > 20.0:
        far = _ref_tail(tab.right, tab.alpha, z) if z > 0 else _ref_tail(tab.left, tab.alpha, -z)
        return far if right == (z > 0) else 1.0 - far
    centre = float(np.dot(tab.gp, np.sin(tab.t * z + tab.psi)))
    return min(1.0, max(0.0, 0.5 - centre if right else 0.5 + centre))


EDGE_PARAMS = [
    StableParams(alpha, gamma, c, beta)
    for alpha in (1.1, 1.5, 1.99)
    for beta in (-1.0, -0.3, 0.0, 0.7, 1.0)
    for gamma in (0.0, 5.0, -40.0)
    for c in (1e-3, 1.0, 1e3)
]
EDGE_Z = (0.0, 1e-9, 0.4, 3.0, 19.999, 20.0, 20.001, 75.0, 1e4, 1e12, math.inf)


class TestFourierMassOracle:
    """One Fourier pass per batch equals the per-point path bit for bit."""

    @staticmethod
    def _assert_batch_is_reference(params, xs, rights, what):
        got = _fourier_masses(params, xs, rights)
        want = [_ref_fourier_mass(params, x, right) for x, right in zip(xs, rights)]
        for x, right, g, w in zip(xs, rights, got, want):
            assert g.hex() == w.hex(), f"{what}: x={x!r}, right={right}: {g!r} != {w!r}"

    def test_bitwise_equal_on_benchmark_panels(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = _benchmark_specs(tmp_path)[-1]
        assert spec.name == "stable-lognormal"
        points = 0
        for seed in (3, 5):
            panel = DrawPanel(spec.law, spec.norming, spec.checker_ngrid, seed)
            for n in spec.checker_ngrid.values:
                b = spec.norming.b(n)
                ys = [b / x for x in DEFAULT_SPECTRAL_GRID]
                for p in panel.unique:
                    got = p.half_line_masses(ys)
                    want = [_ref_fourier_mass(p.params, y, y > 0) for y in ys]
                    assert [g.hex() for g in got] == [w.hex() for w in want], f"{p!r} at n={n}, seed {seed}"
                    points += len(ys)
        assert points == 2 * 2 * 100 * 42

    @pytest.mark.parametrize("params", EDGE_PARAMS, ids=repr)
    def test_bitwise_equal_on_the_edge_grid(self, params):
        scale = params.c ** (1.0 / params.alpha)
        xs = [params.gamma + sign * scale * z for z in EDGE_Z for sign in (1.0, -1.0)]
        xs += [1.0 / x for x in DEFAULT_SPECTRAL_GRID]
        for right in (False, True):
            self._assert_batch_is_reference(params, xs, [right] * len(xs), f"{params}")
        law = StableLaw(params)
        for x in xs[::7]:
            assert law.cdf(x).hex() == _ref_fourier_mass(params, x, False).hex(), (params, x)
            assert law.right_tail(x).hex() == _ref_fourier_mass(params, x, True).hex(), (params, x)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.99])
    @pytest.mark.parametrize("beta", [-1.0, -0.3, 0.0, 0.7, 1.0])
    def test_bitwise_equal_at_the_split_zero_and_infinity(self, alpha, beta):
        # At gamma = 0 and c = 1 the standardized point z is x itself.
        params = StableParams(alpha, 0.0, 1.0, beta)
        xs = [20.0, -20.0, 0.0, -0.0, math.inf, -math.inf]
        for rights in ([False] * 6, [True] * 6, [True, False] * 3):
            self._assert_batch_is_reference(params, xs, rights, f"{params}")
        assert _fourier_masses(params, [math.inf, -math.inf], [True, False]) == [0.0, 0.0]

    def test_horner_tail_is_polyval(self):
        rng = np.random.default_rng(20261019)
        for params in EDGE_PARAMS[::9]:
            tab = _table(params.alpha, params.beta)
            for coeffs in (tab.right, tab.left):
                for x in [20.0, *(20.0 * 10.0 ** rng.uniform(0.0, 12.0, size=300)), math.inf]:
                    got, want = _tail(coeffs, tab.alpha, x), _ref_tail(coeffs, tab.alpha, x)
                    assert got.hex() == want.hex(), f"{params}, x={x!r}: {got!r} != {want!r}"


class TestNanPoints:
    """A NaN point is an error in the Fourier region, as no silent 0."""

    LAW = StableLaw(StableParams(1.5, 0.0, 1.0, 0.0))

    @pytest.mark.parametrize("method", ["cdf", "right_tail", "tail_mass"])
    def test_scalar_functionals_raise(self, method):
        with pytest.raises(ValueError, match="NaN point"):
            getattr(self.LAW, method)(math.nan)

    def test_batch_names_the_first_nan(self):
        with pytest.raises(ValueError, match=r"NaN point \(index 1 of 4\)"):
            self.LAW.half_line_masses([-3.0, math.nan, 2.0, math.nan])
