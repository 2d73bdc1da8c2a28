"""Random directing measures, exchangeable arrays, and normed row sums.

A directing law is a base distribution family plus an optional prior on one
of its parameters; the prior's ``slot`` names that parameter, "dispersion"
or "location", and the family takes the drawn value through ``with_<slot>``
(a family without that method rejects the prior). Drawing the prior yields
one realized probability measure; given that realization all array entries
are i.i.d. Every realized family exposes the same analytic surface: cdf,
one-sided and two-sided tails, truncated first and second moments, the
smoothed mean integral ``int b*x/(b**2 + x**2) dp``, and generic integration
against the density. :class:`_RealizedLaw` sets the domain of the moments
and the smoothed mean, and each family writes their formulas for a positive
argument: in closed form wherever it can; for the stable family with
1.1 <= alpha < 2 and the Gaussian smoothed mean from the characteristic
function (see :class:`StableLaw`); otherwise by quadrature certified to 1e-10.

The closed forms need only ``math`` and NumPy: the normal cdf comes from
``math.erf``/``math.erfc`` (``_ndtr``) and the one-sided Pareto smoothed mean
from a positive series (``_scaled_power_integral``). Importing the module
loads no SciPy module; the generic quadrature and the stable law off its
closed-form region import theirs on first call, through ``quad`` or
``levy_stable`` below. Those two are module attributes that every call goes
through, so a caller (a tracer, a test) can replace them and see each call.
"""

from __future__ import annotations

import functools
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .measures import _check_weights
from .stable import (
    NormingSequence,
    StableParams,
    _fourier_masses,
    _fourier_region,
    _fourier_smoothed,
    _fourier_truncated,
    _replicate_streams,
    _require_finite,
    _require_positive,
    norming_values,
    sample_stable_with,
)

__all__ = [
    "GaussianLaw",
    "CauchyLaw",
    "UniformLaw",
    "ParetoLaw",
    "StableLaw",
    "PointMassLaw",
    "ScaleAtoms",
    "ScaleExponential",
    "ScaleLogNormal",
    "LocationAtoms",
    "LocationGaussian",
    "DirectingLaw",
    "draw_replicates",
    "sample_array_sums",
    "sample_grid_sums",
]

_QUAD_TOL = 1e-10
_FAR_PIVOT = 8.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on first call."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


class _LevyStable:
    """``scipy.stats.levy_stable``'s pdf, cdf and sf, imported on first call."""

    @staticmethod
    def _scipy():
        from scipy.stats import levy_stable as scipy_levy_stable

        return scipy_levy_stable

    def pdf(self, *args, **kwargs):
        return self._scipy().pdf(*args, **kwargs)

    def cdf(self, *args, **kwargs):
        return self._scipy().cdf(*args, **kwargs)

    def sf(self, *args, **kwargs):
        return self._scipy().sf(*args, **kwargs)


levy_stable = _LevyStable()


def _ndtr(z: float) -> float:
    """The standard normal cdf at z, with the branches of cephes ``ndtr``:
    erf near the centre, erfc of |x| in the tails, so the left tail keeps
    its relative accuracy."""
    x = z * _SQRT_HALF
    if abs(x) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    tail = 0.5 * math.erfc(abs(x))
    return 1.0 - tail if x > 0 else tail


def _scaled_power_integral(p: float, x: float) -> float:
    """x**-(p+1) * int_0^x v**p / (1 + v**2) dv for p > -1 and 0 < x <= 1.

    It is 2F1(1, b; b+1; -y) / (p+1) with b = (p+1)/2 and y = x**2. The Pfaff
    transformation turns that into 2F1(1, 1; b+1; w) / (1+y) with
    w = y/(1+y) <= 1/2, a series of positive terms in which each term is at
    most w times the one before; it stops once a term is below 2**-54 of the
    sum, which also bounds the omitted tail.
    """
    y = x * x
    w = y / (1.0 + y)
    c = (p + 3.0) / 2.0
    term = total = 1.0
    k = 0.0
    while term > total * 2.0 ** -54:
        term *= w * (k + 1.0) / (c + k)
        total += term
        k += 1.0
    return total / ((p + 1.0) * (1.0 + y))


def _certified_quad(f: Callable[[float], float], lo: float, hi: float) -> float:
    value, abserr = quad(f, lo, hi, epsabs=_QUAD_TOL * 0.1, epsrel=1e-12, limit=400)
    # Written so that a NaN value or error estimate fails the test.
    if not (math.isfinite(value) and abserr <= max(_QUAD_TOL, abs(value) * 1e-8)):
        raise RuntimeError(
            f"quadrature over ({lo}, {hi}) failed to certify {_QUAD_TOL:g}: "
            f"value {value:g}, error estimate {abserr:g}"
        )
    return value


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def _cauchy_cdf(z: float) -> float:
    """The standard Cauchy cdf at z; the arctan of the reciprocal keeps deep
    left tails fully accurate."""
    if z < -1.0:
        return math.atan(-1.0 / z) / math.pi
    if z > 1.0:
        return 1.0 - math.atan(1.0 / z) / math.pi
    return 0.5 + math.atan(z) / math.pi


class _RealizedLaw:
    """The functionals of a realized directing measure.

    Subclasses provide ``pdf`` and ``pieces`` (the support as disjoint
    intervals) and write ``_truncated_mean``, ``_truncated_second`` and
    ``_smoothed_mean`` for a positive bound or b where they have formulas;
    the defaults are quadrature. The public names apply the domain first;
    a NaN bound or b is a ValueError that names the functional.

    ``prefix_stable`` is True when ``sample`` fills its output one entry at a
    time, so that ``sample(rng, a + b)[:a]`` is bit-identical to
    ``sample(rng, a)`` from the same generator state: a shorter row length
    then reads its last block from the chunk's head (``_chunk_and_heads``).
    """

    symmetric = False
    prefix_stable = False

    def pdf(self, x: float) -> float:
        raise NotImplementedError

    def pieces(self) -> Tuple[Tuple[float, float], ...]:
        return ((-math.inf, math.inf),)

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def right_tail(self, x: float) -> float:
        """Mass of the open half line (x, +inf)."""
        return 1.0 - self.cdf(x)

    def tail_mass(self, x: float) -> float:
        """Two-sided tail mass of (-inf, -x] union (x, +inf)."""
        return self.cdf(-x) + self.right_tail(x)

    def half_line_masses(self, ys: Sequence[float]) -> List[float]:
        """P(X <= y) at each negative y and P(X > y) at each other y of ``ys``."""
        return [self.cdf(y) if y < 0 else self.right_tail(y) for y in ys]

    def integrate(self, f: Callable[[float], float], lo: float, hi: float) -> float:
        """Integral of f against the measure over (lo, hi].

        Endpoints carry no mass for the continuous families; the point-mass
        family overrides this with the exact half-open convention. Limbs
        beyond |x| = 8 are integrated in reciprocal coordinates: direct
        quadrature over a wide or infinite far range can return a confidently
        wrong near-zero value because the integrand looks flat at every
        sampled node, while under u = 1/x a power tail becomes a bounded
        integrand on a short interval.
        """

        def weighted(x: float) -> float:
            return f(x) * self.pdf(x)

        def reciprocal(u: float) -> float:
            x = 1.0 / u
            return weighted(x) * x * x

        total = 0.0
        for a, b in self.pieces():
            left, right = max(lo, a), min(hi, b)
            if not left < right:
                continue
            core_lo, core_hi = max(left, -_FAR_PIVOT), min(right, _FAR_PIVOT)
            if core_lo < core_hi:
                total += _certified_quad(weighted, core_lo, core_hi)
            if right > _FAR_PIVOT:
                u_lo = 0.0 if right == math.inf else 1.0 / right
                total += _certified_quad(reciprocal, u_lo, 1.0 / max(left, _FAR_PIVOT))
            if left < -_FAR_PIVOT:
                u_hi = 0.0 if left == -math.inf else 1.0 / left
                total += _certified_quad(reciprocal, 1.0 / min(right, -_FAR_PIVOT), u_hi)
        return total

    def expect(self, f: Callable[[float], float]) -> float:
        return self.integrate(f, -math.inf, math.inf)

    def truncated_mean(self, bound: float) -> float:
        """Integral of x over |x| <= bound: 0 for a bound <= 0 or a symmetric law."""
        if math.isnan(bound):
            raise ValueError("truncated_mean of a NaN bound")
        if bound <= 0 or self.symmetric:
            return 0.0
        return self._truncated_mean(bound)

    def truncated_second(self, bound: float) -> float:
        """Integral of x**2 over |x| <= bound: 0 for a bound <= 0."""
        if math.isnan(bound):
            raise ValueError("truncated_second of a NaN bound")
        return 0.0 if bound <= 0 else self._truncated_second(bound)

    def smoothed_mean(self, b: float) -> float:
        """Integral of b*x/(b**2 + x**2) against the measure: odd in b, and 0
        at b = 0 or for a symmetric law."""
        if math.isnan(b):
            raise ValueError("smoothed_mean at a NaN b")
        if b == 0 or self.symmetric:
            return 0.0
        return self._smoothed_mean(b) if b > 0 else -self._smoothed_mean(-b)

    def _truncated_mean(self, bound: float) -> float:
        return self.integrate(lambda x: x, -bound, bound)

    def _truncated_second(self, bound: float) -> float:
        return self.integrate(lambda x: x * x, -bound, bound)

    def _smoothed_mean(self, b: float) -> float:
        return self.expect(lambda x: b * x / (b * b + x * x))

    def mean(self) -> float:
        raise ValueError(f"{type(self).__name__} has no defined mean")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def _chunk_and_heads(
        self, rng: np.random.Generator, size: int, heads: Sequence[int]
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """``sample(rng, size)``, and for each m of ``heads`` (0 < m < size)
        the m entries that ``sample(rng, m)`` draws from the same start
        state; ``rng`` ends where ``sample(rng, size)`` leaves it. A
        prefix-stable family's heads are the chunk's first entries; any other
        draws each head from the state saved at the start, which is then
        restored for the chunk."""
        if self.prefix_stable or not heads:
            chunk = self.sample(rng, size)
            return chunk, [chunk[:m] for m in heads]
        start = rng.bit_generator.state
        drawn = []
        for m in heads:
            drawn.append(self.sample(rng, m))
            rng.bit_generator.state = start
        return self.sample(rng, size), drawn


@dataclass(frozen=True)
class GaussianLaw(_RealizedLaw):
    """Normal law with the given mean and standard deviation. The smoothed mean
    is the stable one at alpha = 2 (quadrature about 650 sd off 0), and
    quadrature runs over mean +- 40 sd, beyond which the density is 0.0."""

    prefix_stable = True

    mean_value: float
    sd: float

    def __post_init__(self) -> None:
        _require_positive("sd", self.sd)
        _require_finite("sd", self.sd)
        _require_finite("mean", self.mean_value)

    @property
    def symmetric(self) -> bool:
        return self.mean_value == 0.0

    def pieces(self) -> Tuple[Tuple[float, float], ...]:
        return ((self.mean_value - 40.0 * self.sd, self.mean_value + 40.0 * self.sd),)

    def pdf(self, x: float) -> float:
        return _phi((x - self.mean_value) / self.sd) / self.sd

    def cdf(self, x: float) -> float:
        return _ndtr((x - self.mean_value) / self.sd)

    def right_tail(self, x: float) -> float:
        return _ndtr(-(x - self.mean_value) / self.sd)

    def _truncated_mean(self, bound: float) -> float:
        a = (-bound - self.mean_value) / self.sd
        b = (bound - self.mean_value) / self.sd
        dphi = _ndtr(b) - _ndtr(a)
        return self.mean_value * dphi + self.sd * (_phi(a) - _phi(b))

    def _truncated_second(self, bound: float) -> float:
        mu, sd = self.mean_value, self.sd
        a = (-bound - mu) / sd
        b = (bound - mu) / sd
        dphi = _ndtr(b) - _ndtr(a)
        return (
            mu * mu * dphi
            + 2.0 * mu * sd * (_phi(a) - _phi(b))
            + sd * sd * (dphi + a * _phi(a) - b * _phi(b))
        )

    def _smoothed_mean(self, b: float) -> float:
        value = _fourier_smoothed(StableParams(2.0, self.mean_value, 0.5 * self.sd * self.sd, 0.0), b)
        return super()._smoothed_mean(b) if value is None else value

    def mean(self) -> float:
        return self.mean_value

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.mean_value + self.sd * rng.standard_normal(size)

    def with_dispersion(self, value: float) -> "GaussianLaw":
        # Priors ride on the variance, the family's natural dispersion.
        return GaussianLaw(self.mean_value, math.sqrt(value))

    def with_location(self, value: float) -> "GaussianLaw":
        return GaussianLaw(value, self.sd)


@dataclass(frozen=True)
class CauchyLaw(_RealizedLaw):
    """Cauchy law with the given location and scale."""

    prefix_stable = True

    location: float
    cscale: float

    def __post_init__(self) -> None:
        _require_positive("scale", self.cscale)
        _require_finite("scale", self.cscale)
        _require_finite("location", self.location)

    @property
    def symmetric(self) -> bool:
        return self.location == 0.0

    def pdf(self, x: float) -> float:
        z = (x - self.location) / self.cscale
        return 1.0 / (math.pi * self.cscale * (1.0 + z * z))

    def cdf(self, x: float) -> float:
        return _cauchy_cdf((x - self.location) / self.cscale)

    def right_tail(self, x: float) -> float:
        return _cauchy_cdf(-(x - self.location) / self.cscale)

    def _truncated_mean(self, bound: float) -> float:
        x0, s = self.location, self.cscale
        a, b = -bound - x0, bound - x0
        df = self.cdf(bound) - self.cdf(-bound)
        log_term = math.log((s * s + b * b) / (s * s + a * a))
        return x0 * df + s * log_term / (2.0 * math.pi)

    def _truncated_second(self, bound: float) -> float:
        x0, s = self.location, self.cscale
        a, b = -bound - x0, bound - x0
        quad_part = (s / math.pi) * ((b - s * math.atan(b / s)) - (a - s * math.atan(a / s)))
        if x0 == 0.0:
            return quad_part
        df = self.cdf(bound) - self.cdf(-bound)
        log_term = math.log((s * s + b * b) / (s * s + a * a))
        return quad_part + x0 * s * log_term / math.pi + x0 * x0 * df

    def _smoothed_mean(self, b: float) -> float:
        # b Re E[1/(X - ib)], and E[1/(X - ib)] = 1/(x0 - i(s + b)) for b > 0.
        x0 = self.location
        return b * x0 / (x0 * x0 + (self.cscale + b) ** 2)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.location + self.cscale * rng.standard_cauchy(size)

    def with_dispersion(self, value: float) -> "CauchyLaw":
        return CauchyLaw(self.location, value)

    def with_location(self, value: float) -> "CauchyLaw":
        return CauchyLaw(value, self.cscale)


@dataclass(frozen=True)
class UniformLaw(_RealizedLaw):
    """Uniform law on the interval [lo, hi]."""

    prefix_stable = True

    lo: float
    hi: float

    def __post_init__(self) -> None:
        _require_finite("lo", self.lo)
        _require_finite("hi", self.hi)
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def symmetric(self) -> bool:
        return self.lo == -self.hi

    def pieces(self) -> Tuple[Tuple[float, float], ...]:
        return ((self.lo, self.hi),)

    def pdf(self, x: float) -> float:
        return 1.0 / (self.hi - self.lo) if self.lo <= x <= self.hi else 0.0

    def cdf(self, x: float) -> float:
        if x < self.lo:
            return 0.0
        if x > self.hi:
            return 1.0
        return (x - self.lo) / (self.hi - self.lo)

    def _truncated_mean(self, bound: float) -> float:
        a, b = max(self.lo, -bound), min(self.hi, bound)
        return (b * b - a * a) / (2.0 * (self.hi - self.lo)) if a < b else 0.0

    def _truncated_second(self, bound: float) -> float:
        a, b = max(self.lo, -bound), min(self.hi, bound)
        return (b ** 3 - a ** 3) / (3.0 * (self.hi - self.lo)) if a < b else 0.0

    def _smoothed_mean(self, b: float) -> float:
        num = b * b + self.hi * self.hi
        den = b * b + self.lo * self.lo
        return b * math.log(num / den) / (2.0 * (self.hi - self.lo))

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size)


@dataclass(frozen=True)
class ParetoLaw(_RealizedLaw):
    """Power-tail law: P(X > x) = w*(x/s)**-a and P(X < -x) = (1-w)*(x/s)**-a
    for x >= s, with a = tail_index, s = pscale and w = right_weight.

    w = 1/2 is the symmetric law and w = 1 the law on [s, +inf); any other w
    needs a sign rule of its own and is a ValueError. ``sample`` draws the
    magnitudes s*U**(-1/a), then at w = 1/2 one ``integers(0, 2)`` sign each.
    """

    tail_index: float
    pscale: float
    right_weight: float

    def __post_init__(self) -> None:
        _require_positive("tail_index", self.tail_index)
        _require_positive("scale", self.pscale)
        _require_finite("tail_index", self.tail_index)
        _require_finite("scale", self.pscale)
        if self.right_weight not in (0.5, 1.0):
            raise ValueError(f"right_weight must be 0.5 or 1.0, got {self.right_weight!r}")

    @property
    def symmetric(self) -> bool:
        return self.right_weight == 0.5

    @property
    def prefix_stable(self) -> bool:
        # The signs are drawn after all the magnitudes.
        return self.right_weight == 1.0

    def pieces(self) -> Tuple[Tuple[float, float], ...]:
        left = ((-math.inf, -self.pscale),) if self.right_weight < 1.0 else ()
        return left + ((self.pscale, math.inf),)

    def pdf(self, x: float) -> float:
        a0, s = self.tail_index, self.pscale
        if abs(x) < s:
            return 0.0
        weight = self.right_weight if x > 0 else 1.0 - self.right_weight
        return weight * a0 * s ** a0 * abs(x) ** (-a0 - 1.0)

    def cdf(self, x: float) -> float:
        a0, s, w = self.tail_index, self.pscale, self.right_weight
        if x <= -s:
            return (1.0 - w) * (s / -x) ** a0
        if x < s:
            return 1.0 - w
        return 1.0 - w * (s / x) ** a0

    def right_tail(self, x: float) -> float:
        a0, s, w = self.tail_index, self.pscale, self.right_weight
        if x >= s:
            return w * (s / x) ** a0
        if x > -s:
            return w
        return 1.0 - (1.0 - w) * (s / -x) ** a0

    def _truncated_mean(self, bound: float) -> float:
        a0, s = self.tail_index, self.pscale
        if bound < s:
            return 0.0
        if a0 == 1.0:
            return s * math.log(bound / s)
        return a0 * s ** a0 * (bound ** (1.0 - a0) - s ** (1.0 - a0)) / (1.0 - a0)

    def _truncated_second(self, bound: float) -> float:
        a0, s = self.tail_index, self.pscale
        if bound <= s:
            return 0.0
        if a0 == 2.0:
            return 2.0 * s * s * math.log(bound / s)
        return a0 * s ** a0 * (bound ** (2.0 - a0) - s ** (2.0 - a0)) / (2.0 - a0)

    def _smoothed_mean(self, b: float) -> float:
        """At w = 1, a * z**-a * int_0^z v**a / (1 + v**2) dv with z = b/pscale.

        That is a*z/(a+1) * 2F1(1, (a+1)/2; (a+3)/2; -z**2), and at a = 1 it
        is log1p(z**2)/(2z). The series of ``_scaled_power_integral`` has
        ratio up to z**2/(1+z**2), which nears 1 as z grows, so for z > 1 the
        integral is split at v = 1 and the series only ever sees x <= 1. In
        u = 1/v its part over (1, z] is int_{1/z}^1 u**-a/(1+u**2) du, and
        K = floor((a + 3/2)/2) powers
        peel off, leaving a remainder with exponent 2K - a in (-1/2, 3/2]:
        u**-a/(1+u**2) = sum_{k<K} (-1)**k u**(2k-a) + (-1)**K u**(2K-a)/(1+u**2).
        """
        a0 = self.tail_index
        z = b / self.pscale
        if z == 0.0:  # b / pscale underflowed
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
        return 0.0 if self.symmetric else a0 * self.pscale / (a0 - 1.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """pscale * U**(-1/tail_index) with U uniform on (0, 1]: an exact 0.0
        from ``random`` becomes 1.0, the law of 1 - U on the same lattice,
        and every other draw is unchanged."""
        u = rng.random(size)
        u[u == 0.0] = 1.0
        magnitudes = self.pscale * u ** (-1.0 / self.tail_index)
        if self.symmetric:
            return magnitudes * (rng.integers(0, 2, size) * 2 - 1)
        return magnitudes

    def with_dispersion(self, value: float) -> "ParetoLaw":
        return ParetoLaw(self.tail_index, value, self.right_weight)


def _via_twin(method: Callable) -> Callable:
    """``method`` of a stable law, evaluated on the closed-form family the
    law equals when it equals one (``StableLaw._twin``)."""

    @functools.wraps(method)
    def routed(self, *args, **kwargs):
        twin = self._twin
        if twin is None:
            return method(self, *args, **kwargs)
        return getattr(twin, method.__name__)(*args, **kwargs)

    return routed


@dataclass(frozen=True)
class StableLaw(_RealizedLaw):
    """Stable base family.

    Where the law equals a closed-form family (``_twin``), every functional
    is that family's: c = 0 is ``PointMassLaw(gamma)``, alpha = 2 is
    ``GaussianLaw(gamma, sqrt(2c))`` and alpha = 1, beta = 0 is
    ``CauchyLaw(gamma, c)``. Sampling is always ``sample_stable_with``,
    whose streams are part of the seed contract.

    Elsewhere, for 1.1 <= alpha < 2 the cdf, the right tail, the truncated
    moments and the smoothed mean come from the closed-form exponent
    (Gil-Pelaez inversion on fixed Gauss-Legendre nodes near the centre,
    Bergstrom's tail series beyond 20 scale units; see ``stable.py``),
    which tests pin against scipy's ``levy_stable`` where it is accurate and
    against the quadrature path elsewhere. Outside that region (alpha <= 1,
    alpha in (1, 1.1)) they are scipy's: the canonical parameters map onto
    its default S1 parameterization as (alpha, -beta, loc=gamma,
    scale=c**(1/alpha)) off alpha = 1 and (1, beta, loc=gamma, scale=c) at
    alpha = 1, pinned by a sampler-versus-cdf test, and truncated moments
    use quadrature against the scipy density. So does the smoothed mean
    when the location lies hundreds of scale units from 0, where its
    transform oscillates past the panel budget. ``pdf`` is scipy's.
    """

    params: StableParams

    @property
    def symmetric(self) -> bool:
        return self.params.beta == 0.0 and self.params.gamma == 0.0

    @property
    def prefix_stable(self) -> bool:
        # The sampler fills its output entry by entry exactly on the twins;
        # elsewhere it reads u and w, and every u is drawn before any w.
        return self._twin is not None

    @functools.cached_property
    def _twin(self) -> Optional[_RealizedLaw]:
        p = self.params
        if p.c == 0.0:
            return PointMassLaw(p.gamma)
        if p.alpha == 2.0:
            return GaussianLaw(p.gamma, math.sqrt(2.0 * p.c))
        if p.alpha == 1.0 and p.beta == 0.0:
            return CauchyLaw(p.gamma, p.c)
        return None

    def _scipy_args(self) -> Tuple[float, float, float, float]:
        p = self.params
        if p.alpha == 1.0:
            return p.alpha, p.beta, p.gamma, p.c
        return p.alpha, -p.beta, p.gamma, p.c ** (1.0 / p.alpha)

    @_via_twin
    def pdf(self, x: float) -> float:
        alpha, beta, loc, scale = self._scipy_args()
        return float(levy_stable.pdf(x, alpha, beta, loc=loc, scale=scale))

    @_via_twin
    def cdf(self, x: float) -> float:
        if _fourier_region(self.params):
            return _fourier_masses(self.params, (x,), (False,))[0]
        alpha, beta, loc, scale = self._scipy_args()
        return float(levy_stable.cdf(x, alpha, beta, loc=loc, scale=scale))

    @_via_twin
    def right_tail(self, x: float) -> float:
        if _fourier_region(self.params):
            return _fourier_masses(self.params, (x,), (True,))[0]
        alpha, beta, loc, scale = self._scipy_args()
        return float(levy_stable.sf(x, alpha, beta, loc=loc, scale=scale))

    @_via_twin
    def half_line_masses(self, ys: Sequence[float]) -> List[float]:
        if _fourier_region(self.params):
            return _fourier_masses(self.params, ys, [not y < 0 for y in ys])
        return super().half_line_masses(ys)

    integrate = _via_twin(_RealizedLaw.integrate)
    truncated_mean = _via_twin(_RealizedLaw.truncated_mean)
    truncated_second = _via_twin(_RealizedLaw.truncated_second)
    smoothed_mean = _via_twin(_RealizedLaw.smoothed_mean)

    def _truncated_mean(self, bound: float) -> float:
        if _fourier_region(self.params):
            return _fourier_truncated(self.params, bound, 1)
        return super()._truncated_mean(bound)

    def _truncated_second(self, bound: float) -> float:
        if _fourier_region(self.params):
            return _fourier_truncated(self.params, bound, 2)
        return super()._truncated_second(bound)

    def _smoothed_mean(self, b: float) -> float:
        if _fourier_region(self.params):
            value = _fourier_smoothed(self.params, b)
            if value is not None:
                return value
        return super()._smoothed_mean(b)

    @_via_twin
    def mean(self) -> float:
        if self.params.alpha <= 1.0:
            raise ValueError("stable mean undefined at index <= 1")
        return self.params.gamma

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return sample_stable_with(rng, self.params, size)

    def with_dispersion(self, value: float) -> "StableLaw":
        p = self.params
        return StableLaw(StableParams(p.alpha, p.gamma, value, p.beta))

    def with_location(self, value: float) -> "StableLaw":
        p = self.params
        return StableLaw(StableParams(p.alpha, value, p.c, p.beta))


@dataclass(frozen=True)
class PointMassLaw(_RealizedLaw):
    """The deterministic law concentrated at one point."""

    prefix_stable = True

    point: float

    def __post_init__(self) -> None:
        _require_finite("point", self.point)

    @property
    def symmetric(self) -> bool:
        return self.point == 0.0

    def pdf(self, x: float) -> float:
        raise ValueError("a point mass has no density")

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.point else 0.0

    def right_tail(self, x: float) -> float:
        return 1.0 if x < self.point else 0.0

    def integrate(self, f: Callable[[float], float], lo: float, hi: float) -> float:
        return float(f(self.point)) if lo < self.point <= hi else 0.0

    def _truncated_mean(self, bound: float) -> float:
        return self.point if abs(self.point) <= bound else 0.0

    def _truncated_second(self, bound: float) -> float:
        return self.point ** 2 if abs(self.point) <= bound else 0.0

    def _smoothed_mean(self, b: float) -> float:
        return b * self.point / (b * b + self.point * self.point)

    def mean(self) -> float:
        return self.point

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.point)

    def with_location(self, value: float) -> "PointMassLaw":
        return PointMassLaw(value)


@dataclass(frozen=True)
class _AtomPrior:
    """Finite prior: ``atoms`` holds (value, weight) pairs."""

    atoms: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        _check_weights([w for _, w in self.atoms])
        for v, _ in self.atoms:
            if self.slot == "dispersion":
                _require_positive("dispersion value", v)
            _require_finite(f"{self.slot} value", v)

    @functools.cached_property
    def _choice_table(self) -> Tuple[List[float], List[float]]:
        """The values and the cdf that ``Generator.choice`` builds from the
        weights: their cumulative sums divided by the last one."""
        cdf = np.cumsum([w for _, w in self.atoms])
        cdf /= cdf[-1]
        return [v for v, _ in self.atoms], cdf.tolist()

    def draw(self, rng: np.random.Generator) -> float:
        """``rng.choice(values, p=weights)`` bit for bit, generator state
        included: one ``rng.random()`` looked up in the cached cdf."""
        values, cdf = self._choice_table
        return float(values[bisect_right(cdf, rng.random())])


@dataclass(frozen=True)
class ScaleAtoms(_AtomPrior):
    """Finite prior on the family's natural dispersion parameter.

    The dispersion slot means variance for the Gaussian family and the plain
    scale parameter everywhere else, so an exponential prior here gives an
    exponentially distributed Gaussian variance.
    """

    slot = "dispersion"


@dataclass(frozen=True)
class ScaleExponential:
    """Exponential prior (given rate) on the natural dispersion parameter."""

    slot = "dispersion"
    rate: float

    def __post_init__(self) -> None:
        _require_positive("rate", self.rate)
        _require_finite("rate", self.rate)

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate))


@dataclass(frozen=True)
class ScaleLogNormal:
    """Log-normal prior on the natural dispersion parameter."""

    slot = "dispersion"
    log_mean: float
    log_sd: float

    def __post_init__(self) -> None:
        _require_positive("log_sd", self.log_sd)
        _require_finite("log_sd", self.log_sd)
        _require_finite("log_mean", self.log_mean)

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.log_mean, self.log_sd))


@dataclass(frozen=True)
class LocationAtoms(_AtomPrior):
    """Finite prior on the family's location parameter."""

    slot = "location"


@dataclass(frozen=True)
class LocationGaussian:
    """Gaussian prior on the family's location parameter."""

    slot = "location"
    mean: float
    sd: float

    def __post_init__(self) -> None:
        _require_positive("sd", self.sd)
        _require_finite("sd", self.sd)
        _require_finite("mean", self.mean)

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.normal(self.mean, self.sd))


Randomizer = Union[ScaleAtoms, ScaleExponential, ScaleLogNormal, LocationAtoms, LocationGaussian]


@dataclass(frozen=True)
class DirectingLaw:
    """A base family plus an optional prior on one of its parameters."""

    base: _RealizedLaw
    randomizer: Optional[Randomizer] = None

    def __post_init__(self) -> None:
        if self.randomizer is None:
            return
        slot = self.randomizer.slot
        # A stable law with c = 0 stores no index, so it takes a prior only as
        # the point mass it equals.
        twin = self.base._twin if isinstance(self.base, StableLaw) else None
        if not hasattr(twin or self.base, f"with_{slot}"):
            name = type(self.base).__name__ + (" with c = 0" if twin else "")
            raise ValueError(f"{name} does not accept a {slot} prior")


def _check_positive(name: str, value) -> None:
    """A ValueError naming ``name`` unless ``value`` is a positive integer;
    a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name}: expected a positive integer, got {value!r}")


def draw_replicates(law: DirectingLaw, seed: int, replicates: int) -> list[_RealizedLaw]:
    """Realize the directing measure once per replicate index.

    Entry k is replicate k's realization, drawn from the stream
    SeedSequence([seed, k, 0]) that :func:`sample_grid_sums` uses too: the
    rows of its replicate k are i.i.d. given
    ``draw_replicates(law, seed, replicates)[k]``, so statistics computed on
    these realizations describe exactly the arrays simulated under the same
    seed. The streams come from ``_replicate_streams``, bit for bit those of
    ``np.random.default_rng(replicate_seed(seed, k, 0))``. A law without a
    prior is its base at every k, and derives no stream. A ``seed`` that is
    not a non-negative integer (a bool is not one) is a ValueError naming
    it, for every law.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed: expected a non-negative integer, got {seed!r}")
    _check_positive("replicates", replicates)
    if law.randomizer is None:
        return [law.base] * replicates
    realize = getattr(law.base, f"with_{law.randomizer.slot}")
    return [realize(law.randomizer.draw(rng)) for rng in _replicate_streams(seed, 0, range(replicates))]


_BLOCK = 1 << 14


def _row_sums(
    p: _RealizedLaw,
    rng: Optional[np.random.Generator],
    rows: int,
    n_grid: Sequence[int],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Row sums of rows-by-n conditionally i.i.d. blocks, for every n of
    ``n_grid``, from one pass over the stream of the largest n.

    Entries are generated in column blocks (:func:`_block_sums`); block
    subtotals use pairwise summation and are folded into a per-row
    compensated accumulator, so heavy tails at large n do not erode the sum.
    One loop serves every block count: the first block's subtotals are
    reduced straight into ``out`` and become the totals, and every later
    block folds in place through the compensated step. Row j of ``out`` (a
    ``(len(n_grid), rows)`` float array, new when None) gets the sums at
    ``n_grid[j]``; ``out`` is returned. ``rng`` may be None for a point
    mass, whose ``sample`` draws nothing.
    """
    out = np.empty((len(n_grid), rows)) if out is None else out
    n_max = max(n_grid)
    for c in range(0, n_max, _BLOCK):
        width = min(_BLOCK, n_max - c)
        if c == 0:
            _block_sums(p, rng, rows, n_grid, c, width, out)
            # A fold into zero totals, 0.0 + (s - 0.0), is s + 0.0 bit for
            # bit, as s - 0.0 is s; it turns a -0.0 sum into 0.0 and leaves a
            # zero compensation wherever s is finite. A sum that is not
            # finite stays so.
            out += 0.0
            continue
        if c == _BLOCK:
            sums, comp = np.empty_like(out), np.zeros_like(out)
        _block_sums(p, rng, rows, n_grid, c, width, sums)
        for j, n in enumerate(n_grid):
            if n > c:
                y = sums[j] - comp[j]
                t = out[j] + y
                comp[j] = (t - out[j]) - y
                out[j] = t
    return out


def _block_sums(
    p: _RealizedLaw,
    rng: Optional[np.random.Generator],
    rows: int,
    n_grid: Sequence[int],
    c: int,
    width: int,
    out: np.ndarray,
) -> None:
    """The row subtotals of column block ``[c, c + width)``, reduced into
    ``out[j]`` for each row length ``n_grid[j]`` that ends past ``c``; the
    other rows of ``out`` are left as they are. The block of
    :func:`_row_sums`.

    Column block b starts at stream position rows*b*_BLOCK at every row
    length, and each row length reads its full blocks from the chunk drawn
    there. A shorter row length whose last block (m columns) ends inside the
    chunk sums what rows*m entries drawn there would be, its head, which the
    family gives with the chunk (``_RealizedLaw._chunk_and_heads``).
    """
    chunk, heads = p._chunk_and_heads(rng, rows * width, [rows * (n - c) for n in n_grid if c < n < c + width])
    heads = iter(heads)
    for j, n in enumerate(n_grid):
        m = min(width, n - c)
        if m > 0:
            np.add.reduce((chunk if m == width else next(heads)).reshape(rows, m), axis=1, out=out[j])


def _check_grid(n_grid: Sequence[int], rows: int, replicates: int) -> Tuple[int, ...]:
    """The row lengths of ``n_grid`` as a tuple, after the argument checks of
    :func:`sample_grid_sums`; each failure is a ValueError naming its argument."""
    n_grid = tuple(n_grid)
    if not n_grid:
        raise ValueError("n_grid must hold at least one row length")
    named = [("n_grid", n) for n in n_grid] + [("rows", rows), ("replicates", replicates)]
    for name, value in named:
        _check_positive(name, value)
    return n_grid


def sample_grid_sums(
    law: DirectingLaw,
    norming: NormingSequence,
    n_grid: Sequence[int],
    rows: int,
    seed: int,
    replicates: int = 1,
) -> np.ndarray:
    """Simulate replicated exchangeable arrays along a grid of row lengths and
    return their normed row sums.

    The result is a ``(len(n_grid), replicates, rows)`` float array: entry
    ``[j, k, i]`` is the normed sum of row i of replicate k at row length
    ``n_grid[j]``. Each replicate draws one directing measure (seed path
    [seed, k, 0]), which is ``draw_replicates(law, seed, replicates)[k]``,
    and serves every row length from it. Its rows at each row length are
    filled with entries i.i.d. given that measure from the same stream (seed
    path [seed, k, 1]), and slice ``[j]`` is bit-identical to sampling
    ``n_grid[j]`` alone, as :func:`sample_array_sums` does. The streams of
    all replicates are derived in one pass (``stable._replicate_streams``)
    and are bit for bit those of ``np.random.default_rng(replicate_seed(seed,
    k, leaf))``. A point-mass realization (a ``PointMassLaw``, or a
    ``StableLaw`` at c = 0) draws nothing and derives no row stream: each
    distinct one is summed once. Every other realization walks its stream
    once, at the largest row length (:func:`_row_sums`), and its sums are
    reduced in place into its slice of the result: a replicate draws
    rows * max(n_grid) entries. A stable law off its closed-form twins and
    the symmetric Pareto law also draw the last block of each shorter row
    length that ends inside a column block, from a saved and restored
    generator state; every prefix-stable family
    (``_RealizedLaw.prefix_stable``) reads it from the chunk
    (``_RealizedLaw._chunk_and_heads``). Each
    distinct realization is normed once, and all raw sums are normed
    together at the end, each by the same division and subtraction. A normed sum that is not finite
    (an overflow under extreme tails) is a RuntimeError naming the first row
    length that has one. An empty ``n_grid``, and a row length, ``rows`` or
    ``replicates`` that is not a positive integer, are ValueErrors naming
    the argument.
    """
    n_grid = _check_grid(n_grid, rows, replicates)
    realized = draw_replicates(law, seed, replicates)
    distinct = {}
    index = [distinct.setdefault(p, len(distinct)) for p in realized]
    # Normed first, so a b_n or centering that fails does so before any entry
    # is drawn. A point mass draws nothing from its generator, so its sums
    # are taken here and its replicates derive no row stream.
    norms = np.empty((len(distinct), len(n_grid), 2))
    constant_sums = {}
    for i, p in enumerate(distinct):
        norms[i] = [norming_values(norming, n, realization=p) for n in n_grid]
        point = p._twin if isinstance(p, StableLaw) else p
        if isinstance(point, PointMassLaw):
            constant_sums[i] = _row_sums(point, None, rows, n_grid)
    # Each replicate's b_n and c_n, as (len(n_grid), replicates, 1) arrays.
    b_n, c_n = norms[index].T[..., None]
    values = np.empty((len(n_grid), replicates, rows))
    drawn = []
    for k, i in enumerate(index):
        if i in constant_sums:
            values[:, k] = constant_sums[i]
        else:
            drawn.append(k)
    for k, rng in zip(drawn, _replicate_streams(seed, 1, drawn)):
        _row_sums(realized[k], rng, rows, n_grid, values[:, k])
    # Normed in place: each raw sum divided by its b_n, then its c_n subtracted.
    values /= b_n
    values -= c_n
    # The message keeps the name that callers have always matched on.
    for n, at_n in zip(n_grid, values):
        nonfinite = int(np.count_nonzero(~np.isfinite(at_n)))
        if nonfinite:
            raise RuntimeError(
                f"sample_array_sums: {nonfinite} of {at_n.size} normed row sums "
                f"at n={n} are not finite"
            )
    return values


def sample_array_sums(
    law: DirectingLaw,
    norming: NormingSequence,
    n: int,
    rows: int,
    seed: int,
    replicates: int = 1,
) -> np.ndarray:
    """Simulate replicated exchangeable arrays and return their normed row sums.

    The result is a ``(replicates, rows)`` float array: entry ``[k, i]`` is
    the normed sum of row i of replicate k, the one-length case of
    :func:`sample_grid_sums` with the same seed paths and errors. Replicate
    k's rows are i.i.d. given ``draw_replicates(law, seed, replicates)[k]``.
    """
    return sample_grid_sums(law, norming, (n,), rows, seed, replicates)[0]
