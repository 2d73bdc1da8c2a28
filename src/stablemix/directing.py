"""Random directing measures, exchangeable arrays, and normed row sums.

A directing law is a base distribution family plus an optional prior on one
of its parameters; the prior's ``slot`` names that parameter, "dispersion"
or "location", and the family takes the drawn value through ``with_<slot>``
(a family without that method rejects the prior). Drawing the prior yields
one realized probability measure; given that realization all array entries
are i.i.d. Every realized family exposes the same analytic surface: cdf,
one-sided and two-sided tails, truncated first and second moments, the
smoothed mean integral ``int b*x/(b**2 + x**2) dp``, and generic integration
against the density. Closed forms are used wherever the family permits; the
stable family with 1.1 <= alpha < 2 evaluates its functionals from the
closed-form characteristic function (see :class:`StableLaw`); the rest goes
through adaptive quadrature certified to 1e-10.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import levy_stable

from .stable import (
    NormingSequence,
    StableParams,
    _fourier_mass,
    _fourier_region,
    _fourier_smoothed,
    _fourier_truncated,
    norming_values,
    replicate_seed,
    sample_stable_with,
)

__all__ = [
    "GaussianLaw",
    "CauchyLaw",
    "UniformLaw",
    "SymmetricParetoLaw",
    "OneSidedParetoLaw",
    "StableLaw",
    "PointMassLaw",
    "ScaleAtoms",
    "ScaleExponential",
    "ScaleLogNormal",
    "LocationAtoms",
    "LocationGaussian",
    "DirectingLaw",
    "RowSums",
    "draw_replicates",
    "sample_array_sums",
]

_QUAD_TOL = 1e-10
_FAR_PIVOT = 8.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _certified_quad(f: Callable[[float], float], lo: float, hi: float) -> float:
    value, abserr = quad(f, lo, hi, epsabs=_QUAD_TOL * 0.1, epsrel=1e-12, limit=400)
    if abserr > max(_QUAD_TOL, abs(value) * 1e-8):
        raise RuntimeError(
            f"quadrature over ({lo}, {hi}) failed to certify {_QUAD_TOL:g}: "
            f"value {value:g}, error estimate {abserr:g}"
        )
    return value


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


class _RealizedLaw:
    """Shared quadrature fallbacks for realized directing measures.

    Subclasses provide ``pdf`` and ``pieces`` (the support as disjoint
    intervals) and override whichever functionals they can do in closed form.
    """

    symmetric = False

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
        """Integral of x over |x| <= bound."""
        if bound <= 0:
            return 0.0
        if self.symmetric:
            return 0.0
        return self.integrate(lambda x: x, -bound, bound)

    def truncated_second(self, bound: float) -> float:
        """Integral of x**2 over |x| <= bound."""
        if bound <= 0:
            return 0.0
        return self.integrate(lambda x: x * x, -bound, bound)

    def smoothed_mean(self, b: float) -> float:
        """Integral of b*x/(b**2 + x**2) against the measure."""
        if self.symmetric:
            return 0.0
        return self.expect(lambda x: b * x / (b * b + x * x))

    def mean(self) -> float:
        raise ValueError(f"{type(self).__name__} has no defined mean")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianLaw(_RealizedLaw):
    """Normal law with the given mean and standard deviation."""

    mean_value: float
    sd: float

    def __post_init__(self) -> None:
        if self.sd <= 0:
            raise ValueError(f"sd must be positive, got {self.sd}")

    @property
    def symmetric(self) -> bool:
        return self.mean_value == 0.0

    def pdf(self, x: float) -> float:
        return _phi((x - self.mean_value) / self.sd) / self.sd

    def cdf(self, x: float) -> float:
        return float(ndtr((x - self.mean_value) / self.sd))

    def right_tail(self, x: float) -> float:
        return float(ndtr(-(x - self.mean_value) / self.sd))

    def truncated_mean(self, bound: float) -> float:
        if bound <= 0:
            return 0.0
        if self.mean_value == 0.0:
            return 0.0
        a = (-bound - self.mean_value) / self.sd
        b = (bound - self.mean_value) / self.sd
        dphi = float(ndtr(b) - ndtr(a))
        return self.mean_value * dphi + self.sd * (_phi(a) - _phi(b))

    def truncated_second(self, bound: float) -> float:
        if bound <= 0:
            return 0.0
        mu, sd = self.mean_value, self.sd
        a = (-bound - mu) / sd
        b = (bound - mu) / sd
        dphi = float(ndtr(b) - ndtr(a))
        return (
            mu * mu * dphi
            + 2.0 * mu * sd * (_phi(a) - _phi(b))
            + sd * sd * (dphi + a * _phi(a) - b * _phi(b))
        )

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

    location: float
    cscale: float

    def __post_init__(self) -> None:
        if self.cscale <= 0:
            raise ValueError(f"scale must be positive, got {self.cscale}")

    @property
    def symmetric(self) -> bool:
        return self.location == 0.0

    def pdf(self, x: float) -> float:
        z = (x - self.location) / self.cscale
        return 1.0 / (math.pi * self.cscale * (1.0 + z * z))

    def cdf(self, x: float) -> float:
        # The arctan of the reciprocal keeps deep left tails fully accurate.
        z = (x - self.location) / self.cscale
        if z < -1.0:
            return math.atan(-1.0 / z) / math.pi
        if z > 1.0:
            return 1.0 - math.atan(1.0 / z) / math.pi
        return 0.5 + math.atan(z) / math.pi

    def right_tail(self, x: float) -> float:
        z = (x - self.location) / self.cscale
        if z > 1.0:
            return math.atan(1.0 / z) / math.pi
        if z < -1.0:
            return 1.0 - math.atan(-1.0 / z) / math.pi
        return 0.5 - math.atan(z) / math.pi

    def truncated_mean(self, bound: float) -> float:
        if bound <= 0 or self.location == 0.0:
            return 0.0
        x0, s = self.location, self.cscale
        a, b = -bound - x0, bound - x0
        df = self.cdf(bound) - self.cdf(-bound)
        log_term = math.log((s * s + b * b) / (s * s + a * a))
        return x0 * df + s * log_term / (2.0 * math.pi)

    def truncated_second(self, bound: float) -> float:
        if bound <= 0:
            return 0.0
        x0, s = self.location, self.cscale
        a, b = -bound - x0, bound - x0
        quad_part = (s / math.pi) * ((b - s * math.atan(b / s)) - (a - s * math.atan(a / s)))
        if x0 == 0.0:
            return quad_part
        df = self.cdf(bound) - self.cdf(-bound)
        log_term = math.log((s * s + b * b) / (s * s + a * a))
        return quad_part + x0 * s * log_term / math.pi + x0 * x0 * df

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.location + self.cscale * rng.standard_cauchy(size)

    def with_dispersion(self, value: float) -> "CauchyLaw":
        return CauchyLaw(self.location, value)

    def with_location(self, value: float) -> "CauchyLaw":
        return CauchyLaw(value, self.cscale)


@dataclass(frozen=True)
class UniformLaw(_RealizedLaw):
    """Uniform law on the interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
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

    def _window(self, bound: float) -> Optional[Tuple[float, float]]:
        a, b = max(self.lo, -bound), min(self.hi, bound)
        return (a, b) if a < b else None

    def truncated_mean(self, bound: float) -> float:
        window = self._window(bound)
        if window is None:
            return 0.0
        a, b = window
        return (b * b - a * a) / (2.0 * (self.hi - self.lo))

    def truncated_second(self, bound: float) -> float:
        window = self._window(bound)
        if window is None:
            return 0.0
        a, b = window
        return (b ** 3 - a ** 3) / (3.0 * (self.hi - self.lo))

    def smoothed_mean(self, b: float) -> float:
        num = b * b + self.hi * self.hi
        den = b * b + self.lo * self.lo
        return b * math.log(num / den) / (2.0 * (self.hi - self.lo))

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size)


@dataclass(frozen=True)
class _ParetoLaw(_RealizedLaw):
    """Fields, validation and closed forms shared by the two Pareto families."""

    tail_index: float
    pscale: float

    def __post_init__(self) -> None:
        if self.tail_index <= 0:
            raise ValueError(f"tail_index must be positive, got {self.tail_index}")
        if self.pscale <= 0:
            raise ValueError(f"scale must be positive, got {self.pscale}")

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
        """pscale * U**(-1/tail_index) with U uniform on (0, 1]: an exact 0.0
        from ``random`` becomes 1.0, the law of 1 - U on the same lattice,
        and every other draw is unchanged."""
        u = rng.random(size)
        u[u == 0.0] = 1.0
        return self.pscale * u ** (-1.0 / self.tail_index)


@dataclass(frozen=True)
class SymmetricParetoLaw(_ParetoLaw):
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
        a0, s = self.tail_index, self.pscale
        if x >= s:
            return 0.5 * (s / x) ** a0
        if x > -s:
            return 0.5
        return 1.0 - 0.5 * (s / -x) ** a0

    def mean(self) -> float:
        if self.tail_index <= 1.0:
            raise ValueError("mean undefined at tail index <= 1")
        return 0.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        magnitudes = self._magnitudes(rng, size)
        signs = rng.integers(0, 2, size) * 2 - 1
        return magnitudes * signs


@dataclass(frozen=True)
class OneSidedParetoLaw(_ParetoLaw):
    """Power-tail law supported on [pscale, +inf)."""

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

    def mean(self) -> float:
        a0 = self.tail_index
        if a0 <= 1.0:
            raise ValueError("mean undefined at tail index <= 1")
        return a0 * self.pscale / (a0 - 1.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._magnitudes(rng, size)


@dataclass(frozen=True)
class StableLaw(_RealizedLaw):
    """Stable base family.

    For 1.1 <= alpha < 2 and c > 0 the cdf, the right tail, the truncated
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
    transform oscillates past the panel budget. ``pdf`` is always scipy's.
    alpha = 2 is the Gaussian in closed form and c = 0 the point mass.
    """

    params: StableParams

    @property
    def symmetric(self) -> bool:
        return self.params.beta == 0.0 and self.params.gamma == 0.0

    def _scipy_args(self) -> Tuple[float, float, float, float]:
        p = self.params
        if p.alpha == 1.0:
            return p.alpha, p.beta, p.gamma, p.c
        return p.alpha, -p.beta, p.gamma, p.c ** (1.0 / p.alpha)

    def pdf(self, x: float) -> float:
        p = self.params
        if p.c == 0.0:
            raise ValueError("point-mass stable law has no density")
        if p.alpha == 2.0:
            sd = math.sqrt(2.0 * p.c)
            return _phi((x - p.gamma) / sd) / sd
        alpha, beta, loc, scale = self._scipy_args()
        return float(levy_stable.pdf(x, alpha, beta, loc=loc, scale=scale))

    def cdf(self, x: float) -> float:
        p = self.params
        if p.c == 0.0:
            return 1.0 if x >= p.gamma else 0.0
        if p.alpha == 2.0:
            return float(ndtr((x - p.gamma) / math.sqrt(2.0 * p.c)))
        if _fourier_region(p):
            return _fourier_mass(p, x, right=False)
        alpha, beta, loc, scale = self._scipy_args()
        return float(levy_stable.cdf(x, alpha, beta, loc=loc, scale=scale))

    def right_tail(self, x: float) -> float:
        p = self.params
        if p.c == 0.0:
            return 1.0 if x < p.gamma else 0.0
        if p.alpha == 2.0:
            return float(ndtr(-(x - p.gamma) / math.sqrt(2.0 * p.c)))
        if _fourier_region(p):
            return _fourier_mass(p, x, right=True)
        alpha, beta, loc, scale = self._scipy_args()
        return float(levy_stable.sf(x, alpha, beta, loc=loc, scale=scale))

    def truncated_mean(self, bound: float) -> float:
        if bound > 0 and not self.symmetric and _fourier_region(self.params):
            return _fourier_truncated(self.params, bound, 1)
        return super().truncated_mean(bound)

    def truncated_second(self, bound: float) -> float:
        if bound > 0 and _fourier_region(self.params):
            return _fourier_truncated(self.params, bound, 2)
        return super().truncated_second(bound)

    def smoothed_mean(self, b: float) -> float:
        if not self.symmetric and _fourier_region(self.params):
            value = _fourier_smoothed(self.params, b)
            if value is not None:
                return value
        return super().smoothed_mean(b)

    def mean(self) -> float:
        p = self.params
        if p.c == 0.0:
            return p.gamma
        if p.alpha <= 1.0:
            raise ValueError("stable mean undefined at index <= 1")
        return p.gamma

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

    point: float

    @property
    def symmetric(self) -> bool:
        return self.point == 0.0

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.point else 0.0

    def right_tail(self, x: float) -> float:
        return 1.0 if x < self.point else 0.0

    def integrate(self, f: Callable[[float], float], lo: float, hi: float) -> float:
        return float(f(self.point)) if lo < self.point <= hi else 0.0

    def truncated_mean(self, bound: float) -> float:
        return self.point if abs(self.point) <= bound else 0.0

    def truncated_second(self, bound: float) -> float:
        return self.point ** 2 if abs(self.point) <= bound else 0.0

    def smoothed_mean(self, b: float) -> float:
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
        if not self.atoms:
            raise ValueError("prior needs at least one atom")
        weights = [w for _, w in self.atoms]
        if any(w <= 0 for w in weights):
            raise ValueError("prior weights must be positive")
        if abs(math.fsum(weights) - 1.0) > 1e-12:
            raise ValueError(f"prior weights must sum to 1, got {math.fsum(weights)!r}")
        if self.slot == "dispersion" and any(v <= 0 for v, _ in self.atoms):
            raise ValueError("dispersion values must be positive")

    def draw(self, rng: np.random.Generator) -> float:
        values = [v for v, _ in self.atoms]
        weights = [w for _, w in self.atoms]
        return float(rng.choice(values, p=weights))


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
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate))


@dataclass(frozen=True)
class ScaleLogNormal:
    """Log-normal prior on the natural dispersion parameter."""

    slot = "dispersion"
    log_mean: float
    log_sd: float

    def __post_init__(self) -> None:
        if self.log_sd <= 0:
            raise ValueError(f"log_sd must be positive, got {self.log_sd}")

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
        if self.sd <= 0:
            raise ValueError(f"sd must be positive, got {self.sd}")

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
        if not hasattr(self.base, f"with_{slot}"):
            raise ValueError(f"{type(self.base).__name__} does not accept a {slot} prior")


def _draw_at(law: DirectingLaw, seed: int, k: int) -> _RealizedLaw:
    """The realization of replicate ``k``, drawn from replicate_seed(seed, k, 0).
    A law without a prior is its base, and no generator is built for it."""
    if law.randomizer is None:
        return law.base
    value = law.randomizer.draw(np.random.default_rng(replicate_seed(seed, k, 0)))
    return getattr(law.base, f"with_{law.randomizer.slot}")(value)


def draw_replicates(law: DirectingLaw, seed: int, replicates: int) -> list[_RealizedLaw]:
    """Realize the directing measure once per replicate index.

    Replicate k draws from the stream SeedSequence([seed, k, 0]), the same
    stream :func:`sample_array_sums` uses for its draws, so statistics
    computed on these realizations describe exactly the arrays simulated
    under the same seed.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    return [_draw_at(law, seed, k) for k in range(replicates)]


@dataclass(frozen=True, eq=False)
class RowSums:
    """Normed row sums of replicated exchangeable arrays.

    ``values[k, i]`` is the normed sum of row i in replicate k. All rows of
    one replicate share a single realized directing measure, identified by
    ``draw_ids[k]`` indexing into ``draws``.
    """

    n: int
    rows: int
    replicates: int
    seed: int
    values: np.ndarray
    draw_ids: np.ndarray
    draws: Tuple[_RealizedLaw, ...]

    def __post_init__(self) -> None:
        if self.values.shape != (self.replicates, self.rows):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"(replicates, rows) = ({self.replicates}, {self.rows})"
            )


_BLOCK = 1 << 14


def _compensated_row_sums(p: _RealizedLaw, rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
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


def _one_replicate(law: DirectingLaw, norming: NormingSequence, n: int, rows: int, seed: int, k: int):
    p = _draw_at(law, seed, k)
    b_n, c_n = norming_values(norming, n, realization=p)
    row_rng = np.random.default_rng(replicate_seed(seed, k, 1))
    sums = _compensated_row_sums(p, row_rng, rows, n)
    return p, sums / b_n - c_n


def _worker_count(threads: int, replicates: int) -> int:
    """Threads to start for ``threads`` requested: never more than the
    machine's CPUs or the replicates to share out."""
    return min(threads, os.cpu_count() or 1, replicates)


def sample_array_sums(
    law: DirectingLaw,
    norming: NormingSequence,
    n: int,
    rows: int,
    seed: int,
    replicates: int = 1,
    threads: int = 1,
) -> RowSums:
    """Simulate replicated exchangeable arrays and return normed row sums.

    Each replicate draws one directing measure (seed path [seed, k, 0]) and
    then fills its rows with conditionally i.i.d. entries (seed path
    [seed, k, 1]), so the output is bit-identical for a given seed no matter
    how many worker threads execute the replicates. ``threads`` is a cap:
    at most one thread per CPU and per replicate is started. A normed sum
    that is not finite (an overflow under extreme tails) is a RuntimeError.
    """
    if n < 1 or rows < 1 or replicates < 1:
        raise ValueError("n, rows and replicates must all be at least 1")
    values = np.empty((replicates, rows))
    realized: list = [None] * replicates

    def work(k: int) -> None:
        p, normed = _one_replicate(law, norming, n, rows, seed, k)
        realized[k] = p
        values[k, :] = normed

    workers = _worker_count(threads, replicates)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(replicates)))
    else:
        for k in range(replicates):
            work(k)
    nonfinite = int(np.count_nonzero(~np.isfinite(values)))
    if nonfinite:
        raise RuntimeError(
            f"sample_array_sums: {nonfinite} of {values.size} normed row sums "
            f"at n={n} are not finite"
        )

    # Equal realizations share one id; ids follow first appearance.
    index = {p: key for key, p in enumerate(dict.fromkeys(realized))}
    return RowSums(
        n=n,
        rows=rows,
        replicates=replicates,
        seed=seed,
        values=values,
        draw_ids=np.array([index[p] for p in realized], dtype=np.int64),
        draws=tuple(index),
    )
