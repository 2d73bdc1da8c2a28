"""Mixtures of stable and of infinitely divisible characteristic functions.

A mixing measure is a finite weighted set of stable parameter points. The
characteristic function of the mixture evaluates the component cf at each
atom and averages with the weights; for several coordinates the product over
coordinates happens inside the mixture sum, which is what distinguishes a
genuine mixture from an i.i.d. product law with the same margins.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from scipy.integrate import quad

from .stable import LevyKhintchinePair, StableParams, levy_khintchine_psi, stable_cf

__all__ = [
    "MixingMeasure",
    "IDMixingMeasure",
    "mixture_cf",
    "joint_mixture_cf",
    "id_mixture_cf",
    "cauchy_from_gaussian_scale_mixture",
]

_WEIGHT_TOL = 1e-12


def _check_weights(weights: Sequence[float]) -> None:
    if not weights:
        raise ValueError("a mixing measure needs at least one atom")
    if any(w <= 0 for w in weights):
        raise ValueError("mixing weights must be strictly positive")
    total = math.fsum(weights)
    if abs(total - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"mixing weights must sum to 1, got {total!r}")


@dataclass(frozen=True)
class MixingMeasure:
    """Finite weighted atoms over stable parameter points.

    All atoms must share one index alpha (point-mass atoms are index-neutral
    and always admitted).
    """

    atoms: Tuple[Tuple[StableParams, float], ...]

    def __post_init__(self) -> None:
        _check_weights([w for _, w in self.atoms])
        indices = {p.alpha for p, _ in self.atoms if not p.is_point_mass}
        if len(indices) > 1:
            raise ValueError(
                f"atoms mix indices {sorted(indices)}; a mixing measure must have a single index"
            )


@dataclass(frozen=True)
class IDMixingMeasure:
    """Finite weighted atoms over infinitely divisible exponent pairs."""

    atoms: Tuple[Tuple[LevyKhintchinePair, float], ...]

    def __post_init__(self) -> None:
        _check_weights([w for _, w in self.atoms])


def mixture_cf(t: float, mix: MixingMeasure) -> complex:
    """Characteristic function of a stable mixture at one point."""
    return sum(w * stable_cf(t, p) for p, w in mix.atoms)


def joint_mixture_cf(ts: Sequence[float], mix: MixingMeasure) -> complex:
    """Joint characteristic function of several coordinates of the mixture.

    Each atom contributes the product of its component cf over the
    coordinates; the weighted sum runs over atoms. This is a mixture of
    product laws, not a product of mixtures.
    """
    if len(ts) < 1:
        raise ValueError("need at least one coordinate")
    acc = 0j
    for params, weight in mix.atoms:
        prod = complex(1.0)
        for t in ts:
            prod *= stable_cf(float(t), params)
        acc += weight * prod
    return acc


def id_mixture_cf(ts: Sequence[float], mix: IDMixingMeasure) -> complex:
    """Joint characteristic function of a mixture of infinitely divisible laws."""
    if len(ts) < 1:
        raise ValueError("need at least one coordinate")
    acc = 0j
    for pair, weight in mix.atoms:
        exponent = 0j
        for t in ts:
            exponent += levy_khintchine_psi(float(t), pair)
        acc += weight * cmath.exp(exponent)
    return acc


def cauchy_from_gaussian_scale_mixture(t: float, quadrature_tol: float = 1e-10) -> float:
    """Evaluate the Gaussian scale mixture that reproduces exp(-|t|).

    Integrates exp(-t**2*s**2/2) against the mixing density
    sqrt(2/pi)*exp(-1/(2*s**2))/s**2 over s in (0, inf). The substitution
    u = 1/s turns the integrand into sqrt(2/pi)*exp(-u**2/2 - t**2/(2*u**2)),
    which decays like a Gaussian on both ends and is easy to integrate
    adaptively.

    :param t: evaluation point
    :param quadrature_tol: absolute tolerance demanded from the quadrature
    :raises RuntimeError: when the quadrature cannot certify the tolerance;
        the message carries the achieved error estimate
    """
    if quadrature_tol <= 0:
        raise ValueError("quadrature_tol must be positive")
    t2 = float(t) * float(t)
    const = math.sqrt(2.0 / math.pi)

    def integrand(u: float) -> float:
        if u == 0.0:
            return 0.0 if t2 > 0 else const
        return const * math.exp(-0.5 * u * u - 0.5 * t2 / (u * u))

    result = quad(integrand, 0.0, math.inf, epsabs=quadrature_tol * 1e-2, epsrel=0.0, full_output=1)
    value, abserr = result[0], result[1]
    if len(result) > 3 or abserr > quadrature_tol:
        raise RuntimeError(
            f"quadrature did not certify tolerance {quadrature_tol:g} at t={t!r}: "
            f"achieved error estimate {abserr:g}"
        )
    return value
