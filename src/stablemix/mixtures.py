"""Mixtures of stable characteristic functions.

A mixing measure is a finite weighted set of stable parameter points. The
characteristic function of the mixture evaluates the component cf at each
atom and averages with the weights; for several coordinates the product over
coordinates happens inside the mixture sum, which is what distinguishes a
genuine mixture from an i.i.d. product law with the same margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .measures import _check_weights
from .stable import StableParams, stable_cf
from .stable import levy_khintchine_psi  # not called here; perfbench/spans.py patches this name

__all__ = [
    "MixingMeasure",
    "mixture_cf",
    "joint_mixture_cf",
    "cauchy_from_gaussian_scale_mixture",
]

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


# The trapezoid rule of cauchy_from_gaussian_scale_mixture, in s = log u:
# the coarse step and the range outside which the integrand is below 1e-17
# for every t.
_IDENTITY_STEP = 0.125
_IDENTITY_RANGE = (-40.0, 4.0)
_EPS = 2.0 ** -52


def cauchy_from_gaussian_scale_mixture(t: float, quadrature_tol: float = 1e-10) -> float:
    """Evaluate the Gaussian scale mixture that reproduces exp(-|t|).

    Integrates exp(-t**2*s**2/2) against the mixing density
    sqrt(2/pi)*exp(-1/(2*s**2))/s**2 over s in (0, inf). The substitution
    u = 1/s turns the integrand into sqrt(2/pi)*exp(-u**2/2 - t**2/(2*u**2)),
    which decays like a Gaussian on both ends. In log u it is analytic in the
    strip |Im| < pi/4 and decays at least exponentially on the real line, so
    a trapezoid rule with a fixed step converges geometrically in 1/step
    (Trefethen & Weideman, SIAM Review 56(3), 2014). The rule is applied at
    step 1/8 and at step 1/16 on log u in [-40, 4]; the value is the finer
    sum and the error estimate the gap between the two, but no less than
    the rounding of the finer sum.

    :param t: evaluation point
    :param quadrature_tol: absolute tolerance the error estimate must meet
    :raises RuntimeError: when the error estimate exceeds the tolerance (or
        is NaN); the message carries the achieved error estimate
    """
    if not quadrature_tol > 0:
        raise ValueError("quadrature_tol must be positive")
    t2 = float(t) * float(t)
    lo, hi = _IDENTITY_RANGE
    h = _IDENTITY_STEP
    s = np.linspace(lo, hi, round(2.0 * (hi - lo) / h) + 1)
    with np.errstate(over="ignore"):
        g = math.sqrt(2.0 / math.pi) * np.exp(s - 0.5 * np.exp(2.0 * s) - 0.5 * t2 * np.exp(-2.0 * s))
    coarse = h * math.fsum(g[::2])
    value = 0.5 * h * math.fsum(g)
    # The gap between the two sums cannot resolve an error below the
    # rounding of the sum itself, one unit in the last place.
    abserr = max(abs(value - coarse), _EPS * value)
    if not abserr <= quadrature_tol:
        raise RuntimeError(
            f"quadrature did not certify tolerance {quadrature_tol:g} at t={t!r}: "
            f"achieved error estimate {abserr:g}"
        )
    return value
