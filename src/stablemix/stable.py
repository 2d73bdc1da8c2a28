"""Stable-law characteristic functions, exact sampling, and norming sequences.

The canonical form used throughout the package writes the log characteristic
function of a stable law as

    g(t) = i*t*gamma - c*|t|**alpha * (1 + i*beta*w(t, alpha)*sign(t))

with ``w(t, alpha) = tan(pi*alpha/2)`` for ``alpha != 1`` and
``w(t, 1) = (2/pi)*log|t|``. The ``alpha = 2`` case degenerates to
``i*t*gamma - c*t**2`` no matter the skewness, and ``c = 0`` encodes the
point mass at ``gamma``, stored canonically as ``(1, gamma, 0, 0)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .measures import AtomicMeasure

__all__ = [
    "StableParams",
    "LevyKhintchinePair",
    "NormingSequence",
    "eval_w",
    "eval_g",
    "stable_cf",
    "levy_khintchine_psi",
    "sample_stable",
    "sample_stable_with",
    "norming_values",
    "replicate_seed",
]


@dataclass(frozen=True)
class StableParams:
    """Canonical stable-law parameters (alpha, gamma, c, beta).

    :param alpha: index in (0, 2]
    :param gamma: location
    :param c: nonnegative scale; ``c = 0`` is the point mass at ``gamma``
    :param beta: skewness in [-1, 1]

    A zero scale pins the stored index and skewness to ``(1, gamma, 0, 0)``
    so that point masses have a unique representation.
    """

    alpha: float
    gamma: float
    c: float
    beta: float

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        gamma = float(self.gamma)
        c = float(self.c)
        beta = float(self.beta)
        if not 0.0 < alpha <= 2.0:
            raise ValueError(f"index alpha must lie in (0, 2], got {alpha}")
        if c < 0.0:
            raise ValueError(f"scale c must be nonnegative, got {c}")
        if not -1.0 <= beta <= 1.0:
            raise ValueError(f"skewness beta must lie in [-1, 1], got {beta}")
        if not (math.isfinite(alpha) and math.isfinite(gamma) and math.isfinite(c) and math.isfinite(beta)):
            raise ValueError("stable parameters must be finite")
        if c == 0.0:
            alpha = 1.0
            beta = 0.0
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "beta", beta)

    @property
    def is_point_mass(self) -> bool:
        return self.c == 0.0


@dataclass(frozen=True)
class LevyKhintchinePair:
    """Centering plus finite jump-intensity measure of an infinitely divisible law.

    ``mu`` is the linear centering and ``rho`` a finite atomic measure on the
    real line. Atom locations must be finite, which :class:`AtomicMeasure`
    already guarantees; an atom at 0 carries the Gaussian component.
    """

    mu: float
    rho: AtomicMeasure

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"centering mu must be finite, got {self.mu}")
        if not isinstance(self.rho, AtomicMeasure):
            raise TypeError("rho must be an AtomicMeasure")


_SLOW_KINDS = ("constant", "log_power", "loglog_power")
_CENTERING_KINDS = ("zero", "n_times_mean", "n_times_truncated_mean")


@dataclass(frozen=True)
class NormingSequence:
    """Norming pair b_n = scale * n**(1/alpha) * h(n) and c_n = a_n / b_n.

    The slowly varying factor h is one of
      constant:          h(n) = 1
      log_power(p):      h(n) = (1 + ln n)**p
      loglog_power(p):   h(n) = (1 + ln(1 + ln n))**p
    (the shifted logarithms keep b_1 > 0). The centering a_n is either zero,
    n times the mean of the realized directing measure, or n times its
    truncated mean over [-tau*b_n, tau*b_n].

    ``alpha = math.inf`` gives the constant norming b_n = scale, useful as a
    negative control in the convergence checkers.
    """

    alpha: float
    slow_kind: str = "constant"
    slow_power: float = 1.0
    scale: float = 1.0
    centering_kind: str = "zero"
    centering_tau: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 2.0 and not (math.isinf(self.alpha) and self.alpha > 0):
            raise ValueError(f"norming index must lie in (0, 2] or be inf, got {self.alpha}")
        if self.slow_kind not in _SLOW_KINDS:
            raise ValueError(f"slow_kind must be one of {_SLOW_KINDS}, got {self.slow_kind!r}")
        if self.slow_kind != "constant" and self.slow_power <= 0:
            raise ValueError("slow_power must be positive for varying slow factors")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.centering_kind not in _CENTERING_KINDS:
            raise ValueError(
                f"centering_kind must be one of {_CENTERING_KINDS}, got {self.centering_kind!r}"
            )
        if self.centering_kind == "n_times_truncated_mean":
            if self.centering_tau is None or self.centering_tau <= 0:
                raise ValueError("n_times_truncated_mean centering needs a positive centering_tau")

    def slow_value(self, n: int) -> float:
        """The slowly varying factor h(n)."""
        if self.slow_kind == "constant":
            return 1.0
        if self.slow_kind == "log_power":
            return (1.0 + math.log(n)) ** self.slow_power
        return (1.0 + math.log1p(math.log(n))) ** self.slow_power

    def b(self, n: int) -> float:
        """The norming denominator b_n."""
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        return self.scale * n ** (1.0 / self.alpha) * self.slow_value(n)


def norming_values(seq: NormingSequence, n: int, realization=None) -> Tuple[float, float]:
    """Return (b_n, c_n) for a norming sequence at sample size ``n``.

    Centerings other than ``zero`` depend on the realized directing measure,
    which must then be supplied as ``realization`` (any object exposing
    ``mean()`` and ``truncated_mean(T)``).
    """
    b = seq.b(n)
    if seq.centering_kind == "zero":
        return b, 0.0
    if realization is None:
        raise ValueError(
            f"centering {seq.centering_kind!r} needs the realized directing measure"
        )
    if seq.centering_kind == "n_times_mean":
        a = n * realization.mean()
    else:
        a = n * realization.truncated_mean(seq.centering_tau * b)
    return b, a / b


def eval_w(t: float, alpha: float) -> float:
    """The angular factor w(t, alpha) of the canonical stable exponent.

    Use: w multiplies the skewness term of the exponent.
    Input: any real t (nonzero when alpha == 1) and index alpha in (0, 2].
    Output: tan(pi*alpha/2) off alpha == 1, else (2/pi)*log|t|.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"index alpha must lie in (0, 2], got {alpha}")
    if alpha != 1.0:
        return math.tan(math.pi * alpha / 2.0)
    if t == 0.0:
        raise ValueError("w(t, 1) is undefined at t = 0; treat the exponent as 0 there")
    return (2.0 / math.pi) * math.log(abs(t))


def eval_g(t: float, params: StableParams) -> complex:
    """Log characteristic function of a stable law at a single point.

    Returns exactly 0 at t = 0, and i*t*gamma - c*t**2 when alpha == 2
    regardless of skewness.
    """
    if t == 0.0:
        return 0j
    if params.c == 0.0:
        return 1j * t * params.gamma
    if params.alpha == 2.0:
        return 1j * t * params.gamma - params.c * t * t
    w = eval_w(t, params.alpha)
    sign = 1.0 if t > 0 else -1.0
    modulus = params.c * abs(t) ** params.alpha
    return 1j * t * params.gamma - modulus * (1.0 + 1j * params.beta * w * sign)


def stable_cf(t: float, params: StableParams) -> complex:
    """Characteristic function exp(g(t)) of a stable law."""
    return cmath.exp(eval_g(t, params))


def _lk_kernel(t: float, x: float) -> complex:
    """Integrand kernel of the jump part, continuously extended at x = 0.

    The direct expression (e^{itx} - 1 - itx/(1+x^2)) * (1+x^2)/x^2 loses
    all significant digits when |t*x| is small, so a fourth-order series
    takes over below 1e-4 where its truncation error is under 1e-18.
    """
    if x == 0.0:
        return complex(-t * t / 2.0)
    tx = t * x
    one_plus = 1.0 + x * x
    if abs(tx) < 1e-4:
        real = one_plus * (-t * t / 2.0 + t ** 4 * x * x / 24.0)
        imag = one_plus * (-(t ** 3) * x / 6.0 + t ** 5 * x ** 3 / 120.0) + t * x
        return complex(real, imag)
    value = cmath.exp(1j * tx) - 1.0 - 1j * tx / one_plus
    return value * one_plus / (x * x)


def levy_khintchine_psi(t: float, pair: LevyKhintchinePair) -> complex:
    """Log characteristic function i*mu*t + sum of jump-kernel terms.

    ``exp(levy_khintchine_psi(t, pair))`` is a valid characteristic function
    for every finite atomic ``pair.rho``.
    """
    acc = 1j * pair.mu * t
    for loc, mass in pair.rho.atoms:
        acc += mass * _lk_kernel(t, loc)
    return acc


def sample_stable(params: StableParams, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` i.i.d. variates of the stable law ``params``.

    Deterministic given ``seed``. The sampler uses the exact trigonometric
    transformation of a uniform angle and an exponential radius, with the
    alpha = 1 and alpha = 2 branches special-cased; no rejection loop.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return sample_stable_with(rng, params, count)


def sample_stable_with(rng: np.random.Generator, params: StableParams, count: int) -> np.ndarray:
    """Like :func:`sample_stable` but drawing from a caller-provided generator."""
    alpha, gamma, c, beta = params.alpha, params.gamma, params.c, params.beta
    if c == 0.0:
        return np.full(count, gamma)
    if alpha == 2.0:
        return gamma + math.sqrt(2.0 * c) * rng.standard_normal(count)
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, count)
    w = rng.exponential(1.0, count)
    if alpha == 1.0:
        # The skewness enters the exponent as +beta here, so the driver
        # skew equals beta; rescaling by sigma shifts the location by
        # (2/pi)*beta*sigma*ln(sigma), which the last term undoes.
        sigma = c
        phi = math.pi / 2.0 + beta * u
        core = phi * np.tan(u)
        if beta != 0.0:
            core = core - beta * np.log((math.pi / 2.0) * w * np.cos(u) / phi)
        x0 = (2.0 / math.pi) * core
        drift = (2.0 / math.pi) * beta * sigma * math.log(sigma) if beta != 0.0 else 0.0
        return sigma * x0 + gamma + drift
    # Off alpha = 1 the exponent's skew term carries the opposite sign of
    # the driver convention, hence the flipped skew below.
    skew = -beta
    sigma = c ** (1.0 / alpha)
    tan_half = math.tan(math.pi * alpha / 2.0)
    shift = math.atan(skew * tan_half) / alpha
    scale0 = (1.0 + (skew * tan_half) ** 2) ** (1.0 / (2.0 * alpha))
    x0 = (
        scale0
        * np.sin(alpha * (u + shift))
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * (u + shift)) / w) ** ((1.0 - alpha) / alpha)
    )
    return sigma * x0 + gamma


def replicate_seed(seed: int, *path: int) -> np.random.SeedSequence:
    """Documented seed-splitting rule for parallel work.

    Every independent task derives its stream as SeedSequence([seed, *path])
    where ``path`` encodes the task coordinates. The sampler uses the path
    (k, 0) for the directing draw of replicate k and (k, 1) for that
    replicate's row entries. Identical coordinates give identical streams
    regardless of scheduling order.
    """
    return np.random.SeedSequence([seed, *path])
