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
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

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


def _require_positive(name: str, value: float) -> None:
    """A ValueError naming ``name`` unless ``value`` is positive; written so
    that a NaN is rejected too."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


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
        if self.slow_kind != "constant" and not self.slow_power > 0:
            raise ValueError("slow_power must be positive for varying slow factors")
        _require_positive("scale", self.scale)
        if self.centering_kind not in _CENTERING_KINDS:
            raise ValueError(
                f"centering_kind must be one of {_CENTERING_KINDS}, got {self.centering_kind!r}"
            )
        if self.centering_kind == "n_times_truncated_mean":
            if self.centering_tau is None or not self.centering_tau > 0:
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


# ---------------------------------------------------------------------------
# Distribution functionals for 1 < alpha < 2 from the closed-form exponent.
#
# A stable law with c > 0 is X = gamma + c**(1/alpha) * Z, where Z has the
# exponent of eval_g with gamma = 0 and c = 1, so phi(t) = exp(-t**alpha) *
# exp(-i*psi(t)) for t > 0 with psi(t) = beta*tan(pi*alpha/2)*t**alpha. Every
# functional below is evaluated for Z on Gauss-Legendre t-nodes that depend
# only on (alpha, beta):
#   - |z| <= _SPLIT: Gil-Pelaez (1951) inversion for the distribution
#     function, and the same integral with the closed-form kernels
#     int z**k exp(-i*t*z) dz for truncated moments;
#   - |z| > _SPLIT: Bergstrom's tail series P(Z > x) ~ sum_k d_k x**(-k*alpha)
#     (Nolan 1997, Stochastic Models 13(4)), integrated term by term for the
#     moments.
# The smoothed mean is b * int_0^inf exp(-b*t) Im phi_X(t) dt, which does not
# oscillate in b. Tests pin this region (alpha in [1.1, 2), any beta) against
# scipy's levy_stable and the quadrature path of the directing layer.
# ---------------------------------------------------------------------------

_FOURIER_MIN_ALPHA = 1.1
_SPLIT = 20.0  # core |z| <= _SPLIT by inversion, beyond it by the tail series
_DECAY = 40.0  # exp(-t**alpha) < 5e-18 for t > _DECAY**(1/alpha)
_PANEL_PHASE = 8.0  # largest phase change across one 16-node panel
_DYADIC_DEPTH = 45  # geometric panels between width*2**-45 and width
_SERIES_TERMS = 80  # cap on the tail series, which stops at its smallest term
_SMOOTH_MAX_PANELS = 512


def _fourier_region(params: StableParams) -> bool:
    """Whether the functionals below cover ``params``; the rest use scipy."""
    return _FOURIER_MIN_ALPHA <= params.alpha < 2.0 and params.c > 0.0


@functools.lru_cache(maxsize=None)
def _legendre(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], by Newton's method on the
    three-term recurrence (numpy's leggauss would load LAPACK's eigensolver,
    about 0.65 MB of resident memory, for two small rules)."""
    x = np.cos(math.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for k in range(2, m + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        slope = m * (x * p - p_prev) / (x * x - 1.0)
        step = p / slope
        if np.max(np.abs(step)) < 1e-15:
            break
        x = x - step
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def _panels(edges: np.ndarray, m: int) -> Tuple[np.ndarray, np.ndarray]:
    x, w = _legendre(m)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _t_rule(width: float, upper: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, upper]: panels of at most ``width``, the first
    split geometrically towards 0, where t**alpha is not smooth."""
    dyadic = np.concatenate(([0.0], width * 2.0 ** -np.arange(_DYADIC_DEPTH, -1, -1.0)))
    count = max(1, math.ceil(upper / width - 1.0))
    uniform = np.linspace(width, max(upper, 2.0 * width), count + 1)
    t0, w0 = _panels(dyadic, 12)
    t1, w1 = _panels(uniform, 16)
    return np.concatenate((t0, t1)), np.concatenate((w0, w1))


def _tail_coefficients(alpha: float, beta: float) -> np.ndarray:
    """d_k with P(Z > x) ~ sum_k d_k x**(-k*alpha), cut at its smallest term
    at x = _SPLIT. With phi = exp(-kappa*t**alpha), kappa = 1 + i*beta*w,
    d_k = |kappa|**k Gamma(k*alpha)/k! sin(k*rho)/pi, rho = pi(1 - alpha/2) +
    arg kappa; rho is exactly 0 for beta = 1, whose right tail is lighter
    than any power."""
    w = math.tan(math.pi * alpha / 2.0)
    half = math.pi * (1.0 - alpha / 2.0)
    rho = half * (1.0 - beta) if abs(beta) == 1.0 else half + math.atan(beta * w)
    log_kappa = 0.5 * math.log1p((beta * w) ** 2)
    log_split = alpha * math.log(_SPLIT)
    coeffs: list = []
    for k in range(1, _SERIES_TERMS + 1):
        log_size = k * log_kappa + math.lgamma(k * alpha) - math.lgamma(k + 1.0)
        at_split = log_size - k * log_split
        if k == 1:
            cutoff = at_split + math.log(1e-18)
        elif at_split > previous or at_split < cutoff:
            break
        previous = at_split
        coeffs.append(math.exp(log_size) * math.sin(k * rho) / math.pi)
    return np.array(coeffs)


class _Table(NamedTuple):
    alpha: float
    t: np.ndarray
    psi: np.ndarray  # beta*w*t**alpha
    gw: np.ndarray  # weight * exp(-t**alpha) / pi
    gp: np.ndarray  # gw / t, the Gil-Pelaez weights
    right: np.ndarray  # tail coefficients of Z
    left: np.ndarray  # tail coefficients of -Z


@functools.lru_cache(maxsize=16)
def _table(alpha: float, beta: float) -> _Table:
    w = math.tan(math.pi * alpha / 2.0)
    upper = _DECAY ** (1.0 / alpha)
    rate = _SPLIT + abs(beta * w) * alpha * upper ** (alpha - 1.0)
    t, weights = _t_rule(min(1.0, _PANEL_PHASE / rate), upper)
    power = t ** alpha
    gw = weights * np.exp(-power) / math.pi
    table = _Table(
        alpha, t, beta * w * power, gw, gw / t,
        _tail_coefficients(alpha, beta), _tail_coefficients(alpha, -beta),
    )
    for array in table[1:]:
        array.flags.writeable = False  # shared by every caller of the cache
    return table


def _tail(coeffs: np.ndarray, alpha: float, x: float) -> float:
    """The tail series at x > _SPLIT."""
    y = x ** -alpha
    return max(0.0, float(np.polyval(coeffs[::-1], y)) * y)


def _fourier_mass(params: StableParams, x: float, right: bool) -> float:
    """P(X > x) when ``right``, else P(X <= x), for params in the Fourier
    region; the smaller of the two is computed directly, never as 1 - F."""
    tab = _table(params.alpha, params.beta)
    z = (x - params.gamma) / params.c ** (1.0 / params.alpha)
    if abs(z) > _SPLIT:
        far = _tail(tab.right, tab.alpha, z) if z > 0 else _tail(tab.left, tab.alpha, -z)
        return far if right == (z > 0) else 1.0 - far
    centre = float(np.dot(tab.gp, np.sin(tab.t * z + tab.psi)))
    return min(1.0, max(0.0, 0.5 - centre if right else 0.5 + centre))


# Power series of the symmetric kernels below |u| = 1, in powers of u**2.
_KERNEL_SERIES = tuple(
    np.array([(-1.0) ** m / f(m) for m in range(11)][::-1])
    for f in (
        lambda m: math.factorial(2 * m + 1),
        lambda m: math.factorial(2 * m + 1) * (2 * m + 3),
        lambda m: math.factorial(2 * m) * (2 * m + 3),
    )
)


def _kernels(t: np.ndarray, h: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int_{-h}^{h} y**l exp(i*t*y) dy for l = 0, 1, 2, as the real K0, the
    imaginary part of the l = 1 kernel, and the real K2."""
    u = t * h
    small = u <= 1.0
    us = np.where(small, u, 1.0)
    u2 = us * us
    s, c = np.sin(u), np.cos(u)
    k0 = np.where(small, np.polyval(_KERNEL_SERIES[0], u2), s / u)
    k1 = np.where(small, us * np.polyval(_KERNEL_SERIES[1], u2), (s - u * c) / (u * u))
    k2 = np.where(small, np.polyval(_KERNEL_SERIES[2], u2), (u * u * s + 2.0 * u * c - 2.0 * s) / u ** 3)
    return 2.0 * h * k0, 2.0 * h * h * k1, 2.0 * h ** 3 * k2


def _core_moments(tab: _Table, lo: float, hi: float) -> Tuple[float, float, float]:
    """int_{-h}^{h} y**l p(m + y) dy for l = 0, 1, 2 over [lo, hi] = [m-h, m+h]
    inside [-_SPLIT, _SPLIT], where p is the density of Z."""
    m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    phase = tab.t * m + tab.psi
    re, im = tab.gw * np.cos(phase), -tab.gw * np.sin(phase)
    k0, k1, k2 = _kernels(tab.t, h)
    return float(np.dot(re, k0)), float(np.dot(im, k1)), float(np.dot(re, k2))


def _tail_moments(coeffs: np.ndarray, alpha: float, lo: float, hi: float) -> Tuple[float, float, float]:
    """int_lo^hi z**l p(z) dz for l = 0, 1, 2 and _SPLIT <= lo < hi < inf,
    with p the derivative of the tail series."""
    ka = alpha * np.arange(1, coeffs.size + 1)
    log_ratio = math.log(hi / lo)
    out = []
    for l in (0, 1, 2):
        e = l - ka
        out.append(float(np.dot(coeffs * ka, lo ** e * np.expm1(e * log_ratio) / e)))
    return out[0], out[1], out[2]


def _fourier_truncated(params: StableParams, bound: float, order: int) -> float:
    """int_{|x| <= bound} x**order dP for order 1 or 2 in the Fourier region."""
    tab = _table(params.alpha, params.beta)
    gamma, scale = params.gamma, params.c ** (1.0 / params.alpha)
    lo, hi = (-bound - gamma) / scale, (bound - gamma) / scale

    def combine(center: float, step: float, moments) -> float:
        # int (center + step*y)**order over the moments of y
        y0, y1, y2 = moments
        if order == 1:
            return center * y0 + step * y1
        return center * center * y0 + 2.0 * center * step * y1 + step * step * y2

    total = 0.0
    core_lo, core_hi = max(lo, -_SPLIT), min(hi, _SPLIT)
    if core_lo < core_hi:
        middle = 0.5 * (core_lo + core_hi)
        total += combine(gamma + scale * middle, scale, _core_moments(tab, core_lo, core_hi))
    if hi > _SPLIT:
        total += combine(gamma, scale, _tail_moments(tab.right, tab.alpha, max(lo, _SPLIT), hi))
    if lo < -_SPLIT:
        total += combine(gamma, -scale, _tail_moments(tab.left, tab.alpha, max(-hi, _SPLIT), -lo))
    return total


def _fourier_smoothed(params: StableParams, b: float) -> Optional[float]:
    """E[b*X/(b**2 + X**2)] = b * int_0^inf exp(-b*t) Im phi_X(t) dt in the
    Fourier region, or None when the integrand oscillates too fast for the
    panel budget. Written in u = c**(1/alpha) * t, the integrand is
    lam*exp(-lam*u - u**alpha) * sin(eta*u - psi(u)) with lam = b/scale and
    eta = gamma/scale."""
    alpha = params.alpha
    scale = params.c ** (1.0 / alpha)
    lam, eta = b / scale, params.gamma / scale
    skew = params.beta * math.tan(math.pi * alpha / 2.0)
    upper = min(_DECAY ** (1.0 / alpha), _DECAY / lam)
    rate = lam + abs(eta) + abs(skew) * alpha * upper ** (alpha - 1.0)
    width = min(upper, _PANEL_PHASE / rate)
    if upper / width > _SMOOTH_MAX_PANELS:
        return None
    u, weights = _t_rule(width, upper)
    power = u ** alpha
    integrand = np.exp(-lam * u - power) * np.sin(eta * u - skew * power)
    return lam * float(np.dot(weights, integrand))
