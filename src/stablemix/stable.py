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
from typing import List, NamedTuple, Optional, Sequence, Tuple

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


def _require_finite(name: str, value: float) -> None:
    """A ValueError naming ``name`` unless ``value`` is finite; written so
    that a NaN is rejected too."""
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {value}")


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
        _require_finite("slow_power", self.slow_power)
        _require_positive("scale", self.scale)
        _require_finite("scale", self.scale)
        if self.centering_kind not in _CENTERING_KINDS:
            raise ValueError(
                f"centering_kind must be one of {_CENTERING_KINDS}, got {self.centering_kind!r}"
            )
        if self.centering_kind == "n_times_truncated_mean":
            if self.centering_tau is None or not self.centering_tau > 0:
                raise ValueError("n_times_truncated_mean centering needs a positive centering_tau")
        if self.centering_tau is not None:
            _require_finite("centering_tau", self.centering_tau)

    def slow_value(self, n: int) -> float:
        """The slowly varying factor h(n)."""
        if self.slow_kind == "constant":
            return 1.0
        if self.slow_kind == "log_power":
            return (1.0 + math.log(n)) ** self.slow_power
        return (1.0 + math.log1p(math.log(n))) ** self.slow_power

    def b(self, n: int) -> float:
        """The norming denominator b_n; a ValueError naming n and the norming
        index when b_n is not a finite positive number."""
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        try:
            b = self.scale * n ** (1.0 / self.alpha) * self.slow_value(n)
        except OverflowError:
            b = math.inf
        if not 0.0 < b < math.inf:
            raise ValueError(f"b_n at n={n} under norming index {self.alpha} is not a finite positive number")
        return b


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
    regardless of scheduling order. The sampler does not build these
    generators one by one: :func:`_replicate_streams` computes the same
    states for all its replicates at once.
    """
    return np.random.SeedSequence([seed, *path])


# NumPy's SeedSequence hash, O'Neill's seed_seq_fe with a pool of 4 words,
# and PCG64's 128-bit LCG multiplier (O'Neill 2014, "PCG: A Family of Simple
# Fast Space-Efficient Statistically Good Algorithms for Random Number
# Generation").
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def _uint32_words(n: int) -> List[int]:
    """The little-endian 32-bit words that SeedSequence makes of a
    non-negative integer; 0 is one word."""
    n = int(n)
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count + 1`` constants of one of SeedSequence's hash
    multiplier sequences, as a uint32 column."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return np.array(constants, np.uint32)[:, None]


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of successive values, row i of ``values``
    (or one row broadcast) under constants i and i + 1 of ``constants``."""
    values = (values ^ constants[:-1]) * constants[1:]
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _state_words(seed: int, leaf: int, ks: np.ndarray) -> np.ndarray:
    """The four uint64 words of ``SeedSequence([seed, k, leaf])
    .generate_state(4, np.uint64)`` for every k of the uint32 array ``ks``,
    one row per k.

    The hash runs on uint32 arrays with a column per k, so every multiply
    wraps without a warning. Each pool word that one source word mixes into
    takes the next hash constant in pool order, so those mixes are one array
    operation.
    """
    seed_words = _uint32_words(seed)
    words = seed_words + [0] + _uint32_words(leaf)
    # Zero words pad the entropy to the pool size, as hashmix(0) does.
    entropy = np.zeros((max(len(words), _POOL_SIZE), ks.size), np.uint32)
    entropy[: len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(seed_words)] = ks
    constants = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * len(entropy))
    pool = _hashmix(entropy[:_POOL_SIZE], constants[: _POOL_SIZE + 1])
    used = _POOL_SIZE
    for i_src in range(_POOL_SIZE):
        i_dst = [i for i in range(_POOL_SIZE) if i != i_src]
        mixed = _hashmix(pool[i_src], constants[used : used + _POOL_SIZE])
        pool[i_dst] = _mix(pool[i_dst], mixed)
        used += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, constants[used : used + _POOL_SIZE + 1]))
        used += _POOL_SIZE
    # generate_state(4, np.uint64) reads 8 words, cycling through the pool,
    # and pairs them low word first.
    state = _hashmix(np.tile(pool, (2, 1)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


def _replicate_streams(seed: int, leaf: int, replicates: Sequence[int]):
    """Yield, for each replicate index k of ``replicates`` in order, a
    generator in the state of ``np.random.default_rng(replicate_seed(seed,
    k, leaf))``.

    It is one generator, reused: each k's state is set just before it is
    yielded, so a caller is done with one stream before it asks for the
    next. The SeedSequence hash runs over all k at once (``_state_words``)
    and PCG64's seeding, ``pcg_setseq_128_srandom_r``, in Python ints.
    Every k is below 2**32. A seed that SeedSequence rejects raises its
    error, before anything is yielded.
    """
    ks = np.asarray(replicates, dtype=np.uint32)
    if not ks.size:
        return
    # Built from the first stream's own seed, which checks ``seed`` as
    # SeedSequence does; a negative seed raises ValueError here.
    rng = np.random.default_rng(replicate_seed(seed, int(ks[0]), leaf))
    bit_generator = rng.bit_generator
    fresh = bit_generator.state  # a new generator's, holding no buffered output
    # Row by row, so that no list of Python ints for every k is built.
    for state_hi, state_lo, seq_hi, seq_lo in map(np.ndarray.tolist, _state_words(seed, leaf, ks)):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = (((state_hi << 64 | state_lo) + inc) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {**fresh, "state": {"state": state, "inc": inc}}
        yield rng


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


def _tail_coefficients(alpha: float, beta: float) -> Tuple[float, ...]:
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
    return tuple(coeffs)


# The kernels int_{-1}^{1} y**l exp(i*u*y) dy / 2 for l = 0, 1, 2 (real,
# imaginary, real part) as power series below u = 1, one row each, the
# coefficient of u**(2j) in column j; the l = 1 row omits a factor u.
_KERNEL_TERMS = 11
_KERNEL_SERIES = np.array([
    [(-1.0) ** j / f(j) for j in range(_KERNEL_TERMS)]
    for f in (
        lambda j: math.factorial(2 * j + 1),
        lambda j: math.factorial(2 * j + 1) * (2 * j + 3),
        lambda j: math.factorial(2 * j) * (2 * j + 3),
    )
])


class _Table(NamedTuple):
    alpha: float
    t: np.ndarray
    psi: np.ndarray  # beta*w*t**alpha
    gw: np.ndarray  # weight * exp(-t**alpha) / pi
    gp: np.ndarray  # gw / t, the Gil-Pelaez weights
    even: np.ndarray  # row j is t**(2j), j < _KERNEL_TERMS, by repeated products
    re0: np.ndarray  # gw*cos(t*0.0 + psi), the centred weights of _core_moments at m = +0.0
    im0: np.ndarray  # -gw*sin(t*0.0 + psi)
    right: Tuple[float, ...]  # tail coefficients of Z
    left: Tuple[float, ...]  # tail coefficients of -Z


@functools.lru_cache(maxsize=16)
def _table(alpha: float, beta: float) -> _Table:
    w = math.tan(math.pi * alpha / 2.0)
    upper = _DECAY ** (1.0 / alpha)
    rate = _SPLIT + abs(beta * w) * alpha * upper ** (alpha - 1.0)
    t, weights = _t_rule(min(1.0, _PANEL_PHASE / rate), upper)
    power = t ** alpha
    gw = weights * np.exp(-power) / math.pi
    even = np.empty((_KERNEL_TERMS, t.size))
    even[0] = 1.0
    t2 = t * t
    for j in range(1, _KERNEL_TERMS):
        np.multiply(even[j - 1], t2, out=even[j])
    psi = beta * w * power
    phase = t * 0.0 + psi
    table = _Table(
        alpha, t, psi, gw, gw / t, even, gw * np.cos(phase), -gw * np.sin(phase),
        _tail_coefficients(alpha, beta), _tail_coefficients(alpha, -beta),
    )
    for array in (table.t, table.psi, table.gw, table.gp, table.even, table.re0, table.im0):
        array.flags.writeable = False  # shared by every caller of the cache
    return table


def _tail(coeffs: Tuple[float, ...], alpha: float, x: float) -> float:
    """The tail series at x > _SPLIT by Horner's rule, bitwise ``np.polyval``."""
    y = x ** -alpha
    acc = 0.0
    for coeff in reversed(coeffs):
        acc = acc * y + coeff
    return max(0.0, acc * y)


def _fourier_masses(params: StableParams, xs: Sequence[float], rights: Sequence[bool]) -> List[float]:
    """P(X > x) where ``right``, else P(X <= x), at each pair of ``xs`` and ``rights``
    in the Fourier region, the smaller one never as 1 - F. The core points share
    one matrix of phases, and a NaN point is a ValueError.

    At beta = 0, psi is a signed zero, so sin(-z*t + psi) is -sin(z*t + psi)
    bit for bit (NumPy's sin is odd, and + psi changes no |z|*t), and so is
    the dot product: each distinct |z| takes one phase row, and a z < 0 the
    negated centre. Only a sum that is exactly 0 can differ, in its sign,
    which 0.5 +- centre drops."""
    tab = _table(params.alpha, params.beta)
    scale = params.c ** (1.0 / params.alpha)
    zs = [(x - params.gamma) / scale for x in xs]
    for i, z in enumerate(zs):
        if z != z:
            raise ValueError(f"stable distribution function at a NaN point (index {i} of {len(xs)})")
    core = [z for z in zs if abs(z) <= _SPLIT]
    if params.beta == 0.0:
        sizes = list(dict.fromkeys(abs(z) for z in core))
        rows = np.sin(np.multiply.outer(sizes, tab.t))
        by_size = dict(zip(sizes, [float(np.dot(tab.gp, row)) for row in rows]))
        centres = iter([-by_size[-z] if z < 0 else by_size[z] for z in core])
    else:
        phases = np.sin(np.multiply.outer(core, tab.t) + tab.psi)
        centres = iter([float(np.dot(tab.gp, row)) for row in phases])
    out = []
    for z, right in zip(zs, rights):
        if abs(z) > _SPLIT:
            far = _tail(tab.right, tab.alpha, z) if z > 0 else _tail(tab.left, tab.alpha, -z)
            out.append(far if right == (z > 0) else 1.0 - far)
        else:
            centre = next(centres)
            out.append(min(1.0, max(0.0, 0.5 - centre if right else 0.5 + centre)))
    return out


def _core_moments(tab: _Table, lo: float, hi: float) -> Tuple[float, float, float]:
    """int_{-h}^{h} y**l p(m + y) dy for l = 0, 1, 2 over [lo, hi] = [m-h, m+h]
    inside [-_SPLIT, _SPLIT], where p is the density of Z.

    On the nodes with t*h <= 1 the kernels are series in (t*h)**2, so their
    sums are series in h**2 over the node moments sum re*t**(2j) and
    sum im*t**(2j+1); the closed forms run only on the other nodes. A
    symmetric [-h, h] has m = +0.0 and reads the table's centred weights."""
    m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if m == 0.0 and math.copysign(1.0, m) > 0.0:
        re, im = tab.re0, tab.im0
    else:
        phase = tab.t * m + tab.psi
        re, im = tab.gw * np.cos(phase), -tab.gw * np.sin(phase)
    u = tab.t * h
    near = u <= 1.0
    # Two matrix-vector products: a matrix-matrix one would go through BLAS
    # gemm, whose first call alone adds 0.25 MB of resident buffers.
    even_moments = tab.even @ np.where(near, re, 0.0)
    odd_moments = tab.even @ np.where(near, im * tab.t, 0.0)
    h2 = np.full(_KERNEL_TERMS, h * h)
    h2[0] = 1.0
    series = _KERNEL_SERIES * np.cumprod(h2)
    k0 = float(np.dot(series[0], even_moments))
    k1 = h * float(np.dot(series[1], odd_moments))
    k2 = float(np.dot(series[2], even_moments))
    if not near.all():
        u, re, im = u[~near], re[~near], im[~near]
        s, c, uu = np.sin(u), np.cos(u), u * u
        k0 += float(np.dot(re, s / u))
        k1 += float(np.dot(im, (s - u * c) / uu))
        k2 += float(np.dot(re, (uu * s + 2.0 * u * c - 2.0 * s) / (uu * u)))
    return 2.0 * h * k0, 2.0 * h * h * k1, 2.0 * h ** 3 * k2


def _tail_moments(coeffs: Tuple[float, ...], alpha: float, lo: float, hi: float) -> Tuple[float, float, float]:
    """int_lo^hi z**l p(z) dz for l = 0, 1, 2 and _SPLIT <= lo < hi < inf,
    with p the derivative of the tail series."""
    ka = alpha * np.arange(1, len(coeffs) + 1)
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
