"""Per-realization characteristic quantities, spectral measures, the
restriction metric, and the pushforward maps onto stable mixing measures.

Every quantity here is a deterministic functional of one realized directing
measure and one sample size; Monte Carlo enters only through which
realizations the caller draws. The spectral side works with finite atomic
measures: the scaled tail function of a realization is discretized onto a
signed geometric grid, compared against power-law spectral shapes through a
restriction metric (an exponentially weighted integral of Levy-Prokhorov
distances between restrictions to growing open balls), and mapped to stable
mixing parameters.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .measures import AtomicMeasure
from .mixtures import MixingMeasure
from .stable import NormingSequence, StableParams, _require_positive
from .stable import norming_values  # not called here; perfbench/spans.py patches this name

__all__ = [
    "SpectralParams",
    "CharQuantities",
    "PushforwardResult",
    "DEFAULT_SPECTRAL_GRID",
    "DEFAULT_FIT_WINDOW",
    "proxy_window",
    "trunc_mean",
    "smooth_mean",
    "trunc_variance",
    "sigma_bar_proxy",
    "tail_mass_quantity",
    "tail_moment_ratio",
    "spectral_measure_lambda",
    "spectral_cdf",
    "discretize_spectral",
    "fit_spectrum",
    "prokhorov_distance",
    "dsharp",
    "stable_mixing_constant",
    "pushforward_alpha",
    "pushforward_one",
    "smoothed_location_drift",
    "char_quantities",
]

# Signed geometric grid +-2**k spanning roughly [1e-3, 1e3] on each side.
DEFAULT_SPECTRAL_GRID: Tuple[float, ...] = tuple(
    [-(2.0 ** k) for k in range(10, -11, -1)] + [2.0 ** k for k in range(-10, 11)]
)

# Power-law fits read cumulative masses at grid edges inside this window.
DEFAULT_FIT_WINDOW: Tuple[float, float] = (0.125, 8.0)

_GRID = np.array(DEFAULT_SPECTRAL_GRID)
# (index of the left edge, geometric midpoint) of each same-sign grid cell.
_CELLS: Tuple[Tuple[int, float], ...] = tuple(
    (i, math.copysign(math.sqrt(abs(left) * abs(right)), left))
    for i, (left, right) in enumerate(zip(DEFAULT_SPECTRAL_GRID, DEFAULT_SPECTRAL_GRID[1:]))
    if not left < 0 < right
)
# The positive grid edges inside the fit window, in grid order.
_FIT_EDGES = [x for x in DEFAULT_SPECTRAL_GRID if DEFAULT_FIT_WINDOW[0] <= x <= DEFAULT_FIT_WINDOW[1]]
_R_MAX = 20.0  # dsharp integrates over radii in (0, _R_MAX]

_NULL_MASS_FLOOR = 1e-8
# A spectral shape is symmetric when |c_plus - c_minus| <= _SYMMETRY_REL * (c_plus + c_minus).
_SYMMETRY_REL = 0.05
_CUM_FLOOR = 1e-12
# The Levy-Prokhorov search builds an m x m array of distances between m
# distinct atom locations: 2048 keeps it at 32 MiB. A spectral fit on the
# default grid has 40.
_MAX_CRITICAL_LOCATIONS = 2048


def _require_alpha(alpha: float) -> None:
    """A ValueError unless the tail index ``alpha`` lies in (0, 1) or (1, 2),
    at least 1e-3 away from 1; written so that a NaN is rejected too."""
    if not 0.0 < alpha < 2.0 or abs(alpha - 1.0) < 1e-3:
        raise ValueError(
            f"tail index must lie in (0, 1) or (1, 2), away from 1, got {alpha}"
        )


@dataclass(frozen=True)
class SpectralParams:
    """Two-sided power-law spectral shape with tail index ``alpha``.

    The cumulative shape is -c_minus*|x|**alpha on the negative half line and
    c_plus*x**alpha on the positive one. c_minus = c_plus = 0 encodes the
    null spectral measure.
    """

    alpha: float
    c_minus: float
    c_plus: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"spectral index must lie in (0, 2), got {self.alpha}")
        if self.c_minus < 0 or self.c_plus < 0:
            raise ValueError("spectral weights must be nonnegative")

    @property
    def is_null(self) -> bool:
        return self.c_minus == 0.0 and self.c_plus == 0.0

    @property
    def total_weight(self) -> float:
        """Mass the shape assigns to (-1, 1) excluding 0."""
        return self.c_minus + self.c_plus


@dataclass(frozen=True)
class CharQuantities:
    """Bundle of characteristic quantities for one realization at one n."""

    n: int
    tau: float
    m_trunc: float
    m_smooth: float
    sigma2_trunc: float
    sigma2_bar_proxy: float
    lambda_n: AtomicMeasure
    q_eps: float

    def __post_init__(self) -> None:
        if self.sigma2_trunc < 0:
            raise ValueError("truncated variance cannot be negative")
        if self.q_eps < 0:
            raise ValueError("two-sided tail quantity cannot be negative")


def trunc_mean(p, norming: NormingSequence, n: int, tau: float) -> float:
    """Scaled truncated mean (n/b_n) * int_{|x| <= tau*b_n} x p(dx)."""
    _require_positive("tau", tau)
    b = norming.b(n)
    return (n / b) * p.truncated_mean(tau * b)


def smooth_mean(p, norming: NormingSequence, n: int) -> float:
    """Smoothed mean n * int b_n*x/(b_n**2 + x**2) p(dx)."""
    b = norming.b(n)
    return n * p.smoothed_mean(b)


def trunc_variance(p, norming: NormingSequence, n: int, eta: float) -> float:
    """Truncated variance (n/b_n**2)[int x**2 - (int x)**2] over |x| <= eta*b_n."""
    _require_positive("eta", eta)
    b = norming.b(n)
    bound = eta * b
    first = p.truncated_mean(bound)
    second = p.truncated_second(bound)
    return max(0.0, (n / (b * b)) * (second - first * first))


def proxy_window(n: int) -> Tuple[int, ...]:
    """Default window {n/10, n/sqrt(10), n} (deduplicated, floored at 2)."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    return tuple(sorted({max(2, n // 10), max(2, round(n / math.sqrt(10.0))), n}))


def sigma_bar_proxy(p, norming: NormingSequence, n_window: Sequence[int]) -> float:
    """Finite-window stand-in for the limiting superior of the truncated variance.

    Use: evaluate trunc_variance at eta = 1/n_anchor for every m in the window,
    n_anchor being the window's largest element, and take the maximum.
    Input: increasing window of sample sizes. Output: nonnegative real.
    """
    window = list(n_window)
    if not window:
        raise ValueError("n_window must be nonempty")
    if any(b <= a for a, b in zip(window, window[1:])):
        raise ValueError(f"n_window must be increasing, got {window}")
    eta = 1.0 / window[-1]
    return max(trunc_variance(p, norming, m, eta) for m in window)


def tail_mass_quantity(p, norming: NormingSequence, n: int, eps: float) -> float:
    """Two-sided tail quantity n * p({|x| > eps*b_n}), nonnegative."""
    _require_positive("eps", eps)
    return n * p.tail_mass(eps * norming.b(n))


def tail_moment_ratio(p, x: float) -> float:
    """Ratio x**2 * p({|y| > x}) / int_{|y| <= x} y**2 p(dy).

    Diagnoses the tail index: regularly varying tails with index a0 in (0, 2)
    drive the ratio to (2 - a0)/a0.
    """
    _require_positive("x", x)
    denom = p.truncated_second(x)
    if denom <= 0:
        raise ValueError(f"truncated second moment vanishes at x = {x}")
    return x * x * p.tail_mass(x) / denom


def _cell_measure(cum: Callable[[float], float]) -> AtomicMeasure:
    """One atom per same-sign cell of the module grid, at its geometric
    midpoint, with the increment of ``cum``; ``cum`` is evaluated once per
    grid point."""
    values = [cum(x) for x in _GRID]
    atoms: List[Tuple[float, float]] = []
    for i, location in _CELLS:
        mass = values[i + 1] - values[i]
        if mass < -1e-12:
            raise RuntimeError(
                "internal error: spectral increment "
                f"{mass:g} on ({_GRID[i]:g}, {_GRID[i + 1]:g}] is negative"
            )
        if mass <= 0:
            continue
        atoms.append((location, mass))
    return AtomicMeasure.from_pairs(atoms)


def spectral_measure_lambda(p, norming: NormingSequence, n: int) -> AtomicMeasure:
    """Discretized spectral measure of one realization at sample size n.

    The underlying function is G(x) = -n*F(b_n/x) for x < 0 and
    G(x) = n*(1 - F(b_n/x)) for x > 0, nondecreasing on each half line. Each
    cell between consecutive same-sign grid points becomes an atom at the
    cell's geometric midpoint carrying the increment of G; the grid is
    ``DEFAULT_SPECTRAL_GRID`` and the cell spanning 0 is dropped (the
    spectral object is only compared away from 0).
    """
    b = norming.b(n)

    def g_value(x: float) -> float:
        if x < 0:
            return -n * p.cdf(b / x)
        return n * p.right_tail(b / x)

    return _cell_measure(g_value)


def spectral_cdf(params: SpectralParams, x: float) -> float:
    """Cumulative spectral shape: -c_minus*|x|**alpha left of 0, c_plus*x**alpha right."""
    if x == 0:
        raise ValueError("the spectral shape is undefined at x = 0")
    if x < 0:
        return -params.c_minus * (-x) ** params.alpha
    return params.c_plus * x ** params.alpha


def discretize_spectral(params: SpectralParams) -> AtomicMeasure:
    """Discretize an exact power-law spectral shape on the grid and with the
    cell convention of :func:`spectral_measure_lambda`."""
    return _cell_measure(lambda x: spectral_cdf(params, x))


def fit_spectrum(measure: AtomicMeasure, alpha: float) -> Tuple[SpectralParams, float]:
    """Fit power-law weights (c_minus, c_plus) to a discretized spectral measure.

    :param measure: spectral measure discretized on ``DEFAULT_SPECTRAL_GRID``
    :param alpha: tail index of the candidate shape (given, not fitted)
    :return: (fitted params, restriction-metric residual to the fit)

    Each side is fitted by least squares of log cumulative mass against
    alpha*log x at the grid edges inside ``DEFAULT_FIT_WINDOW``; a side whose
    windowed mass is below 1e-8 is declared null on that side. The residual
    is the restriction metric between the input and the fitted shape
    discretized on the same grid, so a wrong alpha shows up as a large
    residual. A measure discretized on another grid reads a wrong residual.
    """

    def fit_side(edges: List[float], cum_at: Callable[[float], float]) -> float:
        if cum_at(max(edges)) < _NULL_MASS_FLOOR:
            return 0.0
        logs = []
        for edge in edges:
            cum = cum_at(edge)
            if cum > _CUM_FLOOR:
                logs.append(math.log(cum) - alpha * math.log(edge))
        return math.exp(sum(logs) / len(logs))

    c_plus = fit_side(_FIT_EDGES, lambda x: measure.mass_interval(0.0, x, "right"))
    # The negative side reads its moduli in grid order too, from the far end.
    c_minus = fit_side(_FIT_EDGES[::-1], lambda x: measure.mass_interval(-x, 0.0, "left"))
    params = SpectralParams(alpha, c_minus, c_plus)
    residual = dsharp(measure, discretize_spectral(params))
    return params, residual


def _prokhorov_one_sided(
    mu_locs: np.ndarray,
    mu_masses: np.ndarray,
    nu_locs: np.ndarray,
    nu_cum: np.ndarray,
    eps: float,
) -> float:
    """Largest violation max_A [mu(A) - nu(A^eps)] over unions A of mu atoms.

    Dynamic program over mu atoms in increasing location order, best[i] being
    the optimum among subsets whose rightmost atom is i. Appending atom i to
    a run ending at j adds nu((x_j+eps, x_i+eps]) when the closed
    eps-intervals overlap and nu([x_i-eps, x_i+eps]) when they are disjoint,
    so the transition splits into a sliding-window maximum of
    best[j] + nu(-inf, x_j+eps] over overlapping j (kept in a monotone deque)
    and a prefix maximum of best[j] over disjoint j.
    """
    k = int(mu_locs.size)
    if k == 0:
        return 0.0
    upper = nu_cum[nu_locs.searchsorted(mu_locs + eps, side="right")]
    closed = upper - nu_cum[nu_locs.searchsorted(mu_locs - eps, side="left")]
    locs = mu_locs.tolist()
    masses = mu_masses.tolist()
    up = upper.tolist()
    cl = closed.tolist()
    best = [0.0] * k
    window: deque = deque()
    prefix_best = 0.0
    start = 0
    overall = 0.0
    two_eps = 2.0 * eps
    for i in range(k):
        while start < i and locs[i] - locs[start] > two_eps:
            if best[start] > prefix_best:
                prefix_best = best[start]
            if window and window[0] == start:
                window.popleft()
            start += 1
        value = prefix_best - cl[i]
        if window:
            j = window[0]
            candidate = best[j] + up[j] - up[i]
            if candidate > value:
                value = candidate
        best_i = masses[i] + value
        best[i] = best_i
        if best_i > overall:
            overall = best_i
        key = best_i + up[i]
        while window and best[window[-1]] + up[window[-1]] <= key:
            window.pop()
        window.append(i)
    return max(0.0, overall)


def _critical_distances(locs: np.ndarray) -> np.ndarray:
    """Sorted distinct distances |x - y| between points of ``locs``.

    Which atoms of one measure lie in the closed eps-neighbourhood of an atom
    of the other changes only when eps crosses such a distance, so a
    Levy-Prokhorov violation between measures supported in ``locs`` is
    constant between consecutive values. The distances come from an m x m
    array for m distinct points, so m is capped at
    ``_MAX_CRITICAL_LOCATIONS``.
    """
    points = np.unique(locs)
    if points.size > _MAX_CRITICAL_LOCATIONS:
        raise ValueError(
            f"{points.size} distinct atom locations exceed the {_MAX_CRITICAL_LOCATIONS} "
            "that the exact Levy-Prokhorov search accepts"
        )
    return np.unique(np.abs(points[:, None] - points[None, :]))


def prokhorov_distance(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Levy-Prokhorov distance between two finite atomic measures.

    Exact up to rounding. The larger one-sided violation
    V(eps) = max_A [mu(A) - nu(A^eps)] (and the reverse) over unions A of
    atoms is a non-increasing step function of eps that changes only at the
    distances between atoms of the two measures, so the distance, the least
    eps with V(eps) <= eps, is found by a search over those distances. The
    search gallops up from the mass gap (intervals 0, 1, 3, 7, ...) and
    bisects the last bracket, because on spectral fits the distance nearly
    always is the mass gap or lies below the first critical distance above
    it. That costs one or two evaluations of V where bisecting all the
    distances costs about log2 of their number, and at worst, when only the
    last interval is feasible, about twice as many.
    One-dimensional atomic measures make each evaluation of V a dynamic
    program over atoms in location order. More than 2048 distinct atom
    locations raise a ``ValueError``.
    """
    critical = _critical_distances(np.concatenate([mu.locations, nu.locations]))
    return _prokhorov_arrays(mu.locations, mu.masses, nu.locations, nu.masses, critical)


def _prokhorov_arrays(
    mu_locs: np.ndarray,
    mu_masses: np.ndarray,
    nu_locs: np.ndarray,
    nu_masses: np.ndarray,
    critical: np.ndarray,
) -> float:
    """:func:`prokhorov_distance` on canonical (sorted, positive) atom arrays.

    ``critical`` is a sorted array holding every distance between an atom of
    ``mu`` and an atom of ``nu``; extra values cost a little search time and
    do not change the result. After the mass gap, the search probes the
    intervals between critical distances at indices 0, 1, 3, 7, ... until
    one is feasible and bisects inside the last bracket: an answer in
    interval k costs O(log k) evaluations of V, and at most about twice
    what bisecting the whole bracket costs. Feasibility is monotone in the
    interval index, so both searches return the same distance bit for bit.
    """
    if (
        mu_locs.shape == nu_locs.shape
        and (mu_locs == nu_locs).all()
        and (mu_masses == nu_masses).all()
    ):
        return 0.0
    mu_cum = np.concatenate([[0.0], np.cumsum(mu_masses)])
    nu_cum = np.concatenate([[0.0], np.cumsum(nu_masses)])

    def violation(eps: float, cap: float) -> Optional[float]:
        """The larger one-sided violation at eps, or None once one exceeds cap."""
        forward = _prokhorov_one_sided(mu_locs, mu_masses, nu_locs, nu_cum, eps)
        if forward > cap:
            return None
        backward = _prokhorov_one_sided(nu_locs, nu_masses, mu_locs, mu_cum, eps)
        if backward > cap:
            return None
        return max(forward, backward)

    mu_total = float(mu_masses.sum())
    nu_total = float(nu_masses.sum())
    lo = abs(mu_total - nu_total)
    hi = max(mu_total, nu_total, lo)
    if hi == 0.0:
        return 0.0
    if violation(lo, lo) is not None:
        return lo
    # The edges are lo, the critical distances strictly between lo and hi,
    # then hi. V is constant on [edge(k), edge(k + 1)). The distance is
    # max(edge(k), V there) for the first k whose V is at most edge(k + 1);
    # that test is monotone in k. V is read at interval midpoints, because at
    # eps = |x - y| itself x + eps need not round to y.
    first = int(critical.searchsorted(lo, side="right"))
    inner = int(critical.searchsorted(hi, side="left")) - first

    def edge(k: int) -> float:
        if k == 0:
            return lo
        return float(critical[first + k - 1]) if k <= inner else hi

    def probe(k: int, cap: float) -> Optional[float]:
        return violation(0.5 * (edge(k) + edge(k + 1)), cap)

    # Gallop over k = 0, 1, 3, 7, ... below the last interval, then bisect
    # the bracket that the first feasible probe closes.
    left, right = 0, inner
    value = None
    k = 0
    while k < right:
        v = probe(k, edge(k + 1))
        if v is not None:
            right, value = k, v
            break
        left = k + 1
        k = 2 * k + 1
    while left < right:
        k = (left + right) // 2
        v = probe(k, edge(k + 1))
        if v is None:
            left = k + 1
        else:
            right, value = k, v
    if value is None:
        value = probe(right, math.inf)
    return max(edge(right), value)


def dsharp(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Restriction metric between two atomic measures.

    The metric is the integral over r of e^{-r} * d_r/(1 + d_r), where d_r is
    the Levy-Prokhorov distance between the restrictions of the measures to
    the open ball (-r, r). The integrand is piecewise constant in r with
    breakpoints at the atom moduli, so the integral over (0, 20] is
    evaluated exactly segment by segment; the omitted tail is at most
    e^{-20}. Every restriction is supported in the atoms of mu and nu, so
    the distances between those atoms are computed once and serve as the
    critical set of every segment's Levy-Prokhorov search.
    """
    if mu.atoms == nu.atoms:
        return 0.0

    mu_locs, mu_masses = mu.locations, mu.masses
    nu_locs, nu_masses = nu.locations, nu.masses
    mu_abs = np.abs(mu_locs)
    nu_abs = np.abs(nu_locs)
    critical = _critical_distances(np.concatenate([mu_locs, nu_locs]))

    def d_at(radius: float) -> float:
        # Locations are sorted, so each open ball (-radius, radius) is a slice.
        mu_keep = slice(mu_locs.searchsorted(-radius, side="right"), mu_locs.searchsorted(radius))
        nu_keep = slice(nu_locs.searchsorted(-radius, side="right"), nu_locs.searchsorted(radius))
        return _prokhorov_arrays(
            mu_locs[mu_keep], mu_masses[mu_keep], nu_locs[nu_keep], nu_masses[nu_keep], critical
        )

    breaks = np.unique(np.concatenate([mu_abs, nu_abs]))
    breaks = breaks[(breaks > 0) & (breaks < _R_MAX)]
    edges = np.concatenate([[0.0], breaks, [_R_MAX]])
    total = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        if right <= left:
            continue
        # On (left, right] the restrictions to (-r, r) are those at any
        # interior radius; atoms with modulus exactly `left` are included.
        d = d_at(0.5 * (left + right))
        if d > 0:
            total += (d / (1.0 + d)) * (math.exp(-left) - math.exp(-right))
    return total


def stable_mixing_constant(alpha: float) -> float:
    """The scale map pi/(2*sin(pi*alpha/2)*Gamma(alpha)) from spectral weight to c.

    Continuous at alpha = 1 with value pi/2.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    return math.pi / (2.0 * math.sin(math.pi * alpha / 2.0) * math.gamma(alpha))


@dataclass(frozen=True)
class PushforwardResult:
    """Mixing measure image of a joint (location, spectral shape) law."""

    mixing: MixingMeasure
    gamma: float
    gamma_consistent: bool
    gamma_values: Tuple[float, ...]


NuAtom = Tuple[float, SpectralParams, float]


def _merge_mixing_atoms(atoms: Iterable[Tuple[StableParams, float]]) -> MixingMeasure:
    merged: dict = {}
    for params, weight in atoms:
        merged[params] = merged.get(params, 0.0) + weight
    return MixingMeasure(tuple(sorted(merged.items(), key=lambda kv: (kv[0].gamma, kv[0].c, kv[0].beta))))


def smoothed_location_drift(alpha: float) -> float:
    """Drift constant alpha*pi/(2*cos(pi*alpha/2)) linking location conventions.

    For a stable law with one-sided spectral weight, the smoothed-mean
    location functional settles this far away (per unit of c_plus - c_minus)
    from the canonical location parameter. The constant behaves like
    1/(1 - alpha) near the Cauchy index, where it has a pole.
    """
    if not 0.0 < alpha < 2.0 or alpha == 1.0:
        raise ValueError(f"alpha must lie in (0,1) or (1,2), got {alpha}")
    return alpha * math.pi / (2.0 * math.cos(math.pi * alpha / 2.0))


def pushforward_alpha(nu12_atoms: Sequence[NuAtom], alpha: float) -> PushforwardResult:
    """Map an atomic joint law of (location, spectral shape) to a stable mixing measure.

    Off the Cauchy index: each atom (eta, shape, weight) maps to the stable
    parameters c = constant(alpha) * (c_minus + c_plus),
    beta = (c_minus - c_plus)/(c_plus + c_minus) with 0/0 read as 0, and
    gamma = eta - (c_plus - c_minus) * smoothed_location_drift(alpha), the
    drift that converts the smoothed-mean location eta back to the canonical
    location. Both signs follow from the canonical exponent's skew term: a
    purely right-tailed spectral shape carries beta = -1 there. The location
    gamma must be the same for every atom; a spread is reported through
    gamma_consistent rather than raised, so callers can surface it as
    evidence.
    """
    _require_alpha(alpha)
    atoms = list(nu12_atoms)
    if not atoms:
        raise ValueError("need at least one atom")
    for eta, shape, weight in atoms:
        if not shape.is_null and shape.alpha != alpha:
            raise ValueError(
                f"spectral index {shape.alpha} does not match requested alpha {alpha}"
            )
    constant = stable_mixing_constant(alpha)
    drift = smoothed_location_drift(alpha)
    gammas = []
    mixing_atoms = []
    for eta, shape, weight in atoms:
        lam_total = shape.total_weight
        c = constant * lam_total
        skew_num = shape.c_plus - shape.c_minus
        beta = -skew_num / lam_total if lam_total > 0 else 0.0
        gamma = eta - skew_num * drift
        gammas.append(gamma)
        mixing_atoms.append((StableParams(alpha, gamma, c, beta), weight))
    spread = max(gammas) - min(gammas)
    consistent = spread <= 1e-9 * max(1.0, max(abs(g) for g in gammas))
    return PushforwardResult(
        mixing=_merge_mixing_atoms(mixing_atoms),
        gamma=gammas[0],
        gamma_consistent=consistent,
        gamma_values=tuple(gammas),
    )


def pushforward_one(nu12_atoms: Sequence[NuAtom]) -> MixingMeasure:
    """Cauchy-index pushforward: c = (pi/2)*(c_minus + c_plus), beta = 0, gamma = eta.

    Every non-null atom must be symmetric to within _SYMMETRY_REL; an
    asymmetric atom is an error naming the atom, since the Cauchy-limit
    regime forces the two spectral weights to agree.
    """
    atoms = list(nu12_atoms)
    if not atoms:
        raise ValueError("need at least one atom")
    mixing_atoms = []
    for index, (eta, shape, weight) in enumerate(atoms):
        if not shape.is_null and shape.alpha != 1.0:
            raise ValueError(
                f"spectral index {shape.alpha} in atom {index} is not the Cauchy index"
            )
        lam_total = shape.total_weight
        if lam_total > 0:
            asymmetry = abs(shape.c_plus - shape.c_minus)
            if asymmetry > _SYMMETRY_REL * lam_total:
                raise ValueError(
                    f"atom {index} violates spectral symmetry: "
                    f"c_minus={shape.c_minus:g}, c_plus={shape.c_plus:g}"
                )
        c = (math.pi / 2.0) * lam_total
        mixing_atoms.append((StableParams(1.0, eta, c, 0.0), weight))
    return _merge_mixing_atoms(mixing_atoms)


def char_quantities(
    p,
    norming: NormingSequence,
    n: int,
    tau: float,
) -> CharQuantities:
    """Assemble the characteristic-quantity bundle for one realization at one n."""
    return CharQuantities(
        n=n,
        tau=tau,
        m_trunc=trunc_mean(p, norming, n, tau),
        m_smooth=smooth_mean(p, norming, n),
        sigma2_trunc=trunc_variance(p, norming, n, tau),
        sigma2_bar_proxy=sigma_bar_proxy(p, norming, proxy_window(n)),
        lambda_n=spectral_measure_lambda(p, norming, n),
        q_eps=tail_mass_quantity(p, norming, n, 1.0),
    )
