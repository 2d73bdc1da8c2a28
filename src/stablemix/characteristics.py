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
import operator
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress, repeat
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

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

# (index of the left edge, geometric midpoint) of each same-sign grid cell.
_CELLS: Tuple[Tuple[int, float], ...] = tuple(
    (i, math.copysign(math.sqrt(abs(left) * abs(right)), left))
    for i, (left, right) in enumerate(zip(DEFAULT_SPECTRAL_GRID, DEFAULT_SPECTRAL_GRID[1:]))
    if not left < 0 < right
)
_LOCATIONS = tuple(location for _, location in _CELLS)
_CELL_AT = {location: j for j, location in enumerate(_LOCATIONS)}  # a midpoint's position in _CELLS
_HALF = len(DEFAULT_SPECTRAL_GRID) // 2  # grid points per half line, one more than its cells
# (cells of a side within the edge, log of the edge) for each positive grid edge inside the fit window.
_FIT_EDGES = tuple(
    (sum(0 < x <= e for x in _LOCATIONS), math.log(e))
    for e in DEFAULT_SPECTRAL_GRID if DEFAULT_FIT_WINDOW[0] <= e <= DEFAULT_FIT_WINDOW[1]
)
_R_MAX = 20.0  # dsharp integrates over radii in (0, _R_MAX]

_NULL_MASS_FLOOR = 1e-8
# A spectral shape is symmetric when |c_plus - c_minus| <= _SYMMETRY_REL * (c_plus + c_minus).
_SYMMETRY_REL = 0.05
_CUM_FLOOR = 1e-12
# The search's critical distances come from an m x m array for m distinct
# atom locations. At 2048 scattered ones they took 0.2 s and a tracemalloc
# peak of 80 MiB, 64 MiB of it the returned tuple (2 vCPUs, Python 3.11). A
# spectral fit on the default grid has 40.
_MAX_CRITICAL_LOCATIONS = 2048
# Critical-distance sets of at most this many distinct locations (any pair of
# measures on the module grid) are memoized, the last _CRITICAL_MEMO_SETS of them.
_CRITICAL_MEMO_POINTS = 2 * len(_CELLS)
_CRITICAL_MEMO_SETS = 16


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
        for name, weight in (("c_minus", self.c_minus), ("c_plus", self.c_plus)):
            # Written so that a NaN weight is rejected too.
            if not 0.0 <= weight < math.inf:
                raise ValueError(f"spectral weight {name} must be finite and nonnegative, got {weight!r}")

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


def _cell_measure(values: Sequence[float]) -> AtomicMeasure:
    """One atom per same-sign cell of the module grid, at its geometric
    midpoint, with the increment of ``values``, a cumulative function's
    values at the grid points. An increment below -1e-12 is an error, and
    one of at most 0 has no atom."""
    masses = list(map(float, map(operator.sub, values[1:], values)))
    del masses[_HALF - 1]  # the cell that spans 0
    if not all(map(operator.ge, masses, repeat(0.0))):
        for (i, _), mass in zip(_CELLS, masses):
            if mass < -1e-12:
                raise RuntimeError(
                    "internal error: spectral increment "
                    f"{mass:g} on ({DEFAULT_SPECTRAL_GRID[i]:g}, {DEFAULT_SPECTRAL_GRID[i + 1]:g}] is negative"
                )
        # A NaN increment keeps its atom, which AtomicMeasure rejects by name.
        masses = [0.0 if mass <= 0 else mass for mass in masses]
    # The cells are sorted and distinct, so the atoms are already canonical.
    return AtomicMeasure(tuple(compress(zip(_LOCATIONS, masses), masses)))


def spectral_measure_lambda(p, norming: NormingSequence, n: int) -> AtomicMeasure:
    """Discretized spectral measure of one realization at sample size n.

    The underlying function is G(x) = -n*F(b_n/x) for x < 0 and
    G(x) = n*(1 - F(b_n/x)) for x > 0, nondecreasing on each half line. Each
    cell between consecutive same-sign grid points becomes an atom at the
    cell's geometric midpoint carrying the increment of G; the grid is
    ``DEFAULT_SPECTRAL_GRID`` and the cell spanning 0 is dropped (the
    spectral object is only compared away from 0). One
    ``p.half_line_masses`` call gives the 42 values, by one batched pass for
    a stable law in its Fourier region.
    """
    b = norming.b(n)
    ys = [b / x for x in DEFAULT_SPECTRAL_GRID]
    masses = p.half_line_masses(ys)
    return _cell_measure([-n * m for m in masses[:_HALF]] + [n * m for m in masses[_HALF:]])


@lru_cache(maxsize=16)
def _grid_powers(alpha: float) -> Tuple[float, ...]:
    """|x|**alpha at every point x of the module grid."""
    return tuple(abs(x) ** alpha for x in DEFAULT_SPECTRAL_GRID)


def discretize_spectral(params: SpectralParams) -> AtomicMeasure:
    """Discretize an exact power-law spectral shape on the grid and with the
    cell convention of :func:`spectral_measure_lambda`. The cumulative shape
    -c_minus*|x|**alpha, c_plus*x**alpha is read at the grid points from
    powers |x|**alpha cached per alpha, and its increments become the
    measure's atoms in one pass."""
    powers = _grid_powers(params.alpha)
    c_minus, c_plus = -params.c_minus, params.c_plus
    return _cell_measure([c_minus * w for w in powers[:_HALF]] + [c_plus * w for w in powers[_HALF:]])


def fit_spectrum(measure: AtomicMeasure, alpha: float) -> Tuple[SpectralParams, float]:
    """Fit power-law weights (c_minus, c_plus) to a discretized spectral measure.

    :param measure: spectral measure discretized on ``DEFAULT_SPECTRAL_GRID``;
        an atom anywhere but at a cell midpoint is a ``ValueError``
    :param alpha: tail index of the candidate shape (given, not fitted)
    :return: (fitted params, restriction-metric residual to the fit)

    Each side is fitted by least squares of log cumulative mass against
    alpha*log x at the grid edges inside ``DEFAULT_FIT_WINDOW``; a side whose
    windowed mass is below 1e-8 is declared null on that side. The atoms
    are read into one mass per grid cell, one dict lookup each, and each
    side's cells are listed outward from 0. The cumulative masses of
    (0, x] and of [-x, 0) are ``math.fsum`` sums of a prefix of that list,
    correctly rounded and so independent of the order of their terms: the
    mirror of a measure fits the same two weights swapped, bit for bit. The
    residual is the restriction metric :func:`dsharp` between the input and
    the fitted shape discretized on the same grid, so a wrong alpha shows up
    as a large residual.
    """
    cells = [0.0] * len(_CELLS)
    for x, mass in measure.atoms:
        j = _CELL_AT.get(x)
        if j is None:
            raise ValueError(f"atom at {x!r} is not a cell midpoint of DEFAULT_SPECTRAL_GRID")
        cells[j] = mass

    def fit_side(side: List[float]) -> float:
        cums = [math.fsum(side[:count]) for count, _ in _FIT_EDGES]
        if cums[-1] < _NULL_MASS_FLOOR:
            return 0.0
        logs = [math.log(cum) - alpha * log_edge for (_, log_edge), cum in zip(_FIT_EDGES, cums) if cum > _CUM_FLOOR]
        return math.exp(sum(logs) / len(logs))

    per_side = _HALF - 1
    params = SpectralParams(alpha, fit_side(cells[per_side - 1 :: -1]), fit_side(cells[per_side:]))
    return params, dsharp(measure, discretize_spectral(params))


def _prokhorov_one_sided(
    mu_locs: List[float],
    mu_masses: List[int],
    nu_locs: List[float],
    nu_cum: List[int],
    eps: float,
    cap: float,
) -> int:
    """Largest violation max_A [mu(A) - nu(A^eps)] over unions A of mu atoms,
    or, as soon as one union exceeds ``cap``, that union's violation.

    :param mu_locs: sorted distinct mu atom locations
    :param mu_masses: the matching mu masses, integers in the unit of ``nu_cum``
    :param nu_locs: sorted distinct nu atom locations
    :param nu_cum: nu's cumulative masses, one longer than ``nu_locs``; every
        zero of the pass is ``nu_cum[0]``, so integers stay exact
    :param eps: the neighbourhood radius
    :param cap: the caller's acceptance bound, at least 0; a return value
        above it only says that the violation exceeds it

    A nu atom y lies in A^eps when the float |x - y| is at most eps for some
    x in A. Rounding is monotone, so the nu atoms near x_i form an index
    range [L_i, R_i) whose ends two pointers find, moving only right.
    Dynamic program over mu atoms in increasing location order, best[i]
    being the optimum among subsets whose rightmost atom is i. Appending
    atom i to a run ending at j adds nu[R_j, R_i) when R_j > L_i and
    nu[L_i, R_i) otherwise, so the transition splits into a sliding-window
    maximum of best[j] + nu[0, R_j) over the first kind of j (kept in a
    monotone deque) and a prefix maximum of best[j] over the second. The
    running maximum never decreases, so once it exceeds ``cap`` the full
    violation does too.
    """
    k = len(mu_locs)
    zero = nu_cum[0]
    best = [zero] * k
    keys = [zero] * k  # best[j] + nu[0, R_j)
    reach = [0] * k  # R_j
    window: deque = deque()
    prefix_best = overall = zero
    start = 0
    m = len(nu_locs)
    top = bottom = 0  # R_i and L_i
    for i, x in enumerate(mu_locs):
        while top < m and nu_locs[top] - x <= eps:
            top += 1
        while bottom < m and x - nu_locs[bottom] > eps:
            bottom += 1
        up_i = nu_cum[top]
        while start < i and reach[start] <= bottom:
            if best[start] > prefix_best:
                prefix_best = best[start]
            if window and window[0] == start:
                window.popleft()
            start += 1
        value = prefix_best - (up_i - nu_cum[bottom])
        if window:
            j = window[0]
            candidate = keys[j] - up_i
            if candidate > value:
                value = candidate
        best_i = mu_masses[i] + value
        best[i] = best_i
        if best_i > overall:
            overall = best_i
            if overall > cap:
                return overall
        key = best_i + up_i
        keys[i] = key
        reach[i] = top
        while window and keys[window[-1]] <= key:
            window.pop()
        window.append(i)
    return overall


@lru_cache(maxsize=_CRITICAL_MEMO_SETS)
def _critical_distances(points: Tuple[float, ...]) -> Tuple[float, ...]:
    """Sorted distinct distances |x - y| between the sorted distinct
    ``points``, 0.0 first unless ``points`` is empty.

    Which atoms of one measure lie in the closed eps-neighbourhood of an atom
    of the other changes only when eps crosses such a distance, so a
    Levy-Prokhorov violation between measures supported in ``points`` is
    constant between consecutive values. The m x m distances are sorted and
    each kept where it differs from its predecessor: ``np.unique`` without
    its import of ``numpy.ma``. The last ``_CRITICAL_MEMO_SETS`` sets are
    memoized; above ``_CRITICAL_MEMO_POINTS`` points the caller bypasses the
    memo through ``__wrapped__``.
    """
    array = np.array(points)
    distances = np.abs(array[:, None] - array[None, :]).ravel()
    distances.sort()
    # Each rebinding frees the array before it, which keeps the peak low.
    distances = np.concatenate([distances[:1], distances[1:][distances[1:] != distances[:-1]]])
    distances = distances.tolist()
    return tuple(distances)


def prokhorov_distance(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Levy-Prokhorov distance between two finite atomic measures: the least
    eps at which neither one-sided violation max_A [mu(A) - nu(A^eps)] over
    unions A of atoms exceeds eps.

    It is the one whole-line radius of :func:`_restricted_distances`: the
    exact distance for the measures' floats, rounded once, given float
    critical distances, for at most 2048 distinct atom locations. No
    pipeline path calls it; it stays public as the distance that
    :func:`dsharp` integrates, for a caller who compares two measures
    without weights.
    """
    return next(_restricted_distances(mu, nu, (math.inf,)))


def _scaled(x: float, shift: int) -> int:
    """floor(x * 2**shift), exactly, for a finite float x."""
    numerator, denominator = x.as_integer_ratio()
    return (numerator << shift) // denominator


def _restricted_distances(mu: AtomicMeasure, nu: AtomicMeasure, radii: Iterable[float]) -> Iterator[float]:
    """The Levy-Prokhorov distance between the restrictions of ``mu`` and
    ``nu`` to the open ball (-r, r), for each r of ``radii`` in turn
    (``math.inf`` for the whole line). The radii must not decrease: a
    radius below the one before it is a ``ValueError`` that names it. Every
    distance is the exact value for the measures' floats, rounded once,
    given float critical distances |x - y|.

    Let P be the sum of mu(x) - nu(x) over the points of a restricted pair
    where mu is heavier, N the same with mu and nu swapped, and
    U = max(P, N). The distance d lies in [|P - N|, U]: A = the whole
    support violates by at least |P - N| at every eps, and no violation
    exceeds U, since A lies in A^eps. So d = U when one side's excess is
    empty, min(P, N) = 0, read from the excess terms with no float
    comparison; P and N are ``math.fsum`` sums of (m, -n) terms, so U is
    rounded once. Elsewhere :func:`_prokhorov_arrays` searches
    [|P - N|, U], each end one ``math.fsum``.

    The pair's masses are put on the sorted union of their locations once;
    more than ``_MAX_CRITICAL_LOCATIONS`` of them raise a ``ValueError``
    before any radius. Each ball is a run of the union, walked outward from
    0 once: each radius appends the new points' excess terms. The first
    search builds the critical set of the union (see
    :func:`_critical_distances`) and scales every mass of the pair by one
    power of two to an integer; every later radius reuses both.
    """
    mu_at, nu_at = dict(mu.atoms), dict(nu.atoms)
    points = tuple(sorted(mu_at.keys() | nu_at.keys()))
    if len(points) > _MAX_CRITICAL_LOCATIONS:
        raise ValueError(
            f"{len(points)} distinct atom locations exceed the {_MAX_CRITICAL_LOCATIONS} "
            "that the exact Levy-Prokhorov search accepts"
        )
    mu_masses = list(map(mu_at.get, points, repeat(0.0)))
    nu_masses = list(map(nu_at.get, points, repeat(0.0)))
    # The ball points[low:high] of the last radius, and the excess terms of
    # its points where mu, and where nu, is heavier.
    size = len(points)
    low = high = bisect_left(points, 0.0)
    plus, minus = [], []
    critical = None
    last = -math.inf
    for radius in radii:
        if radius < last:
            raise ValueError(f"radius {radius!r} is smaller than the radius {last!r} before it")
        last = radius
        while True:
            if high < size and points[high] < radius:
                i, high = high, high + 1
            elif low and points[low - 1] > -radius:
                i = low = low - 1
            else:
                break
            m, n = mu_masses[i], nu_masses[i]
            if m > n:
                plus += m, -n
            elif n > m:
                minus += n, -m
        if not plus or not minus:
            yield math.fsum(plus or minus)
            continue
        excess = max(math.fsum(plus), math.fsum(minus))
        if critical is None:
            memo = len(points) <= _CRITICAL_MEMO_POINTS
            critical = (_critical_distances if memo else _critical_distances.__wrapped__)(points)
            # 2**shift is the largest denominator of the pair's masses.
            shift = max(m.as_integer_ratio()[1] for m in (*mu_masses, *nu_masses)).bit_length() - 1
            mu_ints, nu_ints = [_scaled(m, shift) for m in mu_masses], [_scaled(m, shift) for m in nu_masses]
        mass_gap = abs(math.fsum([*plus, *map(operator.neg, minus)]))
        ball, mu_ball, nu_ball = points[low:high], mu_ints[low:high], nu_ints[low:high]
        mu_lists = list(compress(ball, mu_ball)), list(filter(None, mu_ball))  # mu's atoms in the ball
        nu_lists = list(compress(ball, nu_ball)), list(filter(None, nu_ball))
        yield _prokhorov_arrays(*mu_lists, *nu_lists, critical, mass_gap, excess, shift)


def _prokhorov_arrays(
    mu_locs: List[float],
    mu_masses: List[int],
    nu_locs: List[float],
    nu_masses: List[int],
    critical: Sequence[float],
    lo: float,
    hi: float,
    shift: int,
) -> float:
    """Levy-Prokhorov distance between two measures given as canonical
    (sorted, distinct, positive) atom lists, by a search over critical
    distances: the exact distance, rounded once.

    :param mu_masses: the mu masses times 2**``shift``, integers, as are ``nu_masses``
    :param critical: sorted, holding every distance between an atom of mu
        and an atom of nu; extra values cost a little search time and do
        not change the result
    :param lo: the mass gap |P - N| of :func:`_restricted_distances`,
        rounded once, a lower bound of the distance
    :param hi: its excess U = max(P, N), rounded once, an upper bound

    The larger one-sided violation V(eps) is a non-increasing step function
    of eps that changes only at the critical distances. The edges are lo,
    the critical distances strictly between lo and hi, then hi, and V is
    read at each interval's left edge. The search probes the intervals at
    indices 0, 1, 3, 7, ... until one is feasible and bisects inside the
    last bracket: an answer in interval k costs O(log k) evaluations of V,
    and at worst about twice a bisection of the whole bracket. Each is two
    passes of :func:`_prokhorov_one_sided` in integers, which stop once
    V exceeds floor(edge * 2**``shift``) for the edge above the interval.
    The distance is max(edge, V) for the first feasible interval, V divided
    by 2**``shift`` once; V lies in the exact bracket and rounding is
    monotone, so the float ends leave the exact value rounded once.
    """
    mu_cum = list(accumulate(mu_masses, initial=0))
    nu_cum = list(accumulate(nu_masses, initial=0))

    def violation(eps: float, cap: float) -> Optional[int]:
        """The larger one-sided violation at eps, or None once one exceeds cap."""
        forward = _prokhorov_one_sided(mu_locs, mu_masses, nu_locs, nu_cum, eps, cap)
        if forward > cap:
            return None
        backward = _prokhorov_one_sided(nu_locs, nu_masses, mu_locs, mu_cum, eps, cap)
        if backward > cap:
            return None
        return max(forward, backward)

    # The distance is max(edges[k], V(edges[k])) for the first k whose V is
    # at most edges[k + 1]; that test is monotone in k.
    edges = [lo, *critical[bisect_right(critical, lo) : bisect_left(critical, hi)], hi]

    def probe(k: int) -> Optional[int]:
        return violation(edges[k], _scaled(edges[k + 1], shift))

    # Gallop over k = 0, 1, 3, 7, ... below the last interval, then bisect
    # the bracket that the first feasible probe closes.
    left, right = 0, len(edges) - 2
    value = None
    k = 0
    while k < right:
        v = probe(k)
        if v is not None:
            right, value = k, v
            break
        left = k + 1
        k = 2 * k + 1
    while left < right:
        k = (left + right) // 2
        v = probe(k)
        if v is None:
            left = k + 1
        else:
            right, value = k, v
    if value is None:
        value = violation(edges[right], math.inf)
    return max(edges[right], value / (1 << shift))


def dsharp(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    """Restriction metric between two atomic measures.

    The metric is the integral over r of e^{-r} * d_r/(1 + d_r), where d_r is
    the Levy-Prokhorov distance between the restrictions of the measures to
    the open ball (-r, r). The integrand is piecewise constant in r with
    breakpoints at the union's atom moduli, so the integral over (0, 20] is
    evaluated exactly segment by segment, one e^{-r} per breakpoint; the
    omitted tail is at most e^{-20}. One :func:`_restricted_distances` walk
    reads the segment midpoints in increasing r, so it only grows the ball.
    Equal measures give 0.0; otherwise more than 2048 distinct atom
    locations raise a ``ValueError``.
    """
    if mu.atoms == nu.atoms:
        return 0.0
    moduli = sorted({abs(x) for x, _ in (*mu.atoms, *nu.atoms)})
    edges = [0.0, *moduli[bisect_right(moduli, 0.0) : bisect_left(moduli, _R_MAX)], _R_MAX]
    decay = [math.exp(-x) for x in edges]
    # On (left, right] the restrictions to (-r, r) are those at any interior
    # radius; atoms with modulus exactly `left` are included.
    distances = _restricted_distances(mu, nu, (0.5 * (left + right) for left, right in zip(edges, edges[1:])))
    total = 0.0
    for d, upper, lower in zip(distances, decay, decay[1:]):
        if d > 0:
            total += (d / (1.0 + d)) * (upper - lower)
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
        beta = (shape.c_minus - shape.c_plus) / lam_total if lam_total > 0 else 0.0
        gamma = eta - (shape.c_plus - shape.c_minus) * drift
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
