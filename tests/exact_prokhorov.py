"""The exact Levy-Prokhorov distance between finite atomic measures: the one
oracle of the tests of ``prokhorov_distance`` and ``dsharp``.

Every float is an integer number of units 2**-1074, the spacing of the
subnormal floats, so every mass sum and every violation mu(A) - nu(A^eps) is
an exact integer, and a distance is rounded once, by integer division. An atom
y lies in the closed eps-neighbourhood of an atom x when the float |x - y| is
at most eps, so these are the exact distances given float critical distances.

Two routes share nothing but that convention. :func:`brute_distance`
enumerates every union of atoms and suits pairs of a few atoms.
:func:`restricted` searches the critical distances with a dynamic program over
index ranges and suits the benchmark panels.
"""

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

_UNIT = 1 << 1074
R_MAX = 20.0  # dsharp integrates over radii in (0, R_MAX]


def units(x):
    """The finite float ``x`` as an exact integer number of units 2**-1074."""
    numerator, denominator = x.as_integer_ratio()
    return numerator << (1075 - denominator.bit_length())


def rounded(u):
    """``u`` units as the nearest float: one correctly rounded int/int division."""
    return u / _UNIT


def in_units(atoms):
    """(location, mass in units) for each (location, mass) of ``atoms``."""
    return [(x, units(m)) for x, m in atoms]


def brute_distance(mu, nu):
    """min over eps in {0} and the distances |x - y| between an atom of mu and
    one of nu of max(eps, V(eps)), V the larger one-sided violation counted
    over every union A of atoms, rounded once. V changes only at those
    distances, so the least feasible eps is one of these maxima."""
    a, b = in_units(mu.atoms), in_units(nu.atoms)

    def violation(a, b, eps):
        worst = 0
        for bits in range(1, 1 << len(a)):
            chosen = [atom for i, atom in enumerate(a) if bits >> i & 1]
            covered = sum(m for y, m in b if any(abs(x - y) <= eps for x, _ in chosen))
            worst = max(worst, sum(m for _, m in chosen) - covered)
        return worst

    candidates = {0.0} | {abs(x - y) for x, _ in a for y, _ in b}
    return rounded(min(max(units(eps), violation(a, b, eps), violation(b, a, eps)) for eps in candidates))


def one_sided(a, b, eps):
    """max over unions A of atoms of ``a`` of a(A) - b(A^eps), in units, for
    atom lists in units sorted by location.

    The b-atoms near each a-atom form an index range [L, R), grown outward
    from the a-location one explicit test at a time, and both ends grow with
    the a-location, so a union whose last range ends at R' gains
    b[max(L, R'), R) when the range [L, R) follows. best[i] is the optimum
    over unions whose last atom is i."""
    locs = [y for y, _ in b]
    cum = list(accumulate((m for _, m in b), initial=0))
    ranges = []
    for x, _ in a:
        left = right = bisect_left(locs, x)
        while left > 0 and abs(x - locs[left - 1]) <= eps:
            left -= 1
        while right < len(locs) and abs(x - locs[right]) <= eps:
            right += 1
        ranges.append((left, right))
    best = []
    reach = [right for _, right in ranges]
    for (_, mass), (left, right) in zip(a, ranges):
        # zip stops at the atoms before this one, which best holds.
        top = cum[right]
        joined = [v - top + cum[max(left, r)] for v, r in zip(best, reach)]
        best.append(mass + max([cum[left] - top, *joined]))
    return max([0, *best])


@lru_cache(maxsize=64)
def critical_distances(points):
    """The sorted distinct distances |x - y| between the ``points``."""
    return sorted({abs(x - y) for x in points for y in points})


class Exact(NamedTuple):
    """A pair's exact distance, whether the library's closed form gives it,
    and otherwise where the library's search meets it."""

    distance: float  # rounded once
    gap: float  # the mass gap |P - N|, rounded once
    dominated: bool  # min(P, N) = 0: the library's one closed form, no search
    k: int  # the index of the answer's interval among those of _search
    last: int  # the index of the last interval, which ends at U


def _search(a, b, critical):
    """:class:`Exact` for atom lists in units and a sorted ``critical`` that
    holds every distance between an atom of a and one of b.

    P and N are the excess masses of a over b and of b over a, and U is
    max(P, N). Every violation lies in [|P - N|, U]: the whole support gives
    at least |P - N|, and A lies in A^eps. V is constant on the interval
    from each edge to the next, the edges being |P - N|, the critical
    distances strictly inside the bracket, then U, and the distance is
    max(edge, V) for the first interval whose V is at most its upper edge.
    V is read at the critical distance at or below each edge; at 0 every
    closed ball holds its own point only, so V is U there."""
    excess = dict(a)
    for y, m in b:
        excess[y] = excess.get(y, 0) - m
    plus = sum(e for e in excess.values() if e > 0)
    minus = -sum(e for e in excess.values() if e < 0)
    lo, hi = abs(plus - minus), max(plus, minus)
    if min(plus, minus) == 0:  # dominated: the bracket fixes the distance
        return Exact(rounded(hi), rounded(lo), True, 0, 0)
    start = bisect_right(critical, lo, key=units)
    edges = [lo, *map(units, critical[start : bisect_left(critical, hi, key=units)]), hi]

    @lru_cache(maxsize=None)
    def violation(k):
        eps = critical[start - 1 + k]
        return hi if eps == 0 else max(one_sided(a, b, eps), one_sided(b, a, eps))

    left, right = 0, len(edges) - 2
    while left < right:
        k = (left + right) // 2
        if violation(k) <= edges[k + 1]:
            right = k
        else:
            left = k + 1
    d = max(edges[right], violation(right))
    return Exact(rounded(d), rounded(lo), False, right, len(edges) - 2)


def restricted(mu, nu):
    """:class:`Exact` for the restrictions of ``mu`` and ``nu`` to the open
    ball (-r, r), as a function of r (``math.inf`` for the whole line). The
    critical distances are those of the union of both supports, as in the
    library, so that k and last count the library's intervals. Each radius
    is computed once."""
    a, b = in_units(mu.atoms), in_units(nu.atoms)
    critical = critical_distances(tuple(sorted({x for x, _ in a} | {y for y, _ in b})))

    @lru_cache(maxsize=None)
    def exact(radius):
        return _search([t for t in a if abs(t[0]) < radius], [t for t in b if abs(t[0]) < radius], critical)

    return exact


def distance(mu, nu):
    """The exact Levy-Prokhorov distance between ``mu`` and ``nu``, rounded once."""
    return restricted(mu, nu)(math.inf).distance


def segments(mu, nu):
    """The radius segments (left, right] of dsharp, on each of which the
    restrictions to (-r, r) are constant."""
    moduli = sorted({abs(x) for x, _ in (*mu.atoms, *nu.atoms)})
    edges = [0.0, *(x for x in moduli if 0 < x < R_MAX), R_MAX]
    return list(zip(edges, edges[1:]))


def dsharp(mu, nu, exact=None):
    """The restriction metric of the exact distances: the integral over r of
    e^{-r} d_r/(1 + d_r), summed segment by segment as the library sums it.
    ``exact`` is the pair's :func:`restricted`, if the caller holds it."""
    if mu.atoms == nu.atoms:
        return 0.0
    exact = exact or restricted(mu, nu)
    total = 0.0
    for left, right in segments(mu, nu):
        d = exact(0.5 * (left + right)).distance
        if d > 0:
            total += (d / (1.0 + d)) * (math.exp(-left) - math.exp(-right))
    return total
