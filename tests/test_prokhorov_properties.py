"""The exact Levy-Prokhorov search against an independent subset enumeration
and against a bisection of the whole critical-distance bracket, dsharp's
closed form against exact Fraction sums, and the one-sided pass against the
NumPy reference copy."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from stablemix.characteristics import dsharp, prokhorov_distance
from stablemix.measures import AtomicMeasure
from test_characteristics import (
    _assert_closed_forms_exact,
    _assert_dp_matches_reference,
    _bisect_dsharp,
    _bisect_prokhorov,
)


def _brute_exact_prokhorov(mu, nu):
    """The distance min over eps of max(eps, V(eps)), eps running over 0 and
    the atom distances |x - y|, where V is the larger one-sided violation
    counted by enumerating every union A of atoms and the atoms of the other
    measure in the closed eps-neighbourhood of A."""

    def violation(a, b, eps):
        worst = 0.0
        for bits in range(1, 1 << len(a)):
            chosen = [atom for i, atom in enumerate(a) if bits >> i & 1]
            covered = [m for y, m in b if any(abs(x - y) <= eps for x, _ in chosen)]
            worst = max(worst, sum(m for _, m in chosen) - sum(covered))
        return worst

    candidates = {0.0} | {abs(x - y) for x, _ in mu.atoms for y, _ in nu.atoms}
    return min(
        max(eps, violation(mu.atoms, nu.atoms, eps), violation(nu.atoms, mu.atoms, eps))
        for eps in candidates
    )


def _lattice_measures():
    """Pairs of measures with at most 5 atoms each on a common lattice of
    step 1/4 (exact distances, so exact ties) or 1/10 (rounded distances,
    so near ties), with masses that may equal lattice distances."""
    masses = st.one_of(st.integers(1, 16).map(lambda k: k / 8), st.floats(0.01, 2.0))

    def measure(step):
        atoms = st.dictionaries(st.integers(-8, 8), masses, max_size=5)
        return atoms.map(lambda d: AtomicMeasure.from_pairs((k * step, m) for k, m in d.items()))

    return st.sampled_from((0.25, 0.1)).flatmap(lambda step: st.tuples(measure(step), measure(step)))


class TestProkhorovBruteForce:
    """The exact search against a subset enumeration that shares no code with
    the library's dynamic program or the reference bisection."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_lattice_measures())
    def test_matches_enumeration_to_rounding(self, pair):
        mu, nu = pair
        tol = 8 * math.ulp(max(mu.total_mass, nu.total_mass, 1.0))
        for a, b in ((mu, nu), (nu, mu)):
            got = prokhorov_distance(a, b)
            want = _brute_exact_prokhorov(a, b)
            assert abs(got - want) <= tol, f"{a.atoms} vs {b.atoms}: {got!r} != {want!r}"


class TestProkhorovBisection:
    """The galloping search against the bisection it replaced: the same
    distance bit for bit, since both find the least feasible interval. The
    dsharp reference takes the Fraction closed form where its premise holds."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_lattice_measures())
    def test_equals_bisection_exactly(self, pair):
        mu, nu = pair
        for a, b in ((mu, nu), (nu, mu)):
            assert prokhorov_distance(a, b) == _bisect_prokhorov(a, b), f"{a.atoms} vs {b.atoms}"
            assert dsharp(a, b) == _bisect_dsharp(a, b), f"{a.atoms} vs {b.atoms}"


class TestListDynamicProgramLattice:
    """The one-sided pass on lists against the NumPy copy, with exact and
    near ties between atom distances, masses and caps."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_lattice_measures())
    def test_bitwise_equal_to_reference(self, pair):
        _assert_dp_matches_reference(*pair)


class TestClosedFormLattice:
    """dsharp's closed form equals the exact excess mass, rounded once, on
    every radius that meets its premise, with exact and near ties between
    masses and atom distances."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_lattice_measures())
    def test_exact_below_the_smallest_gap(self, pair):
        mu, nu = pair
        for a, b in ((mu, nu), (nu, mu)):
            _assert_closed_forms_exact(a, b, f"{a.atoms} vs {b.atoms}")
