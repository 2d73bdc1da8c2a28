"""The Levy-Prokhorov search and dsharp against the exact oracle of
``exact_prokhorov``: a subset enumeration for the distance, the oracle's
search on every dsharp radius, and the oracle's one-sided pass for the
library's, all bit for bit."""

from hypothesis import given, settings
from hypothesis import strategies as st

from stablemix.characteristics import dsharp, prokhorov_distance
from stablemix.measures import AtomicMeasure
from test_characteristics import _assert_dp_matches_reference, _assert_exact_on_every_radius

import exact_prokhorov as oracle


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
    the library's dynamic program or the oracle's search."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_lattice_measures())
    def test_matches_enumeration_to_rounding(self, pair):
        mu, nu = pair
        for a, b in ((mu, nu), (nu, mu)):
            got = prokhorov_distance(a, b)
            want = oracle.brute_distance(a, b)
            assert got == want, f"{a.atoms} vs {b.atoms}: {got!r} != {want!r}"


class TestProkhorovBisection:
    """The galloping search against the oracle's bisection of the critical
    distances: the same distance bit for bit, and the same dsharp."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_lattice_measures())
    def test_equals_bisection_exactly(self, pair):
        mu, nu = pair
        for a, b in ((mu, nu), (nu, mu)):
            assert prokhorov_distance(a, b) == oracle.distance(a, b), f"{a.atoms} vs {b.atoms}"
            assert dsharp(a, b) == oracle.dsharp(a, b), f"{a.atoms} vs {b.atoms}"


class TestListDynamicProgramLattice:
    """The one-sided pass on lists against the oracle's, with exact and near
    ties between atom distances, masses and caps."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_lattice_measures())
    def test_bitwise_equal_to_reference(self, pair):
        _assert_dp_matches_reference(*pair)


class TestClosedFormLattice:
    """dsharp's distance equals the exact oracle's on every radius, the
    closed forms included, with exact and near ties between masses and atom
    distances."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_lattice_measures())
    def test_exact_below_the_smallest_gap(self, pair):
        mu, nu = pair
        for a, b in ((mu, nu), (nu, mu)):
            _assert_exact_on_every_radius(a, b, f"{a.atoms} vs {b.atoms}")
