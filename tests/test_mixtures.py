"""Tests for mixture characteristic functions and the scale-mixture identity."""

import math

import numpy as np
import pytest

from stablemix.empirics import _IDENTITY_GRID
from stablemix.mixtures import (
    MixingMeasure,
    cauchy_from_gaussian_scale_mixture,
    joint_mixture_cf,
    mixture_cf,
)
from stablemix.stable import StableParams

CAUCHY_1 = StableParams(1.0, 0.0, 1.0, 0.0)
CAUCHY_2 = StableParams(1.0, 0.0, 2.0, 0.0)
HALF_HALF = MixingMeasure(((CAUCHY_1, 0.5), (CAUCHY_2, 0.5)))


class TestMixtureCf:
    def test_single_atom_reduces_to_component(self):
        mix = MixingMeasure(((CAUCHY_1, 1.0),))
        assert mixture_cf(1.0, mix) == pytest.approx(math.exp(-1.0))

    def test_two_scale_cauchy_mixture(self):
        expected = 0.5 * (math.exp(-1.0) + math.exp(-2.0))
        assert mixture_cf(1.0, HALF_HALF) == pytest.approx(expected, abs=1e-15)

    def test_discretized_scale_mixture_approaches_cauchy_cf(self):
        # Discretize the known mixing density over Gaussian scale; with exact
        # per-cell masses (the density integrates in closed form through the
        # Gaussian CDF) the mixture cf should come close to exp(-|t|). The
        # mass beyond the grid sits in one huge-variance atom whose cf
        # contribution is negligible away from t = 0.
        from scipy.special import ndtr

        edges = np.linspace(0.0, 60.0, 60_001)
        with np.errstate(divide="ignore"):
            upper = np.where(edges[:-1] > 0, ndtr(1.0 / np.where(edges[:-1] > 0, edges[:-1], 1.0)), 1.0)
        lower = ndtr(1.0 / edges[1:])
        cell_mass = 2.0 * (upper - lower)
        mids = 0.5 * (edges[:-1] + edges[1:])
        tail_mass = 2.0 * ndtr(1.0 / 60.0) - 1.0
        pairs = [
            (StableParams(2.0, 0.0, float(m * m / 2.0), 0.0), float(w))
            for m, w in zip(mids, cell_mass)
            if w > 0
        ]
        pairs.append((StableParams(2.0, 0.0, 200.0**2 / 2.0, 0.0), float(tail_mass)))
        total = sum(w for _, w in pairs)
        mix = MixingMeasure(tuple((p, w / total) for p, w in pairs))
        for t in (0.5, 1.0, 2.0):
            assert mixture_cf(t, mix) == pytest.approx(math.exp(-abs(t)), abs=5e-4)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            MixingMeasure(((CAUCHY_1, 0.5), (CAUCHY_2, 0.6)))
        with pytest.raises(ValueError):
            MixingMeasure(((CAUCHY_1, 1.2), (CAUCHY_2, -0.2)))
        with pytest.raises(ValueError):
            MixingMeasure(())

    def test_mixed_indices_are_rejected(self):
        atoms = ((CAUCHY_1, 0.5), (StableParams(1.5, 0.0, 1.0, 0.0), 0.5))
        with pytest.raises(ValueError, match="single index"):
            MixingMeasure(atoms)

    def test_point_mass_atoms_are_index_neutral(self):
        atoms = ((StableParams(1.0, 2.0, 0.0, 0.0), 0.5), (StableParams(1.5, 0.0, 1.0, 0.0), 0.5))
        mix = MixingMeasure(atoms)
        assert mix.atoms == atoms

    def test_positive_definiteness_on_a_grid(self):
        # Bochner sanity check: the Hermitian matrix phi(t_i - t_j) of a
        # characteristic function is positive semidefinite.
        grid = np.arange(-3.0, 3.1, 0.5)
        for mix in (HALF_HALF, MixingMeasure(((StableParams(1.5, 0.3, 1.0, 0.5), 1.0),))):
            matrix = np.array(
                [[mixture_cf(float(ti - tj), mix) for tj in grid] for ti in grid]
            )
            eigenvalues = np.linalg.eigvalsh(matrix)
            assert eigenvalues.min() >= -1e-9, f"least eigenvalue {eigenvalues.min()}"


class TestJointMixtureCf:
    def test_one_coordinate_reduces_to_mixture_cf(self):
        for t in (0.3, 1.0, 2.5):
            assert joint_mixture_cf([t], HALF_HALF) == pytest.approx(mixture_cf(t, HALF_HALF))

    def test_degenerate_mixture_factorizes(self):
        mix = MixingMeasure(((CAUCHY_1, 1.0),))
        assert joint_mixture_cf([1.0, 1.0], mix) == pytest.approx(math.exp(-2.0))

    def test_two_scale_joint_value_and_factorization_gap(self):
        joint = joint_mixture_cf([1.0, 1.0], HALF_HALF)
        expected_joint = 0.5 * (math.exp(-2.0) + math.exp(-4.0))
        assert joint == pytest.approx(expected_joint, abs=1e-15)
        product = mixture_cf(1.0, HALF_HALF) ** 2
        gap = abs(joint - product)
        expected_gap = expected_joint - (0.5 * (math.exp(-1.0) + math.exp(-2.0))) ** 2
        assert gap == pytest.approx(expected_gap, abs=1e-15)
        assert gap >= 0.013

    def test_factorization_is_exact_for_single_atom_measures(self):
        mix = MixingMeasure(((StableParams(1.5, 0.2, 0.8, -0.3), 1.0),))
        for ts in ([0.5, 1.5], [1.0, -2.0, 0.25]):
            joint = joint_mixture_cf(ts, mix)
            product = np.prod([mixture_cf(t, mix) for t in ts])
            assert joint == pytest.approx(product, abs=1e-14)

    def test_rejects_empty_coordinates(self):
        with pytest.raises(ValueError):
            joint_mixture_cf([], HALF_HALF)


class TestScaleMixtureIdentity:
    def test_value_at_zero_is_one(self):
        assert cauchy_from_gaussian_scale_mixture(0.0) == pytest.approx(1.0, abs=1e-10)

    def test_reference_points(self):
        assert cauchy_from_gaussian_scale_mixture(1.0) == pytest.approx(math.exp(-1.0), abs=1e-8)
        assert cauchy_from_gaussian_scale_mixture(3.0) == pytest.approx(math.exp(-3.0), abs=1e-8)

    def test_identity_on_the_standard_grid(self):
        for t in np.arange(0.0, 5.25, 0.25):
            value = cauchy_from_gaussian_scale_mixture(float(t))
            assert value == pytest.approx(math.exp(-float(t)), abs=1e-8), f"t={t}"

    def test_even_in_t(self):
        assert cauchy_from_gaussian_scale_mixture(-2.0) == pytest.approx(
            cauchy_from_gaussian_scale_mixture(2.0), abs=1e-10
        )

    def test_tight_tolerance_still_converges(self):
        assert cauchy_from_gaussian_scale_mixture(1.0, quadrature_tol=1e-12) == pytest.approx(
            math.exp(-1.0), abs=1e-11
        )

    def test_rule_matches_adaptive_quadrature_on_the_identity_grid(self):
        from scipy.integrate import quad

        for t in _IDENTITY_GRID:
            t2 = t * t

            def integrand(u):
                return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * u * u - 0.5 * t2 / (u * u)) if u else float(t2 == 0)

            ref, err = quad(integrand, 0.0, math.inf, epsabs=1e-13, epsrel=0.0, limit=200)
            assert err <= 1e-13
            assert cauchy_from_gaussian_scale_mixture(t) == pytest.approx(ref, abs=2e-13), f"t={t}"

    def test_unreachable_tolerance_reports_its_estimate(self):
        with pytest.raises(RuntimeError, match=r"tolerance 1e-18 at t=1\.0: achieved error estimate \d"):
            cauchy_from_gaussian_scale_mixture(1.0, quadrature_tol=1e-18)

    def test_nan_is_not_certified(self):
        with pytest.raises(RuntimeError, match="achieved error estimate nan"):
            cauchy_from_gaussian_scale_mixture(math.nan)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            cauchy_from_gaussian_scale_mixture(1.0, quadrature_tol=0.0)

    def test_rejects_nan_tolerance(self):
        with pytest.raises(ValueError, match="quadrature_tol"):
            cauchy_from_gaussian_scale_mixture(1.0, quadrature_tol=math.nan)
