"""End-to-end acceptance battery.

One test per headline capability, each with its stated tolerance and, where
relevant, a wall-clock budget. Failures here mean the package does not meet
its contract, regardless of unit-test status.
"""

import math
import time

import numpy as np
import pytest

from stablemix import (
    CauchyLaw,
    NormingSequence,
    ParetoLaw,
    StableParams,
    sample_array_sums,
    sample_stable,
    stable_cf,
)
from stablemix.characteristics import (
    SpectralParams,
    dsharp,
    fit_spectrum,
    pushforward_alpha,
    pushforward_one,
    spectral_measure_lambda,
    stable_mixing_constant,
    tail_moment_ratio,
)
from stablemix.empirics import (
    TGrid,
    builtin_scenarios,
    empirical_cf,
    empirical_joint_cf,
    get_scenario,
    identity_residual,
    run_criterion,
)
from stablemix.measures import AtomicMeasure


class TestAcceptance:
    def test_criterion_01_cauchy_identity_quadrature(self):
        """Gaussian-scale-mixture quadrature reproduces exp(-|t|) to 1e-8 in under 1 s."""
        start = time.perf_counter()
        residual = identity_residual()
        elapsed = time.perf_counter() - start
        assert residual <= 1e-8, f"identity residual {residual:.3e} exceeds 1e-8"
        assert elapsed < 1.0, f"identity quadrature took {elapsed:.2f}s, budget 1s"

    def test_criterion_02_stable_sampler_fidelity(self):
        """Sampled stable laws match their characteristic functions to 0.02 in under 30 s."""
        start = time.perf_counter()
        grid = TGrid()
        for alpha in (0.7, 1.0, 1.5, 2.0):
            for beta in (0.0, 0.5):
                params = StableParams(alpha, 0.0, 1.0, beta)
                samples = sample_stable(params, 200_000, seed=42)
                emp = empirical_cf(samples, grid)
                sup = max(
                    abs(emp[j] - stable_cf(t, params))
                    for j, t in enumerate(grid.points)
                )
                assert sup <= 0.02, (
                    f"sampler c.f. gap {sup:.4f} > 0.02 at alpha={alpha}, beta={beta}"
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"sampler fidelity took {elapsed:.1f}s, budget 30s"

    def test_criterion_03_gaussian_mixture_clt(self):
        """Exponential-variance Gaussian rows converge to 1/(1+t^2/2) and pass their checker."""
        spec = get_scenario("gauss-expmix")
        rowsums = sample_array_sums(spec.law, spec.norming, 4096, 1, 0, replicates=2000)
        grid = TGrid(tuple(-3.0 + 0.25 * k for k in range(25)))
        emp = empirical_cf(rowsums[:, 0], grid)
        sup = max(
            abs(emp[j] - 1.0 / (1.0 + t * t / 2.0)) for j, t in enumerate(grid.points)
        )
        assert sup <= 0.05, f"empirical c.f. gap {sup:.4f} > 0.05 on [-3, 3]"

        verdict = run_criterion(spec, "gaussian_mixture", 0)
        assert verdict.holds is True, f"gaussian_mixture verdict: {verdict.holds}"
        gamma = verdict.estimated_limit["gamma"]
        assert abs(gamma) <= 0.05, f"estimated location {gamma:.4f} not within 0.05 of 0"

    def test_criterion_04_cauchy_mixture_clt(self):
        """Two-scale Cauchy rows converge to the half/half Cauchy mixture and recover its atoms."""
        spec = get_scenario("cauchy-scalemix")
        rowsums = sample_array_sums(spec.law, spec.norming, 4096, 1, 0, replicates=2000)
        grid = TGrid()
        emp = empirical_cf(rowsums[:, 0], grid)
        sup = max(
            abs(emp[j] - 0.5 * (math.exp(-abs(t)) + math.exp(-2.0 * abs(t))))
            for j, t in enumerate(grid.points)
        )
        assert sup <= 0.05, f"empirical c.f. gap {sup:.4f} > 0.05"

        mixture = run_criterion(spec, "cauchy_mixture", 0)
        row = run_criterion(spec, "row_cauchy", 0)
        assert mixture.holds is True, f"cauchy_mixture verdict: {mixture.holds}"
        assert row.holds is True, f"row_cauchy verdict: {row.holds}"

        atoms = sorted(mixture.estimated_limit["atoms"], key=lambda a: a["c"])
        assert len(atoms) == 2, f"expected two recovered atoms, got {len(atoms)}"
        for atom, c_true in zip(atoms, (1.0, 2.0)):
            rel = abs(atom["c"] - c_true) / c_true
            assert rel <= 0.1, f"scale {atom['c']:.4f} off {c_true} by {rel:.3f} relative"
            assert abs(atom["weight"] - 0.5) <= 0.05, (
                f"weight {atom['weight']:.4f} not within 0.05 of 0.5"
            )

    def test_criterion_05_joint_factorization_contrast(self):
        """The i.i.d. array factorizes at (1,1) while the scale-mixture array visibly does not."""
        pair_grid = TGrid(((0.0, 0.0), (1.0, 1.0)))
        marginal_grid = TGrid((0.0, 1.0))

        def gap(name: str) -> float:
            spec = get_scenario(name)
            rowsums = sample_array_sums(
                spec.law, spec.norming, 4096, 2, 0, replicates=2000
            )
            joint = empirical_joint_cf(rowsums, pair_grid)[1]
            first = empirical_cf(rowsums[:, 0], marginal_grid)[1]
            second = empirical_cf(rowsums[:, 1], marginal_grid)[1]
            return abs(joint - first * second)

        iid_gap = gap("example1")
        mixed_gap = gap("cauchy-scalemix")
        assert iid_gap <= 0.05, f"i.i.d. factorization gap {iid_gap:.4f} > 0.05"
        assert mixed_gap >= 0.013 - 0.01, (
            f"scale-mixture gap {mixed_gap:.4f} below the detection floor 0.003"
        )

    def test_criterion_06_spectral_chain_for_fixed_cauchy(self):
        """Tail-weight fits at n=1e5 recover 1/pi per side and push forward to unit scale."""
        law = CauchyLaw(0.0, 1.0)
        norming = NormingSequence(alpha=1.0)
        measure = spectral_measure_lambda(law, norming, 100_000)
        params, _ = fit_spectrum(measure, 1.0)
        inv_pi = 1.0 / math.pi
        assert abs(params.c_minus - inv_pi) <= 0.05, (
            f"left weight {params.c_minus:.4f} not within 0.05 of 1/pi"
        )
        assert abs(params.c_plus - inv_pi) <= 0.05, (
            f"right weight {params.c_plus:.4f} not within 0.05 of 1/pi"
        )

        mixing = pushforward_one([(0.0, params, 1.0)])
        ((stable, weight),) = mixing.atoms
        assert weight == 1.0, f"single atom expected, weight {weight}"
        assert abs(stable.c - 1.0) <= 0.05, f"pushforward scale {stable.c:.4f} not near 1"

    def test_criterion_07_pushforward_constant_consistency(self):
        """The weight-to-scale constant is continuous at index 1 and symmetry pins the location."""
        half_pi = math.pi / 2.0
        for alpha in (1.0 - 1e-6, 1.0 + 1e-6):
            value = stable_mixing_constant(alpha)
            rel = abs(value - half_pi) / half_pi
            assert rel <= 1e-4, (
                f"constant at alpha={alpha} is {value:.8f}, off pi/2 by {rel:.2e} relative"
            )

        for eta, c_side in ((0.0, 1.0), (2.5, 0.3), (-1.25, 4.0)):
            shape = SpectralParams(1.5, c_side, c_side)
            result = pushforward_alpha([(eta, shape, 1.0)], 1.5)
            assert result.gamma == eta, (
                f"symmetric atom moved the location: gamma={result.gamma}, eta={eta}"
            )

    def test_criterion_08_tail_moment_ratio(self):
        """The tail-to-truncated-second-moment ratio lands at (2-a)/a for power tails."""
        pareto = tail_moment_ratio(ParetoLaw(1.5, 1.0, 0.5), 1e4)
        assert abs(pareto - 1.0 / 3.0) <= 0.05, (
            f"index-1.5 ratio {pareto:.4f} not within 0.05 of 1/3"
        )
        cauchy = tail_moment_ratio(CauchyLaw(0.0, 1.0), 1e4)
        assert abs(cauchy - 1.0) <= 0.05, f"Cauchy ratio {cauchy:.4f} not within 0.05 of 1"

    def test_criterion_09_criteria_cross_exclusivity(self):
        """Each scenario passes exactly its designed mixture checker across the 8-scenario corpus."""
        start = time.perf_counter()
        corpus = [name for name in builtin_scenarios() if name != "example1"]
        assert len(corpus) == 8, f"corpus drifted: {corpus}"
        mixture_checkers = (
            "degenerate",
            "gaussian_mixture",
            "cauchy_mixture",
            "stable_mixture",
        )
        for name in corpus:
            spec = get_scenario(name)
            assert spec.exclusive_pass in mixture_checkers, (
                f"{name} designates no mixture checker"
            )
            for criterion in mixture_checkers:
                try:
                    verdict = run_criterion(spec, criterion, 0)
                except ValueError:
                    assert criterion != spec.exclusive_pass, (
                        f"designed checker {criterion} rejected its own scenario {name}"
                    )
                    continue
                if criterion == spec.exclusive_pass:
                    assert verdict.holds is True, (
                        f"designed checker {criterion} on {name}: {verdict.holds}"
                    )
                else:
                    assert verdict.holds is False, (
                        f"cross checker {criterion} on {name} should fail decisively, "
                        f"got {verdict.holds}"
                    )
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"cross-exclusivity matrix took {elapsed:.0f}s, budget 600s"

    def test_criterion_10_restriction_metric_suite(self):
        """The restriction metric is a metric in practice and tracks spectral convergence."""
        rng = np.random.default_rng(123)
        for _ in range(100):
            triple = []
            for _ in range(3):
                count = int(rng.integers(1, 6))
                locations = rng.uniform(-4.0, 4.0, size=count)
                masses = rng.uniform(0.1, 2.0, size=count)
                triple.append(
                    AtomicMeasure.from_pairs(
                        list(zip(locations.tolist(), masses.tolist()))
                    )
                )
            first, second, third = triple
            assert dsharp(first, first) == 0.0, "identity must be exact"
            forward = dsharp(first, second)
            backward = dsharp(second, first)
            assert forward == backward, (
                f"symmetry violated: {forward!r} != {backward!r}"
            )
            direct = dsharp(first, third)
            via = forward + dsharp(second, third)
            assert direct <= via + 1e-6, (
                f"triangle inequality violated by {direct - via:.2e}"
            )

        law = CauchyLaw(0.0, 1.0)
        norming = NormingSequence(alpha=1.0)
        residuals = []
        for n in (100, 1000, 10000):
            measure = spectral_measure_lambda(law, norming, n)
            _, residual = fit_spectrum(measure, 1.0)
            residuals.append(residual)
        assert residuals[0] > residuals[1] > residuals[2], (
            f"fit residuals should decrease with n, got {residuals}"
        )
