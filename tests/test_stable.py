"""Tests for the stable-law core: canonical exponent, sampling, norming."""

import cmath
import math

import numpy as np
import pytest

from stablemix.measures import AtomicMeasure
from stablemix.stable import (
    LevyKhintchinePair,
    NormingSequence,
    StableParams,
    eval_g,
    eval_w,
    levy_khintchine_psi,
    _replicate_streams,
    norming_values,
    replicate_seed,
    sample_stable,
    stable_cf,
)

T_GRID = np.arange(-5.0, 5.25, 0.25)


class TestAngularFactor:
    def test_tangent_branch_exact_value(self):
        assert eval_w(2.0, 1.5) == pytest.approx(math.tan(0.75 * math.pi))
        assert eval_w(2.0, 1.5) == pytest.approx(-1.0)

    def test_log_branch_at_one_is_zero(self):
        assert eval_w(1.0, 1.0) == 0.0

    def test_log_branch_at_e(self):
        assert eval_w(math.e, 1.0) == pytest.approx(2.0 / math.pi, abs=1e-15)

    def test_log_branch_even_in_t(self):
        assert eval_w(-3.7, 1.0) == eval_w(3.7, 1.0)

    def test_undefined_at_origin_for_unit_index(self):
        with pytest.raises(ValueError):
            eval_w(0.0, 1.0)

    def test_rejects_bad_index(self):
        for alpha in (0.0, -1.0, 2.5):
            with pytest.raises(ValueError):
                eval_w(1.0, alpha)


class TestLogCf:
    def test_gaussian_case_ignores_skewness(self):
        for beta in (-1.0, 0.0, 0.3, 1.0):
            assert eval_g(1.0, StableParams(2.0, 0.0, 1.0, beta)) == pytest.approx(-1.0 + 0j)

    def test_zero_at_origin_exactly(self):
        params = StableParams(1.0, 2.0, 3.0, 0.5)
        assert eval_g(0.0, params) == 0j

    def test_symmetric_unit_cauchy(self):
        assert eval_g(1.0, StableParams(1.0, 0.0, 1.0, 0.0)) == pytest.approx(-1.0 + 0j)
        assert stable_cf(1.0, StableParams(1.0, 0.0, 1.0, 0.0)) == pytest.approx(math.exp(-1.0))

    def test_skewed_value_alpha_three_halves(self):
        # w = tan(3*pi/4) = -1, so g(1) = -1 + 0.5i and the cf follows by exp.
        value = stable_cf(1.0, StableParams(1.5, 0.0, 1.0, 0.5))
        expected = math.exp(-1.0) * complex(math.cos(0.5), math.sin(0.5))
        assert value == pytest.approx(expected, abs=1e-15)

    def test_gaussian_squared_decay(self):
        assert stable_cf(2.0, StableParams(2.0, 0.0, 1.0, 0.0)) == pytest.approx(math.exp(-4.0))

    def test_point_mass_is_pure_oscillation(self):
        params = StableParams(1.7, 5.0, 0.0, -0.4)
        for t in (-2.0, 0.0, 0.3, 1.0):
            assert stable_cf(t, params) == pytest.approx(cmath.exp(1j * t * 5.0))


class TestCfProperties:
    def test_modulus_bound_unit_value_and_conjugate_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            alpha = float(rng.uniform(0.05, 2.0))
            params = StableParams(
                alpha,
                float(rng.normal(0.0, 2.0)),
                float(rng.uniform(0.0, 3.0)),
                float(rng.uniform(-1.0, 1.0)),
            )
            assert stable_cf(0.0, params) == 1.0 + 0j
            for t in (0.17, 1.0, 4.9):
                value = stable_cf(t, params)
                assert abs(value) <= 1.0 + 1e-12, f"modulus {abs(value)} exceeds 1 for {params}"
                mirrored = stable_cf(-t, params)
                assert mirrored == pytest.approx(value.conjugate(), abs=1e-13)


class TestStableParamsValidation:
    def test_zero_scale_canonical_form(self):
        params = StableParams(1.7, 3.0, 0.0, -0.5)
        assert (params.alpha, params.gamma, params.c, params.beta) == (1.0, 3.0, 0.0, 0.0)
        assert params.is_point_mass

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            StableParams(0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            StableParams(2.1, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            StableParams(1.0, 0.0, -0.1, 0.0)
        with pytest.raises(ValueError):
            StableParams(1.0, 0.0, 1.0, 1.5)

    def test_equal_point_masses_compare_equal(self):
        assert StableParams(0.6, 1.0, 0.0, 1.0) == StableParams(1.9, 1.0, 0.0, -1.0)


class TestJumpExponent:
    def test_atom_at_zero_is_gaussian_kernel(self):
        pair = LevyKhintchinePair(0.0, AtomicMeasure(((0.0, 1.0),)))
        assert levy_khintchine_psi(2.0, pair) == pytest.approx(-2.0 + 0j)

    def test_null_measure_is_pure_translation(self):
        pair = LevyKhintchinePair(3.0, AtomicMeasure())
        for t in (-1.5, 0.0, 0.25, 2.0):
            assert levy_khintchine_psi(t, pair) == pytest.approx(3j * t)

    def test_unit_atom_at_one(self):
        pair = LevyKhintchinePair(0.0, AtomicMeasure(((1.0, 1.0),)))
        expected = (cmath.exp(1j) - 1.0 - 0.5j) * 2.0
        assert levy_khintchine_psi(1.0, pair) == pytest.approx(expected, abs=1e-14)

    def test_gaussian_atom_matches_closed_form_everywhere(self):
        v, mu = 1.7, -0.3
        pair = LevyKhintchinePair(mu, AtomicMeasure(((0.0, v),)))
        for t in T_GRID:
            expected = 1j * mu * t - v * t * t / 2.0
            assert levy_khintchine_psi(float(t), pair) == pytest.approx(expected, abs=1e-13)

    def test_series_and_direct_kernel_agree_at_the_switchover(self):
        # Same psi computed with t*x just below and just above the series
        # threshold; the jump across the boundary must be far below the
        # advertised kernel accuracy.
        x = 1e-4
        pair = LevyKhintchinePair(0.0, AtomicMeasure(((x, 1.0),)))
        below = levy_khintchine_psi(0.999, pair)
        above = levy_khintchine_psi(1.001, pair)
        for t in (0.999, 1.001):
            direct = (cmath.exp(1j * t * x) - 1 - 1j * t * x / (1 + x * x)) * (1 + x * x) / (x * x)
            got = below if t == 0.999 else above
            assert got == pytest.approx(direct, abs=1e-8)

    def test_exp_psi_is_a_characteristic_function(self):
        pair = LevyKhintchinePair(0.1, AtomicMeasure(((-1.2, 0.4), (0.0, 0.5), (2.0, 0.3))))
        values = [cmath.exp(levy_khintchine_psi(float(t), pair)) for t in T_GRID]
        assert cmath.exp(levy_khintchine_psi(0.0, pair)) == 1.0 + 0j
        assert all(abs(v) <= 1.0 + 1e-12 for v in values)


def empirical_cf_on_grid(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    return np.exp(1j * np.outer(grid, samples)).mean(axis=1)


class TestSampler:
    def test_gaussian_branch_variance(self):
        samples = sample_stable(StableParams(2.0, 0.0, 1.0, 0.0), 100_000, seed=7)
        assert 1.9 <= samples.var() <= 2.1

    def test_point_mass_branch(self):
        samples = sample_stable(StableParams(1.0, 5.0, 0.0, 0.0), 1000, seed=0)
        assert np.all(samples == 5.0)

    def test_symmetric_cauchy_cf_match(self):
        samples = sample_stable(StableParams(1.0, 0.0, 1.0, 0.0), 200_000, seed=11)
        observed = empirical_cf_on_grid(samples, T_GRID)
        target = np.array([stable_cf(float(t), StableParams(1.0, 0.0, 1.0, 0.0)) for t in T_GRID])
        distance = np.abs(observed - target).max()
        assert distance <= 0.02, f"sup cf distance {distance:.4f} exceeds 0.02"

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.3, 1.5, 2.0])
    @pytest.mark.parametrize("beta", [0.0, 0.5, -1.0])
    def test_cf_match_across_parameter_matrix(self, alpha, beta):
        params = StableParams(alpha, 0.0, 1.0, beta)
        samples = sample_stable(params, 100_000, seed=int(alpha * 100 + beta * 10 + 500))
        grid = np.arange(-3.0, 3.25, 0.25)
        observed = empirical_cf_on_grid(samples, grid)
        target = np.array([stable_cf(float(t), params) for t in grid])
        distance = np.abs(observed - target).max()
        assert distance <= 0.03, (
            f"alpha={alpha} beta={beta}: sup cf distance {distance:.4f}"
        )

    def test_scale_and_location_mapping_with_skew(self):
        # Exercises the rescaling drift of the alpha = 1 branch and the
        # skew-sign mapping off alpha = 1 on non-unit scales.
        for params in (StableParams(1.0, 0.5, 2.0, 0.5), StableParams(1.5, -0.7, 1.8, -0.6)):
            samples = sample_stable(params, 150_000, seed=23)
            grid = np.arange(-2.0, 2.1, 0.2)
            observed = empirical_cf_on_grid(samples, grid)
            target = np.array([stable_cf(float(t), params) for t in grid])
            distance = np.abs(observed - target).max()
            assert distance <= 0.03, f"{params}: sup cf distance {distance:.4f}"

    def test_deterministic_given_seed(self):
        a = sample_stable(StableParams(1.5, 0.0, 1.0, 0.5), 1000, seed=99)
        b = sample_stable(StableParams(1.5, 0.0, 1.0, 0.5), 1000, seed=99)
        assert np.array_equal(a, b)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            sample_stable(StableParams(1.0, 0.0, 1.0, 0.0), 0, seed=1)


def _first_draws(rng):
    """The first draws of a stream: doubles, then integers from its uint32
    buffer, then one more double."""
    return rng.standard_normal(3).tolist(), rng.integers(0, 2, 5).tolist(), rng.random()


class TestReplicateStreams:
    """The sampler's streams against the generators they replace: the stream
    of replicate k on leaf ``leaf`` is np.random.default_rng(replicate_seed(
    seed, k, leaf)), bit for bit."""

    # One entropy word, a full word, two words and the three- and four-word
    # seeds that mix past the pool of 4.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**100 + 3])
    @pytest.mark.parametrize("leaf", [0, 1])
    def test_every_stream_is_its_default_rng(self, seed, leaf):
        streams = _replicate_streams(seed, leaf, range(300))
        for k, rng in zip(range(300), streams, strict=True):
            reference = np.random.default_rng(replicate_seed(seed, k, leaf))
            assert rng.bit_generator.state == reference.bit_generator.state, k
            # The draws leave a half-used uint32 buffer, which the next k's state clears.
            assert _first_draws(rng) == _first_draws(reference), k

    def test_any_replicate_indices_in_order(self):
        indices = [299, 0, 17, 17, 2**32 - 1]
        got = [rng.bit_generator.state for rng in _replicate_streams(11, 1, indices)]
        assert got == [np.random.default_rng(replicate_seed(11, k, 1)).bit_generator.state for k in indices]
        assert list(_replicate_streams(11, 1, [])) == []

    def test_a_negative_seed_is_a_value_error(self):
        with pytest.raises(ValueError):
            next(_replicate_streams(-1, 0, range(3)))
        with pytest.raises(ValueError):
            np.random.SeedSequence([-1, 0, 0])

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint32(2**32 - 1), np.uint64(2**64 - 1)])
    def test_a_numpy_integer_seed_is_its_python_int(self, seed):
        got = [rng.bit_generator.state for rng in _replicate_streams(seed, 1, range(5))]
        assert got == [rng.bit_generator.state for rng in _replicate_streams(int(seed), 1, range(5))]


class TestNorming:
    def test_square_root_growth(self):
        seq = NormingSequence(alpha=2.0)
        b4, _ = norming_values(seq, 4)
        b1, _ = norming_values(seq, 1)
        assert b4 / b1 == pytest.approx(2.0)

    def test_linear_growth_ratio(self):
        seq = NormingSequence(alpha=1.0)
        for n in (10, 1000):
            b_n, c_n = norming_values(seq, n)
            assert b_n == pytest.approx(float(n))
            assert c_n == 0.0
        for m in (2, 5):
            assert norming_values(seq, m * 100)[0] / norming_values(seq, 100)[0] == pytest.approx(m)

    def test_constant_slow_kind_ratio_is_exact(self):
        for alpha in (0.5, 1.0, 1.5, 2.0):
            seq = NormingSequence(alpha=alpha, scale=0.7)
            for n in (1000, 10_000, 100_000):
                ratio = norming_values(seq, 3 * n)[0] / norming_values(seq, n)[0]
                assert ratio == pytest.approx(3.0 ** (1.0 / alpha), rel=1e-12)

    @pytest.mark.parametrize("slow_kind", ["log_power", "loglog_power"])
    def test_varying_slow_kinds_approach_the_power_ratio(self, slow_kind):
        # Slowly varying factors only reach the limiting ratio m**(1/alpha)
        # logarithmically, so the check is on the error trend plus the
        # defining property h(mn)/h(n) -> 1.
        seq = NormingSequence(alpha=1.0, slow_kind=slow_kind, slow_power=1.0)
        m = 2
        errors = []
        for n in (1000, 10_000, 100_000):
            ratio = norming_values(seq, m * n)[0] / norming_values(seq, n)[0]
            errors.append(abs(ratio / m - 1.0))
            assert seq.slow_value(m * n) / seq.slow_value(n) == pytest.approx(
                1.0, abs=10 * errors[-1] + 1e-12
            )
        assert errors[0] > errors[1] > errors[2], f"ratio errors not decreasing: {errors}"
        assert errors[2] < 0.06

    def test_slow_factor_positive_at_n_equal_one(self):
        for slow_kind in ("log_power", "loglog_power"):
            seq = NormingSequence(alpha=1.0, slow_kind=slow_kind, slow_power=2.0)
            assert norming_values(seq, 1)[0] > 0

    @pytest.mark.parametrize(
        "seq, n",
        [
            (NormingSequence(alpha=0.01), 4096),  # n**(1/alpha) overflows in the power
            (NormingSequence(alpha=0.5, scale=1e300), 10**9),  # overflows in the product
            (NormingSequence(alpha=1.0, slow_kind="log_power", slow_power=400.0), 10**6),
        ],
    )
    def test_overflowing_b_names_n_and_the_index(self, seq, n):
        with pytest.raises(ValueError, match=f"b_n at n={n} under norming index {seq.alpha} is not a finite"):
            seq.b(n)

    def test_mean_centering_needs_a_realization(self):
        seq = NormingSequence(alpha=1.0, centering_kind="n_times_mean")
        with pytest.raises(ValueError):
            norming_values(seq, 10)

    def test_centering_from_duck_typed_realization(self):
        class Stub:
            def mean(self):
                return 3.0

            def truncated_mean(self, bound):
                return 3.0 if bound >= 3.0 else 0.0

        seq = NormingSequence(alpha=1.0, centering_kind="n_times_mean")
        b, c = norming_values(seq, 50, realization=Stub())
        assert (b, c) == (50.0, 3.0)
        trunc = NormingSequence(
            alpha=1.0, centering_kind="n_times_truncated_mean", centering_tau=0.5
        )
        b, c = norming_values(trunc, 50, realization=Stub())
        assert (b, c) == (50.0, 3.0)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            NormingSequence(alpha=3.0)
        with pytest.raises(ValueError):
            NormingSequence(alpha=1.0, slow_kind="polynomial")
        with pytest.raises(ValueError):
            NormingSequence(alpha=1.0, scale=0.0)
        with pytest.raises(ValueError):
            NormingSequence(alpha=1.0, centering_kind="n_times_truncated_mean")
