"""From tail weights to stable parameters: the spectral fitting chain.

The scaled tail function of a directing law, discretized into an atomic
measure, converges to a two-sided power law whose weights determine the
limiting stable scale and skew. This script fits those weights for the
standard Cauchy, pushes them forward to stable parameters, and shows the
restriction metric shrinking as n grows.

Run with: python3 demos/07_spectral_fits.py
"""

import math

from stablemix import CauchyLaw, NormingSequence, ParetoLaw
from stablemix.characteristics import (
    fit_spectrum,
    pushforward_alpha,
    pushforward_one,
    spectral_measure_lambda,
)


def main() -> None:
    print("Spectral fitting chain")
    print("=" * 60)
    law = CauchyLaw(0.0, 1.0)
    norming = NormingSequence(alpha=1.0)
    print()
    print("Standard Cauchy, b_n = n. Exact weights are 1/pi per side.")
    print("      n     c_minus    c_plus    fit residual (restriction metric)")
    for n in (100, 1000, 10000, 100000):
        measure = spectral_measure_lambda(law, norming, n)
        params, residual = fit_spectrum(measure, 1.0)
        print(
            f"  {n:>6d}   {params.c_minus:.5f}   {params.c_plus:.5f}   {residual:.6f}"
        )
    print(f"  exact    {1 / math.pi:.5f}   {1 / math.pi:.5f}")
    print()

    measure = spectral_measure_lambda(law, norming, 100000)
    params, _ = fit_spectrum(measure, 1.0)
    mixing = pushforward_one([(0.0, params, 1.0)])
    ((stable, _),) = mixing.atoms
    print(f"pushforward at index 1: scale c = {stable.c:.5f} (the unit Cauchy)")
    print()

    print("One-sided Pareto (right_weight 1) with index 1.5, mean centering, b_n = n^(2/3):")
    pareto = ParetoLaw(1.5, 1.0, 1.0)
    norming15 = NormingSequence(alpha=1.5, centering_kind="n_times_mean")
    measure = spectral_measure_lambda(pareto, norming15, 100000)
    params, residual = fit_spectrum(measure, 1.5)
    print(f"  fitted c_minus = {params.c_minus:.5f}, c_plus = {params.c_plus:.5f}")
    result = pushforward_alpha([(0.0, params, 1.0)], 1.5)
    ((stable, _),) = result.mixing.atoms
    print(
        f"  pushforward: c = {stable.c:.4f} (sqrt(2*pi) = {math.sqrt(2 * math.pi):.4f}),"
        f" beta = {stable.beta:+.3f}"
    )
    print()
    print("A purely right-sided tail fits c_minus = 0 and pushes to the fully")
    print("skewed stable law, beta = -1 in the canonical exponent.")


if __name__ == "__main__":
    main()
