"""Characteristic quantities of a directing law under a norming sequence.

Four scalar summaries drive every convergence criterion: the truncated and
smoothed means, the truncated variance, and the scaled tail masses. Together
with the discretized spectral measure they decide which limit (degenerate,
Gaussian, or heavy-tailed stable) the row sums can reach.

Run with: python3 demos/04_characteristic_quantities.py
"""

from stablemix import (
    CauchyLaw,
    GaussianLaw,
    NormingSequence,
    ParetoLaw,
    char_quantities,
)


def main() -> None:
    cases = [
        ("Gaussian, b_n = sqrt(n)", GaussianLaw(0.0, 1.0), NormingSequence(alpha=2.0)),
        ("Cauchy, b_n = n", CauchyLaw(0.0, 1.0), NormingSequence(alpha=1.0)),
        (
            "Symmetric Pareto 1.5 (right_weight 0.5), b_n = n^(2/3)",
            ParetoLaw(1.5, 1.0, 0.5),
            NormingSequence(alpha=1.5),
        ),
    ]
    print("Characteristic quantities at increasing sample size")
    print("=" * 66)
    for label, law, norming in cases:
        print()
        print(label)
        print("      n     m_smooth   sigma2_trunc      q(eps=1)   spectral mass")
        for n in (100, 1000, 10000):
            q = char_quantities(law, norming, n, tau=1.0)
            print(
                f"  {n:>6d}   {q.m_smooth:+9.4f}   {q.sigma2_trunc:12.4f}"
                f"   {q.q_eps:11.4f}   {q.lambda_n.total_mass:13.4f}"
            )
    print()
    print("Reading the table:")
    print("  * The Gaussian keeps its truncated variance near 1 and loses all")
    print("    tail mass, the signature of a Gaussian limit.")
    print("  * The Cauchy keeps a constant scaled tail mass near 2/pi per unit")
    print("    ball and a spectral mass that scales with the grid, while the")
    print("    truncated variance stays bounded, the heavy-tail signature.")
    print("  * The Pareto case sits in between with index 1.5 tails.")


if __name__ == "__main__":
    main()
