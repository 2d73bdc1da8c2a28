"""The standard Cauchy as a mixture of Gaussians, verified by quadrature.

The Cauchy law can be written as a Gaussian whose variance is itself random.
Integrating the Gaussian characteristic function against that variance law
must reproduce exp(-|t|) exactly. This script shows the residual of the
numerical quadrature (a fixed trapezoid rule in log u, checked against the
same rule at half the step) over a grid of t values, and what happens when
the identity is deliberately broken by one percent.

Run with: python3 demos/02_cauchy_identity.py
"""

from stablemix import cauchy_from_gaussian_scale_mixture
from stablemix.empirics import identity_residual


def main() -> None:
    print("Gaussian-scale-mixture identity for the standard Cauchy")
    print("=" * 60)
    print()
    print("      t     quadrature      exp(-|t|)       gap")
    import math

    for t in (0.0, 0.5, 1.0, 2.0, 3.5, 5.0):
        got = cauchy_from_gaussian_scale_mixture(t)
        want = math.exp(-abs(t))
        print(f"  {t:5.2f}   {got:12.9f}   {want:12.9f}   {abs(got - want):.2e}")
    print()

    residual = identity_residual()
    print(f"max residual over t in {{0, 0.25, ..., 5}}: {residual:.2e}")
    broken = identity_residual(perturb=1.01)
    print(f"same residual with the mixture scaled by 1.01: {broken:.2e}")
    print()
    print("The honest quadrature sits at machine precision; the perturbed")
    print("one fails by the expected one percent. That contrast is what the")
    print("`stablemix verify-identity` subcommand automates.")


if __name__ == "__main__":
    main()
