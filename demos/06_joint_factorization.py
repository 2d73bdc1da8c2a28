"""Telling a genuine mixture from an i.i.d. array via two rows at once.

Marginally, one row of an exchangeable array looks like a plain i.i.d. sum.
The difference shows in the JOINT law of two rows: with a genuinely random
directing law the rows are dependent (they share the draw), so the joint
characteristic function no longer factorizes into the product of marginals.
The gap at a fixed point is a practical uniqueness diagnostic.

Run with: python3 demos/06_joint_factorization.py
"""

from stablemix import sample_array_sums
from stablemix.empirics import TGrid, empirical_cf, empirical_joint_cf, get_scenario

PAIRS = ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (1.0, -1.0), (2.0, 1.0))


def main() -> None:
    print("Joint factorization gap |phi(t,s) - phi(t)phi(s)| at n = 4096")
    print("=" * 64)
    pair_grid = TGrid(PAIRS)
    for name in ("example1", "cauchy-scalemix"):
        spec = get_scenario(name)
        sums = sample_array_sums(spec.law, spec.norming, 4096, 2, 0, replicates=2000)
        joint = empirical_joint_cf(sums, pair_grid)
        scalars = sorted({0.0} | {abs(t) for t, s in PAIRS} | {abs(s) for t, s in PAIRS})
        marginal_grid = TGrid(tuple(scalars))
        first = empirical_cf(sums[:, 0], marginal_grid)
        second = empirical_cf(sums[:, 1], marginal_grid)
        lookup1 = dict(zip(marginal_grid.points, first))
        lookup2 = dict(zip(marginal_grid.points, second))
        print()
        print(f"{name}: {spec.description}")
        print("     (t, s)        joint        product      gap")
        for k, (t, s) in enumerate(PAIRS):
            factor1 = lookup1[abs(t)].conjugate() if t < 0 else lookup1[abs(t)]
            factor2 = lookup2[abs(s)].conjugate() if s < 0 else lookup2[abs(s)]
            prod = factor1 * factor2
            gap = abs(joint[k] - prod)
            print(
                f"  ({t:+.1f},{s:+.1f})   {joint[k].real:+.4f}{joint[k].imag:+.4f}i"
                f"   {prod.real:+.4f}{prod.imag:+.4f}i   {gap:.4f}"
            )
    print()
    print("The i.i.d. Cauchy array (degenerate directing draw) factorizes to")
    print("within Monte Carlo noise; the two-scale mixture does not. The gap")
    print("at (1,1) is the quantity the acceptance battery bounds.")


if __name__ == "__main__":
    main()
