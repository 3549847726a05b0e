"""
Why reducing to one univariate polynomial is doomed
===================================================

Two classical reductions to a single univariate rootfinding problem are
run on families with a perfectly conditioned root. Elimination through
the cyclic-squares family produces g with g'(0) = -sigma^(2^d - 1), so
the univariate conditioning explodes like sigma^(1 - 2^d) while the
root itself only costs 1/sigma. The rational-univariate route on the
hypercube family hits the same wall with the scale parameter c in the
role of 1/sigma, for every admissible projection direction.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

from polylab import solve_gb_elimination_example, solve_rur_example

sigma = 0.1
print("elimination on the cyclic-squares family, sigma = 0.1")
print(f"{'d':>3} {'g_prime(0)':>14} {'predicted':>14} {'kappa_uni/kappa_root':>22}")
for d in range(2, 7):
    g, rep = solve_gb_elimination_example(d, sigma)
    got = npoly.polyval(0.0, npoly.polyder(g))
    want = -(sigma ** (2**d - 1))
    ratio = rep.subproblem_kappa[0] / rep.kappa_root[0]
    print(f"{d:>3} {got.real:>14.6e} {want:>14.6e} {ratio:>22.6e}")

# The ratio grows like sigma^(2 - 2^d): already at d = 4 the univariate
# subproblem is 10^14 times worse conditioned than the root it encodes.

print("\nrational univariate reduction on the hypercube family, c = 4")
rng = np.random.default_rng(3)
c = 4.0
for d in (2, 3):
    bound = (c / 2.0) ** (2**d - 1)
    worst = np.inf
    for _ in range(10):
        u = np.abs(rng.standard_normal(d))
        u /= np.linalg.norm(u)
        _, rep = solve_rur_example(d, c, u)
        worst = min(worst, rep.subproblem_kappa[0])
    print(f"  d={d}: min kappa_uni over 10 projections {worst:.3e}, lower bound {bound:.3e}")
