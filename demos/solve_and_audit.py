"""
Solving one system three ways and auditing the conditioning
===========================================================

A permutation-family system at sigma = 0.01 has a well-conditioned root
at the origin: kappa_root = 1/sigma = 100. All three solvers find every
root and agree to machine precision, yet each one passes through an
eigenproblem whose condition number is closer to 1/sigma^2 = 10^4. The
audit shows that gap directly.
"""

import numpy as np

from polylab import (
    FamilySpec,
    generate,
    hausdorff_distance,
    kappa_eig_mep_formula,
    kappa_eig_ms_formula,
    kappa_root,
    mep_from_system,
    quotient_basis,
    solve,
)

s = generate(FamilySpec(family="permutation", d=2, sigma=1e-2, seed=7))
print("system polynomials:")
for p in s.polys:
    print("  ", p.terms)

# Solve with the three eigenvalue reductions.
reports = {m: solve(s, m, rng=np.random.default_rng(1)) for m in ("nf", "macaulay", "mep")}
for tag, rep in reports.items():
    print(f"\n{tag}: {len(rep.roots)} roots, max residual {max(rep.residuals):.2e}")

pairs = [("nf", "macaulay"), ("nf", "mep")]
for a, b in pairs:
    dist = hausdorff_distance(reports[a].roots, reports[b].roots)
    print(f"root-set distance {a} vs {b}: {dist:.2e}")

# Audit at the origin root: the root is 1/sigma conditioned, but every
# reduction solves an eigenproblem conditioned like 1/sigma^2.
origin = np.zeros(2, dtype=complex)
kr = kappa_root(s, origin)
print(f"\nkappa_root at the origin: {kr:.3e}")

sel = quotient_basis(s)
k_nf = kappa_eig_ms_formula(s, origin, sel, 0)
k_mep = kappa_eig_mep_formula(mep_from_system(s), s, origin, 0)
print(f"multiplication-matrix eigenvalue conditioning: {k_nf:.3e}")
print(f"operator-determinant eigenvalue conditioning:  {k_mep:.3e}")
print(f"amplification over the root conditioning: {k_nf / kr:.1f}x")
