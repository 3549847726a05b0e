"""Helpers shared by the test modules that build reductions by hand."""

import numpy as np

from polylab import MultiPoly, choose_basis, macaulay_hat


def multiplication_matrices(s):
    """M_{x_i} over the chosen quotient basis, and that BasisSelection.

    Column j of M_{x_i} is the normal form of x_i times basis monomial j.
    """
    sel = choose_basis(macaulay_hat(s))

    def column(i, m):
        return sel.normal_form(MultiPoly(s.d, {m[:i] + (m[i] + 1,) + m[i + 1 :]: 1.0}))

    return [np.column_stack([column(i, m) for m in sel.monomials]) for i in range(s.d)], sel
