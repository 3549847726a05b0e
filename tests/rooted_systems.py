"""Random quadratic systems with a planted root, shared by the test modules."""

import numpy as np

from polylab import MultiPoly, PolySystem, monomials_up_to


def random_quadratic(d, rng, single_square=None):
    """Unit complex Gaussian quadratic; with single_square=i, x_i^2 plus an affine part."""
    terms = {}
    if single_square is None:
        for m in monomials_up_to(2, d):
            terms[m] = complex(rng.standard_normal(), rng.standard_normal())
    else:
        e = [0] * d
        e[single_square] = 2
        terms[tuple(e)] = 1.0 + 0j
        for j in range(d):
            e = [0] * d
            e[j] = 1
            terms[tuple(e)] = complex(rng.standard_normal(), rng.standard_normal())
        terms[(0,) * d] = complex(rng.standard_normal(), rng.standard_normal())
    return MultiPoly(d, terms)


def rooted_system(*, d, xstar, rng, single_square=False, scale_up=False):
    """d random quadratics, each with its constant term moved so that it vanishes at xstar.

    single_square makes p_i x_i^2 plus an affine part, the shape the
    determinantal representation accepts; scale_up scales a polynomial
    whose largest coefficient is below 1 up to 1.
    """
    zero = (0,) * d
    polys = []
    for i in range(d):
        p = random_quadratic(d, rng, single_square=i if single_square else None)
        terms = dict(p.terms)
        terms[zero] = terms.get(zero, 0j) - p.eval(xstar)
        p = MultiPoly(d, terms)
        if scale_up and p.coefficient_scale() < 1.0:
            p = p.scale(1.0 / p.coefficient_scale())
        polys.append(p)
    return PolySystem(d, polys, true_roots=[np.asarray(xstar, dtype=complex)], family_tag="")
