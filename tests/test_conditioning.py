"""Condition numbers, singular-vector scaling, factorizations, normal forms."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylab import (
    ConditionReport,
    FamilySpec,
    GenEigProblem,
    MultiParamEig,
    MultiPoly,
    PolySystem,
    UniPoly,
    b0_matrix,
    choose_basis,
    generalized_eig,
    generate,
    jacobian,
    kappa_eig,
    kappa_eig_macaulay_bound,
    kappa_eig_mep_formula,
    kappa_eig_ms_formula,
    kappa_root,
    kappa_uni,
    lagrange_interpolant,
    macaulay_hat,
    macaulay_pencil,
    mep_from_system,
    mep_root_vectors,
    mep_row_scaling,
    monomials_up_to,
    null_space,
    q_factorization,
    rho,
    theory_digits,
)
from polylab.conditioning import (
    MultipleRoot,
    RootPoint,
    SingularJacobian,
    _abs_det_jacobian,
    _digits_from_kappa,
    basis_values,
    poly_det,
)
from polylab.families import _FAMILY
from polylab.macaulay import BasisSelection, BasisSingular, linear_poly
from polylab.numkernel import EigPairs, sigma_min
from quotient_helpers import multiplication_matrices
from rooted_systems import rooted_system


def test_kappa_root_inverts_smallest_singular_value():
    rng = np.random.default_rng(61)
    xstar = np.zeros(2, dtype=complex)
    s = rooted_system(d=2, xstar=xstar, rng=rng)
    assert kappa_root(s, xstar) == pytest.approx(1.0 / sigma_min(jacobian(s, xstar)), rel=1e-12)


def test_kappa_root_rejects_singular_jacobian():
    s = PolySystem(
        2,
        [MultiPoly(2, {(2, 0): 1.0}), MultiPoly(2, {(0, 2): 1.0})],
        true_roots=[],
        family_tag="",
    )
    with pytest.raises(SingularJacobian):
        kappa_root(s, np.zeros(2, dtype=complex))


@pytest.mark.filterwarnings("error")
def test_det_jacobian_guard_labels_zero_and_overflow():
    def point(J):
        return RootPoint(x=np.zeros(2, dtype=complex), residual=0.0, jacobian=np.asarray(J, dtype=complex))

    assert _abs_det_jacobian(point([[2.0, 1.0], [0.0, 3.0]])) == pytest.approx(6.0)
    with pytest.raises(SingularJacobian):
        _abs_det_jacobian(point([[1.0, 2.0], [2.0, 4.0]]))
    # An overflowing det (numpy warns of overflow and an invalid value in it)
    # and a nan one are both labeled, without a warning.
    for J in ([[1e160, 0.0], [0.0, 1e160]], [[math.nan, 0.0], [0.0, 1.0]]):
        with pytest.raises(np.linalg.LinAlgError, match="det J\\(x\\*\\) is not finite"):
            _abs_det_jacobian(point(J))


def test_kappa_uni_inverts_derivative():
    p = UniPoly.from_roots(np.array([2.0, -1.0], dtype=complex))
    assert kappa_uni(p, 2.0) == pytest.approx(1.0 / 3.0)
    with pytest.raises(MultipleRoot):
        kappa_uni(UniPoly(np.array([0.0, 0.0, 1.0], dtype=complex)), 0.0)


def test_kappa_eig_on_diagonal_pencil():
    gep = GenEigProblem(
        A=np.diag([2.0, 3.0]).astype(complex), B=np.eye(2, dtype=complex),
    )
    pairs = generalized_eig(gep)
    got = dict(zip(np.round(pairs.lam.real).astype(int).tolist(), kappa_eig(gep, pairs)))
    # normal pencil: kappa is 1 + |lambda|
    assert got[2] == pytest.approx(3.0, rel=1e-12)
    assert got[3] == pytest.approx(4.0, rel=1e-12)


def test_kappa_eig_scores_infinite_and_defective_eigenvalues_inf():
    gep = GenEigProblem(
        A=np.eye(2, dtype=complex), B=np.diag([1.0, 0.0]).astype(complex),
    )
    pairs = generalized_eig(gep)
    assert kappa_eig(gep, pairs)[pairs.infinite].tolist() == [math.inf]
    # Jordan block: the right vector e_1 and left vector e_2 give y^T B x = 0.
    jordan = GenEigProblem(
        A=np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex), B=np.eye(2, dtype=complex),
    )
    e1, e2 = np.eye(2, dtype=complex)
    pairs = EigPairs(
        lam=np.array([1.0 + 0j]),
        infinite=np.array([False]),
        beta_ratio=np.array([0.5]),
        right=e1[None],
        left=e2[None],
    )
    assert kappa_eig(jordan, pairs).tolist() == [math.inf]


def test_scaled_singular_vectors_reproduce_jacobian():
    for family, d, sigma in (("permutation", 2, 0.1), ("permutation", 3, 0.05), ("orthogonal", 3, 0.01)):
        s = generate(FamilySpec(family=family, d=d, sigma=sigma, seed=3))
        mep = mep_from_system(s)
        x0 = np.zeros(d, dtype=complex)
        vecs = mep_root_vectors(mep, x0)
        B0 = b0_matrix(mep, x0, vecs)
        D = mep_row_scaling(mep, x0)
        J = jacobian(s, x0)
        assert np.linalg.norm(D @ B0 - J, 2) <= 1e-12 * np.linalg.norm(J, 2)


def test_root_vectors_reject_points_far_from_roots():
    s = generate(FamilySpec(family="permutation", d=2, sigma=0.1, seed=4))
    mep = mep_from_system(s)
    with pytest.raises(ValueError):
        mep_root_vectors(mep, np.array([1.0, 1.0], dtype=complex))


def test_mep_condition_formula_matches_direct_eigen_computation():
    # formula vs the definition applied to the operator-determinant pencil
    from polylab.solvers import operator_determinants

    rng = np.random.default_rng(62)
    for trial in range(5):
        d = 2 if trial % 2 == 0 else 3
        xstar = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * 0.5
        s = rooted_system(d=d, xstar=xstar, rng=rng, single_square=True)
        mep = mep_from_system(s)
        deltas = operator_determinants(mep)
        i = trial % d
        gep = GenEigProblem(A=deltas[1 + i], B=deltas[0])
        pairs = generalized_eig(gep)
        best = int(np.argmin(np.abs(pairs.lam - xstar[i])))
        assert abs(pairs.lam[best] - xstar[i]) <= 1e-6
        direct = kappa_eig(gep, pairs)[best]
        formula = kappa_eig_mep_formula(mep, s, xstar, i)
        assert formula == pytest.approx(direct, rel=1e-6)


def test_q_factorization_reconstructs_the_system():
    rng = np.random.default_rng(63)
    xstar = np.array([0.4, -0.2], dtype=complex)
    s = rooted_system(d=2, xstar=xstar, rng=rng)
    qf = q_factorization(s, xstar)
    for i in range(2):
        for _ in range(10):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            rec = sum(qf.Q[i][j].eval(x) * (x[j] - qf.shift[j]) for j in range(2))
            want = s.polys[i].eval(x)
            assert abs(rec - want) <= 1e-10 * (1 + abs(want))


def test_q_factorization_at_root_equals_jacobian():
    rng = np.random.default_rng(64)
    xstar = np.array([0.1, 0.3, -0.5], dtype=complex)
    s = rooted_system(d=3, xstar=xstar, rng=rng)
    qf = q_factorization(s, xstar)
    Qx = np.array([[qf.Q[i][j].eval(xstar) for j in range(3)] for i in range(3)])
    J = jacobian(s, xstar)
    assert np.max(np.abs(Qx - J)) <= 1e-10 * np.max(np.abs(J))


def test_q_factorization_rejects_non_roots():
    rng = np.random.default_rng(65)
    s = rooted_system(d=2, xstar=np.zeros(2, dtype=complex), rng=rng)
    with pytest.raises(ValueError):
        q_factorization(s, np.array([3.0, 3.0], dtype=complex))


def test_factored_determinant_interpolates_the_root_set():
    # vanishes at every other root, equals det J at the factorization point
    s = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5))
    xstar = np.asarray(s.true_roots[1], dtype=complex)
    qf = q_factorization(s, xstar)
    q = lagrange_interpolant(qf)
    detj = np.linalg.det(jacobian(s, xstar))
    assert abs(q.eval(xstar) - detj) <= 1e-10 * abs(detj)
    for other in s.true_roots:
        other = np.asarray(other, dtype=complex)
        if np.linalg.norm(other - xstar) < 1e-12:
            continue
        assert abs(q.eval(other)) <= 1e-10 * abs(detj)


def test_interpolant_minor_expansion_with_remainders():
    # poly_det(Q) matches det(Q(x)), and adding r_i on the diagonal matches
    # det(Q + diag(r)), pointwise
    rng = np.random.default_rng(66)
    for d in (2, 1, 3, 4):
        xstar = np.array([0.2, -0.4], dtype=complex) if d == 2 else 0.5 * rng.standard_normal(d)
        s = rooted_system(d=d, xstar=xstar, rng=rng)
        qf = q_factorization(s, xstar)
        r = [MultiPoly.constant(d, complex(rng.standard_normal())) for _ in range(d)]
        det_q = lagrange_interpolant(qf)
        full = poly_det([[q + r[i] if i == j else q for j, q in enumerate(row)] for i, row in enumerate(qf.Q)])
        for _ in range(5):
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            Qx = np.array([[qf.Q[i][j].eval(x) for j in range(d)] for i in range(d)])
            want = np.linalg.det(Qx)
            assert abs(det_q.eval(x) - want) <= 1e-10 * (1 + abs(want))
            want = np.linalg.det(Qx + np.diag([ri.eval(x) for ri in r]))
            assert abs(full.eval(x) - want) <= 1e-10 * (1 + abs(want))


def reference_det_q(qf) -> MultiPoly:
    """det Q over the grid in x by Leibniz's formula: a signed MultiPoly product per permutation."""
    d = len(qf.Q)
    det = MultiPoly.constant(d, 0.0)
    for perm in itertools.permutations(range(d)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = MultiPoly.constant(d, -1.0 if inversions % 2 else 1.0)
        for i, j in enumerate(perm):
            term = term * qf.Q[i][j]
        det = det + term
    return det


def reference_monomials(monomials, x) -> np.ndarray:
    return np.array([np.prod([x[k] ** e for k, e in enumerate(m)]) for m in monomials])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_compiled_det_q_and_both_formulas_match_the_multipoly_expansion(data):
    d = data.draw(st.integers(2, 4))
    coord = st.complex_numbers(min_magnitude=0.05, max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    xstar = np.array(data.draw(st.lists(coord, min_size=d, max_size=d)), dtype=complex)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    s = rooted_system(d=d, xstar=xstar, rng=rng)
    qf = q_factorization(s, xstar)
    det_q = lagrange_interpolant(qf)
    for _ in range(3):
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        want = np.linalg.det(np.array([[q.eval(x) for q in row] for row in qf.Q]))
        assert abs(det_q.eval(x) - want) <= 1e-10 * (1 + abs(want))

    ref = reference_det_q(qf)
    detJ = abs(np.linalg.det(jacobian(s, xstar)))
    i = int(np.argmax(np.abs(xstar)))
    sel = choose_basis(macaulay_hat(s))
    want = (
        np.linalg.norm(sel.normal_form(ref))
        * np.linalg.norm(reference_monomials(sel.monomials, xstar))
        / detJ
        * (1 + abs(xstar[i]))
    )
    assert kappa_eig_ms_formula(s, xstar, sel, i) == pytest.approx(want, rel=1e-12)
    pen = macaulay_pencil(s, rng)
    h = linear_poly(d, pen.beta)
    want = (
        np.linalg.norm(pen.basis.normal_form(ref))
        * np.linalg.norm(reference_monomials(monomials_up_to(rho(s), d), xstar))
        / (detJ * abs(h.eval(xstar)))
    )
    assert kappa_eig_macaulay_bound(s, xstar, pen) == pytest.approx(want, rel=1e-12)


def test_basis_values_are_numpy_scalar_products_bit_for_bit():
    # x_i**e from numpy's scalar power (unrolled to e = 3, binary powering
    # above), multiplied from 1 in ascending i, skipping e_i = 0.
    rng = np.random.default_rng(71)
    points = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (1, 2, 3, 4)]
    points += [np.array([complex(-0.0, 1.0), 0j, complex(1 / 3, -0.0)])]
    for x in points:
        monomials = monomials_up_to(7, x.size)
        want = []
        for m in monomials:
            v = 1.0 + 0j
            for xi, e in zip(x, m):
                if e:
                    v *= xi**e
            want.append(complex(v))
        assert basis_values(monomials, x).tobytes() == np.array(want).tobytes()


def _family_matrix_2d(s, sigma):
    a11 = s.polys[0].terms.get((1, 0), 0j) / sigma
    a12 = s.polys[0].terms.get((0, 1), 0j) / sigma
    a21 = s.polys[1].terms.get((1, 0), 0j) / sigma
    a22 = s.polys[1].terms.get((0, 1), 0j) / sigma
    return a11, a12, a21, a22


def _fixed_selection(mhat, basis):
    """The BasisSelection of the monomials ``basis``, not choose_basis's, over mhat's null space."""
    N = null_space(mhat.mat, mhat.bezout)
    idx = np.array([mhat.index.columns[m] for m in basis])
    return BasisSelection(basis, np.linalg.cond(N[idx]), N, idx, mhat.index, mhat.factor.sigma_min)


def test_reduced_determinant_closed_form_bivariate():
    # [det Q]_B over {1, x, y, y^2} for the mixed bivariate family:
    # sigma^2 - sigma^2 a21 x + sigma^2 (a11 - a22) y + sigma a22 x
    # - sigma a12 y - sigma^2 y^2
    sigma = 1e-2
    s = generate(FamilySpec(family="notdev2d", d=2, sigma=sigma, seed=11))
    a11, a12, a21, a22 = _family_matrix_2d(s, sigma)
    mhat = macaulay_hat(s)
    basis = [(0, 0), (1, 0), (0, 1), (0, 2)]
    qf = q_factorization(s, np.zeros(2, dtype=complex))
    c = _fixed_selection(mhat, basis).normal_form(lagrange_interpolant(qf))
    want = {
        (0, 0): sigma**2,
        (1, 0): sigma * a22 - sigma**2 * a21,
        (0, 1): -sigma * a12 + sigma**2 * (a11 - a22),
        (0, 2): -(sigma**2),
    }
    scale = max(abs(v) for v in want.values())
    for k, m in enumerate(basis):
        assert abs(c[k] - want[m]) <= 1e-10 * scale


def test_reduced_determinant_closed_form_trivariate():
    for sigma in (0.5, 1e-2):
        s = generate(FamilySpec(family="notdev3d", d=3, sigma=sigma))
        qf = q_factorization(s, np.zeros(3, dtype=complex))
        q = lagrange_interpolant(qf)
        want = {
            (1, 1, 1): sigma**3,
            (0, 2, 1): sigma**2,
            (0, 1, 0): sigma**2,
            (0, 1, 1): -(sigma**2),
            (0, 0, 0): sigma**3,
        }
        assert set(q.terms) == set(want)
        for m, v in want.items():
            assert abs(q.terms[m] - v) <= 1e-12 * abs(v)


def test_multiplication_eigenvalue_conditioning_matches_direct():
    rng = np.random.default_rng(67)
    for trial in range(5):
        d = 2 if trial % 2 == 0 else 3
        xstar = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * 0.4
        s = rooted_system(d=d, xstar=xstar, rng=rng)
        mats, sel = multiplication_matrices(s)
        i = trial % d
        gep = GenEigProblem(
            A=np.asarray(mats[i]), B=np.eye(len(sel.monomials), dtype=complex),
        )
        pairs = generalized_eig(gep)
        best = int(np.argmin(np.abs(pairs.lam - xstar[i])))
        assert abs(pairs.lam[best] - xstar[i]) <= 1e-6
        direct = kappa_eig(gep, pairs)[best]
        formula = kappa_eig_ms_formula(s, xstar, sel, i)
        assert formula == pytest.approx(direct, rel=1e-6)


def test_macaulay_bound_sits_below_measured_conditioning():
    rng = np.random.default_rng(68)
    for trial in range(5):
        xstar = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.4
        s = rooted_system(d=2, xstar=xstar, rng=rng)
        pen = macaulay_pencil(s, np.random.default_rng(trial))
        halpha = linear_poly(2, pen.alpha)
        hbeta = linear_poly(2, pen.beta)
        lam_star = complex(halpha.eval(xstar)) / complex(hbeta.eval(xstar))
        pairs = generalized_eig(pen.gep)
        best = int(np.argmin(np.abs(pairs.lam - lam_star)))
        assert abs(pairs.lam[best] - lam_star) <= 1e-6 * (1 + abs(lam_star))
        measured = kappa_eig(pen.gep, pairs)[best]
        bound = kappa_eig_macaulay_bound(s, xstar, pen)
        assert bound <= measured * (1 + 1e-6)


def test_reduced_determinant_norm_dominates_hat_sigma_min():
    # coefficient-norm lower bound for scaled bivariate quadratics
    rng = np.random.default_rng(69)
    for _ in range(8):
        xstar = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.5
        s = rooted_system(d=2, xstar=xstar, rng=rng, scale_up=True)
        mhat = macaulay_hat(s)
        sel = choose_basis(mhat)
        qf = q_factorization(s, xstar)
        c = sel.normal_form(lagrange_interpolant(qf))
        assert np.linalg.norm(c) >= mhat.factor.sigma_min - 1e-10


def test_normal_form_rejects_singular_basis_rows():
    rng = np.random.default_rng(70)
    s = generate(FamilySpec(family="notdev2d", d=2, sigma=0.1), rng=rng)
    mhat = macaulay_hat(s)
    # a repeated monomial makes the basis rows singular
    sel = _fixed_selection(mhat, [(0, 0), (0, 0), (1, 0), (0, 1)])
    with pytest.raises(BasisSingular):
        sel.normal_form(MultiPoly(2, {(0, 0): 1.0}))


def test_condition_report_ratio_and_json():
    rep = ConditionReport.make(kappa_root=10.0, kappa_sub=1000.0, method_tag="gb")
    assert rep.ratio == pytest.approx(100.0)
    d = rep.to_json_dict()
    assert d["method_tag"] == "gb"
    assert d["kappa_sub"] == pytest.approx(1000.0)


def _theory(method, family, d, **param):
    return theory_digits(method, FamilySpec(family=family, d=d, **param))


def test_theory_digits_known_values():
    assert _theory("stable", "orthogonal", 2, sigma=1e-4) == pytest.approx(12.0)
    assert _theory("gb", "cyclic_squares", 2, sigma=1e-2) == pytest.approx(10.0)
    assert _theory("gb", "cyclic_squares", 3, sigma=1e-2) == pytest.approx(2.0)
    assert _theory("mep", "orthogonal", 3, sigma=1e-2) == pytest.approx(10.0)
    assert _theory("nf", "notdev2d", 2, sigma=1e-3) == pytest.approx(10.0)
    assert _theory("macaulay", "permutation", 2, sigma=1e-5) == pytest.approx(6.0)
    rur = _theory("rur", "hypercube", 2, c=4.0)
    assert rur == pytest.approx(16.0 - 3 * np.log10(2.0))
    assert _theory("stable", "hypercube", 4, c=10.0) == pytest.approx(16.0 - np.log10(10.0))
    # clamping
    assert _theory("gb", "cyclic_squares", 6, sigma=1e-2) == 0.0
    assert _theory("stable", "orthogonal", 2, sigma=1.0) == 16.0


def test_theory_digits_rejects_unknown_pairings():
    with pytest.raises(ValueError):
        _theory("gb", "orthogonal", 2, sigma=0.1)
    with pytest.raises(ValueError):
        _theory("nf", "hypercube", 2, c=4.0)
    with pytest.raises(ValueError):
        _theory("warp", "orthogonal", 2, sigma=0.1)


def _growth_law(method, family, d, sigma, c):
    """The condition number theory_digits took from its own chain of family branches.

    Written out as that chain wrote each law, so that a law copied into
    families._FAMILY with another rounding shows as a changed bit.
    """
    if method == "stable":
        return c * math.sqrt(d) / 2.0 if family == "hypercube" else 1.0 / sigma
    if method == "gb" and family == "cyclic_squares":
        return sigma ** (-(2**d - 1))
    if method == "rur" and family == "hypercube":
        return (c / 2.0) ** (2**d - 1)
    if method in ("mep", "nf", "macaulay"):
        if family in ("orthogonal", "permutation"):
            return sigma ** (-d)
        if family in ("notdev2d", "notdev3d"):
            return sigma ** (-2.0)
    raise ValueError(f"no {method} line for {family}")


@pytest.mark.parametrize("family", sorted(_FAMILY))
def test_theory_digits_reads_each_family_row_bit_for_bit(family):
    _, param, dim, laws = _FAMILY[family]
    values = (1.0, 4.0, 1e3) if param == "c" else (1e-8, 1e-4, 1e-2, 0.5, 1.0)
    methods = ("stable", "gb", "rur", "mep", "nf", "macaulay", "warp")
    assert set(laws) <= set(methods)
    for d in (dim,) if dim else range(1, 7):
        for value in values:
            fspec = FamilySpec(family=family, d=d, **{param: value})
            sigma, c = (None, value) if param == "c" else (value, None)
            for method in methods:
                try:
                    kappa = _growth_law(method, family, d, sigma, c)
                except ValueError:
                    assert method not in laws
                    with pytest.raises(ValueError):
                        theory_digits(method, fspec)
                    continue
                except OverflowError:
                    with pytest.raises(OverflowError):
                        laws[method](d, value)
                    assert theory_digits(method, fspec) == 0.0, (method, d, value)
                    continue
                # The digits clip and round away a last-bit slip; kappa does not.
                assert laws[method](d, value) == kappa, (method, d, value)
                assert theory_digits(method, fspec) == _digits_from_kappa(kappa), (method, d, value)
