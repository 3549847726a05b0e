"""Macaulay matrices, quotient-basis selection, and the h-pencil."""

import numpy as np
import pytest
import scipy.linalg

import polylab.macaulay
from polylab import (
    FAMILIES,
    FamilySpec,
    MultiPoly,
    NullityMismatch,
    PolySystem,
    SingularPencil,
    bezout_count,
    choose_basis,
    generalized_eig,
    generate,
    linear_poly,
    macaulay_hat,
    macaulay_pencil,
    monomials_up_to,
    normal_form,
    null_space,
    rho,
    sigma_min,
    solve_macaulay_resultant,
)
from polylab.macaulay import _h_rows
from polylab.numkernel import _ZGEQP3, SvdFactor, _zgeqp3_lwork
from polylab.polycore import monomial_positions


def two_quadratics(rng):
    polys = []
    for _ in range(2):
        terms = {}
        for m in monomials_up_to(2, 2):
            terms[m] = complex(rng.standard_normal(), rng.standard_normal())
        polys.append(MultiPoly(2, terms))
    return PolySystem(2, polys, true_roots=[], family_tag="")


def test_hat_matrix_shape_for_two_bivariate_quadratics():
    rng = np.random.default_rng(41)
    s = two_quadratics(rng)
    mhat = macaulay_hat(s, rho(s))
    # multipliers of degree <= 1 for each quadratic, columns up to degree 3
    assert mhat.index.degree == 3
    assert mhat.mat.shape == (6, 10)
    assert len(mhat.index.row_labels) == 6
    assert len(mhat.index.col_labels) == 10


def test_hat_rows_encode_monomial_multiples():
    rng = np.random.default_rng(42)
    s = two_quadratics(rng)
    mhat = macaulay_hat(s, rho(s))
    for _ in range(5):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        colvals = np.array([x[0] ** m[0] * x[1] ** m[1] for m in mhat.index.col_labels])
        for (i, mult), row in zip(mhat.index.row_labels, mhat.mat):
            want = s.polys[i].eval(x) * x[0] ** mult[0] * x[1] ** mult[1]
            assert abs(row @ colvals - want) <= 1e-10 * (1 + abs(want))


def test_hat_rejects_degree_below_system_degree():
    rng = np.random.default_rng(43)
    s = two_quadratics(rng)
    with pytest.raises(ValueError):
        macaulay_hat(s, 1)


def test_choose_basis_reads_the_null_space():
    rng = np.random.default_rng(44)
    s = two_quadratics(rng)
    mhat = macaulay_hat(s, rho(s))
    r = bezout_count(s)
    sel = choose_basis(mhat)
    assert len(sel.monomials) == r
    assert all(sum(m) <= mhat.index.degree - 1 for m in sel.monomials)
    # the null space annihilates the matrix and has orthonormal columns
    assert np.linalg.norm(mhat.mat @ sel.nullspace, 2) <= 1e-10 * np.linalg.norm(mhat.mat, 2)
    assert np.allclose(sel.nullspace.conj().T @ sel.nullspace, np.eye(r), atol=1e-12)
    assert [mhat.index.col_labels[k] for k in sel.indices] == sel.monomials
    # the selection's column map is the shared grlex map of the Macaulay degree
    assert sel.index is mhat.index
    assert sel.index.columns is monomial_positions(rho(s), 2)
    assert sel.index.col_labels == tuple(sel.index.columns)
    assert sel.cond == np.linalg.cond(sel.nullspace[sel.indices, :])
    assert sel.cond < 1e6


# (r, candidates) of choose_basis's QR at d = 2, 3, 4 and 5, and a shape
# whose min(m, n) passes zgeqp3's crossover to blocked code (128 by default),
# where the workspace size decides the block size.
@pytest.mark.parametrize("shape", [(4, 6), (8, 20), (16, 70), (32, 252), (160, 200)])
def test_the_direct_pivoted_qr_equals_scipys(shape):
    m, n = shape
    rng = np.random.default_rng(m)
    # orthonormal columns, as choose_basis's null space rows have, plus a
    # copy with two equal candidates so that pivoting sees a tie
    Q = np.linalg.qr(rng.standard_normal((n + 3, m)) + 1j * rng.standard_normal((n + 3, m)))[0]
    tied = Q[:n].copy()
    tied[5] = tied[2]
    for C in (Q[:n], tied):
        R, piv = scipy.linalg.qr(C.T, mode="r", pivoting=True)
        qr, jpvt, _, _, info = _ZGEQP3(C.copy().T, lwork=_zgeqp3_lwork(m, n), overwrite_a=True)
        assert info == 0
        assert (jpvt - 1).tobytes() == piv.tobytes()
        assert np.diag(qr).tobytes() == np.diag(R).tobytes()
    fresh = _ZGEQP3(Q[:n].T, lwork=-1)[-2][0].real.astype(np.int_)
    assert _zgeqp3_lwork(m, n) == fresh


@pytest.mark.parametrize("family", FAMILIES)
def test_the_macaulay_matrix_carries_the_bezout_count(family):
    d = 3 if family == "notdev3d" else 2
    scale = {"c": 2.0} if family == "hypercube" else {"sigma": 0.5}
    s = generate(FamilySpec(family=family, d=d, **scale), rng=np.random.default_rng(46))
    assert macaulay_hat(s, rho(s)).bezout == bezout_count(s)


def test_pencil_is_square_with_h_rows_for_the_basis():
    rng = np.random.default_rng(45)
    s = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5), rng=rng)
    pen = macaulay_pencil(s, np.random.default_rng(7))
    n_poly_rows = pen.mhat.mat.shape[0]
    assert pen.gep.A.shape == (10, 10)
    assert n_poly_rows == 6
    assert pen.Z is None
    assert len(pen.basis.monomials) == 4
    # polynomial rows carry no lambda part
    assert np.linalg.norm(pen.gep.B[:n_poly_rows], 2) == 0.0
    assert np.allclose(pen.gep.A[:n_poly_rows], macaulay_hat(s, rho(s)).mat)


def test_pencil_h_rows_match_the_linear_polynomials():
    rng = np.random.default_rng(46)
    s = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5), rng=rng)
    pen = macaulay_pencil(s, np.random.default_rng(8))
    halpha = linear_poly(2, pen.alpha)
    hbeta = linear_poly(2, pen.beta)
    cols = pen.mhat.index.col_labels
    A2 = pen.gep.A[pen.mhat.mat.shape[0] :]
    B2 = pen.gep.B[pen.mhat.mat.shape[0] :]
    for k, m in enumerate(pen.basis.monomials):
        for x in (np.array([0.3, -0.7]), np.array([1.1, 0.4])):
            colvals = np.array([x[0] ** c[0] * x[1] ** c[1] for c in cols])
            mval = x[0] ** m[0] * x[1] ** m[1]
            a_want = halpha.eval(x) * mval
            b_want = hbeta.eval(x) * mval
            assert abs(A2[k] @ colvals - a_want) <= 1e-12 * (1 + abs(a_want))
            assert abs(B2[k] @ colvals - b_want) <= 1e-12 * (1 + abs(b_want))


def test_pencil_finite_spectrum_is_h_ratio_at_the_roots():
    rng = np.random.default_rng(47)
    s = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5), rng=rng)
    pen = macaulay_pencil(s, np.random.default_rng(9))
    halpha = linear_poly(2, pen.alpha)
    hbeta = linear_poly(2, pen.beta)
    want = sorted(
        (complex(halpha.eval(np.asarray(r))) / complex(hbeta.eval(np.asarray(r))) for r in s.true_roots),
        key=lambda z: (z.real, z.imag),
    )
    pairs = generalized_eig(pen.gep)
    got = np.sort_complex(pairs.lam[~pairs.infinite])
    assert len(got) == bezout_count(s)
    assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-8


def test_rectangular_pencil_is_its_h_rows_compressed_to_the_null_space():
    # At d = 3 the 30 x 35 Macaulay matrix plus 8 h rows is rectangular.
    rng = np.random.default_rng(49)
    s = generate(FamilySpec(family="cyclic_squares", d=3, sigma=0.5), rng=rng)
    pen = macaulay_pencil(s, np.random.default_rng(10))
    r = bezout_count(s)
    assert pen.mhat.mat.shape[0] + r > len(pen.mhat.index.col_labels)
    assert pen.Z is pen.basis.nullspace
    assert pen.gep.A.shape == (r, r)
    up = pen.mhat.index.up
    assert pen.gep.A.tobytes() == (_h_rows(pen.basis.indices, pen.alpha, up) @ pen.Z).tobytes()
    assert pen.gep.B.tobytes() == (_h_rows(pen.basis.indices, pen.beta, up) @ pen.Z).tobytes()
    halpha = linear_poly(3, pen.alpha)
    hbeta = linear_poly(3, pen.beta)
    want = sorted(
        (complex(halpha.eval(np.asarray(x))) / complex(hbeta.eval(np.asarray(x))) for x in s.true_roots),
        key=lambda z: (z.real, z.imag),
    )
    got = np.sort_complex(generalized_eig(pen.gep).lam)
    assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-8


def test_both_pencil_shapes_check_the_nullity_before_drawing(monkeypatch):
    # For the square pencil a nullity above r makes it singular for every lambda.
    square = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5), rng=np.random.default_rng(52))
    rect = generate(FamilySpec(family="cyclic_squares", d=3, sigma=0.5), rng=np.random.default_rng(52))
    assert macaulay_pencil(square, np.random.default_rng(13)).Z is None
    assert macaulay_pencil(rect, np.random.default_rng(13)).Z is not None
    monkeypatch.setattr(SvdFactor, "nullity", property(lambda self: 9))
    for s, r in ((square, 4), (rect, 8)):
        rng = np.random.default_rng(13)
        with pytest.raises(NullityMismatch, match=f"numerical nullity 9 != expected root count {r}"):
            macaulay_pencil(s, rng)
        assert rng.standard_normal() == np.random.default_rng(13).standard_normal()


class _ZeroRng:
    """Draws only zeros, so alpha = beta = 0 and both h blocks vanish."""

    def standard_normal(self, size):
        return np.zeros(size)


@pytest.mark.parametrize("d", [2, 3])  # square, then compressed pencil
def test_a_pencil_that_never_passes_its_probe_raises_singular_pencil(d):
    # With h_alpha = h_beta = 0 the pencil is singular for every lambda: the
    # square one is ([A1; 0], 0), the compressed one is (0, 0). QZ's pair
    # guard in generalized_eig is the probe, and the solve raises through it.
    s = generate(FamilySpec(family="cyclic_squares", d=d, sigma=0.5), rng=np.random.default_rng(51))
    pen = macaulay_pencil(s, _ZeroRng())
    assert (pen.Z is None) == (d == 2)
    assert not pen.gep.B.any()
    with pytest.raises(SingularPencil):
        generalized_eig(pen.gep)
    with pytest.raises(SingularPencil):
        solve_macaulay_resultant(s, rng=_ZeroRng())


@pytest.mark.parametrize("d", [2, 4])  # wide, then tall Macaulay matrix
def test_shared_factor_matches_fresh_factorizations(d):
    s = generate(FamilySpec(family="orthogonal", d=d, sigma=1e-2), rng=np.random.default_rng(53))
    mhat = macaulay_hat(s, rho(s))
    M = mhat.mat
    r = bezout_count(s)
    assert (M.shape[0] < M.shape[1]) == (d == 2)
    values = np.linalg.svd(M, compute_uv=False)
    tol = max(M.shape) * np.finfo(float).eps * values[0]
    assert mhat.factor.nullity == M.shape[1] - np.count_nonzero(values > tol) == r
    assert mhat.factor.sigma_min == pytest.approx(values[-1], rel=1e-12)
    angles = scipy.linalg.subspace_angles(mhat.factor.null_space(r), null_space(M, r))
    assert np.max(angles) < 1e-10


def test_normal_form_annihilates_ideal_members():
    rng = np.random.default_rng(49)
    s = generate(FamilySpec(family="notdev2d", d=2, sigma=0.1), rng=rng)
    mhat = macaulay_hat(s, rho(s))
    sel = choose_basis(mhat)
    for p in s.polys:
        c = normal_form(p, sel.monomials, sel.nullspace)
        assert np.max(np.abs(c)) <= 1e-10 * s.coefficient_scale()


def test_normal_form_fixes_basis_monomials():
    rng = np.random.default_rng(50)
    s = generate(FamilySpec(family="notdev2d", d=2, sigma=0.1), rng=rng)
    mhat = macaulay_hat(s, rho(s))
    sel = choose_basis(mhat)
    for k, m in enumerate(sel.monomials):
        c = normal_form(MultiPoly(2, {m: 1.0}), sel.monomials, sel.nullspace)
        e = np.zeros(len(sel.monomials))
        e[k] = 1.0
        assert np.max(np.abs(c - e)) <= 1e-10


def test_normal_form_rejects_over_degree_input():
    rng = np.random.default_rng(51)
    s = generate(FamilySpec(family="notdev2d", d=2, sigma=0.1), rng=rng)
    mhat = macaulay_hat(s, rho(s))
    sel = choose_basis(mhat)
    too_big = MultiPoly(2, {(4, 0): 1.0})
    with pytest.raises(ValueError):
        normal_form(too_big, sel.monomials, sel.nullspace)
