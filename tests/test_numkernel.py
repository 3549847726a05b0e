"""Dense linear algebra wrappers: companion, pencils, null spaces."""

import warnings

import numpy as np
import pytest

from polylab import (
    GenEigProblem,
    NullSpaceGapWarning,
    UniPoly,
    block_operator_determinant,
    companion_matrix,
    companion_roots,
    generalized_eig,
    null_space,
    sigma_min,
)


def test_companion_matrix_shape_and_last_column():
    # monic x^3 + 2x^2 - x + 5
    p = UniPoly(np.array([5.0, -1.0, 2.0, 1.0], dtype=complex))
    C = companion_matrix(p)
    assert C.shape == (3, 3)
    assert np.allclose(C[:, -1], [-5.0, 1.0, -2.0])
    assert np.allclose(np.diag(C, -1), 1.0)


def test_companion_roots_on_quadratic():
    p = UniPoly(np.array([-1.0, 0.0, 1.0], dtype=complex))
    r = sorted(companion_roots(p).real)
    assert r == pytest.approx([-1.0, 1.0], abs=1e-14)


def test_companion_roots_agree_with_numpy():
    rng = np.random.default_rng(21)
    for _ in range(10):
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        coeffs[-1] = 1.0
        p = UniPoly(coeffs)
        ours = np.sort_complex(companion_roots(p))
        ref = np.sort_complex(np.roots(coeffs[::-1]))
        assert np.max(np.abs(ours - ref)) <= 1e-8


def test_companion_zero_constant_term_keeps_origin_exact():
    # A zero constant coefficient isolates the origin eigenvalue under
    # balancing, so the computed root at zero carries no rounding at all.
    p = UniPoly(np.array([0.0, -1e-3, 0.0, 0.0, 1.0], dtype=complex))
    roots = companion_roots(p)
    assert min(abs(r) for r in roots) == 0.0
    others = sorted(abs(r) for r in roots)[1:]
    assert all(abs(a - 0.1) <= 1e-12 for a in others)


def test_generalized_eig_diagonal_pencil():
    A = np.diag([2.0, 6.0]).astype(complex)
    B = np.diag([1.0, 2.0]).astype(complex)
    gep = GenEigProblem(A=A, B=B)
    lams = sorted(t.lam.real for t in generalized_eig(gep))
    assert lams == pytest.approx([2.0, 3.0], abs=1e-13)


def test_generalized_eig_residuals_small():
    rng = np.random.default_rng(22)
    for _ in range(5):
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        gep = GenEigProblem(A=A, B=B)
        scale = np.linalg.norm(A, 2) + np.linalg.norm(B, 2)
        for t in generalized_eig(gep):
            if t.is_infinite:
                continue
            M = A - t.lam * B
            assert np.linalg.norm(M @ t.right) <= 1e-10 * scale * (1 + abs(t.lam))
            # left vectors use the plain transpose convention
            assert np.linalg.norm(t.left.T @ M) <= 1e-10 * scale * (1 + abs(t.lam))


def test_generalized_eig_flags_infinite_for_singular_b():
    A = np.eye(2, dtype=complex)
    B = np.diag([1.0, 0.0]).astype(complex)
    gep = GenEigProblem(A=A, B=B)
    trips = generalized_eig(gep)
    assert sum(t.is_infinite for t in trips) == 1
    finite = [t for t in trips if not t.is_infinite]
    assert finite[0].lam == pytest.approx(1.0)


def test_beta_ratio_separates_finite_from_infinite():
    A = np.diag([1.0, 1.0, 3.0]).astype(complex)
    B = np.diag([1.0, 0.0, 1.0]).astype(complex)
    gep = GenEigProblem(A=A, B=B)
    for t in generalized_eig(gep):
        assert 0.0 <= t.beta_ratio <= 1.0
        if t.is_infinite:
            assert t.beta_ratio <= 1e-12
        else:
            # |beta|/(|alpha|+|beta|) collapses to 1/(1+|lam|)
            assert t.beta_ratio == pytest.approx(1.0 / (1.0 + abs(t.lam)))


def test_null_space_recovers_known_kernel():
    rng = np.random.default_rng(23)
    # build a 6x5 matrix with a planted 2-dimensional kernel
    U = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((5, 3)))[0]
    M = U @ np.diag([3.0, 2.0, 1.0]) @ V.T
    N = null_space(M, 2)
    assert N.shape == (5, 2)
    assert np.linalg.norm(M @ N, 2) <= 1e-12
    assert np.allclose(N.conj().T @ N, np.eye(2), atol=1e-12)


def test_null_space_warns_on_weak_separation():
    M = np.diag([1.0, 3e-8, 1e-8])
    with pytest.warns(NullSpaceGapWarning):
        null_space(M, 1)


def test_null_space_silent_on_clean_gap():
    M = np.diag([1.0, 0.5, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        null_space(M, 1)


def test_block_operator_determinant_two_by_two_formula():
    rng = np.random.default_rng(24)
    V = [[rng.standard_normal((2, 2)) for _ in range(2)] for _ in range(2)]
    got = block_operator_determinant([[V[0][0], V[0][1]], [V[1][0], V[1][1]]])
    want = np.kron(V[0][0], V[1][1]) - np.kron(V[0][1], V[1][0])
    assert np.allclose(got, want, atol=1e-12)


def test_block_operator_determinant_scalar_blocks():
    blocks = [[np.array([[2.0]]), np.array([[3.0]])], [np.array([[1.0]]), np.array([[4.0]])]]
    got = block_operator_determinant(blocks)
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(5.0)


def test_block_operator_determinant_zero_row_annihilates():
    # every expansion term picks one factor from the zero row
    rng = np.random.default_rng(25)
    row = [rng.standard_normal((2, 2)) for _ in range(2)]
    zero = [np.zeros((2, 2)), np.zeros((2, 2))]
    got = block_operator_determinant([row, zero])
    assert np.linalg.norm(got, 2) <= 1e-12


def test_block_operator_determinant_scalar_repeated_rows_vanish():
    # 1x1 blocks commute, so the alternating sum cancels exactly
    rng = np.random.default_rng(27)
    row = [rng.standard_normal((1, 1)) for _ in range(2)]
    got = block_operator_determinant([row, row])
    assert np.linalg.norm(got, 2) <= 1e-14


def test_sigma_min_matches_svd():
    rng = np.random.default_rng(26)
    for _ in range(5):
        M = rng.standard_normal((7, 4))
        assert sigma_min(M) == pytest.approx(np.linalg.svd(M, compute_uv=False)[-1], rel=1e-12)
