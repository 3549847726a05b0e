"""Dense linear algebra wrappers: companion, pencils, null spaces."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from polylab import (
    GenEigProblem,
    NullSpaceGapWarning,
    UniPoly,
    block_operator_determinant,
    companion_matrix,
    companion_roots,
    generalized_eig,
    kappa_eig,
    null_space,
    sigma_min,
)
from polylab import numkernel
from polylab.numkernel import _ZGGEV, INFINITE_EIG_TOL, PENCIL_PROBES, _zggev_lwork, kron


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


def _bit_test_pencils():
    """Seeded complex pencils n = 1..24, a real-valued one and one with singular B."""
    rng = np.random.default_rng(28)
    pencils = []
    for n in range(1, 25):
        A, B = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
        pencils.append(GenEigProblem(A=A, B=B))
    pencils.append(GenEigProblem(A=rng.standard_normal((6, 6)), B=rng.standard_normal((6, 6))))
    B = rng.standard_normal((7, 3)) @ rng.standard_normal((3, 7))
    pencils.append(GenEigProblem(A=rng.standard_normal((7, 7)) + 0j, B=B))
    return pencils


def _scipy_eig_reference(gep):
    """scipy.linalg.eig followed by a per-column np.linalg.norm normalization."""
    ab, vl, vr = scipy.linalg.eig(gep.A, gep.B, left=True, right=True, homogeneous_eigvals=True)
    alpha, beta = ab
    out = []
    for j in range(gep.dim):
        right = vr[:, j] / np.linalg.norm(vr[:, j])
        left = vl[:, j].conj()
        left = left / np.linalg.norm(left)
        denom = abs(alpha[j]) + abs(beta[j])
        ratio = float(abs(beta[j]) / denom) if denom > 0 else 0.0
        finite = abs(beta[j]) > INFINITE_EIG_TOL * denom
        out.append((complex(alpha[j] / beta[j]) if finite else None, ratio, right, left))
    return out


def test_generalized_eig_matches_scipy_eig_bit_for_bit():
    pencils = _bit_test_pencils()
    infinite = 0
    for gep in pencils:
        got = generalized_eig(gep)
        ref = _scipy_eig_reference(gep)
        assert len(got) == len(ref) == gep.dim
        for t, (lam, ratio, right, left) in zip(got, ref):
            assert t.lam == lam
            assert t.beta_ratio == ratio
            assert t.right.tobytes() == right.tobytes()
            assert t.left.tobytes() == left.tobytes()
            infinite += t.is_infinite
    assert infinite >= 1


def test_kappa_eig_matches_the_norm_formula_bit_for_bit():
    for gep in _bit_test_pencils():
        for t in generalized_eig(gep):
            if t.is_infinite:
                continue
            num = float(np.linalg.norm(t.left) * np.linalg.norm(t.right))
            expected = num / abs(t.left @ gep.B @ t.right) * (1.0 + abs(t.lam))
            assert kappa_eig(gep, t) == expected


def test_generalized_eig_rejects_non_finite_input():
    A = np.eye(3, dtype=complex)
    A[1, 2] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        generalized_eig(GenEigProblem(A=A, B=np.eye(3)))
    with pytest.raises(ValueError, match="infs or NaNs"):
        generalized_eig(GenEigProblem(A=np.eye(3), B=np.diag([1.0, np.inf, 1.0])))


def test_generalized_eig_of_an_empty_pencil_is_empty():
    assert generalized_eig(GenEigProblem(A=np.zeros((0, 0)), B=np.zeros((0, 0)))) == []


def test_cached_workspace_equals_a_fresh_query():
    rng = np.random.default_rng(29)
    for gep in _bit_test_pencils():
        n = gep.dim
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        fresh = _ZGGEV(A, A.T.copy(), lwork=-1)[-2][0].real.astype(np.int_)
        assert _zggev_lwork(n) == fresh


def test_eigenvectors_are_read_only_rows():
    rng = np.random.default_rng(30)
    gep = GenEigProblem(A=rng.standard_normal((4, 4)), B=rng.standard_normal((4, 4)))
    trips = generalized_eig(gep)
    before = [t.left.copy() for t in trips]
    for t in trips:
        assert not t.right.flags.writeable and not t.left.flags.writeable
        assert t.right.flags.c_contiguous and t.left.flags.c_contiguous
    with pytest.raises(ValueError):
        trips[0].right[0] = 0.0
    with pytest.raises(ValueError):
        trips[1].left *= 2.0
    assert all(np.array_equal(t.left, b) for t, b in zip(trips, before))


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


def test_kron_is_bit_equal_to_numpy_kron():
    rng = np.random.default_rng(28)

    def block(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    shapes = [(1, 1, 1, 1), (1, 1, 2, 2), (2, 2, 1, 1), (2, 2, 2, 2), (2, 3, 4, 1), (8, 8, 2, 2)]
    pairs = [(block(m, n), block(p, q)) for m, n, p, q in shapes]
    big = block(6, 6)
    pairs += [(big[::2, ::3], block(2, 2)), (block(2, 2), big.T), (big[1:3, 1:5], big[::-2, ::2])]
    pairs.append((np.ones((1, 1), dtype=complex), np.array([[-0.0 - 0.0j, 1e-310 + np.inf * 1j]])))
    with np.errstate(invalid="ignore"):
        for a, b in pairs:
            got, want = kron(a, b), np.kron(a, b)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_pencil_probes_are_the_seeded_scalar_draws():
    rng = np.random.default_rng(0x5EED)
    draws = [rng.standard_normal() for _ in range(2 * PENCIL_PROBES)]
    assert numkernel._PENCIL_DRAWS.ravel().tolist() == draws
    assert not numkernel._PENCIL_DRAWS.flags.writeable


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
