"""Dense linear algebra wrappers: companion, pencils, null spaces."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from polylab import (
    GenEigProblem,
    NullSpaceGapWarning,
    SingularPencil,
    UniPoly,
    companion_matrix,
    companion_roots,
    generalized_eig,
    kappa_eig,
    null_space,
    sigma_min,
)
from polylab.numkernel import (
    _ZGGEV,
    QZ_ZERO_TOL,
    _magnitude,
    _zggev_lwork,
    kron,
    laplace_expansion,
    random_unit_vector,
)


def kron_determinant(blocks) -> np.ndarray:
    """Block determinant with Kronecker products, expanded as operator_determinants expands Delta_0."""
    grid = [[np.asarray(M, dtype=complex) for M in row] for row in blocks]
    return laplace_expansion(grid, kron, np.ones((1, 1), dtype=complex), {})


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
    lams = sorted(generalized_eig(gep).lam.real)
    assert lams == pytest.approx([2.0, 3.0], abs=1e-13)


def test_generalized_eig_residuals_small():
    rng = np.random.default_rng(22)
    for _ in range(5):
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        gep = GenEigProblem(A=A, B=B)
        scale = np.linalg.norm(A, 2) + np.linalg.norm(B, 2)
        pairs = generalized_eig(gep)
        assert not pairs.infinite.any()
        for lam, right, left in zip(pairs.lam, pairs.right, pairs.left):
            M = A - lam * B
            assert np.linalg.norm(M @ right) <= 1e-10 * scale * (1 + abs(lam))
            # left vectors use the plain transpose convention
            assert np.linalg.norm(left @ M) <= 1e-10 * scale * (1 + abs(lam))


def test_generalized_eig_flags_infinite_for_singular_b():
    A = np.eye(2, dtype=complex)
    B = np.diag([1.0, 0.0]).astype(complex)
    gep = GenEigProblem(A=A, B=B)
    pairs = generalized_eig(gep)
    assert np.count_nonzero(pairs.infinite) == 1
    assert pairs.lam[pairs.infinite][0] == np.inf
    assert pairs.lam[~pairs.infinite][0] == pytest.approx(1.0)


def test_beta_ratio_separates_finite_from_infinite():
    A = np.diag([1.0, 1.0, 3.0]).astype(complex)
    B = np.diag([1.0, 0.0, 1.0]).astype(complex)
    gep = GenEigProblem(A=A, B=B)
    pairs = generalized_eig(gep)
    assert ((0.0 <= pairs.beta_ratio) & (pairs.beta_ratio <= 1.0)).all()
    assert (pairs.beta_ratio[pairs.infinite] <= 1e-12).all()
    # |beta|/(|alpha|+|beta|) collapses to 1/(1+|lam|)
    finite = ~pairs.infinite
    assert pairs.beta_ratio[finite] == pytest.approx(1.0 / (1.0 + np.abs(pairs.lam[finite])))


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
    tol = QZ_ZERO_TOL * gep.dim * np.finfo(float).eps * np.linalg.norm(gep.B)
    out = []
    for j in range(gep.dim):
        right = vr[:, j] / np.linalg.norm(vr[:, j])
        left = vl[:, j].conj()
        left = left / np.linalg.norm(left)
        ratio = float(abs(beta[j]) / (abs(alpha[j]) + abs(beta[j])))
        finite = abs(beta[j]) > tol
        out.append((complex(alpha[j] / beta[j]) if finite else None, ratio, right, left))
    return out


def test_generalized_eig_matches_scipy_eig_bit_for_bit():
    pencils = _bit_test_pencils()
    infinite = 0
    for gep in pencils:
        got = generalized_eig(gep)
        ref = _scipy_eig_reference(gep)
        assert len(got) == len(ref) == gep.dim
        for k, (lam, ratio, right, left) in enumerate(ref):
            assert got.infinite[k] == (lam is None)
            if lam is None:
                assert got.lam[k] == np.inf
                infinite += 1
            else:
                assert got.lam[k].tobytes() == np.complex128(lam).tobytes()
            assert got.beta_ratio[k].tobytes() == np.float64(ratio).tobytes()
            assert got.right[k].tobytes() == right.tobytes()
            assert got.left[k].tobytes() == left.tobytes()
    assert infinite >= 1


def test_kappa_eig_matches_the_norm_formula_bit_for_bit():
    for gep in _bit_test_pencils():
        pairs = generalized_eig(gep)
        kappas = kappa_eig(gep, pairs)
        assert kappas.shape == (len(pairs),)
        for k in range(len(pairs)):
            if pairs.infinite[k]:
                assert kappas[k] == math.inf
                continue
            y, x, lam = pairs.left[k], pairs.right[k], complex(pairs.lam[k])
            num = float(np.linalg.norm(y) * np.linalg.norm(x))
            expected = num / abs(y @ gep.B @ x) * (1.0 + abs(lam))
            assert kappas[k].tobytes() == np.float64(expected).tobytes()


def _with_common_null_vector(A, B, v, side):
    """A and B projected so that v is a common right (A v = B v = 0) or left null vector."""
    P = np.eye(len(v)) - np.outer(v, v.conj())
    return (A @ P, B @ P) if side == "right" else (P.T @ A, P.T @ B)


def test_a_pencil_with_a_common_null_vector_raises_singular_pencil():
    # det(A - lambda B) vanishes identically, and QZ shows it as a pair with
    # alpha and beta both at rounding level.
    rng = np.random.default_rng(31)
    for side in ("right", "left"):
        for _ in range(200):
            n = int(rng.integers(2, 13))
            A, B = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            A, B = _with_common_null_vector(A, B, v / np.linalg.norm(v), side)
            with pytest.raises(SingularPencil):
                generalized_eig(GenEigProblem(A=A, B=B))


def test_a_random_regular_pencil_does_not_raise_singular_pencil():
    rng = np.random.default_rng(32)
    for _ in range(500):
        n = int(rng.integers(1, 13))
        A, B = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
        assert len(generalized_eig(GenEigProblem(A=A, B=B))) == n


def test_generalized_eig_rejects_non_finite_input():
    A = np.eye(3, dtype=complex)
    A[1, 2] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        generalized_eig(GenEigProblem(A=A, B=np.eye(3)))
    with pytest.raises(ValueError, match="infs or NaNs"):
        generalized_eig(GenEigProblem(A=np.eye(3), B=np.diag([1.0, np.inf, 1.0])))


def test_generalized_eig_of_an_empty_pencil_is_empty():
    gep = GenEigProblem(A=np.zeros((0, 0)), B=np.zeros((0, 0)))
    pairs = generalized_eig(gep)
    assert len(pairs) == 0 and pairs.right.shape == pairs.left.shape == (0, 0)
    assert kappa_eig(gep, pairs).shape == (0,)


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
    pairs = generalized_eig(gep)
    before = pairs.left.copy()
    for V in (pairs.right, pairs.left):
        assert all(v.flags.c_contiguous for v in V)
    for kept in (pairs, pairs.take(np.array([2, 0])), pairs.take(pairs.beta_ratio > 0)):
        assert not kept.right.flags.writeable and not kept.left.flags.writeable
    with pytest.raises(ValueError):
        pairs.right[0, 0] = 0.0
    with pytest.raises(ValueError):
        pairs.left[1] *= 2.0
    assert np.array_equal(pairs.left, before)


def test_take_keeps_the_pairs_in_the_given_order():
    rng = np.random.default_rng(33)
    gep = GenEigProblem(A=rng.standard_normal((5, 5)), B=rng.standard_normal((5, 5)))
    pairs = generalized_eig(gep)
    kept = pairs.take(np.array([3, 1]))
    assert len(kept) == 2
    for j, k in enumerate((3, 1)):
        assert kept.lam[j] == pairs.lam[k] and kept.beta_ratio[j] == pairs.beta_ratio[k]
        assert kept.right[j].tobytes() == pairs.right[k].tobytes()
        assert kept.left[j].tobytes() == pairs.left[k].tobytes()
    assert kappa_eig(gep, kept).tobytes() == kappa_eig(gep, pairs)[[3, 1]].tobytes()


def test_magnitude_equals_the_scalar_abs():
    # np.abs on a complex array may take a SIMD loop that rounds differently
    # from Python's abs; the vectorized read-outs rely on this equality.
    rng = np.random.default_rng(34)
    n = 10**5
    re, im = (rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150, n) for _ in range(2))
    z = re + 1j * im
    want = np.array([abs(complex(v)) for v in z])
    assert _magnitude(z).tobytes() == want.tobytes()


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


def test_laplace_expansion_kron_two_by_two_formula():
    rng = np.random.default_rng(24)
    V = [[rng.standard_normal((2, 2)) for _ in range(2)] for _ in range(2)]
    got = kron_determinant([[V[0][0], V[0][1]], [V[1][0], V[1][1]]])
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


def test_laplace_expansion_kron_scalar_blocks():
    blocks = [[np.array([[2.0]]), np.array([[3.0]])], [np.array([[1.0]]), np.array([[4.0]])]]
    got = kron_determinant(blocks)
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(5.0)


def test_laplace_expansion_kron_zero_row_annihilates():
    # every expansion term picks one factor from the zero row
    rng = np.random.default_rng(25)
    row = [rng.standard_normal((2, 2)) for _ in range(2)]
    zero = [np.zeros((2, 2)), np.zeros((2, 2))]
    got = kron_determinant([row, zero])
    assert np.linalg.norm(got, 2) <= 1e-12


def test_laplace_expansion_kron_scalar_repeated_rows_vanish():
    # 1x1 blocks commute, so the alternating sum cancels exactly
    rng = np.random.default_rng(27)
    row = [rng.standard_normal((1, 1)) for _ in range(2)]
    got = kron_determinant([row, row])
    assert np.linalg.norm(got, 2) <= 1e-14


def test_sigma_min_matches_svd():
    rng = np.random.default_rng(26)
    for _ in range(5):
        M = rng.standard_normal((7, 4))
        assert sigma_min(M) == pytest.approx(np.linalg.svd(M, compute_uv=False)[-1], rel=1e-12)


def test_random_unit_vector_divides_by_the_numpy_norm():
    for d in (1, 2, 3, 7):
        rng, ref = np.random.default_rng(d), np.random.default_rng(d)
        for _ in range(20):
            v = ref.standard_normal(d)
            assert random_unit_vector(d, rng).tobytes() == (v / np.linalg.norm(v)).tobytes()
