"""Dense linear algebra wrappers: companion, pencils, null spaces."""

import ctypes
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polylab.numkernel as numkernel

from polylab import (
    FamilySpec,
    GenEigProblem,
    NullSpaceGapWarning,
    SingularPencil,
    companion_matrix,
    companion_roots,
    generalized_eig,
    generate,
    kappa_eig,
    macaulay_pencil,
    null_space,
    sigma_min,
)
from polylab.numkernel import (
    QZ_ZERO_TOL,
    SvdFactor,
    _magnitude,
    _zggev_lwork,
    random_unit_vector,
)
from polylab.solvers import MultiParamEig, operator_determinants


def kron_determinant(blocks) -> np.ndarray:
    """Block determinant with Kronecker products: Delta_0 of the mep whose V_ij are ``blocks``."""
    W = [(np.zeros_like(row[0], dtype=complex), *row) for row in blocks]
    return operator_determinants(MultiParamEig(d=len(blocks), W=W))[0]


def test_companion_matrix_shape_and_last_column():
    # monic x^3 + 2x^2 - x + 5
    C = companion_matrix(np.array([5.0, -1.0, 2.0, 1.0], dtype=complex))
    assert C.shape == (3, 3)
    assert np.allclose(C[:, -1], [-5.0, 1.0, -2.0])
    assert np.allclose(np.diag(C, -1), 1.0)


def test_companion_matrix_trims_trailing_zeros_and_needs_degree_one():
    rng = np.random.default_rng(29)
    for n in (1, 2, 5):
        coeffs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        want = companion_matrix(coeffs)
        for zeros in (1, 3):
            padded = np.concatenate([coeffs, np.zeros(zeros, dtype=complex)])
            assert companion_matrix(padded).tobytes() == want.tobytes()
    assert np.array_equal(companion_matrix([2.0, 4.0]), [[-0.5]])
    for coeffs in ([3.0], [3.0, 0.0, 0.0], [0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="degree >= 1"):
            companion_matrix(np.array(coeffs, dtype=complex))


def test_companion_roots_on_quadratic():
    r = sorted(companion_roots(np.array([-1.0, 0.0, 1.0], dtype=complex)).real)
    assert r == pytest.approx([-1.0, 1.0], abs=1e-14)


def test_companion_roots_agree_with_numpy():
    rng = np.random.default_rng(21)
    for _ in range(10):
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        coeffs[-1] = 1.0
        ours = np.sort_complex(companion_roots(coeffs))
        ref = np.sort_complex(np.roots(coeffs[::-1]))
        assert np.max(np.abs(ours - ref)) <= 1e-8


def test_companion_zero_constant_term_keeps_origin_exact():
    # A zero constant coefficient isolates the origin eigenvalue under
    # balancing, so the computed root at zero carries no rounding at all.
    roots = companion_roots(np.array([0.0, -1e-3, 0.0, 0.0, 1.0], dtype=complex))
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


def test_the_scipy_fallback_is_byte_equal_to_numpys_lapack(scipy_fallback):
    pencils = _bit_test_pencils()
    want = [generalized_eig(gep) for gep in pencils]
    scipy_fallback()
    for gep, ref in zip(pencils, want):
        got = generalized_eig(gep)
        for field in ("lam", "infinite", "beta_ratio", "right", "left"):
            assert getattr(got, field).tobytes() == getattr(ref, field).tobytes()


def test_the_scipy_fallback_hands_lapack_the_workspace_its_query_returns(scipy_fallback, monkeypatch):
    # Without lwork, f2py's wrappers pick their own default workspace; the
    # fallback passes the one scipy's lwork=-1 query returns for the shape.
    scipy_fallback()
    routine = numkernel._scipy_routine
    passed = []

    def spy(name):
        wrapped = routine(name)
        if name not in ("ggev", "geqp3"):
            return wrapped

        def call(a, *args, **kwargs):
            passed.append((name, a.shape, kwargs.get("lwork")))
            return wrapped(a, *args, **kwargs)

        return call

    def queried(name, shape):
        z = np.zeros(shape, dtype=complex)
        query = scipy.linalg.get_lapack_funcs(name, dtype=np.complex128)
        return int((query(z, z, lwork=-1) if name == "ggev" else query(z, lwork=-1))[-2][0].real)

    monkeypatch.setattr(numkernel, "_scipy_routine", spy)
    rng = np.random.default_rng(48)
    for n in (1, 5, 30, 64):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        generalized_eig(GenEigProblem(A=A, B=A.T))
        numkernel._zgeqp3(A[:, : (n + 1) // 2])
    calls = [(name, shape, lwork) for name, shape, lwork in passed if lwork != -1]
    assert sorted({name for name, _, _ in calls}) == ["geqp3", "ggev"] and len(calls) == 8
    for name, shape, lwork in calls:
        assert lwork == queried(name, shape)


def _right_only_test_pencils():
    """_bit_test_pencils, pencils with B = I, and the square d = 2 Macaulay pencil, which has infinite pairs."""
    rng = np.random.default_rng(49)
    identity = [
        GenEigProblem(A=rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), B=np.eye(n))
        for n in (1, 2, 5, 12, 32, 64)
    ]
    s = generate(FamilySpec(family="orthogonal", d=2, sigma=0.1, seed=4))
    square = macaulay_pencil(s, np.random.default_rng(6))
    assert square.Z is None
    return _bit_test_pencils() + identity + [square.gep]


@pytest.mark.parametrize("lapack", ["numpy", "scipy-fallback"])
def test_a_right_only_qz_returns_the_two_sided_pairs_bit_for_bit(blas_threads, lapack, request):
    # zggev with JOBVL = 'N' gets the workspace of the 'V', 'V' query, so it
    # runs with the block size, and returns the bits, of the two-sided call.
    if lapack == "scipy-fallback":
        request.getfixturevalue("scipy_fallback")()
    infinite = 0
    for gep in _right_only_test_pencils():
        both, right = generalized_eig(gep), generalized_eig(gep, left=False)
        assert right.left is None and both.left is not None
        for field in ("lam", "infinite", "beta_ratio", "right"):
            assert getattr(right, field).tobytes() == getattr(both, field).tobytes(), (gep.dim, field)
        assert not right.right.flags.writeable
        infinite += int(right.infinite.sum())
    assert infinite >= 7  # the singular-B pencil's and the Macaulay pencil's


def test_kappa_eig_rejects_pairs_without_left_vectors():
    rng = np.random.default_rng(50)
    gep = GenEigProblem(A=rng.standard_normal((4, 4)), B=rng.standard_normal((4, 4)))
    pairs = generalized_eig(gep, left=False)
    for kept in (pairs, pairs.take(np.array([2, 0])), pairs.take(pairs.beta_ratio > 0)):
        assert kept.left is None
        with pytest.raises(ValueError, match="^kappa_eig needs left eigenvectors"):
            kappa_eig(gep, kept)
    empty = GenEigProblem(A=np.zeros((0, 0)), B=np.zeros((0, 0)))
    with pytest.raises(ValueError, match="^kappa_eig needs left eigenvectors"):
        kappa_eig(empty, generalized_eig(empty, left=False))


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
    ggev = scipy.linalg.get_lapack_funcs("ggev", dtype=np.complex128)
    for gep in _bit_test_pencils():
        n = gep.dim
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        fresh = ggev(A, A.T.copy(), lwork=-1)[-2][0].real.astype(np.int_)
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


needs_kernel = pytest.mark.skipif(
    numkernel._LAPACK is None, reason="numpy's build does not export the LAPACK routines"
)


class _DlInfo(ctypes.Structure):
    _fields_ = [
        ("dli_fname", ctypes.c_char_p),
        ("dli_fbase", ctypes.c_void_p),
        ("dli_sname", ctypes.c_char_p),
        ("dli_saddr", ctypes.c_void_p),
    ]


def _library_of(function) -> bytes:
    """The path of the shared library that defines a ctypes function, by dladdr."""
    dladdr = ctypes.CDLL(None).dladdr
    dladdr.argtypes = [ctypes.c_void_p, ctypes.POINTER(_DlInfo)]
    info = _DlInfo()
    assert dladdr(ctypes.cast(function, ctypes.c_void_p), ctypes.byref(info))
    return info.dli_fname


@needs_kernel
def test_every_routine_comes_from_the_blas_whose_threads_are_read():
    # QZ, the pivoted QR and the eigenvector norms run in the one OpenBLAS
    # that SvdFactor's thread check reads, not in scipy's copy.
    lapack = numkernel._LAPACK
    assert {"zggev", "zgeqp3", "dznrm2"} <= lapack.keys()
    assert numkernel._BLAS_THREADS is not None
    blas = _library_of(numkernel._BLAS_THREADS)
    assert {name: _library_of(f) for name, f in lapack.items()} == dict.fromkeys(lapack, blas)


def assert_svd_bits(M, nullities) -> SvdFactor:
    """SvdFactor.of(M) against np.linalg.svd of M as complex: singular values and null spaces, bits and layout."""
    M = np.asarray(M, dtype=complex)
    m, n = M.shape
    f = SvdFactor.of(M)
    _, values, vh = np.linalg.svd(M, full_matrices=m < n)
    assert np.array_equal(f.singular_values[: values.size], values)
    V = vh.conj().T
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NullSpaceGapWarning)
        for k in nullities:
            N = f.null_space(k)
            assert np.array_equal(N, V[:, n - k :]) and N.strides == V[:, n - k :].strides
    return f


@needs_kernel
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_svd_factor_is_numpys_svd_on_zgesdd_path_6(blas_threads, data):
    # n <= m < floor(5n/3): zgesdd's path 6, which SvdFactor runs without U.
    # Shapes this small run zunmbr unblocked or, mostly, with a block size
    # cut to zgesdd's workspace; the Macaulay tests cover the full one.
    n = data.draw(st.integers(2, 80), label="n")
    square = data.draw(st.booleans(), label="square")
    m = n if square else data.draw(st.integers(n, int(n * 5.0 / 3.0) - 1), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    M = rng.standard_normal((m, n)).astype(complex)
    if data.draw(st.booleans(), label="complex"):
        M += 1j * rng.standard_normal((m, n))
    nullities = {1, n, data.draw(st.integers(1, n), label="k")}
    assert assert_svd_bits(M, sorted(nullities)).reflectors is not None


def test_svd_factor_leaves_other_matrices_to_numpy():
    rng = np.random.default_rng(29)
    M = rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10))
    # zgesdd rescales these two before it reduces them.
    for scaled in (1e-150 * M, 1e150 * M):
        assert assert_svd_bits(scaled, [1, 4, 10]).reflectors is None
    # Wide (zgesdd's paths 5t/6t) and much taller (paths 1-5) shapes.
    for other in (M.T, M[:6], np.vstack([M, M])):
        assert assert_svd_bits(other, [1, 4, other.shape[1]]).reflectors is None
    # A zero matrix is not rescaled.
    assert_svd_bits(np.zeros((6, 5)), [1, 5])


@pytest.mark.parametrize("where", [(2, 3), slice(None)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_svd_factor_takes_non_finite_input_as_numpy_does(bad, where):
    # np.linalg.svd raises on some non-finite matrices and returns nan
    # singular values on others; SvdFactor.of does the same.
    M = np.random.default_rng(30).standard_normal((7, 6)).astype(complex)
    M[where] = bad
    try:
        _, want, _ = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        with pytest.raises(np.linalg.LinAlgError, match=str(exc)):
            SvdFactor.of(M)
    else:
        assert np.array_equal(SvdFactor.of(M).singular_values, want, equal_nan=True)


@needs_kernel
def test_svd_factor_raises_when_dbdsdc_does_not_converge(monkeypatch):
    lapack = numkernel._lapack
    monkeypatch.setattr(
        numkernel, "_lapack", lambda name, *args: 1 if name == "dbdsdc" else lapack(name, *args)
    )
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        SvdFactor.of(np.eye(5))


@needs_kernel
@pytest.mark.parametrize("threads, first", [(1, 64), (2, 0)])
def test_svd_factor_back_transforms_only_the_row_groups_a_null_space_reads(monkeypatch, threads, first):
    # Rows 70..89 of V^H: one BLAS thread transforms them from row 64, the
    # multiple of _ROW_GROUP below; more threads transform all 90 rows.
    M = np.random.default_rng(31).standard_normal((100, 90)).astype(complex)
    calls = []
    lapack = numkernel._lapack

    def spy(name, *args):
        calls.append((name, args[:4]))
        return lapack(name, *args)

    monkeypatch.setattr(numkernel, "_lapack", spy)
    monkeypatch.setattr(numkernel, "_BLAS_THREADS", lambda: threads)
    f = SvdFactor.of(M)
    assert "zunmbr" not in [name for name, _ in calls]  # U is never formed
    calls.clear()
    with pytest.warns(NullSpaceGapWarning):  # a random matrix has no null space
        f.null_space(20)
    assert [c for c in calls if c[0] == "zunmbr"] == [("zunmbr", (b"P", b"R", b"C", 90 - first))]


def test_laplace_expansion_kron_two_by_two_formula():
    rng = np.random.default_rng(24)
    V = [[rng.standard_normal((2, 2)) for _ in range(2)] for _ in range(2)]
    got = kron_determinant([[V[0][0], V[0][1]], [V[1][0], V[1][1]]])
    want = np.kron(V[0][0], V[1][1]) - np.kron(V[0][1], V[1][0])
    assert np.allclose(got, want, atol=1e-12)


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


@pytest.mark.parametrize("d", range(1, 7))
def test_sign_patterns_are_the_bitwise_loop_bit_for_bit(d):
    # The loop the hypercube roots, the RUR t-values and the subset sums
    # each ran: +1 where bit j of k is clear, -1 where it is set.
    want = np.array([[1.0 if mask & (1 << j) == 0 else -1.0 for j in range(d)] for mask in range(2**d)])
    P = numkernel._sign_patterns(d)
    assert P.dtype == want.dtype and P.shape == want.shape and P.tobytes() == want.tobytes()
    assert not P.flags.writeable and numkernel._sign_patterns(d) is P
    subsets = np.array([[float(mask >> j & 1) for j in range(d)] for mask in range(1, 2**d)])
    assert ((1 - P[1:]) / 2).tobytes() == subsets.tobytes()


def test_one_blas_thread_pins_the_count_and_restores_it(two_blas_threads):
    assert numkernel._BLAS_THREADS() == 2
    with numkernel._one_blas_thread():
        assert numkernel._BLAS_THREADS() == 1
    assert numkernel._BLAS_THREADS() == 2
    with pytest.raises(KeyError), numkernel._one_blas_thread():
        raise KeyError("a failure inside the block")
    assert numkernel._BLAS_THREADS() == 2
