"""Dense complex linear algebra kernels shared by the solvers.

Thin contracts over LAPACK-backed routines: SVD, generalized eigenproblems
with left and right eigenvectors, fixed-nullity null spaces, the one
cofactor expansion, compiled per support (_cofactor_plan, behind det Q and
the block determinants Delta_0..Delta_d), companion-matrix rootfinding,
and seeded random matrix generators. Matrices are plain complex ndarrays.

Every LAPACK and BLAS routine called here by name comes from numpy's own
build (scipy-openblas), through ctypes, so one OpenBLAS and one thread
setting serve all of them; scipy's f2py wrappers stand in, imported on
first use, only on a numpy build that does not export those routines.

generalized_eig calls zggev directly, once per pencil, with its workspace
size cached per dimension, and returns every eigenpair of the pencil as
one EigPairs of arrays. Its outputs are byte-equal to scipy.linalg.eig
followed by a per-vector np.linalg.norm normalization, wherever numpy's
and scipy's OpenBLAS agree, which is why it keeps both normalization
passes. The private stacked kernels (_dots,
_row_norms, _bilinear, _magnitude) let callers read all eigenpairs at once
with results byte-equal to a loop over the pairs.

SvdFactor never forms U. On the tall matrices of zgesdd's path 6 it runs
zgesdd's own steps (zgebrd, dbdsdc, zunmbr) and back-transforms only the
rows of V^H that a null space reads; its singular values and null spaces
are byte-equal to np.linalg.svd's. Every other matrix goes to
np.linalg.svd.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .polycore import SUPPORT_CACHE_SIZE, UniPoly

# A QZ pair entry within QZ_ZERO_TOL * n * eps of the norm of its matrix
# (alpha against ||A||_F, beta against ||B||_F) is zero at QZ's backward error.
QZ_ZERO_TOL = 100


class SingularPencil(Exception):
    """QZ returned a pair with alpha and beta both at rounding level: det(A - lambda B) is identically 0."""


class NullSpaceGapWarning(UserWarning):
    """The singular value gap at the requested nullity is weak."""


@dataclass(frozen=True)
class GenEigProblem:
    """Generalized eigenproblem A x = lambda B x."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        B = np.asarray(self.B, dtype=complex)
        if A.shape != B.shape:
            raise ValueError("A and B must have identical shapes")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def dim(self) -> int:
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError("pencil is not square")
        return self.A.shape[0]


@dataclass(frozen=True)
class EigPairs:
    """Every eigenpair of one pencil, as arrays indexed alike (QZ order).

    ``lam[k]`` is the k-th eigenvalue, inf where ``infinite[k]``: QZ's
    |beta| is at rounding level of ||B||_F (see generalized_eig).
    ``beta_ratio`` is |beta| / (|alpha| + |beta|) from the QZ output: 0 for
    an exactly infinite eigenvalue, near 1 for an eigenvalue close to 0; a
    caller that knows how many eigenvalues are finite ranks them by it.
    ``right[k]`` and ``left[k]`` are unit eigenvectors, the left one in the
    transpose convention: left[k] @ (A - lam[k] B) = 0. Their rows are
    read-only.
    """

    lam: np.ndarray
    infinite: np.ndarray
    beta_ratio: np.ndarray
    right: np.ndarray
    left: np.ndarray

    def __post_init__(self):
        self.right.setflags(write=False)
        self.left.setflags(write=False)

    def __len__(self) -> int:
        return self.lam.size

    def take(self, idx) -> "EigPairs":
        """The pairs at ``idx``, an index array or a boolean mask, in its order."""
        return EigPairs(
            lam=self.lam[idx],
            infinite=self.infinite[idx],
            beta_ratio=self.beta_ratio[idx],
            right=self.right[idx],
            left=self.left[idx],
        )


def sigma_min(M) -> float:
    """Smallest singular value, counting only the min(m, n) spectrum."""
    M = np.asarray(M, dtype=complex)
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[-1])


# numpy's own LAPACK and BLAS, the build np.linalg runs from (scipy-openblas:
# 64-bit integers), so that QZ, the pivoted QR, the eigenvector norms and
# SvdFactor's steps of zgesdd run in one OpenBLAS, whose thread count
# _BLAS_THREADS reads. Each routine's arguments, all by reference, one letter
# each: "f" a character flag, "i" a 64-bit integer, "p" an array (its
# address, or None for an array the call does not reference). After them
# gfortran passes one hidden size_t length per flag. dznrm2 and zlange are
# functions returning a double; the rest are subroutines.
_LAPACK_SIGNATURES = {
    "zggev": "ffipipipppipipipi",
    "zgeqp3": "iipipppipi",
    "dznrm2": "ipi",
    "zgesdd": "fiipippipipippi",
    "zgebrd": "iipipppppii",
    "dbdsdc": "ffipppipippppi",
    "zunmbr": "fffiiipippipii",
    "zunmlq": "ffiiipippipii",
    "zlange": "fiipip",
}
_ARG_TYPES = {"f": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int64), "p": ctypes.c_void_p}


def _load_lapack():
    """The routines of _LAPACK_SIGNATURES and OpenBLAS's thread-count getter, from numpy's build.

    (None, None) where numpy's build does not export them (the Accelerate
    macOS arm64 wheels, conda builds): zggev, zgeqp3 and nrm2 then come from
    scipy's f2py wrappers (_scipy_routine), and SvdFactor from np.linalg.svd.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        routines = {name: getattr(lib, f"scipy_{name}_64_") for name in _LAPACK_SIGNATURES}
    except (OSError, AttributeError):
        return None, None
    for name, signature in _LAPACK_SIGNATURES.items():
        flags = [ctypes.c_size_t] * signature.count("f")
        routines[name].argtypes = [_ARG_TYPES[c] for c in signature] + flags
        routines[name].restype = ctypes.c_double if name in ("dznrm2", "zlange") else None
    threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if threads is not None:
        threads.argtypes, threads.restype = [], ctypes.c_int
    return routines, threads


_LAPACK, _BLAS_THREADS = _load_lapack()


def _lapack(name: str, *args) -> int:
    """Call one of _LAPACK's subroutines and return its INFO, which follows ``args``.

    A Python int goes as a 64-bit integer, an array by address, None as the
    null pointer of an unreferenced array, and bytes as a character flag.
    """
    info = ctypes.c_int64(0)
    refs, lengths = [], []
    for a in args:
        if isinstance(a, bytes):
            refs.append(a)
            lengths.append(len(a))
        elif isinstance(a, int):
            refs.append(ctypes.c_int64(a))
        else:
            refs.append(None if a is None else a.ctypes.data)
    _LAPACK[name](*refs, info, *lengths)
    return info.value


@functools.lru_cache(maxsize=None)
def _int_args(*values: int) -> tuple:
    """``values`` as 64-bit integer arguments of _LAPACK's routines, which only read them."""
    return tuple(ctypes.c_int64(v) for v in values)


def _buffer(size: int) -> tuple:
    """A zeroed complex array of ``size`` entries for one LAPACK call, and its address.

    The memory is a ctypes array that numpy views: reading its address
    costs a fraction of what ndarray.ctypes.data costs, which keeps a small
    call near the cost of scipy's f2py wrapper.
    """
    raw = (ctypes.c_double * (2 * size))()
    return np.frombuffer(raw, dtype=complex), ctypes.addressof(raw)


@functools.lru_cache(maxsize=None)
def _scipy_routine(name: str):
    """scipy's f2py wrapper of the complex LAPACK routine or BLAS nrm2 ``name``.

    Only a numpy build without _LAPACK calls these, so scipy.linalg is
    imported on first use.
    """
    import scipy.linalg

    if name == "nrm2":
        return scipy.linalg.get_blas_funcs(name, dtype=np.complex128, ilp64="preferred")
    return scipy.linalg.get_lapack_funcs(name, dtype=np.complex128)


@functools.lru_cache(maxsize=None)
def _zggev_lwork(n: int) -> int:
    """Optimal zggev workspace for an n x n pencil; LAPACK's query reads only n."""
    if _LAPACK is None:
        z = np.zeros((n, n), dtype=complex)
        return int(_scipy_routine("ggev")(z, z, lwork=-1)[-2][0].real)
    work = np.zeros(1, dtype=complex)
    _lapack("zggev", b"V", b"V", n, None, n, None, n, None, None, None, n, None, n, work, -1, None)
    return int(work[0].real)


def _zggev(A: np.ndarray, B: np.ndarray) -> tuple:
    """zggev('V', 'V') on copies of the n x n A and B, then the BLAS nrm2 of each eigenvector.

    Returns alpha, beta, INFO, V and norms: V[0, k] and V[1, k] are the k-th
    right and left eigenvectors as zggev returns them (the columns of vr and
    vl, as rows), and norms[i, k] is the nrm2 of V[i, k]. These are the
    LAPACK and BLAS calls scipy.linalg.eig makes. One buffer holds the
    copies, the outputs and the workspace.
    """
    n = A.shape[0]
    lwork = _zggev_lwork(n)
    if _LAPACK is None:
        nrm2 = _scipy_routine("nrm2")
        alpha, beta, vl, vr, _, info = _scipy_routine("ggev")(
            A, B, compute_vl=1, compute_vr=1, lwork=lwork
        )
        V = np.stack((vr.T, vl.T))
        return alpha, beta, info, V, np.array([[nrm2(v) for v in W] for W in V])
    N, LW, ONE = _int_args(n, lwork, 1)
    nn = n * n
    # A, B, vr and vl, each the transpose of a C-ordered n x n block (so
    # Fortran-ordered); then alpha, beta, rwork (8n reals) and work.
    buf, a = _buffer(4 * nn + 6 * n + lwork)
    blocks = buf[: 4 * nn].reshape(4, n, n)
    blocks[0], blocks[1] = A.T, B.T
    vr, vl, alpha = a + 32 * nn, a + 48 * nn, a + 64 * nn
    beta, rwork, work = alpha + 16 * n, alpha + 32 * n, alpha + 96 * n
    info = ctypes.c_int64(0)
    _LAPACK["zggev"](
        b"V", b"V", N, a, N, a + 16 * nn, N, alpha, beta, vl, N, vr, N, work, LW, rwork, info, 1, 1
    )
    nrm2 = _LAPACK["dznrm2"]
    norms = np.array([nrm2(N, v, ONE) for v in range(vr, vr + 32 * nn, 16 * n)]).reshape(2, n)
    return buf[4 * nn : 4 * nn + n], buf[4 * nn + n : 4 * nn + 2 * n], info.value, blocks[2:], norms


@functools.lru_cache(maxsize=None)
def _zgeqp3_lwork(m: int, n: int) -> int:
    """Optimal zgeqp3 workspace for an m x n matrix; LAPACK's query reads only the shape."""
    if _LAPACK is None:
        return int(_scipy_routine("geqp3")(np.zeros((m, n), dtype=complex), lwork=-1)[-2][0].real)
    work = np.zeros(1, dtype=complex)
    _lapack("zgeqp3", m, n, None, m, None, None, work, -1, None)
    return int(work[0].real)


def _zgeqp3(A: np.ndarray) -> tuple:
    """zgeqp3, LAPACK's column-pivoted QR, of a copy of the m x n A, as scipy.linalg.qr calls it.

    Returns qr, jpvt and INFO: qr is zgeqp3's output matrix, R on and above
    its diagonal, and jpvt holds the pivot columns, counted from 1. One
    buffer holds the copy, the other outputs and the workspace.
    """
    m, n = A.shape
    lwork = _zgeqp3_lwork(m, n)
    if _LAPACK is None:
        qr, jpvt, _, _, info = _scipy_routine("geqp3")(A, lwork=lwork)
        return qr, jpvt, info
    M, N, LW = _int_args(m, n, lwork)
    mn, k = m * n, min(m, n)
    # qr (Fortran-ordered), tau (k), work, rwork (2n reals) and jpvt (n 64-bit
    # integers), zero: a zero jpvt entry leaves its column free to pivot.
    buf, a = _buffer(mn + k + lwork + n + (n + 1) // 2)
    qr = buf[:mn].reshape(n, m).T
    qr[...] = A
    tau, work = a + 16 * mn, a + 16 * (mn + k)
    rwork, jpvt = work + 16 * lwork, work + 16 * (lwork + n)
    info = ctypes.c_int64(0)
    _LAPACK["zgeqp3"](M, N, a, M, jpvt, tau, work, LW, rwork, info)
    start = 2 * (mn + k + lwork + n)
    return qr, buf.view(np.int64)[start : start + n], info.value


# Stacked kernels private to the package, so that tracers wrapping the
# public functions leave them alone. Each makes, item by item, the BLAS call
# its one-vector form makes (numpy's matmul runs a stack of 1 x n by n x 1
# products as one dot each, and 1 x n by n x n as one gemv), so every result
# is byte-equal to a loop over the rows.


def _dots(Y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Y[..., k, :] @ W[..., k, :] for every row k of a stack."""
    return np.matmul(Y[..., None, :], W[..., :, None])[..., 0, 0]


def _row_norms(V: np.ndarray) -> np.ndarray:
    """2-norm of each row of a stack of complex rows, summed as np.linalg.norm sums one row."""
    re, im = V.real, V.imag
    return np.sqrt(_dots(re, re) + _dots(im, im))


def _bilinear(Y: np.ndarray, Ms: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Y[k] @ Ms[j] @ W[k] for every row k and matrix j of the stack Ms, as a (k, j) array."""
    return np.matmul(np.matmul(Y[:, None, None, :], Ms), W[:, None, :, None])[:, :, 0, 0]


def _magnitude(z: np.ndarray) -> np.ndarray:
    """|z| elementwise, equal to Python's scalar abs.

    np.abs on a complex array may take a SIMD loop that rounds differently;
    hypot is what the scalar abs computes.
    """
    return np.hypot(z.real, z.imag)


def generalized_eig(gep: GenEigProblem) -> EigPairs:
    """All eigenpairs of a square pencil.

    Each QZ pair (alpha, beta) is judged against ||A||_F and ||B||_F at one
    tolerance, QZ_ZERO_TOL * n * eps: a pair with both entries that small
    raises SingularPencil (QZ's sign of a singular pencil, Moler & Stewart
    1973), and a pair with only beta that small is infinite. Left
    eigenvectors are returned in the transpose convention. The guard is not a
    regularity test: a singular pencil whose QZ pairs all stay away from
    (0, 0) passes it, and QZ's eigenvalues of it are meaningless, so a caller
    whose pencil can be singular rules that out itself (the Macaulay
    pencil's nullity check in choose_basis).

    One zggev call computes both eigenvector sets, and each set is
    normalized twice: by the BLAS nrm2 of each vector, as scipy.linalg.eig
    does, then by the np.linalg.norm sum of squares of each row
    (_row_norms), each pass one whole-matrix division. zggev and nrm2 run
    from numpy's OpenBLAS (see _zggev); where they return the bits scipy's
    OpenBLAS returns, as on the builds the tests compare, the output is
    byte-equal to scipy.linalg.eig's followed by a per-vector
    np.linalg.norm normalization. The second pass moves the last bits, and
    roots read from the vectors by Rayleigh quotients move with them (by
    about eps kappa at an ill-conditioned eigenvalue: one pass moves 3 of
    the 6,309 seed-1 presets-small trials by more than a digit), so merging
    the passes waits for a correctness check that tolerates rounding
    (ROADMAP item 2(a)).
    Non-finite input raises ValueError and a QZ failure LinAlgError, with
    scipy's messages.
    """
    n = gep.dim
    if n == 0:
        empty = np.empty((0, 0), dtype=complex)
        return EigPairs(
            lam=np.empty(0, dtype=complex),
            infinite=np.empty(0, dtype=bool),
            beta_ratio=np.empty(0),
            right=empty,
            left=empty,
        )
    if not (np.isfinite(gep.A).all() and np.isfinite(gep.B).all()):
        raise ValueError("array must not contain infs or NaNs")
    alpha, beta, info, V, norms = _zggev(gep.A, gep.B)
    if info < 0:
        raise ValueError(
            f"illegal value in argument {-info} of internal generalized eig algorithm (ggev)"
        )
    if info > 0:
        raise np.linalg.LinAlgError(
            f"generalized eig algorithm (ggev) did not converge (LAPACK info={info})"
        )
    tol = QZ_ZERO_TOL * n * np.finfo(float).eps
    zero_alpha = np.abs(alpha) <= tol * np.linalg.norm(gep.A)
    infinite = np.abs(beta) <= tol * np.linalg.norm(gep.B)
    if (zero_alpha & infinite).any():
        raise SingularPencil(
            f"a QZ pair has |alpha| <= {tol:.1e} ||A||_F and |beta| <= {tol:.1e} ||B||_F"
        )
    # scipy.linalg.norm's finiteness check on each vector.
    if not np.isfinite(V).all():
        raise ValueError("array must not contain infs or NaNs")
    # LAPACK returns vl with vl^H A = lambda vl^H B; its conjugate is the
    # transpose-convention left vector.
    V /= norms[:, :, None]
    np.conjugate(V[1], out=V[1])
    V /= _row_norms(V)[:, :, None]
    right, left = V
    abs_alpha, abs_beta = _magnitude(alpha), _magnitude(beta)
    lam = alpha / np.where(infinite, 1.0, beta)
    lam[infinite] = np.inf
    return EigPairs(
        lam=lam,
        infinite=infinite,
        beta_ratio=abs_beta / (abs_alpha + abs_beta),
        right=right,
        left=left,
    )


# OpenBLAS's kernels take the rows of a product in groups (of up to 16 rows
# on the AVX-512 kernels measured) and a last, partial group by other code,
# so the bits of a row depend on its position modulo the group size. V^H is
# back-transformed from a row index that is a multiple of _ROW_GROUP, which
# keeps every row at its zgesdd position modulo any group size dividing it.
# With more than one thread, OpenBLAS also splits a product among threads
# by its size, so then all n rows are transformed, as zgesdd transforms them.
_ROW_GROUP = 64

# zgesdd scales a matrix whose largest entry modulus lies outside
# [sqrt(safmin) / eps, its inverse]; SvdFactor leaves those to np.linalg.svd.
_SVD_SMALL = math.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
_SVD_BIG = 1.0 / _SVD_SMALL


def _max_modulus(A: np.ndarray) -> float:
    """zlange('M'): the largest |a_ij| of a Fortran-ordered matrix, nan if one is nan."""
    m, n = _int_args(*A.shape)
    return _LAPACK["zlange"](b"M", m, n, A.ctypes.data, m, None, 1)


@functools.lru_cache(maxsize=None)
def _zgesdd_lwork(m: int, n: int) -> int:
    """numpy's zgesdd workspace for an m x n matrix, JOBZ='S'; LAPACK's query reads only the shape."""
    work = np.zeros(1, dtype=complex)
    _lapack("zgesdd", b"S", m, n, None, m, None, None, m, None, n, work, -1, None, None)
    return int(work[0].real)


@functools.lru_cache(maxsize=None)
def _zunmbr_lwork(m: int, n: int, rows: int) -> int:
    """Workspace for zunmbr('P', 'R', 'C') on ``rows`` rows of an m x n matrix's n x n V^H.

    zunmbr hands it to zunmlq, whose block size is the largest that fits,
    up to its optimum nb: nb entries per row plus a fixed tsize. zgesdd
    hands zunmbr what is left of numpy's workspace after tauq and taup,
    for all n rows. The size returned gives ``rows`` rows the block size
    zgesdd's n rows get; a different one would change the bits.
    """
    q1, q2 = (_zunmlq_lwork(r, n) for r in (1, 2))
    nb, tsize = q2 - q1, 2 * q1 - q2
    given = _zgesdd_lwork(m, n) - 2 * n
    if given < n * nb + tsize:
        nb = max((given - tsize) // n, 1)  # below 2, zunmlq does not block
    return rows * nb + tsize


def _zunmlq_lwork(rows: int, n: int) -> int:
    """zunmlq's optimal workspace for the call zunmbr('P', 'R', 'C') makes on ``rows`` rows."""
    work = np.zeros(1, dtype=complex)
    _lapack("zunmlq", b"R", b"N", rows, n - 1, n - 1, None, n, None, None, rows, work, -1)
    return int(work[0].real)


@dataclass(frozen=True)
class SvdFactor:
    """One SVD of an m x n matrix, shared by its nullity, sigma_min and null spaces.

    U is never formed, and a row of V^H only when null_space returns it.
    ``singular_values`` is padded with zeros to length n.

    Where zgesdd takes its path 6, n <= m < floor(5n/3) (the tall Macaulay
    matrices of quadratic systems, d = 4..6), ``of`` runs zgesdd's own steps from
    numpy's LAPACK, minus U: zgebrd reduces the matrix to a real bidiagonal
    B = Q^H M P, keeping its reflectors and taup as ``reflectors``, and
    dbdsdc('U', 'I') yields B's singular values and V_B^H, kept as ``vh``.
    null_space then forms V^H = V_B^H P^H by zgesdd's zunmbr('P', 'R', 'C')
    with zgesdd's block size, for the rows it returns, from the multiple of
    _ROW_GROUP below them (all n rows with more than one BLAS thread). The
    zunmbr('Q') product that forms U is never run. So the singular values
    and every null space are byte-equal to np.linalg.svd's.

    Every other shape (the wide d <= 3 Macaulay matrices take zgesdd's
    paths 5t/6t), a matrix zgesdd would rescale or that is not finite, and
    a numpy build without the routines go to np.linalg.svd, with ``vh`` its
    V^H and ``reflectors`` None.
    """

    shape: tuple
    singular_values: np.ndarray
    vh: np.ndarray
    reflectors: tuple | None = None

    @staticmethod
    def of(M) -> "SvdFactor":
        M = np.asarray(M, dtype=complex)
        m, n = M.shape
        if _LAPACK is not None and n <= m < int(n * 5.0 / 3.0):
            A = np.array(M, order="F")
            anrm = _max_modulus(A)
            if anrm == 0 or _SVD_SMALL <= anrm <= _SVD_BIG:
                return SvdFactor._bidiagonal(A)
        _, s, Vh = np.linalg.svd(M, full_matrices=m < n)
        padded = np.zeros(n)
        padded[: s.size] = s
        return SvdFactor(shape=(m, n), singular_values=padded, vh=Vh)

    @staticmethod
    def _bidiagonal(A: np.ndarray) -> "SvdFactor":
        """zgesdd's path 6 up to dbdsdc, on a Fortran-ordered copy that zgebrd overwrites."""
        m, n = A.shape
        lwork = _zgesdd_lwork(m, n) - 2 * n
        s, e = np.empty(n), np.zeros(n)
        tauq, taup = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
        _lapack("zgebrd", m, n, A, m, s, e, tauq, taup, np.empty(lwork, dtype=complex), lwork)
        u, vh = np.empty((n, n), order="F"), np.empty((n, n), order="F")
        rwork, iwork = np.empty(3 * n * n + 4 * n), np.empty(8 * n, dtype=np.int64)
        if _lapack("dbdsdc", b"U", b"I", n, s, e, u, n, vh, n, None, None, rwork, iwork) > 0:
            raise np.linalg.LinAlgError("SVD did not converge")
        return SvdFactor(shape=(m, n), singular_values=s, vh=vh, reflectors=(A, taup))

    @property
    def nullity(self) -> int:
        """Column count minus the numerical rank, at tolerance max(m, n) eps sigma_max."""
        s = self.singular_values
        if s.size == 0 or s[0] == 0:
            return self.shape[1]
        tol = max(self.shape) * np.finfo(float).eps * s[0]
        return int(self.shape[1] - np.count_nonzero(s > tol))

    @property
    def sigma_min(self) -> float:
        """Smallest singular value, counting only the min(m, n) spectrum."""
        return float(self.singular_values[min(self.shape) - 1])

    def _vh_rows(self, start: int) -> np.ndarray:
        """Rows start..n-1 of V^H."""
        if self.reflectors is None:
            return self.vh[start:]
        (m, n), (A, taup) = self.shape, self.reflectors
        one_thread = _BLAS_THREADS is not None and _BLAS_THREADS() == 1
        first = start - start % _ROW_GROUP if one_thread else 0
        rows = np.array(self.vh[first:], dtype=complex, order="F")
        lwork = _zunmbr_lwork(m, n, n - first)
        work = np.empty(lwork, dtype=complex)
        _lapack("zunmbr", b"P", b"R", b"C", n - first, n, n, A, m, taup, rows, n - first, work, lwork)
        return rows[start - first :]

    def null_space(self, nullity: int) -> np.ndarray:
        """Orthonormal basis (columns) for the nullity smallest right singular directions.

        The nullity is prescribed by the caller, not inferred from a
        threshold. A NullSpaceGapWarning fires when the singular value gap
        separating the kept directions is below 1e2. The columns are the
        conjugated last rows of V^H, laid out as a column slice of
        Vh.conj().T.
        """
        n = self.shape[1]
        if nullity < 1:
            raise ValueError("nullity must be >= 1")
        if nullity > n:
            raise ValueError("nullity exceeds column count")
        s = self.singular_values
        rank = n - nullity
        if rank > 0:
            kept = s[rank]
            retained = s[rank - 1]
            if retained <= 0 or (kept > 0 and retained / kept < 1e2):
                warnings.warn(
                    f"weak null space separation: sigma_{rank}={retained:.3e}, "
                    f"sigma_{rank + 1}={kept:.3e}",
                    NullSpaceGapWarning,
                    stacklevel=3,
                )
        return np.conjugate(self._vh_rows(rank), order="C").T


def null_space(M, nullity: int) -> np.ndarray:
    """Null space of M with prescribed nullity; see SvdFactor.null_space."""
    return SvdFactor.of(M).null_space(nullity)


@functools.lru_cache(maxsize=SUPPORT_CACHE_SIZE)
def _cofactor_plan(nvars: int, supports: tuple) -> tuple:
    """The memoized cofactor expansion of a square grid of polynomials, compiled for its supports.

    ``supports[i][j]`` lists the monomials of entry (i, j) in dict order.
    Returns (exponents, levels), one level per expansion row, the last row
    first. The level of row k holds every minor on rows k..d-1: the one
    without the columns in ``mask`` sums, over the other columns j in order
    and with alternating signs, entry (k, j) times the previous level's
    minor for mask | 1 << j (d 2^(d-1) polynomial products, not Leibniz's
    d!). A level is (take, minor, sign, put, size): scalar product n is
    entry coefficient take[n] (flat over the grid, row by row, each entry in
    dict order) times previous-level coefficient minor[n] times sign[n],
    added to coefficient put[n] of ``size``, minors in mask order and their
    coefficients in order of first appearance. The last level is the
    determinant, its coefficient m that of the monomial with exponents[m].
    """
    d = len(supports)
    counts = [len(sup) for row in supports for sup in row]
    starts = [0, *itertools.accumulate(counts)]
    exps = np.array([m for row in supports for sup in row for m in sup], dtype=np.int64).reshape(-1, nvars)
    # A monomial packs into the integer whose digit k, in radix bound[k], is
    # its exponent of x_k. No product of one entry per row reaches bound[k],
    # so a product of monomials is a sum of integers.
    bound = 1 + sum(exps[starts[r * d] : starts[r * d + d]].max(axis=0, initial=0) for r in range(d))
    place = np.cumprod([1, *bound[:-1]])
    span = math.prod(bound.tolist())
    if span << d >= 1 << 63:
        raise ValueError("the grid's exponents are too large to pack into 64-bit integers")
    codes, minor_codes = exps @ place, np.zeros(1, dtype=np.int64)
    minors = {(1 << d) - 1: (0, 1)}  # mask -> (offset, size) of its minor in the previous level
    levels = []
    for row in range(d - 1, -1, -1):
        masks = [m for m in range(1 << d) if bin(m).count("1") == row]
        # (mask rank, entry start, entry size, minor offset, minor size, sign)
        # for each mask and free column, in expansion order.
        pairs = [
            (rank, starts[row * d + j], counts[row * d + j], *minors[mask | 1 << j], -1.0 if pos % 2 else 1.0)
            for rank, mask in enumerate(masks)
            for pos, j in enumerate(j for j in range(d) if not mask & 1 << j)
        ]
        rank, entry, n_entry, offset, n_minor, signs = (np.array(c) for c in zip(*pairs))
        n = n_entry * n_minor
        pair = np.repeat(np.arange(len(pairs)), n)
        k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        take, minor = entry[pair] + k // n_minor[pair], offset[pair] + k % n_minor[pair]
        keys = rank[pair] * span + codes[take] + minor_codes[minor]
        keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        keys, put = keys[order], np.argsort(order)[inverse]
        minor_codes, sizes = keys % span, np.bincount(keys // span, minlength=len(masks))
        minors = dict(zip(masks, zip((np.cumsum(sizes) - sizes).tolist(), sizes.tolist())))
        levels.append((take, minor, signs[pair], put, order.size))
    exponents = minor_codes[:, None] // place % bound
    for a in (exponents, *(a for level in levels for a in level[:4])):
        a.setflags(write=False)
    return exponents, tuple(levels)


def _expand(levels, flat: np.ndarray) -> np.ndarray:
    """A cofactor plan's last level from the flat entry coefficients, one gather-multiply-scatter per level."""
    coeffs = np.ones(1, dtype=complex)
    for take, minor, sign, put, size in levels:
        prod = flat[take] * coeffs[minor]
        coeffs = np.empty(size, dtype=complex)
        coeffs.real = np.bincount(put, prod.real * sign, size)
        coeffs.imag = np.bincount(put, prod.imag * sign, size)
    return coeffs


def companion_matrix(p: UniPoly) -> np.ndarray:
    n = p.degree
    if n < 1:
        raise ValueError("need degree >= 1")
    monic = p.coeffs / p.coeffs[-1]
    C = np.zeros((n, n), dtype=complex)
    if n > 1:
        C[1:, :-1] = np.eye(n - 1)
    C[:, -1] = -monic[:-1]
    return C


def companion_roots(p: UniPoly) -> np.ndarray:
    """Roots via eigenvalues of the monic companion matrix.

    LAPACK's balancing is applied. No deflation of zero roots is performed:
    a zero constant coefficient goes through the eigensolver like any other,
    which is the behavior whose accuracy this package measures.
    """
    return np.linalg.eigvals(companion_matrix(p))


def random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed real orthogonal matrix (QR with sign-corrected R)."""
    A = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def random_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d)
    n = math.sqrt(v.dot(v))
    while n == 0:
        v = rng.standard_normal(d)
        n = math.sqrt(v.dot(v))
    return v / n
