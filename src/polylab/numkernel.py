"""Dense complex linear algebra kernels shared by the solvers.

Thin contracts over LAPACK-backed routines: SVD, generalized eigenproblems
with left and right eigenvectors, fixed-nullity null spaces, the memoized
cofactor expansion behind every grid determinant (block operator
determinants over Kronecker products, polynomial determinants),
companion-matrix rootfinding, and seeded random matrix generators. Matrices
are plain complex ndarrays.

generalized_eig calls LAPACK's zggev directly, once per pencil, with its
workspace size cached per dimension, and returns every eigenpair of the
pencil as one EigPairs of arrays. Its outputs are byte-equal to
scipy.linalg.eig followed by a per-vector np.linalg.norm normalization,
which is why it keeps both normalization passes. The private stacked
kernels (_dots, _row_norms, _bilinear, _magnitude) let callers read all
eigenpairs at once with results byte-equal to a loop over the pairs.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .polycore import UniPoly

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


# LAPACK's complex QZ driver, and the BLAS 2-norm that scipy.linalg.norm calls
# on a complex vector.
_ZGGEV = scipy.linalg.get_lapack_funcs("ggev", dtype=np.complex128)
_NRM2 = scipy.linalg.get_blas_funcs("nrm2", dtype=np.complex128, ilp64="preferred")


@functools.lru_cache(maxsize=None)
def _zggev_lwork(n: int) -> int:
    """Optimal zggev workspace for an n x n pencil; LAPACK's query reads only n."""
    z = np.zeros((n, n), dtype=complex)
    work = _ZGGEV(z, z, lwork=-1)[-2]
    return int(work[0].real)


# LAPACK's column-pivoted QR, as scipy.linalg.qr(pivoting=True) calls it.
_ZGEQP3 = scipy.linalg.get_lapack_funcs("geqp3", dtype=np.complex128)


@functools.lru_cache(maxsize=None)
def _zgeqp3_lwork(m: int, n: int) -> int:
    """Optimal zgeqp3 workspace for an m x n matrix; LAPACK's query reads only the shape."""
    work = _ZGEQP3(np.zeros((m, n), dtype=complex), lwork=-1)[-2]
    return int(work[0].real)


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

    One zggev call computes both eigenvector sets, and the output is
    byte-equal to scipy.linalg.eig's followed by a per-vector
    np.linalg.norm normalization. So each set is normalized twice: by the
    BLAS nrm2 of each vector, as scipy.linalg.eig does, then by the
    np.linalg.norm sum of squares of each row (_row_norms), each pass one
    whole-matrix division. The second pass moves the last bits, and roots
    read from the vectors by Rayleigh quotients move with them (by about
    eps kappa at an ill-conditioned eigenvalue: one pass moves 3 of the
    6,309 seed-1 presets-small trials by more than a digit), so merging the
    passes waits for a correctness check that tolerates rounding (ROADMAP
    item 2(a)).
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
    alpha, beta, vl, vr, _, info = _ZGGEV(
        gep.A, gep.B, compute_vl=1, compute_vr=1, lwork=_zggev_lwork(n)
    )
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
    if not (np.isfinite(vl).all() and np.isfinite(vr).all()):
        raise ValueError("array must not contain infs or NaNs")
    # vl and vr are Fortran-ordered: the rows of their transposes are the
    # eigenvectors, contiguous. LAPACK returns vl with vl^H A = lambda vl^H B;
    # its conjugate is the transpose-convention left vector.
    right, left = vr.T, vl.T
    for V in (right, left):
        V /= np.array([_NRM2(v) for v in V])[:, None]
    left = left.conj()
    norms = _row_norms(np.stack((right, left)))
    right /= norms[0][:, None]
    left /= norms[1][:, None]
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


@dataclass(frozen=True)
class SvdFactor:
    """One SVD of an m x n matrix, shared by its nullity, sigma_min and null spaces.

    U is never kept: the SVD is economy-sized for a tall matrix and full for
    a wide one, the least that still yields all n right singular vectors.
    ``singular_values`` is padded with zeros to length n.
    """

    shape: tuple
    singular_values: np.ndarray
    V: np.ndarray

    @staticmethod
    def of(M) -> "SvdFactor":
        M = np.asarray(M, dtype=complex)
        m, n = M.shape
        _, s, Vh = np.linalg.svd(M, full_matrices=m < n)
        padded = np.zeros(n)
        padded[: s.size] = s
        return SvdFactor(shape=(m, n), singular_values=padded, V=Vh.conj().T)

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

    def null_space(self, nullity: int) -> np.ndarray:
        """Orthonormal basis (columns) for the nullity smallest right singular directions.

        The nullity is prescribed by the caller, not inferred from a
        threshold. A NullSpaceGapWarning fires when the singular value gap
        separating the kept directions is below 1e2.
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
        return self.V[:, rank:]


def null_space(M, nullity: int) -> np.ndarray:
    """Null space of M with prescribed nullity; see SvdFactor.null_space."""
    return SvdFactor.of(M).null_space(nullity)


def laplace_expansion(grid, mul, one, memo: dict):
    """Determinant of a square grid over a ring, by memoized cofactor expansion.

    Expands along the rows with the Leibniz signs. ``mul(entry, minor)``
    multiplies, ``one`` is the determinant of the empty grid, and entries
    support ``+`` and unary ``-``. ``memo[mask]`` holds the minor on rows
    popcount(mask)..d-1 and the columns outside ``mask``, which keeps the
    product count near d * 2^(d-1) instead of d! * d. Such a minor never
    reads the columns in ``mask``, so its entry also serves any grid that
    differs only in those columns.
    """
    d = len(grid)

    def expand(row: int, used_mask: int):
        if row == d:
            return one
        if used_mask in memo:
            return memo[used_mask]
        acc = None
        pos = 0  # position of column j among columns still available
        for j in range(d):
            if used_mask & (1 << j):
                continue
            term = mul(grid[row][j], expand(row + 1, used_mask | (1 << j)))
            if pos % 2 == 1:
                term = -term
            acc = term if acc is None else acc + term
            pos += 1
        memo[used_mask] = acc
        return acc

    return expand(0, 0)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2-d arrays, bit-equal to np.kron.

    The one multiply np.kron makes, on the same broadcast views, without its
    general-rank shape handling.
    """
    (m, n), (p, q) = a.shape, b.shape
    return np.multiply(a[:, None, :, None], b[None, :, None, :]).reshape(m * p, n * q)


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
