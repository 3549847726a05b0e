"""Dense complex linear algebra kernels shared by the solvers.

Thin contracts over LAPACK-backed routines: SVD, generalized eigenproblems
with left and right eigenvectors, fixed-nullity null spaces, the memoized
cofactor expansion behind every grid determinant (block operator
determinants over Kronecker products, polynomial determinants),
companion-matrix rootfinding, and seeded random matrix generators. Matrices
are plain complex ndarrays.

generalized_eig calls LAPACK's zggev directly, once per pencil, with its
workspace size cached per dimension. Its outputs are byte-equal to
scipy.linalg.eig followed by a per-vector np.linalg.norm normalization,
which is why it keeps both normalization passes.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .polycore import UniPoly

# Relative magnitude of beta below which a pencil eigenvalue is flagged
# infinite, in the (alpha, beta) parameterization.
INFINITE_EIG_TOL = 1e-12

# Random shifts at which check_pencil_regular evaluates a pencil, as (re, im)
# pairs: the draws a default_rng(0x5EED) makes one scalar at a time.
PENCIL_PROBES = 3
_PENCIL_DRAWS = np.random.default_rng(0x5EED).standard_normal((PENCIL_PROBES, 2))
_PENCIL_DRAWS.flags.writeable = False


class SingularPencil(Exception):
    """The pencil det(A - lambda B) is numerically identically zero."""


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
class EigTriple:
    """One eigenvalue with unit right and left eigenvectors.

    The left vector uses the transpose convention: left @ (A - lambda B) = 0.
    ``lam`` is None when the eigenvalue is infinite. ``beta_ratio`` is
    |beta| / (|alpha| + |beta|) from the QZ output: 0 for an exactly infinite
    eigenvalue, near 1 for an eigenvalue close to 0. ``right`` and ``left``
    are read-only rows of arrays shared by all triples of one pencil.
    """

    lam: complex | None
    right: np.ndarray
    left: np.ndarray
    beta_ratio: float = 1.0

    @property
    def is_infinite(self) -> bool:
        return self.lam is None


def sigma_min(M) -> float:
    """Smallest singular value, counting only the min(m, n) spectrum."""
    M = np.asarray(M, dtype=complex)
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[-1])


def _is_numerically_singular(M: np.ndarray, scale: float) -> bool:
    s = np.linalg.svd(M, compute_uv=False)
    n = max(M.shape)
    return bool(s[-1] <= n * np.finfo(float).eps * max(scale, s[0]))


def check_pencil_regular(A: np.ndarray, B: np.ndarray) -> bool:
    """Probe det(A - lambda B) at PENCIL_PROBES seeded random lambda; False if all are singular."""
    normA = np.linalg.norm(A, 2) if A.size else 0.0
    normB = np.linalg.norm(B, 2) if B.size else 0.0
    base = normA / normB if normB > 0 else 1.0
    for re, im in _PENCIL_DRAWS.tolist():
        lam = base * (re + 1j * im)
        if not _is_numerically_singular(A - lam * B, normA + abs(lam) * normB):
            return True
    return False


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


def _vector_norm(v: np.ndarray) -> float:
    """2-norm of a complex vector, summed exactly as np.linalg.norm sums it.

    Private to the package (generalized_eig and conditioning.kappa_eig), so
    tracers that wrap the public functions leave this per-vector call alone.
    """
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def generalized_eig(gep: GenEigProblem) -> list:
    """All eigenvalue triples of a square pencil.

    Infinite eigenvalues (|beta| tiny) are flagged with lam=None. Left
    eigenvectors are returned in the transpose convention. The pencil must
    be regular, and this function does not check it: a caller whose pencil
    can be singular probes it first with check_pencil_regular and raises
    SingularPencil itself. On a singular pencil QZ returns meaningless
    eigenvalues.

    One zggev call computes both eigenvector sets, and the output is
    byte-equal to scipy.linalg.eig's followed by a per-vector
    np.linalg.norm normalization. So each set is normalized twice: by the
    BLAS nrm2 of each vector, as scipy.linalg.eig does, then by the
    np.linalg.norm sum of squares, each pass one whole-matrix division. The
    second pass moves the last bits, and roots read from the vectors by
    Rayleigh quotients move with them (by about eps kappa at an
    ill-conditioned eigenvalue), so merging the passes waits for a
    correctness check that tolerates rounding (ROADMAP item 2(a)).
    Non-finite input raises ValueError and a QZ failure LinAlgError, with
    scipy's messages.
    """
    n = gep.dim
    if n == 0:
        return []
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
    for V in (right, left):
        V /= np.array([_vector_norm(v) for v in V])[:, None]
        V.flags.writeable = False
    out = []
    for j in range(n):
        denom = abs(alpha[j]) + abs(beta[j])
        ratio = float(abs(beta[j]) / denom) if denom > 0 else 0.0
        lam = None if abs(beta[j]) <= INFINITE_EIG_TOL * denom else complex(alpha[j] / beta[j])
        out.append(EigTriple(lam=lam, right=right[j], left=left[j], beta_ratio=ratio))
    return out


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


def block_operator_determinant(blocks) -> np.ndarray:
    """Determinant of a d x d block grid with Kronecker products as multiplication.

    Block (i, j) must be square of size n_i, so the result has size
    prod(n_i); see laplace_expansion.
    """
    d = len(blocks)
    sizes = []
    for i, row in enumerate(blocks):
        if len(row) != d:
            raise ValueError("block grid must be square")
        n_i = np.asarray(row[0]).shape[0]
        for M in row:
            M = np.asarray(M)
            if M.shape != (n_i, n_i):
                raise ValueError(f"block ({i}) sizes inconsistent: {M.shape} vs {n_i}")
        sizes.append(n_i)
    grid = [[np.asarray(M, dtype=complex) for M in row] for row in blocks]
    out = laplace_expansion(grid, kron, np.ones((1, 1), dtype=complex), {})
    expected = int(np.prod(sizes))
    assert out.shape == (expected, expected)
    return out


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
    n = np.linalg.norm(v)
    while n == 0:
        v = rng.standard_normal(d)
        n = np.linalg.norm(v)
    return v / n
