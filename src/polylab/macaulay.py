"""Macaulay matrix construction and the h-augmented eigenvalue pencil.

The degree-rho Macaulay matrix stacks the coefficient rows of all monomial
multiples m * p_i with deg(m) <= rho - deg(p_i), columns indexed by the
monomials of degree <= rho in graded lexicographic order. Appending rows for
a random linear polynomial h(lambda) = h_alpha - lambda * h_beta, kept only
for a selected set of basis monomials, yields a pencil whose finite
eigenvalues correspond to the system's roots.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .numkernel import GenEigProblem, SvdFactor, _zgeqp3
from .polycore import (
    CompiledLayout,
    MultiPoly,
    PolySystem,
    bezout_count,
    monomial_positions,
    rho,
)

# Index maps kept, one per (support, degree): a sweep point builds every
# trial's Macaulay matrix from one of them.
MACAULAY_CACHE_SIZE = 64


class RankDeficientBasis(Exception):
    """The candidate rows cannot supply an invertible basis submatrix."""


class NullityMismatch(Exception):
    """Numerical nullity of the Macaulay matrix disagrees with the root count."""


class BasisSingular(Exception):
    """The basis rows of the null space are numerically singular."""


# Largest condition number of the basis rows N_B of a Macaulay null space
# that a reduction to the quotient basis accepts (see BasisSelection._solve).
BASIS_COND_MAX = 1e12


@dataclass(frozen=True, eq=False)
class MacaulayIndex:
    """What a degree-rho Macaulay matrix takes from its support alone.

    Built once per (support, degree) and shared, so the arrays are
    read-only and the labels tuples. Row k holds the coefficients of
    m * p_i for ``row_labels[k] = (i, m)``. ``columns``, the one column map,
    is ``monomial_positions(degree, d)`` itself (monomial -> column), and
    ``col_labels`` its keys in order. The matrix's nonzeros sit at the
    flat ``positions`` and take the compiled coefficients at the flat
    (row, term) slots ``gather``. ``up[i, k]`` is the column of x_i times
    column k's monomial (-1 past the degree), and ``candidates`` are the
    columns below the top degree, from which choose_basis picks. Column 0
    is the constant monomial and columns 1..d are x_0..x_{d-1}.
    """

    degree: int
    row_labels: tuple
    col_labels: tuple
    columns: Mapping
    shape: tuple
    positions: np.ndarray
    gather: np.ndarray
    up: np.ndarray
    candidates: np.ndarray


@functools.lru_cache(maxsize=MACAULAY_CACHE_SIZE)
def _macaulay_index(layout: CompiledLayout, degree: int) -> MacaulayIndex:
    # The column of m * t comes from searching the sorted mixed-radix codes
    # of the column monomials.
    degs = layout.degrees
    d = layout.exps.shape[2]
    col_index = monomial_positions(degree, d)
    cols = tuple(col_index)
    labels = tuple((i, m) for i, k in enumerate(degs) for m in monomial_positions(degree - k, d))
    poly = np.array([i for i, _ in labels])
    radix = (degree + 1) ** np.arange(d - 1, -1, -1)
    codes = np.array(cols) @ radix
    by_code = np.argsort(codes)
    products = np.array([m for _, m in labels])[:, None, :] + layout.exps[poly]
    where = by_code[np.searchsorted(codes[by_code], products @ radix)]
    live = layout.mask[poly]
    rows, terms = np.nonzero(live)
    up = [[col_index.get(m[:i] + (m[i] + 1,) + m[i + 1 :], -1) for m in cols] for i in range(d)]
    index = MacaulayIndex(
        degree=degree,
        row_labels=labels,
        col_labels=cols,
        columns=col_index,
        shape=(len(labels), len(cols)),
        positions=rows * len(cols) + where[live],
        gather=poly[rows] * layout.exps.shape[1] + terms,
        up=np.array(up, dtype=np.intp),
        candidates=np.array([k for k, m in enumerate(cols) if sum(m) <= degree - 1], dtype=np.intp),
    )
    for a in (index.positions, index.gather, index.up, index.candidates):
        a.setflags(write=False)
    return index


@dataclass(frozen=True)
class MacaulayMatrix:
    """Coefficient matrix of monomial multiples of the system polynomials.

    ``index`` labels its rows and columns and holds its degree. ``bezout``
    is the system's Bezout count, the nullity choose_basis requires.
    """

    mat: np.ndarray
    index: MacaulayIndex
    bezout: int

    @functools.cached_property
    def factor(self) -> SvdFactor:
        """The matrix's one SVD: nullity, null spaces and sigma_min all read it.

        U is never formed, and a row of V^H is back-transformed only when a
        null space reads it (see SvdFactor); the values are np.linalg.svd's.
        """
        return SvdFactor.of(self.mat)


@dataclass(frozen=True)
class MacaulayPencil:
    """The pencil A - lambda B that the Macaulay solver solves.

    A2 and B2 are the rows of h_alpha and h_beta times the basis monomials
    of ``basis``, and A1 is the full degree-rho Macaulay matrix, whose
    index ``basis.index`` is. When A1 plus the kept h rows is square,
    ``gep`` is A = [A1; A2], B = [0; B2] and ``Z`` is None. Otherwise
    (extra syzygy rows) ``gep`` is (A2 Z, B2 Z), with Z = basis.nullspace,
    the null space of A1: the same finite eigenvalues, and Z maps its
    eigenvectors back to the Macaulay columns. Either way A1's numerical
    nullity is the Bezout count r, which choose_basis has checked.
    """

    gep: GenEigProblem
    basis: BasisSelection
    alpha: np.ndarray
    beta: np.ndarray
    Z: np.ndarray | None


@dataclass(frozen=True)
class BasisSelection:
    """Quotient basis choice plus the null space it was read from.

    The rows of ``nullspace`` follow the columns of ``index``, the Macaulay
    matrix's index; ``indices`` are the basis monomials' positions among
    them, and ``cond`` the condition number of those rows N_B.
    ``sigma_min`` is the Macaulay matrix's smallest singular value. Every
    reduction to the quotient basis goes through ``normal_form`` or
    ``multiplication_matrices``.
    """

    monomials: list
    cond: float
    nullspace: np.ndarray
    indices: np.ndarray
    index: MacaulayIndex
    sigma_min: float

    def _solve(self, R: np.ndarray) -> np.ndarray:
        """C solving N_B^T C = R, one LU of N_B^T for every column of R.

        Every reduction to the quotient basis solves this system, with
        R = N^T F for the coefficient columns F it reduces, and basis rows
        conditioned worse than BASIS_COND_MAX raise BasisSingular.
        """
        if self.cond > BASIS_COND_MAX:
            raise BasisSingular(f"basis rows of the null space are numerically singular: cond {self.cond:.3e}")
        return np.linalg.solve(self.nullspace[self.indices, :].T, R)

    def normal_form(self, f: MultiPoly) -> np.ndarray:
        """[f]_B: the coefficients of f's residue class over the quotient basis.

        The vector c solves N_B^T c = N^T f, matching the values every null
        space functional takes on f and on its basis representation. A
        monomial of f past the Macaulay degree raises ValueError.
        """
        columns = self.index.columns
        fvec = np.zeros(len(columns), dtype=complex)
        for m, c in f.terms.items():
            if m not in columns:
                raise ValueError(f"monomial {m} exceeds the matrix degree")
            fvec[columns[m]] = c
        return self._solve(self.nullspace.T @ fvec)

    def multiplication_matrices(self) -> np.ndarray:
        """M_{x_i} over the quotient basis for every i, stacked (d, r, r).

        M_{x_i} solves N_B^T M = N_{x_i B}^T, all d of them from one LU of
        N_B^T. Each is copied out contiguous, as a solve of its own returns
        it, so a read-out hands BLAS the same operands.
        """
        N, up = self.nullspace, self.index.up
        r, d = len(self.indices), up.shape[0]
        # Column block i of the right-hand side is N_{x_i B}^T.
        C = self._solve(N[up[:, self.indices].reshape(-1), :].T)
        return np.ascontiguousarray(C.reshape(r, d, r).transpose(1, 0, 2))


def macaulay_hat(s: PolySystem) -> MacaulayMatrix:
    """The degree-rho(s) Macaulay matrix: rows m * p_i for deg(m) <= rho(s) - deg(p_i).

    The index maps depend only on the system's support and the degree, so
    they are built once per pair and shared (see ``MacaulayIndex``); a
    matrix is one scatter of the compiled coefficients. A system with a
    zero or constant polynomial has Bezout count 0 and no quotient to read
    (NullityMismatch).
    """
    r = bezout_count(s)
    if r == 0:
        raise NullityMismatch("Bezout count 0: the system has a zero or constant polynomial")
    comp = s.compiled
    index = _macaulay_index(comp.layout, rho(s))
    mat = np.zeros(index.shape, dtype=complex)
    mat.reshape(-1)[index.positions] = comp.coeffs.reshape(-1)[index.gather]
    return MacaulayMatrix(mat=mat, index=index, bezout=r)


def choose_basis(mhat: MacaulayMatrix) -> BasisSelection:
    """Select r = mhat.bezout quotient-basis monomials of degree <= degree - 1.

    The quotient exists only when the matrix's numerical nullity is r; any
    other nullity (roots at infinity, multiple roots, a positive-dimensional
    solution set) raises NullityMismatch before the null space is read. The
    null space N is then read from the matrix's shared factor with nullity
    r, so it costs no SVD beyond ``mhat.factor``.
    Candidate rows of N (monomials below the top degree) are ranked by
    column-pivoted QR, greedy on residual norms, and the first r pivots form
    the basis. The condition number of the selected r x r submatrix is
    reported alongside, and N travels with the selection for the caller to
    reuse, read-only, as do the basis positions.
    """
    r = mhat.bezout
    nullity = mhat.factor.nullity
    if nullity != r:
        raise NullityMismatch(f"numerical nullity {nullity} != expected root count {r}")
    N = mhat.factor.null_space(r)
    cand = mhat.index.candidates
    # zgeqp3 of C^T, as scipy.linalg.qr(C.T, mode="r", pivoting=True) runs
    # it, minus its finiteness check: N comes from the SVD of a finite matrix
    # (MultiPoly rejects non-finite coefficients).
    qr, jpvt, info = _zgeqp3(N[cand, :].T)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal geqp3")
    diag = np.abs(np.diag(qr))
    if diag.size < r or diag[r - 1] <= len(cand) * np.finfo(float).eps * diag[0]:
        raise RankDeficientBasis("candidate null space rows are rank deficient")
    chosen = sorted(int(cand[p]) for p in jpvt[:r] - 1)
    indices = np.array(chosen)
    # np.linalg.cond(NB), which is this ratio of the singular values.
    s = np.linalg.svd(N[indices, :], compute_uv=False)
    for a in (N, indices):
        a.setflags(write=False)
    return BasisSelection(
        monomials=[mhat.index.col_labels[k] for k in chosen],
        cond=float(s[0] / s[-1]) if s[-1] > 0 else math.inf,
        nullspace=N,
        indices=indices,
        index=mhat.index,
        sigma_min=mhat.factor.sigma_min,
    )


def _recorded(compute, *args) -> tuple:
    """compute(*args) and the messages of the warnings it issued, which are
    recorded, not shown; a failure propagates after its warnings are issued."""
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            return compute(*args), tuple(w.message for w in caught)
    except BaseException:
        for w in caught:
            warnings.warn(w.message, stacklevel=3)
        raise


def quotient_basis(s: PolySystem) -> BasisSelection:
    """choose_basis(macaulay_hat(s)), computed at most once per system object.

    The selection is kept on the frozen system, as ``s.compiled`` is, so nf,
    the Macaulay pencil and the audit of one system object share one
    Macaulay build and one factorization; the Macaulay matrix itself is not
    kept. A failure (NullityMismatch, RankDeficientBasis) is not kept:
    every call raises its own. Every call issues again the warnings the
    computation issued (a NullSpaceGapWarning on a weak gap), so what a
    caller sees does not depend on whether the basis was cached.
    """
    entry = vars(s).get("_quotient_basis")
    if entry is None:
        entry = vars(s)["_quotient_basis"] = _recorded(lambda: choose_basis(macaulay_hat(s)))
    sel, issued = entry
    for message in issued:
        warnings.warn(message, stacklevel=2)
    return sel


def _h_rows(columns: np.ndarray, coeffs: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Rows of m * h for h = coeffs[0] + sum_i coeffs[i+1] x_i, m the monomials of ``columns``.

    ``up`` is the MacaulayIndex shift map; m, x_0 m, ..., x_{d-1} m are
    distinct columns, so every entry is added to once.
    """
    rows = np.zeros((len(columns), up.shape[1]), dtype=complex)
    k = np.arange(len(columns))
    rows[k, columns] += coeffs[0]
    for i in range(up.shape[0]):
        rows[k, up[i, columns]] += coeffs[i + 1]
    return rows


def linear_poly(d: int, coeffs: np.ndarray) -> MultiPoly:
    """coeffs[0] + sum_i coeffs[i+1] * x_i as a MultiPoly."""
    terms = {(0,) * d: coeffs[0]}
    for i in range(d):
        e = [0] * d
        e[i] = 1
        terms[tuple(e)] = coeffs[i + 1]
    return MultiPoly(d, terms)


def macaulay_pencil(s: PolySystem, rng: np.random.Generator) -> MacaulayPencil:
    """Build the eigenvalue pencil the Macaulay solver solves, from a random h.

    h rows are kept exactly for the basis monomials of quotient_basis(s),
    so the finite spectrum has size r = bezout_count(s). choose_basis has
    checked that the Macaulay matrix's numerical nullity is r, one null
    dimension per kept row. For the square pencil that check is the
    regularity condition: a larger nullity makes [A1; A2 - lambda B2]
    singular for every lambda; A1 is scattered again from the compiled
    coefficients, after the basis, so that no second Macaulay matrix is
    held while the first is factored. A rectangular system is compressed
    to the null space (see MacaulayPencil) and needs no A1. alpha and beta
    are unit-scale complex Gaussians, drawn once: 4 (d + 1) standard
    normals from rng.
    """
    sel = quotient_basis(s)
    alpha = (rng.standard_normal(s.d + 1) + 1j * rng.standard_normal(s.d + 1)) / np.sqrt(2)
    beta = (rng.standard_normal(s.d + 1) + 1j * rng.standard_normal(s.d + 1)) / np.sqrt(2)
    A2 = _h_rows(sel.indices, alpha, sel.index.up)
    B2 = _h_rows(sel.indices, beta, sel.index.up)
    rows, cols = sel.index.shape
    if rows + len(sel.indices) == cols:
        # Compressing this pencil to (A2 Z, B2 Z) too would make QZ cheaper,
        # but it is not a rounding change: over the seed-1 d = 2 sweeps of
        # figs 1g and 4b it moves 282 of 1,800 trials by more than a digit,
        # lowers the fig 4b medians at sigma = 1e-8..1e-6 by 1.2 to 3.6
        # digits, and the six fig 4b draws at sigma = 1e-8 that raise
        # NullityMismatch no longer do.
        Z = None
        A1 = macaulay_hat(s).mat
        A = np.vstack([A1, A2])
        B = np.vstack([np.zeros_like(A1), B2])
    else:
        Z = sel.nullspace
        A, B = A2 @ Z, B2 @ Z
    return MacaulayPencil(gep=GenEigProblem(A=A, B=B), basis=sel, alpha=alpha, beta=beta, Z=Z)
