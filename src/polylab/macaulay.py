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
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .numkernel import _ZGEQP3, GenEigProblem, SvdFactor, _zgeqp3_lwork
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
# that a reduction to the quotient basis accepts (see _solve_basis).
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
    if degree < max(degs):
        raise ValueError("degree must be at least the largest polynomial degree")
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
        """The matrix's one SVD: nullity, null spaces and sigma_min all read it."""
        return SvdFactor.of(self.mat)


@dataclass(frozen=True)
class MacaulayPencil:
    """The pencil A - lambda B that the Macaulay solver solves.

    A2 and B2 are the rows of h_alpha and h_beta times the basis monomials
    of ``basis``, and A1 is the full degree-rho Macaulay matrix ``mhat``.
    When A1 plus the kept h rows is square, ``gep`` is A = [A1; A2],
    B = [0; B2] and ``Z`` is None. Otherwise (extra syzygy rows) ``gep`` is
    (A2 Z, B2 Z), with Z = basis.nullspace, the null space of A1: the same
    finite eigenvalues, and Z maps its eigenvectors back to the Macaulay
    columns. Either way A1's numerical nullity is the Bezout count r, which
    macaulay_pencil has checked.
    """

    gep: GenEigProblem
    mhat: MacaulayMatrix
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
    """

    monomials: list
    cond: float
    nullspace: np.ndarray
    indices: np.ndarray
    index: MacaulayIndex


def _solve_basis(NB: np.ndarray, cond: float, R: np.ndarray) -> np.ndarray:
    """C solving N_B^T C = R, one LU of N_B^T for every column of R.

    N_B are the basis rows of a Macaulay null space N and ``cond`` their
    condition number. Every reduction to the quotient basis solves this
    system, with R = N^T F for the coefficient columns F it reduces, and
    basis rows conditioned worse than BASIS_COND_MAX raise BasisSingular.
    """
    if cond > BASIS_COND_MAX:
        raise BasisSingular(f"basis rows of the null space are numerically singular: cond {cond:.3e}")
    return np.linalg.solve(NB.T, R)


def macaulay_hat(s: PolySystem, degree: int) -> MacaulayMatrix:
    """Rows m * p_i for all multipliers with deg(m) <= degree - deg(p_i).

    The index maps depend only on the system's support and the degree, so
    they are built once per pair and shared (see ``MacaulayIndex``); a
    matrix is one scatter of the compiled coefficients.
    """
    comp = s.compiled
    index = _macaulay_index(comp.layout, degree)
    mat = np.zeros(index.shape, dtype=complex)
    mat.reshape(-1)[index.positions] = comp.coeffs.reshape(-1)[index.gather]
    return MacaulayMatrix(mat=mat, index=index, bezout=bezout_count(s))


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
    reuse.
    """
    r = mhat.bezout
    nullity = mhat.factor.nullity
    if nullity != r:
        raise NullityMismatch(f"numerical nullity {nullity} != expected root count {r}")
    N = mhat.factor.null_space(r)
    cand = mhat.index.candidates
    # scipy.linalg.qr(C.T, mode="r", pivoting=True) minus its finiteness
    # check: N comes from the SVD of a finite matrix (MultiPoly rejects
    # non-finite coefficients). The fancy-indexed copy is ours to overwrite.
    CT = N[cand, :].T
    qr, jpvt, _, _, info = _ZGEQP3(CT, lwork=_zgeqp3_lwork(*CT.shape), overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal geqp3")
    diag = np.abs(np.diag(qr))
    if diag.size < r or diag[r - 1] <= len(cand) * np.finfo(float).eps * diag[0]:
        raise RankDeficientBasis("candidate null space rows are rank deficient")
    chosen = sorted(int(cand[p]) for p in jpvt[:r] - 1)
    indices = np.array(chosen)
    # np.linalg.cond(NB), which is this ratio of the singular values.
    s = np.linalg.svd(N[indices, :], compute_uv=False)
    return BasisSelection(
        monomials=[mhat.index.col_labels[k] for k in chosen],
        cond=float(s[0] / s[-1]) if s[-1] > 0 else math.inf,
        nullspace=N,
        indices=indices,
        index=mhat.index,
    )


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

    h rows are kept exactly for the basis monomials chosen from the null
    space, so the finite spectrum has size r = bezout_count(s). choose_basis
    has checked that the Macaulay matrix's numerical nullity is r, one null
    dimension per kept row. For the square pencil that check is the
    regularity condition: a larger nullity makes [A1; A2 - lambda B2]
    singular for every lambda. A rectangular system is then compressed to
    the null space (see MacaulayPencil). alpha and beta are unit-scale
    complex Gaussians, drawn once: 4 (d + 1) standard normals from rng.
    """
    mhat = macaulay_hat(s, rho(s))
    sel = choose_basis(mhat)
    alpha = (rng.standard_normal(s.d + 1) + 1j * rng.standard_normal(s.d + 1)) / np.sqrt(2)
    beta = (rng.standard_normal(s.d + 1) + 1j * rng.standard_normal(s.d + 1)) / np.sqrt(2)
    A2 = _h_rows(sel.indices, alpha, mhat.index.up)
    B2 = _h_rows(sel.indices, beta, mhat.index.up)
    if mhat.mat.shape[0] + mhat.bezout == mhat.mat.shape[1]:
        # Compressing this pencil to (A2 Z, B2 Z) too would make QZ cheaper,
        # but it is not a rounding change: over the seed-1 d = 2 sweeps of
        # figs 1g and 4b it moves 282 of 1,800 trials by more than a digit,
        # lowers the fig 4b medians at sigma = 1e-8..1e-6 by 1.2 to 3.6
        # digits, and the six fig 4b draws at sigma = 1e-8 that raise
        # NullityMismatch no longer do.
        Z = None
        A = np.vstack([mhat.mat, A2])
        B = np.vstack([np.zeros_like(mhat.mat), B2])
    else:
        Z = sel.nullspace
        A, B = A2 @ Z, B2 @ Z
    return MacaulayPencil(gep=GenEigProblem(A=A, B=B), mhat=mhat, basis=sel, alpha=alpha, beta=beta, Z=Z)
