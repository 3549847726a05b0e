"""Macaulay matrix construction and the h-augmented eigenvalue pencil.

The degree-rho Macaulay matrix stacks the coefficient rows of all monomial
multiples m * p_i with deg(m) <= rho - deg(p_i), columns indexed by the
monomials of degree <= rho in graded lexicographic order. Appending rows for
a random linear polynomial h(lambda) = h_alpha - lambda * h_beta, kept only
for a selected set of basis monomials, yields a pencil whose finite
eigenvalues correspond to the system's roots.
"""

from __future__ import annotations

import csv as _csv
import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .numkernel import GenEigProblem, SvdFactor, check_pencil_regular
from .polycore import MultiPoly, PolySystem, bezout_count, monomials_up_to, rho


class RankDeficientBasis(Exception):
    """The candidate rows cannot supply an invertible basis submatrix."""


@dataclass(frozen=True)
class MacaulayMatrix:
    """Coefficient matrix of monomial multiples of the system polynomials.

    ``row_labels[k] = (i, m)`` means row k holds the coefficients of
    m * p_i over ``col_labels``.
    """

    mat: np.ndarray
    row_labels: list
    col_labels: list
    degree: int

    @functools.cached_property
    def factor(self) -> SvdFactor:
        """The matrix's one SVD: nullity, null spaces and sigma_min all read it."""
        return SvdFactor.of(self.mat)


@dataclass(frozen=True)
class MacaulayPencil:
    """Pencil A - lambda B with A = [A1; A2], B = [0; B2].

    A1 is the full degree-rho Macaulay matrix ``mhat``; the A2/B2 rows carry
    the multiples of h_alpha and h_beta kept for the basis monomials of
    ``basis``, whose null space is that of A1.
    """

    gep: GenEigProblem
    mhat: MacaulayMatrix
    basis: BasisSelection
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def kept_h_monomials(self) -> list:
        return self.basis.monomials

    @property
    def n_poly_rows(self) -> int:
        return self.mhat.mat.shape[0]

    @property
    def A1(self) -> np.ndarray:
        return self.gep.A[: self.n_poly_rows]

    @property
    def A2(self) -> np.ndarray:
        return self.gep.A[self.n_poly_rows :]

    @property
    def B2(self) -> np.ndarray:
        return self.gep.B[self.n_poly_rows :]


@dataclass(frozen=True)
class BasisSelection:
    """Quotient basis choice plus the null space it was read from."""

    monomials: list
    cond: float
    nullspace: np.ndarray
    indices: np.ndarray  # positions of the basis monomials among the columns


def macaulay_hat(s: PolySystem, degree: int) -> MacaulayMatrix:
    """Rows m * p_i for all multipliers with deg(m) <= degree - deg(p_i).

    Assembled by index arithmetic from the system's compiled exponents and
    coefficients: the column of m * t is found by searching the sorted
    mixed-radix codes of the column monomials.
    """
    degs = [p.total_degree() for p in s.polys]
    if degree < max(degs):
        raise ValueError("degree must be at least the largest polynomial degree")
    cols = monomials_up_to(degree, s.d)
    multipliers = {k: monomials_up_to(degree - k, s.d) for k in set(degs)}
    labels = [(i, m) for i in range(s.d) for m in multipliers[degs[i]]]
    poly = np.array([i for i, _ in labels])
    radix = (degree + 1) ** np.arange(s.d - 1, -1, -1)
    codes = np.array(cols) @ radix
    by_code = np.argsort(codes)
    comp = s.compiled
    products = np.array([m for _, m in labels])[:, None, :] + comp.exps[poly]
    where = by_code[np.searchsorted(codes[by_code], products @ radix)]
    live = comp.mask[poly]
    mat = np.zeros((len(labels), len(cols)), dtype=complex)
    mat[np.nonzero(live)[0], where[live]] = comp.coeffs[poly][live]
    return MacaulayMatrix(mat=mat, row_labels=labels, col_labels=cols, degree=degree)


def choose_basis(mhat: MacaulayMatrix, r: int) -> BasisSelection:
    """Select r quotient-basis monomials of degree <= degree - 1.

    The null space N is read from the matrix's shared factor with
    prescribed nullity r, so it costs no SVD beyond ``mhat.factor``.
    Candidate rows of N (monomials below the top degree) are ranked by
    column-pivoted QR, greedy on residual norms, and the first r pivots form
    the basis. The condition number of the selected r x r submatrix is
    reported alongside, and N travels with the selection for the caller to
    reuse.
    """
    N = mhat.factor.null_space(r)
    cand = [k for k, m in enumerate(mhat.col_labels) if sum(m) <= mhat.degree - 1]
    C = N[cand, :]
    Q, R, piv = scipy.linalg.qr(C.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size < r or diag[r - 1] <= len(cand) * np.finfo(float).eps * diag[0]:
        raise RankDeficientBasis("candidate null space rows are rank deficient")
    chosen = sorted(int(cand[p]) for p in piv[:r])
    indices = np.array(chosen)
    NB = N[indices, :]
    return BasisSelection(
        monomials=[mhat.col_labels[k] for k in chosen],
        cond=float(np.linalg.cond(NB)),
        nullspace=N,
        indices=indices,
    )


def _h_rows(monomials, coeffs: np.ndarray, d: int, col_index: dict) -> np.ndarray:
    """Rows of m * h for h = coeffs[0] + sum_i coeffs[i+1] x_i."""
    rows = np.zeros((len(monomials), len(col_index)), dtype=complex)
    for k, m in enumerate(monomials):
        rows[k, col_index[m]] += coeffs[0]
        for i in range(d):
            e = list(m)
            e[i] += 1
            rows[k, col_index[tuple(e)]] += coeffs[i + 1]
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
    """Build the eigenvalue pencil from the Macaulay matrix and a random h.

    h rows are kept exactly for the basis monomials chosen from the null
    space, so the finite spectrum has size bezout_count(s). alpha and beta
    are unit-scale complex Gaussians, redrawn up to three times if the
    square pencil comes out singular. This probe is the only singularity
    check a square pencil gets: generalized_eig runs none.
    """
    r = bezout_count(s)
    mhat = macaulay_hat(s, rho(s))
    sel = choose_basis(mhat, r)
    col_index = {m: k for k, m in enumerate(mhat.col_labels)}
    square = mhat.mat.shape[0] + r == len(mhat.col_labels)
    last_err = None
    for _ in range(4):
        alpha = (rng.standard_normal(s.d + 1) + 1j * rng.standard_normal(s.d + 1)) / np.sqrt(2)
        beta = (rng.standard_normal(s.d + 1) + 1j * rng.standard_normal(s.d + 1)) / np.sqrt(2)
        A2 = _h_rows(sel.monomials, alpha, s.d, col_index)
        B2 = _h_rows(sel.monomials, beta, s.d, col_index)
        A = np.vstack([mhat.mat, A2])
        B = np.vstack([np.zeros_like(mhat.mat), B2])
        if square and not check_pencil_regular(A, B):
            last_err = "pencil singular at probe points"
            continue
        gep = GenEigProblem(
            A=A,
            B=B,
            row_labels=list(mhat.row_labels) + [("h", m) for m in sel.monomials],
            col_labels=list(mhat.col_labels),
        )
        return MacaulayPencil(gep=gep, mhat=mhat, basis=sel, alpha=alpha, beta=beta)
    from .numkernel import SingularPencil

    raise SingularPencil(f"no regular pencil after redraws: {last_err}")


def smallest_singular_hat(s: PolySystem) -> float:
    """sigma_min of the degree-rho Macaulay matrix, read from its shared factor.

    A caller that already holds the MacaulayMatrix reads
    ``mhat.factor.sigma_min`` instead and pays for no second SVD.
    """
    return macaulay_hat(s, rho(s)).factor.sigma_min


def dump_labeled_csv(mhat: MacaulayMatrix, path) -> None:
    """Write the matrix with a monomial header row and row labels, for eyeballing."""

    def mono_str(m) -> str:
        if sum(m) == 0:
            return "1"
        parts = []
        for i, e in enumerate(m):
            if e:
                parts.append(f"x{i}" + (f"^{e}" if e > 1 else ""))
        return "*".join(parts)

    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["row"] + [mono_str(m) for m in mhat.col_labels])
        for label, row in zip(mhat.row_labels, mhat.mat):
            name = f"{mono_str(label[1])}*p{label[0]}"
            w.writerow([name] + [f"{z.real:.17g}{z.imag:+.17g}j" for z in row])
