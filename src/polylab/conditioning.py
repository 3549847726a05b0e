"""Condition numbers for roots, eigenvalues, and solver subproblems.

Covers the absolute root condition number, its univariate specialization,
the generalized-eigenvalue condition number, the singular-vector matrix B0
tying a multiparameter eigenproblem to the Jacobian, closed-form condition
formulas for the eigenvalue subproblems of each solver, Lagrange
interpolants from matrix factorizations of the system, normal forms over a
quotient basis, and the predicted digits-of-accuracy lines used by the
benchmark plots.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

# BasisSingular is raised by _solve_basis and kept importable from here.
from .macaulay import BasisSelection, BasisSingular, _solve_basis
from .numkernel import EigPairs, GenEigProblem, _bilinear, _magnitude, _row_norms
from .polycore import (
    SUPPORT_CACHE_SIZE,
    MultiPoly,
    PolySystem,
    _cpow,
    monomial_positions,
)


class SingularJacobian(Exception):
    """The Jacobian is singular at the requested point."""


class MultipleRoot(Exception):
    """The univariate derivative vanishes at the root."""


# Largest sigma_min / sigma_max of W_i(x*) that mep_root_vectors accepts as
# singular, i.e. x* as a joint eigenvalue.
MEP_ROOT_TOL = 1e-6


# ---------------------------------------------------------------------------
# scalar condition numbers


@dataclass(frozen=True)
class RootPoint:
    """A point x with a system's residual and Jacobian there."""

    x: np.ndarray
    residual: float
    jacobian: np.ndarray


def root_point(s: PolySystem, xstar) -> RootPoint:
    """x* evaluated on s in one compiled call; a RootPoint is returned as it is.

    kappa_root, q_factorization and the closed-form kappas accept either a
    point or the RootPoint of that point on the same system, so a caller
    that needs several of them at one root evaluates it once.
    """
    if isinstance(xstar, RootPoint):
        return xstar
    x = np.asarray(xstar, dtype=complex)
    values, J = s.evaluate([x])
    return RootPoint(x=x, residual=float(np.linalg.norm(values[0])), jacobian=J[0])


def kappa_root(s: PolySystem, xstar) -> float:
    """Absolute condition number of a simple root: ||J(x*)^{-1}||_2.

    J comes from the system's compiled form (see ``root_point``); solvers
    score all their roots at once with ``kappa_roots``.
    """
    root = root_point(s, xstar)
    k = float(kappa_roots(root.jacobian[None])[0])
    if math.isinf(k):
        raise SingularJacobian(f"Jacobian singular at {root.x}")
    return k


def kappa_roots(jacobians: np.ndarray) -> np.ndarray:
    """||J^{-1}||_2 for a stack of Jacobians (n, d, d), from one stacked SVD.

    A Jacobian whose smallest singular value is zero or not finite scores inf.
    """
    smin = np.linalg.svd(jacobians, compute_uv=False)[:, -1]
    out = np.full(smin.shape, math.inf)
    np.divide(1.0, smin, out=out, where=np.isfinite(smin) & (smin > 0))
    return out


def kappa_uni(p, xstar) -> float:
    """Univariate specialization: 1 / |p'(x*)|."""
    dval = p.derivative().eval(xstar)
    if dval == 0:
        raise MultipleRoot(f"derivative vanishes at {xstar}")
    return 1.0 / abs(dval)


def kappa_eig(gep: GenEigProblem, pairs: EigPairs) -> np.ndarray:
    """Eigenvalue condition number (||y|| ||x|| / |y^T B x|) (1 + |lambda|) of every pair.

    y is the transpose-convention left eigenvector. Infinite or defective
    eigenvalues (y^T B x = 0) score inf. Each kappa is byte-equal to the
    formula evaluated for its pair alone.
    """
    norm_left, norm_right = _row_norms(np.stack((pairs.left, pairs.right)))
    denom = _magnitude(_bilinear(pairs.left, gep.B[None], pairs.right)[:, 0])
    kappa = np.full(len(pairs), math.inf)
    np.divide(norm_left * norm_right, denom, out=kappa, where=~pairs.infinite & (denom != 0.0))
    # A skipped pair stays inf: 1 + |lam| >= 1, and lam is inf at an infinite pair.
    kappa *= 1.0 + _magnitude(pairs.lam)
    return kappa


# ---------------------------------------------------------------------------
# multiparameter eigenproblems
#
# A multiparameter eigenproblem is any object with fields ``d`` and ``W``,
# where W[i] = (V_i0, V_i1, ..., V_id) encodes W_i(x) = V_i0 - sum_j x_j V_ij.


def mep_operator(W_i, x) -> np.ndarray:
    """Evaluate W_i(x) = V_i0 - sum_j x_j V_ij."""
    x = np.asarray(x, dtype=complex)
    M = np.array(W_i[0], dtype=complex, copy=True)
    for j, xj in enumerate(x):
        M = M - xj * np.asarray(W_i[1 + j], dtype=complex)
    return M


def mep_root_vectors(mep, xstar) -> list:
    """Left/right singular vectors for the smallest singular value of each W_i(x*).

    The left vector is returned conjugated, so that u @ M @ v is the
    conventional u^H M v inner product, and carries the unit phase
    -det(U) det(V^H) from the adjugate identity
    adj(W) = det(U) det(V^H) (prod of nonzero sigmas) v u^H, which makes the
    row scaling of b0_matrix reproduce the Jacobian without any residual
    phase freedom. Raises if x* is not close enough to a joint eigenvalue
    for the smallest singular value to be negligible (MEP_ROOT_TOL).
    """
    out = []
    for i in range(mep.d):
        U, s, Vh = np.linalg.svd(mep_operator(mep.W[i], xstar))
        V = Vh.conj().T
        scale = s[0] if s[0] > 0 else 1.0
        if s[-1] > MEP_ROOT_TOL * scale:
            raise ValueError(
                f"W_{i}(x*) is far from singular (sigma_min/sigma_max = {s[-1] / scale:.2e})"
            )
        phase = -np.linalg.det(U) * np.conj(np.linalg.det(V))
        u = phase * U[:, -1].conj()
        v = V[:, -1]
        out.append((u, v))
    return out


def b0_matrix(mep, xstar, eigvecs) -> np.ndarray:
    """Matrix with entries (i, j) = u_i^T V_ij v_i.

    With vectors from mep_root_vectors, scaling row i by the product of the
    nonzero singular values of W_i(x*) recovers the Jacobian of the
    underlying polynomial system exactly.
    """
    d = mep.d
    B0 = np.empty((d, d), dtype=complex)
    for i in range(d):
        u, v = eigvecs[i]
        for j in range(d):
            B0[i, j] = u @ np.asarray(mep.W[i][1 + j], dtype=complex) @ v
    return B0


def mep_row_scaling(mep, xstar) -> np.ndarray:
    """diag of products of the nonzero singular values of each W_i(x*)."""
    out = np.empty(mep.d)
    for i in range(mep.d):
        _, s, _ = np.linalg.svd(mep_operator(mep.W[i], xstar))
        out[i] = float(np.prod(s[:-1])) if s.size > 1 else 1.0
    return np.diag(out)


def kappa_eig_mep_formula(mep, s: PolySystem, xstar, i: int) -> float:
    """Closed-form eigenvalue condition number for the operator-determinant GEPs.

    (prod over equations of the nonzero singular values of W_k(x*)) divided
    by |det J(x*)|, times (1 + |x_i*|).
    """
    root = root_point(s, xstar)
    detJ = _abs_det_jacobian(root)
    prod = math.prod(np.diag(mep_row_scaling(mep, root.x)).tolist())
    return prod / detJ * (1.0 + abs(root.x[i]))


# ---------------------------------------------------------------------------
# matrix factorizations of the system and Lagrange interpolants


@dataclass(frozen=True)
class QFactorization:
    """Grid Q of polynomials with p_i = sum_j Q_ij * (x_j - shift_j).

    ``shifted`` holds the grid in the coordinates y = x - shift, where
    q_factorization reads it off; ``Q`` is the same grid in x, translated
    back entry by entry on first use.
    """

    shifted: tuple
    shift: np.ndarray

    @functools.cached_property
    def Q(self) -> list:
        return [[q.translate(-self.shift) for q in row] for row in self.shifted]


def q_factorization(s: PolySystem, xstar) -> QFactorization:
    """Canonical factorization p_i = sum_j Q_ij (x_j - x_j*) about a root.

    Built by Taylor shifting each polynomial to the root and assigning every
    shifted monomial to the column of its lowest-index variable with positive
    exponent. Evaluated at the root, Q recovers the Jacobian exactly. x*
    (a point or its RootPoint) must pass the residual test of
    PolySystem.validate.
    """
    root = root_point(s, xstar)
    if not root.residual <= s.residual_bound():
        raise ValueError(f"x* is not a root: residual {root.residual:.3e}")
    d = s.d
    grid = []
    for p in s.polys:
        cols = [dict() for _ in range(d)]
        for m, c in p.translate(root.x).terms.items():
            if sum(m) == 0:
                continue  # residual-sized constant, discarded
            j = next(k for k, e in enumerate(m) if e > 0)
            e = list(m)
            e[j] -= 1
            key = tuple(e)
            cols[j][key] = cols[j].get(key, 0j) + c
        grid.append(tuple(MultiPoly._of_terms(d, col) for col in cols))
    return QFactorization(shifted=tuple(grid), shift=root.x)


@functools.lru_cache(maxsize=SUPPORT_CACHE_SIZE)
def _cofactor_plan(nvars: int, supports: tuple) -> tuple:
    """numkernel.laplace_expansion of a polynomial grid, compiled for its supports.

    ``supports[i][j]`` lists the monomials of entry (i, j) in dict order.
    Returns (monomials, levels): one level per expansion row, the last row
    first. The level of row k holds every minor on rows k..d-1, the one
    without the columns in ``mask`` being the sum over the other columns j
    of +-(entry (k, j)) * (the previous level's minor for mask | 1 << j),
    with laplace_expansion's signs; before row d-1 stands the constant 1.
    So the plan makes the expansion's d * 2^(d-1) polynomial products, not
    the d! of Leibniz's formula. A level is (take, minor, sign, put, size):
    scalar product n is entry coefficient take[n] (flat over the grid, row
    by row, each entry in dict order) times previous-level coefficient
    minor[n] times sign[n], added to coefficient put[n] of the level's
    ``size``. The last level is the determinant, over ``monomials``.
    """
    d = len(supports)
    starts = [0, *itertools.accumulate(len(sup) for row in supports for sup in row)]
    prev = {(1 << d) - 1: (0, {(0,) * nvars: 0})}  # mask -> (offset, {monomial: position})
    levels = []
    for row in range(d - 1, -1, -1):
        take, minor, sign, put = [], [], [], []
        level = {}
        size = 0
        for mask in (m for m in range(1 << d) if bin(m).count("1") == row):
            out: dict = {}
            free = [j for j in range(d) if not mask & (1 << j)]
            for pos, j in enumerate(free):
                offset, child = prev[mask | (1 << j)]
                start = starts[row * d + j]
                for ta, ma in enumerate(supports[row][j]):
                    for mb, tb in child.items():
                        m = tuple(a + b for a, b in zip(ma, mb))
                        take.append(start + ta)
                        minor.append(offset + tb)
                        sign.append(-1.0 if pos % 2 else 1.0)
                        put.append(size + out.setdefault(m, len(out)))
            level[mask] = (size, out)
            size += len(out)
        arrays = (np.array(take, dtype=np.intp), np.array(minor, dtype=np.intp),
                  np.array(sign), np.array(put, dtype=np.intp))
        for a in arrays:
            a.setflags(write=False)
        levels.append(arrays + (size,))
        prev = level
    return tuple(prev[0][1]), tuple(levels)


def poly_det(grid) -> MultiPoly:
    """Determinant of a square grid of polynomials, by its cached cofactor plan.

    Each expansion row is one gather-multiply-scatter over the flat
    coefficient arrays; see _cofactor_plan.
    """
    nvars = grid[0][0].nvars
    monomials, levels = _cofactor_plan(nvars, tuple(tuple(tuple(q.terms) for q in row) for row in grid))
    flat = np.array([c for row in grid for q in row for c in q.terms.values()], dtype=complex)
    coeffs = np.ones(1, dtype=complex)
    for take, minor, sign, put, size in levels:
        prod = flat[take] * coeffs[minor]
        coeffs = np.empty(size, dtype=complex)
        coeffs.real = np.bincount(put, prod.real * sign, size)
        coeffs.imag = np.bincount(put, prod.imag * sign, size)
    return MultiPoly._of_terms(nvars, dict(zip(monomials, coeffs.tolist())))


def lagrange_interpolant(qf: QFactorization) -> MultiPoly:
    """det(Q): vanishes at every root except the factorization's shift, where it is det J(x*).

    Expanded over the shifted grid and translated back to x once.
    verification.interpolant_suite checks the minor expansion this extends
    to when the system carries remainders r_i (x_i - x_i*) on the diagonal.
    """
    return poly_det(qf.shifted).translate(-qf.shift)


# ---------------------------------------------------------------------------
# normal forms over a quotient basis


def _full_block_positions(n_rows: int, d: int) -> Mapping:
    deg = 0
    while math.comb(deg + d, d) < n_rows:
        deg += 1
    if math.comb(deg + d, d) != n_rows:
        raise ValueError(f"{n_rows} rows is not a full monomial block in {d} variables")
    return monomial_positions(deg, d)


def _coefficient_vector(f: MultiPoly, index: Mapping) -> np.ndarray:
    fvec = np.zeros(len(index), dtype=complex)
    for m, c in f.terms.items():
        if m not in index:
            raise ValueError(f"monomial {m} exceeds the matrix degree")
        fvec[index[m]] = c
    return fvec


def normal_form(f: MultiPoly, basis: list, N: np.ndarray) -> np.ndarray:
    """Coefficients of f's residue class over the quotient basis.

    N is a null-space matrix of the Macaulay matrix, so its rows follow the
    Macaulay columns: the full monomial block in grlex order, read from the
    shared index. The vector c solves N_B^T c = N^T f, matching the values
    every null space functional takes on f and on its basis representation.
    Basis rows N_B conditioned worse than macaulay.BASIS_COND_MAX raise
    BasisSingular. N is any such null space; the solvers and the
    closed-form kappas read the columns from their BasisSelection instead.
    """
    index = _full_block_positions(N.shape[0], f.nvars)
    fvec = _coefficient_vector(f, index)
    try:
        b_idx = [index[m] for m in basis]
    except KeyError as e:
        raise ValueError(f"basis monomial {e} not among row monomials") from e
    NB = N[b_idx, :]
    return _solve_basis(NB, np.linalg.cond(NB), N.T @ fvec)


def basis_values(basis, x) -> np.ndarray:
    """The monomials ``basis`` (an iterable of exponent tuples) at the point x.

    Each is 1 times x_i**e_i for every e_i > 0, in ascending i. The powers
    are computed once per variable and exponent by polycore._cpow, which
    rounds as numpy's scalar power does, so every value is the one numpy's
    scalar arithmetic gives, bit for bit.
    """
    top = max(map(max, basis))
    powers = [[_cpow(z, n) for n in range(top + 1)] for z in np.asarray(x, dtype=complex).tolist()]
    values = []
    for m in basis:
        v = 1 + 0j
        for p, e in zip(powers, m):
            if e:
                v = v * p[e]
        values.append(v)
    return np.array(values)


def _det_q_in_basis(s: PolySystem, root: RootPoint, sel: BasisSelection) -> np.ndarray:
    """[det Q]_B over the selection's basis; its basis rows' condition number is ``sel.cond``."""
    N = sel.nullspace
    fvec = _coefficient_vector(lagrange_interpolant(q_factorization(s, root)), sel.index.columns)
    return _solve_basis(N[sel.indices, :], sel.cond, N.T @ fvec)


def _abs_det_jacobian(root: RootPoint) -> float:
    detJ = abs(np.linalg.det(root.jacobian))
    if detJ == 0.0:
        raise SingularJacobian(f"Jacobian singular at {root.x}")
    return detJ


def kappa_eig_ms_formula(s: PolySystem, xstar, sel: BasisSelection, i: int) -> float:
    """Eigenvalue condition number of the multiplication-matrix eigenproblem.

    ||[det Q]_B||_2 * ||B(x*)||_2 / |det J(x*)| * (1 + |x_i*|), where
    [det Q]_B is the normal form of det Q over the basis and B(x*) the basis
    monomials evaluated at the root. ``sel`` is the BasisSelection that
    ``choose_basis`` read from the null space of the degree-rho Macaulay
    matrix; x* is a point or its RootPoint.
    """
    root = root_point(s, xstar)
    c = _det_q_in_basis(s, root, sel)
    detJ = _abs_det_jacobian(root)
    return (
        float(np.linalg.norm(c))
        * float(np.linalg.norm(basis_values(sel.monomials, root.x)))
        / detJ
        * (1.0 + abs(root.x[i]))
    )


def kappa_eig_macaulay_bound(s: PolySystem, xstar, sel: BasisSelection, h: MultiPoly) -> float:
    """Lower bound on the Macaulay pencil eigenvalue condition number.

    ||[det Q]_B||_2 * ||V(x*)||_2 / |det J(x*) * h(x*)| with V the vector of
    all Macaulay column monomials (the rows of ``sel.nullspace``) and h the
    linear polynomial whose multiples populate the lambda side of the
    pencil. ``sel`` is the pencil's basis selection (``pencil.basis``); x*
    is a point or its RootPoint.
    """
    root = root_point(s, xstar)
    c = _det_q_in_basis(s, root, sel)
    detJ = abs(np.linalg.det(root.jacobian))
    hval = abs(h.eval(root.x))
    if detJ == 0.0 or hval == 0.0:
        raise SingularJacobian("det(J) * h vanishes at the root")
    V = basis_values(sel.index.col_labels, root.x)
    return float(np.linalg.norm(c)) * float(np.linalg.norm(V)) / (detJ * hval)


# ---------------------------------------------------------------------------
# reports and theory lines


@dataclass(frozen=True)
class ConditionReport:
    """Root condition number versus a method's subproblem condition number."""

    kappa_root: float
    kappa_sub: float
    ratio: float
    method_tag: str

    @staticmethod
    def make(kappa_root: float, kappa_sub: float, method_tag: str) -> "ConditionReport":
        return ConditionReport(
            kappa_root=kappa_root,
            kappa_sub=kappa_sub,
            ratio=kappa_sub / kappa_root,
            method_tag=method_tag,
        )

    def to_json_dict(self) -> dict:
        return {
            "method_tag": self.method_tag,
            "kappa_root": self.kappa_root,
            "kappa_sub": self.kappa_sub,
            "ratio": self.ratio,
        }


def _digits_from_kappa(kappa: float) -> float:
    if kappa <= 0:
        return 16.0
    return float(min(16.0, max(0.0, 16.0 - math.log10(kappa))))


def theory_digits(method: str, family: str, param: dict) -> float:
    """Predicted digits of accuracy for a method on a family instance.

    ``method`` is one of stable, gb, rur, mep, nf, macaulay; ``param`` holds
    d and sigma (or c for the hypercube family). The stable line uses the
    root condition number; the others use the known growth law of the
    method's subproblem condition number on that family.
    """
    d = int(param["d"])
    sigma = param.get("sigma")
    c = param.get("c")
    sigma_families = {"orthogonal", "cyclic_squares", "permutation", "notdev2d", "notdev3d"}
    if method == "stable":
        if family in sigma_families:
            kappa = 1.0 / sigma
        elif family == "hypercube":
            kappa = c * math.sqrt(d) / 2.0
        else:
            raise ValueError(f"no stable line for family {family!r}")
    elif method == "gb":
        if family != "cyclic_squares":
            raise ValueError("gb line applies to cyclic_squares")
        kappa = sigma ** (-(2**d - 1))
    elif method == "rur":
        if family != "hypercube":
            raise ValueError("rur line applies to hypercube")
        kappa = (c / 2.0) ** (2**d - 1)
    elif method in ("mep", "nf", "macaulay"):
        if family in ("orthogonal", "permutation"):
            kappa = sigma ** (-d)
        elif family in ("notdev2d", "notdev3d"):
            # Eigenvector sensitivity governs these two families and grows
            # like sigma^-2, slower than the 1/det(J) rate of sigma^-d.
            kappa = sigma ** (-2.0)
        else:
            raise ValueError(f"no {method} line for family {family!r}")
    else:
        raise ValueError(f"unknown method {method!r}")
    return _digits_from_kappa(kappa)
