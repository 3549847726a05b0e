"""Condition numbers for roots, eigenvalues, and solver subproblems.

Covers the absolute root condition number, its univariate specialization,
the generalized-eigenvalue condition number, the singular-vector matrix B0
tying a multiparameter eigenproblem to the Jacobian, closed-form condition
formulas for the eigenvalue subproblems of each solver (the nf and Macaulay
ones over the normal forms of a quotient basis), Lagrange interpolants from
matrix factorizations of the system, and the predicted digits-of-accuracy
lines used by the benchmark plots.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .families import _FAMILY, FamilySpec
from .macaulay import BasisSelection, MacaulayPencil, linear_poly
from .numkernel import (
    EigPairs,
    GenEigProblem,
    _bilinear,
    _cofactor_plan,
    _expand,
    _magnitude,
    _row_norms,
)
from .polycore import MultiPoly, PolySystem, _cpow


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


def poly_det(grid) -> MultiPoly:
    """Determinant of a square grid of polynomials, by its cached numkernel._cofactor_plan."""
    nvars = grid[0][0].nvars
    exponents, levels = _cofactor_plan(nvars, tuple(tuple(tuple(q.terms) for q in row) for row in grid))
    flat = np.array([c for row in grid for q in row for c in q.terms.values()], dtype=complex)
    return MultiPoly._of_terms(nvars, dict(zip(map(tuple, exponents.tolist()), _expand(levels, flat).tolist())))


def lagrange_interpolant(qf: QFactorization) -> MultiPoly:
    """det(Q): vanishes at every root except the factorization's shift, where it is det J(x*).

    Expanded over the shifted grid and translated back to x once.
    verification.interpolant_suite checks the minor expansion this extends
    to when the system carries remainders r_i (x_i - x_i*) on the diagonal.
    """
    return poly_det(qf.shifted).translate(-qf.shift)


# ---------------------------------------------------------------------------
# closed-form kappas over a quotient basis


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


def _abs_det_jacobian(root: RootPoint) -> float:
    """|det J(x*)|, the one guard on it: SingularJacobian at 0, LinAlgError when not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        detJ = abs(np.linalg.det(root.jacobian))
    if detJ == 0.0:
        raise SingularJacobian(f"Jacobian singular at {root.x}")
    if not math.isfinite(detJ):
        raise np.linalg.LinAlgError("det J(x*) is not finite")
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
    c = sel.normal_form(lagrange_interpolant(q_factorization(s, root)))
    detJ = _abs_det_jacobian(root)
    return (
        float(np.linalg.norm(c))
        * float(np.linalg.norm(basis_values(sel.monomials, root.x)))
        / detJ
        * (1.0 + abs(root.x[i]))
    )


def kappa_eig_macaulay_bound(s: PolySystem, xstar, pencil: MacaulayPencil) -> float:
    """Lower bound on the Macaulay pencil eigenvalue condition number.

    ||[det Q]_B||_2 * ||V(x*)||_2 / |det J(x*) * h(x*)| with [det Q]_B the
    normal form over the pencil's basis selection, V the vector of all
    Macaulay column monomials and h = linear_poly(d, pencil.beta), the
    linear polynomial whose multiples populate the lambda side of the
    pencil. x* is a point or its RootPoint.
    """
    root = root_point(s, xstar)
    sel = pencil.basis
    c = sel.normal_form(lagrange_interpolant(q_factorization(s, root)))
    detJ = _abs_det_jacobian(root)
    hval = abs(linear_poly(s.d, pencil.beta).eval(root.x))
    if hval == 0.0:
        raise SingularJacobian("h(x*) vanishes at the root")
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
        return asdict(self)


def _digits_from_kappa(kappa: float) -> float:
    if kappa <= 0:
        return 16.0
    return float(min(16.0, max(0.0, 16.0 - math.log10(kappa))))


def theory_digits(method: str, fspec: FamilySpec) -> float:
    """Predicted digits of accuracy for a method on a family instance.

    ``method`` is stable or a method key of the family's ``_FAMILY`` row
    (gb, rur, mep, nf, macaulay): the closed-form condition number at the
    family's designated root, kappa_root for the stable line and the
    subproblem's growth law for a method. A pairing without a law is a
    ValueError; a law that overflows a float is kappa = inf, 0 digits.
    """
    _, param, _, laws = _FAMILY[fspec.family]
    if method not in laws:
        raise ValueError(f"no {method} line for family {fspec.family!r}")
    try:
        # Python numbers: a numpy scalar's power overflows to inf with a warning, not an error.
        kappa = laws[method](int(fspec.d), float(getattr(fspec, param)))
    except OverflowError:
        kappa = math.inf
    return _digits_from_kappa(kappa)
