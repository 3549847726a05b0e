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

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .numkernel import GenEigProblem, EigTriple, laplace_expansion, _vector_norm
from .polycore import MultiPoly, PolySystem, jacobian, monomial_positions


class SingularJacobian(Exception):
    """The Jacobian is singular at the requested point."""


class MultipleRoot(Exception):
    """The univariate derivative vanishes at the root."""


class BasisSingular(Exception):
    """The basis rows of the null space are numerically singular."""


# Largest sigma_min / sigma_max of W_i(x*) that mep_root_vectors accepts as
# singular, i.e. x* as a joint eigenvalue.
MEP_ROOT_TOL = 1e-6


# ---------------------------------------------------------------------------
# scalar condition numbers


def kappa_root(s: PolySystem, xstar) -> float:
    """Absolute condition number of a simple root: ||J(x*)^{-1}||_2.

    J comes from the system's compiled form (see ``jacobian``); solvers
    score all their roots at once with ``kappa_roots``.
    """
    k = float(kappa_roots(jacobian(s, xstar)[None])[0])
    if math.isinf(k):
        raise SingularJacobian(f"Jacobian singular at {xstar}")
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


def kappa_eig(gep: GenEigProblem, t: EigTriple) -> float:
    """Eigenvalue condition number (||y|| ||x|| / |y^T B x|) (1 + |lambda|).

    y is the transpose-convention left eigenvector. Infinite or defective
    eigenvalues (y^T B x = 0) score inf.
    """
    if t.is_infinite:
        return math.inf
    denom = abs(t.left @ gep.B @ t.right)
    if denom == 0.0:
        return math.inf
    num = _vector_norm(t.left) * _vector_norm(t.right)
    return num / denom * (1.0 + abs(t.lam))


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
    xstar = np.asarray(xstar, dtype=complex)
    detJ = abs(np.linalg.det(jacobian(s, xstar)))
    if detJ == 0.0:
        raise SingularJacobian(f"Jacobian singular at {xstar}")
    prod = 1.0
    for k in range(mep.d):
        _, sv, _ = np.linalg.svd(mep_operator(mep.W[k], xstar))
        if sv.size > 1:
            prod *= float(np.prod(sv[:-1]))
    return prod / detJ * (1.0 + abs(xstar[i]))


# ---------------------------------------------------------------------------
# matrix factorizations of the system and Lagrange interpolants


@dataclass(frozen=True)
class QFactorization:
    """Grid Q of polynomials with p_i = sum_j Q_ij * (x_j - shift_j)."""

    Q: list
    shift: np.ndarray


def q_factorization(s: PolySystem, xstar) -> QFactorization:
    """Canonical factorization p_i = sum_j Q_ij (x_j - x_j*) about a root.

    Built by Taylor shifting each polynomial to the root and assigning every
    shifted monomial to the column of its lowest-index variable with positive
    exponent. Evaluated at the root, Q recovers the Jacobian exactly. x*
    must pass the residual test of PolySystem.validate.
    """
    xstar = np.asarray(xstar, dtype=complex)
    res = s.residual(xstar)
    if not res <= s.residual_bound():
        raise ValueError(f"x* is not a root: residual {res:.3e}")
    d = s.d
    grid = []
    for p in s.polys:
        shifted = p.translate(xstar)
        cols = [dict() for _ in range(d)]
        for m, c in shifted.terms.items():
            if sum(m) == 0:
                continue  # residual-sized constant, discarded
            j = next(k for k, e in enumerate(m) if e > 0)
            e = list(m)
            e[j] -= 1
            key = tuple(e)
            cols[j][key] = cols[j].get(key, 0j) + c
        grid.append(
            [MultiPoly._of_terms(d, cols[j]).translate(-xstar) for j in range(d)]
        )
    return QFactorization(Q=grid, shift=xstar)


def poly_det(grid) -> MultiPoly:
    """Determinant of a square grid of polynomials; see laplace_expansion."""
    one = MultiPoly.constant(grid[0][0].nvars, 1.0)
    return laplace_expansion(grid, MultiPoly.__mul__, one, {})


def lagrange_interpolant(qf: QFactorization) -> MultiPoly:
    """det(Q): vanishes at every root except the factorization's shift, where it is det J(x*).

    verification.interpolant_suite checks the minor expansion this extends
    to when the system carries remainders r_i (x_i - x_i*) on the diagonal.
    """
    return poly_det(qf.Q)


# ---------------------------------------------------------------------------
# normal forms over a quotient basis


def _full_block_positions(n_rows: int, d: int) -> Mapping:
    deg = 0
    while math.comb(deg + d, d) < n_rows:
        deg += 1
    if math.comb(deg + d, d) != n_rows:
        raise ValueError(f"{n_rows} rows is not a full monomial block in {d} variables")
    return monomial_positions(deg, d)


def normal_form(
    f: MultiPoly,
    basis: list,
    N: np.ndarray,
    row_monomials: list | None = None,
) -> np.ndarray:
    """Coefficients of f's residue class over the quotient basis.

    N is a null-space matrix of the Macaulay matrix whose rows follow
    ``row_monomials`` (inferred as the full monomial block when omitted,
    which reads the shared grlex index instead of building one).
    The vector c solves N_B^T c = N^T f, matching the values every null
    space functional takes on f and on its basis representation.
    """
    if row_monomials is None:
        index = _full_block_positions(N.shape[0], f.nvars)
    else:
        index = {m: k for k, m in enumerate(row_monomials)}
    fvec = np.zeros(len(index), dtype=complex)
    for m, c in f.terms.items():
        if m not in index:
            raise ValueError(f"monomial {m} exceeds the matrix degree")
        fvec[index[m]] = c
    try:
        b_idx = [index[m] for m in basis]
    except KeyError as e:
        raise ValueError(f"basis monomial {e} not among row monomials") from e
    NB = N[b_idx, :]
    if np.linalg.cond(NB) > 1e12:
        raise BasisSingular("basis rows of the null space are numerically singular")
    return np.linalg.solve(NB.T, N.T @ fvec)


def monomial_eval(m, x) -> complex:
    x = np.asarray(x, dtype=complex)
    v = 1.0 + 0j
    for xi, e in zip(x, m):
        if e:
            v *= xi**e
    return complex(v)


def basis_values(basis: list, x) -> np.ndarray:
    return np.array([monomial_eval(m, x) for m in basis])


def _det_q_in_basis(s: PolySystem, xstar, basis: list, N: np.ndarray) -> np.ndarray:
    # N's rows follow the Macaulay columns, the full monomial block, so
    # normal_form infers its row monomials.
    return normal_form(poly_det(q_factorization(s, xstar).Q), basis, N)


def kappa_eig_ms_formula(
    s: PolySystem,
    xstar,
    basis: list,
    i: int,
    N: np.ndarray,
) -> float:
    """Eigenvalue condition number of the multiplication-matrix eigenproblem.

    ||[det Q]_B||_2 * ||B(x*)||_2 / |det J(x*)| * (1 + |x_i*|), where
    [det Q]_B is the normal form of det Q over the basis and B(x*) the basis
    monomials evaluated at the root. N is the null space of the degree-rho
    Macaulay matrix that the basis was read from (build_ms_matrices).
    """
    xstar = np.asarray(xstar, dtype=complex)
    c = _det_q_in_basis(s, xstar, basis, N)
    detJ = abs(np.linalg.det(jacobian(s, xstar)))
    if detJ == 0.0:
        raise SingularJacobian(f"Jacobian singular at {xstar}")
    return (
        float(np.linalg.norm(c))
        * float(np.linalg.norm(basis_values(basis, xstar)))
        / detJ
        * (1.0 + abs(xstar[i]))
    )


def kappa_eig_macaulay_bound(
    s: PolySystem,
    xstar,
    basis: list,
    h: MultiPoly,
    col_labels: list,
    N: np.ndarray,
) -> float:
    """Lower bound on the Macaulay pencil eigenvalue condition number.

    ||[det Q]_B||_2 * ||V(x*)||_2 / |det J(x*) * h(x*)| with V the full
    column-label monomial vector and h the linear polynomial whose multiples
    populate the lambda side of the pencil. N is the null space the pencil's
    basis was read from (``pencil.basis.nullspace``).
    """
    xstar = np.asarray(xstar, dtype=complex)
    c = _det_q_in_basis(s, xstar, basis, N)
    detJ = abs(np.linalg.det(jacobian(s, xstar)))
    hval = abs(h.eval(xstar))
    if detJ == 0.0 or hval == 0.0:
        raise SingularJacobian("det(J) * h vanishes at the root")
    V = basis_values(col_labels, xstar)
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
