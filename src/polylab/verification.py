"""Self-contained numerical audits of the identities the solvers rely on.

Each suite checks one mathematical claim with an independent computation:
closed-form product evaluations, finite differences, perturbation theory,
interpolation, and cross-method agreement. The suites return structured
results so the command line can print one pass/fail record per claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conditioning import (
    b0_matrix,
    lagrange_interpolant,
    mep_operator,
    mep_root_vectors,
    mep_row_scaling,
    q_factorization,
)
from .families import FamilySpec, generate
from .macaulay import macaulay_hat
from .numkernel import null_space, sigma_min
from .polycore import MultiPoly, PolySystem, jacobian, monomials_up_to
from .solvers import METHODS, MultiParamEig, hausdorff_distance, mep_from_system, solve


# lemmaA1 checks dimensions 2..SUBSET_DMAX with SUBSET_DRAWS sphere draws
# each; appendixD perturbs each case PERTURBATION_TRIALS times by a
# rank-one matrix of spectral norm PERTURBATION_EPS.
SUBSET_DMAX = 6
SUBSET_DRAWS = 10000
PERTURBATION_TRIALS = 50
PERTURBATION_EPS = 1e-8


@dataclass
class VerificationResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "details": self.details}


# ---------------------------------------------------------------------------
# subset-sum product: closed form and maximum over the unit ball


def _subset_sum_log_product(u: np.ndarray) -> float:
    """log of |prod over nonempty subsets S of sum_{i in S} u_i|, -inf if zero."""
    d = u.size
    masks = np.arange(1, 2**d, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(d)[None, :]) & 1
    sums = bits.astype(float) @ u
    if np.any(sums == 0.0):
        return -math.inf
    return float(np.sum(np.log(np.abs(sums))))


def subset_product_suite(seed: int = 1) -> VerificationResult:
    """The subset-sum product that controls the separating-form derivative.

    At u0 = (1/sqrt(d), ..., 1/sqrt(d)) the product over nonempty subsets of
    sum_{i in S} u_i equals prod_m (m/sqrt(d))^binom(d, m), and u0 maximizes
    the product magnitude over the unit ball: no Monte Carlo draw from the
    sphere may exceed the value at u0.
    """
    rng = np.random.default_rng(seed)
    worst_identity = 0.0
    max_excess = -math.inf
    for d in range(2, SUBSET_DMAX + 1):
        u0 = np.full(d, 1.0 / math.sqrt(d))
        direct = _subset_sum_log_product(u0)
        closed = sum(math.comb(d, m) * math.log(m / math.sqrt(d)) for m in range(1, d + 1))
        worst_identity = max(worst_identity, abs(direct - closed))
        V = rng.standard_normal((SUBSET_DRAWS, d))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        masks = np.arange(1, 2**d, dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(d)[None, :]) & 1).astype(float)
        sums = V @ bits.T
        with np.errstate(divide="ignore"):
            logs = np.where(sums == 0.0, -math.inf, np.log(np.abs(sums)))
        max_excess = max(max_excess, float(np.max(logs.sum(axis=1)) - closed))
    passed = worst_identity < 1e-9 and max_excess <= 1e-9
    return VerificationResult(
        name="lemmaA1",
        passed=bool(passed),
        details={
            "max_log_identity_error": worst_identity,
            "max_log_excess_over_u0": max_excess,
            "draws": SUBSET_DRAWS,
        },
    )


# ---------------------------------------------------------------------------
# scaled singular vectors vs the Jacobian, and the derivative check


def _folded_derivative(f, h1: float = 1e-4, h2: float = 1e-5) -> float:
    """Derivative magnitude of a function with a |t|-type kink at 0.

    Folds the central difference so both branches add, then removes the
    O(h) error with a linear extrapolation step.
    """

    def quotient(h):
        return (f(h) + f(-h) - 2.0 * f(0.0)) / (2.0 * h)

    q1, q2 = quotient(h1), quotient(h2)
    return (h1 * q2 - h2 * q1) / (h1 - h2)


def _random_rooted_mep(d: int, n: int, rng: np.random.Generator):
    """A random MEP together with a point x* where every W_i(x*) is singular."""
    xstar = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    Ws = []
    for _ in range(d):
        Vj = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(d)]
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        singular = np.outer(a, b)
        V0 = singular + sum(xstar[j] * Vj[j] for j in range(d))
        Ws.append(tuple([V0] + Vj))
    return MultiParamEig(d=d, W=Ws), xstar


def row_scaling_suite(seed: int = 1) -> VerificationResult:
    """Two consequences of the rank-drop structure of W_i at a root.

    First, scaling each row of the singular-vector matrix B_0 by the product
    of the nonzero singular values of W_i(x*) reproduces the Jacobian.
    Second, the smallest singular value of W_i grows away from the root at
    rate |u^T V_ij v| in coordinate j, checked by folded finite differences.
    """
    worst_jac = 0.0
    worst_fd = 0.0
    cases = []
    for fspec in (
        FamilySpec(family="orthogonal", d=2, sigma=0.1, seed=seed),
        FamilySpec(family="orthogonal", d=3, sigma=0.01, seed=seed),
        FamilySpec(family="permutation", d=3, sigma=0.05, seed=seed),
    ):
        s = generate(fspec)
        mep = mep_from_system(s)
        x0 = np.zeros(s.d, dtype=complex)
        cases.append((mep, x0, jacobian(s, x0)))
    rng = np.random.default_rng(seed)
    mep, xstar = _random_rooted_mep(2, 2, rng)
    cases.append((mep, xstar, None))
    for mep, x0, J in cases:
        vecs = mep_root_vectors(mep, x0)
        B0 = b0_matrix(mep, x0, vecs)
        if J is not None:
            D = mep_row_scaling(mep, x0)
            worst_jac = max(
                worst_jac,
                float(np.linalg.norm(D @ B0 - J, 2) / np.linalg.norm(J, 2)),
            )
        for i in range(mep.d):
            for j in range(mep.d):

                def smin(h, i=i, j=j):
                    x = np.asarray(x0, dtype=complex).copy()
                    x[j] += h
                    return sigma_min(mep_operator(mep.W[i], x))

                fd = _folded_derivative(smin)
                ref = abs(B0[i, j])
                if ref < 1e-8:
                    worst_fd = max(worst_fd, abs(fd))
                else:
                    worst_fd = max(worst_fd, abs(fd - ref) / ref)
    scalar = MultiParamEig(d=1, W=[(np.array([[1.5]]), np.array([[0.5]]))])
    fd = _folded_derivative(
        lambda h: sigma_min(mep_operator(scalar.W[0], np.array([3.0 + h])))
    )
    worst_fd = max(worst_fd, abs(fd - 0.5) / 0.5)
    passed = worst_jac < 1e-8 and worst_fd < 1e-5
    return VerificationResult(
        name="prop51",
        passed=bool(passed),
        details={"max_jacobian_error": worst_jac, "max_derivative_error": worst_fd},
    )


# ---------------------------------------------------------------------------
# null space perturbation sensitivity


def _principal_angle_gap(N1: np.ndarray, N2: np.ndarray) -> float:
    """sin of the largest principal angle between two orthonormal column spans."""
    c = np.linalg.svd(N1.conj().T @ N2, compute_uv=False)
    cmin = min(1.0, float(c[-1]))
    return math.sqrt(max(0.0, 1.0 - cmin * cmin))


def nullspace_perturbation_suite(seed: int = 1) -> VerificationResult:
    """Perturbing a matrix by eps rotates its null space by about
    eps / sigma_r, where sigma_r is the smallest nonzero singular value.

    The first-order rotation rate eps / sigma_r is attained by perturbations
    that couple the least nonzero singular direction to the null space, so
    the measured draws are random rank-one perturbations of that shape
    (random null-space direction, random phase) with spectral norm eps;
    isotropic draws only dilute the coupling by a dimension-dependent
    factor. Checks per draw that the gap stays below 2 eps / sigma_r and
    that the median sits within a factor of two of eps / sigma_r; a few
    isotropic partial-isometry draws check the upper bound alone. Cases: a
    diagonal model, a random rectangular matrix, and the degree-3
    multiplication-structure matrix of the ill-conditioned bivariate family.
    """
    eps = PERTURBATION_EPS
    rng = np.random.default_rng(seed)
    base_sets = []
    M1 = np.diag([1.0, 1e-3, 0.0]).astype(complex)
    base_sets.append(("diag", M1, 1))
    U = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    V = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
    svals = np.array([2.0, 1.0, 0.5, 0.01, 0.0])
    base_sets.append(("random", U[:, :5] @ np.diag(svals) @ V.conj().T, 1))
    s_ill = generate(FamilySpec(family="notdev2d", d=2, sigma=1e-2, seed=seed))
    mhat = macaulay_hat(s_ill)
    base_sets.append(("mhat", mhat.mat, mhat.bezout))
    all_ok = True
    medians = {}
    for label, M, r in base_sets:
        Um, sv, _ = np.linalg.svd(M)
        rank = M.shape[1] - r
        sig_r = float(sv[rank - 1])
        u_min = Um[:, rank - 1]
        if eps > 1e-4 * sig_r:
            all_ok = False
        N1 = null_space(M, r)
        ratios = []
        for _ in range(PERTURBATION_TRIALS):
            w = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            v = N1 @ (w / np.linalg.norm(w))
            E = eps * np.outer(u_min, v.conj())
            N2 = null_space(M + E, r)
            gap = _principal_angle_gap(N1, N2)
            ratios.append(gap / (eps / sig_r))
            if gap > 2.0 * eps / sig_r:
                all_ok = False
        for _ in range(5):
            G = rng.standard_normal(M.shape) + 1j * rng.standard_normal(M.shape)
            Ug, _, Vhg = np.linalg.svd(G, full_matrices=False)
            E = eps * (Ug @ Vhg)
            gap = _principal_angle_gap(N1, null_space(M + E, r))
            if gap > 2.0 * eps / sig_r:
                all_ok = False
        med = float(np.median(ratios))
        medians[label] = med
        if not (0.5 <= med <= 2.0):
            all_ok = False
    return VerificationResult(
        name="appendixD",
        passed=bool(all_ok),
        details={"median_ratios": medians, "eps": eps, "trials": PERTURBATION_TRIALS},
    )


# ---------------------------------------------------------------------------
# factored-Jacobian interpolant


def _prescribed_root_system(points: list, rng: np.random.Generator) -> PolySystem:
    """Two bivariate quadratics vanishing at four prescribed points.

    The quadratics span the 2-dimensional null space of the 4 x 6
    evaluation matrix over the monomials up to degree 2.
    """
    monos = monomials_up_to(2, 2)
    V = np.array([[complex(x) ** m[0] * complex(y) ** m[1] for m in monos] for x, y in points])
    N = null_space(V, 2)
    mix = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    C = N @ mix
    polys = []
    for k in range(2):
        terms = {m: C[idx, k] for idx, m in enumerate(monos)}
        polys.append(MultiPoly(nvars=2, terms=terms))
    return PolySystem(d=2, polys=polys, true_roots=[tuple(map(complex, pt)) for pt in points])


def interpolant_suite(seed: int = 1) -> VerificationResult:
    """Two claims about the factored form p_i = sum_j Q_ij (x_j - x*_j).

    First, the minor expansion over index subsets evaluates to
    det(Q + diag(r)) for random matrices. Second, for systems with four
    prescribed roots, the factorization at each root reproduces the exact
    Jacobian there, and the determinant interpolant evaluates to det(J).
    """
    rng = np.random.default_rng(seed)
    worst_expansion = 0.0
    for _ in range(40):
        d = int(rng.integers(2, 5))
        Q = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        r = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        total = 0j
        for mask in range(2**d):
            keep = [k for k in range(d) if not mask & (1 << k)]
            dropped = [k for k in range(d) if mask & (1 << k)]
            det = np.linalg.det(Q[np.ix_(keep, keep)]) if keep else 1.0
            for k in dropped:
                det = det * r[k]
            total += det
        ref = np.linalg.det(Q + np.diag(r))
        worst_expansion = max(worst_expansion, abs(total - ref) / max(1.0, abs(ref)))
    worst_jac = 0.0
    worst_det = 0.0
    for _ in range(5):
        pts = rng.standard_normal((4, 2)) * 0.8
        s = _prescribed_root_system([tuple(p) for p in pts], rng)
        for root in s.true_roots:
            x = np.array(root, dtype=complex)
            qf = q_factorization(s, x)
            J = jacobian(s, x)
            Qx = np.array([[qf.Q[i][j].eval(x) for j in range(2)] for i in range(2)])
            worst_jac = max(worst_jac, np.max(np.abs(Qx - J)) / max(1.0, np.max(np.abs(J))))
            q = lagrange_interpolant(qf)
            detJ = np.linalg.det(J)
            worst_det = max(worst_det, abs(q.eval(x) - detJ) / max(1.0, abs(detJ)))
    passed = worst_expansion < 1e-10 and worst_jac < 1e-8 and worst_det < 1e-8
    return VerificationResult(
        name="interpolant",
        passed=bool(passed),
        details={
            "minor_expansion_error": worst_expansion,
            "jacobian_reconstruction_error": worst_jac,
            "determinant_value_error": worst_det,
        },
    )


# ---------------------------------------------------------------------------
# cross-method agreement


def crossmethod_suite(seed: int = 1) -> VerificationResult:
    """All solvers applicable to a family return the same root set, and it
    matches the closed-form roots, within Hausdorff distance 1e-6.
    """
    details = {}
    passed = True
    rng = np.random.default_rng(seed)
    s_cyc = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5, seed=seed))
    truth = [np.array(r) for r in s_cyc.true_roots]
    for tag in METHODS:
        rep = solve(s_cyc, tag, rng=np.random.default_rng(seed))
        dist = hausdorff_distance(rep.roots, truth)
        details[f"cyclic_{tag}_vs_truth"] = dist
        if dist > 1e-6:
            passed = False
    s_hyp = generate(FamilySpec(family="hypercube", d=2, c=2.0, seed=seed), rng=rng)
    truth = [np.array(r) for r in s_hyp.true_roots]
    for tag in ("nf", "macaulay"):
        dist = hausdorff_distance(solve(s_hyp, tag, rng=np.random.default_rng(seed)).roots, truth)
        details[f"hypercube_{tag}_vs_truth"] = dist
        if dist > 1e-6:
            passed = False
    shift = (0.3, -0.2)
    s_shift = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5, seed=seed, shift=shift))
    truth = [np.array(r) for r in s_shift.true_roots]
    dist = hausdorff_distance(solve(s_shift, "nf").roots, truth)
    details["shifted_nf_vs_truth"] = dist
    if dist > 1e-6:
        passed = False
    return VerificationResult(name="crossmethod", passed=bool(passed), details=details)


SUITES = {
    "lemmaA1": subset_product_suite,
    "prop51": row_scaling_suite,
    "appendixD": nullspace_perturbation_suite,
    "interpolant": interpolant_suite,
    "crossmethod": crossmethod_suite,
}


def run_all(seed: int = 1, names: tuple | None = None) -> list:
    selected = names if names is not None else tuple(SUITES)
    return [SUITES[name](seed=seed) for name in selected]
