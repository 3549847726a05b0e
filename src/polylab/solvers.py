"""End-to-end rootfinders built on eigenvalue reductions.

Five solvers: multiplication-matrix normal form, Macaulay resultant pencil,
multiparameter eigenproblem via operator determinants, and two closed-form
univariate reductions (cyclic elimination and the rational univariate
representation on the hypercube family). Every solver returns a RootReport
carrying roots, residuals, and condition diagnostics; solve(s, method) runs
one of the three multivariate solvers by name. The multivariate solvers
compute the residuals at solve time and the two condition numbers,
kappa_root and subproblem_kappa, when they are first read, so a caller that
reads only the roots pays for neither.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import conditioning
from .conditioning import kappa_eig, kappa_uni
from .macaulay import MacaulayIndex, NullityMismatch, macaulay_pencil, quotient_basis
# Bound here though unused: perfbench's tracer patches solvers.macaulay_hat.
from .macaulay import macaulay_hat  # noqa: F401
from .numkernel import (
    GenEigProblem,
    _bilinear,
    _cofactor_plan,
    _dots,
    _expand,
    _magnitude,
    _row_norms,
    _sign_patterns,
    companion_roots,
    generalized_eig,
    random_unit_vector,
)
from .polycore import SUPPORT_CACHE_SIZE, MultiPoly, PolySystem

# Newton steps per root when a solver is asked to polish.
NEWTON_STEPS = 2

# Largest dimension solve_rur_example accepts: its polynomial has 2^d roots.
RUR_MAX_D = 10


class SingularDelta0(Exception):
    """The operator determinant Delta_0 is numerically singular."""


class EigenvectorDegenerate(Exception):
    """An eigenvector is too degenerate to read a root from."""


class UnsupportedShape(Exception):
    """Polynomial does not fit the required structural template."""


@dataclass(frozen=True)
class MultiParamEig:
    """Multiparameter eigenproblem W_i(x) v_i = 0, i = 1..d.

    W[i] is the tuple (V_i0, V_i1, ..., V_id) encoding
    W_i(x) = V_i0 - sum_j x_j V_ij with square blocks of size n_i.
    """

    d: int
    W: list

    def __post_init__(self):
        if len(self.W) != self.d:
            raise ValueError("need one operator pencil per variable")
        Ws = []
        for i, tup in enumerate(self.W):
            if len(tup) != self.d + 1:
                raise ValueError("each W_i needs d+1 coefficient matrices")
            mats = tuple(np.asarray(M, dtype=complex) for M in tup)
            n = mats[0].shape[0]
            for M in mats:
                if M.shape != (n, n):
                    raise ValueError(f"W_{i} blocks must all be {n} x {n}")
            Ws.append(mats)
        object.__setattr__(self, "W", Ws)


class _OnFirstRead:
    """A field given as its value or as a function of no arguments, which runs on the first read only."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, report, owner=None):
        if report is None:
            # No class-level value, so the dataclass field keeps no default.
            raise AttributeError(self.slot[1:])
        value = report.__dict__[self.slot]
        if callable(value):
            value = report.__dict__[self.slot] = value()
        return value

    def __set__(self, report, value):
        report.__dict__[self.slot] = value


@dataclass
class RootReport:
    """Roots plus per-root residuals and condition diagnostics.

    ``kappa_root`` and ``subproblem_kappa`` each take a list or a function
    returning one; the function runs when the field is first read (a
    to_json_dict call reads both), and its list is kept.
    """

    roots: list
    residuals: list
    kappa_root: list = _OnFirstRead()
    subproblem_kappa: list = _OnFirstRead()
    method_tag: str
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Every field under its own name; a complex number becomes [re, im]."""
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def newton_polish(s: PolySystem, x) -> np.ndarray:
    """NEWTON_STEPS Newton steps on the system from x; one evaluation per step."""
    x = np.asarray(x, dtype=complex)
    for _ in range(NEWTON_STEPS):
        values, J = s.evaluate([x])
        try:
            x = x - np.linalg.solve(J[0], values[0])
        except np.linalg.LinAlgError:
            break
    return x


def _report(
    s: PolySystem, tag: str, roots: list, sub_kappa: list, polish: bool, diagnostics: dict
) -> RootReport:
    """The RootReport of the roots a solver read off its eigenpairs.

    Polishes each root when asked, then evaluates every root once, in one
    batch: the residuals are computed here, and kappa_root, one stacked SVD
    of the same Jacobians, on first read. A NaN in a Jacobian raises
    LinAlgError here, as that SVD would. ``sub_kappa`` (a list, or a
    function computing it on first read) belongs to the unpolished
    eigenvalues, and ``diagnostics`` gains ``"polished"``.
    """
    if polish:
        roots = [newton_polish(s, x) for x in roots]
    residuals, kappa_root = [], []
    if roots:
        values, J = s.evaluate(roots)
        if np.isnan(J).any():
            raise np.linalg.LinAlgError("a root's Jacobian has a NaN entry")
        residuals = np.linalg.norm(values, axis=1).tolist()

        def kappa_root():
            return conditioning.kappa_roots(J).tolist()

    diagnostics["polished"] = polish
    return RootReport(
        roots=roots,
        residuals=residuals,
        kappa_root=kappa_root,
        subproblem_kappa=sub_kappa,
        method_tag=tag,
        diagnostics=diagnostics,
    )


def _pencil_kappa(gep: GenEigProblem, kept) -> list:
    """kappa_eig of the pairs ``kept`` (an index array, or None for all) of a two-sided QZ of gep.

    The solvers read their roots off a right-only QZ of the same pencil,
    whose pairs are those of the two-sided one, bit for bit, so these are
    the kappas of the pairs the roots came from, in the same order.
    """
    pairs = generalized_eig(gep)
    return kappa_eig(gep, pairs if kept is None else pairs.take(kept)).tolist()


# ---------------------------------------------------------------------------
# normal form solver


def solve_normal_form(
    s: PolySystem,
    rng: np.random.Generator | None = None,
    polish: bool = False,
) -> RootReport:
    """Roots via eigenvectors of a random combination of multiplication matrices.

    The multiplication matrices M_{x_i} on the quotient come from the basis
    quotient_basis reads off the degree-rho Macaulay null space, all d of them
    from one LU of N_B^T (see BasisSelection.multiplication_matrices, which
    raises BasisSingular on ill-conditioned basis rows N_B). Their
    eigenvalues are the i-th coordinates of the roots, and they commute up
    to rounding. One driver matrix M_t with t = sum u_i x_i (random unit u)
    supplies the eigenvectors; every coordinate is then a Rayleigh quotient
    against M_{x_i}. The polish flag runs two Newton steps per root;
    benchmarks leave it off to expose the raw eigenproblem accuracy.
    """
    rng = rng if rng is not None else np.random.default_rng(1)
    sel = quotient_basis(s)
    mats = sel.multiplication_matrices()
    u = random_unit_vector(s.d, rng)
    Mt = sum(u[i] * mats[i] for i in range(s.d))
    gep = GenEigProblem(A=Mt, B=np.eye(len(sel.indices), dtype=complex))
    W = generalized_eig(gep, left=False).right
    Wc = W.conj()
    X = _bilinear(Wc, mats, W) / _dots(Wc, W)[:, None]
    roots = list(X)
    sub_kappa = functools.partial(_pencil_kappa, gep, None)
    diagnostics = {
        "basis": [list(m) for m in sel.monomials],
        "driver": u.tolist(),
        "sigma_min_hat": sel.sigma_min,
    }
    return _report(s, "nf", roots, sub_kappa, polish, diagnostics)


# ---------------------------------------------------------------------------
# Macaulay resultant solver


def _roots_from_vectors(V: np.ndarray, index: MacaulayIndex) -> np.ndarray:
    """Read coordinates off eigenvectors, the rows of V, indexed by the Macaulay columns.

    Each vector v is read at its largest-modulus entry m among the columns
    below the top degree (``index.candidates``, the first on a tie):
    x_i = v[x_i * m] / v[m]. The monomial vector of a root in the closed
    unit polydisc is largest at the constant monomial, column 0, so such
    a root reads x_i = v[1 + i] / v[0]; a root far from the origin is read
    at the entries that carry its digits. A vector that is zero on every
    candidate column raises EigenvectorDegenerate.
    """
    rows = np.arange(len(V))
    # |v|^2 ranks the entries as |v| does, up to rounding, at a tenth of
    # hypot's cost.
    C = V[:, index.candidates]
    mag2 = C.real * C.real + C.imag * C.imag
    best = np.argmax(mag2, axis=1)
    if (mag2[rows, best] == 0.0).any():
        raise EigenvectorDegenerate("eigenvector is zero below the top degree")
    m = index.candidates[best]
    return V[rows[:, None], index.up[:, m].T] / V[rows, m][:, None]


def solve_macaulay_resultant(
    s: PolySystem,
    rng: np.random.Generator | None = None,
    polish: bool = False,
) -> RootReport:
    """Roots from the eigenvectors of the h-augmented Macaulay pencil.

    macaulay_pencil builds the pencil; a rectangular one arrives compressed
    to the null space Z of the polynomial block, and Z maps its eigenvectors
    back to the Macaulay columns. The Bezout count r decides which QZ pairs
    are the roots. A pencil with more than r pairs (the square one) keeps
    the r with the largest beta ratio, in that order, and the next one must
    sit six orders below them: its infinite eigenvalues lie in Jordan
    blocks, where QZ leaves |beta| up to about 2e-6 ||B||_F, so no cutoff on
    |beta| alone picks the finite set. A missing gap, or a kept pair that is
    infinite, is a NullityMismatch. A pencil with exactly r pairs keeps QZ
    order. Each kept eigenvector v is read at its largest-modulus entry m
    below the top degree, x_i = v[x_i * m] / v[m] (see
    _roots_from_vectors).
    """
    rng = rng if rng is not None else np.random.default_rng(1)
    pencil = macaulay_pencil(s, rng)
    r = len(pencil.basis.indices)
    gep = pencil.gep
    pairs = generalized_eig(gep, left=False)
    kept = None
    if len(pairs) > r:
        order = np.argsort(-pairs.beta_ratio, kind="stable")
        ratio = pairs.beta_ratio[order]
        if ratio[r] > 1e-6 * ratio[r - 1]:
            raise NullityMismatch(f"no beta-ratio gap after the largest {r} of {len(pairs)} eigenvalues")
        kept = order[:r]
        pairs = pairs.take(kept)
    infinite = np.count_nonzero(pairs.infinite)
    if infinite:
        raise NullityMismatch(f"{infinite} of the {r} kept eigenvalues are infinite")
    if pencil.Z is None:
        V = pairs.right
    else:
        # One gemv per vector, as pencil.Z @ v makes it.
        V = np.matmul(pencil.Z, pairs.right[:, :, None])[:, :, 0]
    roots = list(_roots_from_vectors(V, pencil.basis.index))
    sub_kappa = functools.partial(_pencil_kappa, gep, kept)
    diagnostics = {
        "kept_h_monomials": [list(m) for m in pencil.basis.monomials],
        "alpha": pencil.alpha,
        "beta": pencil.beta,
        "sigma_min_hat": pencil.basis.sigma_min,
        "eigenvalues": pairs.lam.tolist(),
        "square": pencil.Z is None,
    }
    return _report(s, "macaulay", roots, sub_kappa, polish, diagnostics)


# ---------------------------------------------------------------------------
# multiparameter eigenproblem solver


def _quadratic_representation(p: MultiPoly) -> tuple:
    """2x2 linear matrix polynomial whose determinant reproduces p.

    Requires p = a * x_i^2 + (affine part): exactly one degree-2 term and it
    must be a single squared variable. Returns (V_0, V_1, ..., V_d) in the
    W(x) = V_0 - sum_j x_j V_j convention, with
    W(x) = [[a x_i, affine(x)], [-1, x_i]], whose determinant is
    a x_i^2 + affine(x) for every x.
    """
    d = p.nvars
    square_var = None
    a = None
    gamma = 0j
    ell = np.zeros(d, dtype=complex)
    for m, c in p.terms.items():
        deg = sum(m)
        if deg > 2:
            raise UnsupportedShape(f"term of degree {deg} present")
        if deg == 2:
            if max(m) != 2:
                raise UnsupportedShape("mixed quadratic term present")
            if square_var is not None:
                raise UnsupportedShape("more than one squared variable")
            square_var = m.index(2)
            a = c
        elif deg == 1:
            ell[m.index(1)] = c
        else:
            gamma = c
    if square_var is None:
        raise UnsupportedShape("no squared variable to pivot on")
    i = square_var
    V0 = np.array([[0.0, gamma], [-1.0, 0.0]], dtype=complex)
    Vs = [V0]
    for j in range(d):
        Vj = np.zeros((2, 2), dtype=complex)
        Vj[0, 1] = -ell[j]
        if j == i:
            Vj[0, 0] = -a
            Vj[1, 1] = -1.0
        Vs.append(Vj)
    return tuple(Vs)


def mep_from_system(s: PolySystem) -> MultiParamEig:
    """Representation of each polynomial, for systems of pivotable quadratics."""
    return MultiParamEig(d=s.d, W=[_quadratic_representation(p) for p in s.polys])


@functools.lru_cache(maxsize=SUPPORT_CACHE_SIZE)
def _delta_plans(sizes: tuple, nonzero: bytes) -> tuple:
    """Cofactor plans of Delta_0..Delta_d for blocks of ``sizes`` whose nonzero entries ``nonzero`` flags.

    Entry (a, b) of a block of W_i is the monomial x_{2i}^a x_{2i+1}^b, so
    a product of one entry per row names its Kronecker row and column in
    the mixed radix of ``sizes``. Each plan reads the nonzero entries
    straight from operator_determinants' flat layout and puts Delta_k in
    row-major order; numkernel._cofactor_plan's own cache is left to det Q.
    """
    d, n = len(sizes), math.prod(sizes)
    strides = [math.prod(sizes[i + 1 :]) for i in range(d)]
    weights = np.array([w for s in strides for w in (s * n, s)])  # exponents -> row-major position
    nonzero, blocks, at = np.frombuffer(nonzero, dtype=bool), [], 0
    for i, m in enumerate(sizes):
        cells = [(0,) * 2 * i + c + (0,) * 2 * (d - i - 1) for c in itertools.product(range(m), repeat=2)]
        starts = range(at, at + (d + 1) * m * m, m * m)
        blocks.append([[(c, p) for p, c in enumerate(cells, start) if nonzero[p]] for start in starts])
        at += (d + 1) * m * m
    plans = []
    for k in range(d + 1):
        grid = [[W_i[0 if j == k else j] for j in range(1, d + 1)] for W_i in blocks]
        supports = tuple(tuple(tuple(c for c, _ in entry) for entry in row) for row in grid)
        exponents, levels = _cofactor_plan.__wrapped__(2 * d, supports)
        gather = np.array([p for row in grid for entry in row for _, p in entry], dtype=np.intp)
        *plan, (take, minor, sign, put, _) = levels
        plan.append((take, minor, sign, (exponents @ weights)[put], n * n))
        plans.append(tuple((gather[t], *rest) for t, *rest in plan))
        for a in (a for level in plans[-1] for a in level[:4]):
            a.setflags(write=False)
    return tuple(plans)


def operator_determinants(mep: MultiParamEig) -> list:
    """[Delta_0, Delta_1, ..., Delta_d] block operator determinants.

    Delta_0 uses the coefficient blocks V_ij; Delta_k swaps column k for the
    constant blocks V_i0. Each is one cofactor plan over the blocks' nonzero
    entries, compiled once per block sizes and nonzero pattern.
    """
    sizes = tuple(len(W_i[0]) for W_i in mep.W)
    flat = np.concatenate([np.ravel(W_i) for W_i in mep.W])
    n = math.prod(sizes)
    return [_expand(levels, flat).reshape(n, n) for levels in _delta_plans(sizes, (flat != 0).tobytes())]


def solve_mep_operator_determinants(s: PolySystem, polish: bool = False) -> RootReport:
    """Roots via the generalized eigenproblems (Delta_k, Delta_0) of mep_from_system(s).

    The pencil (Delta_1, Delta_0) supplies shared left/right eigenvectors;
    every coordinate is then the Rayleigh quotient
    (y^T Delta_k w) / (y^T Delta_0 w), which keeps coordinates of one root
    matched together. UnsupportedShape when s is not a system of
    pivotable quadratics, and LinAlgError when a Delta_k overflows.
    """
    mep = mep_from_system(s)
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = np.array(operator_determinants(mep))
    overflow = ~np.isfinite(deltas).all(axis=(1, 2))
    if overflow.any():
        raise np.linalg.LinAlgError(f"Delta_{int(np.argmax(overflow))} is not finite")
    D0 = deltas[0]
    sv = np.linalg.svd(D0, compute_uv=False)
    if sv[0] == 0 or sv[-1] <= max(D0.shape) * np.finfo(float).eps * sv[0]:
        raise SingularDelta0("Delta_0 numerically singular")
    pairs = generalized_eig(GenEigProblem(A=deltas[1], B=D0))
    finite = ~pairs.infinite
    Q = _bilinear(pairs.left[finite], deltas, pairs.right[finite])
    denom = _magnitude(Q[:, 0])
    if (denom == 0.0).any():
        raise EigenvectorDegenerate("y^T Delta_0 w = 0")
    X = Q[:, 1:] / Q[:, :1]
    per_coord = (1.0 + _magnitude(X)) / denom[:, None]
    roots = list(X)
    kappa_vectors = per_coord.tolist()
    sub_kappa = per_coord.max(axis=1).tolist()
    diagnostics = {"delta_dim": int(D0.shape[0]), "kappa_per_coordinate": kappa_vectors}
    return _report(s, "mep", roots, sub_kappa, polish, diagnostics)


# ---------------------------------------------------------------------------
# one entry point for the multivariate solvers

METHODS = ("nf", "macaulay", "mep")


def solve(
    s: PolySystem,
    method: str,
    rng: np.random.Generator | None = None,
    polish: bool = False,
) -> RootReport:
    """All roots of s by one of METHODS; the only place a method name picks a solver.

    rng feeds the random driver (nf) or pencil divisors (macaulay) and is
    not read by mep. The solvers are called by their module names, so
    anything that rebinds them here (a tracer, a test double) sees the call.
    """
    if method == "nf":
        return solve_normal_form(s, rng=rng, polish=polish)
    if method == "macaulay":
        return solve_macaulay_resultant(s, rng=rng, polish=polish)
    if method == "mep":
        return solve_mep_operator_determinants(s, polish=polish)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


# ---------------------------------------------------------------------------
# closed-form univariate reductions


def _univariate_report(
    coeffs, target: complex, kappa_root: float, k_uni: float, tag: str, diagnostics: dict
) -> RootReport:
    """The RootReport of a univariate reduction: the companion root of ``coeffs`` nearest ``target``.

    ``diagnostics`` gains that root's ``error`` |x - target| and ``all_roots``.
    """
    roots = companion_roots(coeffs)
    xhat = complex(roots[int(np.argmin(np.abs(roots - target)))])
    return RootReport(
        roots=[np.array([xhat])],
        residuals=[abs(complex(npoly.polyval(xhat, coeffs)))],
        kappa_root=[kappa_root],
        subproblem_kappa=[k_uni],
        method_tag=tag,
        diagnostics={**diagnostics, "error": abs(xhat - target), "all_roots": roots},
    )


def solve_gb_elimination_example(d: int, sigma: float, shift: complex = 0.0) -> tuple:
    """Eliminate the cyclic-squares system down to one coordinate and solve.

    The system is cyclic, so every coordinate has the same elimination
    ideal, generated by
    g(x) = (x - shift)^(2^d) - sigma^(2^d - 1) (x - shift); g is built in
    closed form, solved through the companion matrix, and the estimate
    nearest the designated coordinate value is reported. Returns g's
    ascending coefficients and the report.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    n = 2**d
    sig_pow = float(sigma) ** (n - 1)
    underflow = sig_pow == 0.0
    if math.isinf(sig_pow):
        raise OverflowError("sigma^(2^d - 1) overflows")
    base = np.array([-complex(shift), 1.0], dtype=complex)  # x - shift
    g = npoly.polysub(npoly.polypow(base, n), sig_pow * base)
    if underflow:
        warnings.warn("sigma^(2^d - 1) underflowed to zero", RuntimeWarning, stacklevel=2)
    k_uni = math.inf if underflow else 1.0 / sig_pow  # |g'(shift)| = sigma^(2^d - 1)
    return g, _univariate_report(g, complex(shift), 1.0 / sigma, k_uni, "gb", {"underflow": underflow})


def solve_rur_example(d: int, c: float, u, shift=None) -> tuple:
    """Rational univariate reduction for the hypercube family.

    The separating form t(x) = u . x takes the value
    (1/(c sqrt(d))) sum_i (+-u_i) at each sign-pattern root; f is the monic
    polynomial with those 2^d values as roots. Warns when u fails to
    separate the roots. Returns f's ascending coefficients and the report.
    """
    if d > RUR_MAX_D:
        raise ValueError(f"2^{d} roots exceeds the degree cap (d <= {RUR_MAX_D})")
    u = np.asarray(u, dtype=float)
    if u.shape != (d,):
        raise ValueError("u must have length d")
    if u @ u > 1.0 + 1e-12:
        raise ValueError("u must lie in the unit ball")
    offset = 0j
    if shift is not None:
        shift = np.asarray(shift, dtype=complex)
        offset = complex(u @ shift)
    a = 1.0 / (c * math.sqrt(d))
    # One dot per pattern: a matrix-vector product may round the sums differently.
    tvals = np.array([a * float(signs @ u) + offset for signs in _sign_patterns(d)], dtype=complex)
    tstar = a * float(np.sum(u)) + offset
    # Two values collide when they are closer than a few roundings of the
    # largest one. The t-values scale like 1/c, so an absolute cutoff flags
    # forms that separate them well once c is large.
    nearest = np.min(
        np.abs(tvals[:, None] - tvals[None, :]) + np.diag(np.full(tvals.size, np.inf)), axis=1
    )
    tol = 4 * tvals.size * np.finfo(float).eps * float(np.max(np.abs(tvals)))
    collisions = int(np.count_nonzero(nearest <= tol))
    if collisions:
        warnings.warn(
            f"separating form has {collisions} colliding values", RuntimeWarning, stacklevel=2
        )
    f = npoly.polyfromroots(tvals)
    try:
        k_uni = kappa_uni(f, tstar)
    except conditioning.MultipleRoot:
        k_uni = math.inf
    diagnostics = {"t_values": tvals, "t_star": tstar, "collisions": collisions}
    return f, _univariate_report(f, tstar, c * math.sqrt(d) / 2.0, k_uni, "rur", diagnostics)


# ---------------------------------------------------------------------------
# set comparison helper


def hausdorff_distance(roots_a, roots_b) -> float:
    """Symmetric Hausdorff distance between two finite point sets in C^d; inf when one is empty."""
    if len(roots_a) == 0 or len(roots_b) == 0:
        return math.inf
    A, B = np.asarray(roots_a, dtype=complex), np.asarray(roots_b, dtype=complex)
    dist = _row_norms(A[:, None, :] - B[None, :, :])
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))
