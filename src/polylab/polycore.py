"""Sparse multivariate polynomial arithmetic.

Monomials are exponent tuples. A graded lexicographic order fixes the term
processing sequence everywhere, so evaluation and serialization are
reproducible run to run. Variable indices are 0-based throughout.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import types
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

# Exponent vector, one non-negative int per variable.
Monomial = tuple

# Coefficients below this magnitude are dropped on normalization to keep
# denormal noise out of matrix rows.
COEFF_FLOOR = 1e-300

# Entries kept by the structure caches: monomial blocks per (degree, d), and
# per support (each polynomial's terms in dict order, or a mep's block sizes
# and nonzero pattern) compiled layouts and Taylor-shift, cofactor and Delta
# plans. A sweep point's trials mostly share one support, so these hold its
# working set; the bounds keep a process that meets many from growing.
MONOMIAL_CACHE_SIZE = 64
SUPPORT_CACHE_SIZE = 256

# A point is accepted as a root of a system when its residual is at most
# ROOT_RESIDUAL_TOL * (1 + the system's coefficient scale).
ROOT_RESIDUAL_TOL = 1e-10


def monomial_degree(m: Monomial) -> int:
    return int(sum(m))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True)
class MonomialOrder:
    """Graded lexicographic order, the one term order used everywhere.

    Monomials compare by total degree first, then lexicographically on the
    exponent vector, earlier variables ranking higher. In two variables the
    ascending sequence starts 1, x, y, x^2, xy, y^2, x^3, ...
    """

    @staticmethod
    def key(m: Monomial):
        return (monomial_degree(m), tuple(-e for e in m))

    def sort(self, monomials) -> list:
        return sorted(monomials, key=self.key)


GRLEX = MonomialOrder()


def _exponents_up_to(deg: int, d: int) -> Iterator[Monomial]:
    if d == 0:
        yield ()
        return
    for e0 in range(deg + 1):
        for rest in _exponents_up_to(deg - e0, d - 1):
            yield (e0,) + rest


@functools.lru_cache(maxsize=MONOMIAL_CACHE_SIZE)
def monomial_positions(deg: int, d: int) -> Mapping:
    """Position of each monomial of total degree <= deg in d variables, in grlex order.

    Built once per (deg, d) and shared by every caller, so it is read-only;
    its keys iterate in ascending order.
    """
    if deg < 0:
        raise ValueError("deg must be >= 0")
    if d < 1:
        raise ValueError("d must be >= 1")
    monos = GRLEX.sort(_exponents_up_to(deg, d))
    return types.MappingProxyType({m: k for k, m in enumerate(monos)})


def monomials_up_to(deg: int, d: int) -> list:
    """All monomials of total degree <= deg in d variables, sorted ascending."""
    return list(monomial_positions(deg, d))


def _kahan_sum(values) -> complex:
    # Compensated summation; complex addition is componentwise so the
    # classic update carries over unchanged.
    s = 0j
    c = 0j
    for v in values:
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def _cpow(z: complex, n: int) -> complex:
    """z**n for n >= 0, rounded as numpy's complex scalar power rounds it.

    Follows numpy's branches: 1 for n = 0, 0 for z = 0, then z, z*z,
    z*(z*z), and binary powering from 1 for 4 <= n < 100. Python complex
    arithmetic multiplies the same way and raises no overflow warning.
    Beyond that range numpy calls the C library's cpow, and so does this.
    """
    if n == 0:
        return 1 + 0j
    if n >= 100:
        with np.errstate(all="ignore"):
            return complex(np.complex128(z) ** n)
    if z == 0:
        return 0j
    if n == 1:
        return z
    if n == 2:
        return z * z
    if n == 3:
        return z * (z * z)
    acc, p, bit = 1 + 0j, z, 1
    while True:
        if n & bit:
            acc = acc * p
        bit <<= 1
        if n < bit:
            return acc
        p = p * p


@functools.lru_cache(maxsize=SUPPORT_CACHE_SIZE)
def _shift_plan(support: tuple) -> tuple:
    """MultiPoly.translate's expansion for the monomials ``support``, in dict order.

    Returns (tops, plan, order): tops[i] is the highest exponent of x_i,
    and plan[t] lists, for term t, each monomial of prod_i (x_i + t_i)^{e_i}
    in the order a variable-by-variable expansion creates it (lexicographic
    in the kept exponents k_i) with its steps (i, C(e_i, k_i), e_i - k_i).
    A coefficient v takes each step as ``v = v * C * t_i**(e_i - k_i)``.
    ``order`` is ``support`` in the order the plan first creates each
    monomial: the keys of a translate by zero.

    The expansion also adds 0j to every partial coefficient and multiplies
    by C(e, e) = 1 and t_i**0 = 1 + 0j where k_i = e_i; the plan leaves
    those out. They can change only the sign of a zero real or imaginary
    part, which no finite product or sum carries into a nonzero part, and
    MultiPoly._of_terms adds 0j to every coefficient at the end. So the
    result is bit-equal.
    """
    d = len(support[0]) if support else 0
    tops = tuple(max((m[i] for m in support), default=0) for i in range(d))
    plan = []
    for m in support:
        expansion = []
        for key in itertools.product(*[range(e + 1) for e in m]):
            steps = tuple(
                (i, math.comb(e, k), e - k) for i, (e, k) in enumerate(zip(m, key)) if k < e
            )
            expansion.append((key, steps))
        plan.append(tuple(expansion))
    kept = set(support)
    order = tuple(m for m in dict.fromkeys(k for expansion in plan for k, _ in expansion) if m in kept)
    return tops, tuple(plan), order


@dataclass(frozen=True)
class MultiPoly:
    """Sparse polynomial in ``nvars`` complex variables.

    ``terms`` maps exponent tuples to nonzero complex coefficients. The
    mapping is normalized on construction, which rejects a non-finite
    coefficient, and must not be mutated afterwards.
    """

    nvars: int
    terms: Mapping

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("nvars must be >= 1")
        clean = {}
        for m, c in self.terms.items():
            m = tuple(int(e) for e in m)
            if len(m) != self.nvars:
                raise ValueError(f"monomial {m} has wrong length for nvars={self.nvars}")
            if any(e < 0 for e in m):
                raise ValueError(f"negative exponent in monomial {m}")
            c = complex(c)
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient {c} of monomial {m} is not finite")
            if abs(c) > COEFF_FLOOR:
                clean[m] = clean.get(m, 0j) + c
        clean = {m: c for m, c in clean.items() if abs(c) > COEFF_FLOOR}
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of_terms(cls, nvars: int, terms: Mapping) -> "MultiPoly":
        """The polynomial an arithmetic step on normalized operands produced.

        Its keys are already exponent tuples of length nvars, one per
        monomial, so of ``__post_init__`` only the COEFF_FLOOR filter and the
        0j + c accumulation are left to do.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(
            p, "terms", {m: 0j + complex(c) for m, c in terms.items() if abs(c) > COEFF_FLOOR}
        )
        return p

    # ---------------- constructors ----------------

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars, {})

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: complex(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        e = [0] * nvars
        e[i] = 1
        return MultiPoly(nvars, {tuple(e): 1.0 + 0j})

    # ---------------- basic queries ----------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; 0 for the zero polynomial by convention here."""
        if not self.terms:
            return 0
        return max(monomial_degree(m) for m in self.terms)

    def coefficient_scale(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(c) for c in self.terms.values())

    # ---------------- arithmetic ----------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = MultiPoly.constant(self.nvars, other)
        if other.nvars != self.nvars:
            raise ValueError("nvars mismatch")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0j) + c
        return MultiPoly._of_terms(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of_terms(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        if other.nvars != self.nvars:
            raise ValueError("nvars mismatch")
        terms: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = monomial_mul(ma, mb)
                terms[m] = terms.get(m, 0j) + ca * cb
        return MultiPoly._of_terms(self.nvars, terms)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        c = complex(c)
        return MultiPoly._of_terms(self.nvars, {m: c * v for m, v in self.terms.items()})

    # ---------------- calculus and evaluation ----------------

    def eval(self, x) -> complex:
        """Evaluate at a point, compensated summation in grlex term order.

        Each term is its coefficient times x_i**e_i for the variables with
        e_i > 0, in ascending i. CompiledPolys.eval repeats this sequence on
        arrays and is what the solvers use; this scalar form is the reference.
        """
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.nvars,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.nvars},)")
        if not self.terms:
            return 0j
        keys = GRLEX.sort(self.terms.keys())

        def term_values():
            for m in keys:
                v = self.terms[m]
                for xi, e in zip(x, m):
                    if e:
                        v = v * xi**e
                yield v

        return _kahan_sum(term_values())

    def differentiate(self, i: int) -> "MultiPoly":
        """Exact partial derivative with respect to variable i (0-based)."""
        if not 0 <= i < self.nvars:
            raise ValueError("variable index out of range")
        terms = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            e = list(m)
            e[i] -= 1
            terms[tuple(e)] = terms.get(tuple(e), 0j) + c * m[i]
        return MultiPoly._of_terms(self.nvars, terms)

    def translate(self, t) -> "MultiPoly":
        """Return q with q(x) = p(x + t), by exact binomial expansion.

        Replays the support's cached _shift_plan with the powers of t
        computed once. Raises ValueError when a shifted coefficient is not
        finite, as an overflowing power of t makes one. For t = 0 every step
        multiplies by a zero power, so the expansion would add only zeros
        to each coefficient: the terms come back as they are, in the
        expansion's key order.
        """
        t = np.asarray(t, dtype=complex)
        if t.shape != (self.nvars,):
            raise ValueError("translation vector has wrong length")
        tops, plan, order = _shift_plan(tuple(self.terms))
        if not t.any():
            return MultiPoly._of_terms(self.nvars, {m: self.terms[m] for m in order})
        powers = [[_cpow(z, n) for n in range(top + 1)] for z, top in zip(t.tolist(), tops)]
        out: dict = {}
        for c, expansion in zip(self.terms.values(), plan):
            for key, steps in expansion:
                v = c
                for i, comb, n in steps:
                    v = v * comb * powers[i][n]
                out[key] = out.get(key, 0j) + v
        if not all(map(cmath.isfinite, out.values())):
            raise ValueError("shifted coefficients overflow")
        return MultiPoly._of_terms(self.nvars, out)

    # ---------------- serialization ----------------

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"exps": list(m), "re": float(self.terms[m].real), "im": float(self.terms[m].imag)}
                for m in GRLEX.sort(self.terms.keys())
            ],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "MultiPoly":
        nvars = int(obj["nvars"])
        terms = {}
        for t in obj["terms"]:
            m = tuple(int(e) for e in t["exps"])
            terms[m] = terms.get(m, 0j) + complex(float(t["re"]), float(t.get("im", 0.0)))
        return MultiPoly(nvars, terms)


# Complex arrays below are handled as float64 pairs: axis 0 of length 2
# holds the real and the imaginary parts. numpy's vectorized complex
# multiply may fuse a*b - c*d into one FMA, while its scalar multiply, which
# MultiPoly.eval uses, rounds every product; real ufuncs on the pairs round
# the same way as the scalar.


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex product of pair arrays, rounded exactly like numpy's scalar multiply."""
    p = a * b
    q = a * b[::-1]
    out = np.empty(p.shape)
    np.subtract(p[0], p[1], out=out[0])
    np.add(q[0], q[1], out=out[1])
    return out


def _power_table(X: np.ndarray, top: int) -> np.ndarray:
    """Pairs of X**e for e = 1..top, shape (2, n, d, top), for complex X (n, d).

    Follows numpy's complex power for integer exponents as _cpow does (x,
    x*x, x*(x*x), binary powering below 100, the C library's cpow from 100
    on, which numpy's array power also calls), so every entry equals the
    scalar ``x**e``.
    """
    x = np.stack([X.real, X.imag])
    powers = [x]
    for e in range(2, top + 1):
        if e >= 100:
            with np.errstate(all="ignore"):
                z = np.power(X, e)
            powers.append(np.stack([z.real, z.imag]))
            continue
        if e <= 3:
            powers.append(_cmul(x, powers[-1]))
            continue
        acc = np.zeros(x.shape)
        acc[0] = 1.0
        p, bit = x, 1
        while True:
            if e & bit:
                acc = _cmul(acc, p)
            bit <<= 1
            if e < bit:
                break
            p = _cmul(p, p)
        powers.append(acc)
    return np.stack(powers, axis=-1)


@dataclass(frozen=True, eq=False)
class CompiledLayout:
    """The part of a compiled system that depends only on its support.

    Built once per support by ``_compiled_layout`` and shared by every system
    with that support, so its arrays are read-only. ``exps`` and ``mask`` are
    CompiledPolys' arrays. A system's coefficients fill the slots ``place``
    (flat (row, term) positions) from its terms listed polynomial by
    polynomial in dict order: slot k of a polynomial row takes term
    ``src[k]``, and slot k of a partial row term ``deriv[k][0]`` times the
    exponent ``deriv[k][1]``. ``top``, ``index`` and ``used`` drive
    CompiledPolys.eval: the highest exponent, and per factor slot f a term's
    f-th variable with a nonzero exponent (ascending), as a flat index into
    the power table, and whether the term has an f-th such variable.
    ``degrees`` holds each polynomial's total degree.
    """

    exps: np.ndarray
    mask: np.ndarray
    place: np.ndarray
    src: tuple
    deriv: tuple
    top: int
    index: np.ndarray
    used: np.ndarray
    degrees: tuple


@functools.lru_cache(maxsize=SUPPORT_CACHE_SIZE)
def _compiled_layout(d: int, supports: tuple) -> CompiledLayout:
    """Layout for polynomials in d variables whose monomials, in dict order, are ``supports``."""
    rows = []  # per row: (monomial, source term, exponent factor) in grlex order
    start = 0
    for sup in supports:
        at = {m: start + k for k, m in enumerate(sup)}
        rows.append([(m, at[m], 1) for m in GRLEX.sort(sup)])
        start += len(sup)
    # Lowering one exponent keeps the grlex order of the terms that survive.
    for terms in rows[: len(supports)]:
        for j in range(d):
            rows.append([(m[:j] + (m[j] - 1,) + m[j + 1 :], k, m[j]) for m, k, _ in terms if m[j]])
    T = max(1, max(len(terms) for terms in rows))
    place = [r * T + t for r, terms in enumerate(rows) for t in range(T - len(terms), T)]
    slots = [slot for terms in rows for slot in terms]
    n_poly = sum(len(terms) for terms in rows[: len(supports)])
    exps = np.zeros((len(rows) * T, d), dtype=np.int64)
    mask = np.zeros(len(rows) * T, dtype=bool)
    if slots:
        exps[place] = [m for m, _, _ in slots]
        mask[place] = True
    top = max(1, int(exps.max()))
    nonzero = exps > 0
    F = max(1, int(nonzero.sum(axis=-1).max()))
    var = np.argsort(~nonzero, axis=-1, kind="stable")[:, :F]
    exp = np.take_along_axis(exps, var, -1)
    layout = CompiledLayout(
        exps=exps.reshape(len(rows), T, d),
        mask=mask.reshape(len(rows), T),
        place=np.array(place, dtype=np.intp),
        src=tuple(k for _, k, _ in slots[:n_poly]),
        deriv=tuple((k, e) for _, k, e in slots[n_poly:]),
        top=top,
        index=(var * top + np.maximum(exp - 1, 0)).T,
        used=(exp > 0).T,
        degrees=tuple(sum(terms[-1][0]) if terms else 0 for terms in rows[: len(supports)]),
    )
    for a in (layout.exps, layout.mask, layout.place, layout.index, layout.used):
        a.setflags(write=False)
    return layout


@dataclass(frozen=True, eq=False)
class CompiledPolys:
    """k polynomials in d variables and their partials as arrays, evaluated at many points at once.

    Row r < k holds polynomial r, and row k + r*d + j its partial
    derivative with respect to x_j. Each row lists its terms in grlex order,
    padded at the front to a common term count T: ``exps`` (k + k*d, T, d),
    ``coeffs`` (k + k*d, T) and ``mask`` (k + k*d, T), False on padding. A
    padding term is zero, and zeros ahead of the first term leave a
    compensated sum exactly at zero, so ``eval`` needs no mask. It repeats
    MultiPoly.eval's term order, product sequence and compensated sum, and
    the partial rows hold the terms MultiPoly.differentiate gives, so the
    values are bit-equal to the scalar path's. Everything but the
    coefficients comes from the support's shared ``layout``; all arrays are
    read-only.
    """

    layout: CompiledLayout
    coeffs: np.ndarray

    @property
    def exps(self) -> np.ndarray:
        return self.layout.exps

    @property
    def mask(self) -> np.ndarray:
        return self.layout.mask

    @staticmethod
    def of(polys: Sequence[MultiPoly]) -> "CompiledPolys":
        layout = _compiled_layout(polys[0].nvars, tuple(tuple(p.terms) for p in polys))
        flat = [c for p in polys for c in p.terms.values()]
        coeffs = np.zeros(layout.mask.shape, dtype=complex)
        coeffs.reshape(-1)[layout.place] = [flat[k] for k in layout.src] + [
            flat[k] * e for k, e in layout.deriv
        ]
        coeffs.setflags(write=False)
        return CompiledPolys(layout=layout, coeffs=coeffs)

    @functools.cached_property
    def _pairs(self) -> np.ndarray:
        # The coefficients as pairs over the flattened (row, term) axis.
        return np.stack([self.coeffs.real, self.coeffs.imag]).reshape(2, 1, self.coeffs.size)

    def eval(self, points) -> tuple:
        """Values (n, k) and Jacobians (n, k, d) at points of shape (n, d)."""
        X = np.asarray(points, dtype=complex)
        n = X.shape[0]
        rows, T, d = self.exps.shape
        L = self.layout
        v = self._pairs
        table = _power_table(X, L.top).reshape(2, n, d * L.top)
        for f in range(len(L.index)):
            v = np.where(L.used[f], _cmul(v, table[:, :, L.index[f]]), v)
        terms = np.empty((n, rows * T), dtype=complex)
        terms.real = v[0]
        terms.imag = v[1]
        terms = terms.reshape(n, rows, T)
        s = np.zeros((n, rows), dtype=complex)
        c = np.zeros((n, rows), dtype=complex)
        for t in range(T):
            y = terms[:, :, t] - c
            total = s + y
            c = (total - s) - y
            s = total
        k = rows // (d + 1)
        return s[:, :k], s[:, k:].reshape(n, k, d)


@dataclass(frozen=True)
class PolySystem:
    """Square system of d polynomials in d variables.

    ``true_roots`` optionally lists points known to satisfy the system;
    ``validate`` enforces a residual bound at each. ``family_tag`` records
    which generator produced the system, if any. The system is frozen and
    ``polys`` is stored as a tuple, so ``compiled``, built on first use,
    always describes it; residuals and Jacobians are read from it.
    ``macaulay.quotient_basis`` keeps the system's quotient basis on it the
    same way.
    """

    d: int
    polys: Sequence
    true_roots: list | None = None
    family_tag: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "polys", tuple(self.polys))
        if len(self.polys) != self.d:
            raise ValueError("need exactly d polynomials")
        for p in self.polys:
            if p.nvars != self.d:
                raise ValueError("polynomial nvars mismatch")
        if self.true_roots is not None:
            roots = [np.asarray(r, dtype=complex) for r in self.true_roots]
            for r in roots:
                if r.shape != (self.d,):
                    raise ValueError("root has wrong length")
            object.__setattr__(self, "true_roots", roots)

    @functools.cached_property
    def compiled(self) -> CompiledPolys:
        return CompiledPolys.of(self.polys)

    def evaluate(self, points) -> tuple:
        """Values (n, d) and Jacobians (n, d, d) at n points, in one batched call.

        Every value equals ``p_i.eval(x)`` and every Jacobian entry
        ``p_i.differentiate(j).eval(x)``, bit for bit.
        """
        X = np.asarray(points, dtype=complex)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"points have shape {X.shape}, expected (n, {self.d})")
        return self.compiled.eval(X)

    def coefficient_scale(self) -> float:
        return max((p.coefficient_scale() for p in self.polys), default=0.0)

    def residual(self, x) -> float:
        """2-norm of the system's values at x."""
        values, _ = self.evaluate([x])
        return float(np.linalg.norm(values[0]))

    def residual_bound(self) -> float:
        """Largest residual a root may have: ROOT_RESIDUAL_TOL * (1 + coefficient scale)."""
        return ROOT_RESIDUAL_TOL * (1.0 + self.coefficient_scale())

    def validate(self) -> None:
        """Raise ValueError when a listed root's residual exceeds residual_bound()."""
        if not self.true_roots:
            return
        bound = self.residual_bound()
        values, _ = self.evaluate(self.true_roots)
        for r, res in zip(self.true_roots, np.linalg.norm(values, axis=1)):
            if not res <= bound:
                raise ValueError(f"listed root {r} has residual {res:.3e} > {bound:.3e}")

    def to_json_dict(self) -> dict:
        obj = {
            "d": self.d,
            "polys": [p.to_json_dict() for p in self.polys],
            "true_roots": None
            if self.true_roots is None
            else [[[float(z.real), float(z.imag)] for z in r] for r in self.true_roots],
        }
        if self.family_tag is not None:
            obj["family_tag"] = self.family_tag
        return obj

    @staticmethod
    def from_json_dict(obj: dict) -> "PolySystem":
        roots = obj.get("true_roots")
        return PolySystem(
            d=int(obj["d"]),
            polys=[MultiPoly.from_json_dict(p) for p in obj["polys"]],
            true_roots=None
            if roots is None
            else [np.array([complex(a, b) for a, b in r]) for r in roots],
            family_tag=obj.get("family_tag"),
        )


def jacobian(s: PolySystem, x) -> np.ndarray:
    """Jacobian matrix at x: entry (i, j) = d p_i / d x_j.

    Read from the system's compiled form; ``s.evaluate`` gives the
    Jacobians of many points in one call.
    """
    return s.evaluate([x])[1][0]


def rho(s: PolySystem) -> int:
    """Macaulay degree: sum of total degrees minus d plus 1."""
    for p in s.polys:
        if p.is_zero():
            raise ValueError("zero polynomial in system")
    return sum(p.total_degree() for p in s.polys) - s.d + 1


def bezout_count(s: PolySystem) -> int:
    """Product of the total degrees."""
    out = 1
    for p in s.polys:
        out *= p.total_degree()
    return out
