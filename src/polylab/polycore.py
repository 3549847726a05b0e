"""Sparse multivariate and dense univariate polynomial arithmetic.

Monomials are exponent tuples. A graded lexicographic order fixes the term
processing sequence everywhere, so evaluation and serialization are
reproducible run to run. Variable indices are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

# Exponent vector, one non-negative int per variable.
Monomial = tuple

# Coefficients below this magnitude are dropped on normalization to keep
# denormal noise out of matrix rows.
COEFF_FLOOR = 1e-300


def monomial_degree(m: Monomial) -> int:
    return int(sum(m))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True)
class MonomialOrder:
    """Graded lexicographic order with a configurable variable permutation.

    Monomials compare by total degree first, then lexicographically on the
    permuted exponent vector, earlier variables ranking higher. With the
    identity permutation in two variables the ascending sequence starts
    1, x, y, x^2, xy, y^2, x^3, ...
    """

    kind: str = "grlex"
    perm: tuple | None = None

    def __post_init__(self):
        if self.kind != "grlex":
            raise ValueError(f"unsupported monomial order kind: {self.kind!r}")
        if self.perm is not None:
            object.__setattr__(self, "perm", tuple(self.perm))
            if sorted(self.perm) != list(range(len(self.perm))):
                raise ValueError("perm must be a permutation of 0..d-1")

    def key(self, m: Monomial):
        perm = self.perm if self.perm is not None else range(len(m))
        return (monomial_degree(m), tuple(-m[p] for p in perm))

    def sort(self, monomials) -> list:
        return sorted(monomials, key=self.key)


def _exponents_up_to(deg: int, d: int) -> Iterator[Monomial]:
    if d == 0:
        yield ()
        return
    for e0 in range(deg + 1):
        for rest in _exponents_up_to(deg - e0, d - 1):
            yield (e0,) + rest


def monomials_up_to(deg: int, d: int, order: MonomialOrder | None = None) -> list:
    """All monomials of total degree <= deg in d variables, sorted ascending."""
    if deg < 0:
        raise ValueError("deg must be >= 0")
    if d < 1:
        raise ValueError("d must be >= 1")
    order = order or MonomialOrder()
    return order.sort(_exponents_up_to(deg, d))


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


@dataclass(frozen=True)
class MultiPoly:
    """Sparse polynomial in ``nvars`` complex variables.

    ``terms`` maps exponent tuples to nonzero complex coefficients. The
    mapping is normalized on construction and must not be mutated afterwards.
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
            if abs(c) > COEFF_FLOOR:
                clean[m] = clean.get(m, 0j) + c
        clean = {m: c for m, c in clean.items() if abs(c) > COEFF_FLOOR}
        object.__setattr__(self, "terms", clean)

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

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], c=1.0) -> "MultiPoly":
        return MultiPoly(nvars, {tuple(exps): complex(c)})

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
        return MultiPoly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.nvars, {m: -c for m, c in self.terms.items()})

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
        return MultiPoly(self.nvars, terms)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        c = complex(c)
        return MultiPoly(self.nvars, {m: c * v for m, v in self.terms.items()})

    def shift_exponents(self, m: Monomial) -> "MultiPoly":
        """Multiply by the monomial with exponent vector m."""
        return MultiPoly(self.nvars, {monomial_mul(k, m): c for k, c in self.terms.items()})

    # ---------------- calculus and evaluation ----------------

    def eval(self, x, order: MonomialOrder | None = None) -> complex:
        """Evaluate at a point, compensated summation in a fixed term order."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.nvars,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.nvars},)")
        if not self.terms:
            return 0j
        order = order or MonomialOrder()
        keys = order.sort(self.terms.keys())

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
        return MultiPoly(self.nvars, terms)

    def translate(self, t) -> "MultiPoly":
        """Return q with q(x) = p(x + t), by exact binomial expansion."""
        t = np.asarray(t, dtype=complex)
        if t.shape != (self.nvars,):
            raise ValueError("translation vector has wrong length")
        out: dict = {}
        for m, c in self.terms.items():
            # Expand prod_i (x_i + t_i)^{e_i} one variable at a time.
            partial = {(): c}
            for i, e in enumerate(m):
                nxt: dict = {}
                for stem, cc in partial.items():
                    for k in range(e + 1):
                        coeff = cc * math.comb(e, k) * t[i] ** (e - k)
                        key = stem + (k,)
                        nxt[key] = nxt.get(key, 0j) + coeff
                partial = nxt
            for key, cc in partial.items():
                out[key] = out.get(key, 0j) + cc
        return MultiPoly(self.nvars, out)

    # ---------------- serialization ----------------

    def to_json_dict(self, order: MonomialOrder | None = None) -> dict:
        order = order or MonomialOrder()
        return {
            "nvars": self.nvars,
            "terms": [
                {"exps": list(m), "re": float(self.terms[m].real), "im": float(self.terms[m].imag)}
                for m in order.sort(self.terms.keys())
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


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial, coefficients ascending in degree."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        # Trim trailing zeros so the leading coefficient is nonzero.
        nz = np.nonzero(c)[0]
        c = c[: nz[-1] + 1] if nz.size else np.zeros(1, dtype=complex)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def from_roots(roots) -> "UniPoly":
        return UniPoly(npoly.polyfromroots(np.asarray(roots, dtype=complex)))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        if self.coeffs.size == 1 and self.coeffs[0] == 0:
            return -1
        return self.coeffs.size - 1

    def eval(self, x) -> complex:
        return complex(npoly.polyval(complex(x), self.coeffs))

    def derivative(self) -> "UniPoly":
        if self.coeffs.size == 1:
            return UniPoly(np.zeros(1))
        return UniPoly(npoly.polyder(self.coeffs))

    def __add__(self, other):
        return UniPoly(npoly.polyadd(self.coeffs, other.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return UniPoly(self.coeffs * complex(other))
        return UniPoly(npoly.polymul(self.coeffs, other.coeffs))

    __rmul__ = __mul__


@dataclass
class PolySystem:
    """Square system of d polynomials in d variables.

    ``true_roots`` optionally lists points known to satisfy the system;
    ``validate`` enforces a residual bound at each. ``family_tag`` records
    which generator produced the system, if any.
    """

    d: int
    polys: list
    true_roots: list | None = None
    family_tag: str | None = None

    def __post_init__(self):
        if len(self.polys) != self.d:
            raise ValueError("need exactly d polynomials")
        for p in self.polys:
            if p.nvars != self.d:
                raise ValueError("polynomial nvars mismatch")
        if self.true_roots is not None:
            self.true_roots = [np.asarray(r, dtype=complex) for r in self.true_roots]
            for r in self.true_roots:
                if r.shape != (self.d,):
                    raise ValueError("root has wrong length")

    def coefficient_scale(self) -> float:
        return max((p.coefficient_scale() for p in self.polys), default=0.0)

    def residual(self, x) -> float:
        x = np.asarray(x, dtype=complex)
        return float(np.linalg.norm([p.eval(x) for p in self.polys]))

    def validate(self, tol: float = 1e-10) -> None:
        if self.true_roots is None:
            return
        bound = tol * (1.0 + self.coefficient_scale())
        for r in self.true_roots:
            res = self.residual(r)
            if res > bound:
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
    """Jacobian matrix at x: entry (i, j) = d p_i / d x_j."""
    x = np.asarray(x, dtype=complex)
    J = np.empty((s.d, s.d), dtype=complex)
    for i, p in enumerate(s.polys):
        for j in range(s.d):
            J[i, j] = p.differentiate(j).eval(x)
    return J


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
