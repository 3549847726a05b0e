"""Generators for the structured system families used by the benchmarks.

Each family is a parameterized polynomial system with at least one root
known in closed form, built with exact coefficient arithmetic so that the
listed roots satisfy the system to machine precision. Families:

- ``orthogonal``:      p_i = x_i^2 + sigma * (Q x)_i, Q random orthogonal;
                       root at the origin, kappa_root = 1/sigma there.
- ``cyclic_squares``:  p_i = x_i^2 - sigma * x_{i+1 mod d}; the origin plus
                       2^d - 1 closed-form roots chained around the cycle.
- ``hypercube``:       p_i = sum_j a_ij (x_j^2 - 1/(c^2 d)), A random
                       orthogonal; 2^d sign-pattern roots (+-1/(c sqrt(d)), ...).
- ``permutation``:     p_i = x_i^2 + sigma * x_{perm(i)} with perm a random
                       single d-cycle; root at the origin.
- ``notdev2d``:        p_1 = x^2 + s*a11*x + s*a12*y,
                       p_2 = xy + s*y^2 + s*a21*x + s*a22*y, A a random
                       rotation; root at the origin. d = 2 only.
- ``notdev3d``:        p_1 = xy + s*x^2 + s*y, p_2 = xy + s*y^2 + s*z,
                       p_3 = xy + s*z^2 + s*x; root at the origin. d = 3 only.

A family is one builder, returning its polynomials and listed roots, plus
one row of the ``_FAMILY`` table. An optional affine shift moves every
system and its listed roots by exact Taylor translation of the
coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numkernel import _row_norms, random_orthogonal
from .polycore import MultiPoly, PolySystem


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one system from a family.

    Exactly one of ``sigma`` (coupling strength) or ``c`` (hypercube scale)
    applies, depending on the family. ``seed`` feeds the default rng when
    ``generate`` is not handed one explicitly.
    """

    family: str
    d: int
    sigma: float | None = None
    c: float | None = None
    seed: int = 1
    shift: tuple | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if isinstance(self.d, bool) or not isinstance(self.d, (int, np.integer)):
            raise ValueError(f"d must be an integer, not {self.d!r}")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        _, param, dim = _FAMILY[self.family]
        value = getattr(self, param)
        if value is None or not 0 < value < math.inf:
            who = f"family {self.family!r}" if param == "sigma" else f"{self.family} family"
            raise ValueError(f"{who} needs {param} > 0 and finite")
        if dim is not None and self.d != dim:
            words = {2: "two", 3: "three"}[dim]
            raise ValueError(f"{self.family} is a {words}-variable family")
        if self.shift is not None:
            if len(self.shift) != self.d:
                raise ValueError("shift length must equal d")
            shift = tuple(complex(z) for z in self.shift)
            if not all(cmath.isfinite(z) for z in shift):
                raise ValueError("shift must be finite")
            object.__setattr__(self, "shift", shift)


def _power(d: int, i: int, e: int = 1) -> tuple:
    """Exponent tuple of x_i**e in d variables."""
    m = [0] * d
    m[i] = e
    return tuple(m)


# Each builder returns a family's polynomials and its listed roots, unshifted.
# It writes a polynomial's terms once, in the order a sum of its monomials
# lists them. MultiPoly._of_terms normalizes each coefficient as such a sum
# does (0j + complex(c), dropped at or below COEFF_FLOOR), so the terms are
# bit-equal to the sum's. The coefficients are finite by construction, so
# the validating constructor's check is not needed.


def _squares_plus(spec: FamilySpec, M: np.ndarray) -> list:
    """p_i = x_i^2 + sigma (M x)_i."""
    d = spec.d
    return [
        MultiPoly._of_terms(
            d, {_power(d, i, 2): 1.0} | {_power(d, j): c for j, c in enumerate(row) if c}
        )
        for i, row in enumerate((spec.sigma * M).tolist())
    ]


def _orthogonal(spec: FamilySpec, rng) -> tuple:
    return _squares_plus(spec, random_orthogonal(spec.d, rng)), [np.zeros(spec.d, dtype=complex)]


def _cyclic_squares(spec: FamilySpec, rng) -> tuple:
    d, sigma = spec.d, spec.sigma
    # M = minus the cyclic shift: (M x)_i = -x_{i+1 mod d}.
    polys = _squares_plus(spec, -np.eye(d)[[(i + 1) % d for i in range(d)]])
    # Non-origin roots: x_1^(2^d - 1) = sigma^(2^d - 1), coordinates chained
    # by x_{i+1} = x_i^2 / sigma.
    roots = [np.zeros(d, dtype=complex)]
    n = 2**d - 1
    for k in range(n):
        x1 = sigma * np.exp(2j * np.pi * k / n)
        r = np.empty(d, dtype=complex)
        r[0] = x1
        for i in range(1, d):
            r[i] = r[i - 1] ** 2 / sigma
        roots.append(r)
    return polys, roots


def _hypercube(spec: FamilySpec, rng) -> tuple:
    d, c = spec.d, spec.c
    A = random_orthogonal(d, rng)
    denom = c * c * d
    const = 1.0 / denom if denom > 0 else math.inf
    # |sum_j a_ij| <= sqrt(d) <= d, so the constant terms stay finite too.
    if not (0 < const and const * d < math.inf):
        raise ValueError(f"hypercube c={c!r}: 1/(c^2 d) is not a finite positive float")
    polys = [
        MultiPoly._of_terms(
            d, {(0,) * d: -const * A[i, :].sum()} | {_power(d, j, 2): A[i, j] for j in range(d)}
        )
        for i in range(d)
    ]
    a = 1.0 / (c * math.sqrt(d))
    roots = []
    for mask in range(2**d):
        signs = [1.0 if mask & (1 << j) == 0 else -1.0 for j in range(d)]
        roots.append(np.array([s * a for s in signs], dtype=complex))
    return polys, roots


def _random_cycle(d: int, rng) -> list:
    # Single d-cycle: a fixed point would give two roots the same first
    # coordinate, which breaks shared-eigenvector coordinate recovery.
    order = list(rng.permutation(d))
    perm = [0] * d
    for k in range(d):
        perm[order[k]] = order[(k + 1) % d]
    return perm


def _permutation(spec: FamilySpec, rng) -> tuple:
    d = spec.d
    perm = _random_cycle(d, rng) if d > 1 else [0]
    # Row i of M is e_perm(i): (M x)_i = x_perm(i).
    return _squares_plus(spec, np.eye(d)[perm]), [np.zeros(d, dtype=complex)]


def _random_rotation_2d(rng) -> np.ndarray:
    theta = rng.uniform(0.0, 2.0 * np.pi)
    ct, st = np.cos(theta), np.sin(theta)
    return np.array([[ct, -st], [st, ct]])


def _notdev2d(spec: FamilySpec, rng) -> tuple:
    s = spec.sigma
    A = _random_rotation_2d(rng)  # det +1 keeps the closed-form interpolant clean
    p1 = MultiPoly._of_terms(2, {(2, 0): 1.0, (1, 0): s * A[0, 0], (0, 1): s * A[0, 1]})
    p2 = MultiPoly._of_terms(
        2, {(1, 1): 1.0, (0, 2): s, (1, 0): s * A[1, 0], (0, 1): s * A[1, 1]}
    )
    return [p1, p2], [np.zeros(2, dtype=complex)]


def _notdev3d(spec: FamilySpec, rng) -> tuple:
    s = spec.sigma
    polys = [
        MultiPoly._of_terms(3, {(1, 1, 0): 1.0, _power(3, i, 2): s, _power(3, (i + 1) % 3): s})
        for i in range(3)
    ]
    return polys, [np.zeros(3, dtype=complex)]


# The one place a family is registered: its builder, the FamilySpec field
# it reads, and its fixed dimension (None when any d >= 1 is allowed).
_FAMILY = {
    "orthogonal": (_orthogonal, "sigma", None),
    "cyclic_squares": (_cyclic_squares, "sigma", None),
    "hypercube": (_hypercube, "c", None),
    "permutation": (_permutation, "sigma", None),
    "notdev2d": (_notdev2d, "sigma", 2),
    "notdev3d": (_notdev3d, "sigma", 3),
}
FAMILIES = tuple(_FAMILY)


def generate(spec: FamilySpec, rng: np.random.Generator | None = None) -> PolySystem:
    """Build the system for a family spec, with true roots filled in.

    When ``rng`` is omitted a fresh generator seeded from ``spec.seed`` is
    used, so equal specs reproduce equal systems.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    polys, roots = _FAMILY[spec.family][0](spec, rng)
    if spec.shift is not None:
        shift = np.asarray(spec.shift, dtype=complex)
        # q(x) = p(x - shift) moves every root by +shift.
        polys = [p.translate(-shift) for p in polys]
        roots = [r + shift for r in roots]
    sys = PolySystem(spec.d, polys, true_roots=roots, family_tag=spec.family)
    sys.validate()
    return sys


def true_root_error(report, truth) -> float:
    """Distance from the designated root to the nearest reported root."""
    truth = np.asarray(truth, dtype=complex)
    roots = getattr(report, "roots", report)
    if len(roots) == 0:
        return math.inf
    # fmin skips a NaN distance, as min(best, nan) does.
    dist = _row_norms(np.asarray(roots, dtype=complex) - truth)
    return float(np.fmin.reduce(dist, initial=math.inf))
