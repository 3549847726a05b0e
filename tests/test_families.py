"""Benchmark system generators and their planted roots."""

import re

import numpy as np
import pytest

from polylab import FamilySpec, MultiPoly, generate, jacobian, kappa_root, true_root_error
from polylab import families
from polylab.families import FAMILIES
from polylab.numkernel import random_orthogonal


def spec_for(family, d, sigma=0.1, c=4.0, seed=None, shift=None):
    return FamilySpec(family=family, d=d, sigma=sigma, c=c, seed=seed, shift=shift)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_planted_roots_have_tiny_residual(family):
    rng = np.random.default_rng(31)
    d = 3 if family not in ("notdev2d",) else 2
    s = generate(spec_for(family, d), rng=rng)
    assert s.family_tag == family
    assert s.d == d
    assert len(s.true_roots) >= 1
    scale = s.coefficient_scale()
    for r in s.true_roots:
        assert s.residual(r) <= 1e-12 * scale


def test_generate_is_deterministic_under_spec_seed():
    a = generate(spec_for("orthogonal", 3, seed=7))
    b = generate(spec_for("orthogonal", 3, seed=7))
    x = np.random.default_rng(0).standard_normal(3)
    for p, q in zip(a.polys, b.polys):
        assert p.eval(x) == q.eval(x)


def test_generate_rejects_unknown_family():
    with pytest.raises(ValueError):
        generate(spec_for("nosuchfamily", 2))


def test_generate_requires_the_family_parameter():
    with pytest.raises(ValueError):
        generate(FamilySpec(family="orthogonal", d=2))
    with pytest.raises(ValueError):
        generate(FamilySpec(family="hypercube", d=2))


def test_orthogonal_root_conditioning_is_inverse_sigma():
    rng = np.random.default_rng(32)
    for sigma in (1e-1, 1e-2, 1e-3):
        s = generate(spec_for("orthogonal", 4, sigma=sigma), rng=rng)
        k = kappa_root(s, np.zeros(4, dtype=complex))
        assert k == pytest.approx(1.0 / sigma, rel=1e-10)


def test_orthogonal_jacobian_at_origin_is_scaled_orthogonal():
    rng = np.random.default_rng(33)
    sigma = 0.05
    s = generate(spec_for("orthogonal", 3, sigma=sigma), rng=rng)
    J = jacobian(s, np.zeros(3, dtype=complex))
    assert np.allclose(J.conj().T @ J, sigma**2 * np.eye(3), atol=1e-12)


def test_cyclic_squares_terms_are_exact():
    s = generate(spec_for("cyclic_squares", 2, sigma=0.1))
    assert dict(s.polys[0].terms) == {(2, 0): 0.1**0, (0, 1): -0.1}
    assert dict(s.polys[1].terms) == {(0, 2): 1.0, (1, 0): -0.1}


def test_cyclic_squares_carries_all_bezout_roots():
    sigma = 0.3
    for d in (2, 3):
        s = generate(spec_for("cyclic_squares", d, sigma=sigma))
        assert len(s.true_roots) == 2**d
        # nonzero roots live on |x_1| = sigma
        mags = sorted(abs(r[0]) for r in s.true_roots)
        assert mags[0] == 0.0
        assert all(m == pytest.approx(sigma, rel=1e-12) for m in mags[1:])


def test_hypercube_roots_are_sign_patterns():
    rng = np.random.default_rng(34)
    d, c = 3, 4.0
    s = generate(spec_for("hypercube", d, c=c), rng=rng)
    assert len(s.true_roots) == 2**d
    target = 1.0 / (c * np.sqrt(d))
    for r in s.true_roots:
        assert np.allclose(np.abs(r), target, rtol=1e-12)
    pats = {tuple(np.sign(r.real)) for r in s.true_roots}
    assert len(pats) == 2**d


def test_hypercube_root_conditioning_matches_closed_form():
    rng = np.random.default_rng(35)
    d, c = 2, 10.0
    s = generate(spec_for("hypercube", d, c=c), rng=rng)
    k = kappa_root(s, s.true_roots[0])
    assert k == pytest.approx(c * np.sqrt(d) / 2.0, rel=1e-10)


def extract_permutation(s):
    sigma = None
    perm = []
    for p in s.polys:
        lin = [m for m in p.terms if sum(m) == 1]
        assert len(lin) == 1
        j = lin[0].index(1)
        perm.append(j)
        if sigma is None:
            sigma = p.terms[lin[0]]
    return perm, sigma


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_permutation_family_draws_a_single_cycle(d):
    # a fixed point would collapse two eigenvalue coordinates downstream
    for seed in range(20):
        s = generate(spec_for("permutation", d, sigma=0.1), rng=np.random.default_rng(seed))
        perm, sigma = extract_permutation(s)
        assert sigma == pytest.approx(0.1)
        seen = {0}
        k = perm[0]
        while k not in seen:
            seen.add(k)
            k = perm[k]
        assert len(seen) == d


def test_notdev2d_mixing_matrix_is_a_rotation():
    rng = np.random.default_rng(36)
    sigma = 0.05
    s = generate(spec_for("notdev2d", 2, sigma=sigma), rng=rng)
    a11 = s.polys[0].terms.get((1, 0), 0.0) / sigma
    a12 = s.polys[0].terms.get((0, 1), 0.0) / sigma
    a21 = s.polys[1].terms.get((1, 0), 0.0) / sigma
    a22 = s.polys[1].terms.get((0, 1), 0.0) / sigma
    A = np.array([[a11, a12], [a21, a22]], dtype=complex)
    assert np.allclose(A.conj().T @ A, np.eye(2), atol=1e-12)
    assert np.linalg.det(A).real == pytest.approx(1.0, abs=1e-12)
    # fixed monomial skeleton
    assert s.polys[0].terms[(2, 0)] == 1.0
    assert s.polys[1].terms[(1, 1)] == 1.0
    assert s.polys[1].terms[(0, 2)] == pytest.approx(sigma)


def test_notdev3d_terms_are_exact():
    sigma = 0.25
    s = generate(spec_for("notdev3d", 3, sigma=sigma))
    assert dict(s.polys[0].terms) == {(1, 1, 0): 1.0, (2, 0, 0): sigma, (0, 1, 0): sigma}
    assert dict(s.polys[1].terms) == {(1, 1, 0): 1.0, (0, 2, 0): sigma, (0, 0, 1): sigma}
    assert dict(s.polys[2].terms) == {(1, 1, 0): 1.0, (0, 0, 2): sigma, (1, 0, 0): sigma}


def _monomial(d, exps, c=1.0):
    return MultiPoly(d, {tuple(exps): complex(c)})


def _sq(d, i):
    e = [0] * d
    e[i] = 2
    return _monomial(d, e)


def _lin(d, i, c):
    e = [0] * d
    e[i] = 1
    return _monomial(d, e, c)


def reference_polys(spec, rng) -> list:
    """A family's polynomials as sums of monomials, drawing from rng as its builder does."""
    d, s = spec.d, spec.sigma
    if spec.family == "orthogonal":
        Q = random_orthogonal(d, rng)
        polys = []
        for i in range(d):
            p = _sq(d, i)
            for j in range(d):
                p = p + _lin(d, j, s * Q[i, j])
            polys.append(p)
        return polys
    if spec.family == "cyclic_squares":
        return [_sq(d, i) + _lin(d, (i + 1) % d, -s) for i in range(d)]
    if spec.family == "hypercube":
        A = random_orthogonal(d, rng)
        const = 1.0 / (spec.c * spec.c * d)
        polys = []
        for i in range(d):
            p = MultiPoly.constant(d, -const * A[i, :].sum())
            for j in range(d):
                p = p + _sq(d, j) * A[i, j]
            polys.append(p)
        return polys
    if spec.family == "permutation":
        perm = families._random_cycle(d, rng) if d > 1 else [0]
        return [_sq(d, i) + _lin(d, int(perm[i]), s) for i in range(d)]
    if spec.family == "notdev2d":
        A = families._random_rotation_2d(rng)
        p1 = _sq(2, 0) + _lin(2, 0, s * A[0, 0]) + _lin(2, 1, s * A[0, 1])
        p2 = (
            _monomial(2, (1, 1))
            + _sq(2, 1) * s
            + _lin(2, 0, s * A[1, 0])
            + _lin(2, 1, s * A[1, 1])
        )
        return [p1, p2]
    xy = _monomial(3, (1, 1, 0))
    return [
        xy + _sq(3, 0) * s + _lin(3, 1, s),
        xy + _sq(3, 1) * s + _lin(3, 2, s),
        xy + _sq(3, 2) * s + _lin(3, 0, s),
    ]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_builders_match_sums_of_monomials_bit_for_bit(family):
    dims = {"notdev2d": [2], "notdev3d": [3]}.get(family, [1, 2, 3, 4, 5])
    # sigma = 1e-301 puts the sigma terms under COEFF_FLOOR, which drops them.
    params = [{"c": 0.5}, {"c": 100.0}] if family == "hypercube" else [
        {"sigma": 1e-301}, {"sigma": 0.3}
    ]
    for d in dims:
        for kw in params:
            for shift in (None, tuple(1 / 3 - 0.2j * k for k in range(d))):
                for seed in (1, 2, 3):
                    spec = FamilySpec(family=family, d=d, seed=seed, shift=shift, **kw)
                    want = reference_polys(spec, np.random.default_rng(seed))
                    if shift is not None:
                        want = [p.translate(-np.asarray(shift)) for p in want]
                    got = generate(spec).polys
                    for p, q in zip(got, want, strict=True):
                        assert list(p.terms) == list(q.terms)
                        values = [list(r.terms.values()) for r in (p, q)]
                        assert np.array(values[0]).tobytes() == np.array(values[1]).tobytes()


@pytest.mark.parametrize("c", [1e-300, 1e-160, 1e200])
def test_hypercube_scale_outside_the_float_range_is_one_value_error(c):
    with pytest.raises(ValueError, match=re.escape(f"hypercube c={c!r}:")):
        generate(spec_for("hypercube", 2, c=c))


def test_shift_moves_the_planted_root():
    rng = np.random.default_rng(37)
    shift = (1.0 / 3.0, 1.0 / 3.0)
    s = generate(spec_for("orthogonal", 2, sigma=0.1, shift=shift), rng=rng)
    target = np.array(shift, dtype=complex)
    assert any(np.linalg.norm(r - target) <= 1e-12 for r in s.true_roots)
    assert s.residual(target) <= 1e-12 * s.coefficient_scale()


def test_shift_preserves_root_conditioning():
    # translation leaves the Jacobian at the root unchanged
    sigma = 1e-2
    a = generate(spec_for("orthogonal", 2, sigma=sigma, seed=5))
    b = generate(spec_for("orthogonal", 2, sigma=sigma, seed=5, shift=(1 / 3, 1 / 3)))
    ka = kappa_root(a, np.zeros(2, dtype=complex))
    kb = kappa_root(b, np.array([1 / 3, 1 / 3], dtype=complex))
    assert kb == pytest.approx(ka, rel=1e-9)


def test_true_root_error_zero_when_roots_match():
    s = generate(spec_for("cyclic_squares", 2, sigma=0.5))
    from polylab import RootReport

    rep = RootReport(
        roots=list(s.true_roots),
        residuals=[0.0] * len(s.true_roots),
        kappa_root=[],
        subproblem_kappa=[],
        method_tag="test",
        diagnostics={},
    )
    # truth is a single designated root; nearest reported root matches it
    assert true_root_error(rep, s.true_roots[1]) <= 1e-15


def test_true_root_error_sees_a_perturbation():
    s = generate(spec_for("cyclic_squares", 2, sigma=0.5))
    from polylab import RootReport

    bumped = [r + 1e-3 for r in s.true_roots]
    rep = RootReport(
        roots=bumped,
        residuals=[0.0] * len(bumped),
        kappa_root=[],
        subproblem_kappa=[],
        method_tag="test",
        diagnostics={},
    )
    err = true_root_error(rep, s.true_roots[1])
    assert 1e-4 <= err <= 1e-2
