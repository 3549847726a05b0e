"""Polynomial containers: evaluation, calculus, orders, counting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylab import (
    FAMILIES,
    FamilySpec,
    MonomialOrder,
    MultiPoly,
    PolySystem,
    bezout_count,
    generate,
    jacobian,
    linear_poly,
    monomials_up_to,
    rho,
    solve_macaulay_resultant,
    solve_mep_operator_determinants,
    solve_normal_form,
)
from polylab.bench import SOLVER_FAILURES
from polylab.polycore import CompiledPolys

EPS = np.finfo(float).eps


def rand_poly(nvars, deg, rng):
    terms = {}
    for mono in monomials_up_to(deg, nvars):
        if rng.random() < 0.7:
            terms[mono] = complex(rng.standard_normal(), rng.standard_normal())
    terms[(0,) * nvars] = complex(rng.standard_normal())
    return MultiPoly(nvars, terms)


def test_eval_matches_horner_free_reference():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rand_poly(3, 3, rng)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ref = sum(c * np.prod(x ** np.array(m)) for m, c in p.terms.items())
        assert abs(p.eval(x) - ref) <= 1e-12 * (1 + abs(ref))


def test_addition_is_pointwise():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = rand_poly(2, 3, rng)
        q = rand_poly(2, 2, rng)
        x = rng.standard_normal(2)
        assert abs((p + q).eval(x) - (p.eval(x) + q.eval(x))) <= 1e-12


def test_scale_multiplies_every_coefficient():
    rng = np.random.default_rng(13)
    p = rand_poly(2, 2, rng)
    q = p.scale(3.5)
    for m, c in p.terms.items():
        assert q.terms[m] == 3.5 * c


def test_differentiate_on_monomial():
    # d/dy of 4 x^2 y^3 is 12 x^2 y^2
    p = MultiPoly(2, {(2, 3): 4.0})
    dp = p.differentiate(1)
    assert dp.terms == {(2, 2): pytest.approx(12.0)}


def test_differentiate_matches_finite_difference():
    rng = np.random.default_rng(14)
    h = 1e-6
    for _ in range(10):
        p = rand_poly(3, 3, rng)
        x = rng.standard_normal(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (p.eval(x + e) - p.eval(x - e)) / (2 * h)
            assert abs(p.differentiate(j).eval(x) - fd) <= 1e-6 * (1 + abs(fd))


def test_translate_shifts_the_argument():
    rng = np.random.default_rng(15)
    for _ in range(10):
        p = rand_poly(2, 3, rng)
        s = rng.standard_normal(2)
        q = p.translate(s)
        x = rng.standard_normal(2)
        assert abs(q.eval(x) - p.eval(x + s)) <= 1e-10 * (1 + abs(p.eval(x + s)))


def test_constant_and_variable_builders():
    one = MultiPoly.constant(3, 2.0)
    assert one.eval(np.ones(3)) == 2.0
    y = MultiPoly.variable(3, 1)
    assert y.eval(np.array([5.0, 7.0, 9.0])) == 7.0
    assert MultiPoly.zero(2).is_zero()


def test_total_degree_and_coefficient_scale():
    p = MultiPoly(2, {(2, 1): 0.5, (0, 0): -4.0})
    assert p.total_degree() == 3
    assert p.coefficient_scale() == 4.0


def test_json_round_trip_preserves_terms():
    rng = np.random.default_rng(16)
    p = rand_poly(2, 3, rng)
    q = MultiPoly.from_json_dict(p.to_json_dict())
    assert q.nvars == p.nvars
    assert set(q.terms) == set(p.terms)
    for m in p.terms:
        assert q.terms[m] == pytest.approx(p.terms[m])


def test_linear_poly_builds_affine_form():
    # constant term first, then one coefficient per variable
    p = linear_poly(3, [0.5, 1.0, 2.0, 3.0])
    x = np.array([4.0, 5.0, 6.0])
    assert p.eval(x) == pytest.approx(32.5)
    assert p.total_degree() == 1


def test_monomials_up_to_counts_binomial():
    for d in range(1, 4):
        for deg in range(0, 4):
            got = monomials_up_to(deg, d)
            assert len(got) == math.comb(deg + d, d)
            assert len(set(got)) == len(got)
            assert all(sum(m) <= deg for m in got)


def test_monomial_order_sorts_by_total_degree_first():
    order = MonomialOrder()
    ms = order.sort([(0, 2), (1, 0), (0, 0), (1, 1)])
    degs = [sum(m) for m in ms]
    assert degs == sorted(degs)
    assert ms[0] == (0, 0)


def test_grlex_breaks_degree_ties_by_the_leading_variable():
    base = monomials_up_to(3, 2)
    plain = MonomialOrder().sort(base)
    assert sorted(plain) == sorted(base)
    # within degree 1 the earlier variable ranks first
    assert plain.index((1, 0)) < plain.index((0, 1))


def test_system_residual_is_max_abs_value():
    s = PolySystem(
        2,
        [MultiPoly(2, {(2, 0): 1.0, (0, 0): -1.0}), MultiPoly(2, {(0, 1): 1.0})],
        true_roots=[],
        family_tag="",
    )
    x = np.array([1.0, 0.5])
    assert s.residual(x) == pytest.approx(0.5)


def test_system_json_round_trip():
    rng = np.random.default_rng(19)
    s = PolySystem(
        2,
        [rand_poly(2, 2, rng), rand_poly(2, 2, rng)],
        true_roots=[np.array([0.1 + 0.2j, -0.3])],
        family_tag="demo",
    )
    t = PolySystem.from_json_dict(s.to_json_dict())
    assert t.d == 2 and t.family_tag == "demo"
    x = rng.standard_normal(2)
    for p, q in zip(s.polys, t.polys):
        assert abs(p.eval(x) - q.eval(x)) <= 1e-12
    assert np.allclose(t.true_roots[0], s.true_roots[0])


def test_jacobian_matches_finite_difference():
    rng = np.random.default_rng(20)
    s = PolySystem(3, [rand_poly(3, 2, rng) for _ in range(3)], true_roots=[], family_tag="")
    x = rng.standard_normal(3)
    J = jacobian(s, x)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        col = np.array([(p.eval(x + e) - p.eval(x - e)) / (2 * h) for p in s.polys])
        assert np.max(np.abs(J[:, j] - col)) <= 1e-6 * (1 + np.max(np.abs(col)))


def test_bezout_count_multiplies_degrees():
    s = PolySystem(
        2,
        [MultiPoly(2, {(2, 0): 1.0}), MultiPoly(2, {(1, 2): 1.0})],
        true_roots=[],
        family_tag="",
    )
    assert bezout_count(s) == 6


def test_rho_is_degree_sum_minus_d_plus_one():
    s = PolySystem(
        2,
        [MultiPoly(2, {(2, 0): 1.0}), MultiPoly(2, {(0, 2): 1.0})],
        true_roots=[],
        family_tag="",
    )
    assert rho(s) == 3


# ---------------------------------------------------------------------------
# compiled form against the scalar MultiPoly path


def term_scale(p, x) -> float:
    """sum_t |c_t x^m_t|: the rounding scale of evaluating p at x."""
    x = np.abs(np.asarray(x, dtype=complex))
    return float(sum(abs(c) * np.prod(x ** np.array(m)) for m, c in p.terms.items()))


def family_systems(shifted: bool):
    for family in FAMILIES:
        for d in {"notdev2d": [2], "notdev3d": [3]}.get(family, [2, 3, 4, 5]):
            kw = {"c": 10.0} if family == "hypercube" else {"sigma": 1e-2}
            shift = tuple(0.3 - 0.1j * k for k in range(d)) if shifted else None
            yield generate(FamilySpec(family=family, d=d, seed=d, shift=shift, **kw))


def scalar_jacobian(s, x):
    return np.array([[p.differentiate(j).eval(x) for j in range(s.d)] for p in s.polys])


@pytest.mark.parametrize("shifted", [False, True])
def test_compiled_values_and_jacobians_are_bit_equal_to_the_scalar_path(shifted):
    rng = np.random.default_rng(23)
    for s in family_systems(shifted):
        X = rng.standard_normal((4, s.d)) + 1j * rng.standard_normal((4, s.d))
        values, J = s.evaluate(X)
        for x, v, jac in zip(X, values, J):
            assert np.array_equal(v, [p.eval(x) for p in s.polys])
            assert np.array_equal(jac, scalar_jacobian(s, x))
            assert np.array_equal(jacobian(s, x), jac)


@pytest.mark.parametrize("degree", [99, 100, 120])
def test_compiled_powers_round_as_the_scalar_power_at_high_degree(degree):
    # numpy's scalar power switches from binary powering to the C library's
    # cpow at exponent 100; the compiled power table must switch with it.
    s = PolySystem(
        2,
        [
            MultiPoly(2, {(degree, 0): 1.0, (1, 0): 0.5, (0, 1): -0.3j}),
            MultiPoly(2, {(degree - 1, 1): 0.7 + 0.2j, (0, degree): 1.0, (0, 0): -1.0}),
        ],
    )
    rng = np.random.default_rng(degree)
    X = rng.standard_normal((100, 2)) + 1j * rng.standard_normal((100, 2))
    values, J = s.evaluate(X)
    for x, v, jac in zip(X, values, J):
        assert np.array_equal(v, [p.eval(x) for p in s.polys])
        assert np.array_equal(jac, scalar_jacobian(s, x))


def _solve_nf(s):
    return solve_normal_form(s, rng=np.random.default_rng(2))


def _solve_macaulay(s):
    return solve_macaulay_resultant(s, rng=np.random.default_rng(2))


def _solve_mep(s):
    return solve_mep_operator_determinants(s)


@pytest.mark.parametrize("solve", [_solve_nf, _solve_macaulay, _solve_mep])
def test_solver_diagnostics_match_the_scalar_path_at_computed_roots(solve):
    checked = 0
    for s in family_systems(shifted=True):
        try:
            report = solve(s)
        except SOLVER_FAILURES:
            continue
        for x, res, kappa in zip(report.roots, report.residuals, report.kappa_root):
            J = scalar_jacobian(s, x)
            assert np.array_equal(s.evaluate([x])[1][0], J)
            ref = float(np.linalg.norm([p.eval(x) for p in s.polys]))
            assert abs(res - ref) <= 4 * EPS * sum(term_scale(p, x) for p in s.polys)
            smin = np.linalg.svd(J, compute_uv=False)[-1]
            assert kappa == (pytest.approx(1.0 / smin, rel=1e-12) if smin > 0 else math.inf)
            checked += 1
    assert checked > 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compiled_eval_matches_multipoly_eval_on_random_sparse_polys(data):
    d = data.draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 5)] * d)
    coeff = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    p = MultiPoly(d, data.draw(st.dictionaries(exps, coeff, max_size=8)))
    coord = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    x = np.array(data.draw(st.lists(coord, min_size=d, max_size=d)), dtype=complex)
    got = CompiledPolys.of([p]).eval(x[None])[0][0, 0]
    assert abs(got - p.eval(x)) <= 4 * EPS * term_scale(p, x)


def test_solves_never_call_the_scalar_evaluator(monkeypatch):
    def refuse(self, x):
        raise AssertionError("MultiPoly.eval called")

    monkeypatch.setattr(MultiPoly, "eval", refuse)
    for d in (2, 3):
        s = generate(FamilySpec(family="orthogonal", d=d, sigma=0.1, shift=(0.2,) * d))
        for solve in (_solve_nf, _solve_macaulay, _solve_mep):
            report = solve(s)
            assert len(report.roots) == bezout_count(s)
        solve_normal_form(s, polish=True)
