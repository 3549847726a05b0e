"""Structure caches: compiled layouts, Macaulay index maps, Taylor-shift and cofactor plans, built once per support.

The references below assemble the same arrays term by term, with no cache,
the way the library did before the structure was shared; cached output must
match them bit for bit.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylab import FAMILIES, FamilySpec, MultiPoly, PolySystem, generate, monomials_up_to, rho
from polylab import macaulay, numkernel, polycore, solvers
from polylab.conditioning import poly_det
from polylab.macaulay import macaulay_hat
from polylab.polycore import CompiledPolys, MonomialOrder


def bits_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_compiled(polys) -> tuple:
    """CompiledPolys' exps, coeffs and mask, built term by term."""
    d = polys[0].nvars
    rows = [[(m, p.terms[m]) for m in sorted(p.terms, key=MonomialOrder.key)] for p in polys]
    for terms in rows[: len(polys)]:
        for j in range(d):
            rows.append([(m[:j] + (m[j] - 1,) + m[j + 1 :], c * m[j]) for m, c in terms if m[j]])
    T = max(1, max(len(terms) for terms in rows))
    exps = np.zeros((len(rows), T, d), dtype=np.int64)
    coeffs = np.zeros((len(rows), T), dtype=complex)
    mask = np.zeros((len(rows), T), dtype=bool)
    for r, terms in enumerate(rows):
        for t, (m, c) in enumerate(terms, start=T - len(terms)):
            exps[r, t] = m
            coeffs[r, t] = c
            mask[r, t] = True
    return exps, coeffs, mask


def reference_macaulay(s, degree) -> tuple:
    """The Macaulay matrix and its labels, one coefficient at a time."""
    cols = monomials_up_to(degree, s.d)
    col = {m: k for k, m in enumerate(cols)}
    labels = [
        (i, m) for i, p in enumerate(s.polys) for m in monomials_up_to(degree - p.total_degree(), s.d)
    ]
    mat = np.zeros((len(labels), len(cols)), dtype=complex)
    for r, (i, m) in enumerate(labels):
        for t, c in s.polys[i].terms.items():
            mat[r, col[tuple(a + b for a, b in zip(m, t))]] = c
    return mat, labels, cols


def assert_matches_reference(s, degree=None) -> None:
    """Check the compiled form and the Macaulay matrix against the references.

    With no ``degree`` the matrix is macaulay_hat's, at rho(s); at any other
    degree it is macaulay_hat's scatter over ``_macaulay_index(layout, degree)``.
    """
    c = s.compiled
    for got, want in zip((c.exps, c.coeffs, c.mask), reference_compiled(s.polys)):
        assert bits_equal(got, want)
    if degree is None:
        mhat = macaulay_hat(s)
        degree, index, mat = rho(s), mhat.index, mhat.mat
    else:
        index = macaulay._macaulay_index(c.layout, degree)
        mat = macaulay._scatter(s, index)
    want, labels, cols = reference_macaulay(s, degree)
    assert bits_equal(mat, want)
    assert index.row_labels == tuple(labels)
    assert index.col_labels == tuple(cols)


def reference_translate(p, t) -> MultiPoly:
    """p(x + t), expanded one variable at a time with numpy scalar powers of t."""
    t = np.asarray(t, dtype=complex)
    out: dict = {}
    for m, c in p.terms.items():
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
    return MultiPoly._of_terms(p.nvars, out)


def assert_same_terms(p, q) -> None:
    assert list(p.terms) == list(q.terms)
    assert bits_equal(list(p.terms.values()), list(q.terms.values()))


def clear_caches() -> None:
    polycore._compiled_layout.cache_clear()
    polycore._shift_plan.cache_clear()
    macaulay._macaulay_index.cache_clear()
    numkernel._cofactor_plan.cache_clear()


def family_pairs(shifted: bool):
    """Two systems of each family and dimension, built from different seeds."""
    for family in FAMILIES:
        for d in {"notdev2d": [2], "notdev3d": [3]}.get(family, [2, 3, 4, 5]):
            kw = {"c": 10.0} if family == "hypercube" else {"sigma": 1e-2}
            shift = tuple(0.3 - 0.1j * k for k in range(d)) if shifted else None
            yield tuple(
                generate(FamilySpec(family=family, d=d, seed=seed, shift=shift, **kw))
                for seed in (d, d + 10)
            )


def test_a_second_system_with_the_same_support_builds_no_structure(monkeypatch):
    spec = dict(family="orthogonal", d=3, sigma=1e-2, shift=(0.2, 0.3, 0.4))
    first = generate(FamilySpec(seed=1, **spec))
    macaulay_hat(first)
    sorts = []
    sort = MonomialOrder.sort
    monkeypatch.setattr(MonomialOrder, "sort", lambda self, ms: sorts.append(1) or sort(self, ms))
    second = generate(FamilySpec(seed=2, **spec))
    mhat = macaulay_hat(second)
    assert [tuple(p.terms) for p in second.polys] == [tuple(p.terms) for p in first.polys]
    assert sorts == []
    assert second.compiled.layout is first.compiled.layout
    assert mhat.index is macaulay_hat(first).index


@pytest.mark.parametrize("shifted", [False, True])
def test_cached_structure_is_bit_equal_to_a_fresh_assembly(shifted):
    rng = np.random.default_rng(31)
    for first, second in family_pairs(shifted):
        macaulay_hat(first)
        assert_matches_reference(second)
        X = rng.standard_normal((3, second.d)) + 1j * rng.standard_normal((3, second.d))
        values, J = second.evaluate(X)
        cached = macaulay_hat(second).mat
        clear_caches()
        fresh = PolySystem(second.d, second.polys)
        fresh_values, fresh_J = fresh.evaluate(X)
        assert bits_equal(values, fresh_values)
        assert bits_equal(J, fresh_J)
        assert bits_equal(macaulay_hat(fresh).mat, cached)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_sparse_supports_match_the_reference(data):
    d = data.draw(st.integers(1, 3))
    k = data.draw(st.sampled_from([1, d]))
    monomial = st.tuples(*[st.integers(0, 3)] * d)
    coeff = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    supports = [data.draw(st.lists(monomial, max_size=6, unique=True)) for _ in range(k)]
    systems = [
        [MultiPoly(d, {m: data.draw(coeff) for m in sup}) for sup in supports] for _ in range(2)
    ]
    layouts = []
    for polys in systems:
        c = CompiledPolys.of(polys)
        layouts.append(c.layout)
        for got, want in zip((c.exps, c.coeffs, c.mask), reference_compiled(polys)):
            assert bits_equal(got, want)
        if k == d:
            degree = max(p.total_degree() for p in polys) + data.draw(st.integers(0, 1))
            assert_matches_reference(PolySystem(d, polys), degree)
    if [tuple(p.terms) for p in systems[0]] == [tuple(p.terms) for p in systems[1]]:
        assert layouts[0] is layouts[1]


def test_cached_arrays_are_read_only_and_labels_are_the_index_tuples():
    s = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5))
    c = s.compiled
    mhat = macaulay_hat(s)
    layout, index = c.layout, mhat.index
    for a in (c.exps, c.coeffs, c.mask, layout.place, layout.index, layout.used,
              index.positions, index.gather, index.up, index.candidates):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        c.coeffs[0, 0] = 1.0
    with pytest.raises(TypeError):
        polycore.monomial_positions(rho(s), 2)[(9, 9)] = 0
    # A matrix's labels are its shared index's: tuples and a read-only map,
    # so no caller can corrupt them for the next matrix.
    with pytest.raises(TypeError):
        index.row_labels[0] = ("h", (9, 9))
    with pytest.raises(AttributeError):
        index.col_labels.reverse()
    with pytest.raises(TypeError):
        index.columns[(9, 9)] = 0
    with pytest.raises(AttributeError):
        index.row_labels = ()
    monomials_up_to(rho(s), 2).append((9, 9))
    again = macaulay_hat(s)
    assert again.index is index
    mat, labels, cols = reference_macaulay(s, rho(s))
    assert index.row_labels == tuple(labels)
    assert index.col_labels == tuple(cols) == tuple(monomials_up_to(rho(s), 2))
    assert bits_equal(again.mat, mat)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_arithmetic_matches_the_validating_constructor(data):
    d = data.draw(st.integers(1, 3))
    monomial = st.tuples(*[st.integers(0, 3)] * d)
    coeff = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    a, b = (MultiPoly(d, data.draw(st.dictionaries(monomial, coeff, max_size=5))) for _ in range(2))
    t = np.array(data.draw(st.lists(coeff, min_size=d, max_size=d)), dtype=complex)
    c = data.draw(coeff)

    def results():
        return [a + b, a - b, -a, a * b, a * c, a.scale(c), a.differentiate(d - 1), a.translate(t)]

    fast = results()
    private = MultiPoly.__dict__["_of_terms"]
    try:
        MultiPoly._of_terms = classmethod(lambda cls, nvars, terms: cls(nvars, terms))
        slow = results()
    finally:
        MultiPoly._of_terms = private
    for p, q in zip(fast, slow):
        assert list(p.terms) == list(q.terms)
        assert bits_equal(list(p.terms.values()), list(q.terms.values()))


def test_translate_rejects_wrong_length_input():
    p = MultiPoly(2, {(1, 0): 1.0, (0, 2): 2.0})
    for t in [(1.0,), (1.0, 2.0, 3.0)]:
        with pytest.raises(ValueError):
            p.translate(t)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_translate_matches_the_variable_by_variable_expansion(data):
    d = data.draw(st.integers(1, 3))
    monomial = st.tuples(*[st.integers(0, 5)] * d)
    coeff = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    p = MultiPoly(d, data.draw(st.dictionaries(monomial, coeff, max_size=6)))
    real = st.floats(-10, 10, allow_nan=False).map(complex)
    kind = data.draw(st.sampled_from(["zero", "real", "complex"]))
    t = {
        "zero": [0.0] * d,
        "real": data.draw(st.lists(real, min_size=d, max_size=d)),
        "complex": data.draw(st.lists(coeff, min_size=d, max_size=d)),
    }[kind]
    for shift in (t, [-z for z in t]):
        assert_same_terms(p.translate(shift), reference_translate(p, shift))


def test_translate_matches_the_expansion_for_every_power_branch():
    # numpy rounds z**n by branch: n <= 3 unrolled, binary powering below
    # 100, the C library's cpow from 100 on.
    for e in (1, 2, 3, 4, 7, 8, 99, 100, 101):
        p = MultiPoly(2, {(e, 1): 1.5 - 0.5j, (0, e): 2.0})
        for t in [(0.97 + 0.11j, -0.3), (-0.0, 1.01j), (1 / 3, -1 / 3)]:
            assert_same_terms(p.translate(t), reference_translate(p, t))


def test_a_second_translate_of_a_support_builds_no_plan():
    p = MultiPoly(2, {(2, 0): 1.0, (1, 1): 0.5, (0, 1): -2.0})
    q = MultiPoly(2, {(2, 0): 3.0, (1, 1): -1.0j, (0, 1): 0.25})
    polycore._shift_plan.cache_clear()
    p.translate((0.3, -0.2))
    first = polycore._shift_plan.cache_info()
    q.translate((1.0, 2.0j))
    second = polycore._shift_plan.cache_info()
    assert (first.misses, first.hits) == (1, 0)
    assert (second.misses, second.hits) == (1, 1)


def test_translate_overflow_is_one_value_error_and_no_warning():
    cases = [
        (MultiPoly(2, {(2, 0): 1.0, (0, 1): 0.5}), (1e200, 1e200)),  # t**2 overflows
        (MultiPoly(1, {(1,): 1e300}), (1e10,)),  # a finite power, an overflowing product
        (MultiPoly(1, {(100,): 1.0}), (1e5,)),  # the C library's cpow overflows
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, t in cases:
            with pytest.raises(ValueError, match="shifted coefficients overflow"):
                p.translate(t)


def test_powers_round_as_numpy_scalar_powers():
    points = [0j, complex(-0.0, -0.0), complex(-0.0, 1.0), complex(1 / 3, -0.0),
              0.97 + 0.11j, 1e200 + 1e-200j, -1e-170j, complex(np.inf, 1.0)]
    with np.errstate(all="ignore"):
        for z in points:
            for n in range(102):
                want = np.complex128(z) ** n
                assert np.complex128(polycore._cpow(z, n)).tobytes() == want.tobytes()


def test_cofactor_plans_are_built_once_per_support_and_bounded():
    def grid(c):
        return [
            [MultiPoly(2, {(1, 0): c, (0, 0): 1.0}), MultiPoly(2, {(0, 1): 2.0})],
            [MultiPoly(2, {(0, 0): 3.0}), MultiPoly(2, {(1, 1): c, (0, 1): -1.0})],
        ]

    numkernel._cofactor_plan.cache_clear()
    poly_det(grid(1.5))
    poly_det(grid(-0.5j))
    info = numkernel._cofactor_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for k in range(polycore.SUPPORT_CACHE_SIZE + 10):
        assert poly_det([[MultiPoly(1, {(k,): 2.0})]]).terms == {(k,): 2.0 + 0j}
    info = numkernel._cofactor_plan.cache_info()
    assert info.maxsize == polycore.SUPPORT_CACHE_SIZE
    assert info.currsize == polycore.SUPPORT_CACHE_SIZE


def test_cofactor_plans_pack_monomials_up_to_64_bits():
    # The plan adds monomials as integers: 2^61 still packs, 2^62 (one more
    # bit for the mask rank) raises instead of wrapping around.
    assert poly_det([[MultiPoly(2, {(2**30, 2**31): 2.0})]]).terms == {(2**30, 2**31): 2.0 + 0j}
    assert poly_det([[MultiPoly(1, {(2**61,): 2.0})]]).terms == {(2**61,): 2.0 + 0j}
    with pytest.raises(ValueError, match="too large"):
        poly_det([[MultiPoly(1, {(2**62,): 2.0})]])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_cofactor_plan_makes_the_memoized_expansions_products(d):
    # On a grid of constants every polynomial product is one scalar product:
    # d * 2^(d-1) of them (6 * 32 = 192 at d = 6), not Leibniz's d! * d.
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    grid = [[MultiPoly(2, {(0, 0): A[i, j]}) for j in range(d)] for i in range(d)]
    det = poly_det(grid)
    _, levels = numkernel._cofactor_plan(2, tuple(tuple(tuple(q.terms) for q in row) for row in grid))
    assert sum(len(take) for take, *_ in levels) == d * 2 ** (d - 1)
    for take, minor, sign, put, _ in levels:
        assert not any(a.flags.writeable for a in (take, minor, sign, put))
    assert det.terms[(0, 0)] == pytest.approx(np.linalg.det(A), rel=1e-12)


def test_delta_plans_are_built_once_per_support_and_bounded(monkeypatch):
    compiled = []
    compile_plan = numkernel._cofactor_plan.__wrapped__
    monkeypatch.setattr(
        numkernel._cofactor_plan, "__wrapped__", lambda *args: compiled.append(args) or compile_plan(*args)
    )
    solvers._delta_plans.cache_clear()
    det_q_plans = numkernel._cofactor_plan.cache_info().currsize
    d = 3
    first, second = (
        generate(FamilySpec(family="orthogonal", d=d, sigma=sigma, seed=seed)) for sigma, seed in ((0.5, 1), (1e-2, 2))
    )
    solvers.solve(first, "mep")
    assert len(compiled) == d + 1  # Delta_0..Delta_d, one plan each
    meps = [solvers.mep_from_system(s) for s in (first, second)]
    patterns = [np.concatenate([np.ravel(W_i) for W_i in mep.W]) != 0 for mep in meps]
    assert np.array_equal(*patterns)
    solvers.solve(second, "mep")
    assert len(compiled) == d + 1
    info = solvers._delta_plans.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert numkernel._cofactor_plan.cache_info().currsize == det_q_plans  # no det Q entry taken
    # d = 1 with 3 x 3 blocks: V_11's nonzero pattern spells k + 1 in binary
    V0 = np.eye(3, dtype=complex)
    for k in range(polycore.SUPPORT_CACHE_SIZE + 10):
        V1 = np.array([(k + 1) >> b & 1 for b in range(9)], dtype=complex).reshape(3, 3) * (2 - 1j)
        deltas = solvers.operator_determinants(solvers.MultiParamEig(d=1, W=[(V0, V1)]))
        assert np.array_equal(deltas[0], V1) and np.array_equal(deltas[1], V0)
    info = solvers._delta_plans.cache_info()
    assert info.maxsize == polycore.SUPPORT_CACHE_SIZE
    assert info.currsize == polycore.SUPPORT_CACHE_SIZE

