"""Structure caches: compiled layouts and Macaulay index maps, built once per support.

The references below assemble the same arrays term by term, with no cache,
the way the library did before the structure was shared; cached output must
match them bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylab import FAMILIES, FamilySpec, MultiPoly, PolySystem, generate, monomials_up_to, rho
from polylab import macaulay, polycore
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


def assert_matches_reference(s, degree) -> None:
    c = s.compiled
    for got, want in zip((c.exps, c.coeffs, c.mask), reference_compiled(s.polys)):
        assert bits_equal(got, want)
    mhat = macaulay_hat(s, degree)
    mat, labels, cols = reference_macaulay(s, degree)
    assert bits_equal(mhat.mat, mat)
    assert mhat.row_labels == labels
    assert mhat.col_labels == cols


def clear_caches() -> None:
    polycore._compiled_layout.cache_clear()
    macaulay._macaulay_index.cache_clear()


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
    macaulay_hat(first, rho(first))
    sorts = []
    sort = MonomialOrder.sort
    monkeypatch.setattr(MonomialOrder, "sort", lambda self, ms: sorts.append(1) or sort(self, ms))
    second = generate(FamilySpec(seed=2, **spec))
    mhat = macaulay_hat(second, rho(second))
    assert [tuple(p.terms) for p in second.polys] == [tuple(p.terms) for p in first.polys]
    assert sorts == []
    assert second.compiled.layout is first.compiled.layout
    assert mhat.index is macaulay_hat(first, rho(first)).index


@pytest.mark.parametrize("shifted", [False, True])
def test_cached_structure_is_bit_equal_to_a_fresh_assembly(shifted):
    rng = np.random.default_rng(31)
    for first, second in family_pairs(shifted):
        macaulay_hat(first, rho(first))
        assert_matches_reference(second, rho(second))
        X = rng.standard_normal((3, second.d)) + 1j * rng.standard_normal((3, second.d))
        values, J = second.evaluate(X)
        cached = macaulay_hat(second, rho(second)).mat
        clear_caches()
        fresh = PolySystem(second.d, second.polys)
        fresh_values, fresh_J = fresh.evaluate(X)
        assert bits_equal(values, fresh_values)
        assert bits_equal(J, fresh_J)
        assert bits_equal(macaulay_hat(fresh, rho(fresh)).mat, cached)


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


def test_cached_arrays_are_read_only_and_label_lists_are_copies():
    s = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5))
    c = s.compiled
    mhat = macaulay_hat(s, rho(s))
    layout, index = c.layout, mhat.index
    for a in (c.exps, c.coeffs, c.mask, layout.place, layout.index, layout.used,
              index.positions, index.gather, index.up, index.candidates):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        c.coeffs[0, 0] = 1.0
    with pytest.raises(TypeError):
        polycore.monomial_positions(rho(s), 2)[(9, 9)] = 0
    mhat.row_labels[0] = ("h", (9, 9))
    mhat.row_labels.append(("h", (0, 0)))
    mhat.col_labels.reverse()
    monomials_up_to(rho(s), 2).append((9, 9))
    again = macaulay_hat(s, rho(s))
    mat, labels, cols = reference_macaulay(s, rho(s))
    assert again.row_labels == labels
    assert again.col_labels == cols == monomials_up_to(rho(s), 2)
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
