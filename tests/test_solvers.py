"""End-to-end rootfinders: normal form, resultant pencil, operator
determinants, and the two closed-form univariate reductions."""

import json
import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings
from hypothesis import strategies as st

from polylab import (
    FamilySpec,
    GenEigProblem,
    MultiParamEig,
    MultiPoly,
    NullityMismatch,
    NullSpaceGapWarning,
    PolySystem,
    RankDeficientBasis,
    SingularDelta0,
    UnsupportedShape,
    bezout_count,
    choose_basis,
    generalized_eig,
    generate,
    hausdorff_distance,
    kappa_eig,
    kappa_uni,
    macaulay_hat,
    macaulay_pencil,
    mep_from_system,
    newton_polish,
    operator_determinants,
    quotient_basis,
    solve,
    solve_gb_elimination_example,
    solve_macaulay_resultant,
    solve_mep_operator_determinants,
    solve_normal_form,
    solve_rur_example,
    true_root_error,
)
from polylab import bench, conditioning, numkernel
from polylab.bench import FIGURES
from polylab.conditioning import mep_operator
from polylab.macaulay import BasisSelection
from polylab.numkernel import SvdFactor, random_unit_vector
from polylab.polycore import CompiledPolys
from polylab.solvers import (
    EigenvectorDegenerate,
    _quadratic_representation,
    _roots_from_vectors,
)
from quotient_helpers import multiplication_matrices


def cyclic_truth(d, sigma, shift=0.0):
    """Closed-form roots of the cyclic-squares system."""
    roots = [np.full(d, shift, dtype=complex)]
    n = 2**d
    for k in range(n - 1):
        xs = [sigma * np.exp(2j * np.pi * k / (n - 1))]
        for _ in range(d - 1):
            xs.append(xs[-1] ** 2 / sigma)
        roots.append(np.array(xs) + shift)
    return roots


def test_newton_polish_contracts_toward_the_root():
    s = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5))
    target = np.asarray(s.true_roots[1], dtype=complex)
    x0 = target + 1e-4
    x1 = newton_polish(s, x0)
    assert np.linalg.norm(x1 - target) <= 1e-7
    assert np.linalg.norm(x1 - target) < np.linalg.norm(x0 - target)


def test_ms_matrices_commute_and_share_the_root_spectrum():
    s = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5))
    mats, sel = multiplication_matrices(s)
    basis = sel.monomials
    assert basis == [(0, 0), (1, 0), (0, 1), (1, 1)]
    comm = np.linalg.norm(mats[0] @ mats[1] - mats[1] @ mats[0], 2)
    assert comm <= 1e-12
    key = lambda z: (round(z.real, 8), round(z.imag, 8))
    got = sorted(np.linalg.eigvals(mats[0]), key=key)
    want = sorted((r[0] for r in cyclic_truth(2, 0.5)), key=key)
    assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-10


@pytest.mark.parametrize("method", ["nf", "macaulay"])
def test_a_positive_dimensional_system_raises_nullity_mismatch_without_warning(method):
    # x^2 and xy share the whole line x = 0: the Macaulay nullity exceeds the
    # Bezout count, and choose_basis says so before it reads the null space.
    s = PolySystem(
        2,
        [MultiPoly(2, {(2, 0): 1.0}), MultiPoly(2, {(1, 1): 1.0})],
        true_roots=[],
        family_tag="",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NullityMismatch):
            solve(s, method, rng=np.random.default_rng(0))


def test_normal_form_solver_recovers_all_cyclic_roots():
    s = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5))
    rep = solve_normal_form(s, rng=np.random.default_rng(2))
    assert rep.method_tag == "nf"
    assert len(rep.roots) == 4
    assert hausdorff_distance(rep.roots, cyclic_truth(2, 0.5)) <= 1e-8
    scale = s.coefficient_scale()
    assert max(rep.residuals) <= 1e-9 * scale
    assert len(rep.subproblem_kappa) == 4
    assert all(np.isfinite(k) for k in rep.subproblem_kappa)
    assert rep.diagnostics["basis"] == [[0, 0], [1, 0], [0, 1], [1, 1]]


def test_normal_form_solver_is_deterministic():
    s = generate(FamilySpec(family="cyclic_squares", d=3, sigma=0.4))
    a = solve_normal_form(s, rng=np.random.default_rng(9))
    b = solve_normal_form(s, rng=np.random.default_rng(9))
    assert hausdorff_distance(a.roots, b.roots) == 0.0


def test_polish_flag_sharpens_an_ill_conditioned_solve():
    s = generate(FamilySpec(family="notdev2d", d=2, sigma=1e-3, seed=2))
    raw = solve_normal_form(s, rng=np.random.default_rng(3))
    polished = solve_normal_form(s, rng=np.random.default_rng(3), polish=True)
    origin = [np.zeros(2, dtype=complex)]
    raw_err = true_root_error(raw, origin)
    pol_err = true_root_error(polished, origin)
    assert polished.diagnostics["polished"] is True
    assert pol_err <= raw_err
    assert pol_err <= 1e-12


@pytest.mark.parametrize("method", ["nf", "macaulay", "mep"])
def test_polish_leaves_the_subproblem_kappa_of_the_eigenvalues(method):
    for family in ("permutation", "orthogonal"):
        for d in (2, 3):
            shift = tuple(0.1 * (i + 1) for i in range(d))
            s = generate(FamilySpec(family=family, d=d, sigma=0.1, seed=5, shift=shift))
            raw = solve(s, method, rng=np.random.default_rng(6))
            polished = solve(s, method, rng=np.random.default_rng(6), polish=True)
            assert polished.subproblem_kappa == raw.subproblem_kappa
            if method == "mep":
                per_coord = polished.diagnostics["kappa_per_coordinate"]
                assert per_coord == raw.diagnostics["kappa_per_coordinate"]
            assert polished.diagnostics["polished"] is True


def test_macaulay_solver_square_path_bivariate():
    s = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5))
    rep = solve_macaulay_resultant(s, rng=np.random.default_rng(4))
    assert rep.method_tag == "macaulay"
    assert rep.diagnostics["square"] is True
    assert hausdorff_distance(rep.roots, cyclic_truth(2, 0.5)) <= 1e-8


def test_macaulay_solver_reduced_path_trivariate():
    s = generate(FamilySpec(family="cyclic_squares", d=3, sigma=0.5))
    rep = solve_macaulay_resultant(s, rng=np.random.default_rng(7))
    assert rep.diagnostics["square"] is False
    assert len(rep.roots) == 8
    assert hausdorff_distance(rep.roots, cyclic_truth(3, 0.5)) <= 1e-8


def test_macaulay_solver_filters_near_infinite_stragglers():
    # tiny sigma pushes the infinite eigenvalues' |beta| far above rounding
    # level; the Bezout count and the beta-ratio gap must still deliver
    # exactly 4 roots
    target = np.array([1 / 3, 1 / 3], dtype=complex)
    for sigma in (1e-3, 1e-4):
        for seed in range(20):
            s = generate(
                FamilySpec(family="notdev2d", d=2, sigma=sigma, seed=seed, shift=(1 / 3, 1 / 3))
            )
            rep = solve_macaulay_resultant(s, rng=np.random.default_rng(seed))
            assert len(rep.roots) == 4
            best = min(np.linalg.norm(np.asarray(r) - target) for r in rep.roots)
            assert best <= 1e-4


def test_macaulay_solver_rejects_positive_dimensional_systems():
    s = PolySystem(
        2,
        [MultiPoly(2, {(2, 0): 1.0}), MultiPoly(2, {(1, 1): 1.0})],
        true_roots=[],
        family_tag="",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NullityMismatch):
            solve_macaulay_resultant(s, rng=np.random.default_rng(0))


def test_determinantal_representation_matches_the_polynomial():
    rng = np.random.default_rng(71)
    p = MultiPoly(2, {(2, 0): 1.5, (1, 0): 0.3, (0, 1): -0.7, (0, 0): 0.2})
    rep = _quadratic_representation(p)
    assert len(rep) == 3 and rep[0].shape == (2, 2)
    for _ in range(10):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        det = np.linalg.det(mep_operator(rep, x))
        assert abs(det - p.eval(x)) <= 1e-10 * (1 + abs(p.eval(x)))


def determinantal_identity_holds(compiled, reps, rng):
    """det W_i(x) = p_i(x) at 20 random complex points, for every row i of compiled."""
    d = len(reps[0]) - 1
    X = rng.standard_normal((20, d)) + 1j * rng.standard_normal((20, d))
    dets = np.array([[np.linalg.det(mep_operator(rep, x)) for rep in reps] for x in X])
    vals = compiled.eval(X)[0]
    reach = 1 + np.abs(X).max(axis=1, keepdims=True) ** 2
    return bool(np.all(np.abs(dets - vals) <= 1e-10 * (1 + np.abs(vals)) * reach))


def test_determinantal_self_check_covers_every_template():
    # every template shape at d = 1..3: each squared variable, with and
    # without linear and constant terms; mep_from_system relies on these
    # holding by algebra and no longer checks them per call
    rng = np.random.default_rng(0xD57)
    for d in (1, 2, 3):
        for i in range(d):
            for linear in (False, True):
                for constant in (False, True):
                    terms = {tuple(2 * (k == i) for k in range(d)): 1.5 - 0.5j}
                    if linear:
                        for j in range(d):
                            terms[tuple(int(k == j) for k in range(d))] = 0.3 * (j + 1) - 0.2j
                    if constant:
                        terms[(0,) * d] = -0.7
                    p = MultiPoly(d, terms)
                    rep = _quadratic_representation(p)
                    assert len(rep) == d + 1 and all(V.shape == (2, 2) for V in rep)
                    assert determinantal_identity_holds(CompiledPolys.of([p]), [rep], rng)
                    # the probe is sharp enough to see one wrong block entry
                    for k in range(d + 1):
                        bad = list(rep)
                        bad[k] = rep[k] + np.array([[0.0, 0.25], [0.0, 0.0]])
                        assert not determinantal_identity_holds(CompiledPolys.of([p]), [tuple(bad)], rng)
    # every representation mep_from_system builds, against the system's compiled form
    s = generate(FamilySpec(family="orthogonal", d=3, sigma=0.1, shift=(0.2, -0.1, 0.3)))
    reps = list(mep_from_system(s).W)
    assert determinantal_identity_holds(s.compiled, reps, rng)
    reps[1] = (reps[1][0] + np.array([[0.0, 0.25], [0.0, 0.0]]),) + reps[1][1:]
    assert not determinantal_identity_holds(s.compiled, reps, rng)


def test_mep_from_system_evaluates_no_polynomial(monkeypatch):
    calls = []
    real_eval = CompiledPolys.eval

    def counting_eval(self, *args, **kwargs):
        calls.append(self)
        return real_eval(self, *args, **kwargs)

    monkeypatch.setattr(CompiledPolys, "eval", counting_eval)
    s = generate(FamilySpec(family="orthogonal", d=3, sigma=0.1, shift=(0.2, -0.1, 0.3)))
    calls.clear()
    mep_from_system(s)
    assert calls == []


def test_determinantal_representation_rejects_unsupported_shapes():
    with pytest.raises(UnsupportedShape):
        _quadratic_representation(MultiPoly(2, {(1, 1): 1.0}))
    with pytest.raises(UnsupportedShape):
        _quadratic_representation(MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0}))
    with pytest.raises(UnsupportedShape):
        _quadratic_representation(MultiPoly(2, {(1, 0): 1.0, (0, 1): 1.0}))
    with pytest.raises(UnsupportedShape):
        _quadratic_representation(MultiPoly(1, {(3,): 1.0}))


def test_mep_from_system_requires_pivotable_quadratics():
    s = generate(FamilySpec(family="notdev2d", d=2, sigma=0.1, seed=1))
    with pytest.raises(UnsupportedShape):
        mep_from_system(s)


def test_operator_determinants_on_separable_system():
    # x^2 = 1 and y^2 = 1 decouple: the x-pencil spectrum is {1, -1}, twice
    s = PolySystem(
        2,
        [MultiPoly(2, {(2, 0): 1.0, (0, 0): -1.0}), MultiPoly(2, {(0, 2): 1.0, (0, 0): -1.0})],
        true_roots=[],
        family_tag="",
    )
    deltas = operator_determinants(mep_from_system(s))
    assert len(deltas) == 3
    ev = np.sort(np.linalg.eigvals(np.linalg.solve(deltas[0], deltas[1])).real)
    assert np.allclose(ev, [-1.0, -1.0, 1.0, 1.0], atol=1e-10)


def test_operator_determinants_share_one_expansion():
    # Each entry of Delta_k is the determinant of the d x d matrix
    # [V_ij[a_i, b_i]] of the block entries it multiplies out: on dense
    # blocks of sizes 1 and 2, on the same blocks with zero entries, and
    # with one W_i all zero (a grid row with no entry: every Delta_k is 0)
    rng = np.random.default_rng(29)
    for d in range(1, 6):
        sizes = [int(n) for n in rng.integers(1, 3, size=d)]
        W = [
            tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(d + 1))
            for n in sizes
        ]
        zeros = np.random.default_rng(d)
        sparse = [tuple(np.where(zeros.random(M.shape) < 0.4, 0, M) for M in W_i) for W_i in W]
        zero_row = int(zeros.integers(d))
        blank = [tuple(0 * M for M in W_i) if i == zero_row else W_i for i, W_i in enumerate(sparse)]
        idx = np.unravel_index(np.arange(int(np.prod(sizes))), sizes)
        for blocks in (W, sparse, blank):
            mep = MultiParamEig(d=d, W=blocks)
            for k, delta in enumerate(operator_determinants(mep)):
                grid = [[W_i[0] if j == k else W_i[j] for j in range(1, d + 1)] for W_i in mep.W]
                entries = np.stack(
                    [
                        np.stack([G[idx[i][:, None], idx[i][None, :]] for G in row], axis=-1)
                        for i, row in enumerate(grid)
                    ],
                    axis=-2,
                )
                want = np.linalg.det(entries)
                np.testing.assert_allclose(delta, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
                assert blocks is not blank or not delta.any()


def test_mep_solver_recovers_all_cyclic_roots():
    s = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5))
    rep = solve_mep_operator_determinants(s)
    assert rep.method_tag == "mep"
    assert hausdorff_distance(rep.roots, cyclic_truth(2, 0.5)) <= 1e-6
    assert max(rep.residuals) <= 1e-8


def test_mep_solver_rejects_singular_delta0():
    # a pivot coefficient of 1e-20 leaves Delta_0 singular to working precision
    s = PolySystem(
        d=2,
        polys=[
            MultiPoly(2, {(2, 0): 1e-20, (1, 0): 1.0, (0, 1): 0.5}),
            MultiPoly(2, {(0, 2): 1.0, (0, 1): 1.0, (1, 0): 0.3}),
        ],
        true_roots=[],
        family_tag="",
    )
    with pytest.raises(SingularDelta0):
        solve_mep_operator_determinants(s)


@pytest.mark.parametrize("d, sigma", [(2, 1e160), (3, 1e250)])
@pytest.mark.filterwarnings("error")
def test_mep_solver_labels_an_overflowing_delta(d, sigma):
    # sigma is each linear coefficient, and an entry of Delta_0 multiplies
    # up to d of them; at d = 3 the overflow also leaves NaN entries
    s = generate(FamilySpec(family="permutation", d=d, sigma=sigma))
    with pytest.raises(np.linalg.LinAlgError, match="Delta_0 is not finite"):
        solve_mep_operator_determinants(s)


def test_solve_dispatches_to_each_solver_bit_for_bit():
    s = generate(FamilySpec(family="permutation", d=3, sigma=0.05, seed=3, shift=(0.2, -0.1, 0.4)))
    direct = {
        "nf": solve_normal_form(s, rng=np.random.default_rng(8)),
        "macaulay": solve_macaulay_resultant(s, rng=np.random.default_rng(8)),
        "mep": solve_mep_operator_determinants(s),
    }
    for method, want in direct.items():
        got = solve(s, method, rng=np.random.default_rng(8))
        assert got.method_tag == method
        assert np.array_equal(np.array(got.roots), np.array(want.roots))
        for field in ("residuals", "kappa_root", "subproblem_kappa"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
    with pytest.raises(ValueError, match="unknown method"):
        solve(s, "gb")


def test_multiparam_eig_validates_block_shapes():
    with pytest.raises(ValueError):
        MultiParamEig(d=2, W=[(np.eye(2), np.eye(2), np.eye(2))])
    with pytest.raises(ValueError):
        MultiParamEig(d=1, W=[(np.eye(2), np.eye(3))])


def test_gb_elimination_polynomial_is_exact():
    g, rep = solve_gb_elimination_example(2, 0.1)
    assert np.array_equal(g, np.array([0.0, -(0.1**3), 0.0, 0.0, 1.0], dtype=complex))
    assert npoly.polyval(0.0, npoly.polyder(g)) == -(0.1**3)
    assert rep.kappa_root == [10.0]
    assert rep.subproblem_kappa[0] == 1.0 / 0.1**3
    assert rep.diagnostics["error"] <= 1e-12
    assert len(rep.diagnostics["all_roots"]) == 4


def test_gb_elimination_with_shifted_root():
    g, rep = solve_gb_elimination_example(3, 0.1, shift=1 / 3)
    assert abs(npoly.polyval(1 / 3, g)) <= 1e-14
    assert rep.diagnostics["error"] <= 1e-9
    assert abs(rep.roots[0][0] - 1 / 3) == rep.diagnostics["error"]


def test_gb_elimination_flags_underflow():
    with pytest.warns(RuntimeWarning):
        g, rep = solve_gb_elimination_example(6, 1e-6)
    assert rep.diagnostics["underflow"] is True
    assert rep.subproblem_kappa[0] == np.inf


def test_gb_elimination_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        solve_gb_elimination_example(2, 0.0)


def test_rur_t_values_follow_the_sign_patterns():
    u = np.array([0.8, 0.6])
    f, rep = solve_rur_example(2, 4.0, u)
    a = 1.0 / (4.0 * np.sqrt(2))
    want = sorted(a * (s1 * 0.8 + s2 * 0.6) for s1 in (1, -1) for s2 in (1, -1))
    got = sorted(t.real for t in rep.diagnostics["t_values"])
    assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-14
    assert rep.diagnostics["t_star"] == pytest.approx(a * 1.4)
    assert rep.kappa_root == [4.0 * np.sqrt(2) / 2.0]
    assert rep.subproblem_kappa[0] == pytest.approx(33.671751485073706, rel=1e-9)
    assert f.shape == (5,) and f[-1] == 1.0


@pytest.mark.parametrize("d", range(1, 7))
def test_rur_t_values_are_the_old_sign_loop_bit_for_bit(d):
    rng = np.random.default_rng(70 + d)
    for shift in (None, rng.standard_normal(d) + 1j * rng.standard_normal(d)):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        c = 10.0 ** rng.uniform(0.0, 6.0)
        _, rep = solve_rur_example(d, c, u, shift=shift)
        a = 1.0 / (c * math.sqrt(d))
        offset = 0j if shift is None else complex(u @ shift)
        want = []
        for mask in range(2**d):
            signs = np.array([1.0 if not mask & (1 << j) else -1.0 for j in range(d)])
            want.append(a * float(signs @ u) + offset)
        assert rep.diagnostics["t_values"].tobytes() == np.array(want, dtype=complex).tobytes()


def _old_unipoly_read_out(coeffs, target):
    """The removed UniPoly read-out written out: trim trailing zeros, companion roots, nearest root.

    Returns the trimmed coefficients, all roots, the nearest root, its residual and its error.
    """
    c = np.asarray(coeffs, dtype=complex)
    nz = np.nonzero(c)[0]
    c = c[: nz[-1] + 1] if nz.size else np.zeros(1, dtype=complex)
    n = c.size - 1
    monic = c / c[-1]
    C = np.zeros((n, n), dtype=complex)
    if n > 1:
        C[1:, :-1] = np.eye(n - 1)
    C[:, -1] = -monic[:-1]
    roots = np.linalg.eigvals(C)
    xhat = complex(roots[int(np.argmin(np.abs(roots - target)))])
    return c, roots, xhat, abs(complex(npoly.polyval(complex(xhat), c))), abs(xhat - target)


def _assert_read_out_is(rep, roots, xhat, residual, error):
    assert rep.roots[0].tobytes() == np.array([xhat]).tobytes()
    assert type(rep.residuals[0]) is float and rep.residuals[0].hex() == residual.hex()
    assert type(rep.diagnostics["error"]) is float and rep.diagnostics["error"].hex() == error.hex()
    assert rep.diagnostics["all_roots"].tobytes() == roots.tobytes()


@pytest.mark.parametrize("d", range(1, 7))
def test_gb_report_is_the_old_unipoly_read_out_bit_for_bit(d):
    n = 2**d
    for sigma in (1e-8, 1e-4, 1e-2, 0.1, 0.5, 1.0, 3.0):
        for shift in (0.0, 1 / 3, 0.3 - 0.2j, -2.0):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                g, rep = solve_gb_elimination_example(d, sigma, shift=shift)
            sig_pow = sigma ** (n - 1)
            base = np.array([-complex(shift), 1.0], dtype=complex)
            c, roots, xhat, residual, error = _old_unipoly_read_out(
                npoly.polysub(npoly.polypow(base, n), sig_pow * base), complex(shift)
            )
            assert g.tobytes() == c.tobytes()
            _assert_read_out_is(rep, roots, xhat, residual, error)
            assert rep.kappa_root == [1.0 / sigma]
            assert rep.subproblem_kappa == [math.inf if sig_pow == 0.0 else 1.0 / sig_pow]
            assert rep.diagnostics["underflow"] is (sig_pow == 0.0)
            assert len(caught) == (sig_pow == 0.0)


@pytest.mark.parametrize("d", range(1, 8))
def test_rur_report_is_the_old_unipoly_read_out_bit_for_bit(d):
    rng = np.random.default_rng(290 + d)
    for c in (0.5, 1.0, 2.0, 4.0, 1e3, 1e8):
        for shift in (None, np.full(d, 1 / 3), rng.standard_normal(d) + 1j * rng.standard_normal(d)):
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                f, rep = solve_rur_example(d, c, u, shift=shift)
            tvals, tstar = rep.diagnostics["t_values"], rep.diagnostics["t_star"]
            coeffs, roots, xhat, residual, error = _old_unipoly_read_out(
                npoly.polyfromroots(np.asarray(tvals, dtype=complex)), tstar
            )
            assert f.tobytes() == coeffs.tobytes()
            _assert_read_out_is(rep, roots, xhat, residual, error)
            assert rep.kappa_root == [c * math.sqrt(d) / 2.0]
            # kappa_uni itself is checked against the old expression in test_conditioning.
            try:
                k_uni = kappa_uni(coeffs, tstar)
            except conditioning.MultipleRoot:
                k_uni = math.inf
            assert rep.subproblem_kappa[0].hex() == k_uni.hex()


def test_rur_warns_when_the_form_fails_to_separate():
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    with pytest.warns(RuntimeWarning):
        f, rep = solve_rur_example(2, 4.0, u)
    assert rep.diagnostics["collisions"] >= 2


def test_rur_collision_check_is_relative_to_the_t_values():
    # Fig 1d at c = 1e8: the t-values sit within ~1e-8 of an offset near
    # 0.5 but are separated far above its rounding, so no trial of the
    # seed-1 sweep may warn.
    spec = FIGURES["1d"]
    idx = spec.values.index(1e8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for trial in range(spec.n_trials):
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, idx, trial]))
            bench._trial_error(spec, 1e8, rng)
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    with pytest.warns(RuntimeWarning):
        _, rep = solve_rur_example(2, 1e8, u, shift=(1 / 3, 1 / 3))
    assert rep.diagnostics["collisions"] >= 2


def test_rur_input_validation():
    with pytest.raises(ValueError):
        solve_rur_example(11, 4.0, np.ones(11) / np.sqrt(11))
    with pytest.raises(ValueError):
        solve_rur_example(2, 4.0, np.array([0.8, 0.6, 0.1]))
    with pytest.raises(ValueError):
        solve_rur_example(2, 4.0, np.array([1.2, 0.9]))


def test_hausdorff_distance_basics():
    a = [np.array([0.0, 0.0]), np.array([1.0, 0.0])]
    b = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 2.0])]
    assert hausdorff_distance(a, a) == 0.0
    assert hausdorff_distance(a, b) == pytest.approx(2.0)
    assert hausdorff_distance(a, []) == np.inf


def _pairwise_loop_hausdorff(roots_a, roots_b):
    A = [np.asarray(r, dtype=complex) for r in roots_a]
    B = [np.asarray(r, dtype=complex) for r in roots_b]
    if not A or not B:
        return math.inf

    def one_sided(P, Q):
        return max(min(float(np.linalg.norm(p - q)) for q in Q) for p in P)

    return max(one_sided(A, B), one_sided(B, A))


@pytest.mark.parametrize("na, nb, d", [(1, 1, 1), (4, 7, 2), (9, 3, 3), (16, 16, 4), (0, 3, 2), (3, 0, 2), (0, 0, 2)])
def test_hausdorff_distance_equals_the_pairwise_loop_bit_for_bit(na, nb, d):
    rng = np.random.default_rng(100 * na + 10 * nb + d)

    def points(n):
        scale = 10.0 ** rng.uniform(-8.0, 8.0, (n, 1))
        return list(scale * (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))))

    A, B = points(na), points(nb)
    for a, b in ((A, B), (B, A), (A, A + B)):
        got = hausdorff_distance(a, b)
        assert type(got) is float and got.hex() == _pairwise_loop_hausdorff(a, b).hex()


def test_root_report_serializes_to_json():
    s = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5))
    rep = solve_macaulay_resultant(s, rng=np.random.default_rng(4))
    blob = json.dumps(rep.to_json_dict())
    back = json.loads(blob)
    assert back["method_tag"] == "macaulay"
    assert len(back["roots"]) == 4
    assert all(len(r) == 2 and len(r[0]) == 2 for r in back["roots"])
    # The condition numbers, computed on first read, serialize as lists in their places.
    assert list(back) == ["roots", "residuals", "kappa_root", "subproblem_kappa", "method_tag", "diagnostics"]
    assert len(back["kappa_root"]) == len(back["subproblem_kappa"]) == 4


def _eager_subproblem_kappa(s, method, report):
    """subproblem_kappa as the solvers computed it before it was computed on first read."""
    if method == "nf":
        sel = quotient_basis(s)
        mats = sel.multiplication_matrices()
        u = np.array(report.diagnostics["driver"])
        Mt = sum(u[i] * mats[i] for i in range(s.d))
        gep = GenEigProblem(A=Mt, B=np.eye(len(sel.indices), dtype=complex))
        return kappa_eig(gep, generalized_eig(gep)).tolist()
    if method == "macaulay":
        pencil = macaulay_pencil(s, np.random.default_rng(3))
        r = len(pencil.basis.indices)
        pairs = generalized_eig(pencil.gep)
        if len(pairs) > r:
            order = np.argsort(-pairs.beta_ratio, kind="stable")
            pairs = pairs.take(order[:r])
        return kappa_eig(pencil.gep, pairs).tolist()
    return np.array(report.diagnostics["kappa_per_coordinate"]).max(axis=1).tolist()


def _spy(monkeypatch, owner, name):
    """Record the positional arguments of every call of owner.name from now on."""
    calls = []
    original = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("method", ["nf", "macaulay", "mep"])
@pytest.mark.parametrize("d", [2, 3])  # the Macaulay pencil is square at d = 2, compressed at 3
def test_condition_numbers_are_computed_on_first_read_bit_for_bit(monkeypatch, method, d):
    s = generate(FamilySpec(family="orthogonal", d=d, sigma=1e-2, shift=(0.3, -0.2, 0.1)[:d]))
    qz = _spy(monkeypatch, numkernel, "_zggev")
    svd = _spy(monkeypatch, conditioning, "kappa_roots")
    report = solve(s, method, rng=np.random.default_rng(3))
    # One QZ per solve; only mep's Rayleigh quotients read left vectors.
    assert [left for _, _, left in qz] == [method == "mep"] and not svd
    if method == "macaulay":
        assert report.diagnostics["square"] == (d == 2)
    for _ in range(2):
        kappa_root, subproblem_kappa = report.kappa_root, report.subproblem_kappa
        assert len(svd) == 1
        # A second read reuses the first read's lists.
        assert [left for _, _, left in qz[1:]] == ([] if method == "mep" else [True])
    _, J = s.evaluate(report.roots)
    assert np.array(kappa_root).tobytes() == conditioning.kappa_roots(J).tobytes()
    want = _eager_subproblem_kappa(s, method, report)
    assert np.array(subproblem_kappa).tobytes() == np.array(want).tobytes()
    assert len(subproblem_kappa) == len(kappa_root) == len(report.roots) == bezout_count(s)


@pytest.mark.parametrize("method", ["nf", "macaulay", "mep"])
def test_a_jacobian_with_a_nan_raises_at_solve_time(monkeypatch, method):
    # The stacked SVD of kappa_root raised "SVD did not converge" on a NaN,
    # which a sweep scores as a failed trial; an inf entry scores inf.
    s = generate(FamilySpec(family="orthogonal", d=2, sigma=1e-2, shift=(0.3, -0.2)))
    evaluate = PolySystem.evaluate
    bad = [np.nan]

    def poisoned(self, points):
        values, J = evaluate(self, points)
        J = J.copy()
        J[-1, 0, 1] = bad[0]
        return values, J

    monkeypatch.setattr(PolySystem, "evaluate", poisoned)
    with pytest.raises(np.linalg.LinAlgError, match="NaN"):
        solve(s, method, rng=np.random.default_rng(3))
    bad[0] = complex(0.0, np.nan)
    with pytest.raises(np.linalg.LinAlgError, match="NaN"):
        solve(s, method, rng=np.random.default_rng(3))
    bad[0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve(s, method, rng=np.random.default_rng(3))
        assert report.kappa_root[-1] == math.inf
        assert all(math.isfinite(k) for k in report.kappa_root[:-1])


@pytest.mark.parametrize("solve", [solve_normal_form, solve_macaulay_resultant])
def test_one_build_and_one_factorization_per_macaulay_solve(monkeypatch, solve):
    import polylab.macaulay

    s = generate(FamilySpec(family="orthogonal", d=3, sigma=1e-2, shift=(0.3, -0.2, 0.1)))
    # Every Macaulay matrix, macaulay_hat's or quotient_basis's, is one scatter.
    built = []
    original_scatter = polylab.macaulay._scatter

    def counting_scatter(*args):
        mat = original_scatter(*args)
        built.append(mat.shape)
        return mat

    monkeypatch.setattr(polylab.macaulay, "_scatter", counting_scatter)
    factored = []
    original_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        factored.append(np.shape(a))
        return original_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    report = solve(s, rng=np.random.default_rng(3))
    assert len(report.roots) == bezout_count(s)
    assert len(built) == 1
    assert factored.count(built[0]) == 1


def _counting_factorizations(monkeypatch):
    """The shapes of the matrices SvdFactor factors from now on.

    SvdFactor.of and quotient_basis both factor through SvdFactor._in_place.
    """
    factored = []
    original = SvdFactor._in_place

    def counting(A):
        factored.append(np.shape(A))
        return original(A)

    monkeypatch.setattr(SvdFactor, "_in_place", staticmethod(counting))
    return factored


@pytest.mark.parametrize("d", [2, 3])  # square, then compressed Macaulay pencil
def test_nf_and_macaulay_share_one_factorization_per_system(monkeypatch, d):
    s = generate(FamilySpec(family="orthogonal", d=d, sigma=1e-2, shift=(0.3, -0.2, 0.1)[:d]))
    factored = _counting_factorizations(monkeypatch)
    reports = [solve(s, method, rng=np.random.default_rng(3)) for method in ("nf", "macaulay", "nf")]
    assert factored == [macaulay_hat(s).mat.shape]
    # Each report is byte-equal to a solve of a fresh copy, which factors its own.
    for method, report in zip(("nf", "macaulay", "nf"), reports):
        copy = PolySystem.from_json_dict(s.to_json_dict())
        fresh = solve(copy, method, rng=np.random.default_rng(3))
        assert json.dumps(report.to_json_dict()) == json.dumps(fresh.to_json_dict())
    assert len(factored) == 1 + len(reports)
    assert quotient_basis(s) is quotient_basis(s)
    assert not quotient_basis(s).nullspace.flags.writeable


def test_a_failed_quotient_basis_raises_on_every_call():
    # Fig 5 at sigma = 1 has a root at infinity: the basis rows are rank
    # deficient. The failure is not kept, so each method raises its own.
    spec = FIGURES["5"]
    idx = spec.values.index(1.0)
    s = generate(bench._family_spec(spec, 1.0), rng=np.random.default_rng(np.random.SeedSequence([1, idx, 0])))
    for method in ("nf", "nf", "macaulay"):
        with pytest.raises(RankDeficientBasis):
            solve(s, method, rng=np.random.default_rng(3))
    assert "_quotient_basis" not in vars(s)


def test_a_weak_null_space_gap_warns_on_every_call():
    # notdev3d's Macaulay matrix has one singular value near 0.54 sigma above
    # its null space. At sigma = 2.8e-14 it sits above the nullity tolerance
    # (1.35e-14) but less than 1e2 times the largest null singular value
    # (1.7e-16), the middle of that window.
    s = generate(FamilySpec(family="notdev3d", d=3, sigma=2.8e-14), rng=np.random.default_rng(0))
    for method in ("nf", "nf", "macaulay"):
        with pytest.warns(NullSpaceGapWarning, match="weak null space separation") as caught:
            try:
                solve(s, method, rng=np.random.default_rng(3))
            except bench.SOLVER_FAILURES:
                pass
        assert len([w for w in caught if w.category is NullSpaceGapWarning]) == 1
    assert "_quotient_basis" in vars(s)


def test_a_macaulay_solve_draws_its_divisors_once():
    # alpha and beta take exactly 4 (d + 1) standard normals from the rng.
    for d in (2, 3):
        s = generate(FamilySpec(family="orthogonal", d=d, sigma=0.1, seed=4))
        rng = np.random.default_rng(6)
        report = solve_macaulay_resultant(s, rng)
        assert len(report.roots) == bezout_count(s)
        assert report.diagnostics["square"] == (d == 2)
        fresh = np.random.default_rng(6)
        fresh.standard_normal(4 * (d + 1))
        assert rng.standard_normal() == fresh.standard_normal()


def _cutoff_and_straggler_rule(pairs, r):
    """Reference finite set of a Macaulay pencil's QZ pairs, or the failure class.

    An absolute cutoff |beta| <= 1e-12 (|alpha| + |beta|) marks a pair
    infinite; a square pencil's remaining pairs are sorted by beta ratio and
    stragglers six orders below the r-th are cut; any count but r fails.
    """
    finite = [(ratio, lam) for ratio, lam in zip(pairs.beta_ratio, pairs.lam.tolist()) if ratio > 1e-12]
    if len(pairs) > r:
        finite.sort(key=lambda t: -t[0])
        if len(finite) > r and finite[r][0] <= 1e-6 * finite[r - 1][0]:
            finite = finite[:r]
    return [lam for _, lam in finite] if len(finite) == r else "NullityMismatch"


def test_the_bezout_rule_keeps_the_cutoff_and_straggler_rules_eigenvalues(monkeypatch):
    # Every fig 1g trial and the fig 4b sigma = 1e-8 trials, six of which fail.
    import polylab.solvers

    seen = []
    kept = []
    eig, solver = polylab.solvers.generalized_eig, polylab.solvers.solve_macaulay_resultant

    def recording_eig(gep, left=True):
        seen.append(eig(gep, left))
        return seen[-1]

    def recording_solver(*args, **kwargs):
        report = solver(*args, **kwargs)
        kept.append(report.diagnostics["eigenvalues"])
        return report

    monkeypatch.setattr(polylab.solvers, "generalized_eig", recording_eig)
    monkeypatch.setattr(polylab.solvers, "solve_macaulay_resultant", recording_solver)
    points = [(FIGURES["1g"], idx, x) for idx, x in enumerate(FIGURES["1g"].values)]
    points.append((FIGURES["4b"], 0, FIGURES["4b"].values[0]))
    failures = 0
    for spec, idx, x in points:
        for trial in range(spec.n_trials):
            seen.clear()
            kept.clear()
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, idx, trial]))
            try:
                bench._trial_error(spec, x, rng)
                got = kept[0]
            except bench.SOLVER_FAILURES as exc:
                got = type(exc).__name__
            want = _cutoff_and_straggler_rule(seen[0], 4) if seen else got
            assert got == want, (spec.name, x, trial)
            failures += isinstance(got, str)
    assert failures == 6
def test_nullity_mismatch_is_one_class_exported_everywhere():
    import polylab
    import polylab.macaulay
    import polylab.solvers

    assert polylab.solvers.NullityMismatch is polylab.macaulay.NullityMismatch
    assert polylab.NullityMismatch is polylab.macaulay.NullityMismatch
    assert polylab.macaulay.NullityMismatch in bench.SOLVER_FAILURES


# ---------------------------------------------------------------------------
# the stacked eigenpair read-outs against per-pair loops


def _kappa_eig_loop(gep, pairs, k):
    if pairs.infinite[k]:
        return math.inf
    y, x = pairs.left[k], pairs.right[k]
    denom = abs(y @ gep.B @ x)
    if denom == 0.0:
        return math.inf
    num = float(np.linalg.norm(y)) * float(np.linalg.norm(x))
    return num / denom * (1.0 + abs(complex(pairs.lam[k])))


def _nf_loop(s):
    mhat = macaulay_hat(s)
    sel = choose_basis(mhat)
    N = sel.nullspace
    NB = N[sel.indices, :]
    mats = [np.linalg.solve(NB.T, N[mhat.index.up[i, sel.indices], :].T) for i in range(s.d)]
    u = random_unit_vector(s.d, np.random.default_rng(1))
    gep = GenEigProblem(A=sum(u[i] * mats[i] for i in range(s.d)), B=np.eye(mhat.bezout, dtype=complex))
    pairs = generalized_eig(gep)
    roots, kappas = [], []
    for k in range(len(pairs)):
        w = pairs.right[k]
        wc = w.conj()
        ww = wc @ w
        roots.append(np.array([(wc @ mats[i] @ w) / ww for i in range(s.d)]))
        kappas.append(_kappa_eig_loop(gep, pairs, k))
    return roots, kappas, {}


def _root_from_vector_loop(v, index):
    mag2 = {k: v[k].real * v[k].real + v[k].imag * v[k].imag for k in index.candidates}
    # max keeps the first of equal entries, as argmax does.
    m = max(mag2, key=mag2.get)
    if mag2[m] == 0.0:
        raise EigenvectorDegenerate("eigenvector is zero below the top degree")
    return np.array([v[index.up[i, m]] / v[m] for i in range(index.up.shape[0])])


def _macaulay_loop(s):
    pencil = macaulay_pencil(s, np.random.default_rng(1))
    r = len(pencil.basis.indices)
    pairs = generalized_eig(pencil.gep)
    kept = list(range(len(pairs)))
    if len(kept) > r:
        kept.sort(key=lambda k: -pairs.beta_ratio[k])
        if pairs.beta_ratio[kept[r]] > 1e-6 * pairs.beta_ratio[kept[r - 1]]:
            raise NullityMismatch("no beta-ratio gap")
        del kept[r:]
    if any(pairs.infinite[k] for k in kept):
        raise NullityMismatch("a kept eigenvalue is infinite")
    roots, kappas = [], []
    for k in kept:
        v = pairs.right[k] if pencil.Z is None else pencil.Z @ pairs.right[k]
        roots.append(_root_from_vector_loop(v, pencil.basis.index))
        kappas.append(_kappa_eig_loop(pencil.gep, pairs, k))
    return roots, kappas, {"infinite": bool(pairs.infinite.any()), "square": pencil.Z is None}


def _mep_loop(s):
    mep = mep_from_system(s)
    deltas = operator_determinants(mep)
    D0 = deltas[0]
    sv = np.linalg.svd(D0, compute_uv=False)
    if sv[0] == 0 or sv[-1] <= max(D0.shape) * np.finfo(float).eps * sv[0]:
        raise SingularDelta0("Delta_0 numerically singular")
    pairs = generalized_eig(GenEigProblem(A=deltas[1], B=D0))
    roots, kappas, per_coordinate = [], [], []
    for k in np.flatnonzero(~pairs.infinite):
        y, w = pairs.left[k], pairs.right[k]
        denom = y @ D0 @ w
        if abs(denom) == 0.0:
            raise EigenvectorDegenerate("y^T Delta_0 w = 0")
        x = np.array([(y @ deltas[1 + j] @ w) / denom for j in range(mep.d)])
        roots.append(x)
        per_coord = [(1.0 + abs(x[j])) / abs(denom) for j in range(mep.d)]
        per_coordinate.append(per_coord)
        kappas.append(max(per_coord))
    return roots, kappas, {"kappa_per_coordinate": per_coordinate}


_LOOPS = {"nf": _nf_loop, "macaulay": _macaulay_loop, "mep": _mep_loop}


def _outcome(fn, s):
    """(roots bytes, kappa bytes, per-coordinate kappa bytes), or the failure class."""
    try:
        got = fn(s)
    except bench.SOLVER_FAILURES as exc:
        return type(exc).__name__, None
    if isinstance(got, tuple):
        roots, kappas, extra = got
    else:
        roots, kappas, extra = got.roots, got.subproblem_kappa, got.diagnostics
    per_coordinate = extra.get("kappa_per_coordinate")
    return (
        [np.asarray(x).tobytes() for x in roots],
        np.array(kappas, dtype=float).tobytes(),
        None if per_coordinate is None else np.array(per_coordinate, dtype=float).tobytes(),
    ), extra


def _single_square_system(d, rng, scale):
    """d quadratics x_i^2 + sum_j a_ij x_j + c_i (the shape mep accepts) with a planted root of the given scale."""
    xstar = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * scale
    polys = []
    for i in range(d):
        terms = {tuple(2 * (j == i) for j in range(d)): 1.0 + 0j}
        for j in range(d):
            terms[tuple(int(j == k) for k in range(d))] = complex(*rng.standard_normal(2))
        p = MultiPoly(d, terms)
        terms[(0,) * d] = -p.eval(xstar)
        polys.append(MultiPoly(d, terms))
    return PolySystem(d, polys, true_roots=[xstar], family_tag="")


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_stacked_read_outs_equal_per_pair_loops(data):
    # Random systems of d single-square quadratics with a planted root; at
    # root scale 1e5 the Macaulay read-out reads its vectors away from the
    # constant entry. At d = 2 the Macaulay pencil is square and carries
    # infinite pairs.
    d = data.draw(st.integers(2, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    s = _single_square_system(d, rng, data.draw(st.sampled_from([0.5, 1e5])))
    for method, loop in _LOOPS.items():
        want, info = _outcome(loop, s)
        got, _ = _outcome(lambda s: solve(s, method), s)
        assert got == want, method
        if method == "macaulay" and d == 2 and not isinstance(want, str):
            assert info["square"] and info["infinite"]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_roots_in_the_unit_polydisc_are_read_at_the_constant_entry(d):
    # The monomial vector of a root with every |x_i| <= 1 is largest at the
    # constant monomial, and a tie goes to it, so the read-out is the
    # column-0 ratio byte for byte. Coordinates 1, -1, 1j and -1j make
    # exact ties; the vectors carry a random complex scale.
    index = macaulay_hat(generate(FamilySpec(family="orthogonal", d=d, sigma=1e-2))).index
    rng = np.random.default_rng(d)
    n = 300
    X = rng.uniform(0.0, 0.99, (n, d)) * np.exp(2j * np.pi * rng.uniform(size=(n, d)))
    unit = rng.uniform(size=(n, d)) < 0.5
    X[unit] = rng.choice(np.array([1, -1, 1j, -1j]), size=np.count_nonzero(unit))
    V = (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))) * np.ones((n, len(index.col_labels)))
    for k, m in enumerate(index.col_labels):
        for i, e in enumerate(m):
            for _ in range(e):
                V[:, k] *= X[:, i]
    got = _roots_from_vectors(V, index)
    assert got.tobytes() == (V[:, index.up[:, 0]] / V[:, :1]).tobytes()
    assert np.allclose(got, X, rtol=1e-14, atol=0.0)


def _relative_backward_error(s, x):
    """||p(x)|| / sum of |c| |x^m| over every term of every polynomial."""
    values, _ = s.evaluate([x])
    weight = sum(abs(c) * np.prod(np.abs(x) ** np.array(m)) for p in s.polys for m, c in p.terms.items())
    return float(np.linalg.norm(values[0])) / weight


@pytest.mark.parametrize("sigma", [1e-8, 1e-6, 1e-4])
def test_fig_4b_far_roots_have_small_backward_errors(sigma):
    # notdev2d has a root near |y| = 1/sigma. Its eigenvector's degree <= 1
    # entries sit near rounding level, so it is read at its largest entry
    # below the top degree. The first 20 seed-1 trials of fig 4b that solve
    # must each return that root with a small relative backward error. The
    # three roots near the shift form a near-multiple cluster, read at the
    # constant entry by any rule; their backward errors reach 0.5 at
    # sigma = 1e-8 and are not checked here.
    spec = FIGURES["4b"]
    idx = spec.values.index(sigma)
    fspec = bench._family_spec(spec, sigma)
    errors = []
    for trial in range(40):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, idx, trial]))
        s = generate(fspec, rng=rng)
        try:
            report = solve(s, "macaulay", rng=rng)
        except NullityMismatch:
            continue
        far = [x for x in report.roots if np.abs(x).max() > 1.0]
        assert len(far) == 1
        errors.append(_relative_backward_error(s, far[0]))
        if len(errors) == 20:
            break
    assert len(errors) == 20
    assert max(errors) <= 1e-6


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_nf_solves_n_b_once_for_every_coordinate(monkeypatch, d):
    # solve_normal_form factors N_B^T once for all d right-hand sides; each
    # M_{x_i} must be byte-equal to its own np.linalg.solve, up to the
    # 32 x 32 N_B at d = 5, and so must the roots and kappas _nf_loop reads.
    s = generate(FamilySpec(family="orthogonal", d=d, sigma=1e-2, shift=(0.3, -0.2, 0.1, 0.25, -0.15)[:d]))
    calls = []
    original = BasisSelection._solve

    def recording(self, R):
        calls.append(original(self, R))
        return calls[-1]

    monkeypatch.setattr(BasisSelection, "_solve", recording)
    got, _ = _outcome(lambda s: solve(s, "nf"), s)
    assert got == _outcome(_nf_loop, s)[0]
    mhat = macaulay_hat(s)
    sel = choose_basis(mhat)
    N, r = sel.nullspace, 2**d
    (C,) = calls
    assert C.shape == (r, d * r)
    for i in range(d):
        want = np.linalg.solve(N[sel.indices, :].T, N[mhat.index.up[i, sel.indices], :].T)
        assert C[:, i * r : (i + 1) * r].tobytes() == want.tobytes()


# At root scale 1e5 the polynomial coefficients span ten decades and the
# monomial vector fifteen. nf's null space then carries errors its
# eigenproblem's kappa does not see (on every d = 3 draw and about one d = 2
# draw in six). The Macaulay solver misses the roots by about their own
# size on every draw while its kappa stays near 1e4, and not through its
# read-out: its eigenvectors are already far from the roots' monomial
# vectors (sine of the angle 7e-3 or more), which swamps every entry below
# the top degree. Both faults sit upstream, in the unbalanced pencil or
# null space; the marks go when they are mended.
_SCALE_FAULT = pytest.mark.xfail(
    strict=True, reason="the root-scale 1e5 error exceeds what subproblem_kappa predicts"
)


@pytest.mark.parametrize(
    "method, scale",
    [("nf", 0.5), ("macaulay", 0.5), ("mep", 0.5), ("mep", 1e5),
     pytest.param("nf", 1e5, marks=_SCALE_FAULT), pytest.param("macaulay", 1e5, marks=_SCALE_FAULT)],
)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_root_sets_survive_permuted_variables_and_scaled_equations(method, scale, data):
    # The roots of a system do not depend on the order of its variables or
    # on a nonzero factor per equation. Each solve's error is at most about
    # eps * subproblem_kappa * max(1, |x|) to first order; the factor 1e4
    # covers what the build and read-out add at root scale 0.5, where the
    # ratio stayed below 2e2 over 200 draws of each method.
    d = data.draw(st.integers(2, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    s = _single_square_system(d, rng, scale)
    perm = rng.permutation(d)
    factors = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    permuted = [MultiPoly(d, {tuple(m[k] for k in perm): c for m, c in p.terms.items()}) for p in s.polys]
    scaled = [MultiPoly(d, {m: c * a for m, c in p.terms.items()}) for p, a in zip(s.polys, factors)]
    base = solve(s, method)
    X = np.array(base.roots)
    assert X.shape == (2**d, d)
    for polys, unpermute in ((permuted, perm), (scaled, np.arange(d))):
        other = solve(PolySystem(d, polys, true_roots=[], family_tag=""), method)
        Y = np.empty_like(X)
        Y[:, unpermute] = np.array(other.roots)
        dist = np.abs(X[:, None, :] - Y[None, :, :]).max(axis=2)
        kappa = max(base.subproblem_kappa + other.subproblem_kappa)
        tol = 1e4 * np.finfo(float).eps * kappa * max(1.0, float(np.abs(X).max()))
        assert max(dist.min(axis=1).max(), dist.min(axis=0).max()) <= tol


@pytest.mark.parametrize("method", ["nf", "macaulay", "mep"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_root_sets_move_with_a_shift(method, data):
    # q(x) = p(x - t) has the roots of p moved by t. The tolerance is the
    # permutation test's; over 150 seeded draws per method at d = 2 and 3
    # the worst ratio to eps * kappa * max(1, |x|) was 10.4 (nf), 8.5
    # (macaulay) and 0.35 (mep).
    d = data.draw(st.integers(2, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = 0.5
    s = _single_square_system(d, rng, scale)
    t = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * (scale / 2)
    base = solve(s, method)
    other = solve(PolySystem(d, [p.translate(-t) for p in s.polys], true_roots=[], family_tag=""), method)
    X = np.array(base.roots)
    Y = np.array(other.roots) - t
    assert X.shape == Y.shape == (2**d, d)
    dist = np.abs(X[:, None, :] - Y[None, :, :]).max(axis=2)
    kappa = max(base.subproblem_kappa + other.subproblem_kappa)
    tol = 1e4 * np.finfo(float).eps * kappa * max(1.0, float(np.abs(X).max()))
    assert max(dist.min(axis=1).max(), dist.min(axis=0).max()) <= tol


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_nf_macaulay_and_mep_agree_on_rooted_systems(data):
    # The three reductions solve one system: at root scale 0.5 their root
    # sets match to within what their subproblem kappas allow, and each set
    # holds the planted root. The factor 1e4 is the permutation test's; over
    # 300 seeded draws at d = 2 and 3 both ratios to eps * kappa * max|x|
    # stayed below 7.
    d = data.draw(st.integers(2, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    s = _single_square_system(d, rng, 0.5)
    reports = {method: solve(s, method) for method in ("nf", "macaulay", "mep")}
    eps = np.finfo(float).eps
    ref = reports["mep"]
    X = np.array(ref.roots)
    for method, report in reports.items():
        Y = np.array(report.roots)
        assert Y.shape == (2**d, d)
        dist = np.abs(X[:, None, :] - Y[None, :, :]).max(axis=2)
        kappa = max(ref.subproblem_kappa + report.subproblem_kappa)
        tol = 1e4 * eps * kappa * max(1.0, float(np.abs(X).max()))
        assert max(dist.min(axis=1).max(), dist.min(axis=0).max()) <= tol, method
        planted = np.abs(Y - s.true_roots[0]).max(axis=1).min()
        assert planted <= 1e4 * eps * max(report.subproblem_kappa) * max(1.0, float(np.abs(Y).max())), method
