"""Acceptance gate: one test per headline claim, one printed verdict line each.

Every test rebuilds its own oracle (closed forms, direct definitions, finite
differences, cross-method comparisons) rather than trusting library output,
and enforces the stated tolerance and time budget.
"""

import json
import math
import time
import warnings
from dataclasses import replace

import numpy as np

from polylab import (
    FamilySpec,
    GenEigProblem,
    PolySystem,
    b0_matrix,
    bezout_count,
    choose_basis,
    generalized_eig,
    generate,
    hausdorff_distance,
    jacobian,
    kappa_eig,
    kappa_eig_mep_formula,
    kappa_eig_ms_formula,
    lagrange_interpolant,
    macaulay_hat,
    mep_from_system,
    mep_root_vectors,
    mep_row_scaling,
    null_space,
    operator_determinants,
    q_factorization,
    run_sweep,
    solve_gb_elimination_example,
    solve_macaulay_resultant,
    solve_normal_form,
    solve_rur_example,
)
from polylab.bench import FIGURES
from polylab.conditioning import mep_operator
from polylab.macaulay import BasisSelection
from polylab.solvers import MultiParamEig
from polylab.verification import nullspace_perturbation_suite, subset_product_suite
from quotient_helpers import multiplication_matrices
from rooted_systems import random_quadratic, rooted_system


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _slope(xs, ys):
    return float(np.polyfit(xs, ys, 1)[0])


def test_univariate_reduction_conditioning_growth():
    """Cyclic elimination derivative identity and the hypercube reduction bound."""
    worst_ulp = 0.0
    worst_exp = 0.0
    for d in (2, 3, 4, 5, 6):
        for sigma in (1e-1, 1e-2):
            g, rep = solve_gb_elimination_example(d, sigma)
            n = 2**d
            want = -(sigma ** (n - 1))
            got = g.derivative().eval(0.0)
            worst_ulp = max(worst_ulp, abs(got - want) / math.ulp(abs(want)))
            assert rep.diagnostics["underflow"] is False
            ratio = rep.subproblem_kappa[0] / rep.kappa_root[0]
            exp_err = abs(math.log10(ratio) - (n - 2) * math.log10(1.0 / sigma))
            worst_exp = max(worst_exp, exp_err)
    rng = np.random.default_rng(1)
    c = 4.0
    worst_margin = math.inf
    for d in (2, 3):
        bound = (c / 2.0) ** (2**d - 1)
        for _ in range(20):
            u = np.abs(rng.standard_normal(d))
            u /= np.linalg.norm(u)
            _, rep = solve_rur_example(d, c, u)
            worst_margin = min(worst_margin, rep.subproblem_kappa[0] / bound)
    ok = worst_ulp <= 1.0 and worst_exp <= 1e-9 and worst_margin >= 1.0
    _verdict(
        "univariate reduction conditioning",
        ok,
        f"derivative off by {worst_ulp:.2f} ulp, exponent error {worst_exp:.1e}, "
        f"reduction kappa at {worst_margin:.2f}x its lower bound",
    )


def test_singular_vector_scaling_recovers_jacobian():
    """Row-scaled B0 equals the Jacobian; sigma_min growth rates match |B0| entries."""
    t0 = time.time()
    worst_jac = 0.0
    worst_fd = 0.0

    def folded(f, h1=1e-4, h2=1e-5):
        def quot(h):
            return (f(h) + f(-h) - 2.0 * f(0.0)) / (2.0 * h)

        q1, q2 = quot(h1), quot(h2)
        return (h1 * q2 - h2 * q1) / (h1 - h2)

    for d in (2, 3, 4):
        for sigma in (1e-1, 1e-2):
            s = generate(FamilySpec(family="permutation", d=d, sigma=sigma, seed=1))
            mep = mep_from_system(s)
            x0 = np.zeros(d, dtype=complex)
            vecs = mep_root_vectors(mep, x0)
            B0 = b0_matrix(mep, x0, vecs)
            D = mep_row_scaling(mep, x0)
            J = jacobian(s, x0)
            worst_jac = max(
                worst_jac, float(np.linalg.norm(D @ B0 - J, 2) / np.linalg.norm(J, 2))
            )
            for i in range(d):
                for j in range(d):

                    def smin(h, i=i, j=j):
                        x = x0.copy()
                        x[j] += h
                        return float(np.linalg.svd(mep_operator(mep.W[i], x), compute_uv=False)[-1])

                    fd = folded(smin)
                    ref = abs(B0[i, j])
                    if ref < 1e-8:
                        worst_fd = max(worst_fd, abs(fd))
                    else:
                        worst_fd = max(worst_fd, abs(fd - ref) / ref)
    elapsed = time.time() - t0
    ok = worst_jac <= 1e-8 and worst_fd <= 1e-5 and elapsed < 5.0
    _verdict(
        "singular vector scaling",
        ok,
        f"scaled-B0 vs Jacobian {worst_jac:.2e}, finite-difference error {worst_fd:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_eigenvalue_condition_formulas_match_direct():
    """Closed-form kappa for both eigenreductions vs the defining ratio, 50 seeds."""
    t0 = time.time()
    worst_ms = 0.0
    worst_mep = 0.0
    for k in range(50):
        d = 2 if k % 2 == 0 else 3
        rng = np.random.default_rng(1000 + k)
        xstar = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * 0.4
        i = k % d

        s = rooted_system(d=d, xstar=xstar, rng=rng)
        mats, sel = multiplication_matrices(s)
        gep = GenEigProblem(A=np.asarray(mats[i]), B=np.eye(len(sel.monomials), dtype=complex))
        pairs = generalized_eig(gep)
        best = int(np.argmin(np.abs(pairs.lam - xstar[i])))
        assert abs(pairs.lam[best] - xstar[i]) <= 1e-6
        direct = kappa_eig(gep, pairs)[best]
        formula = kappa_eig_ms_formula(s, xstar, sel, i)
        worst_ms = max(worst_ms, abs(formula - direct) / direct)

        s2 = rooted_system(d=d, xstar=xstar, rng=rng, single_square=True)
        mep = mep_from_system(s2)
        deltas = operator_determinants(mep)
        gep2 = GenEigProblem(A=deltas[1 + i], B=deltas[0])
        pairs2 = generalized_eig(gep2)
        best2 = int(np.argmin(np.abs(pairs2.lam - xstar[i])))
        assert abs(pairs2.lam[best2] - xstar[i]) <= 1e-6
        direct2 = kappa_eig(gep2, pairs2)[best2]
        formula2 = kappa_eig_mep_formula(mep, s2, xstar, i)
        worst_mep = max(worst_mep, abs(formula2 - direct2) / direct2)
    elapsed = time.time() - t0
    ok = worst_ms <= 1e-6 and worst_mep <= 1e-6 and elapsed < 30.0
    _verdict(
        "eigenvalue condition formulas",
        ok,
        f"multiplication-matrix rel err {worst_ms:.2e}, operator-determinant rel err "
        f"{worst_mep:.2e}, {elapsed:.1f}s",
    )


def test_reduced_determinant_norm_bounds_and_examples():
    """Coefficient-norm lower bound, the bivariate ratio law, and the trivariate
    closed-form interpolant."""
    rng = np.random.default_rng(2)
    worst_margin = math.inf
    for _ in range(50):
        xstar = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.5
        s = rooted_system(d=2, xstar=xstar, rng=rng, scale_up=True)
        mhat = macaulay_hat(s)
        sel = choose_basis(mhat)
        c = sel.normal_form(lagrange_interpolant(q_factorization(s, xstar)))
        worst_margin = min(worst_margin, float(np.linalg.norm(c)) - mhat.factor.sigma_min)

    basis_2d = [(0, 0), (1, 0), (0, 1), (0, 2)]
    ratios = []
    for k, sigma in enumerate((1e-1, 1e-2, 1e-3, 1e-4, 1e-5)):
        s = generate(FamilySpec(family="notdev2d", d=2, sigma=sigma, seed=k + 1))
        mhat = macaulay_hat(s)
        # The basis is fixed, not choose_basis's: a selection of its rows.
        N = null_space(mhat.mat, bezout_count(s))
        idx = np.array([mhat.index.columns[m] for m in basis_2d])
        sel = BasisSelection(basis_2d, np.linalg.cond(N[idx]), N, idx, mhat.index, mhat.factor.sigma_min)
        c = sel.normal_form(lagrange_interpolant(q_factorization(s, np.zeros(2, dtype=complex))))
        ratios.append(float(np.linalg.norm(c)) / sigma)
    ratios_ok = all(0.1 <= r <= 10.0 for r in ratios)

    worst_tri = 0.0
    for sigma in (0.5, 1e-2):
        s = generate(FamilySpec(family="notdev3d", d=3, sigma=sigma))
        q = lagrange_interpolant(q_factorization(s, np.zeros(3, dtype=complex)))
        want = {
            (1, 1, 1): sigma**3,
            (0, 2, 1): sigma**2,
            (0, 1, 0): sigma**2,
            (0, 1, 1): -(sigma**2),
            (0, 0, 0): sigma**3,
        }
        assert set(q.terms) == set(want)
        for m, v in want.items():
            worst_tri = max(worst_tri, abs(q.terms[m] - v) / abs(v))

    ok = worst_margin >= -1e-10 and ratios_ok and worst_tri <= 1e-10
    _verdict(
        "reduced determinant norms",
        ok,
        f"bound margin {worst_margin:+.3f}, ratio span [{min(ratios):.3f}, {max(ratios):.3f}], "
        f"closed-form rel err {worst_tri:.2e}",
    )


def test_benchmark_slopes_match_growth_laws():
    """Measured digit slopes and dimension sweeps reproduce the predicted rates."""
    t0 = time.time()
    lines = []
    ok = True

    def window(records, lo=1e-4, hi=1e-1):
        return [r for r in records if lo * 0.9 <= r.x <= hi * 1.1]

    for name, want in (("1c", 3.0), ("1e", 2.0), ("1f", 2.0), ("1g", 2.0)):
        records = run_sweep(FIGURES[name])
        win = window(records)
        slope = _slope([math.log10(r.x) for r in win], [r.median_digits for r in win])
        gap_rec = [r for r in records if abs(r.x - 1e-6) < 1e-9][0]
        gap = gap_rec.stable_digits - gap_rec.median_digits
        if abs(slope - want) > 0.5 or gap < 4.0:
            ok = False
        lines.append(f"{name} slope {slope:.2f} (want {want}), loss at 1e-6 {gap:.1f}")

    spec_1d = replace(FIGURES["1d"], values=(4.0, 10.0, 25.0, 50.0, 100.0))
    records = run_sweep(spec_1d)
    slope = _slope([math.log10(r.x) for r in records], [r.median_digits for r in records])
    if abs(slope - (-3.0)) > 0.5:
        ok = False
    lines.append(f"1d slope {slope:.2f} (want -3)")

    for name in ("2", "3"):
        records = run_sweep(replace(FIGURES[name], n_trials=100))
        meds = [r.median_digits for r in records]
        monotone = all(meds[k + 1] <= meds[k] + 1e-9 for k in range(len(meds) - 1))
        loss = meds[0] - meds[-1]
        if not monotone or loss < 6.0:
            ok = False
        lines.append(f"fig{name} digits {meds[0]:.1f}->{meds[-1]:.1f}")

    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    _verdict("benchmark growth laws", ok, "; ".join(lines) + f"; {elapsed:.0f}s")


def test_cross_method_agreement_on_random_systems():
    """Normal form and resultant pencil find identical full root sets."""
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst_haus = 0.0
    worst_res = 0.0
    for k in range(25):
        d = 2 if k % 2 == 0 else 3
        polys = [random_quadratic(d, rng) for _ in range(d)]
        s = PolySystem(d, polys, true_roots=[], family_tag="")
        nf = solve_normal_form(s, rng=np.random.default_rng(k))
        mac = solve_macaulay_resultant(s, rng=np.random.default_rng(k))
        assert len(nf.roots) == bezout_count(s)
        assert len(mac.roots) == bezout_count(s)
        worst_haus = max(worst_haus, hausdorff_distance(nf.roots, mac.roots))
        worst_res = max(worst_res, max(nf.residuals), max(mac.residuals))
    elapsed = time.time() - t0
    ok = worst_haus <= 1e-6 and worst_res <= 1e-6 and elapsed < 30.0
    _verdict(
        "cross-method agreement",
        ok,
        f"25 systems, worst set distance {worst_haus:.2e}, worst residual {worst_res:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_audit_suites_pass_and_are_deterministic():
    """Subset-product maximum and null-space sensitivity audits, twice, seed 1."""
    t0 = time.time()
    runs = []
    for _ in range(2):
        a = subset_product_suite(seed=1)
        b = nullspace_perturbation_suite(seed=1)
        runs.append(
            json.dumps([a.to_json_dict(), b.to_json_dict()], sort_keys=True, default=float)
        )
    a = subset_product_suite(seed=1)
    b = nullspace_perturbation_suite(seed=1)
    medians = b.details["median_ratios"]
    factor_two = all(0.5 <= v <= 2.0 for v in medians.values())
    elapsed = time.time() - t0
    ok = a.passed and b.passed and factor_two and runs[0] == runs[1] and elapsed < 30.0
    _verdict(
        "numerical audits",
        ok,
        f"max excess {a.details['max_log_excess_over_u0']:.1e}, "
        f"gap medians {min(medians.values()):.2f}..{max(medians.values()):.2f}, "
        f"deterministic={runs[0] == runs[1]}, {elapsed:.1f}s",
    )
