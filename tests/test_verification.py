"""Audit suites: every claim checks out and reruns are bit-identical."""

import json
import math

import numpy as np
import pytest

from polylab import FamilySpec, MultiParamEig, generate, jacobian, solve
from polylab.conditioning import b0_matrix, mep_operator, mep_root_vectors, mep_row_scaling
from polylab.numkernel import sigma_min
from polylab.solvers import METHODS, hausdorff_distance, mep_from_system
from polylab.verification import (
    SUBSET_DMAX,
    SUBSET_DRAWS,
    SUITES,
    VerificationResult,
    _folded_derivative,
    _random_rooted_mep,
    _subset_sum_log_product,
    crossmethod_suite,
    row_scaling_suite,
    run_all,
    subset_product_suite,
)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes_under_default_seed(name):
    res = SUITES[name](seed=1)
    assert isinstance(res, VerificationResult)
    assert res.name == name
    assert res.passed is True
    assert res.details


def test_run_all_covers_every_suite_once():
    results = run_all(seed=1)
    assert sorted(r.name for r in results) == sorted(SUITES)
    assert all(r.passed for r in results)


def test_run_all_respects_the_name_filter():
    results = run_all(seed=1, names=("lemmaA1", "interpolant"))
    assert [r.name for r in results] == ["lemmaA1", "interpolant"]


def test_suites_are_deterministic_under_a_fixed_seed():
    for name in ("lemmaA1", "appendixD"):
        a = SUITES[name](seed=1)
        b = SUITES[name](seed=1)
        assert json.dumps(a.to_json_dict(), sort_keys=True, default=float) == json.dumps(
            b.to_json_dict(), sort_keys=True, default=float
        )


def test_subset_sum_product_closed_form_d2():
    # subsets of (u1, u2): u1 * u2 * (u1 + u2)
    u = np.array([0.6, 0.8])
    want = np.log(abs(0.6 * 0.8 * 1.4))
    assert _subset_sum_log_product(u) == pytest.approx(want, abs=1e-12)
    assert _subset_sum_log_product(np.array([1.0, -1.0])) == -np.inf


def test_results_serialize_with_plain_booleans():
    for res in run_all(seed=1, names=("prop51",)):
        blob = json.dumps(res.to_json_dict(), default=float)
        assert json.loads(blob)["passed"] is True


def test_nullspace_perturbation_details_report_median_ratios():
    res = SUITES["appendixD"](seed=1)
    med = res.details["median_ratios"]
    assert set(med) == {"diag", "random", "mhat"}
    for v in med.values():
        assert 0.3 <= v <= 2.0


# The suites as they were written before they shared the sign patterns and
# folded their repeated blocks into loops; the loops must give the same
# details, bit for bit.


def _bits(d):
    masks = np.arange(1, 2**d, dtype=np.int64)
    return ((masks[:, None] >> np.arange(d)[None, :]) & 1).astype(float)


def _old_lemma_a1_details(seed):
    rng = np.random.default_rng(seed)
    worst_identity, max_excess = 0.0, -math.inf
    for d in range(2, SUBSET_DMAX + 1):
        sums = _bits(d) @ np.full(d, 1.0 / math.sqrt(d))
        direct = -math.inf if np.any(sums == 0.0) else float(np.sum(np.log(np.abs(sums))))
        closed = sum(math.comb(d, m) * math.log(m / math.sqrt(d)) for m in range(1, d + 1))
        worst_identity = max(worst_identity, abs(direct - closed))
        V = rng.standard_normal((SUBSET_DRAWS, d))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        sums = V @ _bits(d).T
        with np.errstate(divide="ignore"):
            logs = np.where(sums == 0.0, -math.inf, np.log(np.abs(sums)))
        max_excess = max(max_excess, float(np.max(logs.sum(axis=1)) - closed))
    return {"max_log_identity_error": worst_identity, "max_log_excess_over_u0": max_excess, "draws": SUBSET_DRAWS}


def _old_prop51_details(seed):
    worst_jac = worst_fd = 0.0
    cases = []
    for fspec in (
        FamilySpec(family="orthogonal", d=2, sigma=0.1, seed=seed),
        FamilySpec(family="orthogonal", d=3, sigma=0.01, seed=seed),
        FamilySpec(family="permutation", d=3, sigma=0.05, seed=seed),
    ):
        s = generate(fspec)
        x0 = np.zeros(s.d, dtype=complex)
        cases.append((mep_from_system(s), x0, jacobian(s, x0)))
    mep, xstar = _random_rooted_mep(2, 2, np.random.default_rng(seed))
    cases.append((mep, xstar, None))
    for mep, x0, J in cases:
        B0 = b0_matrix(mep, x0, mep_root_vectors(mep, x0))
        if J is not None:
            D = mep_row_scaling(mep, x0)
            worst_jac = max(worst_jac, float(np.linalg.norm(D @ B0 - J, 2) / np.linalg.norm(J, 2)))
        for i in range(mep.d):
            for j in range(mep.d):

                def smin(h, i=i, j=j):
                    x = np.asarray(x0, dtype=complex).copy()
                    x[j] += h
                    return sigma_min(mep_operator(mep.W[i], x))

                fd = _folded_derivative(smin)
                ref = abs(B0[i, j])
                worst_fd = max(worst_fd, abs(fd) if ref < 1e-8 else abs(fd - ref) / ref)
    scalar = MultiParamEig(d=1, W=[(np.array([[1.5]]), np.array([[0.5]]))])
    fd = _folded_derivative(lambda h: sigma_min(mep_operator(scalar.W[0], np.array([3.0 + h]))))
    worst_fd = max(worst_fd, abs(fd - 0.5) / 0.5)
    return {"max_jacobian_error": worst_jac, "max_derivative_error": worst_fd}


def _old_crossmethod_details(seed):
    details = {}
    rng = np.random.default_rng(seed)
    s_cyc = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5, seed=seed))
    truth = [np.array(r) for r in s_cyc.true_roots]
    for tag in METHODS:
        rep = solve(s_cyc, tag, rng=np.random.default_rng(seed))
        details[f"cyclic_{tag}_vs_truth"] = hausdorff_distance(rep.roots, truth)
    s_hyp = generate(FamilySpec(family="hypercube", d=2, c=2.0, seed=seed), rng=rng)
    truth = [np.array(r) for r in s_hyp.true_roots]
    for tag in ("nf", "macaulay"):
        rep = solve(s_hyp, tag, rng=np.random.default_rng(seed))
        details[f"hypercube_{tag}_vs_truth"] = hausdorff_distance(rep.roots, truth)
    s_shift = generate(FamilySpec(family="cyclic_squares", d=2, sigma=0.5, seed=seed, shift=(0.3, -0.2)))
    truth = [np.array(r) for r in s_shift.true_roots]
    rep = solve(s_shift, "nf", rng=np.random.default_rng(seed))
    details["shifted_nf_vs_truth"] = hausdorff_distance(rep.roots, truth)
    return details


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "suite, old",
    [
        (subset_product_suite, _old_lemma_a1_details),
        (row_scaling_suite, _old_prop51_details),
        (crossmethod_suite, _old_crossmethod_details),
    ],
    ids=["lemmaA1", "prop51", "crossmethod"],
)
def test_suite_details_equal_the_unfolded_code_bit_for_bit(suite, old, seed):
    got, want = suite(seed=seed).details, old(seed)
    assert list(got) == list(want)
    assert json.dumps(got).encode() == json.dumps(want).encode()
    assert [float(v).hex() for v in got.values()] == [float(v).hex() for v in want.values()]


@pytest.mark.parametrize("d", range(2, SUBSET_DMAX + 1))
def test_subset_sum_log_product_equals_the_bit_loop_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for u in (np.full(d, 1.0 / math.sqrt(d)), rng.standard_normal(d)):
        sums = _bits(d) @ u
        want = -math.inf if np.any(sums == 0.0) else float(np.sum(np.log(np.abs(sums))))
        assert _subset_sum_log_product(u).hex() == want.hex()
