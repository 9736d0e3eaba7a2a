"""Generation/reproduction conditions, shift solving, normalization, stepwise."""

import cmath
import functools
import gc
import json
import math
import warnings
import weakref

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from expsub import (
    DEFAULT_TOL,
    BranchAmbiguityError,
    CheckError,
    DilationMatrix,
    ExpPolySpace,
    LatticeError,
    LaurentSymbol,
    NoAdmissibleTauError,
    NormalizationError,
    ConditionRecord,
    ConditionReport,
    SchemeSpec,
    StepwiseReport,
    butterfly,
    check_generation,
    check_reproduction,
    dual4_binary,
    dual4_ternary,
    exp_bspline,
    exp_product,
    normalize,
    sheared_convolution,
    solve_tau,
    sqrt3_schemes,
    stepwise_test,
    stepwise_tests,
)
from expsub import checker
from expsub.checker import StepwiseRecord
from symbol_diff import max_diff


def quiet_space(pairs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ExpPolySpace(pairs)


def test_generation_exp_bspline_ternary():
    scheme = exp_bspline(3, 1.0)
    rep = check_generation(scheme, scheme.space, (0, 5), tol=1e-12)
    assert rep.verdict
    assert rep.max_residual < 1e-12


def test_generation_butterfly_order_four():
    scheme = butterfly((1.0, 1.0))
    rep = check_generation(scheme, scheme.space, (0, 4), tol=1e-10)
    assert rep.verdict
    # every (gamma, lambda) pair appears at every level and nontrivial dual point
    per_level = {(r.k, r.gamma, r.eps) for r in rep.records}
    assert len(per_level) == 5 * len(scheme.space.pairs) * (scheme.M.m - 1)


def test_generation_failure_names_the_right_record():
    mask = LaurentSymbol(1, {(0,): 1, (1,): 1})
    scheme = SchemeSpec.stationary("haar", DilationMatrix(2), mask)
    space = quiet_space([((1,), (0.0,))])
    rep = check_generation(scheme, space, (0, 0))
    assert not rep.verdict
    fails = rep.failures()
    assert [r.gamma for r in fails] == [(1,)]
    assert abs(fails[0].lhs - (-1)) < 1e-14  # z d/dz (1+z) at z = -1


def test_reproduction_needs_a_shift():
    # no tau reproduces {e^x, x e^x} with this mask, so a check without one must not pass
    scheme = exp_bspline(2, 1.0, n_fold=2)
    space = ExpPolySpace([((0,), (1.0,)), ((1,), (1.0,))])
    for tau in (0.0, 0.5, 1.0, 1.5):
        assert not check_reproduction(scheme, space, tau, (0, 3)).verdict
    with pytest.raises(LatticeError, match="shift parameter") as raised:
        check_reproduction(scheme, space, None, (0, 3))
    with pytest.raises(LatticeError) as stepwise:
        list(stepwise_tests(scheme, space, None, [0], 3))
    assert str(raised.value) == str(stepwise.value)


def test_reproduction_dual4_binary_and_wrong_tau():
    for lam in (1.0, 1j):
        scheme = dual4_binary(lam)
        good = check_reproduction(scheme, scheme.space, (-0.5,), (0, 5))
        assert good.verdict and good.max_residual < 1e-9
        bad = check_reproduction(scheme, scheme.space, (0.0,), (0, 5))
        assert not bad.verdict


def test_reproduction_records_cover_all_dual_points():
    scheme = dual4_ternary(1.0)
    rep = check_reproduction(scheme, scheme.space, (-0.25,), (2, 3))
    seen = {(r.k, r.gamma, r.lam, r.eps) for r in rep.records}
    assert len(seen) == 2 * len(scheme.space.pairs) * scheme.M.m
    assert rep.verdict


def test_normalization_lemma_all_taus():
    for m in (2, 3):
        for lam in (1.0, 1j):
            for tau in (0.0, 0.5, 1.0):
                scheme = exp_bspline(m, lam, tau=tau)
                rep = check_reproduction(scheme, scheme.space, (tau,), (0, 5))
                assert rep.verdict, (m, lam, tau)


def test_nfold_passes_first_order_and_fails_second():
    for m in (2, 3):
        for n in (2, 3):
            tau = n / 2
            scheme = exp_bspline(m, 1.0, n_fold=n, tau=tau)
            ok = check_reproduction(scheme, scheme.space, (tau,), (0, 3))
            assert ok.verdict
            assert ((1,), ((1 + 0j),)) in {(g, l) for g, l in scheme.space.pairs}
            wide = quiet_space([((2,), (1.0,))])
            rep = check_reproduction(scheme, wide, (tau,), (0, 3))
            assert not rep.verdict
            fails = rep.failures()
            assert all(r.gamma == (2,) for r in fails)
            assert min(r.residual for r in fails) > 0.01


def test_two_factor_first_derivative_impossibility():
    scheme = exp_product(2, [(1.0, 2), (-1.0, 2)], normalization="two_factor")
    base = check_reproduction(scheme, scheme.space, scheme.tau, (0, 3))
    assert base.verdict
    probe = quiet_space([((0,), (1.0,)), ((0,), (-1.0,)), ((1,), (1.0,))])
    rep = check_reproduction(scheme, probe, scheme.tau, (0, 3))
    assert not rep.verdict
    fails = rep.failures()
    assert all(r.gamma == (1,) and r.eps == ((1 + 0j),) for r in fails)
    # the failing point is v = r_k^{-1}
    r0 = cmath.exp(1.0 * 2 ** -1)
    assert any(abs(r.v[0] - 1 / r0) < 1e-12 for r in fails if r.k == 0)


def test_solve_tau_catalog_values():
    b = dual4_binary(1.0)
    assert abs(solve_tau(b, b.space)[0] + 0.5) < 1e-10
    t = dual4_ternary(1.0)
    assert abs(solve_tau(t, t.space)[0] + 0.25) < 1e-10
    s3 = sqrt3_schemes()["approximating"]
    tau = solve_tau(s3, s3.space, tol=1e-12)
    assert max(abs(x) for x in tau) < 1e-10
    sh = sheared_convolution((1.0, 0.5), normalized=True)
    tau = solve_tau(sh, sh.space)
    assert abs(tau[0] - 1) < 1e-10 and abs(tau[1] - 1) < 1e-10


def test_solve_tau_exponential_route():
    # space {exp(lambda x)} only: the principal-logarithm route
    for tau_true in (0.0, 0.5, 1.0):
        scheme = exp_bspline(2, 1.0, tau=tau_true)
        got = solve_tau(scheme, scheme.space)
        assert abs(got[0] - tau_true) < 1e-10
    osc = exp_bspline(2, 1j, tau=0.5)
    assert abs(solve_tau(osc, osc.space)[0] - 0.5) < 1e-10


def test_solve_tau_rejects_inadmissible():
    sh = sheared_convolution((1.0, 0.5), normalized=False)
    space = quiet_space([((1, 0), (1.0, 0.5)), ((0, 1), (1.0, 0.5))])
    with pytest.raises(NoAdmissibleTauError):
        solve_tau(sh, space)


def test_solve_tau_branch_guard():
    # |lambda^T M^{-1}| = 4 > pi at probe level 0 for lambda = 8i, m = 2
    scheme = exp_bspline(2, 8j, tau=0.0)
    with pytest.raises(BranchAmbiguityError):
        solve_tau(scheme, scheme.space, k_probe=0)
    assert abs(solve_tau(scheme, scheme.space, k_probe=2)[0]) < 1e-10


def test_solve_tau_polynomial_route_requires_mass_m():
    mask = LaurentSymbol(1, {(0,): 1.0, (1,): 1.0, (2,): 1.0})  # a(1) = 3 != 2
    scheme = SchemeSpec.stationary("odd", DilationMatrix(2), mask)
    space = ExpPolySpace.polynomials(1, 1)
    with pytest.raises(NoAdmissibleTauError):
        solve_tau(scheme, space)


def test_solve_tau_needs_usable_pairs():
    mask = LaurentSymbol(1, {(0,): 1.0, (1,): 1.0})
    scheme = SchemeSpec.stationary("haar", DilationMatrix(2), mask)
    space = ExpPolySpace([((0,), (0.0,))])  # lambda = 0 without first-order gammas
    with pytest.raises(CheckError):
        solve_tau(scheme, space)


def test_normalize_scaling_soundness():
    raw = exp_bspline(3, 1.0)  # anchored scheme, then renormalize for tau = 1
    tau = 1.0
    scheme = normalize(raw, (1.0,), (tau,))
    rep = check_reproduction(scheme, raw.space, (tau,), (0, 6))
    assert rep.verdict
    anchor = [
        r
        for r in rep.records
        if r.gamma == (0,) and r.lam == ((1 + 0j),) and r.eps == ((1 + 0j),)
    ]
    assert len(anchor) == 7
    assert max(r.residual for r in anchor) < 1e-13  # float rounding only


def test_normalize_matches_closed_form_bspline():
    lam, tau, m = 0.7, 0.5, 2
    auto = normalize(exp_bspline(m, lam), (lam,), (tau,))
    closed = exp_bspline(m, lam, tau=tau)
    for k in (0, 1, 4):
        assert max_diff(auto.symbol(k), closed.symbol(k)) < 1e-14


def test_normalize_rejects_vanishing_anchor():
    mask = LaurentSymbol(1, {(0,): 1.0, (1,): -1.0})  # vanishes at z = 1
    scheme = SchemeSpec.stationary("null", DilationMatrix(2), mask)
    normed = normalize(scheme, (0.0,), (0.0,))
    with pytest.raises(NormalizationError, match="level 0"):
        normed.symbol(0)


def test_stepwise_exp_bspline_exact():
    for m in (2, 3):
        for lam in (1.0, 1j):
            scheme = exp_bspline(m, lam)
            rep = stepwise_test(scheme, scheme.space, (0.0,), 1, 6, tol=1e-12)
            assert rep.verdict, (m, lam, rep.max_err)


def test_stepwise_dual4_binary():
    scheme = dual4_binary(1.0)
    for k in range(4):
        rep = stepwise_test(scheme, scheme.space, (-0.5,), k, 8, tol=1e-9)
        assert rep.verdict, (k, rep.max_err)


def test_stepwise_butterfly():
    for lam in ((1.0, 1.0), (1j, 1j)):
        scheme = butterfly(lam)
        space = ExpPolySpace([((0, 0), lam)])
        rep = stepwise_test(scheme, space, (0.0, 0.0), 0, 4, tol=1e-10)
        assert rep.verdict


def test_stepwise_empty_interior_raises():
    from expsub import EngineError

    scheme = dual4_binary(1.0)  # needs 8 neighbors; radius-1 window is too small
    with pytest.raises(EngineError, match="window"):
        stepwise_test(scheme, scheme.space, (-0.5,), 0, 1)


def test_agreement_between_conditions_and_stepwise():
    cases = [
        (dual4_binary(1.0), (-0.5,), (0.0,)),
        (dual4_ternary(1j), (-0.25,), (0.3,)),
        (butterfly((1.0, 0.5)), (0.0, 0.0), (0.5, 0.0)),
        (sheared_convolution((0.4, 0.8), normalized=True), (1.0, 1.0), (0.0, 0.0)),
    ]
    for scheme, good_tau, bad_tau in cases:
        cond = check_reproduction(scheme, scheme.space, good_tau, (0, 2))
        step = stepwise_test(scheme, scheme.space, good_tau, 1, 6, tol=1e-8)
        assert cond.verdict and step.verdict
        cond_bad = check_reproduction(scheme, scheme.space, bad_tau, (0, 2))
        step_bad = stepwise_test(scheme, scheme.space, bad_tau, 1, 6, tol=1e-8)
        assert (not cond_bad.verdict) and (not step_bad.verdict)


def test_interpolatory_generation_implies_zero_shift_reproduction():
    scheme = butterfly((0.5, 1.5))
    gen = check_generation(scheme, scheme.space, (0, 3), tol=1e-10)
    rep = check_reproduction(scheme, scheme.space, (0.0, 0.0), (0, 3), tol=1e-10)
    assert gen.verdict and rep.verdict


def test_shifted_masks_transport_the_shift_parameter():
    base = dual4_binary(1.0)
    shifted = base.shifted(2)
    rep = check_reproduction(shifted, base.space, (1.5,), (0, 4))
    assert rep.verdict
    sw = stepwise_test(shifted, base.space, (1.5,), 1, 8)
    assert sw.verdict
    # multivariate version: tau' = tau + (M - I)^{-1} beta
    b = butterfly((1.0, 1.0))
    beta = (2, -1)
    rep2 = check_reproduction(b.shifted(beta), b.space, (2.0, -1.0), (0, 2), tol=1e-10)
    assert rep2.verdict


def test_report_json_shape_and_q_property():
    scheme = dual4_binary(1.0)
    rep = check_reproduction(scheme, scheme.space, (-0.5,), (0, 1))
    obj = json.loads(json.dumps(rep.to_json_obj()))
    assert obj["verdict"] == "pass"
    assert obj["nonsingularity_assumed"] is True and rep.nonsingularity_assumed is True
    assert {"kind", "k", "gamma", "lambda", "eps", "v", "lhs", "rhs", "residual"} <= set(
        obj["records"][0]
    )
    # q_0(M tau - tau) = 1 regardless of tau: the gamma = 0, eps = 1, lambda = 0
    # record must demand exactly a(1) = m
    zero_rec = [
        r
        for r in rep.records
        if r.k == 0 and r.gamma == (0,) and r.lam == (0j,) and r.eps == ((1 + 0j),)
    ]
    assert len(zero_rec) == 1
    assert abs(zero_rec[0].rhs - 2) < 1e-12


def test_invalid_k_range():
    scheme = dual4_binary(1.0)
    with pytest.raises(CheckError):
        check_reproduction(scheme, scheme.space, (-0.5,), (-1, 2))
    with pytest.raises(CheckError):
        check_generation(scheme, scheme.space, ())
    # stepwise reads its levels as the condition checks do: no vacuous pass, no symbol built
    built = []
    spy = SchemeSpec("spy", scheme.M, lambda k: built.append(k) or scheme.symbol(k), tau=scheme.tau)
    for levels in ([], (), [-1, 0], (-1, 2), (2, 1)):
        with pytest.raises(CheckError, match="level range must be nonempty with nonnegative levels"):
            next(stepwise_tests(spy, scheme.space, (-0.5,), levels, 4))
    assert built == []
    assert [rep.k for rep in stepwise_tests(spy, scheme.space, (-0.5,), [2, 0, 2], 4)] == [0, 2]
    assert [rep.k for rep in stepwise_tests(spy, scheme.space, (-0.5,), (1, 3), 4)] == [1, 2, 3]


def test_negative_or_non_finite_tolerance_is_rejected():
    scheme = dual4_binary(1.0)
    space, tau = scheme.space, scheme.tau
    reports = (
        lambda tol: check_generation(scheme, space, (0, 1), tol=tol),
        lambda tol: check_reproduction(scheme, space, tau, (0, 1), tol=tol),
        lambda tol: stepwise_test(scheme, space, tau, 0, 4, tol=tol),
    )
    for call in (*reports, lambda tol: solve_tau(scheme, space, tol=tol)):
        for tol in (math.nan, math.inf, -math.inf, -1.0, -1e-300):
            with pytest.raises(CheckError, match="tolerance must be finite and nonnegative"):
                call(tol)
    # zero is a tolerance: it gives a report with a verdict, not an error
    for call in reports:
        assert call(0).tol == 0


def test_three_factor_product_has_no_admissible_tau():
    lams = (1.0, -1.0, 2.0)
    scheme = exp_product(2, [(l, 1) for l in lams])
    space = ExpPolySpace([((0,), (l,)) for l in lams])
    with pytest.raises(NoAdmissibleTauError):
        solve_tau(scheme, space)


def test_normalize_matches_catalog_sheared():
    lam = (0.7, -0.2)
    raw = sheared_convolution(lam, normalized=False)
    normed = normalize(raw, lam, (1.0, 1.0))
    catalog = sheared_convolution(lam, normalized=True)
    for k in (0, 2, 5):
        assert max_diff(normed.symbol(k), catalog.symbol(k)) < 1e-14


def test_checker_detects_single_coefficient_perturbation():
    # a vacuous checker would still pass; a 1e-6 dent in any tap must flip it
    base = dual4_binary(1.0)
    reference = base.symbol(0)
    for position in [(-4,), (-1,), (2,)]:
        def rule(k, pos=position):
            sym = base.symbol(k)
            if k == 0:
                bump = LaurentSymbol(1, {pos: 1e-6})
                sym = sym + bump
            return sym

        dented = SchemeSpec("dented", base.M, rule)
        rep = check_reproduction(dented, base.space, (-0.5,), (0, 2))
        sw = stepwise_test(dented, base.space, (-0.5,), 0, 8, tol=1e-9)
        assert not rep.verdict and not sw.verdict
    assert base.symbol(0) == reference  # the base scheme was not mutated


def test_normalize_matches_two_factor_closed_form():
    m, n = 2, 2
    la, mu = 0.8, -0.3
    raw = exp_product(m, [(la, n), (mu, n)])
    closed = exp_product(m, [(la, n), (mu, n)], normalization="two_factor")
    normed = normalize(raw, (la,), (float(n),))
    for k in (0, 1, 4):
        assert max_diff(normed.symbol(k), closed.symbol(k)) < 1e-13


def test_stepwise_error_is_relative_above_one():
    # samples reach about 2e6 here; an absolute 1e-9 would fail on rounding
    lam = (0.98, 0.99)
    scheme = sheared_convolution(lam, normalized=True)
    space = ExpPolySpace([((0, 0), lam), ((1, 0), lam), ((0, 1), lam)])
    rep = stepwise_test(scheme, space, (1.0, 1.0), 0, 6)
    assert rep.verdict and rep.max_err < 1e-13


def test_nan_records_reach_the_reported_maximum():
    nan = float("nan")
    ok = StepwiseRecord(gamma=(0,), lam=(0j,), max_err=1e-15, points=3)
    bad = StepwiseRecord(gamma=(1,), lam=(0j,), max_err=nan, points=3)
    sw = StepwiseReport(scheme="x", k=0, tol=1e-9, tau=(0.0,), records=[ok, bad, ok])
    assert cmath.isnan(sw.max_err) and not sw.verdict
    assert "nan" in sw.table()

    rep = column_report([1e-15, nan], (1, 2), None)
    assert cmath.isnan(rep.max_residual) and not rep.verdict
    assert json.loads(json.dumps(rep.to_json_obj()))["verdict"] == "fail"
    clipped = column_report([1e-15] * 5 + [nan], (1, 6), None)
    assert "nan" in clipped.table(max_rows=2)


def test_failures_lists_every_record_the_verdict_fails_on():
    # An infinite coefficient gives NaN condition values; failures() must
    # name the records the verdict fails on, NaN residuals included.
    bad = SchemeSpec.stationary("bad", DilationMatrix(2), LaurentSymbol(1, {0: math.inf, 1: 1.0}))
    rep = check_generation(bad, ExpPolySpace.exponentials([0.5]), (0, 1))
    assert not rep.verdict and cmath.isnan(rep.max_residual)
    assert rep.failures() == [r for r in rep.records if not r.residual <= rep.tol]
    assert rep.failures() and all(cmath.isnan(r.residual) for r in rep.failures())


def test_space_rejects_writes_so_a_check_cannot_pass_on_no_conditions():
    space = dual4_binary(0.9).space
    with pytest.raises(AttributeError):
        space.pairs = ()
    with pytest.raises(AttributeError):
        space.s = 2
    rep = check_reproduction(dual4_binary(0.9), space, (0.3,), (0, 2))
    assert rep.records and not rep.verdict


@pytest.mark.parametrize(
    "scheme",
    [
        dual4_binary(0.9),
        dual4_ternary(0.7j),
        butterfly((0.4, -0.6)),
        sheared_convolution((0.8, 0.3), normalized=True),
        sqrt3_schemes()["interpolatory"],
    ],
    ids=lambda sc: sc.name,
)
def test_generation_records_are_the_reproduction_records_off_the_ones_point(scheme):
    def bits(z):
        return (z.real.hex(), z.imag.hex())

    ones = (1 + 0j,) * scheme.M.s
    gen = check_generation(scheme, scheme.space, (0, 3)).records
    rep = [r for r in check_reproduction(scheme, scheme.space, scheme.tau, (0, 3)).records if r.eps != ones]
    assert gen and len(gen) == len(rep)
    for g, r in zip(gen, rep):
        assert (g.k, g.gamma, g.lam, g.eps) == (r.k, r.gamma, r.lam, r.eps)
        assert [bits(z) for z in g.v] == [bits(z) for z in r.v]
        assert bits(g.lhs) == bits(r.lhs) and g.residual == r.residual
        assert bits(g.rhs) == bits(r.rhs) == bits(0j)


def test_reproduction_holds_at_deep_levels():
    for scheme in (dual4_binary(0.9), sqrt3_schemes()["interpolatory"]):
        rep = check_reproduction(scheme, scheme.space, scheme.tau, (60, 100))
        assert rep.verdict and {r.k for r in rep.records} == set(range(60, 101))


# -- 50-digit oracle for condition residuals -------------------------------------


def mp_rational(x) -> mpmath.mpf:
    x = sympy.Rational(x)
    return mpmath.mpf(int(x.p)) / int(x.q)


@functools.lru_cache(maxsize=None)
def exact_inv_power(mat, p):
    """M^{-p} as a tuple of mpf rows, from the exact sympy inverse."""
    with mpmath.workdps(50):
        P = sympy.Matrix(mat).inv() ** p
        return tuple(tuple(mp_rational(x) for x in P.row(i)) for i in range(P.rows))


def mp_eps(M: DilationMatrix, eps):
    """The exact dual point whose double-precision value is eps."""
    inv_t = sympy.Matrix(M.mat).inv().T
    for xi in M.dual_reps():
        phases = [sum(inv_t[i, j] * xi[j] for j in range(M.s)) % 1 for i in range(M.s)]
        pt = [mpmath.expjpi(2 * mp_rational(u)) for u in phases]
        if all(abs(complex(z) - e) < 1e-12 for z, e in zip(pt, eps)):
            return pt, not any(phases)
    raise AssertionError(f"no dual point near {eps}")


def mp_falling(gamma, z):
    out = mpmath.mpf(1)
    for zl, gl in zip(z, gamma):
        for j in range(gl):
            out *= zl - j
    return out


def mp_residual(scheme: SchemeSpec, tau, rec: ConditionRecord) -> float:
    """The record's residual from the float mask, exact M^-(k+1), eps and M tau - tau."""
    M = scheme.M
    with mpmath.workdps(50):
        P = exact_inv_power(M.mat, rec.k + 1)
        lam = [mpmath.mpc(z) for z in rec.lam]
        w = [sum(lam[i] * P[i][j] for i in range(M.s)) for j in range(M.s)]
        eps, eps_is_one = mp_eps(M, rec.eps)
        v = [e * mpmath.exp(-wj) for e, wj in zip(eps, w)]
        lhs = mpmath.mpc(0)
        for alpha, c in scheme.symbol(rec.k).sorted_items():
            term = mpmath.mpc(c) * mp_falling(rec.gamma, alpha)
            for vl, al in zip(v, alpha):
                term *= vl**al
            lhs += term
        rhs = mpmath.mpc(0)
        if eps_is_one:
            t = [mpmath.mpf(x) for x in tau]
            x = [sum(M.mat[i][j] * t[j] for j in range(M.s)) - t[i] for i in range(M.s)]
            rhs = M.m * mpmath.exp(-sum(wj * xj for wj, xj in zip(w, x))) * mp_falling(rec.gamma, x)
        err = abs(lhs - rhs)
        return float(err / abs(rhs) if abs(rhs) > 1 else err)


ORACLE_SCHEMES = [
    dual4_binary(0.9),
    dual4_ternary(1.1j),
    butterfly((0.5, 0.3)),
    sheared_convolution((0.6, 0.9), normalized=True),
    sqrt3_schemes()["interpolatory"],
]


@pytest.mark.parametrize("scheme", ORACLE_SCHEMES, ids=lambda sc: sc.name)
def test_residuals_match_fifty_digit_oracle(scheme):
    rep = check_reproduction(scheme, scheme.space, scheme.tau, [0, 3, 64, 200])
    assert rep.verdict
    for rec in rep.records:
        exact = mp_residual(scheme, scheme.tau, rec)
        assert abs(rec.residual - exact) <= 1e-12
        assert (rec.residual <= DEFAULT_TOL) == (exact <= DEFAULT_TOL)


def test_fifty_digit_oracle_fails_a_wrong_tau():
    scheme = dual4_binary(0.9)
    rep = check_reproduction(scheme, scheme.space, (0.0,), [0, 3, 64, 200])
    exact = [mp_residual(scheme, (0.0,), rec) for rec in rep.records]
    assert not rep.verdict and max(exact) > DEFAULT_TOL
    for rec, e in zip(rep.records, exact):
        assert abs(rec.residual - e) <= 1e-12
        assert (rec.residual <= DEFAULT_TOL) == (e <= DEFAULT_TOL)


def test_table_rows_follow_the_printed_residual():
    """A last-bit change among equal printed residuals leaves the table as it was."""

    def report(residuals):
        return column_report(residuals, (len(residuals), 1), None)  # one record per level

    base = [2.5e-12] * 50 + [1e-13] * 5
    table = report(base).table()
    rows = table.splitlines()[2:-2]
    assert len(rows) == 40 and all("2.500e-12 ok" in row for row in rows)
    assert "... 15 more record(s)" in table
    for i in (0, 39, 40, 49):
        for direction in (1.0, 0.0):
            moved = list(base)
            moved[i] = math.nextafter(base[i], direction)
            assert f"{moved[i]:.3e}" == "2.500e-12"
            assert report(moved).table() == table
    # records shown are the first 40 in record order (levels 7, 8, ...)
    assert [int(row.split()[0]) for row in rows] == list(range(7, 47))


# One scheme per geometry (M = 2, M = 3, 2I, the shear and sqrt3), built from
# a drawn frequency scale where the family has one; each reproduces its
# documented space at its documented tau.
GEOMETRIES = {
    "M2": lambda r: dual4_binary(r),
    "M3": lambda r: dual4_ternary(1j * r),
    "2I": lambda r: butterfly((0.5 * r, -0.3 * r)),
    "shear": lambda r: sheared_convolution((0.6j * r, 0.9j * r), normalized=True),
    "sqrt3": lambda r: sqrt3_schemes()["interpolatory"],
}


@settings(max_examples=30)
@given(
    st.sampled_from(sorted(GEOMETRIES)),
    st.floats(0.3, 1.2),
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
)
def test_shifted_masks_reproduce_at_the_transported_tau(geometry, r, beta):
    base = GEOMETRIES[geometry](r)
    M = base.M
    beta = tuple(beta[: M.s])
    # tau' = tau + (M - I)^-1 beta, solved exactly and rounded once
    A = sympy.Matrix(M.mat) - sympy.eye(M.s)
    step = A.solve(sympy.Matrix(beta))
    tau = tuple(float(sympy.Rational(t) + s) for t, s in zip(base.tau, step))
    shifted = base.shifted(beta)
    assert check_reproduction(shifted, base.space, tau, (0, 2)).verdict
    got = solve_tau(shifted, base.space)
    assert max(abs(g - t) for g, t in zip(got, tau)) <= 1e-12


@settings(max_examples=30)
@given(
    st.sampled_from(sorted(GEOMETRIES)),
    st.floats(0.3, 1.2),
    st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0),
    st.integers(0, 10),
)
def test_solve_tau_recovers_tau_through_normalize(geometry, r, scale, anchor):
    base = GEOMETRIES[geometry](r)
    lams = base.space.lambdas()
    # A per-level factor breaks reproduction; normalizing at the documented
    # tau, anchored at any frequency of the space, restores it.
    spoiled = base.scaled(lambda k: scale * (1 + 0.25 * k))
    with pytest.raises(NoAdmissibleTauError):
        solve_tau(spoiled, base.space)
    normed = normalize(spoiled, lams[anchor % len(lams)], base.tau)
    got = solve_tau(normed, base.space)
    assert max(abs(g - t) for g, t in zip(got, base.tau)) <= 1e-12


# -- the column-held report against a full list of records -----------------------


def eager_records(rep):
    """Every record of a column report, built level by level as checks did
    before reports held columns."""
    return [
        ConditionRecord(rep.mode, k, gamma, rep.lams[i], rep.eps[j], tuple(vk[i][j]), *fields)
        for k, vk, *level in zip(
            rep.levels, rep.v.tolist(), rep.lhs.tolist(), rep.rhs.tolist(), rep.residual.tolist()
        )
        for (i, gamma, j), *fields in zip(rep.order, *level)
    ]


def oracle_printed_rank(r):
    """Sort key, worst first, on the residual as the table prints it."""
    if cmath.isnan(r.residual):
        return (False, 0.0)
    return (True, -float(f"{r.residual:.3e}"))


def oracle_summary(rep, records):
    """Verdict and maximum residual (NaN when any is NaN) of a full list of records."""
    verdict = all(r.residual <= rep.tol for r in records)
    return verdict, float(np.max([r.residual for r in records])) if records else 0.0


def oracle_table(rep, records, max_rows):
    """The table as it was computed from a full list of records."""
    verdict, max_residual = oracle_summary(rep, records)
    lines = [
        f"{rep.mode} check for {rep.scheme}" + (f", tau={tuple(rep.tau)}" if rep.tau is not None else ""),
        f"{'k':>3} {'gamma':>10} {'lambda':>24} {'eps':>20} {'residual':>12} status",
    ]
    shown = records
    clipped = 0
    if len(shown) > max_rows:
        worst = sorted(shown, key=oracle_printed_rank)[:max_rows]
        clipped = len(shown) - max_rows
        shown = sorted(worst, key=lambda r: (r.k, tuple((z.real, z.imag) for z in r.lam), r.gamma))
    for r in shown:
        lam = ",".join(checker._fmt_c(z) for z in r.lam)
        eps = ",".join(checker._fmt_c(z) for z in r.eps)
        ok = "ok" if r.residual <= rep.tol else "FAIL"
        lines.append(f"{r.k:>3} {str(r.gamma):>10} {lam:>24} {eps:>20} {r.residual:>12.3e} {ok}")
    if clipped:
        lines.append(f"... {clipped} more record(s) not shown")
    lines.append(
        f"verdict: {'pass' if verdict else 'fail'}"
        f" (max residual {max_residual:.3e}, tol {rep.tol:.1e}, non-singularity assumed)"
    )
    return "\n".join(lines)


# Residuals that stress the ranking: non-finite values, zero, and last-bit
# neighbours of a printed value and of the rounding boundaries on either side
# of it (2.5005e-12 sits between the printed 2.500e-12 and 2.501e-12,
# 2.4995e-12 between 2.499e-12 and 2.500e-12).
TIE_RESIDUALS = [math.nan, math.inf, 0.0, 1e-9, 1.0000000001e-9] + [
    f(x) for x in (2.5e-12, 2.5005e-12, 2.4995e-12, 9.9995e-13) for f in (
        lambda x: x, lambda x: math.nextafter(x, 0.0), lambda x: math.nextafter(x, math.inf)
    )
]
# (levels, conditions per level) for 0, 1, 39, 40, 41 and 500 records
REPORT_SHAPES = [(1, 0), (1, 1), (3, 13), (4, 10), (41, 1), (20, 25)]


def column_report(residuals, shape, tau):
    """An (L, R) column report whose residuals are exactly `residuals` (lhs = r, rhs = 0)."""
    L, R = shape
    lams = ((0.5 + 0j,), (-0.25 + 1j,))
    order = tuple((c % 2, ((c // 4) % 3,), (c // 2) % 2) for c in range(R))
    v = np.arange(L * 4, dtype=complex).reshape(L, 2, 2, 1) * (0.1 + 0.3j)
    lhs = np.array(residuals, dtype=complex).reshape(L, R)
    return ConditionReport(
        "reproduction", "drawn", 1e-9, tau, levels=tuple(range(7, 7 + L)), order=order,
        lams=lams, eps=((1 + 0j,), (-1 + 0j,)), v=v, lhs=lhs, rhs=np.zeros_like(lhs),
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REPORT_SHAPES), st.data(), st.integers(0, 45), st.sampled_from([None, (0.25,)]))
def test_column_report_shows_what_the_record_list_shows(shape, data, max_rows, tau):
    n = shape[0] * shape[1]
    values = st.one_of(st.sampled_from(TIE_RESIDUALS), st.floats(0.0, 1e-6))
    residuals = data.draw(st.lists(values, min_size=n, max_size=n))
    col = column_report(residuals, shape, tau)
    # read the columns before any record is built
    got = [col.table(max_rows), col.table(), col.verdict, col.max_residual.hex()]
    records = eager_records(col)
    assert [r.residual.hex() for r in records] == [x.hex() for x in residuals]
    verdict, max_residual = oracle_summary(col, records)
    assert got == [oracle_table(col, records, max_rows), oracle_table(col, records, 40), verdict, max_residual.hex()]

    def dump(obj):
        return json.dumps(obj, sort_keys=True)

    failing = [r for r in records if not r.residual <= col.tol]
    assert dump([r.to_json_obj() for r in col.failures()]) == dump([r.to_json_obj() for r in failing])
    assert dump(col.to_json_obj()) == dump({
        "mode": col.mode, "scheme": col.scheme, "tol": col.tol,
        "tau": None if tau is None else list(tau), "verdict": "pass" if verdict else "fail",
        "max_residual": max_residual, "nonsingularity_assumed": True,
        "records": [r.to_json_obj() for r in records],
    })
    assert col.failures() == [r for r in col.records if not r.residual <= col.tol]


def test_len_of_records_builds_no_record(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return ConditionRecord(*args)

    monkeypatch.setattr(checker, "ConditionRecord", counting)
    scheme = dual4_binary(0.9)
    rep = check_reproduction(scheme, scheme.space, (0.0,), (0, 40))
    assert len(rep.records) == rep.residual.size > 40 and not built
    assert not rep.verdict and rep.max_residual > 0 and not built
    rows = rep.table().splitlines()[2:-2]
    assert len(rows) == 40 and not built  # the table reads the columns
    records = list(rep.records)
    assert len(built) == len(records) and list(rep.records) == records


@pytest.mark.parametrize(
    "residuals, max_rows",
    [
        # 2.4996e-12 and 2.5004e-12 both print as 2.500e-12, so the 2.4996e-12 rows,
        # first in record order, are shown ahead of larger residuals
        ([2.4996e-12] * 5 + [1e-13] * 3 + [2.5004e-12] * 40, 40),
        ([2.4996e-12, 1e-13, 2.5004e-12, 2.5004e-12, 2.5004e-12, 2.4996e-12], 3),
        ([0.0] * 48, 40),
        ([0.0] * 48, 0),
        ([math.nan] * 48, 40),
        ([math.nan] * 3 + [1e-9, math.inf] + [2.5e-12] * 43, 2),
    ],
    ids=["neighbours-of-the-cut-40", "neighbours-of-the-cut-3", "zeros", "zeros-no-rows", "all-nan", "nan-then-inf"],
)
def test_rows_printing_as_the_cut_row_rank_in_record_order(residuals, max_rows):
    col = column_report(residuals, (len(residuals) // 6, 6), None)
    records = eager_records(col)
    assert col.table(max_rows) == oracle_table(col, records, max_rows)


@pytest.mark.parametrize("max_rows", [-1, -5])
def test_a_negative_max_rows_is_rejected(max_rows):
    col = column_report([1e-3] * 32, (4, 8), None)
    with pytest.raises(CheckError, match=f"max_rows must be nonnegative, got {max_rows}"):
        col.table(max_rows)


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_records_built_on_demand_are_the_eager_records(geometry):
    def bits(z):
        return (z.real.hex(), z.imag.hex())

    scheme = GEOMETRIES[geometry](0.7)
    for rep in (
        check_generation(scheme, scheme.space, (0, 3)),
        check_reproduction(scheme, scheme.space, scheme.tau, [0, 2, 20, 64]),
    ):
        want = eager_records(rep)
        assert len(rep.records) == len(want) > 0
        for got, ref in zip(rep.records, want):
            assert (got.kind, got.k, got.gamma, got.lam, got.eps) == (ref.kind, ref.k, ref.gamma, ref.lam, ref.eps)
            assert [bits(z) for z in got.v] == [bits(z) for z in ref.v]
            assert (bits(got.lhs), bits(got.rhs), got.residual.hex()) == (bits(ref.lhs), bits(ref.rhs), ref.residual.hex())
            assert type(got.k) is int and all(type(z) is complex for z in got.v + (got.lhs, got.rhs))


def test_reports_reject_writes_and_keep_their_arrays():
    scheme = dual4_binary(0.9)
    rep = check_reproduction(scheme, scheme.space, scheme.tau, (0, 2))
    for name in ("tol", "records", "residual", "levels"):
        with pytest.raises(AttributeError):
            setattr(rep, name, None)
    for a in (rep.v, rep.lhs, rep.rhs, rep.residual):
        with pytest.raises(ValueError):
            a.flat[0] = 0
    sw = stepwise_test(scheme, scheme.space, scheme.tau, 0, 3)
    with pytest.raises(AttributeError):
        sw.tol = 1.0
    assert type(sw.records) is tuple and type(rep.records[:]) is tuple


def test_a_report_is_freed_without_the_cycle_collector():
    scheme = dual4_binary(0.9)
    rep = check_reproduction(scheme, scheme.space, scheme.tau, (0, 2))
    records, gone = rep.records, weakref.ref(rep)
    gc.disable()
    try:
        del rep
        assert gone() is None  # freed by reference counting alone
    finally:
        gc.enable()
    assert len(list(records)) == len(records) > 0  # the records outlive their report
