"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Tolerances are pinned here and nowhere else.
"""

import cmath
import math
import random
import warnings
from contextlib import contextmanager

from expsub import (
    DilationMatrix,
    ExpPolySpace,
    GridData,
    LaurentSymbol,
    apply_operator,
    basic_limit_samples,
    butterfly,
    check_generation,
    check_reproduction,
    dual4_binary,
    dual4_binary_limit_mask,
    dual4_ternary,
    dual4_ternary_limit_mask,
    exp_bspline,
    exp_product,
    is_interpolatory,
    sheared_convolution,
    solve_tau,
    sqrt3_schemes,
    stepwise_test,
)
from symbol_diff import max_diff


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[criterion {name}] FAIL")
        raise
    print(f"[criterion {name}] PASS")


def quiet_space(pairs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ExpPolySpace(pairs)


def conic_space(lam):
    return ExpPolySpace(
        [((0,), (0.0,)), ((1,), (0.0,)), ((0,), (lam,)), ((0,), (-lam,))]
    )


def test_criterion_1_binary_dual4():
    with criterion("1 binary dual-4"):
        for lam in (1.0, 1j):
            scheme = dual4_binary(lam)
            space = conic_space(lam)
            rep = check_reproduction(scheme, space, (-0.5,), (0, 5), tol=1e-9)
            assert rep.verdict and rep.max_residual < 1e-9
            for k in range(6):
                sw = stepwise_test(scheme, space, (-0.5,), k, 8, tol=1e-9)
                assert sw.verdict and sw.max_err < 1e-9
            bad = check_reproduction(scheme, space, (0.0,), (0, 5), tol=1e-9)
            bad_sw = stepwise_test(scheme, space, (0.0,), 0, 8, tol=1e-9)
            assert not bad.verdict and not bad_sw.verdict
        lim = dual4_binary_limit_mask()
        k20 = dual4_binary(1.0).symbol(20)
        assert max_diff(k20, lim) < 1e-8
        printed = {-3: -7 / 128, -1: 105 / 128, 1: 35 / 128, 3: -5 / 128}
        for e, c in printed.items():
            assert abs(k20.coeff((e,)) - c) < 1e-8


def dual4_ternary_limit_symbol() -> LaurentSymbol:
    """-z^-6 (1/1296) (z^2+z+1)^4 (z+1) (35 z^2 - 94 z + 35), expanded exactly."""

    def poly(coeffs):
        return LaurentSymbol(1, {(i,): c for i, c in enumerate(coeffs)})

    prod = poly([1, 1, 1]) ** 4 * poly([1, 1]) * poly([35, -94, 35])
    return prod.shift(-6) * (-1 / 1296)


def test_criterion_2_ternary_dual4():
    with criterion("2 ternary dual-4"):
        for lam in (1.0, 1j):
            scheme = dual4_ternary(lam)
            space = conic_space(lam)
            rep = check_reproduction(scheme, space, (-0.25,), (0, 5), tol=1e-9)
            assert rep.verdict and rep.max_residual < 1e-9
            for k in range(6):
                sw = stepwise_test(scheme, space, (-0.25,), k, 8, tol=1e-9)
                assert sw.verdict
            bad = check_reproduction(scheme, space, (0.0,), (0, 5), tol=1e-9)
            bad_sw = stepwise_test(scheme, space, (0.0,), 0, 8, tol=1e-9)
            assert not bad.verdict and not bad_sw.verdict
        lim = dual4_ternary_limit_mask()
        assert max_diff(dual4_ternary(1.0).symbol(20), lim) < 1e-8
        assert max_diff(dual4_ternary_limit_symbol(), lim) < 1e-8


def test_criterion_3_exp_bspline():
    with criterion("3 exponential B-spline"):
        for m in (2, 3):
            for lam in (1.0, 1j):
                scheme = exp_bspline(m, lam)
                space = ExpPolySpace([((0,), (lam,))])
                for k in (0, 1, 2):
                    sw = stepwise_test(scheme, space, (0.0,), k, 6, tol=1e-12)
                    assert sw.verdict and sw.max_err <= 1e-12
                samples = basic_limit_samples(scheme, 12)
                scale = max(abs(cmath.exp(lam * t[0])) for t, _ in samples)
                dev = max(abs(v - cmath.exp(lam * t[0])) for t, v in samples)
                assert dev < 1e-3 * scale
                for tau in (0.0, 0.5, 1.0):
                    normed = exp_bspline(m, lam, tau=tau)
                    rep = check_reproduction(normed, space, (tau,), (0, 5), tol=1e-9)
                    assert rep.verdict


def test_criterion_4_impossibility_results():
    with criterion("4 impossibility results"):
        # n-fold factors cannot reproduce x^2 exp(lambda x)
        for m in (2, 3):
            for n in (2, 3):
                tau = n / 2
                scheme = exp_bspline(m, 1.0, n_fold=n, tau=tau)
                ok = check_reproduction(scheme, scheme.space, (tau,), (0, 3), tol=1e-9)
                assert ok.verdict  # (0, lambda) and (1, lambda) pass
                wide = quiet_space([((2,), (1.0,))])
                rep = check_reproduction(scheme, wide, (tau,), (0, 3), tol=1e-9)
                assert not rep.verdict
                fails = rep.failures()
                assert fails and all(r.gamma == (2,) for r in fails)
                assert min(r.residual for r in fails) > 0.01
        # two distinct factors break the first-derivative condition at v = r_k^{-1}
        for m in (2, 3):
            scheme = exp_product(m, [(1.0, 2), (-1.0, 2)], normalization="two_factor")
            base = check_reproduction(scheme, scheme.space, scheme.tau, (0, 3), tol=1e-9)
            assert base.verdict
            probe = quiet_space(
                [((0,), (1.0,)), ((0,), (-1.0,)), ((1,), (1.0,))]
            )
            rep = check_reproduction(scheme, probe, scheme.tau, (0, 3), tol=1e-9)
            assert not rep.verdict
            fails = rep.failures()
            assert fails and all(
                r.gamma == (1,) and r.eps == ((1 + 0j),) for r in fails
            )
            r0 = cmath.exp(1.0 * float(m) ** -1)
            assert any(abs(r.v[0] - 1 / r0) < 1e-12 for r in fails if r.k == 0)


def test_criterion_5_butterfly():
    with criterion("5 butterfly"):
        for lam in ((1.0, 1.0), (1j, 1j)):
            scheme = butterfly(lam)
            for k in range(5):
                assert is_interpolatory(scheme.symbol(k), scheme.M)
            gen = check_generation(scheme, scheme.space, (0, 4), tol=1e-10)
            assert gen.verdict
            rep = check_reproduction(scheme, scheme.space, (0.0, 0.0), (0, 4), tol=1e-10)
            assert rep.verdict
            sw = stepwise_test(
                scheme, ExpPolySpace([((0, 0), lam)]), (0.0, 0.0), 0, 4, tol=1e-10
            )
            assert sw.verdict and sw.max_err <= 1e-10


def test_criterion_6_sheared_convolution():
    with criterion("6 sheared convolution"):
        lam = (1.0, 0.5)
        raw = sheared_convolution(lam, normalized=False)
        only_const = check_reproduction(raw, raw.space, (0.0, 0.0), (0, 3), tol=1e-9)
        assert only_const.verdict
        grad = quiet_space([((1, 0), lam)])
        rep = check_reproduction(raw, grad, (0.0, 0.0), (0, 3), tol=1e-9)
        fails = [r for r in rep.failures() if r.gamma == (1, 0)]
        assert not rep.verdict and fails
        normed = sheared_convolution(lam, normalized=True)
        tau = solve_tau(normed, normed.space, tol=1e-9)
        assert abs(tau[0] - 1) < 1e-10 and abs(tau[1] - 1) < 1e-10
        full = check_reproduction(normed, normed.space, tau, (0, 4), tol=1e-9)
        assert full.verdict


def test_criterion_7_sqrt3():
    with criterion("7 sqrt3 schemes"):
        schemes = sqrt3_schemes()
        approx = schemes["approximating"]
        tau = solve_tau(approx, approx.space, tol=1e-12)
        assert max(abs(x) for x in tau) < 1e-10
        rep = check_reproduction(approx, approx.space, (0.0, 0.0), (0, 4), tol=1e-12)
        assert rep.verdict
        interp = schemes["interpolatory"]
        assert is_interpolatory(interp.symbol(0), interp.M)
        quad = check_reproduction(interp, interp.space, (0.0, 0.0), (0, 4), tol=1e-12)
        assert quad.verdict


def _random_symbol(rng, s, span=4, nterms=7):
    return LaurentSymbol(
        s,
        {
            tuple(rng.randint(-span, span) for _ in range(s)): complex(
                rng.uniform(-1, 1), rng.uniform(-1, 1)
            )
            for _ in range(nterms)
        },
    )


def partial_derivative(a: LaurentSymbol, gamma) -> LaurentSymbol:
    """D^gamma a as a symbol: each term c z^alpha becomes c q_gamma(alpha) z^(alpha - gamma)."""
    terms = {}
    for alpha, c in a.terms().items():
        q = math.prod(x - d for x, g in zip(alpha, gamma) for d in range(g))
        if q:
            terms[tuple(x - g for x, g in zip(alpha, gamma))] = c * q
    return LaurentSymbol(a.s, terms)


def test_criterion_8a_weighted_vs_symbolic_derivative():
    with criterion("8a weighted vs symbolic derivative"):
        rng = random.Random(2024)
        for _ in range(200):
            s = rng.choice([1, 2])
            a = _random_symbol(rng, s)
            gamma = tuple(rng.randint(0, 2) for _ in range(s))
            z = tuple(
                cmath.rect(rng.uniform(0.6, 1.4), rng.uniform(0, 2 * cmath.pi))
                for _ in range(s)
            )
            zg = 1 + 0j
            for zj, gj in zip(z, gamma):
                zg *= zj**gj
            lhs = a.weighted_derivative(gamma, z)
            rhs = zg * partial_derivative(a, gamma).eval(z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_criterion_8b_sub_symbol_decomposition():
    with criterion("8b sub-symbol decomposition"):
        rng = random.Random(77)
        mats = [
            DilationMatrix(x)
            for x in (2, 3, [[2, 1], [0, 2]], [[1, 2], [-2, -1]], [[2, 0], [0, 2]])
        ]
        for i in range(200):
            M = mats[i % len(mats)]
            a = _random_symbol(rng, M.s)
            total = LaurentSymbol.zero(M.s)
            for eps in M.coset_reps():
                total = total + a.sub_symbol(eps, M)
            assert total == a


def test_criterion_8c_operator_vs_brute_force():
    with criterion("8c operator vs brute force"):
        rng = random.Random(5150)
        mats = [
            DilationMatrix(x)
            for x in (2, 3, [[2, 1], [0, 2]], [[1, 2], [-2, -1]], [[2, 0], [0, 2]])
        ]
        for i in range(100):
            M = mats[i % len(mats)]
            mask = _random_symbol(rng, M.s, span=3, nterms=5)
            data = GridData(
                M.s,
                0,
                {
                    tuple(rng.randint(-3, 3) for _ in range(M.s)): complex(
                        rng.uniform(-1, 1), rng.uniform(-1, 1)
                    )
                    for _ in range(6)
                },
            )
            got = apply_operator(mask, M, data)
            mterms = mask.terms()
            out = {}
            for alpha in got.values:
                acc = 0j
                for beta in sorted(data.values):
                    mb = M.apply(beta)
                    mu = tuple(a - b for a, b in zip(alpha, mb))
                    if mu in mterms:
                        acc += mterms[mu] * data.values[beta]
                out[alpha] = acc
            assert got.values == out


def test_criterion_8d_dual_point_sum_identity():
    with criterion("8d dual point sum identity"):
        for mat in (2, 3, [[2, 0], [0, 2]], [[2, 1], [0, 2]], [[1, 2], [-2, -1]]):
            M = DilationMatrix(mat)
            E = M.coset_reps()
            for i, eps in enumerate(M.dual_points()):
                total = 0j
                for e in E:
                    term = 1 + 0j
                    for z, p in zip(eps, e):
                        term *= z**p
                    total += term
                want = M.m if i == 0 else 0.0
                assert abs(total - want) < 1e-10


def test_criterion_8e_shifted_masks():
    with criterion("8e shifted-mask parameter transport"):
        base = dual4_binary(1.0)
        shifted = base.shifted(2)
        space = conic_space(1.0)
        rep = check_reproduction(shifted, space, (1.5,), (0, 5), tol=1e-9)
        assert rep.verdict
        sw = stepwise_test(shifted, space, (1.5,), 1, 8, tol=1e-9)
        assert sw.verdict
