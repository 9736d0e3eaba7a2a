"""Catalog constructors: supports, limits, guards, stationary counterparts."""

import cmath
from fractions import Fraction

import pytest

from expsub import (
    CATALOG,
    CatalogParameterError,
    DilationMatrix,
    ExpPolySpace,
    LaurentSymbol,
    butterfly,
    dual4_binary,
    dual4_binary_limit_mask,
    dual4_ternary,
    dual4_ternary_limit_mask,
    exp_box_spline,
    exp_bspline,
    exp_product,
    sheared_convolution,
    sqrt3_schemes,
)
from expsub.catalog import SHEAR_DIGITS, _butterfly_coeffs
from symbol_diff import max_diff


def test_exp_bspline_shapes():
    flat = exp_bspline(2, 0.0)
    assert flat.symbol(0) == LaurentSymbol(1, {(0,): 1, (1,): 1})
    tern = exp_bspline(3, 0.4)
    sym = tern.symbol(2)
    assert sym.support() == [(0,), (1,), (2,)]
    r = cmath.exp(0.4 * 3.0**-3)
    assert abs(sym.coeff((2,)) - r * r) < 1e-15
    with pytest.raises(CatalogParameterError):
        exp_bspline(1, 0.0)
    with pytest.raises(CatalogParameterError):
        exp_bspline(2, 0.0, n_fold=0)


def test_exp_product_collapse_and_guards():
    a = exp_product(3, [(0.7, 1), (0.7, 1)]).symbol(2)
    b = exp_bspline(3, 0.7, n_fold=2).symbol(2)
    assert max_diff(a, b) == 0.0
    with pytest.raises(CatalogParameterError):
        exp_product(2, [(1.0, 1)], normalization="two_factor")
    with pytest.raises(CatalogParameterError):
        exp_product(2, [(1.0, 1), (2.0, 2)], normalization="two_factor")
    with pytest.raises(CatalogParameterError):
        exp_product(2, [(1.0, 1)], normalization="bogus")


def test_exp_product_rejects_a_callable_normalization():
    # per-level factors belong to SchemeSpec.scaled, not to this family
    with pytest.raises(CatalogParameterError, match="unknown normalization"):
        exp_product(2, [(1.0, 1)], normalization=lambda k: 0.5)


def test_exp_box_spline_mask():
    scheme = exp_box_spline(2, (0.0, 0.0))
    assert scheme.symbol(0) == LaurentSymbol(
        2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    )
    lam = (0.5, -0.3)
    s = exp_box_spline(2, lam)
    sym = s.symbol(1)
    r = [cmath.exp(z * 2.0**-2) for z in lam]
    assert abs(sym.coeff((1, 1)) - r[0] * r[1]) < 1e-15
    assert s.M == DilationMatrix([[2, 0], [0, 2]])


def test_dual4_binary_mask_properties():
    scheme = dual4_binary(1.0)
    for k in (0, 1, 5):
        sym = scheme.symbol(k)
        assert sym.support() == [(e,) for e in range(-4, 4)]
        # printed symmetry c_{i,2} = c_{i,1}: palindromic about -1/2
        for e in range(-4, 4):
            assert sym.coeff((e,)) == sym.coeff((-1 - e,))
        assert abs(sym.eval((1,)) - 2) < 1e-12


def test_dual4_binary_limit_mask():
    lim = dual4_binary_limit_mask()
    assert lim.coeff((-3,)) == -7 / 128
    assert lim.coeff((-1,)) == 105 / 128
    for lam in (1.0, 1j):
        assert max_diff(dual4_binary(lam).symbol(20), lim) < 1e-8


def test_dual4_binary_limit_monotone():
    lim = dual4_binary_limit_mask()
    dists = [max_diff(dual4_binary(1.0).symbol(k), lim) for k in range(2, 9)]
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_dual4_binary_domain_guards():
    with pytest.raises(CatalogParameterError):
        dual4_binary(0.0)
    with pytest.raises(CatalogParameterError):
        dual4_binary(1 + 1j)
    # w^[0] = cos(pi/2) = 0 for lambda = 2 pi i
    scheme = dual4_binary(2j * cmath.pi)
    with pytest.raises(CatalogParameterError, match="level 0"):
        scheme.symbol(0)
    # w^[0] = cos(pi/4), so 2w^2 - 1 = 0, for lambda = pi i
    scheme = dual4_binary(1j * cmath.pi)
    with pytest.raises(CatalogParameterError, match="2w\\^2-1"):
        scheme.symbol(0)


def test_dual4_ternary_mask_properties():
    scheme = dual4_ternary(1.0)
    for k in (0, 3):
        sym = scheme.symbol(k)
        assert sym.support() == [(e,) for e in range(-6, 6)]
        for e in range(-6, 6):
            assert abs(sym.coeff((e,)) - sym.coeff((-1 - e,))) < 1e-15
        assert abs(sym.eval((1,)) - 3) < 1e-12


def dual4_ternary_limit_symbol() -> LaurentSymbol:
    """-z^-6 (1/1296) (z^2+z+1)^4 (z+1) (35 z^2 - 94 z + 35), expanded exactly."""

    def poly(coeffs):
        return LaurentSymbol(1, {(i,): c for i, c in enumerate(coeffs)})

    prod = poly([1, 1, 1]) ** 4 * poly([1, 1]) * poly([35, -94, 35])
    return prod.shift(-6) * (-1 / 1296)


def test_dual4_ternary_limits():
    lim = dual4_ternary_limit_mask()
    assert lim.coeff((-6,)) == pytest.approx(-35 / 1296, abs=1e-16)
    assert max_diff(dual4_ternary_limit_symbol(), lim) < 1e-12
    for lam in (1.0, 1j):
        assert max_diff(dual4_ternary(lam).symbol(20), lim) < 1e-8
    with pytest.raises(CatalogParameterError):
        dual4_ternary(0.0)


def test_butterfly_structure():
    zero = butterfly((0.0, 0.0))
    sym = zero.symbol(0)
    assert abs(sym.eval((1, 1)) - 4) < 1e-12
    assert all(-3 <= e <= 3 for exp in sym.support() for e in exp)
    assert sym.coeff((0, 0)) == 1.0
    lam = (0.8, -0.6)
    nonzero = butterfly(lam).symbol(2)
    assert nonzero.coeff((0, 0)) == 1.0  # exactly interpolatory at every level
    with pytest.raises(CatalogParameterError):
        butterfly((1.0, 1j))


def exact_butterfly_coeffs() -> dict[tuple[int, int], Fraction]:
    """The butterfly combination expanded over `Fraction` dicts: its own
    convolution and powers, recentered by (u w)^-3."""

    def conv(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = (ea[0] + eb[0], ea[1] + eb[1])
                out[e] = out.get(e, Fraction(0)) + ca * cb
        return {e: c for e, c in out.items() if c != 0}

    def power(a, n):
        out = {(0, 0): Fraction(1)}
        for _ in range(n):
            out = conv(out, a)
        return out

    half = Fraction(1, 2)
    fu, fw, fuw = ({(0, 0): half, e: half} for e in ((1, 0), (0, 1), (1, 1)))
    combo = {}
    for prefactor, weight, (j, h, ell) in (
        ((1, 1), 7, (2, 2, 2)),
        ((1, 0), -2, (1, 3, 3)),
        ((0, 1), -2, (3, 1, 3)),
        ((1, 1), -2, (3, 3, 1)),
    ):
        for e, c in conv(conv(power(fu, j), power(fw, h)), power(fuw, ell)).items():
            key = (e[0] + prefactor[0], e[1] + prefactor[1])
            combo[key] = combo.get(key, Fraction(0)) + 4 * weight * c
    return {(e[0] - 3, e[1] - 3): c for e, c in combo.items() if c != 0}


def test_butterfly_float_build_is_the_exact_expansion():
    """Every float coefficient, in order, is hex-equal to its exact rational."""
    want = [(e, float(c).hex()) for e, c in exact_butterfly_coeffs().items()]
    got = _butterfly_coeffs().terms()
    assert [(e, c.real.hex()) for e, c in got.items()] == want
    assert len(want) == 25 and got[(0, 0)] == 1


def test_sheared_convolution_masks():
    M = DilationMatrix([[2, 1], [0, 2]])
    raw = sheared_convolution((0.0, 0.0), normalized=False)
    sym = raw.symbol(0)
    # (1/4) (sum over the staircase digits)^2
    b = LaurentSymbol(2, {e: 1.0 for e in SHEAR_DIGITS})
    assert max_diff(sym, b * b * 0.25) == 0.0
    norm0 = sheared_convolution((0.0, 0.0), normalized=True)
    assert max_diff(norm0.symbol(0), sym) == 0.0  # K = 1 at lambda = 0
    assert raw.tau == (0.0, 0.0) and norm0.tau == (1.0, 1.0)
    assert raw.M == M


def test_sqrt3_symbols():
    schemes = sqrt3_schemes()
    approx = schemes["approximating"].symbol(0)
    interp = schemes["interpolatory"].symbol(0)
    assert abs(approx.eval((1, 1)) - 3) < 1e-12
    assert abs(interp.eval((1, 1)) - 3) < 1e-12
    assert approx.coeff((1, 1)) == pytest.approx(1 / 6)
    assert interp.coeff((0, 0)) == 1.0 and interp.coeff((1, 0)) == pytest.approx(4 / 9)
    assert schemes["approximating"].M.m == 3
    # stationary family: same symbol at every level
    assert schemes["approximating"].symbol(7) == approx


@pytest.mark.parametrize("variant", ["approximating", "interpolatory"])
def test_sqrt3_catalog_entry_builds_only_its_variant(monkeypatch, variant):
    built = []
    polynomials = ExpPolySpace.polynomials.__func__

    def counted(cls, s, max_degree):
        built.append(max_degree)
        return polynomials(cls, s, max_degree)

    monkeypatch.setattr(ExpPolySpace, "polynomials", classmethod(counted))
    spec = CATALOG["sqrt3"].factory(variant=variant)
    assert built == [1 if variant == "approximating" else 2]
    want = sqrt3_schemes()[variant]
    assert (spec.name, spec.tau, spec.M, spec.space) == (want.name, want.tau, want.M, want.space)
    assert spec.symbol(0).sorted_items() == want.symbol(0).sorted_items()
    with pytest.raises(CatalogParameterError):
        CATALOG["sqrt3"].factory(variant="other")


def test_lambda_to_zero_limits():
    # dual-4 masks depend on lambda quadratically through w: already at
    # lambda = 1e-8 they sit on their stationary limits to 1e-12
    assert max_diff(dual4_binary(1e-8).symbol(0), dual4_binary_limit_mask()) < 1e-12
    assert max_diff(dual4_ternary(1e-8).symbol(0), dual4_ternary_limit_mask()) < 1e-12
    # the geometric-factor families move linearly in lambda: distance ~ |lambda|/2
    linear_cases = [
        (exp_bspline(2, 1e-8).symbol(0), exp_bspline(2, 0.0).symbol(0)),
        (butterfly((1e-8, 1e-8)).symbol(0), butterfly((0.0, 0.0)).symbol(0)),
        (
            sheared_convolution((1e-8, 1e-8)).symbol(0),
            sheared_convolution((0.0, 0.0)).symbol(0),
        ),
        (
            exp_box_spline(2, (1e-8, 1e-8)).symbol(0),
            exp_box_spline(2, (0.0, 0.0)).symbol(0),
        ),
    ]
    for a, b in linear_cases:
        assert max_diff(a, b) < 2e-8
    # and at lambda = 1e-12 they reach the 1e-12 neighborhood as well
    assert max_diff(exp_bspline(2, 1e-12).symbol(0), exp_bspline(2, 0.0).symbol(0)) < 1e-12
    assert (
        max_diff(butterfly((1e-12, 1e-12)).symbol(0), butterfly((0.0, 0.0)).symbol(0))
        < 1e-12
    )


def test_catalog_registry_listing():
    assert set(CATALOG) == {
        "exp_bspline",
        "exp_product",
        "exp_box_spline",
        "dual4_binary",
        "dual4_ternary",
        "butterfly",
        "sheared_convolution",
        "sqrt3",
    }
    for entry in CATALOG.values():
        obj = entry.to_json_obj()
        assert {"id", "summary", "parameters", "documented_tau", "documented_space", "citation"} <= set(obj)


def test_documented_contracts_hold_for_unit_and_imaginary_frequencies():
    from expsub import check_reproduction, stepwise_test

    def instances(lam):
        lam2 = (lam, lam)
        return [
            exp_bspline(2, lam),
            exp_bspline(3, lam),
            exp_bspline(2, lam, n_fold=2, tau=1.0),
            exp_product(2, [(lam, 1), (-lam, 1)], normalization="two_factor"),
            exp_box_spline(2, lam2),
            dual4_binary(lam),
            dual4_ternary(lam),
            butterfly(lam2),
            sheared_convolution(lam2, normalized=False),
            sheared_convolution(lam2, normalized=True),
        ]

    schemes = instances(1.0) + instances(1j) + list(sqrt3_schemes().values())
    for scheme in schemes:
        rep = check_reproduction(scheme, scheme.space, scheme.tau, (0, 5))
        assert rep.verdict, (scheme.name, rep.max_residual)
        window = 6 if scheme.M.s == 1 else 4
        sw = stepwise_test(scheme, scheme.space, scheme.tau, 1, window, tol=1e-8)
        assert sw.verdict, (scheme.name, sw.max_err)


def test_sheared_first_order_condition_value_is_eight():
    from expsub import check_reproduction
    import warnings

    raw = sheared_convolution((1.0, 0.5), normalized=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        from expsub import ExpPolySpace

        probe = ExpPolySpace([((1, 0), (1.0, 0.5))])
    rep = check_reproduction(raw, probe, (0.0, 0.0), (0, 2))
    fails = [r for r in rep.failures() if r.gamma == (1, 0)]
    assert fails
    for r in fails:
        assert abs(r.lhs - 8) < 1e-12  # the unsatisfiable value
        assert r.rhs == 0j  # q_(1,0)(0) = 0 at shift (0, 0)


def test_sheared_lambda_zero_reproduces_linear_polynomials():
    from expsub import ExpPolySpace, check_reproduction

    scheme = sheared_convolution((0.0, 0.0), normalized=True)
    rep = check_reproduction(
        scheme, ExpPolySpace.polynomials(2, 1), (1.0, 1.0), (0, 4), tol=1e-12
    )
    assert rep.verdict


def test_dual4_ternary_limit_monotone():
    lim = dual4_ternary_limit_mask()
    dists = [max_diff(dual4_ternary(1.0).symbol(k), lim) for k in range(2, 9)]
    assert all(b < a for a, b in zip(dists, dists[1:]))


# -- factored oracle for the dual four-point masks -------------------------------
# The catalog builds each level once, from closed-form coefficients.  These
# factored symbols are a second construction of the same masks, with w taken
# from cmath.cosh rather than the catalog's exponentials.


def _poly(coeffs):
    return LaurentSymbol(1, {(i,): c for i, c in enumerate(coeffs)})


def _dual4_w(lam, m, k):
    return cmath.cosh(lam / (2 * m ** (k + 1)))


def dual4_binary_factored(lam, k):
    w = _dual4_w(lam, 2, k)
    den = 64 * w**3 * (2 * w**2 - 1) * (w + 1)
    return (
        _poly([1, 1]) ** 3
        * _poly([1, 4 * w**2 - 2, 1])
        * _poly([2 * w**2 + 2 * w + 1, -(8 * w**4 + 8 * w**3 + 2), 2 * w**2 + 2 * w + 1])
    ).shift(-4) * (-1 / den)


def dual4_ternary_factored(lam, k):
    w = _dual4_w(lam, 3, k)
    K = 1 / (24 * w * (2 * w - 1) ** 3 * (2 * w + 1) ** 3 * (4 * w**2 - 3) * (w + 1))
    A = 16 * w**4 + 16 * w**3 + 3
    B = -64 * w**6 - 64 * w**5 + 32 * w**4 + 32 * w**3 - 12 * w**2 - 12 * w - 6
    return (
        _poly([1, 1, 1]) ** 2
        * _poly([1, 1])
        * _poly([1, 4 * w**2 - 2, 16 * w**4 - 16 * w**2 + 3, 4 * w**2 - 2, 1])
        * _poly([A, B, A])
    ).shift(-6) * (-K)


def test_dual4_cross_construction_all_levels():
    # every coefficient against the factored oracle, relative to ||a^[k]||_1
    # (the worst case over these frequencies and levels is about 5e-16)
    for family, oracle in (
        (dual4_binary, dual4_binary_factored),
        (dual4_ternary, dual4_ternary_factored),
    ):
        for lam in (0.3, 0.9, 1.0, 2.0, 5.0, 0.5j, 1j, 1.1j, 2j, 3j):
            scheme = family(lam)
            for k in (*range(63), 100, 200):
                mask, factored = scheme.symbol(k), oracle(lam, k)
                assert mask.support() == factored.support()
                scale = max(1.0, sum(abs(c) for _, c in mask.sorted_items()))
                assert max_diff(mask, factored) <= 1e-12 * scale, (family.__name__, lam, k)


def test_dual4_large_masks_build_and_reproduce():
    # ||a||_1 is 7.3e3 and 77 at these levels, so two constructions differ by
    # more than an absolute 1e-12 on rounding alone; both masks are valid
    from expsub import check_reproduction

    for family, oracle, lam, k in (
        (dual4_binary, dual4_binary_factored, 3.1414j, 0),
        (dual4_ternary, dual4_ternary_factored, 57.9103j, 1),
    ):
        scheme = family(lam)
        mask = scheme.symbol(k)
        scale = sum(abs(c) for _, c in mask.sorted_items())
        assert max_diff(mask, oracle(lam, k)) <= 1e-12 * scale
        assert check_reproduction(scheme, scheme.space, scheme.tau, (k, k + 3)).verdict


def test_level_factors_are_correctly_rounded():
    from expsub.catalog import _level_scale

    # 3^-477 is the one level of 0..999 where float(3) ** -477 is off by an ulp
    assert float(3) ** -477 != 1 / 3**477
    assert _level_scale(DilationMatrix(3), 476) == 1 / 3**477
    # sin(x) == x for so small an x: the mask carries the factor itself
    r = exp_bspline(3, 1j).symbol(476).coeff((1,))
    assert r.imag == 1 / 3**477
    for k in range(0, 201):
        # the old factor was already correctly rounded for m = 2, 3, 4 at
        # these levels (the benchmark checks levels up to 62), so no mask moves
        for m in (2, 3, 4):
            assert _level_scale(DilationMatrix(m), k) == float(m) ** -(k + 1) == 1 / m ** (k + 1)
    assert _level_scale(DilationMatrix([[2, 0], [0, 2]]), 1099) == 2.0**-1100 == 0.0
