"""Laurent symbol arithmetic, derivatives, sub-symbols, serialization."""

import cmath
import json
import math
import random
import warnings

import pytest

from expsub import (
    DilationMatrix,
    ExpPolySpace,
    LaurentSymbol,
    SchemeSpec,
    SymbolDomainError,
    SymbolError,
    sqrt3_schemes,
)
from symbol_diff import max_diff

MATRIX_POOL = [
    2,
    3,
    -2,
    [[2, 0], [0, 2]],
    [[2, 1], [0, 2]],
    [[1, 2], [-2, -1]],
    [[1, 1], [-1, 1]],
]


def random_symbol(rng, s, span=5, nterms=8):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(-span, span) for _ in range(s))
        terms[e] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return LaurentSymbol(s, terms)


def random_point(rng, s):
    return tuple(
        cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * cmath.pi)) for _ in range(s)
    )


def test_eval_examples():
    r = 0.75
    a = LaurentSymbol(1, {(0,): 1, (1,): r})
    assert abs(a.eval((1 / r,)) - 2) < 1e-14
    zz = LaurentSymbol(2, {(1, 1): 1})
    assert zz.eval((2, 3j)) == 6j
    approx = sqrt3_schemes()["approximating"].symbol(0)
    assert abs(approx.eval((1, 1)) - 3) < 1e-12


def test_eval_rejects_zero_component():
    a = LaurentSymbol(2, {(-1, 0): 1})
    with pytest.raises(SymbolDomainError):
        a.eval((0, 1))


def test_zero_coefficients_pruned_exactly():
    a = LaurentSymbol(1, {(0,): 1.0, (1,): 0.0, (2,): 1e-300})
    assert a.support() == [(0,), (2,)]


def partial_derivative(a: LaurentSymbol, gamma) -> LaurentSymbol:
    """D^gamma a as a symbol: each term c z^alpha becomes c q_gamma(alpha) z^(alpha - gamma)."""
    terms = {}
    for alpha, c in a.terms().items():
        q = math.prod(x - d for x, g in zip(alpha, gamma) for d in range(g))
        if q:
            terms[tuple(x - g for x, g in zip(alpha, gamma))] = c * q
    return LaurentSymbol(a.s, terms)


def test_weighted_derivative_examples():
    a = LaurentSymbol(1, {(2,): 1})
    assert abs(a.weighted_derivative((1,), (3,)) - 18) < 1e-13
    b = random_symbol(random.Random(1), 2)
    z = random_point(random.Random(2), 2)
    assert abs(b.weighted_derivative((0, 0), z) - b.eval(z)) < 1e-13


def test_weighted_derivative_matches_symbolic():
    rng = random.Random(42)
    for _ in range(200):
        s = rng.choice([1, 2])
        a = random_symbol(rng, s)
        gamma = tuple(rng.randint(0, 3) for _ in range(s))
        while sum(gamma) > 3:
            gamma = tuple(rng.randint(0, 3) for _ in range(s))
        z = random_point(rng, s)
        lhs = a.weighted_derivative(gamma, z)
        zg = 1 + 0j
        for zj, gj in zip(z, gamma):
            zg *= zj**gj
        rhs = zg * partial_derivative(a, gamma).eval(z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def central_mixed_fd(a, z, h):
    """Central finite difference for the (1,1) mixed derivative."""

    def at(dx, dy):
        return a.eval((z[0] + dx, z[1] + dy))

    return (at(h, h) - at(h, -h) - at(-h, h) + at(-h, -h)) / (4 * h * h)


def test_weighted_derivative_matches_finite_differences():
    rng = random.Random(3)
    for _ in range(20):
        a = random_symbol(rng, 2, span=3, nterms=6)
        z = random_point(rng, 2)
        # Richardson-extrapolated central differences, still an independent oracle
        h = 1e-3
        d1 = central_mixed_fd(a, z, h)
        d2 = central_mixed_fd(a, z, h / 2)
        fd = (4 * d2 - d1) / 3
        want = z[0] * z[1] * fd
        got = a.weighted_derivative((1, 1), z)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_sub_symbol_examples():
    M = DilationMatrix(2)
    r = 1.3
    a = LaurentSymbol(1, {(0,): 1, (1,): r})
    assert a.sub_symbol((0,), M) == LaurentSymbol(1, {(0,): 1})
    assert a.sub_symbol((1,), M) == LaurentSymbol(1, {(1,): r})
    # reduction mod M: eps = 3 names the same coset as eps = 1
    assert a.sub_symbol((3,), M) == a.sub_symbol((1,), M)


def test_sub_symbol_decomposition_exact():
    rng = random.Random(99)
    mats = [DilationMatrix(m) for m in MATRIX_POOL]
    for i in range(200):
        M = mats[i % len(mats)]
        a = random_symbol(rng, M.s)
        total = LaurentSymbol.zero(M.s)
        for eps in M.coset_reps():
            total = total + a.sub_symbol(eps, M)
        assert total == a


def test_sqrt3_sub_symbols_sum_to_one_at_ones():
    scheme = sqrt3_schemes()["approximating"]
    a = scheme.symbol(0)
    for eps in scheme.M.coset_reps():
        assert abs(a.sub_symbol(eps, scheme.M).eval((1, 1)) - 1) < 1e-12


def test_shift_multiply_add():
    a = LaurentSymbol(1, {(0,): 1, (1,): 1})
    assert a.shift(2) == LaurentSymbol(1, {(2,): 1, (3,): 1})
    assert a * a == LaurentSymbol(1, {(0,): 1, (1,): 2, (2,): 1})
    r = 0.9
    bsp = LaurentSymbol(1, {(0,): 1, (1,): r, (2,): r * r})
    n = 3
    prod = bsp**n
    assert prod.support()[0] == (0,) and prod.support()[-1] == (2 * n,)
    assert abs(prod.coeff((2 * n,)) - r ** (2 * n)) < 1e-14


def test_multiply_commutative_associative():
    rng = random.Random(5)
    for _ in range(30):
        s = rng.choice([1, 2])
        a, b, c = (random_symbol(rng, s, span=3, nterms=4) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c) or max_diff((a * b) * c, a * (b * c)) < 1e-14


def test_eval_shift_identity():
    rng = random.Random(6)
    for _ in range(50):
        s = rng.choice([1, 2])
        a = random_symbol(rng, s)
        beta = tuple(rng.randint(-3, 3) for _ in range(s))
        z = random_point(rng, s)
        zb = 1 + 0j
        for zj, bj in zip(z, beta):
            zb *= zj**bj
        lhs = a.shift(beta).eval(z)
        rhs = zb * a.eval(z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_serialization_roundtrip_exact():
    rng = random.Random(8)
    for _ in range(20):
        s = rng.choice([1, 2, 3])
        a = random_symbol(rng, s)
        text = json.dumps(a.to_json_obj())
        b = LaurentSymbol.from_json_obj(json.loads(text))
        assert a == b


def test_repeated_exponent_in_symbol_json_is_rejected():
    obj = [{"exp": [1], "re": 1.0}, {"exp": [1], "re": 2.0}]
    with pytest.raises(SymbolError, match="more than once"):
        LaurentSymbol.from_json_obj(obj)


def test_scheme_spec_levels_and_tail():
    M = DilationMatrix(2)
    lv = [LaurentSymbol(1, {(0,): k + 1}) for k in range(3)]
    tail = LaurentSymbol(1, {(0,): 99})
    spec = SchemeSpec.from_levels("steps", M, lv, tail)
    assert spec.symbol(1).coeff((0,)) == 2
    assert spec.symbol(7).coeff((0,)) == 99
    with pytest.raises(Exception):
        spec.symbol(-1)


def test_space_downward_closure_warns_and_completes():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        sp = ExpPolySpace([((2,), (0.0,))])
    assert len(rec) == 1
    assert [g for g, _ in sp.pairs] == [(0,), (1,), (2,)]

    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        sp2 = ExpPolySpace([((1, 1), (0.0, 0.0))])
    assert len(rec) == 1
    assert {g for g, _ in sp2.pairs} == {(0, 0), (1, 0), (0, 1), (1, 1)}

    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        ExpPolySpace.polynomials(2, 1)
    assert not rec


def test_space_deterministic_order():
    sp = ExpPolySpace([((0,), (1.0,)), ((0,), (0.0,)), ((1,), (0.0,))])
    assert sp.pairs == (
        ((0,), (0j,)),
        ((1,), (0j,)),
        ((0,), ((1 + 0j),)),
    )


def test_space_exponentials_and_span():
    sp = ExpPolySpace.exponentials([0.5, -0.5])
    assert sp.pairs == (((0,), ((-0.5 + 0j),)), ((0,), ((0.5 + 0j),)))
    assert ExpPolySpace.exponentials([(1, 2)], s=2).pairs == (((0, 0), ((1 + 0j), (2 + 0j))),)
    for bad in ([], [0.5, (1, 2)]):
        with pytest.raises(SymbolError):
            ExpPolySpace.exponentials(bad)
    with pytest.raises(SymbolError):
        ExpPolySpace.exponentials([], s=2)
    with pytest.raises(ValueError):
        ExpPolySpace.exponentials([0.5], s=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        span = ExpPolySpace.span([(0,), (1,)], [0.0, 1.0])
    assert span == ExpPolySpace([((g,), (l,)) for g in (0, 1) for l in (0.0, 1.0)])
    assert len(span) == 4 and span.gammas_for(1.0) == [(0,), (1,)]
    with pytest.raises(SymbolError):
        ExpPolySpace.span([], [0.0])
