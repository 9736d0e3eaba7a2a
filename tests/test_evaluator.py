"""Bit identity of the array symbol evaluator against the term-by-term loops.

`eval_oracle` and `weighted_oracle` are the scalar loops that the evaluator
replaced: one Python term at a time, in `sorted_items` order, skipping terms
of weight zero.  Both `LaurentSymbol.weighted_derivatives` and its stacked
form `stacked_weighted_derivatives` are held to them.  Values are compared as
hex strings, so a signed zero or a last-bit change fails.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsub import LaurentSymbol, SymbolDomainError, SymbolError
from expsub.symbols import _falling_weights, stacked_weighted_derivatives


def _falling(a: int, g: int) -> int:
    out = 1
    for j in range(g):
        out *= a - j
    return out


def eval_oracle(sym: LaurentSymbol, z) -> complex:
    total = 0j
    for exp, c in sym.sorted_items():
        term = c
        for zj, ej in zip(z, exp):
            term *= zj**ej
        total += term
    return total


def weighted_oracle(sym: LaurentSymbol, gamma, z) -> complex:
    total = 0j
    for exp, c in sym.sorted_items():
        w = 1
        for a, gl in zip(exp, gamma):
            w *= _falling(a, gl)
            if w == 0:
                break
        if w == 0:
            continue
        term = c * w
        for zj, ej in zip(z, exp):
            term *= zj**ej
        total += term
    return total


def hx(z) -> str:
    z = complex(z)
    return f"{z.real.hex()} {z.imag.hex()}"


def outcome(f, *args):
    """The hex value of f(*args), or the arithmetic error it raises."""
    try:
        return hx(f(*args))
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


SIGNED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300, -1e300, 3.0e-17])
PART = st.one_of(SIGNED, st.floats(-10, 10, allow_nan=False))
COEFF = st.builds(complex, PART, PART).filter(lambda c: c != 0)
NONFINITE = st.sampled_from([complex("inf"), complex(0, float("-inf")), complex("nan"), complex(1, float("nan"))])
# Points on the unit circle (exactly 1, -1, i and rect(1, theta)) and off it,
# with radii far enough from 1 that a sixth power can overflow or underflow.
UNIT = st.one_of(
    st.sampled_from([1 + 0j, -1 + 0j, 1j, -1j, complex(-0.0, 1.0)]),
    st.floats(0, 2 * math.pi).map(lambda t: cmath.rect(1.0, t)),
)
RADIUS = st.one_of(st.floats(0.25, 4.0), st.sampled_from([1e-60, 1e-40, 1e40, 1e60, 1e155]))
OFF = st.builds(lambda r, t: cmath.rect(r, t), RADIUS, st.floats(0, 2 * math.pi)).filter(lambda z: z != 0)
COMPONENT = st.one_of(UNIT, OFF)


@st.composite
def cases(draw, coeffs=COEFF):
    s = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-6, 6)] * s)
    terms = draw(st.dictionaries(exps, coeffs, max_size=8))
    gammas = draw(st.lists(st.tuples(*[st.integers(0, 3)] * s), min_size=1, max_size=5))
    points = draw(st.lists(st.tuples(*[COMPONENT] * s), min_size=1, max_size=4))
    return LaurentSymbol(s, terms), gammas, points


def check_against_oracle(sym, gammas, points):
    want = [[outcome(weighted_oracle, sym, g, z) for z in points] for g in gammas]
    if any(isinstance(v, type) for row in want for v in row):
        with pytest.raises((OverflowError, ZeroDivisionError)):
            sym.weighted_derivatives(gammas, points)
    else:
        got = sym.weighted_derivatives(gammas, points)
        assert got.shape == (len(gammas), len(points))
        assert [[hx(v) for v in row] for row in got.tolist()] == want
    for g, row in zip(gammas, want):
        assert [outcome(sym.weighted_derivative, g, z) for z in points] == row


@settings(max_examples=150)
@given(cases())
def test_evaluator_matches_the_scalar_loops(case):
    sym, gammas, points = case
    check_against_oracle(sym, gammas, points)
    for z in points:
        assert outcome(sym.eval, z) == outcome(eval_oracle, sym, z)


@settings(max_examples=150)
@given(cases(coeffs=st.one_of(COEFF, NONFINITE)))
def test_evaluator_matches_the_weighted_loop_on_nonfinite_coefficients(case):
    check_against_oracle(*case)


@st.composite
def stacks(draw):
    """1-6 level symbols of different supports and term counts, at least one
    of them empty, with signed-zero and non-finite coefficients."""
    s = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-6, 6)] * s)
    coeffs = st.one_of(COEFF, NONFINITE, st.sampled_from([complex(-0.0, 1.0), complex(2.0, -0.0)]))
    levels = draw(st.lists(st.dictionaries(exps, coeffs, max_size=9), min_size=1, max_size=6))
    levels.insert(draw(st.integers(0, len(levels))), {})
    gammas = draw(st.lists(st.tuples(*[st.integers(0, 3)] * s), min_size=1, max_size=4))
    n_points = draw(st.integers(1, 4))
    points = [draw(st.lists(st.tuples(*[COMPONENT] * s), min_size=n_points, max_size=n_points)) for _ in levels]
    return [LaurentSymbol(s, t) for t in levels], gammas, points


@settings(max_examples=150)
@given(stacks())
def test_stacked_evaluator_slices_match_the_scalar_loop(case):
    syms, gammas, points = case
    want = [[[outcome(weighted_oracle, sym, g, z) for z in pts] for g in gammas] for sym, pts in zip(syms, points)]
    if any(isinstance(v, type) for level in want for row in level for v in row):
        with pytest.raises((OverflowError, ZeroDivisionError)):
            stacked_weighted_derivatives(syms, gammas, points)
        return
    got = stacked_weighted_derivatives(syms, gammas, points)
    assert got.shape == (len(syms), len(gammas), len(points[0]))
    assert [[[hx(v) for v in row] for row in level] for level in got.tolist()] == want


def test_weights_past_float_precision_round_once():
    # q_3(2^40) needs 120 bits and q_5(2^20 + 3) 100; each weight is formed
    # exactly and rounded once, as the loop's c * q rounds it.
    syms = [
        LaurentSymbol(1, {(2**40,): 1.0, (2**20 + 3,): 1.5, (-3,): 2.0}),
        LaurentSymbol(1, {(7,): 0.5}),
    ]
    gammas = [(0,), (3,), (5,)]
    points = [[(1 + 0j,), (-1 + 0j,), (1j,)]] * 2
    got = stacked_weighted_derivatives(syms, gammas, points)
    for sym, level in zip(syms, got.tolist()):
        assert [[hx(v) for v in row] for row in level] == [
            [hx(weighted_oracle(sym, g, z)) for z in points[0]] for g in gammas
        ]


def test_stacked_evaluator_checks_its_inputs():
    one, two = LaurentSymbol(1, {(1,): 1.0}), LaurentSymbol(2, {(1, 0): 1.0})
    with pytest.raises(SymbolError):
        stacked_weighted_derivatives([], [(0,)], np.ones((0, 1, 1)))
    with pytest.raises(SymbolError):
        stacked_weighted_derivatives([one, two], [(0,)], np.ones((2, 1, 1)))
    with pytest.raises(SymbolError):
        stacked_weighted_derivatives([one, one], [(0,)], np.ones((1, 2, 1)))
    with pytest.raises(SymbolError):
        stacked_weighted_derivatives([two], [(0, 0)], np.ones((1, 2)))
    with pytest.raises(SymbolDomainError):
        stacked_weighted_derivatives([one, one], [(0,)], [[(1.0,)], [(0.0,)]])
    with pytest.raises(ValueError):
        stacked_weighted_derivatives([one], [(-1,)], np.ones((1, 1, 1)))
    assert stacked_weighted_derivatives([one, one], [(0,), (1,)], np.ones((2, 0, 1))).shape == (2, 2, 0)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_empty_symbol_and_empty_lists(s):
    zero = LaurentSymbol.zero(s)
    z = (0.5 + 0.5j,) * s
    got = zero.weighted_derivatives([(0,) * s, (1,) * s], [z, z])
    assert got.shape == (2, 2) and hx(got[0, 0]) == hx(0j) and not got.any()
    assert hx(zero.eval(z)) == hx(eval_oracle(zero, z)) == hx(0j)
    one = LaurentSymbol.one(s)
    assert one.weighted_derivatives([], [z]).shape == (0, 1)
    assert one.weighted_derivatives([(0,) * s], []).shape == (1, 0)


@pytest.mark.parametrize(
    "terms, gamma, z",
    [
        # every term's real part is -0.0; the loop's sum from +0.0 gives +0.0
        ({(0,): complex(-0.0, 1.0)}, (0,), (1.0,)),
        ({(0, 0): complex(-0.0, 1.0), (0, 1): complex(-0.0, 2.0)}, (0, 0), (1.0, 1.0)),
        # c * 1 with an infinite imaginary part: CPython gives (nan, inf), and
        # the power 1 + 0j then makes both parts NaN
        ({(1,): complex(1.0, float("inf"))}, (1,), (1.0,)),
        ({(1, 2): complex(float("-inf"), 0.5)}, (1, 1), (1.0, -1.0)),
    ],
)
def test_signed_zero_and_nonfinite_products_keep_the_loop_bits(terms, gamma, z):
    sym = LaurentSymbol(len(z), terms)
    assert hx(sym.weighted_derivatives([gamma], [z])[0, 0]) == hx(weighted_oracle(sym, gamma, z))
    if not any(gamma):
        assert hx(sym.eval(z)) == hx(eval_oracle(sym, z))


def test_zero_weight_term_next_to_an_overflowing_power_stays_finite():
    # z^2 has weight 2 * 1 * 0 = 0 for gamma = 3, and (1e200)^2 overflows;
    # the loop skips that term, so the value is the z^-1 term's alone.
    sym = LaurentSymbol(1, {(2,): 1.0, (-1,): 1.0})
    assert sym.weighted_derivative((3,), (1e200,)) == -6e-200
    got = sym.weighted_derivatives([(3,)], [(1e200,), (2.0,)])
    assert np.isfinite(got).all()
    assert [hx(v) for v in got[0]] == [hx(weighted_oracle(sym, (3,), z)) for z in [(1e200,), (2.0,)]]
    # The same term with an infinite coefficient is skipped too, not NaN.
    sym = LaurentSymbol(2, {(1, 0): complex("inf"), (3, 1): 2.0})
    assert hx(sym.weighted_derivative((2, 0), (2.0, 1.5))) == hx(12 * 8.0 * 1.5)
    # gamma = 0 uses the power, so the loop and the evaluator both raise.
    with pytest.raises(OverflowError):
        LaurentSymbol(1, {(2,): 1.0, (-1,): 1.0}).eval((1e200,))


def test_evaluator_checks_its_inputs():
    sym = LaurentSymbol(2, {(1, -1): 1.0})
    with pytest.raises(SymbolDomainError):
        sym.weighted_derivatives([(0, 0)], [(1.0, 1.0), (0.0, 1.0)])
    with pytest.raises(ValueError):
        sym.weighted_derivatives([(0, 0)], [(1.0,)])
    with pytest.raises(ValueError):
        sym.weighted_derivatives([(0, -1)], [(1.0, 1.0)])


def test_partial_derivative_weights_are_exact_beyond_float_precision():
    # q_3(2^40) = 2^40 (2^40 - 1) (2^40 - 2) needs 120 bits.
    a = 2**40
    (weight,) = _falling_weights(np.array([[a]], dtype=object), np.array([[3]]))[0].tolist()
    assert type(weight) is int and weight == a * (a - 1) * (a - 2)
