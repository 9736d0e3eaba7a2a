"""Bit contract of the array exp-poly evaluator and of the stacked stepwise check.

Both are held hex-equal to the scalar loops they replace, kept here as
oracles: `scalar_exp_poly` is the term-by-term Python evaluation, and
`loop_stepwise_errs` samples, refines and scores one pair at a time.
"""

import cmath

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from expsub import (
    EngineError,
    ExpPolySpace,
    GridData,
    apply_operator,
    box_indices,
    butterfly,
    dual4_binary,
    dual4_ternary,
    sheared_convolution,
    sqrt3_schemes,
    stepwise_test,
    valid_interior,
)
from expsub.engine import exp_poly_values
from expsub.lattice import param_array


def scalar_exp_poly(gamma, lam, t) -> complex:
    p = 1.0
    for tl, gl in zip(t, gamma):
        p *= tl**gl
    return p * cmath.exp(sum(l * tl for l, tl in zip(lam, t)))


def hexes(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


# The two values where numpy's power and complex abs differ from Python's.
POWER_TRAP = -0.9334622280593852
ABS_TRAP = -0.8019314252534474 + 0.0055620633214661895j

coords = st.floats(-6.0, 6.0, allow_nan=False)
parts = st.floats(-4.0, 4.0, allow_nan=False)
frequencies = st.one_of(
    parts.map(complex),
    parts.map(lambda y: complex(0.0, y)),
    st.builds(complex, parts, parts),
)


@st.composite
def exp_poly_cases(draw):
    s = draw(st.sampled_from([1, 2]))
    gamma = tuple(draw(st.lists(st.integers(0, 5), min_size=s, max_size=s)))
    lam = tuple(draw(st.lists(frequencies, min_size=s, max_size=s)))
    t = draw(st.lists(st.lists(coords, min_size=s, max_size=s), min_size=1, max_size=20))
    return gamma, lam, t


@given(exp_poly_cases())
@example(((2,), (0j,), [[POWER_TRAP]]))
@example(((2, 3), (1j, -0.5 + 2j), [[POWER_TRAP, -POWER_TRAP], [-3.5, 0.0]]))
@example(((0,), (0j,), [[ABS_TRAP.real], [ABS_TRAP.imag]]))
@example(((1,), (709.5,), [[1.0], [-1.0], [0.5]]))  # past Re 708 np.exp and cmath.exp part
@example(((0,), (complex(354.75, 2.0),), [[2.0]]))
def test_exp_poly_values_match_the_scalar_loop(case):
    gamma, lam, t = case
    got = exp_poly_values([(gamma, lam)], np.array(t))[0].tolist()
    assert [hexes(z) for z in got] == [hexes(scalar_exp_poly(gamma, lam, row)) for row in t]
    assert hexes(complex(exp_poly_values([(gamma, lam)], [t[0]])[0, 0])) == hexes(got[0])  # one point alone


def test_power_trap_is_pythons_power():
    assert exp_poly_values([((2,), (0j,))], [[POWER_TRAP]])[0, 0].real.hex() == "0x1.be21d069c02efp-1"


def test_residual_modulus_is_pythons_abs():
    from expsub.checker import _residuals

    got = _residuals(np.array([ABS_TRAP]), np.array([0j]))[0]
    assert got.hex() == abs(ABS_TRAP).hex() == "0x1.9a9948b1833fep-1"


def loop_stepwise_errs(scheme, space, tau, k, window) -> list[float]:
    """The per-pair loop: each pair sampled, refined and scored on its own."""
    M, a = scheme.M, scheme.symbol(k)
    win = box_indices(window, M.s)
    valid = valid_interior(a, M, window)
    errs = []
    for gamma, lam in space.pairs:
        samples = [scalar_exp_poly(gamma, lam, t) for t in param_array(M, tau, k, win).tolist()]
        refined = apply_operator(a, M, GridData(M.s, k, dict(zip(win, samples)), tau=tau)).values
        pair = []
        for idx, t in zip(valid, param_array(M, tau, k + 1, valid).tolist()):
            exact = scalar_exp_poly(gamma, lam, t)
            err, scale = abs(refined[idx] - exact), abs(exact)
            pair.append(err / scale if scale > 1.0 else err)
        errs.append(float(np.max(pair)))  # np.max keeps a NaN
    return errs


GEOMETRIES = {
    "M=2": dual4_binary(0.7),
    "M=3": dual4_ternary(0.9j),
    "2I": butterfly((0.5, 0.3)),
    "shear": sheared_convolution((0.4j, 0.6j), normalized=True),
    "sqrt3": sqrt3_schemes()["interpolatory"],
}


def assert_matches_loop(scheme, space, tau, k, window):
    if not valid_interior(scheme.symbol(k), scheme.M, window):
        with pytest.raises(EngineError, match="window"):
            stepwise_test(scheme, space, tau, k, window)
        return
    rep = stepwise_test(scheme, space, tau, k, window)
    assert [r.max_err.hex() for r in rep.records] == [
        e.hex() for e in loop_stepwise_errs(scheme, space, tau, k, window)
    ]
    assert [(r.gamma, r.lam) for r in rep.records] == list(space.pairs)
    assert {r.points for r in rep.records} == {len(valid_interior(scheme.symbol(k), scheme.M, window))}


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_stepwise_records_match_the_per_pair_loop(name):
    scheme = GEOMETRIES[name]
    for k in range(4):
        for radius in range(3, 9):
            assert_matches_loop(scheme, scheme.space, scheme.tau, k, radius)


def test_stepwise_on_a_point_window_with_holes():
    scheme = GEOMETRIES["2I"]
    window = [p for p in box_indices(6, 2) if p not in {(0, 0), (2, -1), (-4, 3)}]
    assert len(valid_interior(scheme.symbol(1), scheme.M, window)) < len(
        valid_interior(scheme.symbol(1), scheme.M, 6)
    )
    assert_matches_loop(scheme, scheme.space, scheme.tau, 1, window)
    # A wrong shift scores large errors, still the loop's bits.
    assert_matches_loop(scheme, scheme.space, (0.5, -0.25), 1, window)


def test_stepwise_rejects_overflowing_samples():
    scheme = dual4_binary(1.0)
    space = ExpPolySpace([((0,), (800.0,))])
    with pytest.raises(EngineError, match="finite"):
        stepwise_test(scheme, space, scheme.tau, 0, 8)
    assert not np.isfinite(exp_poly_values([((0,), (800.0,))], [[8.0]])[0]).all()
