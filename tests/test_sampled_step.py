"""The fused stepwise step against the composition it replaced.

`composed_step` is the former one-level step, kept here as an oracle: the
valid interior from its own erosion (`old_interior`), one scatter step
(`scatter_step`, the engine's former full step) per data row over the whole
packed window, and the output packed again and read back
at the interior (`read_back`).  The fused step erodes each coset's window and sums
only there; it must give the same points, the same bits and the same errors.
"""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expsub import (
    EngineError,
    box_indices,
    butterfly,
    dual4_binary,
    dual4_ternary,
    sheared_convolution,
    sqrt3_schemes,
    stepwise_test,
    valid_interior,
)
from expsub import engine
from expsub.engine import exp_poly_values
from expsub.lattice import param_array

GEOMETRIES = {
    "M=2": dual4_binary(0.7),
    "M=3": dual4_ternary(0.9j),
    "2I": butterfly((0.5, 0.3)),
    "shear": sheared_convolution((0.4j, 0.6j), normalized=True),
    "sqrt3": sqrt3_schemes()["interpolatory"],
}


def old_interior(taps, M, win_idx):
    """Per coset, the erosion of the packed window by the coset's taps."""
    w0, win, _ = engine._pack(win_idx, np.zeros(len(win_idx)))
    found = [np.zeros((0, M.s), dtype=np.int64)]
    for e, ns, _ in taps:
        hi = ns.max(axis=0)
        box = np.array(win.shape) - (hi - ns.min(axis=0))
        if (box <= 0).any():
            continue
        ok = np.ones(tuple(box.tolist()), bool)
        for off in (hi - ns).tolist():
            ok &= win[tuple(slice(o, o + d) for o, d in zip(off, box.tolist()))]
        found.append(engine._fine_points(np.array(M.mat), e, w0 + hi, np.nonzero(ok)))
    pts = np.concatenate(found)
    return pts[np.lexsort(pts.T[::-1])]


def scatter_step(taps, M, origin, in_support, data):
    """Each tap scattered into its coset's output box: the support points, (N, s), and values."""
    shape = in_support.shape
    fr, fi = np.ascontiguousarray(data.real), np.ascontiguousarray(data.imag)
    points, values = [np.zeros((0, M.s), dtype=np.int64)], [np.zeros(0, complex)]
    for e, ns, coeffs in taps:
        lo = ns.min(axis=0)
        box = tuple((np.array(shape) + ns.max(axis=0) - lo).tolist())
        re, im = np.zeros((2, *box))
        present = np.zeros(box, bool)
        for off, c in zip((ns - lo).tolist(), coeffs.tolist()):
            view = tuple(slice(o, o + d) for o, d in zip(off, shape))
            re[view] += c.real * fr - c.imag * fi
            im[view] += c.real * fi + c.imag * fr
            present[view] |= in_support
        loc = np.nonzero(present)
        points.append(engine._fine_points(np.array(M.mat), e, np.asarray(origin) + lo, loc))
        vals = np.empty(len(loc[0]), complex)
        vals.real, vals.imag = re[loc], im[loc]
        values.append(vals)
    return np.concatenate(points), np.concatenate(values)


def read_back(origin, in_support, data, indices):
    """`data[..., alpha - origin]` at support indices alpha; others raise."""
    rel = np.asarray(indices, dtype=np.int64).reshape(-1, in_support.ndim) - np.asarray(origin)
    loc = tuple(rel.T)
    if not (((rel >= 0) & (rel < in_support.shape)).all() and in_support[loc].all()):
        raise EngineError("index outside the support of the grid")
    return data[(Ellipsis, *loc)]


def composed_step(mask, M, pairs, tau, level, window):
    """Samples of each pair on its own, the whole-box step, then the read-back."""
    idx = np.array(box_indices(window, M.s), dtype=np.int64).reshape(-1, M.s)
    t = param_array(M, tau, level, idx)
    stack = np.array([exp_poly_values([(g, lam)], t)[0] for g, lam in pairs]).reshape(-1, len(t))
    taps = engine._taps(mask, M)
    valid = old_interior(taps, M, idx)
    if not len(valid):
        raise EngineError("empty valid interior; enlarge the window")
    w0, win, data = engine._pack(idx, stack)
    rows = [scatter_step(taps, M, w0, win, row) for row in data]
    out = engine._pack(rows[0][0], np.array([values for _, values in rows]))
    return valid, read_back(*out, valid)


def sampled_step(mask, M, pairs, tau, level, window):
    """The engine's stacked step at one level: (valid, values), or its error raised."""
    steps, error = engine._sampled_steps([mask], M, pairs, tau, [level], window)
    if error is not None:
        raise error
    return steps[0]


def hexes(values):
    return [[(z.real.hex(), z.imag.hex()) for z in row] for row in values.tolist()]


parts = st.floats(-1.5, 1.5, allow_nan=False)


@st.composite
def step_cases(draw):
    scheme = GEOMETRIES[draw(st.sampled_from(sorted(GEOMETRIES)))]
    s = scheme.M.s
    freq = st.one_of(st.just(0j), parts.map(complex), parts.map(lambda y: complex(0.0, y)))
    # a few frequency vectors shared among the pairs, so several pairs have one lambda
    lams = draw(st.lists(st.tuples(*[freq] * s), min_size=1, max_size=3))
    pair = st.tuples(st.tuples(*[st.integers(0, 3)] * s), st.sampled_from(lams))
    pairs = draw(st.lists(pair, min_size=1, max_size=6))
    k = draw(st.integers(0, 3))
    radius = draw(st.integers(1, 6))
    window = radius
    if draw(st.booleans()):
        box = box_indices(radius, s)
        window = set(box) - draw(st.sets(st.sampled_from(box), max_size=len(box) // 4))
    tau = draw(st.sampled_from([scheme.tau, (0.25,) * s]))
    return scheme, pairs, tau, k, window


def assert_same_step(scheme, pairs, tau, k, window):
    mask = scheme.symbol(k)
    try:
        valid, want = composed_step(mask, scheme.M, pairs, tau, k, window)
    except EngineError as exc:
        with pytest.raises(EngineError, match=re.escape(str(exc))):
            sampled_step(mask, scheme.M, pairs, tau, k, window)
        return
    got_valid, got = sampled_step(mask, scheme.M, pairs, tau, k, window)
    assert got_valid.tolist() == valid.tolist()
    assert got.shape == (len(pairs), len(valid))
    assert hexes(got) == hexes(want)
    assert valid_interior(mask, scheme.M, window) == list(map(tuple, valid.tolist()))


@given(step_cases())
def test_fused_step_matches_the_composed_step(case):
    assert_same_step(*case)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_fused_step_matches_on_every_geometry_and_window(name):
    """Every geometry, with box windows from too small to roomy."""
    scheme = GEOMETRIES[name]
    for k in range(3):
        for radius in range(1, 7):
            assert_same_step(scheme, scheme.space.pairs, scheme.tau, k, radius)


def test_oversized_window_is_rejected_before_sampling(monkeypatch):
    scheme = GEOMETRIES["2I"]
    mask, M = scheme.symbol(0), scheme.M

    def sampled(*args):
        raise AssertionError("a sample was computed")

    monkeypatch.setattr(engine, "MAX_BOX_POINTS", 120)
    monkeypatch.setattr(engine, "param_array", sampled)
    monkeypatch.setattr(engine, "exp_poly_values", sampled)
    for call in (
        lambda: box_indices(5, 2),
        lambda: box_indices((0, 10), 2),
        lambda: valid_interior(mask, M, 5),
        lambda: sampled_step(mask, M, scheme.space.pairs, scheme.tau, 0, 5),
        lambda: stepwise_test(scheme, scheme.space, scheme.tau, 0, 5),
    ):
        with pytest.raises(EngineError, match="bounding box of 121 lattice points"):
            call()
    assert len(box_indices(4, 2)) == 81  # within the limit, still built


def test_large_window_is_rejected_without_building_it():
    # (2 * 4096 + 1)^2 is 6.7e7 points; rejected before any index is made
    scheme = GEOMETRIES["2I"]
    with pytest.raises(EngineError, match="bounding box of 67125249 lattice points"):
        valid_interior(scheme.symbol(0), scheme.M, 4096)
