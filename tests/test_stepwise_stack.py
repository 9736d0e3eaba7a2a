"""The stacked stepwise check against the per-level loop it replaced.

`per_level_reports` is the former `checker.stepwise_test`, run once per
level as `cli.cmd_check` ran it, kept here as an oracle together with the
one-level step it called (`one_level_interior`: scalar coefficients, a
(P, N) stack).  `stepwise_tests` computes every level of a range in one
engine pass per tap layout; it must give the same reports, bit for bit, and
raise the same error after the same levels.
"""

import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from expsub import (
    DilationMatrix,
    EngineError,
    ExpPolySpace,
    LaurentSymbol,
    SchemeSpec,
    box_indices,
    butterfly,
    checker,
    dual4_binary,
    dual4_ternary,
    engine,
    exp_bspline,
    sample_exp_poly,
    sheared_convolution,
    sqrt3_schemes,
    stepwise_tests,
)
from expsub.cli import main
from expsub.engine import exp_poly_values
from expsub.lattice import as_tau, param_array

GEOMETRIES = {
    "M=2": dual4_binary(0.7),
    "M=3": dual4_ternary(0.9j),
    "2I": butterfly((0.5, 0.3)),
    "shear": sheared_convolution((0.4j, 0.6j), normalized=True),
    "sqrt3": sqrt3_schemes()["interpolatory"],
}


def two_layouts() -> SchemeSpec:
    """Levels 0 and 2 share the dual four-point support, levels 1 and 3 the B-spline's."""
    a, b = dual4_binary(0.7), exp_bspline(2, 0.4)
    return SchemeSpec.from_levels("two_layouts", a.M, [a.symbol(0), b.symbol(1), a.symbol(2)], b.symbol(3), tau=(-0.5,))


def pruned_butterfly() -> SchemeSpec:
    """Butterfly with one coefficient set to exact zero at level 1, which prunes it."""
    scheme = butterfly((0.5, 0.3))

    def rule(k):
        terms = scheme.symbol(k).terms()
        if k == 1:
            terms[max(terms)] = 0.0
        return LaurentSymbol(2, terms)

    return SchemeSpec("pruned", scheme.M, rule, tau=scheme.tau)


SCHEMES = {**GEOMETRIES, "two_layouts": two_layouts(), "pruned": pruned_butterfly()}


def one_level_interior(taps, M, win_idx, stack):
    """The valid interior and the step there of a (P, N) stack, one coefficient at a time."""
    w0, win, data = engine._pack(win_idx, stack)
    parts = np.stack([data.real, data.imag])
    turned = np.stack([-data.imag, data.real])
    points, values = [np.zeros((0, M.s), dtype=np.int64)], [np.zeros((2, len(data), 0))]
    for e, ns, coeffs in taps:
        hi = ns.max(axis=0)
        box = tuple((np.array(win.shape) - (hi - ns.min(axis=0))).tolist())
        if min(box) <= 0:
            continue
        ok = np.ones(box, bool)
        acc = np.zeros((2, len(data), *box))
        for off, c in zip((hi - ns).tolist(), coeffs):
            view = tuple(slice(o, o + d) for o, d in zip(off, box))
            ok &= win[view]
            acc += c.real * parts[(Ellipsis, *view)] + c.imag * turned[(Ellipsis, *view)]
        loc = np.nonzero(ok)
        points.append(engine._fine_points(np.array(M.mat), e, w0 + hi, loc))
        values.append(acc[(Ellipsis, *loc)])
    pts = np.concatenate(points)
    order = np.lexsort(pts.T[::-1])
    out = np.empty((len(data), len(pts)), complex)
    out.real, out.imag = np.concatenate(values, axis=-1)[..., order]
    return pts[order], out


def per_level_reports(scheme, pairs, tau, levels, window):
    """Per level: (k, points, error hexes), raising at the first level that fails."""
    M, t = scheme.M, as_tau(tau, scheme.M.s)
    for k in levels:
        taps = []
        for e, ns, cs in scheme.symbol(k).polyphase_arrays(M):
            coeffs = cs.tolist()
            if not np.isfinite(np.array(coeffs)).all():
                raise EngineError("mask has a non-finite coefficient")
            taps.append((e, np.array(ns.tolist(), dtype=np.int64), coeffs))
        idx = np.array(box_indices(window, M.s), dtype=np.int64).reshape(-1, M.s)
        stack = np.array([exp_poly_values([(g, lam)], param_array(M, t, k, idx))[0] for g, lam in pairs])
        valid, got = one_level_interior(taps, M, idx, stack)
        if not len(valid):
            raise EngineError("empty valid interior; enlarge the window")
        exact = np.array([exp_poly_values([(g, lam)], param_array(M, t, k + 1, valid))[0] for g, lam in pairs])
        errs = checker._residuals(got, exact).max(axis=1).tolist()
        yield k, len(valid), [e.hex() for e in errs]


def collect(reports):
    """The items a generator yields before it raises, and its error as (type, message)."""
    got = []
    try:
        for item in reports:
            got.append(item)
    except ValueError as exc:
        return got, (type(exc), str(exc))
    return got, None


def stacked_reports(scheme, space, tau, levels, window):
    for rep in stepwise_tests(scheme, space, tau, levels, window):
        assert [(r.gamma, r.lam) for r in rep.records] == list(space.pairs)
        assert len({r.points for r in rep.records}) == 1
        yield rep.k, rep.records[0].points, [r.max_err.hex() for r in rep.records]


def assert_same_reports(scheme, space, tau, levels, window):
    want = collect(per_level_reports(scheme, space.pairs, tau, levels, window))
    assert collect(stacked_reports(scheme, space, tau, levels, window)) == want


parts = st.floats(-1.5, 1.5, allow_nan=False)


@st.composite
def range_cases(draw):
    scheme = SCHEMES[draw(st.sampled_from(sorted(SCHEMES)))]
    s = scheme.M.s
    freq = st.one_of(st.just(0j), parts.map(complex), parts.map(lambda y: complex(0.0, y)))
    lams = draw(st.lists(st.tuples(*[freq] * s), min_size=1, max_size=3))
    pair = st.tuples(st.tuples(*[st.integers(0, 3)] * s), st.sampled_from(lams))
    with warnings.catch_warnings():  # the space adds the pairs below each gamma
        warnings.simplefilter("ignore")
        space = ExpPolySpace(draw(st.lists(pair, min_size=1, max_size=5, unique=True)))
    kmin = draw(st.integers(0, 3))
    levels = list(range(kmin, kmin + draw(st.integers(1, 4))))
    radius = draw(st.integers(1, 6))
    window = radius
    if draw(st.booleans()):
        box = box_indices(radius, s)
        window = set(box) - draw(st.sets(st.sampled_from(box), max_size=len(box) // 4))
    tau = draw(st.sampled_from([scheme.tau, (0.25,) * s]))
    return scheme, space, tau, levels, window


@given(range_cases())
@example((SCHEMES["two_layouts"], ExpPolySpace([((0,), (0j,)), ((0,), (0.4 + 0j,))]), (-0.5,), [0, 1, 2, 3], 4))
@example((SCHEMES["pruned"], ExpPolySpace([((0, 0), (0j, 0j))]), (0.0, 0.0), [0, 1, 2], 3))
@example((SCHEMES["M=2"], ExpPolySpace([((0,), (800 + 0j,))]), (-0.5,), [0, 1], 6))  # non-finite samples at level 0
@example((SCHEMES["2I"], GEOMETRIES["2I"].space, (0.0, 0.0), [0, 1, 2, 3], 1))  # empty interior
def test_stacked_levels_match_the_per_level_loop(case):
    assert_same_reports(*case)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_stacked_levels_match_on_every_geometry_and_window(name):
    scheme = SCHEMES[name]
    space = scheme.space or GEOMETRIES["M=2" if scheme.M.s == 1 else "2I"].space
    for radius in range(1, 7):
        assert_same_reports(scheme, space, scheme.tau, [0, 1, 2, 3], radius)


def test_layouts_split_the_range_into_groups():
    """Explicit levels with two supports, and a pruned coefficient, give two layout groups."""
    for scheme, levels in ((SCHEMES["two_layouts"], [0, 1, 2, 3]), (SCHEMES["pruned"], [0, 1, 2])):
        layouts = {tuple((e, ns.tobytes()) for e, ns, _ in engine._taps(scheme.symbol(k), scheme.M)) for k in levels}
        assert len(layouts) == 2


def test_a_failing_symbol_build_is_raised_after_the_levels_before_it():
    built = []
    a = GEOMETRIES["M=2"]

    def rule(k):
        built.append(k)
        if k == 2:
            raise ZeroDivisionError("level 2")
        return a.symbol(k)

    scheme = SchemeSpec("raising", a.M, rule, tau=a.tau)
    reports = stepwise_tests(scheme, a.space, a.tau, [0, 1, 2, 3], 5)
    assert [rep.k for rep in (next(reports), next(reports))] == [0, 1]
    with pytest.raises(ZeroDivisionError, match="level 2"):
        next(reports)
    assert built == [0, 1, 2]


def test_a_long_range_runs_in_blocks_of_levels(monkeypatch):
    """A 40-level range passes `_interior` at most 16 levels at a time and keeps the per-level reports."""
    sizes = []
    original = engine._interior

    def interior(taps, M, win_idx, stack):
        sizes.append(len(stack))
        return original(taps, M, win_idx, stack)

    monkeypatch.setattr(engine, "_interior", interior)
    scheme = GEOMETRIES["2I"]
    assert_same_reports(scheme, scheme.space, scheme.tau, list(range(40)), 4)
    assert sizes == [16, 16, 8] and checker._LEVEL_BLOCK == 16


# -- the CLI: stdout, stderr and exit code recorded with the per-level loop ---------------


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def symbol_obj(coeffs, lo):
    return [{"exp": [lo + i], "re": c, "im": 0.0} for i, c in enumerate(coeffs)]


def test_cli_range_whose_later_level_raises_in_its_symbol_build(tmp_path):
    # w = cosh(8 pi i / 2^(k+2)) is -1 at level 1, so the factor w + 1 vanishes there
    scheme = write(tmp_path, "raising.json", {
        "name": "raising", "dimension": 1, "dilation": [2], "kind": "catalog:dual4_binary",
        "parameters": {"lambda": [0, 8 * math.pi]},
    })
    space = write(tmp_path, "space.json", {
        "pairs": [{"gamma": [0], "lambda": [[0, 8 * math.pi]]}, {"gamma": [0], "lambda": [[0, -8 * math.pi]]}],
    })
    argv = ["check", "--scheme", scheme, "--space", space, "--mode", "stepwise", "--kmin", "0", "--kmax", "3", "--window", "4"]
    assert run_cli(argv) == (
        "stepwise check for raising at level 0, tau=(-0.5,)\n"
        "     gamma                   lambda  points      max err status\n"
        "      (0,)                  0-25.1i      12    7.105e-15 ok\n"
        "      (0,)                  0+25.1i      12    7.105e-15 ok\n"
        "verdict: pass (max err 7.105e-15, tol 1.0e-09)\n",
        "error: dual4_binary: denominator factor w+1 vanishes at level 1\n",
        2,
    )


def test_cli_range_whose_later_level_has_an_empty_valid_interior(tmp_path):
    scheme = write(tmp_path, "wide.json", {
        "name": "wide", "dimension": 1, "dilation": [2], "kind": "explicit",
        "levels": [symbol_obj([0.5, 1.0, 0.5], -1), symbol_obj([0.5] + [0.0] * 15 + [1.0] + [0.0] * 15 + [0.5], -16)],
        "tail": symbol_obj([0.5, 1.0, 0.5], -1),
    })
    space = write(tmp_path, "space.json", {"pairs": [{"gamma": [0], "lambda": [[0, 0]]}, {"gamma": [1], "lambda": [[0, 0]]}]})
    argv = ["check", "--scheme", scheme, "--space", space, "--mode", "stepwise", "--kmin", "0", "--kmax", "3",
            "--window", "5", "--tau", "0"]
    assert run_cli(argv) == (
        "stepwise check for wide at level 0, tau=(0.0,)\n"
        "     gamma                   lambda  points      max err status\n"
        "      (0,)                        0      21    0.000e+00 ok\n"
        "      (1,)                        0      21    0.000e+00 ok\n"
        "verdict: pass (max err 0.000e+00, tol 1.0e-09)\n",
        "error: empty valid interior; enlarge the window\n",
        2,
    )


# -- one engine pass per op ------------------------------------------------------------


def counted(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("explicit, groups, exit_code", [(False, 1, 0), (True, 2, 1)])
def test_one_stepwise_op_over_four_levels_is_one_pass(tmp_path, monkeypatch, explicit, groups, exit_code):
    """One `_interior` call per layout group and one evaluator call per sample set.

    The mixed explicit levels do not reproduce the space, so that op exits 1.
    """
    if explicit:
        a, b = dual4_binary(0.7), exp_bspline(2, 0.4)
        obj = {
            "name": "two_layouts", "dimension": 1, "dilation": [2], "kind": "explicit", "tau": [-0.5],
            "levels": [a.symbol(0).to_json_obj(), b.symbol(1).to_json_obj(), a.symbol(2).to_json_obj()],
            "tail": b.symbol(3).to_json_obj(),
        }
    else:
        obj = {"name": "dual4", "dimension": 1, "dilation": [2], "kind": "catalog:dual4_binary", "parameters": {"lambda": 0.7}}
    scheme = write(tmp_path, "scheme.json", obj)
    space = write(tmp_path, "space.json", {"pairs": [{"gamma": [0], "lambda": [[0, 0]]}, {"gamma": [1], "lambda": [[0, 0]]}]})
    interior, samples = [], []
    counted(monkeypatch, engine, "_interior", interior)
    counted(monkeypatch, engine, "exp_poly_values", samples)
    counted(monkeypatch, checker, "exp_poly_values", samples)
    out, err, code = run_cli(["check", "--scheme", scheme, "--space", space, "--mode", "stepwise",
                              "--kmin", "0", "--kmax", "3", "--window", "5"])
    assert (err, code) == ("", exit_code)
    assert len(re.findall(r"^stepwise check for .* at level \d", out, flags=re.M)) == 4
    assert len(interior) == groups
    assert len(samples) == 2


def test_an_overflowing_power_is_an_infinite_sample():
    """Where Python's `**` raises OverflowError, the sample is non-finite and the window is rejected."""
    assert np.isinf(exp_poly_values([((400,), (0j,))], [[10.0], [-10.0]])[0].real).all()
    with pytest.raises(EngineError, match="grid values must be finite"):
        sample_exp_poly((400,), 0j, GEOMETRIES["M=2"].M, (0.0,), 0, 6)


def test_split_all_matches_the_scalar_reduction():
    """`split_all` on int64 and on Python-int rows, against the old scalar loop."""
    for mat in (2, -3, [[2, 1], [0, 2]], [[1, 2], [-2, -1]], [[0, 2, 0], [2, 0, 0], [0, 0, 3]]):
        M = DilationMatrix(mat)
        U, H, V = M._uhv
        rng = np.random.default_rng(3)
        rows = rng.integers(-50, 50, size=(40, M.s)).tolist() + [[2**70 + 3] * M.s, [-(2**63)] + [1] * (M.s - 1)]
        e, n = M.split_all(rows)
        for alpha, got_e, got_n in zip(rows, e.tolist(), n.tolist()):
            y = [sum(U[i][j] * alpha[j] for j in range(M.s)) for i in range(M.s)]
            want_n = [0] * M.s
            for ell in range(M.s - 1, -1, -1):
                q = y[ell] // H[ell][ell]
                want_n[ell] = q
                for r in range(ell + 1):
                    y[r] -= q * H[r][ell]
            want_e = [sum(V[i][j] * y[j] for j in range(M.s)) for i in range(M.s)]
            assert (list(got_e), list(got_n)) == (want_e, want_n)
            assert M.coset_of(alpha) == tuple(want_e)
            assert M.solve_integer(alpha) == (None if any(want_e) else tuple(want_n))
