"""`solve_tau` against its two-route oracle, and the one evaluation it reads.

The oracle is the flow `solve_tau` replaced: each probe level builds its own
all-ones points with `v_stack` and evaluates its symbol there, and the
verdict is a second `check_reproduction` of both levels.  `solve_tau` must
give the same tau, bit for bit, and the same error, type and message.
"""

import cmath
import warnings

import numpy as np
import pytest

from expsub import (
    DEFAULT_TOL,
    BranchAmbiguityError,
    CheckError,
    DilationMatrix,
    ExpPolySpace,
    LaurentSymbol,
    NoAdmissibleTauError,
    SchemeSpec,
    butterfly,
    check_reproduction,
    dual4_binary,
    dual4_ternary,
    exp_box_spline,
    exp_bspline,
    exp_product,
    sheared_convolution,
    solve_tau,
    sqrt3_schemes,
)
from expsub import checker, lattice, symbols
from expsub.catalog import CATALOG
from expsub.lattice import v_stack


def quiet_space(pairs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ExpPolySpace(pairs)


def oracle_probe(scheme, space, k, tol):
    """x = M tau - tau from the level-k symbol at its own all-ones points."""
    M = scheme.M
    s = M.s
    a = scheme.symbol(k)
    units = [tuple(int(i == j) for i in range(s)) for j in range(s)]
    zero_lam = (0j,) * s
    poly = all(u in space.gammas_for(zero_lam) for u in units)
    lams = [zero_lam] if poly else [lam for lam in space.lambdas() if all(z != 0 for z in lam)]
    if not lams:
        raise CheckError(
            "solve_tau needs lambda = 0 with all first-order gammas, "
            "or a lambda with every component nonzero"
        )
    w, v = v_stack(M, lams, [k])
    anchors = list(zip(w[0], v[0, :, 0]))
    for lam, (_, v_one) in zip(lams, anchors):
        if all(u in space.gammas_for(lam) for u in units):
            av, *grad = a.weighted_derivatives([(0,) * s] + units, [v_one])[:, 0].tolist()
            if poly and abs(av - M.m) > tol * M.m:
                raise NoAdmissibleTauError(
                    f"a(1) = {av:.12g} differs from m = {M.m}; polynomial route needs a(1) = m"
                )
            if abs(av) < 1e-14:
                raise NoAdmissibleTauError(f"a(v) vanishes at the probe point, level {k}")
            return np.array([d / (M.m if poly else av) for d in grad], dtype=complex)
    rows, rhs = [], []
    for w_one, v_one in anchors:
        if np.max(np.abs(w_one)) >= cmath.pi:
            raise BranchAmbiguityError(
                f"|lambda^T M^-(k+1)| reaches pi at probe level {k}; increase k_probe"
            )
        av = a.eval(v_one)
        if abs(av) < 1e-14:
            raise NoAdmissibleTauError(f"a(v) vanishes at the probe point, level {k}")
        rows.append(w_one)
        rhs.append(-cmath.log(av / M.m))
    A = np.vstack([np.real(rows), np.imag(rows)])
    b = np.concatenate([np.real(rhs), np.imag(rhs)])
    return np.linalg.lstsq(A, b, rcond=None)[0].astype(complex)


def oracle_solve_tau(scheme, space, k_probe, tol=DEFAULT_TOL):
    M = scheme.M
    xs = [oracle_probe(scheme, space, k, tol) for k in (k_probe, k_probe + 1)]
    if np.max(np.abs(xs[0] - xs[1])) > max(tol, 1e-12):
        raise NoAdmissibleTauError("no admissible tau: displacement estimates disagree across probe levels")
    if np.max(np.abs(np.imag(xs[0]))) > max(tol, 1e-12):
        raise NoAdmissibleTauError("no admissible tau: shift parameter is not real")
    A = np.array(M.mat, dtype=float) - np.eye(M.s)
    tau = tuple(float(v) for v in np.linalg.solve(A, np.real(xs[0])))
    report = check_reproduction(scheme, space, tau, (k_probe, k_probe + 1), tol)
    if not report.verdict:
        raise NoAdmissibleTauError(f"no admissible tau: candidate {tau} leaves residual {report.max_residual:.3e}")
    return tau


def outcome(call):
    try:
        return [x.hex() for x in call()]
    except Exception as exc:  # the error is part of the outcome
        return type(exc), str(exc)


def _explicit():
    """Per-level symbols with a stationary tail: a hat, a shifted hat, then a mass-3 tail."""
    hat = LaurentSymbol(1, {(-1,): 0.5, (0,): 1.0, (1,): 0.5})
    return SchemeSpec.from_levels("explicit", DilationMatrix(2), [hat, hat.shift((1,))],
                                  LaurentSymbol(1, {(0,): 1.0, (1,): 1.0, (2,): 1.0}))


# Every catalog family, each with its own space, then spaces that send the
# probe down another route or make it fail at some point of the flow.
CASES = {
    "exp_bspline": lambda: (s := exp_bspline(2, 1.0, tau=0.5), s.space),
    "exp_bspline_oscillating": lambda: (s := exp_bspline(3, 0.7j, tau=0.5), s.space),
    "exp_bspline_branch": lambda: (s := exp_bspline(2, 8j, tau=0.0), s.space),
    "exp_bspline_n_fold": lambda: (s := exp_bspline(2, 1.0, n_fold=2, tau=1.0), s.space),
    "exp_product": lambda: (s := exp_product(2, [(1.0, 2), (-1.0, 2)], normalization="two_factor"), s.space),
    "exp_product_three_factors": lambda: (
        exp_product(2, [(l, 1) for l in (1.0, -1.0, 2.0)]),
        ExpPolySpace([((0,), (l,)) for l in (1.0, -1.0, 2.0)]),
    ),
    "exp_box_spline": lambda: (s := exp_box_spline(2, (0.5, -0.3)), s.space),
    "exp_box_spline_zero_component": lambda: (s := exp_box_spline(3, (0.4, 0.0)), s.space),
    "dual4_binary": lambda: (s := dual4_binary(1.0), s.space),
    "dual4_binary_imaginary": lambda: (s := dual4_binary(0.8j), s.space),
    "dual4_binary_polynomials": lambda: (dual4_binary(0.9), ExpPolySpace.polynomials(1, 1)),
    "dual4_binary_negative_zero": lambda: (dual4_binary(0.9), ExpPolySpace([((0,), (-0.0,)), ((1,), (-0.0,))])),
    "dual4_ternary": lambda: (s := dual4_ternary(1.0), s.space),
    "butterfly": lambda: (s := butterfly((0.3, 0.2)), s.space),
    "sheared_convolution": lambda: (s := sheared_convolution((1.0, 0.5)), s.space),
    "sheared_convolution_normalized": lambda: (s := sheared_convolution((1.0, 0.5), normalized=True), s.space),
    "sheared_convolution_first_order": lambda: (
        sheared_convolution((1.0, 0.5)),
        quiet_space([((1, 0), (1.0, 0.5)), ((0, 1), (1.0, 0.5))]),
    ),
    "sqrt3_approximating": lambda: (s := sqrt3_schemes()["approximating"], s.space),
    "sqrt3_interpolatory": lambda: (s := sqrt3_schemes()["interpolatory"], s.space),
    "explicit": lambda: (_explicit(), ExpPolySpace.polynomials(1, 1)),
    "explicit_exponential": lambda: (_explicit(), ExpPolySpace.exponentials([(0.5,)])),
    "no_usable_pair": lambda: (_explicit(), ExpPolySpace([((0,), (0.0,))])),
    "complex_shift": lambda: (
        SchemeSpec.stationary("complex", DilationMatrix(2), LaurentSymbol(1, {(0,): 1 + 1j, (1,): 1 - 1j})),
        ExpPolySpace.polynomials(1, 1),
    ),
    "vanishing": lambda: (SchemeSpec.stationary("zero", DilationMatrix(2), LaurentSymbol.zero(1)),
                          ExpPolySpace.exponentials([(0.5,)])),
}


def test_cases_cover_every_catalog_family():
    assert set(CATALOG) - {"sqrt3"} <= set(CASES)
    assert {"sqrt3_approximating", "sqrt3_interpolatory"} <= set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_tau_matches_the_two_route_oracle(name):
    for k_probe in range(6):
        scheme, space = CASES[name]()
        want = outcome(lambda: oracle_solve_tau(scheme, space, k_probe))
        scheme, space = CASES[name]()  # fresh symbol caches
        got = outcome(lambda: solve_tau(scheme, space, k_probe))
        assert got == want, (name, k_probe)


def test_cases_reach_every_error():
    errors = set()
    for case in CASES.values():
        for k_probe in (0, 3):
            got = outcome(lambda: solve_tau(*case(), k_probe))
            if isinstance(got, tuple):
                errors.add((got[0].__name__, got[1][:24]))
    assert errors == {
        ("BranchAmbiguityError", "|lambda^T M^-(k+1)| reac"),
        ("CheckError", "solve_tau needs lambda ="),
        ("NoAdmissibleTauError", "a(1) = 3+0j differs from"),
        ("NoAdmissibleTauError", "a(v) vanishes at the pro"),
        ("NoAdmissibleTauError", "no admissible tau: candi"),
        ("NoAdmissibleTauError", "no admissible tau: displ"),
        ("NoAdmissibleTauError", "no admissible tau: shift"),
    }


def _counting(monkeypatch, name, *modules):
    calls = []
    real = getattr(modules[0], name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("name", ["dual4_binary", "exp_bspline", "sqrt3_approximating", "butterfly"])
def test_one_solve_tau_is_one_v_stack_and_one_evaluator_call(monkeypatch, name):
    scheme, space = CASES[name]()
    want = solve_tau(*CASES[name]())
    points = _counting(monkeypatch, "v_stack", lattice, checker)
    evaluations = _counting(monkeypatch, "stacked_weighted_derivatives", symbols, checker)
    assert solve_tau(scheme, space) == want
    assert (len(points), len(evaluations)) == (1, 1)


def test_a_space_of_another_dimension_is_the_checks_error():
    scheme = dual4_binary(1.0)
    with pytest.raises(CheckError, match="space dimension does not match the scheme"):
        solve_tau(scheme, ExpPolySpace.polynomials(2, 1))


def test_an_evaluation_error_may_come_before_a_probe_error():
    # The two levels and every frequency are evaluated before either probe reads them.
    # Level 0 fails the polynomial route (a(1) = 3) and level 1's symbol build raises.
    def rule(k):
        if k:
            raise ValueError(f"no symbol at level {k}")
        return LaurentSymbol(1, {(0,): 1.0, (1,): 1.0, (2,): 1.0})

    space = ExpPolySpace.polynomials(1, 1)
    with pytest.raises(ValueError, match="no symbol at level 1"):
        solve_tau(SchemeSpec("broken", DilationMatrix(2), rule), space)
    with pytest.raises(NoAdmissibleTauError, match=r"a\(1\) = 3\+0j differs"):
        oracle_solve_tau(SchemeSpec("broken", DilationMatrix(2), rule), space, 0)
    # (8i, 8i) is past the branch guard at level 0; the points of (-2000, 0), which no
    # probe reads, overflow.
    scheme, space = butterfly((0.3, 0.2)), ExpPolySpace.exponentials([(8j, 8j), (-2000.0, 0.0)])
    with pytest.raises(OverflowError):
        solve_tau(scheme, space)
    with pytest.raises(BranchAmbiguityError):
        oracle_solve_tau(scheme, space, 0)
