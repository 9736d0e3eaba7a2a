"""Operator application, refinement, sampling, limit samples, interiors."""

import cmath
import gc
import io
import math
import json
import random
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expsub import (
    DilationMatrix,
    EngineError,
    ExpPolySpace,
    GridData,
    LaurentSymbol,
    apply_operator,
    basic_limit_samples,
    box_indices,
    exp_box_spline,
    exp_bspline,
    butterfly,
    dual4_binary,
    grid_from_csv,
    grid_from_json_obj,
    grid_to_csv,
    grid_to_json_obj,
    is_interpolatory,
    refine,
    sample_exp_poly,
    sheared_convolution,
    scheme_file_for_catalog,
    sqrt3_schemes,
    stepwise_test,
    valid_interior,
)
from expsub.cli import main
from expsub.lattice import param_array

MATRIX_POOL = [2, 3, -2, [[2, 0], [0, 2]], [[2, 1], [0, 2]], [[1, 2], [-2, -1]]]


def random_symbol(rng, s, span=3, nterms=5):
    return LaurentSymbol(
        s,
        {
            tuple(rng.randint(-span, span) for _ in range(s)): complex(
                rng.uniform(-1, 1), rng.uniform(-1, 1)
            )
            for _ in range(nterms)
        },
    )


def random_grid(rng, s, span=3, npts=6, level=0):
    vals = {
        tuple(rng.randint(-span, span) for _ in range(s)): complex(
            rng.uniform(-1, 1), rng.uniform(-1, 1)
        )
        for _ in range(npts)
    }
    return GridData(s, level, vals)


def brute_force_step(mask, M, f):
    """Independent double loop over (alpha, beta), beta in sorted order."""
    out_support = set()
    for beta in f.values:
        mb = M.apply(beta)
        for mu in mask.support():
            out_support.add(tuple(a + b for a, b in zip(mb, mu)))
    mterms = mask.terms()
    out = {}
    for alpha in sorted(out_support):
        acc = 0j
        for beta in sorted(f.values):
            mb = M.apply(beta)
            mu = tuple(a - b for a, b in zip(alpha, mb))
            if mu in mterms:
                acc += mterms[mu] * f.values[beta]
        out[alpha] = acc
    return out


def test_delta_reproduces_mask():
    M = DilationMatrix(2)
    mask = LaurentSymbol(1, {(-1,): 0.25, (0,): 1.0, (1,): 0.25})
    g = apply_operator(mask, M, GridData.delta(1))
    assert g.values == mask.terms()
    assert g.level == 1


def test_bspline_coset_rule():
    m, lam, k = 3, 0.7, 2
    scheme = exp_bspline(m, lam)
    mask = scheme.symbol(k)
    r = cmath.exp(lam * float(m) ** -(k + 1))
    rng = random.Random(11)
    f = random_grid(rng, 1)
    g = apply_operator(mask, DilationMatrix(m), f)
    for beta, v in f.values.items():
        for eps in range(m):
            idx = (m * beta[0] + eps,)
            if idx in g.values and all(
                (idx[0] - m * b[0]) not in range(0, m) or b == beta for b in f.values
            ):
                assert abs(g.values[idx] - r**eps * v) < 1e-14


def test_constant_data_stays_constant_inside():
    M = DilationMatrix(2)
    mask = LaurentSymbol(1, {(0,): 0.5, (1,): 1.0, (2,): 0.5})
    window = (-6, 6)
    f = GridData(1, 0, {i: 1.0 for i in box_indices(window, 1)})
    g = apply_operator(mask, M, f)
    for alpha in valid_interior(mask, M, window):
        assert abs(g.values[alpha] - 1.0) < 1e-15


def test_operator_linearity():
    rng = random.Random(2)
    M = DilationMatrix([[2, 1], [0, 2]])
    mask = random_symbol(rng, 2)
    f = random_grid(rng, 2)
    g = random_grid(rng, 2)
    a, b = 1.7 - 0.3j, -0.4 + 2j
    combo = GridData(
        2,
        0,
        {
            k: a * f.values.get(k, 0) + b * g.values.get(k, 0)
            for k in set(f.values) | set(g.values)
        },
    )
    lhs = apply_operator(mask, M, combo).values
    sf = apply_operator(mask, M, f).values
    sg = apply_operator(mask, M, g).values
    for k in lhs:
        want = a * sf.get(k, 0) + b * sg.get(k, 0)
        assert abs(lhs[k] - want) < 1e-12


def test_apply_operator_equals_brute_force_exactly():
    rng = random.Random(4)
    for i in range(100):
        M = DilationMatrix(MATRIX_POOL[i % len(MATRIX_POOL)])
        mask = random_symbol(rng, M.s)
        f = random_grid(rng, M.s)
        got = apply_operator(mask, M, f)
        want = brute_force_step(mask, M, f)
        assert got.values == want  # bit-identical, not just close


def test_output_coset_uses_matching_sub_symbol():
    rng = random.Random(9)
    M = DilationMatrix([[2, 0], [0, 2]])
    mask = random_symbol(rng, 2)
    f = random_grid(rng, 2)
    full = apply_operator(mask, M, f)
    for eps in M.coset_reps():
        part = apply_operator(mask.sub_symbol(eps, M), M, f)
        for alpha, v in full.values.items():
            if M.coset_of(alpha) == eps:
                assert part.values.get(alpha, 0j) == v


def test_interpolatory_retention_exact():
    scheme = butterfly((1.0, 1.0))
    M = scheme.M
    rng = random.Random(14)
    f = random_grid(rng, 2)
    g = apply_operator(scheme.symbol(0), M, f)
    for beta, v in f.values.items():
        assert g.values[M.apply(beta)] == v


def test_refine_composes_levels():
    scheme = exp_bspline(2, 1.0)
    f = GridData.delta(1, level=0)
    assert refine(scheme, f, 0).values == f.values
    two = refine(scheme, f, 2)
    assert two.level == 2
    # starting the family at level 1 uses masks a^[1], a^[2]
    shifted = refine(scheme, GridData.delta(1, level=1), 2)
    m0 = scheme.symbol(1)
    step = apply_operator(m0, scheme.M, GridData.delta(1, level=1))
    again = apply_operator(scheme.symbol(2), scheme.M, step)
    assert shifted.values == again.values


def test_sample_exp_poly_examples():
    M = DilationMatrix(2)
    ones = sample_exp_poly((0,), (0.0,), M, (0.0,), 0, (-3, 3))
    assert all(v == 1 for v in ones.values.values())
    lin = sample_exp_poly((1,), (0.0,), M, (0.0,), 1, (-4, 4))
    assert lin.values[(4,)] == 2.0
    osc = sample_exp_poly((0,), (1j * cmath.pi,), M, (0.0,), 0, (0, 2))
    assert abs(osc.values[(1,)] + 1) < 1e-15


def test_is_interpolatory_examples():
    M2 = DilationMatrix(2)
    r = cmath.exp(0.25)
    assert is_interpolatory(LaurentSymbol(1, {(0,): 1, (1,): r}), M2)
    sq = LaurentSymbol(1, {(0,): 1, (1,): r, (2,): r * r}) ** 2
    assert not is_interpolatory(sq, M2)
    for k in range(4):
        assert is_interpolatory(butterfly((1.0, 2.0)).symbol(k), DilationMatrix([[2, 0], [0, 2]]))
    s3 = sqrt3_schemes()
    assert is_interpolatory(s3["interpolatory"].symbol(0), s3["interpolatory"].M)
    assert not is_interpolatory(s3["approximating"].symbol(0), s3["approximating"].M)
    assert not is_interpolatory(dual4_binary(1.0).symbol(0), M2)


def test_basic_limit_samples_exp_bspline():
    lam = 1.0
    scheme = exp_bspline(2, lam)
    samples = basic_limit_samples(scheme, 12)
    assert len(samples) == 2**12
    rel = max(abs(v - cmath.exp(lam * t[0])) for t, v in samples) / max(
        abs(cmath.exp(lam * t[0])) for t, _ in samples
    )
    assert rel < 1e-3
    ts = [t[0] for t, _ in samples]
    assert min(ts) >= 0.0 and max(ts) < 1.0


def test_basic_limit_samples_box_spline():
    lam = (1.0, 1.0)
    scheme = exp_box_spline(2, lam)
    samples = basic_limit_samples(scheme, 7)
    rel = max(abs(v - cmath.exp(t[0] + t[1])) for t, v in samples) / max(
        abs(cmath.exp(t[0] + t[1])) for t, _ in samples
    )
    assert rel < 1e-3
    zero = exp_box_spline(2, (0.0, 0.0))
    flat = basic_limit_samples(zero, 5)
    assert all(v == 1 for _, v in flat)


def test_basic_limit_hat_value_at_one():
    hat = exp_bspline(2, 0.0, n_fold=2, tau=1.0)
    samples = basic_limit_samples(hat, 8)
    at1 = [v for t, v in samples if abs(t[0] - 1.0) < 1e-12]
    assert at1 and all(v == 1 for v in at1)


def test_valid_interior_and_errors():
    M = DilationMatrix(2)
    mask = LaurentSymbol(1, {(0,): 0.5, (1,): 1.0, (2,): 0.5})
    inside = valid_interior(mask, M, (-4, 4))
    assert inside
    # every interior point can be computed from window data alone
    for alpha in inside:
        for mu in mask.support():
            beta = M.solve_integer((alpha[0] - mu[0],))
            if beta is not None:
                assert -4 <= beta[0] <= 4
    with pytest.raises(EngineError):
        GridData(1, -1, {})
    with pytest.raises(EngineError):
        apply_operator(mask, DilationMatrix([[2, 0], [0, 2]]), GridData.delta(1))


def test_grid_serialization_roundtrips():
    rng = random.Random(21)
    g = random_grid(rng, 2, level=3)
    g = GridData(2, 3, g.values, tau=(0.5, -0.25))
    back = grid_from_json_obj(json.loads(json.dumps(grid_to_json_obj(g))))
    assert back.values == g.values and back.level == 3 and back.tau == g.tau
    buf = io.StringIO()
    grid_to_csv(g, buf)
    buf.seek(0)
    csv_back = grid_from_csv(buf, level=3, tau=(0.5, -0.25))
    assert csv_back.values == g.values


def test_repeated_index_in_grid_json_is_rejected():
    obj = {"level": 0, "values": [{"idx": [0], "re": 1.0}, {"idx": [0], "re": 5.0}]}
    with pytest.raises(EngineError, match="more than once"):
        grid_from_json_obj(obj)


def test_repeated_index_in_grid_csv_is_rejected():
    with pytest.raises(EngineError, match="more than once"):
        grid_from_csv(io.StringIO("idx0,re,im\n0,1.0,0.0\n0,7.0,0.0\n"))
    # an int key and its 1-tuple name the same index
    with pytest.raises(EngineError, match="more than once"):
        GridData(1, 0, {0: 1.0, (0,): 2.0})
    with pytest.raises(EngineError, match="more than once"):
        GridData.from_points(1, 0, np.array([[0], [0]]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("text", ["idx0\n", "idx0,re,im\n1,2\n"])
def test_short_csv_header_or_row_is_an_engine_error(text):
    with pytest.raises(EngineError, match="CSV"):
        grid_from_csv(io.StringIO(text))


def test_limit_samples_attach_to_parameter_points():
    scheme = dual4_binary(1.0)  # tau = -1/2 travels into the samples
    samples = basic_limit_samples(scheme, 3)
    f = refine(scheme, GridData.delta(1, tau=scheme.tau), 3)
    pts = param_array(scheme.M, scheme.tau, 3, f.support()).tolist()
    assert [list(t) for t, _ in samples] == pts


def test_bspline_refinement_digit_product():
    # n rounds from delta: the value at the index with digits e1..en is
    # the product of r_{j-1}^{e_j}
    m, lam, n = 2, 0.9, 5
    scheme = exp_bspline(m, lam)
    g = refine(scheme, GridData.delta(1), n)
    rs = [cmath.exp(lam * float(m) ** -(j + 1)) for j in range(n)]
    for alpha, v in g.values.items():
        digits = []
        a = alpha[0]
        for _ in range(n):
            digits.append(a % m)
            a //= m
        digits.reverse()  # most significant digit first: index = sum e_j m^(n-j)
        want = 1.0
        for j, e in enumerate(digits):
            want *= rs[j] ** e
        assert abs(v - want) < 1e-13


# -- dense engine properties --------------------------------------------------------


def bits(values):
    """Index -> (re, im) hex strings, so signed zeros count as different bits."""
    return {k: (complex(v).real.hex(), complex(v).imag.hex()) for k, v in dict(values).items()}


def old_valid_interior(mask, M, window):
    """Set-based definition: candidates whose every lattice preimage is in the window."""
    win = set(box_indices(window, M.s))
    candidates = set()
    for beta in win:
        mb = M.apply(beta)
        for mu in mask.support():
            candidates.add(tuple(a + b for a, b in zip(mb, mu)))
    out = []
    for alpha in sorted(candidates):
        preimages = (M.solve_integer(tuple(a - u for a, u in zip(alpha, mu))) for mu in mask.support())
        if all(beta is None or beta in win for beta in preimages):
            out.append(alpha)
    return out


finite = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
# exact zeros (both signs) are drawn often, so supports carry zero values
value = st.one_of(st.sampled_from([0j, complex(-0.0, 0.0)]), st.builds(complex, finite, finite))


@st.composite
def operator_case(draw):
    M = DilationMatrix(draw(st.sampled_from(MATRIX_POOL)))
    index = st.tuples(*[st.integers(-4, 4)] * M.s)
    mask = LaurentSymbol(M.s, draw(st.dictionaries(index, value, min_size=1, max_size=8)))
    # a few points drawn from a box of 9^s leave holes in the support
    f = GridData(M.s, 0, draw(st.dictionaries(index, value, max_size=10)))
    beta = draw(index)
    return M, mask, f, beta


@given(operator_case())
def test_dense_operator_matches_brute_force_bits(case):
    M, mask, f, _ = case
    got = apply_operator(mask, M, f)
    assert bits(got.values) == bits(brute_force_step(mask, M, f))
    assert len(got) == len(got.values) == len(brute_force_step(mask, M, f))


@given(operator_case(), st.builds(complex, finite, finite))
def test_operator_is_linear(case, a):
    M, mask, f, _ = case
    g = GridData(f.s, 0, {k: v * 1j - 0.5 for k, v in f.values.items()})
    combo = GridData(f.s, 0, {k: a * f.values[k] + g.values[k] for k in f.values})
    lhs = apply_operator(mask, M, combo).values
    sf = apply_operator(mask, M, f).values
    sg = apply_operator(mask, M, g).values
    assert set(lhs) == set(sf) == set(sg)
    for k in lhs:
        assert abs(lhs[k] - (a * sf[k] + sg[k])) <= 1e-12 * (1 + abs(a)) * 64


@given(operator_case())
def test_shift_commutes_with_operator(case):
    M, mask, f, beta = case
    moved = GridData(f.s, 0, {tuple(x + b for x, b in zip(k, beta)): v for k, v in f.values.items()})
    mb = M.apply(beta)
    want = {tuple(x + b for x, b in zip(k, mb)): v for k, v in apply_operator(mask, M, f).values.items()}
    assert bits(apply_operator(mask, M, moved).values) == bits(want)


@given(operator_case(), st.integers(0, 3))
def test_valid_interior_matches_set_definition(case, radius):
    M, mask, _, _ = case
    assert valid_interior(mask, M, radius) == old_valid_interior(mask, M, radius)
    # a set of points; a list would read the same
    holes = {i for i in box_indices(radius + 1, M.s) if sum(i) % 3}
    assert valid_interior(mask, M, holes) == old_valid_interior(mask, M, holes)


def test_grid_is_dense_and_read_only():
    g = GridData(2, 1, {(0, 0): 1.0, (2, -1): 0.0, (1, 1): 2j})
    assert len(g.values) == 3 and g.values._dict is None  # len does not build the dict
    assert g.origin == (0, -1) and g.data.shape == (3, 3)
    assert g.data.dtype == np.complex128 and g.data.flags.c_contiguous
    assert g.in_support.sum() == 3 and g.values[(2, -1)] == 0  # zero stays in support
    assert g.support() == [(0, 0), (1, 1), (2, -1)]
    with pytest.raises(ValueError):
        g.data[0, 0] = 5
    with pytest.raises(ValueError):
        g.in_support[0, 0] = False
    with pytest.raises(TypeError):
        g.values[(0, 0)] = 5
    with pytest.raises(AttributeError):
        g.level = 3


def test_values_reads_only_the_support():
    g = GridData(1, 0, {(0,): 1, (1,): 2, (2,): 3})
    assert [g.values[(2,)], g.values[(0,)]] == [3, 1]
    for outside in ((-1,), (3,), (-3,)):  # no wrap-around, no clipping
        with pytest.raises(KeyError):
            g.values[outside]
    holed = GridData(2, 0, {(0, 0): 1.0, (2, 1): 2.0})
    assert holed.values[(2, 1)] == 2.0
    with pytest.raises(KeyError):
        holed.values[(1, 0)]  # inside the bounding box, not in the support


def test_a_grid_read_through_values_is_freed_without_the_cycle_collector():
    """The values view and the grid form no reference cycle, so a grid's arrays go when it does."""
    gc.collect()
    gc.disable()
    try:
        g = GridData(1, 0, {(0,): 1.0, (2,): 2.0})
        assert (g.values[(2,)], len(g.values), list(g.values)) == (2.0, 2, [(0,), (2,)])
        del g
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_far_apart_or_huge_indices_are_rejected():
    with pytest.raises(EngineError, match="bounding box"):
        GridData(2, 0, {(0, 0): 1.0, (10**5, 10**5): 1.0})
    for far in (2**40, -(2**70)):  # M g must not wrap around in int64
        with pytest.raises(EngineError, match="indices"):
            GridData(1, 0, {(far,): 1.0})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
def test_non_finite_data_and_taps_are_rejected(bad):
    with pytest.raises(EngineError):
        GridData(1, 0, {(0,): 1.0, (3,): bad})
    with pytest.raises(EngineError):
        grid_from_json_obj({"level": 0, "values": [{"idx": [0], "re": complex(bad).real, "im": complex(bad).imag}]})
    mask = LaurentSymbol(1, {(0,): 1.0, (1,): bad})
    with pytest.raises(EngineError):
        apply_operator(mask, DilationMatrix(2), GridData.delta(1))


def test_param_points_match_limit_samples_on_all_geometries():
    schemes = [
        exp_bspline(2, 0.7),
        exp_bspline(3, 0.4j),
        dual4_binary(1.0),
        butterfly((1.0, 0.5)),
        sheared_convolution((0.6, 0.9), normalized=True),
        sqrt3_schemes()["interpolatory"],
        sqrt3_schemes()["approximating"],
    ]
    for scheme in schemes:
        rounds = 4 if scheme.M.s == 2 else 7
        tau = scheme.tau if scheme.tau is not None else (0.0,) * scheme.M.s
        support = refine(scheme, GridData.delta(scheme.M.s, tau=tau), rounds).support()
        got = list(map(tuple, param_array(scheme.M, tau, rounds, support).tolist()))
        assert got == [t for t, _ in basic_limit_samples(scheme, rounds)]
        Mk = scheme.M.inv_power(rounds)
        for alpha, t in zip(support, got):
            shifted = [float(a) + tv for a, tv in zip(alpha, tau)]
            want = tuple(float(sum(Mk[i][j] * shifted[j] for j in range(scheme.M.s))) for i in range(scheme.M.s))
            assert [x.hex() for x in t] == [x.hex() for x in want]


@pytest.mark.parametrize("mat", [-2, [[1, 2], [-2, -1]]])
def test_param_points_never_give_negative_zero(mat):
    M = DilationMatrix(mat)
    for k in (1, 2, 3):
        (t,) = param_array(M, (0.0,) * M.s, k, [(0,) * M.s]).tolist()
        assert all(math.copysign(1.0, x) == 1.0 for x in t)


@given(operator_case(), st.integers(1, 3))
def test_point_list_window_is_points(case, radius):
    M, mask, _, _ = case
    assert box_indices([(0, 1), (2, 3)], 2) == [(0, 1), (2, 3)]
    assert box_indices([[2, 3], (0, 1), (4, 5)], 2) == [(0, 1), (2, 3), (4, 5)]
    # valid_interior output is a list of index tuples; fed back, it is a window
    once = valid_interior(mask, M, radius + 2)
    assert valid_interior(mask, M, once) == old_valid_interior(mask, M, set(once))


def test_only_a_tuple_of_two_ints_is_a_range():
    assert box_indices((3, 5), 1) == [(3,), (4,), (5,)]
    assert box_indices([3, 5], 1) == [(3,), (5,)]
    assert box_indices({5, 3}, 1) == [(3,), (5,)]
    assert box_indices([3, 5, 7], 1) == [(3,), (5,), (7,)]
    assert box_indices((0, 1), 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_an_overflowing_step_is_reported_without_numpy_warnings(tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps(scheme_file_for_catalog("exp_bspline", m=2, lam=1.0, n_fold=2)))
    data = tmp_path / "data.json"
    values = [{"idx": [i], "re": x, "im": 0.0} for i, x in enumerate([1.5e308, 1.7e308])]
    data.write_text(json.dumps({"level": 0, "values": values}))
    argv = ["refine", "--scheme", str(scheme), "--input", str(data), "--levels", "1", "--out", str(tmp_path / "out.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would end the call here
        assert main(argv) == 2
    assert capsys.readouterr().err == "error: grid values must be finite\n"


def test_an_overflowing_stepwise_sum_is_a_failing_record():
    # The samples are finite (e^(78.77 * 9) < 1.8e308); one step of the mask overflows.
    scheme, space = exp_bspline(2, 1.0, n_fold=2), ExpPolySpace([((0,), (78.77,))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = stepwise_test(scheme, space, (1.0,), 0, 8)
    assert not rep.verdict and rep.max_err == math.inf
