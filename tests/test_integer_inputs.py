"""Integer arguments are read through `lattice.as_int`: an integral float such
as 2.0 reads as 2, while 2.5, a bool or a string raises instead of being
truncated or read as 0 and 1.  Lattice points, levels and dimensions go through
`lattice.as_point` and `as_int`, catalog parameters through their factory.
Also the box guard of one operator step."""

import time
import tracemalloc

import numpy as np
import pytest

from expsub import (
    CatalogParameterError,
    DilationMatrix,
    EngineError,
    ExpPolySpace,
    GridData,
    LatticeError,
    LaurentSymbol,
    SymbolError,
    apply_operator,
    box_indices,
    check_reproduction,
    dual4_binary,
    exp_box_spline,
    exp_bspline,
    exp_product,
    refine,
    sample_exp_poly,
    sheared_convolution,
    stepwise_tests,
)
from expsub import engine
from expsub.engine import limit_sample_arrays
from expsub.lattice import as_complex_vector, as_multi_index, as_tau, v_stack

ONE = LaurentSymbol(1, {(0,): 1.0, (1,): 2.0})


# -- catalog constructors ---------------------------------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: exp_product(2, [(0.5, 1.7)]), "multiplicity must be an integer, got 1.7"),
        (lambda: exp_product(2, [(0.5, True)]), "multiplicity must be an integer, got True"),
        (lambda: exp_bspline(2, 1.0, n_fold=2.5), "n_fold must be an integer, got 2.5"),
        (lambda: exp_bspline(2.5, 1.0), "arity m must be an integer, got 2.5"),
        (lambda: exp_bspline(True, 1.0), "arity m must be an integer, got True"),
        (lambda: exp_product(3.5, [(0.5, 1)]), "arity m must be an integer, got 3.5"),
        (lambda: exp_box_spline(2.5, (0.5, 0.5)), "dilation factor must be an integer, got 2.5"),
        (lambda: exp_box_spline("2", (0.5, 0.5)), "dilation factor must be an integer, got '2'"),
        (lambda: exp_bspline(2, 1.0, tau="0.5"), "shift parameter entry must be a real number, got '0.5'"),
        (lambda: exp_bspline(2, 1.0, tau=True), "shift parameter entry must be a real number, got True"),
        (lambda: sheared_convolution((0.5, 0.5), normalized="no"), "normalized must be true or false, got 'no'"),
        (lambda: exp_box_spline(2, "12"), "vector entry must be a finite number, got '12'"),
        (lambda: dual4_binary(True), "vector entry must be a finite number, got True"),
    ],
    ids=["multiplicity-1.7", "multiplicity-true", "n_fold-2.5", "m-2.5", "m-true", "product-m-3.5",
         "n_dil-2.5", "n_dil-string", "tau-string", "tau-true", "normalized-string", "lambda-string",
         "lambda-true"],
)
def test_catalog_integer_parameters_are_rejected_not_truncated(build, message):
    with pytest.raises(CatalogParameterError, match=message):
        build()


@pytest.mark.parametrize(
    "build, want",
    [
        (lambda: exp_product(3.0, [(0.5, 1)]), lambda: exp_product(3, [(0.5, 1)])),
        (lambda: exp_product(2, [(0.5, 2.0)]), lambda: exp_product(2, [(0.5, 2)])),
        (lambda: exp_box_spline(2.0, (0.5, 0.5)), lambda: exp_box_spline(2, (0.5, 0.5))),
        (lambda: exp_bspline(2.0, 1.0, n_fold=np.int64(2)), lambda: exp_bspline(2, 1.0, n_fold=2)),
    ],
    ids=["product-m-3.0", "multiplicity-2.0", "n_dil-2.0", "m-2.0-n_fold-int64"],
)
def test_catalog_integral_floats_read_as_ints(build, want):
    got, expected = build(), want()
    assert got.name == expected.name
    assert got.M.mat == expected.M.mat
    for k in range(3):
        assert got.symbol(k).sorted_items() == expected.symbol(k).sorted_items()


# -- level ranges, window ranges and radii ----------------------------------------------------


@pytest.mark.parametrize(
    "pair", [(np.int64(0), np.int64(3)), (0.0, 3.0), (np.int32(0), 3), (0, 3)],
    ids=["int64", "integral-floats", "int32-int", "ints"],
)
def test_a_pair_that_as_int_reads_is_a_range(pair):
    scheme = dual4_binary(0.9)
    assert check_reproduction(scheme, scheme.space, (-0.5,), pair).levels == (0, 1, 2, 3)
    assert [rep.k for rep in stepwise_tests(scheme, scheme.space, (-0.5,), pair, 6)] == [0, 1, 2, 3]
    assert box_indices(pair, 1) == [(0,), (1,), (2,), (3,)]
    # a list is never a range: it lists levels or points
    assert check_reproduction(scheme, scheme.space, (-0.5,), list(pair)).levels == (0, 3)
    assert box_indices(list(pair), 1) == [(0,), (3,)]


@pytest.mark.parametrize("radius", [np.int64(2), 2.0, np.uint8(2)], ids=["int64", "float", "uint8"])
def test_a_radius_that_as_int_reads_is_a_box(radius):
    assert box_indices(radius, 2) == box_indices(2, 2)


@pytest.mark.parametrize(
    "window, message",
    [(2.5, "window bound must be an integer, got 2.5"), ((0, 2.5), "window bound must be an integer, got 2.5"),
     (np.bool_(True), "window bound must be an integer, got np.True_")],
    ids=["radius-2.5", "pair-2.5", "radius-numpy-bool"],
)
def test_a_range_that_as_int_rejects_raises(window, message):
    with pytest.raises(LatticeError, match=message):
        box_indices(window, 1)


def test_limit_rounds_are_read_before_they_are_compared():
    with pytest.raises(LatticeError, match="rounds must be an integer, got '3'"):
        limit_sample_arrays(exp_bspline(2, 1.0), "3")
    t, vals = limit_sample_arrays(exp_bspline(2, 1.0), np.int64(3))
    want_t, want_vals = limit_sample_arrays(exp_bspline(2, 1.0), 3)
    assert t.tobytes() == want_t.tobytes() and vals.tobytes() == want_vals.tobytes()


# -- grid, symbol and window indices -------------------------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GridData(1, 0, {(1.5,): 1.0}), "grid index must be an integer, got 1.5"),
        (lambda: GridData(1, 0, {(True,): 1.0}), "grid index must be an integer, got True"),
        (lambda: GridData(1, 0, {True: 1.0}), "grid index must be an integer, got True"),
        (lambda: GridData(1, 0, {1.5: 1.0}), "grid index must be an integer, got 1.5"),
        (lambda: GridData(1, 1.5, {(1,): 1.0}), "grid level must be an integer, got 1.5"),
        (lambda: GridData.from_points(1, 0, [[1.7]], [1.0]), "grid index must be an integer, got 1.7"),
        (lambda: GridData.from_points(1, 0, np.array([[True]]), [1.0]), "grid index must be an integer, got True"),
        (lambda: GridData.from_points(1, 0.5, [[1]], [1.0]), "grid level must be an integer, got 0.5"),
        (lambda: LaurentSymbol(1, {(0.5,): 1.0}), "exponent must be an integer, got 0.5"),
        (lambda: LaurentSymbol(1, {0.5: 1.0}), "exponent must be an integer, got 0.5"),
        (lambda: LaurentSymbol(2, {(0, True): 1.0}), "exponent must be an integer, got True"),
        (lambda: box_indices([(0.5,), (1.2,)], 1), "window index must be an integer, got 0.5"),
        (lambda: box_indices([0.5], 1), "window index must be an integer, got 0.5"),
        (lambda: box_indices(True, 1), "window bound must be an integer, got True"),
        (lambda: box_indices((False, 2), 1), "window bound must be an integer, got False"),
        (lambda: as_multi_index((1.7,)), "multi-index must be an integer, got 1.7"),
        (lambda: ExpPolySpace([((1.7,), (0.5,))]), "multi-index must be an integer, got 1.7"),
        (lambda: ONE.coeff((0.5,)), "exponent must be an integer, got 0.5"),
        (lambda: ONE.shift((0.5,)), "shift must be an integer, got 0.5"),
        (lambda: LaurentSymbol(1.9, {(0,): 1.0}), "dimension must be an integer, got 1.9"),
        (lambda: GridData(1.9, 0, {(0,): 1.0}), "dimension must be an integer, got 1.9"),
        (lambda: check_reproduction(dual4_binary(0.7), dual4_binary(0.7).space, (-0.5,), [0.5, 1.7]),
         "level must be an integer, got 0.5"),
        (lambda: refine(dual4_binary(0.7), GridData.delta(1), 1, start_level=1.5),
         "start level must be an integer, got 1.5"),
        (lambda: DilationMatrix(2).solve_integer((4.5,)), "lattice point must be an integer, got 4.5"),
        (lambda: DilationMatrix(2).apply((1.5,)), "lattice point must be an integer, got 1.5"),
        (lambda: DilationMatrix(2).coset_of((1.5,)), "lattice point must be an integer, got 1.5"),
        (lambda: ONE.sub_symbol(0.5, DilationMatrix(2)), "lattice point must be an integer, got 0.5"),
        (lambda: ONE ** True, "power must be an integer, got True"),
        (lambda: as_complex_vector(float("nan")), "vector entry must be a finite number, got nan"),
        (lambda: as_tau("0.5", 1), "shift parameter entry must be a real number, got '0.5'"),
        (lambda: refine(dual4_binary(0.7), GridData.delta(1), 1.5), "rounds must be an integer, got 1.5"),
        (lambda: ExpPolySpace.polynomials(2, 1.5), "degree must be an integer, got 1.5"),
        (lambda: sample_exp_poly((0,), 0.5, DilationMatrix(2), (0.0,), 1.5, 3), "level must be an integer, got 1.5"),
        (lambda: v_stack(DilationMatrix(2), [(0.5,)], [1.5]), "level must be an integer, got 1.5"),
    ],
    ids=["grid-1.5", "grid-true", "grid-bare-true", "grid-bare-1.5", "level-1.5", "from-points-1.7",
         "from-points-bool-array", "from-points-level-0.5", "symbol-0.5", "symbol-bare-0.5", "symbol-true",
         "window-points", "window-bare-point", "window-radius-true", "window-bound-false",
         "multi-index-1.7", "space-gamma-1.7", "coeff-0.5", "shift-0.5", "symbol-dimension-1.9",
         "grid-dimension-1.9", "check-levels", "refine-start-level-1.5", "solve-integer-4.5", "apply-1.5",
         "coset-of-1.5", "sub-symbol-0.5", "power-true", "complex-nan", "tau-string", "refine-rounds-1.5",
         "polynomials-degree-1.5", "sample-level-1.5",
         "v-stack-level-1.5"],
)
def test_indices_are_rejected_not_truncated(build, message):
    with pytest.raises(LatticeError, match=message):
        build()


def test_integral_float_indices_read_as_ints():
    g = GridData(1, 2.0, {(2.0,): 1.0, np.int64(3): 2.0})
    assert g.level == 2 and type(g.level) is int
    assert g.support() == [(2,), (3,)]
    h = GridData.from_points(2, 0, [[1.0, -2.0]], np.array([1.0j]))
    assert h.support() == [(1, -2)] and h.values[(1, -2)] == 1j
    assert GridData.from_points(1, 0, np.array([[4]], dtype=np.uint8), [1.0]).support() == [(4,)]
    assert LaurentSymbol(1, {(2.0,): 1.0, np.int64(-1): 0.5}).support() == [(-1,), (2,)]
    assert box_indices([(1.0,), 2.0], 1) == [(1,), (2,)]


@pytest.mark.parametrize(
    "got, want",
    [
        (lambda: dual4_binary(0.7).symbol(np.int64(1)), lambda: dual4_binary(0.7).symbol(1)),
        (lambda: ONE ** np.int64(2), lambda: ONE * ONE),
        (lambda: DilationMatrix(2.0), lambda: DilationMatrix(2)),
        (lambda: box_indices([2.0], 1), lambda: [(2,)]),
        (lambda: (LaurentSymbol.one(2.0), GridData.delta(2.0).s), lambda: (LaurentSymbol.one(2), 2)),
        (lambda: (ONE * np.int64(2)).sorted_items(), lambda: (ONE * 2).sorted_items()),
        (lambda: (ONE * np.complex64(2)).sorted_items(), lambda: (ONE * complex(2)).sorted_items()),
    ],
    ids=["symbol-level-int64", "power-int64", "dilation-2.0", "window-bare-2.0", "dimension-2.0",
         "scale-int64", "scale-complex64"],
)
def test_numpy_integers_and_integral_floats_are_accepted(got, want):
    assert got() == want()


# -- the box guard of one operator step ------------------------------------------------------


def step_boxes(mask, M, n):
    """The boxes, in lattice points, that one step allocates for a 1-D grid of n points: the
    grid padded by the largest tap span, then each coset's box (the grid widened by its span)."""
    spans = [int(ns.max() - ns.min()) for _, ns, _ in mask.polyphase_arrays(M)]
    return [n + 2 * max(spans), *(n + d for d in spans)]


def peak_bytes(call):
    """Peak traced allocation while `call` runs, and what it returned or raised."""
    tracemalloc.start()
    try:
        try:
            out = call()
        except EngineError as exc:
            out = exc
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_a_step_past_the_box_limit_is_rejected_before_any_work_array(monkeypatch):
    scheme = dual4_binary(0.7)
    mask, M = scheme.symbol(0), scheme.M
    n = 100_000
    f = GridData.from_points(1, 0, np.arange(n)[:, None], np.ones(n))
    boxes = step_boxes(mask, M, n)
    total = sum(boxes)
    one_array = 8 * n  # bytes of one float work array over the grid

    peak, out = peak_bytes(lambda: apply_operator(mask, M, f))
    assert isinstance(out, GridData) and peak > 3 * one_array  # the measure sees the work arrays

    monkeypatch.setattr(engine, "MAX_BOX_POINTS", total - 1)
    for call in (lambda: apply_operator(mask, M, f), lambda: refine(scheme, f, 1)):
        peak, out = peak_bytes(call)
        assert isinstance(out, EngineError)
        assert str(out).startswith(f"data spans a bounding box of {total} lattice points")
        assert peak < one_array
    assert max(boxes) < total - 1  # each box alone fits: the guard bounds their sum

    monkeypatch.setattr(engine, "MAX_BOX_POINTS", total)
    assert len(apply_operator(mask, M, f)) == len(refine(scheme, f, 1))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: DilationMatrix(2**24 + 1), LatticeError, r"\|det M\| must be at most 16777216"),
        (lambda: exp_bspline(2, 1.0, n_fold=2**70), CatalogParameterError, "n_fold would make a mask"),
        (lambda: exp_product(2, [(0.5, 2**70)]), CatalogParameterError, "the multiplicities would make a mask"),
        # Masks short enough whose products would take hours to form.
        (lambda: exp_bspline(2, 1.0, n_fold=10**6), CatalogParameterError,
         "n_fold would form more than 16777216 coefficient products"),
        (lambda: exp_product(3, [(0.5, 2000), (-0.5, 2000)]), CatalogParameterError,
         "the multiplicities would form more than 16777216 coefficient products"),
        (lambda: ExpPolySpace([((2**70,), (0.5,))]), SymbolError, "gamma .* closes downward to more than"),
    ],
    ids=["det", "n_fold", "multiplicity", "n_fold products", "multiplicity products", "gamma"],
)
def test_a_size_past_the_limit_is_rejected_at_once(build, error, message):
    start = time.perf_counter()
    with pytest.raises(error, match=message):
        build()
    assert time.perf_counter() - start < 1


def test_sizes_within_the_limit_are_accepted():
    assert DilationMatrix(2**24).m == 2**24 == engine.MAX_BOX_POINTS
    assert exp_bspline(10**6, 1.0).M.m == 10**6  # its mask of 10**6 taps is built on first use
    # (4095 + 4095 * 4094 / 2) * 2 products form the mask, at most 2**24; one more factor is past it.
    assert exp_bspline(2, 1.0, n_fold=4095).name == "exp_bspline(m=2,n=4095)"
    with pytest.raises(CatalogParameterError, match="n_fold would form more than"):
        exp_bspline(2, 1.0, n_fold=4096)
