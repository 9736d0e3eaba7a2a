"""The one coset decomposition: HNF determinant, membership and polyphase."""

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from expsub import DilationMatrix, LaurentSymbol, is_interpolatory

POOL = [
    2,
    3,
    -2,
    [[2, 0], [0, 2]],
    [[2, 1], [0, 2]],
    [[1, 2], [-2, -1]],
    [[1, 1], [-1, 1]],
    [[0, 2], [2, 0]],  # negative determinant
    [[0, 2, 0], [0, 0, 2], [1, 0, 0]],
    [[0, 2, 0], [2, 0, 0], [0, 0, 3]],  # negative determinant
]

matrices = st.sampled_from(POOL).map(DilationMatrix)


def exact_preimage(M, alpha):
    """M^-1 alpha as sympy rationals."""
    return sympy.Matrix(M.mat).inv() * sympy.Matrix(alpha)


def on_lattice(M, alpha):
    return all(x.is_integer for x in exact_preimage(M, alpha))


@pytest.mark.parametrize("mat", POOL)
def test_det_matches_sympy(mat):
    M = DilationMatrix(mat)
    assert M.det == sympy.Matrix(M.mat).det()
    assert M.m == abs(M.det) == len(M.coset_reps()) == len(M.dual_reps())


@st.composite
def matrix_and_vector(draw):
    M = draw(matrices)
    alpha = draw(st.tuples(*[st.integers(-30, 30)] * M.s))
    if draw(st.booleans()):
        alpha = M.apply(alpha)  # a lattice point half of the time
    return M, alpha


@given(matrix_and_vector())
def test_solve_integer_is_the_integer_preimage(case):
    M, alpha = case
    n = M.solve_integer(alpha)
    if on_lattice(M, alpha):
        assert n == tuple(int(x) for x in exact_preimage(M, alpha))
        assert M.apply(n) == alpha
    else:
        assert n is None


@st.composite
def matrix_and_symbol(draw):
    M = draw(matrices)
    index = st.tuples(*[st.integers(-5, 5)] * M.s)
    coeff = st.builds(complex, st.integers(-2, 2), st.integers(-1, 1))
    return M, LaurentSymbol(M.s, draw(st.dictionaries(index, coeff, max_size=10)))


@given(matrix_and_symbol())
def test_polyphase_regroups_every_term_once(case):
    M, a = case
    phases = a.polyphase(M)
    assert list(phases) == sorted(phases)
    assert set(phases) <= set(M.coset_reps())
    regrouped = {}
    for e, taps in phases.items():
        ns = [n for n, _ in taps]
        assert taps and ns == sorted(set(ns), reverse=True)
        for n, c in taps:
            mu = tuple(x + y for x, y in zip(e, M.apply(n)))
            assert mu not in regrouped
            regrouped[mu] = c
    assert regrouped == a.terms()


@given(matrix_and_symbol(), st.booleans())
def test_is_interpolatory_matches_its_definition(case, make_interpolatory):
    M, a = case
    zero = (0,) * M.s
    if make_interpolatory:
        terms = {mu: c for mu, c in a.terms().items() if not on_lattice(M, mu)}
        a = LaurentSymbol(M.s, {**terms, zero: 1})
    # mask_(M alpha) = delta_(alpha, 0)
    lattice_terms = {mu: c for mu, c in a.terms().items() if on_lattice(M, mu)}
    assert is_interpolatory(a, M) == (lattice_terms == {zero: 1})
    if make_interpolatory:
        assert is_interpolatory(a, M)
