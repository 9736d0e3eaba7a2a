"""The one coset decomposition: HNF determinant, membership and polyphase."""

import itertools

import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st

from expsub import DilationMatrix, LatticeError, LaurentSymbol, is_interpolatory

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
    phases = {e: list(zip(map(tuple, ns.tolist()), cs.tolist())) for e, ns, cs in a.polyphase_arrays(M)}
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


def tracked_hnf(mat):
    """Row HNF H = U mat that also carries V = U^-1 through every row
    operation, swap and negation: the oracle for the derived V."""
    s = len(mat)
    H = [list(row) for row in mat]
    U = [[int(i == j) for j in range(s)] for i in range(s)]
    V = [[int(i == j) for j in range(s)] for i in range(s)]

    def row_op(i, j, q):
        for c in range(s):
            H[i][c] -= q * H[j][c]
            U[i][c] -= q * U[j][c]
        for r in range(s):
            V[r][j] += q * V[r][i]

    for j in range(s):
        while any(H[i][j] != 0 for i in range(j + 1, s)):
            pivot = min((i for i in range(j, s) if H[i][j] != 0), key=lambda i: abs(H[i][j]))
            if pivot != j:
                H[j], H[pivot], U[j], U[pivot] = H[pivot], H[j], U[pivot], U[j]
                for r in range(s):
                    V[r][j], V[r][pivot] = V[r][pivot], V[r][j]
            for i in range(j + 1, s):
                if H[i][j] != 0:
                    row_op(i, j, H[i][j] // H[j][j])
        if H[j][j] < 0:
            H[j], U[j] = [-x for x in H[j]], [-x for x in U[j]]
            for r in range(s):
                V[r][j] = -V[r][j]
    for j in range(s):
        for i in range(j):
            if H[i][j] // H[j][j]:
                row_op(i, j, H[i][j] // H[j][j])
    return H, U, V


def digit_box(H, V):
    s = len(H)
    return [
        tuple(sum(V[i][j] * d[j] for j in range(s)) for i in range(s))
        for d in itertools.product(*(range(H[i][i]) for i in range(s)))
    ]


@st.composite
def expansive_matrices(draw):
    s = draw(st.integers(1, 3))
    mat = [[draw(st.integers(-4, 4)) for _ in range(s)] for _ in range(s)]
    try:
        return DilationMatrix(mat)
    except LatticeError:
        assume(False)


@given(expansive_matrices(), st.lists(st.integers(-60, 60), min_size=3, max_size=3))
def test_derived_inverse_matches_the_tracked_one(M, alpha):
    """V = M X / m is U^-1, and it gives the transversals and splits the tracked V gave."""
    H, U, V = tracked_hnf(M.mat)
    assert M._uhv == (U, H, V)
    assert (sympy.Matrix(U) * sympy.Matrix(V)).is_Identity
    assert M.coset_reps() == sorted(digit_box(H, V))
    Ht, _, Vt = tracked_hnf([list(col) for col in zip(*M.mat)])
    reps = digit_box(Ht, Vt)
    zero = (0,) * M.s
    reps.remove(zero)
    assert M.dual_reps() == [zero] + sorted(reps)
    alpha = alpha[: M.s]
    y = [sum(U[i][j] * alpha[j] for j in range(M.s)) for i in range(M.s)]
    n = [0] * M.s
    for ell in range(M.s - 1, -1, -1):
        n[ell] = y[ell] // H[ell][ell]
        for r in range(ell + 1):
            y[r] -= n[ell] * H[r][ell]
    e = [sum(V[i][j] * y[j] for j in range(M.s)) for i in range(M.s)]
    got_e, got_n = M.split_all([alpha])
    assert (got_e[0].tolist(), got_n[0].tolist()) == (e, n)
