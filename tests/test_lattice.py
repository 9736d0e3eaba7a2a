"""Coset transversals, dual points, falling factorials, evaluation sets."""

import cmath
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from expsub import (
    DilationMatrix,
    LatticeError,
    q_eval,
)
from expsub.lattice import as_complex_vector, cexp, displacement, param_array, v_stack

SHEAR = [[2, 1], [0, 2]]
SQRT3 = [[1, 2], [-2, -1]]
# every geometry of the suite, plus a 3-D matrix and a negative determinant
POWER_POOL = [
    2,
    3,
    -2,
    [[2, 0], [0, 2]],
    SHEAR,
    SQRT3,
    [[1, 1], [-1, 1]],
    [[2, 1, 0], [0, 2, 1], [1, 0, 2]],
    [[3, 1], [1, -2]],
]


def adj2_solve(mat, vec):
    """Independent 2x2 integer lattice membership test via the adjugate."""
    (a, b), (c, d) = mat
    det = a * d - b * c
    y0 = d * vec[0] - b * vec[1]
    y1 = -c * vec[0] + a * vec[1]
    return y0 % det == 0 and y1 % det == 0


def same_coset(M, a, b):
    """Exact test for a = b mod M Z^s."""
    return M.solve_integer(tuple(int(x) - int(y) for x, y in zip(a, b))) is not None


def transversals_equivalent(M, reps_a, reps_b):
    """Do two lists represent the same cosets of Z^s / M Z^s, bijectively?"""
    canon_a = sorted(M.coset_of(r) for r in reps_a)
    canon_b = sorted(M.coset_of(r) for r in reps_b)
    return len(reps_a) == len(reps_b) and len(set(canon_a)) == len(canon_a) and canon_a == canon_b


def test_rejects_bad_matrices():
    with pytest.raises(LatticeError):
        DilationMatrix([[1, 0], [0, 0]])  # singular
    with pytest.raises(LatticeError):
        DilationMatrix(1)  # |det| < 2
    with pytest.raises(LatticeError):
        DilationMatrix([[1, 1], [0, 2]])  # eigenvalue 1
    with pytest.raises(LatticeError):
        DilationMatrix([[2, 0], [0, 1]])  # eigenvalue 1 despite det 2
    with pytest.raises(LatticeError):
        DilationMatrix([[2.5, 0], [0, 2]])  # non-integer entry


def test_coset_reps_univariate():
    assert DilationMatrix(2).coset_reps() == [(0,), (1,)]
    assert DilationMatrix(3).coset_reps() == [(0,), (1,), (2,)]


def test_coset_reps_twodim_examples():
    M = DilationMatrix([[2, 0], [0, 2]])
    assert M.coset_reps() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    Ms = DilationMatrix(SHEAR)
    got = Ms.coset_reps()
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert transversals_equivalent(Ms, got, [(0, 0), (1, 0), (0, 1), (1, 1)])
    # the staircase transversal used by the sheared scheme is equivalent too
    assert transversals_equivalent(Ms, got, [(0, 0), (1, 0), (1, 1), (2, 1)])
    assert not transversals_equivalent(Ms, got, [(0, 0), (1, 0), (0, 1), (2, 1)])


def test_coset_reps_pairwise_inequivalent_bruteforce():
    for mat in (SHEAR, SQRT3, [[2, 0], [0, 2]], [[1, 1], [-1, 1]]):
        M = DilationMatrix(mat)
        reps = M.coset_reps()
        assert len(reps) == M.m
        for i, a in enumerate(reps):
            for b in reps[i + 1 :]:
                diff = (a[0] - b[0], a[1] - b[1])
                assert not adj2_solve(mat, diff)
        # every residue is hit: reduce a sweep of small vectors
        seen = {M.coset_of((i, j)) for i in range(-4, 5) for j in range(-4, 5)}
        assert seen == set(reps)


def test_coset_of_consistency():
    M = DilationMatrix(SQRT3)
    for alpha in [(0, 0), (5, -3), (-7, 2), (1, 1)]:
        rep = M.coset_of(alpha)
        assert rep in M.coset_reps()
        assert same_coset(M, alpha, rep)


@pytest.mark.parametrize("mat", [2, -2, 3, [[2, 0], [0, 2]], SHEAR, SQRT3])
def test_split_gives_coset_rep_and_coarse_index(mat):
    M = DilationMatrix(mat)
    reps = M.coset_reps()
    for a in range(-7, 8):
        alpha = (a,) if M.s == 1 else (a, 3 - 2 * a)
        e, n = (tuple(x[0].tolist()) for x in M.split_all([alpha]))
        assert e in reps and e == M.coset_of(alpha)
        assert tuple(x + y for x, y in zip(e, M.apply(n))) == alpha


def test_dual_points_univariate_roots_of_unity():
    xi = DilationMatrix(2).dual_points()
    assert xi[0] == ((1 + 0j),)
    assert abs(xi[1][0] + 1) < 1e-12
    xi3 = DilationMatrix(3).dual_points()
    vals = sorted((z[0].real, z[0].imag) for z in xi3)
    want = sorted(
        (cmath.exp(2j * cmath.pi * e / 3).real, cmath.exp(2j * cmath.pi * e / 3).imag)
        for e in range(3)
    )
    assert np.allclose(vals, want, atol=1e-12)


def close_sets(got, want, tol=1e-10):
    """Set equality of complex-vector collections up to tolerance."""
    got = list(got)
    for w in want:
        hit = None
        for i, g in enumerate(got):
            if max(abs(a - b) for a, b in zip(g, w)) < tol:
                hit = i
                break
        if hit is None:
            return False
        got.pop(hit)
    return not got


def test_dual_points_twodim_examples():
    M = DilationMatrix([[2, 0], [0, 2]])
    assert close_sets(
        M.dual_points(), [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    )
    Ms = DilationMatrix(SHEAR)
    assert close_sets(
        Ms.dual_points(), [(1, 1), (1, -1), (-1, 1j), (-1, -1j)]
    )
    assert Ms.dual_points()[0] == (1 + 0j, 1 + 0j)


def test_dual_points_character_sum_identity():
    # sum over E of eps^e is m at the all-ones point and 0 elsewhere
    for mat in (2, 3, [[2, 0], [0, 2]], SHEAR, SQRT3):
        M = DilationMatrix(mat)
        E = M.coset_reps()
        for i, eps in enumerate(M.dual_points()):
            total = 0j
            for e in E:
                term = 1 + 0j
                for z, p in zip(eps, e):
                    term *= z**p
                total += term
            want = M.m if i == 0 else 0.0
            assert abs(total - want) < 1e-10


def test_dual_points_power_identity():
    for mat in (3, SHEAR, SQRT3):
        M = DilationMatrix(mat)
        for eps in M.dual_points():
            for beta in [(1,) * M.s, (0,) * (M.s - 1) + (2,), (-1,) + (1,) * (M.s - 1)]:
                mb = M.apply(beta)
                val = 1 + 0j
                for z, p in zip(eps, mb):
                    val *= z**p
                assert abs(val - 1) < 1e-12


def test_q_eval():
    assert q_eval(0, 3.7) == 1
    assert q_eval((0, 0), (2, 5)) == 1
    assert q_eval(2, 5) == 20
    assert q_eval((1, 2), (3, 4)) == 36
    assert q_eval((2,), (0,)) == 0
    assert q_eval((1, 1), (0.0, 9.0)) == 0


def test_q_eval_total_degree():
    # q_gamma is a polynomial of total degree |gamma|: leading behavior t^-|g| q(t z) -> z^g
    rng = np.random.default_rng(7)
    g = (2, 1)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    t = 1e6
    lead = q_eval(g, tuple(t * z)) / t ** sum(g)
    want = z[0] ** 2 * z[1]
    assert abs(lead - want) / abs(want) < 1e-4


def one_level(M, lambdas, k):
    """(V_k, V'_k) of level k from `v_stack`: points by frequency, then by dual
    point; V'_k drops the points of the all-ones dual point, which comes first."""
    v = v_stack(M, lambdas, [k])[1][0].tolist()
    return [tuple(p) for pts in v for p in pts], [tuple(p) for pts in v for p in pts[1:]]


def test_v_sets_trivial_and_conic():
    M = DilationMatrix(2)
    full, prime = one_level(M, [(0.0,)], k=0)
    assert close_sets(full, [(1,), (-1,)], tol=1e-12)
    assert close_sets(prime, [(-1,)], tol=1e-12)
    assert full[0] == ((1 + 0j),)
    assert M.dual_points()[0] == (1 + 0j,) and M.dual_points()[1] != (1 + 0j,)

    lam = 0.8
    k = 2
    _, prime = one_level(M, [(0.0,), (lam,), (-lam,)], k=k)
    want = [
        (-1.0,),
        (-cmath.exp(-lam * 2 ** -(k + 1)),),
        (-cmath.exp(lam * 2 ** -(k + 1)),),
    ]
    assert close_sets(prime, want, tol=1e-14)


def test_v_sets_butterfly_points():
    M = DilationMatrix([[2, 0], [0, 2]])
    lam = (0.3, 1.1)
    k = 1
    r = [cmath.exp(z * 2 ** -(k + 1)) for z in lam]
    _, prime = one_level(M, [lam], k=k)
    want = [
        (-1 / r[0], 1 / r[1]),
        (1 / r[0], -1 / r[1]),
        (-1 / r[0], -1 / r[1]),
    ]
    assert close_sets(prime, want, tol=1e-14)
    for p in prime:
        assert all(z != 0 for z in p)


def test_v_sets_lambda_zero_exactness():
    M = DilationMatrix(SQRT3)
    full, _ = one_level(M, [(0.0, 0.0)], k=5)
    assert full == list(M.dual_points())


def v_sets_oracle(M, lambdas, k):
    """The per-level loop that `v_stack` replaced: one `@` per frequency,
    `cmath.exp` and Python's complex products.  One (v, w) pair per point of
    V_k, by frequency and then by dual point."""
    W = M.inv_power(k + 1)
    full = []
    for lam in lambdas:
        w = tuple(np.array(as_complex_vector(lam, M.s)) @ W)
        base = tuple(cmath.exp(-w[j]) for j in range(M.s))
        for eps in M.dual_points():
            full.append((tuple(e * b for e, b in zip(eps, base)), w))
    return full


def v_x_oracle(M, tau, w):
    x = [sum(M.mat[i][j] * tau[j] for j in range(M.s)) - tau[i] for i in range(M.s)]
    return cmath.exp(-complex(sum(w[j] * x[j] for j in range(M.s))))


def hx(z) -> str:
    z = complex(z)
    return f"{z.real.hex()} {z.imag.hex()}"


# The five geometries of the catalog, each with zero, real, imaginary,
# complex and large frequencies.
GEOMETRIES = [
    (2, [0.0, 0.9, -0.9, 1.3j, 0.4 - 2.5j, 37.5 + 2j]),
    (3, [0.0, 1.1j, -0.7, 0.6 + 0.6j, -60.0j]),
    ([[2, 0], [0, 2]], [(0.0, 0.0), (0.5, 0.3), (0.5j, -0.3j), (1 + 1j, -2.0), (40.0, -25.5j)]),
    (SHEAR, [(0.0, 0.0), (0.6j, 0.9j), (0.6, 0.9), (-3 + 0.1j, 7.0)]),
    (SQRT3, [(0.0, 0.0), (0.2, -0.4), (0.2j, 0.4 + 1j), (12.0, -9.0j)]),
]


@pytest.mark.parametrize("entries, lams", GEOMETRIES)
def test_stacked_points_are_the_per_level_points_bit_for_bit(entries, lams):
    M = DilationMatrix(entries)
    levels = list(range(71))
    w, v = v_stack(M, lams, levels)
    assert w.shape == (71, len(lams), M.s) and v.shape == (71, len(lams), M.m, M.s)
    tau = (0.25,) * M.s if M.s == 1 else (0.25, -0.75)
    _, v_x = displacement(M, tau, w)
    for k in levels:
        want = v_sets_oracle(M, lams, k)
        assert len(want) == len(lams) * M.m
        stacked = [tuple(p) for lam_points in v[k].tolist() for p in lam_points]
        assert [[hx(z) for z in p] for p in stacked] == [[hx(z) for z in p] for p, _ in want]
        for i, (_, ref_w) in enumerate(want[:: M.m]):
            assert [hx(z) for z in w[k, i]] == [hx(z) for z in ref_w]
            assert hx(v_x[k, i]) == hx(v_x_oracle(M, tau, ref_w))
            assert hx(displacement(M, tau, ref_w)[1]) == hx(v_x_oracle(M, tau, ref_w))


def test_stacked_points_keep_cmath_errors_and_values_past_the_numpy_range():
    # Re(-w) above 708 is where np.exp and cmath.exp part; v_stack keeps
    # cmath.exp's value there, and its OverflowError past the double range.
    M = DilationMatrix(2)
    for lam in (-1417.0, -1418.5 + 1j, complex(-1419.0, 3e300)):
        want = v_sets_oracle(M, [lam], 0)
        assert [hx(p[0]) for p in v_stack(M, [lam], [0])[1][0, 0]] == [hx(p[0]) for p, _ in want]
    with pytest.raises(OverflowError):
        v_sets_oracle(M, [-1500.0], 0)
    with pytest.raises(OverflowError):
        v_stack(M, [0.5, -1500.0], [3, 0])
    with pytest.raises(LatticeError):
        v_stack(M, [0.5], [1, -1])
    # v^x past Re 708 for a single point and for an array of them
    w = (complex(-1.7725, 0.25),)
    assert hx(displacement(M, (400.0,), w)[1]) == hx(v_x_oracle(M, (400.0,), w))
    assert hx(displacement(M, (400.0,), np.array([w]))[1][0]) == hx(v_x_oracle(M, (400.0,), w))
    with pytest.raises(OverflowError):
        displacement(M, (500.0,), w)


def test_cexp_quiet_leaves_a_non_finite_value_where_cmath_raises():
    z = np.array([0.5 - 1j, 709.5, complex(708.5, 2.0), 800.0, complex(0.0, float("inf"))])
    with pytest.raises(OverflowError):
        cexp(z)
    with pytest.raises(ValueError):
        cexp(z[4:])
    got = cexp(z, quiet=True)
    for zi, gi in zip(z.tolist(), got.tolist()):
        try:
            assert hx(gi) == hx(cmath.exp(zi))
        except (OverflowError, ValueError):
            assert not cmath.isfinite(gi)


def test_param_points():
    M1 = DilationMatrix(2)
    assert param_array(M1, (0.0,), 0, [(3,)]).tolist() == [[3.0]]
    assert param_array(M1, (-0.5,), 1, [(3,)]).tolist() == [[1.25]]
    M2 = DilationMatrix([[2, 0], [0, 2]])
    (pt,) = param_array(M2, (1.0, 1.0), 2, [(3, 7)]).tolist()
    assert pt == [1.0, 2.0]


def test_inv_power_cap():
    M = DilationMatrix(2)
    M.inv_power(60)
    assert M.inv_power(100)[0, 0] == 2.0 ** -100
    assert np.allclose(M.inv_power(3), [[0.125]])


def exact_inverse(mat):
    """M^{-1} as an exact sympy matrix, independent of the HNF."""
    return sympy.Matrix([[mat]] if isinstance(mat, int) else mat).inv()


def rounded(exact):
    """Correctly rounded doubles of an exact rational sympy matrix."""
    return np.array([[float(Fraction(int(x.p), int(x.q))) for x in row] for row in exact.tolist()])


@given(st.sampled_from(POWER_POOL), st.lists(st.integers(0, 300), min_size=1, max_size=4))
def test_inv_power_is_correctly_rounded(mat, ps):
    # one fresh matrix per example, so the powers are reached by extending
    # the kept exact power and by starting again below it
    M = DilationMatrix(mat)
    inv = exact_inverse(mat)
    for p in ps:
        got = M.inv_power(p)
        assert np.array_equal(got, rounded(inv**p)) and not got.flags.writeable


def test_inv_power_rejects_negative():
    with pytest.raises(LatticeError):
        DilationMatrix(2).inv_power(-1)


@pytest.mark.parametrize("mat", POWER_POOL)
def test_dual_points_match_fraction_formula(mat):
    # exp(2 pi i (M^{-T} xi mod 1)) with the phase reduced over Fraction
    M = DilationMatrix(mat)
    inv_t = exact_inverse(mat).T
    want = []
    for xi in M.dual_reps():
        phases = [
            sum(Fraction(int(inv_t[i, j].p), int(inv_t[i, j].q)) * xi[j] for j in range(M.s))
            for i in range(M.s)
        ]
        want.append(tuple(cmath.exp(2j * cmath.pi * float(u % 1)) for u in phases))
    hexes = [[(z.real.hex(), z.imag.hex()) for z in pt] for pt in M.dual_points()]
    assert hexes == [[(z.real.hex(), z.imag.hex()) for z in pt] for pt in want]


def test_inv_power_threads_agree_with_serial():
    # the caches fill without a lock: a lost write may only cost a recompute
    serial = DilationMatrix(SQRT3)
    want = {p: serial.inv_power(p) for p in range(201)}
    shared = DilationMatrix(SQRT3)
    barrier = threading.Barrier(4)
    results = [None] * 4

    def worker(i):
        order = list(range(201))
        random.Random(i).shuffle(order)
        barrier.wait()
        results[i] = {p: shared.inv_power(p) for p in order}

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert all(np.array_equal(got[p], want[p]) for p in range(201))


def test_dilation_matrix_rejects_attribute_writes():
    M = DilationMatrix([[2, 0], [0, 2]])
    for name, value in (("mat", ((3,),)), ("det", 9), ("s", 1), ("_coset_reps", [])):
        with pytest.raises(AttributeError):
            setattr(M, name, value)
    # the lazy caches still fill
    assert M.coset_reps() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(M.dual_points()) == 4
    assert M.mat == ((2, 0), (0, 2)) and M.det == 4 and M.s == 2
