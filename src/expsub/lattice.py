"""Integer-lattice machinery for expansive dilation matrices.

A dilation matrix M is a square integer matrix whose eigenvalues all have
modulus larger than one.  It splits Z^s into m = |det M| cosets indexed by
a digit set E, and pairs them with m unimodular evaluation points
Xi = {exp(2 pi i M^{-T} xi)} generalizing the m-th roots of unity.

One decomposition serves all of it: the row Hermite normal form H = U M
computed at construction.  det M = det U * prod(H_ii).  `split_all` reduces
U alpha into the digit box 0 <= d_i < H_ii, which gives alpha = e + M n; one
row of it is the coset map (`coset_of`) and the membership test
(`solve_integer`, e = 0).  Back-substitution in H X = m I, m = |det M| =
prod(H_ii), gives A = m M^{-1} = X U, the one copy of M^{-1}, and U^{-1} =
M X / m.  The digit box mapped back through U^{-1} is the transversal E, and
the same construction on M^T gives the dual representatives.  A gives the
dual points exactly, and M^{-p} = A^p / m^p rounded once per entry, for
every p >= 0.

Everything constructed here rejects attribute writes after construction;
the lazy caches only hold values derived from M, so it is safe to share
between threads.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from typing import Sequence

import numpy as np

__all__ = [
    "LatticeError",
    "DilationMatrix",
    "q_eval",
    "level_exponents",
    "v_stack",
    "cexp",
    "displacement",
    "param_array",
    "as_tau",
    "as_int",
    "as_real",
    "as_dimension",
    "as_point",
    "as_point_array",
    "as_multi_index",
    "as_complex_vector",
    "as_record",
    "as_point_values",
]

_EIG_TOL = 1e-9
# Largest count of lattice points an input may ask for: |det M| cosets, a mask's taps, a
# space pair's downward closure, a grid's bounding box (about 0.3 GB of complex values).
MAX_BOX_POINTS = 1 << 24


class LatticeError(ValueError):
    """Invalid dilation matrix or lattice operation."""


def _row_hnf(mat):
    """Row-style Hermite normal form over the integers.

    Returns (H, U, V, X, det_u) with H = U @ mat, U unimodular of determinant
    det_u = +-1, H upper triangular with positive diagonal and above-diagonal
    entries reduced into [0, diagonal), so det(mat) is det_u * prod(H_ii).
    Back-substitution in H X = m I, m = prod(H_ii), gives X = m H^{-1}; each
    division is exact because m H^{-1} is the adjugate of H.  Then
    mat^{-1} = H^{-1} U gives m mat^{-1} = X U, and V = U^{-1} = mat H^{-1}
    is mat X / m.
    """
    s = len(mat)
    H = [list(row) for row in mat]
    U = [[int(i == j) for j in range(s)] for i in range(s)]
    det_u = 1

    def row_op(i, j, q):
        # r_i <- r_i - q r_j on H and U.
        for c in range(s):
            H[i][c] -= q * H[j][c]
            U[i][c] -= q * U[j][c]

    for j in range(s):
        if all(H[i][j] == 0 for i in range(j, s)):
            raise LatticeError("dilation matrix must be nonsingular")
        while any(H[i][j] != 0 for i in range(j + 1, s)):
            pivot = min(
                (i for i in range(j, s) if H[i][j] != 0),
                key=lambda i: abs(H[i][j]),
            )
            if pivot != j:
                det_u = -det_u
                H[j], H[pivot], U[j], U[pivot] = H[pivot], H[j], U[pivot], U[j]
            for i in range(j + 1, s):
                if H[i][j] != 0:
                    row_op(i, j, H[i][j] // H[j][j])
        if H[j][j] < 0:
            det_u = -det_u
            H[j], U[j] = [-x for x in H[j]], [-x for x in U[j]]
    for j in range(s):
        for i in range(j):
            q = H[i][j] // H[j][j]
            if q:
                row_op(i, j, q)
    m = math.prod(H[i][i] for i in range(s))
    X = [[0] * s for _ in range(s)]
    for i, c in itertools.product(range(s - 1, -1, -1), range(s)):
        X[i][c] = (m * (i == c) - sum(H[i][j] * X[j][c] for j in range(i + 1, s))) // H[i][i]
    V = [[x // m for x in row] for row in _int_matmul(mat, X)]
    return H, U, V, X, det_u


def _digit_box(H, V) -> list[tuple[int, ...]]:
    """The points V d with 0 <= d_i < H_ii: one per coset of Z^s / (V H) Z^s."""
    s = len(H)
    return [
        tuple(sum(V[i][j] * d[j] for j in range(s)) for i in range(s))
        for d in itertools.product(*(range(H[i][i]) for i in range(s)))
    ]


def _int_matmul(a, b):
    """a @ b over the integers, as tuple rows."""
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in zip(*b)) for row in a)


class DilationMatrix:
    """Expansive integer matrix driving the refinement Z^s -> M^{-1} Z^s.

    Carries the arity m = |det M|, a canonical coset transversal E of
    Z^s / M Z^s, and the dual evaluation set Xi built from Z^s / M^T Z^s.
    """

    def __init__(self, entries):
        """`entries`: a DilationMatrix, rows of ints each read by `as_point`, or a bare number for s = 1."""
        rows = entries.mat if isinstance(entries, DilationMatrix) else _entries(entries)
        mat = tuple(as_point(row, what="dilation matrix entry") for row in rows)
        s = len(mat)
        if not s:
            raise LatticeError("empty matrix")
        if any(len(r) != s for r in mat):
            raise LatticeError("dilation matrix must be square")
        H, U, V, X, det_u = _row_hnf(mat)
        det = det_u * math.prod(H[i][i] for i in range(s))
        if abs(det) < 2:
            raise LatticeError("|det M| must be at least 2")
        if abs(det) > MAX_BOX_POINTS:
            raise LatticeError(f"|det M| must be at most {MAX_BOX_POINTS}")
        eigs = np.linalg.eigvals(np.array(mat, dtype=float))
        if np.min(np.abs(eigs)) <= 1.0 + _EIG_TOL:
            raise LatticeError(
                "all eigenvalues of a dilation matrix must exceed 1 in modulus"
            )
        # |alpha| up to `cap` keeps every value of `split_all` within int64
        cap = 2**62 // (s * max(abs(x) for row in U + V for x in row) * (1 + max(max(row) for row in H)) ** s)
        for name, value in (
            ("s", s),
            ("mat", mat),
            ("det", det),
            ("m", abs(det)),
            ("_A", _int_matmul(X, U)),
            ("_split_cap", cap),
            ("_uhv", (U, H, V)),
            ("_inv_powers", {}),
            ("_int_power", (0, np.eye(s, dtype=int).tolist())),
            ("_coset_reps", None),
            ("_dual", None),
            ("_dual_reps", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("DilationMatrix is immutable")

    def __repr__(self):
        if self.s == 1:
            return f"DilationMatrix({self.mat[0][0]})"
        return f"DilationMatrix({[list(r) for r in self.mat]})"

    def __eq__(self, other):
        return isinstance(other, DilationMatrix) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    # -- exact integer algebra -------------------------------------------------

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """M @ vec over the integers."""
        v = as_point(vec, self.s)
        return tuple(sum(map(operator.mul, row, v)) for row in self.mat)

    def solve_integer(self, vec: Sequence[int]) -> tuple[int, ...] | None:
        """Integer n with M n = vec, or None when vec is off-lattice."""
        e, n = self.split_all([as_point(vec, self.s)])
        return None if any(e[0].tolist()) else tuple(n[0].tolist())

    def inv_power(self, p: int) -> np.ndarray:
        """M^{-p} = A^p / m^p, each entry rounded once; read-only, cached per p.

        One exact power (q, A^q) is kept to extend from; p < q starts at A^0.
        """
        p = as_int(p, "inverse power")
        if p < 0:
            raise LatticeError(f"inverse power {p} is negative")
        got = self._inv_powers.get(p)
        if got is None:
            q, power = self._int_power
            if q > p:
                q, power = 0, np.eye(self.s, dtype=int).tolist()
            for _ in range(p - q):
                power = _int_matmul(power, self._A)
            object.__setattr__(self, "_int_power", (p, power))
            scale = self.m**p
            got = np.array([[x / scale for x in row] for row in power])
            got.flags.writeable = False
            self._inv_powers[p] = got
        return got

    # -- cosets ------------------------------------------------------------------

    def coset_reps(self) -> list[tuple[int, ...]]:
        """Canonical transversal E of Z^s / M Z^s, from the HNF digit box; it
        holds the origin and is sorted lexicographically."""
        if self._coset_reps is None:
            object.__setattr__(self, "_coset_reps", sorted(_digit_box(*self._uhv[1:])))
        return list(self._coset_reps)

    def coset_of(self, alpha: Sequence[int]) -> tuple[int, ...]:
        """The representative in coset_reps() equivalent to alpha mod M Z^s."""
        return tuple(self.split_all([as_point(alpha, self.s)])[0][0].tolist())

    def split_all(self, alphas) -> tuple[np.ndarray, np.ndarray]:
        """(e, n) with alpha = e + M n and e the representative in coset_reps(), for every row
        alpha of an (N, s) integer array, as arrays.

        Reduces y = U alpha into the HNF digit box of H = U M, last column first;
        the quotients are n, because V H = M.  Python ints where int64 could overflow.
        """
        a = np.array(alphas, dtype=object).reshape(-1, self.s)
        if a.size and np.abs(a).max() < self._split_cap:
            a = a.astype(np.int64)
        U, H, V = (np.array(x, dtype=a.dtype) for x in self._uhv)
        y = a @ U.T
        n = np.zeros_like(y)
        for ell in range(self.s - 1, -1, -1):
            n[:, ell] = q = y[:, ell] // H[ell, ell]
            y[:, : ell + 1] -= q[:, None] * H[: ell + 1, ell]
        return y @ V.T, n

    def dual_reps(self) -> list[tuple[int, ...]]:
        """Transversal of Z^s / M^T Z^s used to build the dual points."""
        if self._dual_reps is None:
            H, _, V, _, _ = _row_hnf([list(col) for col in zip(*self.mat)])
            reps = _digit_box(H, V)
            zero = (0,) * self.s
            reps.remove(zero)
            object.__setattr__(self, "_dual_reps", [zero] + sorted(reps))
        return list(self._dual_reps)

    def dual_points(self) -> list[tuple[complex, ...]]:
        """The set Xi = {exp(2 pi i M^{-T} xi)}; the all-ones point comes first, with exact ones."""
        if self._dual is None:
            phases = _int_matmul(self.dual_reps(), self._A)  # rows (A^T xi)^T = m (M^{-T} xi)^T
            pts = [tuple(cmath.exp(2j * cmath.pi * ((y % self.m) / self.m)) for y in row) for row in phases]
            object.__setattr__(self, "_dual", pts)
        return list(self._dual)


# -- module-level operation surface -------------------------------------------


def _entries(x):
    """The entries of a point or vector: a bare value (a number, a bool, a string) is the
    one entry of a 1-D one."""
    return (x,) if isinstance(x, (str, bytes)) or not hasattr(x, "__iter__") else x


def as_int(x, what: str = "value") -> int:
    """An int, or a float of integral value, as an int; a bool, any other float
    and a string are rejected, not truncated or read as 0 and 1."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer)) or (isinstance(x, float) and not x.is_integer()):
        raise LatticeError(f"{what} must be an integer, got {x!r}")
    return int(x)


def as_real(x, what: str = "value") -> float:
    """An int or a float as a float; a bool and a string are rejected, not read
    as 0 and 1 or parsed."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise LatticeError(f"{what} must be a real number, got {x!r}")
    return float(x)


def as_dimension(s) -> int:
    """A dimension s >= 1, read by `as_int`."""
    s = as_int(s, "dimension")
    if s < 1:
        raise LatticeError(f"dimension must be positive, got {s}")
    return s


def as_point(x, s: int | None = None, what: str = "lattice point") -> tuple[int, ...]:
    """The one reading of a lattice point in Z^s: a bare number is a 1-D point, each
    entry is read by `as_int`, and the length must be `s` when it is given."""
    if type(x) is not tuple or not set(map(type, x)) <= {int}:  # else x is taken as it is
        x = tuple(_entries(x))
        if not set(map(type, x)) <= {int}:
            x = tuple([as_int(v, what) for v in x])
    if s is not None and len(x) != s:
        raise LatticeError(f"{what} {x} has length {len(x)}, expected {s}")
    return x


def _span(x, what: str, radius: bool = False) -> tuple[int, int] | None:
    """The one reading of a range (lo, hi): a 2-tuple of bare values or, with `radius`, a bare
    value R for (-R, R), each read by `as_int`; None for any other x, which is read as points."""
    if radius and _entries(x) is not x:  # `_entries` wraps a bare value
        x = (-as_int(x, what), x)
    if isinstance(x, tuple) and len(x) == 2 and all(_entries(v) is not v for v in x):
        return as_int(x[0], what), as_int(x[1], what)
    return None


def as_point_array(points, s: int, what: str = "lattice point") -> np.ndarray:
    """`as_point` for the rows of an (N, s) array, as an int64 array: a signed integer array is taken
    as it is, and each entry of any other (unsigned too) is read by `as_int`, so none wraps past int64."""
    a = np.asarray(points)
    if a.dtype.kind != "i":
        a = np.array([as_int(x, what) for x in a.ravel().tolist()], dtype=np.int64)
    return a.astype(np.int64, copy=False).reshape(-1, s)


def as_multi_index(gamma, s: int | None = None) -> tuple[int, ...]:
    """`as_point` with nonnegative entries."""
    g = as_point(gamma, s, "multi-index")
    if g and min(g) < 0:
        raise LatticeError(f"multi-index entries must be nonnegative, got {g}")
    return g


def as_complex_vector(lam, s: int | None = None) -> tuple[complex, ...]:
    """A complex vector: a bare number is a 1-D one; a bool, a string and a
    non-finite entry are rejected."""
    v = []
    for z in _entries(lam):
        if isinstance(z, bool) or not isinstance(z, (int, float, complex, np.number)) or not cmath.isfinite(z):
            raise LatticeError(f"vector entry must be a finite number, got {z!r}")
        v.append(complex(z))
    if s is not None and len(v) != s:
        raise LatticeError(f"vector has length {len(v)}, expected {s}")
    return tuple(v)


def as_tau(tau, s: int) -> tuple[float, ...]:
    """Coerce a shift parameter to a real s-vector."""
    t = tuple(as_real(x, "shift parameter entry") for x in _entries(tau))
    if len(t) != s:
        raise LatticeError(f"shift parameter has length {len(t)}, expected {s}")
    if any(not np.isfinite(x) for x in t):
        raise LatticeError("shift parameter must be finite")
    return t


def as_record(obj, keys, what: str) -> dict:
    """A JSON object whose keys are all among `keys`, the keys its reader reads:
    a key no reader reads (a misspelled `tua`) is rejected, not ignored."""
    if not isinstance(obj, dict):
        raise LatticeError(f"{what} must be a JSON object, got {obj!r}")
    unread = [k for k in obj if k not in keys]
    if unread:
        raise LatticeError(f"{what} has the key {unread[0]!r}, which is not one of {', '.join(keys)}")
    return obj


def as_point_values(records, key: str, what: str) -> list[tuple[tuple[int, ...], complex]]:
    """The one reading of a list of {key: point, "re": real, "im": real} records as (point, value) pairs:
    each record passes `as_record`, then `as_point` and `as_real` read it; a missing "im" reads as 0."""
    if not isinstance(records, list):
        raise LatticeError(f"expected a list of {what}s, got {records!r}")
    what_point = f"{what} {key}"
    return [
        (as_point(r.get(key), what=what_point), complex(as_real(r.get("re"), "re"), as_real(r.get("im", 0.0), "im")))
        for r in (as_record(rec, (key, "re", "im"), what) for rec in records)
    ]


def q_eval(gamma, z) -> complex:
    """Falling-factorial product prod_l prod_{j<gamma_l} (z_l - j); empty = 1."""
    g = as_multi_index(gamma)
    zz = as_complex_vector(z, len(g))
    out = complex(1)
    for zl, gl in zip(zz, g):
        for j in range(gl):
            out *= zl - j
    return out


def cexp(z: np.ndarray, quiet: bool = False) -> np.ndarray:
    """`cmath.exp` elementwise on a complex array.

    np.exp has its bits where Re z <= 708 and Im z is finite; elsewhere
    `cmath.exp` itself runs.  Where it raises (OverflowError past the double
    range, ValueError for an infinite Im z), so does this, or, with `quiet`,
    np.exp's non-finite value stays.
    """
    # A NaN fails either test; an overflowing sum only sends z the slow way.
    if not z.size or (z.real.max() <= 708.0 and math.isfinite(z.imag.sum())):
        return np.exp(z)
    with np.errstate(all="ignore"):
        out = np.exp(z)
        odd = np.flatnonzero(~(z.real + 0.0 * z.imag <= 708.0))  # 0 * inf is NaN
    for i in odd.tolist():
        try:
            out.flat[i] = cmath.exp(z.flat[i])
        except (OverflowError, ValueError):
            if not quiet:
                raise
    return out


def level_exponents(M: DilationMatrix, lambdas, levels) -> np.ndarray:
    """The level exponents w = lambda^T M^{-(k+1)}, each the one-row product lambda @
    M^{-(k+1)}, as an (L, n, s) complex array over `levels` and `lambdas` in input order."""
    levels = [as_int(k, "level") for k in levels]
    if any(k < 0 for k in levels):
        raise LatticeError("level k must be nonnegative")
    lam = np.array([as_complex_vector(l, M.s) for l in lambdas], dtype=complex).reshape(-1, 1, M.s)
    W = np.array([M.inv_power(k + 1) for k in levels]).reshape(-1, 1, M.s, M.s)
    return (lam @ W)[:, :, 0]


def v_stack(M: DilationMatrix, lambdas, levels) -> tuple[np.ndarray, np.ndarray]:
    """The exponents w = `level_exponents` and points v = eps * exp(-w) of several levels.

    Returns w as an (L, n, s) and v as an (L, n, m, s) complex array, for the
    L levels, the n frequencies in input order and the m dual points eps in
    `M.dual_points()` order; eps * exp(-w) is formed from parts as CPython multiplies.
    """
    w = level_exponents(M, lambdas, levels)
    b = cexp(-w)[:, :, None]
    e = np.array(M.dual_points())
    v = np.empty(b.shape[:2] + e.shape, dtype=complex)
    v.real = e.real * b.real - e.imag * b.imag
    v.imag = e.real * b.imag + e.imag * b.real
    return w, v


def displacement(M: DilationMatrix, tau, w):
    """x = M tau - tau and v^x = exp(-w . x) for points with exponents w.

    `w` is one exponent row of `level_exponents`, which gives v^x as a
    complex, or an (..., s) array of them, which gives an array.  v^x is
    formed from the defining exponents, so no logarithm branch is involved.
    """
    t = as_tau(tau, M.s)
    x = tuple(
        float(sum(M.mat[i][j] * t[j] for j in range(M.s)) - t[i]) for i in range(M.s)
    )
    if not all(map(math.isfinite, x)):
        raise LatticeError(f"M tau - tau is not finite for tau {t}")
    w = np.asarray(w, dtype=complex)
    wx = 0  # `sum` adds the first term to 0; slices keep arrays, never scalars
    for j in range(M.s):
        wx = wx + w[..., j : j + 1] * x[j]
    v_x = cexp(-wx)[..., 0]
    return x, (v_x if w.ndim > 1 else complex(v_x))


def param_array(M: DilationMatrix, tau, k: int, alphas) -> np.ndarray:
    """Grid attachment t^[k]_alpha = M^{-k}(alpha + tau) as an (N, s) float array.

    `alphas` is an iterable of index tuples or an (N, s) integer array.  Each
    coordinate is summed left to right from +0.0 over elementwise products,
    so every caller gets the same bits and an index that maps to zero gives
    +0.0, never -0.0.
    """
    t = as_tau(tau, M.s)
    Mk = M.inv_power(k)
    shifted = as_point_array(alphas, M.s) + np.array(t)
    out = np.zeros((len(shifted), M.s))
    for i in range(M.s):
        for j in range(M.s):
            out[:, i] = out[:, i] + Mk[i, j] * shifted[:, j]
    return out
