"""Subdivision operators on lattice data.

Applies masks to finitely supported grid data, runs multi-level refinement,
samples exponential polynomials on shifted grids, and collects basic limit
function samples.

Grid data is dense (origin, complex array over the support's bounding box,
support mask).  One kernel, `_gather`, sums each coset e of Z^s / M Z^s as
out[e + M g] = sum_n a_(e + M n) f[g - n] from +0.0, one data slice per tap,
taps in descending-lexicographic n (the pointwise gather's order over sorted
beta = g - n), products formed from parts as Python forms them.  A step reads
the data zero-padded by each coset's tap span; as a sum from +0.0 never becomes
-0.0 under round-to-nearest, the zero terms change no bit.  An OR of the taps'
views of one flag keeps, for a step, the points that read the support and, for
a valid interior, the points that read nothing outside the window.  A step's
padded box and coset boxes together must fit in MAX_BOX_POINTS, checked first;
non-finite values are rejected, as the taps also multiply the padding.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections.abc import Mapping

import numpy as np

from .lattice import (
    DilationMatrix,
    _span,
    as_complex_vector,
    as_dimension,
    as_int,
    as_multi_index,
    as_point,
    as_point_array,
    as_real,
    as_tau,
    cexp,
    param_array,
)
from .symbols import LaurentSymbol, SchemeSpec

__all__ = [
    "EngineError",
    "GridData",
    "apply_operator",
    "refine",
    "sample_exp_poly",
    "exp_poly_values",
    "basic_limit_samples",
    "limit_sample_arrays",
    "is_interpolatory",
    "valid_interior",
    "box_indices",
    "grid_to_json_obj",
    "grid_to_json",
    "grid_from_json_obj",
    "grid_to_csv",
    "grid_from_csv",
]

# Largest bounding box, in lattice points, that a grid or one operator step
# may allocate (about 0.3 GB of complex values).
MAX_BOX_POINTS = 1 << 24
# Largest |index| of a grid point; M g then stays far inside int64.
MAX_INDEX = 1 << 31


class EngineError(ValueError):
    """Bad grid data or incompatible operator application."""


def _check_box(points: int) -> None:
    if points > MAX_BOX_POINTS:
        raise EngineError(
            f"data spans a bounding box of {points} lattice points;"
            f" the dense layout holds at most {MAX_BOX_POINTS}"
        )


def _pack(points: np.ndarray, values: np.ndarray):
    """Dense (origin, support mask, values) over the bounding box of the distinct `points`.

    `values` may be a (B, N) stack, giving data of shape (B, *box).
    """
    s = points.shape[1]
    lead = np.shape(values)[:-1]
    if not np.isfinite(values).all():
        raise EngineError("grid values must be finite")
    if not len(points):
        shape = (0,) * s
        return np.zeros(s, dtype=np.int64), np.zeros(shape, bool), np.zeros(lead + shape, complex)
    if np.abs(points).max() > MAX_INDEX:
        raise EngineError(f"lattice indices must lie within +-{MAX_INDEX}")
    lo = points.min(axis=0)
    shape = tuple((points.max(axis=0) - lo + 1).tolist())
    _check_box(int(np.prod(shape)))
    loc = tuple((points - lo).T)
    mask = np.zeros(shape, bool)
    mask[loc] = True
    if np.count_nonzero(mask) < len(points):
        raise EngineError("grid data gives an index more than once")
    data = np.zeros(lead + shape, complex)
    data[(Ellipsis, *loc)] = values
    return lo, mask, data


class GridValues(Mapping):
    """Read-only index -> value view of a GridData.

    `len()` is the support size; the dict behind the view is built on the
    first lookup or iteration and kept by the grid, which keeps no view: a
    grid and its view form no cycle that would hold the grid's arrays.
    """

    __slots__ = ("_grid",)

    def __init__(self, grid: "GridData"):
        self._grid = grid

    @property
    def _dict(self) -> dict | None:
        return self._grid._values

    def _lookup(self) -> dict:
        if self._dict is None:
            pts, vals = self._grid.points()
            object.__setattr__(self._grid, "_values", dict(zip(map(tuple, pts.tolist()), vals.tolist())))
        return self._dict

    def __len__(self):
        return len(self._grid)

    def __getitem__(self, key):
        return self._lookup()[key]

    def __iter__(self):
        return iter(self._lookup())


class GridData:
    """Finitely supported complex data on Z^s, tagged with level and shift.

    Stored densely over the bounding box of the support: `origin` is its
    lowest corner, `data` a C-ordered complex128 array and `in_support` a
    boolean mask; exact zeros inside the support stay in it.  Both arrays
    are read-only and the grid cannot be changed after construction.
    `values` is a read-only index -> value mapping for I/O and tests.

    The level tag exists so masks from one refinement level are not silently
    applied to data living on another.
    """

    __slots__ = ("s", "level", "tau", "origin", "data", "in_support", "_values")

    def __init__(self, s: int, level: int, values, tau=None):
        s = as_dimension(s)
        keys, vals = [], []
        for idx, v in values.items() if isinstance(values, Mapping) else values:
            keys.append(as_point(idx, s, "grid index"))
            vals.append(complex(v))
        try:
            points = np.array(keys, dtype=np.int64).reshape(-1, s)
        except OverflowError as exc:
            raise EngineError(f"lattice indices must lie within +-{MAX_INDEX}") from exc
        self._init(s, level, tau, *_pack(points, np.array(vals, dtype=complex)))

    @classmethod
    def from_points(cls, s: int, level: int, points, values, tau=None) -> "GridData":
        """Grid with values[i] at the distinct indices points[i] of an (N, s) array."""
        s = as_dimension(s)
        obj = cls.__new__(cls)
        obj._init(s, level, tau, *_pack(as_point_array(points, s, "grid index"), values))
        return obj

    def _init(self, s, level, tau, origin, in_support, data):
        level = as_int(level, "grid level")
        if level < 0:
            raise EngineError("level must be nonnegative")
        in_support.flags.writeable = False
        data.flags.writeable = False
        for name, value in (
            ("s", s),
            ("level", level),
            ("tau", as_tau(tau if tau is not None else (0.0,) * s, s)),
            ("origin", tuple(origin.tolist())),
            ("data", data),
            ("in_support", in_support),
            ("_values", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GridData is immutable")

    @classmethod
    def delta(cls, s: int, level: int = 0, tau=None) -> "GridData":
        return cls(s, level, {(0,) * as_dimension(s): 1.0}, tau=tau)

    @property
    def values(self) -> GridValues:
        return GridValues(self)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Support indices as an (N, s) array in sorted order, and their values."""
        loc = np.nonzero(self.in_support)
        idx = np.stack(loc, axis=1).reshape(-1, self.s) + np.array(self.origin)
        return idx, self.data[loc]

    def support(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self.points()[0].tolist()))

    def __len__(self):
        return int(np.count_nonzero(self.in_support))


def _window(window, s: int) -> np.ndarray:
    """`box_indices` as an (N, s) int64 array; a box is checked before it is built."""
    s = as_dimension(s)
    span = _span(window, "window bound", radius=True)
    if span is not None:
        lo, hi = span
        if lo > hi:
            raise EngineError("empty window range")
        _check_box((hi - lo + 1) ** s)
        return np.indices((hi - lo + 1,) * s, dtype=np.int64).reshape(s, -1).T + lo
    out = {as_point(idx, s, "window index") for idx in window}
    return np.array(sorted(out), dtype=np.int64).reshape(-1, s)


def box_indices(window, s: int) -> list[tuple[int, ...]]:
    """Expand a window spec into a sorted list of lattice indices.

    Accepts a radius R (the box [-R, R]^s), a tuple (lo, hi) applied to every
    axis, each an integer as `as_int` reads it, or any other iterable (a list
    or a set, say) of indices, read as points; a bare int point is a 1-D index.
    """
    return list(map(tuple, _window(window, s).tolist()))


def _taps(mask: LaurentSymbol, M: DilationMatrix):
    """`mask.polyphase_arrays(M)`: [(e, n, c)] with a_(e + M n[i]) = c[i], all finite."""
    if mask.s != M.s:
        raise EngineError("dimension mismatch between mask and matrix")
    taps = mask.polyphase_arrays(M)
    if taps and not np.isfinite(np.concatenate([c for _, _, c in taps])).all():
        raise EngineError("mask has a non-finite coefficient")
    return [(e, ns.astype(np.int64, copy=False), c) for e, ns, c in taps]


def _fine_points(mat: np.ndarray, e, g0, loc) -> np.ndarray:
    """Fine indices e + M g, as an (N, s) array, of the coarse points g = g0 + loc (`mat`: M, int64)."""
    return sum(np.multiply.outer(q, col) for q, col in zip(loc, mat.T)) + (mat @ np.asarray(g0) + e)


@np.errstate(over="ignore", invalid="ignore")  # a caller rejects or scores a non-finite sum
def _gather(taps, M: DilationMatrix, origin, flags: np.ndarray, data: np.ndarray, full: bool):
    """Per coset, the coarse convolution of `data` ((*lead, *flags.shape) from `origin`; a tap's
    coefficient row broadcasts against (*lead, *box)): the (N, s) points, cosets in tap order, and
    their (*lead, N) values.  `full`: the step on Z^s, each coset reading the data zero-padded by
    its own span, kept where some tap reads a flagged (support) point.  Otherwise the valid
    interior, the box eroded by the taps: kept where no tap reads a flagged (outside) point."""
    s, shape = M.s, flags.shape
    lead = data.shape[: data.ndim - s]
    his = [ns.max(axis=0) for _, ns, _ in taps]
    spans = [(hi - ns.min(axis=0)).tolist() for hi, (_, ns, _) in zip(his, taps)]
    pads = spans if full else [[0] * s] * len(taps)
    pad = [max(q) for q in zip([0] * s, *pads)]
    boxes = [tuple(n + 2 * q - d for n, q, d in zip(shape, p, span)) for p, span in zip(pads, spans)]
    padded = tuple(n + 2 * q for n, q in zip(shape, pad))
    _check_box(math.prod(padded) + sum(math.prod(b) for b in boxes if min(b) > 0))
    buf = np.zeros((3, *lead, *padded))  # (-im, re, im): parts (re, im) and turned (-im, re) are slices
    parts, turned = buf[1:], buf[:2]
    fl = np.zeros(padded, bool)
    inner = tuple(slice(q, q + n) for q, n in zip(pad, shape))
    buf[(slice(None), Ellipsis, *inner)], fl[inner] = (-data.imag, data.real, data.imag), flags
    flagged = fl.any()  # else no OR: nothing is read from a flagged point
    mat = np.array(M.mat, dtype=np.int64)
    points, values = [np.zeros((0, s), dtype=np.int64)], [np.zeros((*lead, 0), complex)]
    for (e, ns, coeffs), hi, p, box in zip(taps, his, pads, boxes):
        if min(box) <= 0:
            continue
        hit = np.zeros(box, bool)
        acc = np.zeros((2, *lead, *box))
        cols = coeffs.reshape(*coeffs.shape, *(1,) * (data.ndim + 1 - coeffs.ndim))
        real = not np.count_nonzero(coeffs.imag)  # then ci * turned is a zero, which changes no sum
        for off, cr, ci in zip((np.subtract(pad, p) + hi - ns).tolist(), cols.real, cols.imag):
            view = tuple(slice(o, o + d) for o, d in zip(off, box))
            if flagged:
                hit |= fl[view]
            v = (slice(None), Ellipsis, *view)
            acc += cr * parts[v] if real else cr * parts[v] + ci * turned[v]
        loc = np.nonzero(hit if full else ~hit)
        points.append(_fine_points(mat, e, np.subtract(origin, p) + hi, loc))
        vals = np.empty((*lead, len(loc[0])), complex)
        vals.real, vals.imag = acc[(slice(None), Ellipsis, *loc)]
        values.append(vals)
    del buf, parts, turned  # freed before the joins, the step's memory peak
    return np.concatenate(points), np.concatenate(values, axis=-1)


def apply_operator(mask: LaurentSymbol, M: DilationMatrix, f: GridData) -> GridData:
    """One subdivision step: output_alpha = sum_beta mask_(alpha - M beta) f_beta.

    The output support is supp(mask) + M supp(f); contributions at each output
    point are summed in increasing beta order.
    """
    if mask.s != f.s or M.s != f.s:
        raise EngineError("dimension mismatch between mask, matrix and data")
    points, values = _gather(_taps(mask, M), M, f.origin, f.in_support, f.data, full=True)
    return GridData.from_points(f.s, f.level + 1, points, values, tau=f.tau)


def refine(scheme: SchemeSpec, f0: GridData, rounds: int, start_level: int | None = None) -> GridData:
    """Compose masks a^[l], a^[l+1], ..., a^[l+rounds-1] on f0."""
    rounds = as_int(rounds, "rounds")
    if rounds < 0:
        raise EngineError("rounds must be nonnegative")
    lvl = f0.level if start_level is None else as_int(start_level, "start level")
    if lvl < 0:
        raise EngineError("start level must be nonnegative")
    g = f0
    for i in range(rounds):
        g = apply_operator(scheme.symbol(lvl + i), scheme.M, g)
    return g


def exp_poly_values(pairs, t) -> np.ndarray:
    """x^gamma exp(lambda . x) of each (gamma, lambda) pair at the rows of an (N, s) float
    array t (0^0 = 1), as a (P, N) array; one cexp over the distinct lambdas.

    The bits of `p *= t_l ** gamma_l; p * cmath.exp(sum(lambda_l * t_l))`: libm's
    pow as Python's `**` calls it, `lattice.cexp`, and complex products formed
    from parts as CPython forms them.  Where `**` or cmath.exp overflows, the
    value is non-finite instead.
    """
    t = np.asarray(t, dtype=float)
    n, s = t.shape
    powers = {}
    lams = np.array([lam for _, lam in pairs], dtype=complex).reshape(len(pairs), s)
    distinct = {}  # tells -0.0 from 0.0
    which = [distinct.setdefault(row.tobytes(), len(distinct)) for row in lams]
    out = np.empty((len(pairs), n), complex)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite samples are rejected later
        p = np.ones((len(pairs), n))
        for row, (gamma, _) in zip(p, pairs):
            for i, g in enumerate(gamma):
                if g:
                    if (i, g) not in powers:  # np.float_power is libm's pow, not numpy's own
                        powers[i, g] = np.float_power(t[:, i], g)
                    row *= powers[i, g]
        z = np.empty((len(distinct), n), complex)
        for row, lam in zip(z, lams[[which.index(j) for j in range(len(distinct))]].tolist()):
            re = im = 0.0  # `sum` adds the first term to 0
            for col, l in zip(t.T, lam):
                re = re + (l.real * col - l.imag * 0.0)
                im = im + (l.real * 0.0 + l.imag * col)
            row.real, row.imag = re, im
        e = cexp(z, quiet=True)[which]
        out.real, out.imag = p * e.real - 0.0 * e.imag, p * e.imag + 0.0 * e.real
    return out


def _samples(pairs, M: DilationMatrix, tau, levels, window):
    """The window's (N, s) indices and an (L, P, N) stack of each pair's samples at each level."""
    levels = [as_int(k, "level") for k in levels]
    if min(levels) < 0:
        raise EngineError("level must be nonnegative")
    idx = _window(window, M.s)
    pairs = [(as_multi_index(g, M.s), as_complex_vector(lam, M.s)) for g, lam in pairs]
    t = np.concatenate([param_array(M, tau, k, idx) for k in levels])
    return idx, exp_poly_values(pairs, t).reshape(len(pairs), len(levels), len(idx)).swapaxes(0, 1)


def sample_exp_poly(gamma, lam, M: DilationMatrix, tau, level: int, window) -> GridData:
    """Samples of x^gamma exp(lambda . x) at t = M^{-level}(alpha + tau)."""
    idx, vals = _samples([(gamma, lam)], M, tau, [level], window)
    return GridData.from_points(M.s, level, idx, vals[0, 0], tau=tau)


def _sampled_steps(masks, M: DilationMatrix, pairs, tau, levels, window):
    """One step of each level's mask on the pairs' samples on the window, at its valid interior
    only, from one `_interior` pass per taps layout (cosets and n): the (valid, values) of the
    levels before the first that fails, sorted (N, s) and (P, N), and its error or None."""
    taps, error = [], None
    try:
        for mask in masks:
            taps.append(_taps(mask, M))
    except Exception as exc:  # the caller raises it after the levels before it
        error = exc
    if not taps:
        return [], error
    idx, samples = _samples(pairs, M, tau, levels[: len(taps)], window)
    if not np.isfinite(samples).all():
        taps, error = taps[: int(np.isfinite(samples).all(axis=(1, 2)).argmin())], EngineError("grid values must be finite")
    groups = {}
    for i, level_taps in enumerate(taps):
        groups.setdefault(tuple((e, ns.tobytes()) for e, ns, _ in level_taps), []).append(i)
    steps = [None] * len(taps)
    for rows in groups.values():
        cols = [(e, ns, np.array([taps[i][j][2] for i in rows]).T) for j, (e, ns, _) in enumerate(taps[rows[0]])]
        valid, values = _interior(cols, M, idx, samples[rows])
        if not len(valid):
            return steps[: rows[0]], EngineError("empty valid interior; enlarge the window")
        for i, v in zip(rows, values):
            steps[i] = (valid, v)
    return steps, error


def limit_sample_arrays(scheme: SchemeSpec, rounds: int, start_level: int = 0):
    """Refine the delta sequence; its parameter points and values as arrays.

    Returns an (N, s) float array of t = M^{-(start_level+rounds)}(alpha + tau)
    and the N complex values, sorted by index alpha.  tau comes from the
    scheme (default 0).
    """
    if as_int(rounds, "rounds") < 1:
        raise EngineError("need at least one refinement round")
    tau = scheme.tau if scheme.tau is not None else (0.0,) * scheme.M.s
    f = GridData.delta(scheme.M.s, level=start_level, tau=tau)
    g = refine(scheme, f, rounds, start_level=start_level)
    idx, vals = g.points()
    return param_array(scheme.M, tau, g.level, idx), vals


def basic_limit_samples(scheme: SchemeSpec, rounds: int, start_level: int = 0):
    """`limit_sample_arrays` as a list of (t, value) pairs, t a coordinate tuple."""
    t, vals = limit_sample_arrays(scheme, rounds, start_level)
    return list(zip(map(tuple, t.tolist()), vals.tolist()))


def is_interpolatory(mask: LaurentSymbol, M: DilationMatrix) -> bool:
    """Exact test for mask_(M alpha) = delta_(alpha,0): the zero coset's only tap is a_0 = 1."""
    zero = (0,) * M.s
    taps = {e: (ns.tolist(), cs.tolist()) for e, ns, cs in mask.polyphase_arrays(M)}
    return taps.get(zero) == ([list(zero)], [1])


def valid_interior(mask: LaurentSymbol, M: DilationMatrix, window) -> list[tuple[int, ...]]:
    """Output indices whose whole stencil lies inside the input window.

    At these indices one subdivision step of data known only on the window
    agrees with the step applied to data known on all of Z^s.  Per coset
    this is the erosion of the window by the coset's taps.
    """
    win_idx = _window(window, M.s)
    return list(map(tuple, _interior(_taps(mask, M), M, win_idx, np.zeros((1, 0, len(win_idx))))[0].tolist()))


def _interior(taps, M: DilationMatrix, win_idx: np.ndarray, stack: np.ndarray):
    """The window's valid interior, sorted (N, s), and the step there of an (L, P, len(win_idx))
    `stack`, level l with column l of the (T, L) coefficients, (L, P, N)."""
    w0, win, data = _pack(win_idx, stack)
    pts, values = _gather(taps, M, w0, ~win, data, full=False)
    order = np.lexsort(pts.T[::-1])
    return pts[order], values[..., order]


# -- serialization ---------------------------------------------------------------

# Rows formatted by one `%` per block: large enough that the per-call cost
# vanishes, small enough that a block's text and arguments stay a few
# hundred kB.
BLOCK_ROWS = 1024

# Each float column is looked at before it is formatted: SAMPLE_RUNS evenly
# spaced runs of SAMPLE_RUN rows are counted (refined values repeat within a
# few dozen rows, grid coordinates along or across the grid's rows).  A
# column whose sample is one value is checked in full and, if constant,
# becomes text in the row template.  If at most REPEAT_SHARE of the sample is
# distinct values, each block of the column formats each of its distinct
# values once and gathers the text by index.  Counting and gathering a row
# cost about a fifth of formatting a float, and about as much as formatting
# an integer, so integer columns are formatted as they are.  Counting a block
# at a time keeps the scratch arrays small.
SAMPLE_RUNS, SAMPLE_RUN = 4, 64
REPEAT_SHARE = 0.75

# One conversion, or "%%"; compiled on first use, as only `limit` and `refine` write rows.
_FIELD = r"(%[^a-zA-Z%]*[a-zA-Z%])"


def _sampled(key: np.ndarray) -> tuple[int, int]:
    """(distinct values, size) of the column's sample: its runs, or all of it if short."""
    n = len(key)
    if n > SAMPLE_RUNS * SAMPLE_RUN:
        key = key[: n // SAMPLE_RUNS * SAMPLE_RUNS].reshape(SAMPLE_RUNS, -1)[:, :SAMPLE_RUN]
    key = np.sort(key, axis=None)
    return int(np.count_nonzero(key[1:] != key[:-1])) + 1, key.size


def _gathered(fmt: str, key: np.ndarray, dtype) -> list[str]:
    """`fmt % v` for each value of a block, formatted once per distinct value."""
    distinct, index = np.unique(key, return_inverse=True)
    texts = [fmt % v for v in distinct.view(dtype).tolist()]
    return list(map(texts.__getitem__, index.tolist()))


def write_rows(fh, row: str, columns, sep: str = "") -> None:
    """Write `row % (c[i] for c in columns)` for every i, joined by `sep`.

    `columns` are equal-length 1-D arrays, one per conversion in `row`.  A
    constant float column is formatted once into the row template, a float
    column that repeats once per distinct value in each block (keyed by its
    bits, so 0.0 and -0.0 stay apart), and any other column a block of rows
    at a time from `.tolist()`.  One `%` per block on the repeated template
    then gives exactly the text of formatting row by row.
    """
    n = len(columns[0])
    if not n:
        return
    parts = re.split(_FIELD, row)  # literal text, then a conversion and literal text in turn
    fields = [i for i in range(1, len(parts), 2) if parts[i] != "%%"]
    cols = []  # (values, or bit keys with the values' format and dtype)
    for i, col in zip(fields, columns, strict=True):
        if col.dtype.kind != "f":
            cols.append((col, None, None))
            continue
        key = col.view(f"i{col.itemsize}")
        distinct, size = _sampled(key)
        if distinct == 1 and (key == key[0]).all():
            parts[i] = (parts[i] % col[:1].tolist()[0]).replace("%", "%%")
        elif distinct <= REPEAT_SHARE * size:
            cols.append((key, parts[i], col.dtype))
            parts[i] = "%s"
        else:
            cols.append((col, None, None))
    row, width = "".join(parts), len(cols)
    block = tmpl = None
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        if hi - lo != block:
            block = hi - lo
            tmpl = sep.join([row] * block)
            args = [None] * (block * width)
        for j, (vals, fmt, dtype) in enumerate(cols):
            args[j::width] = vals[lo:hi].tolist() if fmt is None else _gathered(fmt, vals[lo:hi], dtype)
        if lo:
            fh.write(sep)
        fh.write(tmpl % tuple(args))


def _grid_columns(g: GridData) -> list[np.ndarray]:
    """Index columns idx0..idx{s-1}, then the real and imaginary parts."""
    idx, vals = g.points()
    return [*idx.T, vals.real, vals.imag]


def grid_to_json_obj(g: GridData) -> dict:
    idx, vals = g.points()
    return {
        "level": g.level,
        "tau": list(g.tau),
        "values": [
            {"idx": i, "re": v.real, "im": v.imag}
            for i, v in zip(idx.tolist(), vals.tolist())
        ],
    }


def grid_to_json(g: GridData, fh) -> None:
    """Write `grid_to_json_obj(g)` as `json.dump(.., indent=2)` does, plus a newline."""
    head = json.dumps({"level": g.level, "tau": list(g.tau), "values": []}, indent=2)
    if not len(g):
        fh.write(head + "\n")
        return
    idx = ",\n".join(["        %d"] * g.s)
    record = '    {\n      "idx": [\n' + idx + '\n      ],\n      "re": %r,\n      "im": %r\n    }'
    fh.write(head[: -len("]\n}")] + "\n")  # up to the "[" of the values list
    write_rows(fh, record, _grid_columns(g), sep=",\n")
    fh.write("\n  ]\n}\n")


def grid_from_json_obj(obj: dict) -> GridData:
    try:
        values = [
            (tuple(rec["idx"]), complex(as_real(rec["re"], "re"), as_real(rec.get("im", 0.0), "im")))
            for rec in obj["values"]
        ]
        level = obj["level"]
    except (KeyError, TypeError) as exc:
        raise EngineError(f"bad grid data: {exc!r}") from exc
    if not values:
        raise EngineError("cannot infer dimension of empty grid data")
    return GridData(len(values[0][0]), level, values, tau=obj.get("tau"))


def grid_to_csv(g: GridData, fh) -> None:
    """Header idx0..idx{s-1},re,im; integer indices, values as `repr`; CRLF line ends."""
    fh.write(",".join([f"idx{i}" for i in range(g.s)] + ["re", "im"]) + "\r\n")
    write_rows(fh, ",".join(["%d"] * g.s + ["%r", "%r"]) + "\r\n", _grid_columns(g))


def grid_from_csv(fh, level: int = 0, tau=None) -> GridData:
    rows = list(csv.reader(fh))
    if not rows:
        raise EngineError("empty CSV")
    header = rows[0]
    s = sum(1 for h in header if h.startswith("idx"))
    if s == 0 or header[s:s + 1] != ["re"]:
        raise EngineError("CSV header must be idx0..idx{s-1},re,im")
    values = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) < s + 2:
            raise EngineError(f"CSV row {row!r} has fewer fields than idx0..idx{s - 1},re,im")
        idx = tuple(int(x) for x in row[:s])
        values.append((idx, complex(float(row[s]), float(row[s + 1]))))
    return GridData(s, level, values, tau=tau)
